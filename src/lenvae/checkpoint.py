"""Versioned binary checkpoints.

Layout (all integers little-endian): magic b"LVAE", u32 format version,
u64 config length + UTF-8 JSON config (hyperparameters, step, vocabulary
token list), u64 tensor count, then per tensor: u32 name length + name,
u32 rank, u64 dims, float64 little-endian row-major values. The file ends
with a CRC32 of every preceding byte.

A save streams each part to a temporary file beside the target as it is
made, folding it into the running CRC, so it holds no copy of the
parameters. It then syncs the file to disk and renames it over the target,
so a crash mid-save leaves the previous file whole.
"""

import json
import os
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .model import HyperParams
from .numerics import ParamStore
from .textpipe import Vocabulary

MAGIC = b"LVAE"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Base for all checkpoint problems."""


class CheckpointFormatError(CheckpointError):
    """Not a checkpoint file (bad magic) or malformed structure."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


class IncompatibleCheckpointError(CheckpointError):
    """Checkpoint is valid but unusable for the requested operation."""


def checkpoint_save(path, params: ParamStore, hp: HyperParams, vocab: Vocabulary, step: int) -> None:
    config = {"hyperparams": asdict(hp), "step": int(step), "vocab_tokens": vocab.tokens}
    config_bytes = json.dumps(config).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            crc = 0

            def write(part):
                nonlocal crc
                f.write(part)
                crc = zlib.crc32(part, crc)

            write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(config_bytes)))
            write(config_bytes)
            write(struct.pack("<Q", len(params)))
            for name, t in params.items():
                name_bytes = name.encode("utf-8")
                arr = np.ascontiguousarray(t.data, dtype="<f8")
                write(struct.pack("<I", len(name_bytes)) + name_bytes
                      + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
                write(memoryview(arr.reshape(-1)).cast("B"))
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointTruncatedError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def checkpoint_load(path):
    """Returns (params, hyperparams, vocabulary, step); raises a distinct
    CheckpointError subclass for version, truncation and checksum problems."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 4 + 4:
        raise CheckpointTruncatedError(f"checkpoint too short ({len(raw)} bytes)")
    body, stored_crc = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(body) != stored_crc:
        raise CheckpointChecksumError("checkpoint checksum mismatch")

    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path} is not a checkpoint file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint format version {version} (expected {FORMAT_VERSION})")
    config = json.loads(r.take(r.u64()).decode("utf-8"))
    hp = HyperParams(**config["hyperparams"])
    vocab = Vocabulary.from_tokens(config["vocab_tokens"])
    step = config["step"]

    params = ParamStore()
    for _ in range(r.u64()):
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        values = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(dims)
        params.add(name, values.astype(np.float64))
    if r.pos != len(body):
        raise CheckpointFormatError(f"{len(body) - r.pos} trailing bytes in checkpoint")
    return params, hp, vocab, step
