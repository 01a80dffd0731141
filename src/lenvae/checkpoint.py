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

A load reads the file twice: it checks the CRC over the body in CRC_CHUNK
reads before parsing a byte, then parses from the start, checking each
length against the bytes left before it reads or allocates, and reads each
tensor straight into its own array. It holds one copy of the parameters plus
ParamStore.add's copy of one tensor. A record that does not parse, config
included, is a CheckpointFormatError.
"""

import json
import math
import operator
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
CRC_CHUNK = 1 << 20  # bytes per read while a load checks the CRC


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
                arr = np.asarray(t.data, dtype="<f8", order="C")
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


def checkpoint_load(path):
    """Returns (params, hyperparams, vocabulary, step); raises a distinct
    CheckpointError subclass for each kind of damage."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 4 + 4:
            raise CheckpointTruncatedError(f"checkpoint too short ({size} bytes)")
        body_size = size - 4
        crc = 0
        for offset in range(0, body_size, CRC_CHUNK):
            crc = zlib.crc32(f.read(min(CRC_CHUNK, body_size - offset)), crc)
        if f.read(4) != struct.pack("<I", crc):
            raise CheckpointChecksumError("checkpoint checksum mismatch")
        f.seek(0)
        pos = 0

        def take(n):
            """Counts n more body bytes as read, raising if the body ends first."""
            nonlocal pos
            if pos + n > body_size:
                raise CheckpointTruncatedError(
                    f"checkpoint truncated: wanted {n} bytes at offset {pos}, "
                    f"body has {body_size}")
            pos += n
            return n

        def unpack(fmt):
            return struct.unpack(fmt, f.read(take(struct.calcsize(fmt))))

        if f.read(take(4)) != MAGIC:
            raise CheckpointFormatError(f"{path} is not a checkpoint file (bad magic)")
        version, = unpack("<I")
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint format version {version} (expected {FORMAT_VERSION})")
        config_bytes = f.read(take(unpack("<Q")[0]))
        try:
            config = json.loads(config_bytes.decode("utf-8"))
            hp = HyperParams(**config["hyperparams"])
            vocab = Vocabulary.from_tokens(config["vocab_tokens"])
            step = operator.index(config["step"])
            params = ParamStore()
            for _ in range(unpack("<Q")[0]):
                name = f.read(take(unpack("<I")[0])).decode("utf-8")
                rank, = unpack("<I")
                dims = unpack(f"<{rank}Q")
                take(8 * math.prod(dims))
                values = np.empty(dims, "<f8")
                f.readinto(memoryview(values.reshape(-1)).cast("B"))
                params.add(name, values)
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointFormatError(f"malformed checkpoint: {e!r}") from e
        if pos != body_size:
            raise CheckpointFormatError(f"{body_size - pos} trailing bytes in checkpoint")
    return params, hp, vocab, step
