"""Versioned binary checkpoints.

Layout (all integers little-endian): magic b"LVAE", u32 format version,
u64 config length + UTF-8 JSON config (hyperparameters, step, vocabulary
token list), u64 tensor count, then per tensor: u32 name length + name,
u32 rank, u64 dims, row-major little-endian values. The file ends with a
CRC32 of every preceding byte.

The version names the values' element type and nothing else: version 1
holds ``<f8`` (float64) values, version 2 the same layout with ``<f4``
(float32) values (``ELEMENT_TYPES``). A save takes the version from the
dtype of the stored parameters, which must all share one of these, so a
float64 store writes the same bytes as before version 2 existed. A load
returns the parameters in the dtype the file holds.

A save streams each part to a temporary file beside the target as it is
made, folding it into the running CRC; a tensor goes in row blocks
(``numerics.row_blocks``), each byte-swapped only on a big-endian machine,
so a save holds no copy of the parameters. It then syncs the
file to disk and renames it over the target, so a crash mid-save leaves the
previous file whole. The temporary file gets a fresh name from
``tempfile.mkstemp`` (owner-only permissions, created exclusively), so a
file that a crashed save left behind never blocks the next one.

A load reads the file twice: it checks the CRC over the body in CRC_CHUNK
reads before parsing a byte, then parses from the start. Before it reads or
allocates, it checks each length against the bytes left, and each tensor's
name and dims against ``model.param_shapes`` of the stored hyperparameters.
Each tensor is read with one ``readinto`` straight into the array the
ParamStore keeps, so a load holds one copy of the parameters. A record that
does not parse, config included, is a CheckpointFormatError, and so is a
file whose tensors or vocabulary do not fit its hyperparameters.
"""

import json
import math
import operator
import os
import struct
import tempfile
import zlib
from dataclasses import asdict

import numpy as np

from .model import HyperParams, param_shapes
from .numerics import ParamStore, row_blocks
from .textpipe import Vocabulary

MAGIC = b"LVAE"
ELEMENT_TYPES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}  # format version -> values
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
    """Writes the format version of the parameters' dtype; raises ValueError
    for a store of mixed dtypes or of a dtype no version holds."""
    dtypes = {t.data.dtype.newbyteorder("<") for _, t in params.items()}
    version = next((v for v, element in ELEMENT_TYPES.items() if {element} == dtypes), None)
    if version is None:
        raise ValueError(f"cannot save parameters of dtypes {sorted(map(str, dtypes))}: "
                         f"a checkpoint holds one of {[str(e) for e in ELEMENT_TYPES.values()]}")
    element = ELEMENT_TYPES[version]
    config = {"hyperparams": asdict(hp), "step": int(step), "vocab_tokens": vocab.tokens}
    config_bytes = json.dumps(config).encode("utf-8")
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(path) + ".",
                               dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as f:
            crc = 0

            def write(part):
                nonlocal crc
                f.write(part)
                crc = zlib.crc32(part, crc)

            write(MAGIC + struct.pack("<IQ", version, len(config_bytes)))
            write(config_bytes)
            write(struct.pack("<Q", len(params)))
            for name, t in params.items():
                name_bytes = name.encode("utf-8")
                write(struct.pack("<I", len(name_bytes)) + name_bytes
                      + struct.pack(f"<I{t.data.ndim}Q", t.data.ndim, *t.data.shape))
                for block in row_blocks(t.data):
                    write(memoryview(np.ascontiguousarray(block, element).reshape(-1)).cast("B"))
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def checkpoint_load(path):
    """Returns (params, hyperparams, vocabulary, step), the parameters in
    the file's element type; raises a distinct CheckpointError subclass for
    each kind of damage, and CheckpointVersionError for a version other
    than those of ``ELEMENT_TYPES``.

    The tensors must be exactly ``model.param_shapes`` of the stored
    hyperparameters, and the vocabulary must hold ``vocab_size`` tokens.
    """
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
        if version not in ELEMENT_TYPES:
            raise CheckpointVersionError(f"unsupported checkpoint format version {version} "
                                         f"(expected one of {sorted(ELEMENT_TYPES)})")
        element = ELEMENT_TYPES[version]
        config_bytes = f.read(take(unpack("<Q")[0]))
        try:
            config = json.loads(config_bytes.decode("utf-8"))
            hp = HyperParams(**config["hyperparams"])
            vocab = Vocabulary.from_tokens(config["vocab_tokens"])
            step = operator.index(config["step"])
            if vocab.size != hp.vocab_size:
                raise CheckpointFormatError(
                    f"malformed checkpoint: vocabulary has {vocab.size} tokens, "
                    f"hyperparameters give vocab_size {hp.vocab_size}")
            unread = param_shapes(hp)
            params = ParamStore()
            for _ in range(unpack("<Q")[0]):
                name = f.read(take(unpack("<I")[0])).decode("utf-8")
                rank, = unpack("<I")
                dims = unpack(f"<{rank}Q")
                take(element.itemsize * math.prod(dims))
                expected = unread.pop(name, "no tensor of that name left")
                if dims != expected:
                    raise CheckpointFormatError(f"malformed checkpoint: tensor {name!r} is "
                                                f"{dims}, hyperparameters give {expected}")
                values = np.empty(dims, element)
                f.readinto(memoryview(values.reshape(-1)).cast("B"))
                params.add(name, values)
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointFormatError(f"malformed checkpoint: {e!r}") from e
        if unread:
            raise CheckpointFormatError(f"malformed checkpoint: tensors {list(unread)} absent")
        if pos != body_size:
            raise CheckpointFormatError(f"{body_size - pos} trailing bytes in checkpoint")
    return params, hp, vocab, step
