"""Checkpoint round trips, typed corruption errors and atomic, streamed saves."""

import hashlib
import json
import os
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from lenvae.checkpoint import (
    ELEMENT_TYPES, CheckpointChecksumError, CheckpointFormatError, CheckpointTruncatedError,
    CheckpointVersionError, IncompatibleCheckpointError, checkpoint_load,
    checkpoint_save,
)
from lenvae.inference import summarize
from lenvae.model import HyperParams, init_params
from lenvae.textpipe import Vocabulary, build_vocab

DESK_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.fixture
def saved(tmp_path):
    vocab = build_vocab([["cat", "dog", "runs", "the"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=2, max_len_index=12, softmax_samples=4)
    params = init_params(hp, np.random.default_rng(0))
    path = tmp_path / "model.lvae"
    checkpoint_save(path, params, hp, vocab, step=123)
    return path, params, hp, vocab


def test_roundtrip_bit_exact(saved):
    path, params, hp, vocab = saved
    loaded_params, loaded_hp, loaded_vocab, step = checkpoint_load(path)
    assert step == 123
    assert loaded_hp == hp
    assert loaded_vocab.tokens == vocab.tokens
    assert [n for n, _ in loaded_params.items()] == [n for n, _ in params.items()]  # order
    for name, t in params.items():
        got = loaded_params[name].data
        assert got.dtype == t.data.dtype
        np.testing.assert_array_equal(got, t.data)


def test_truncated_file_is_typed_error(saved):
    path, *_ = saved
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises((CheckpointTruncatedError, CheckpointChecksumError)):
        checkpoint_load(path)
    # cutting exactly the checksum keeps the body parseable but not verifiable
    path.write_bytes(raw[:-2])
    with pytest.raises((CheckpointTruncatedError, CheckpointChecksumError)):
        checkpoint_load(path)


@pytest.mark.parametrize("size", [0, 4, 11])
def test_file_shorter_than_magic_version_and_checksum_is_truncation(saved, size):
    path, *_ = saved
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(CheckpointTruncatedError, match=rf"too short \({size} bytes\)"):
        checkpoint_load(path)


def test_flipped_byte_is_checksum_error(saved):
    path, *_ = saved
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        checkpoint_load(path)


def test_version_mismatch_is_typed_error(saved, tmp_path):
    path, *_ = saved
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    # restore a valid checksum so the version check is what fires
    import zlib
    body = bytes(raw[:-4])
    out = tmp_path / "versioned.lvae"
    out.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointVersionError):
        checkpoint_load(out)


def test_bad_magic_is_format_error(tmp_path):
    import zlib
    body = b"NOPE" + struct.pack("<I", 1) + b"\x00" * 16
    path = tmp_path / "bad.lvae"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path)


def test_lenemb_disabled_checkpoint_refuses_length_decoding(tmp_path):
    vocab = build_vocab([["cat", "dog", "runs", "the"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=1, max_len_index=12, softmax_samples=4,
                     lenemb=False)
    params = init_params(hp, np.random.default_rng(1))
    path = tmp_path / "nolen.lvae"
    checkpoint_save(path, params, hp, vocab, step=1)
    loaded_params, loaded_hp, loaded_vocab, _ = checkpoint_load(path)
    assert loaded_hp.lenemb is False
    with pytest.raises(IncompatibleCheckpointError):
        summarize("the cat runs", 2, loaded_params, loaded_hp, loaded_vocab,
                  beam_width=2, max_tokens=6)
    # natural-length decoding stays possible
    out = summarize("the cat runs", "natural", loaded_params, loaded_hp,
                    loaded_vocab, beam_width=2, max_tokens=6)
    assert isinstance(out, str)


@pytest.mark.parametrize("dtype, version", [(np.float32, 2), (np.float64, 1)],
                         ids=["float32", "float64"])
def test_checkpoint_round_trips_in_the_version_of_its_dtype(tmp_path, dtype, version):
    # a float32 store is a version 2 file of <f4 values and loads as float32;
    # a float64 store is a version 1 file of <f8 values, as before version 2
    vocab = build_vocab([["a", "b"]], top_k=5)
    hp = HyperParams(vocab_size=vocab.size, cell_size=4, embed_size=4,
                     latent_dim=2, bow_width=4, len_embed_size=2,
                     decoder_layers=1, max_len_index=8, softmax_samples=3)
    params = init_params(hp, np.random.default_rng(2), dtype=dtype)
    path = tmp_path / "model.lvae"
    checkpoint_save(path, params, hp, vocab, step=0)
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 4) == (version,)
    element = np.dtype(dtype).newbyteorder("<")
    assert ELEMENT_TYPES[version] == element
    records = tensor_records(raw)
    loaded, *_ = checkpoint_load(path)
    for (name, t), record in zip(params.items(), records):
        assert record.endswith(t.data.astype(element).tobytes()), name
        got = loaded[name].data
        assert got.dtype == dtype and got.tobytes() == t.data.tobytes(), name


def test_save_refuses_a_store_no_version_holds(tmp_path):
    vocab = build_vocab([["a", "b"]], top_k=5)
    hp = HyperParams(vocab_size=vocab.size, cell_size=4, embed_size=4,
                     latent_dim=2, bow_width=4, len_embed_size=2,
                     decoder_layers=1, max_len_index=8, softmax_samples=3)
    mixed = init_params(hp, np.random.default_rng(2))
    mixed["out.b"].data = mixed["out.b"].data.astype(np.float64)
    half = init_params(hp, np.random.default_rng(2), dtype=np.float16)
    for params in (mixed, half):
        with pytest.raises(ValueError, match="cannot save parameters of dtypes"):
            checkpoint_save(tmp_path / "model.lvae", params, hp, vocab, step=0)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("version", [0, 3])
def test_version_next_to_the_known_ones_is_typed_error(saved, tmp_path, version):
    path, *_ = saved
    raw = path.read_bytes()
    body = raw[:4] + struct.pack("<I", version) + raw[8:-4]
    out = tmp_path / "versioned.lvae"
    out.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointVersionError, match=f"version {version} "):
        checkpoint_load(out)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_save_keeps_previous_checkpoint(saved, monkeypatch, failing):
    path, params, hp, vocab = saved
    before = path.read_bytes()
    for _, t in params.items():
        t.data += 1.0  # a save that went through would change the file

    def fail(*args):
        raise OSError(f"simulated {failing} failure")

    monkeypatch.setattr(os, failing, fail)
    with pytest.raises(OSError, match="simulated"):
        checkpoint_save(path, params, hp, vocab, step=124)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert checkpoint_load(path)[3] == 123
    assert os.listdir(path.parent) == [path.name]  # no temporary file left behind


def test_stale_temporary_file_does_not_block_a_save(saved):
    # a crashed save of a process with this pid left its temporary file behind
    path, params, hp, vocab = saved
    stale = path.parent / f"{path.name}.{os.getpid()}.tmp"
    stale.write_bytes(b"left by a crashed save")
    checkpoint_save(path, params, hp, vocab, step=124)
    assert checkpoint_load(path)[3] == 124
    assert stale.read_bytes() == b"left by a crashed save"
    assert sorted(os.listdir(path.parent)) == sorted([path.name, stale.name])


def test_resave_reproduces_recorded_desk_checkpoint(tmp_path):
    recorded = json.loads((DESK_DATA / "desk_1500.json").read_text())
    params, hp, vocab, step = checkpoint_load(DESK_DATA / recorded["file"])
    path = tmp_path / "resaved.lvae"
    checkpoint_save(path, params, hp, vocab, step)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded["sha256"]


def test_save_streams_without_copying_parameters(tmp_path):
    vocab = build_vocab([["cat", "dog", "runs", "the"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=256, embed_size=64)
    params = init_params(hp, np.random.default_rng(0))
    param_bytes = sum(t.data.nbytes for _, t in params.items())
    assert param_bytes > 4_000_000
    tracemalloc.start()
    try:
        checkpoint_save(tmp_path / "big.lvae", params, hp, vocab, step=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param_bytes / 2
    loaded, *_ = checkpoint_load(tmp_path / "big.lvae")
    for name, t in params.items():
        np.testing.assert_array_equal(loaded[name].data, t.data)


def test_large_vocabulary_round_trip_keeps_layout_and_streams(tmp_path):
    # the output layer is the largest tensor: a save writes it without a copy
    # of it, and a load reads each tensor into one C-ordered array without a
    # second copy of the parameters
    vocab = Vocabulary([f"w{i}" for i in range(7995)])
    hp = HyperParams(vocab_size=vocab.size, cell_size=256, embed_size=8, latent_dim=4,
                     bow_width=4, len_embed_size=3, decoder_layers=1)
    params = init_params(hp, np.random.default_rng(0))
    out_w = params["out.W"].data
    assert out_w.flags.c_contiguous
    assert max(t.data.size for _, t in params.items()) == out_w.size
    param_bytes = sum(t.data.nbytes for _, t in params.items())
    path = tmp_path / "wide.lvae"
    tracemalloc.start()
    try:
        checkpoint_save(path, params, hp, vocab, step=1)
        _, save_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < out_w.nbytes / 2
    tracemalloc.start()
    try:
        loaded, *_ = checkpoint_load(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak < 1.1 * param_bytes
    for name, t in params.items():
        got = loaded[name].data
        assert got.flags.c_contiguous, name
        assert got.tobytes() == t.data.tobytes(), name


def rebuilt(raw, config_bytes=None, records=None):
    """``raw`` with its config block and/or tensor records replaced, and a
    checksum that matches, so that only the parse can object."""
    n, = struct.unpack_from("<Q", raw, 8)
    config_bytes = raw[16:16 + n] if config_bytes is None else config_bytes
    records = raw[16 + n:-4] if records is None else records
    body = raw[:8] + struct.pack("<Q", len(config_bytes)) + config_bytes + records
    return body + struct.pack("<I", zlib.crc32(body))


def tensor_record(name, dims, values=b""):
    return (struct.pack("<I", len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + values)


def test_trailing_bytes_with_a_matching_checksum_are_format_error(saved, tmp_path):
    path, *_ = saved
    raw = path.read_bytes()
    n, = struct.unpack_from("<Q", raw, 8)
    out = tmp_path / "trailing.lvae"
    out.write_bytes(rebuilt(raw, records=raw[16 + n:-4] + b"\0" * 5))
    with pytest.raises(CheckpointFormatError, match="5 trailing bytes"):
        checkpoint_load(out)


def test_load_holds_one_copy_of_parameters(tmp_path):
    vocab = build_vocab([["cat", "dog", "runs", "the"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=256, embed_size=64)
    params = init_params(hp, np.random.default_rng(0))
    param_bytes = sum(t.data.nbytes for _, t in params.items())
    assert param_bytes > 4_000_000
    checkpoint_save(tmp_path / "big.lvae", params, hp, vocab, step=1)
    tracemalloc.start()
    try:
        loaded, *_ = checkpoint_load(tmp_path / "big.lvae")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * param_bytes
    for name, t in params.items():
        np.testing.assert_array_equal(loaded[name].data, t.data)


@pytest.mark.parametrize("dims", [(1 << 20, 1 << 20), (1 << 32, 1 << 32)],
                         ids=["2^40 values", "2^64 values"])
def test_oversized_tensor_is_truncation_before_allocating(saved, tmp_path, dims):
    path, *_ = saved
    out = tmp_path / "huge.lvae"
    records = struct.pack("<Q", 1) + tensor_record(b"W", dims, b"\0" * 64)
    out.write_bytes(rebuilt(path.read_bytes(), records=records))
    with pytest.raises(CheckpointTruncatedError):
        checkpoint_load(out)


def edited(config, **changes):
    return json.dumps({**config, **changes}).encode()


@pytest.mark.parametrize("config_bytes", [
    lambda c: b"{not json",
    lambda c: b"\xff\xfe",
    lambda c: b"[1, 2]",
    lambda c: edited(c, step="ten"),
    lambda c: edited(c, vocab_tokens=["cat"]),
    lambda c: edited(c, hyperparams={**c["hyperparams"], "latent_dim": None}),
    # checksum-valid files whose tensors or vocabulary do not fit the hyperparameters
    lambda c: edited(c, hyperparams={**c["hyperparams"], "latent_dim": 5}),
    lambda c: edited(c, hyperparams={**c["hyperparams"], "cell_size": 7}),
    lambda c: edited(c, vocab_tokens=c["vocab_tokens"][:-3]),
], ids=["not JSON", "not UTF-8", "not an object", "string step", "no reserved tokens",
        "null latent_dim", "latent_dim off by one", "cell_size off by one",
        "3 tokens dropped"])
def test_malformed_config_is_format_error(saved, tmp_path, config_bytes):
    path, *_ = saved
    raw = path.read_bytes()
    n, = struct.unpack_from("<Q", raw, 8)
    out = tmp_path / "config.lvae"
    out.write_bytes(rebuilt(raw, config_bytes=config_bytes(json.loads(raw[16:16 + n]))))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(out)


@pytest.mark.parametrize("names", [[b"W", b"W"], [b"\xff"], [b"W"]],
                         ids=["duplicate", "not UTF-8", "not the model's"])
def test_bad_tensor_name_is_format_error(saved, tmp_path, names):
    path, *_ = saved
    records = struct.pack("<Q", len(names)) + b"".join(
        tensor_record(name, (1,), struct.pack("<d", 0.5)) for name in names)
    out = tmp_path / "names.lvae"
    out.write_bytes(rebuilt(path.read_bytes(), records=records))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(out)


def tensor_records(raw):
    """The raw tensor records of a checkpoint file, in file order."""
    version, n = struct.unpack_from("<IQ", raw, 4)
    itemsize = ELEMENT_TYPES[version].itemsize
    pos = 16 + n + 8
    records = []
    while pos < len(raw) - 4:
        name_len, = struct.unpack_from("<I", raw, pos)
        rank, = struct.unpack_from("<I", raw, pos + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + 8 + name_len)
        end = pos + 8 + name_len + 8 * rank + itemsize * int(np.prod(dims))
        records.append(raw[pos:end])
        pos = end
    return records


@pytest.mark.parametrize("keep", [lambda r: r[1:], lambda r: r[:-1], lambda r: r + r[:1]],
                         ids=["first record dropped", "last record dropped",
                              "first record repeated"])
def test_dropped_or_repeated_tensor_record_is_format_error(saved, tmp_path, keep):
    path, *_ = saved
    raw = path.read_bytes()
    records = keep(tensor_records(raw))
    out = tmp_path / "records.lvae"
    out.write_bytes(rebuilt(raw, records=struct.pack("<Q", len(records)) + b"".join(records)))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(out)
