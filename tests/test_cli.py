"""End-to-end subcommand behavior and exit codes (in-process, but for the
``python -m lenvae.cli`` runs)."""

import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from lenvae.checkpoint import checkpoint_load, checkpoint_save
from lenvae.cli import (
    EXIT_CORRUPT, EXIT_FAIL, EXIT_INCOMPATIBLE, EXIT_MISSING_FILE, EXIT_OK,
    EXIT_USAGE, _load_corpus, build_parser, main,
)
from lenvae.config import (
    KEYS, PAPER_PRESET, ConfigError, RunConfig, load_run_config, parse_config_text,
)
from lenvae.model import HyperParams
from lenvae.textpipe import Vocabulary, encode_sentences
from lenvae.training import TrainConfig


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------

def test_config_defaults_documented_per_field():
    cfg = RunConfig()
    text = cfg.render()
    for line in text.strip().splitlines():
        assert " = " in line
    assert parse_config_text(text)  # render/parse round trip


# the 24 keys the run config renders, with their desk defaults
DEFAULT_RENDER = {
    "cell_size = 32", "embed_size = 32", "latent_dim = 16", "bow_width = 32",
    "len_embed_size = 8", "decoder_layers = 2", "max_len_index = 30",
    "softmax_samples = 32", "lenemb = True", "top_k = 1000", "max_words = 30",
    "batch_size = 64", "total_steps = 2000", "anneal_horizon = 1000",
    "word_drop_p = 0.2", "dropout_keep = 0.87", "learning_rate = 0.002",
    "grad_clip = 5.0", "seed = 0", "checkpoint_interval = 1000",
    "desired_length = 20", "beam_width = 8", "max_tokens = 40", "byte_cap = 75",
}


def test_default_render_keeps_every_key_and_value():
    lines = load_run_config().render().splitlines()
    assert len(lines) == 24 == len(KEYS)
    assert set(lines) == DEFAULT_RENDER


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_render_parse_round_trip(preset):
    cfg = load_run_config(preset=preset)
    assert load_run_config(overrides=parse_config_text(cfg.render())) == cfg


def test_config_derives_the_dataclass_defaults():
    cfg = load_run_config()
    assert cfg == RunConfig()
    assert cfg.hyperparams(57) == HyperParams(vocab_size=57)
    assert cfg.train == TrainConfig()
    assert load_run_config(preset="paper").hyperparams(57) == HyperParams.paper_scale(57)


def test_out_of_range_value_rejected_at_load():
    with pytest.raises(ValueError, match="word_drop_p"):
        load_run_config(overrides={"word_drop_p": 1.5})
    with pytest.raises(ValueError, match="cell_size"):
        load_run_config(overrides={"cell_size": 0})
    with pytest.raises(ValueError, match="beam_width"):
        load_run_config(overrides={"beam_width": 0})


def test_config_file_overrides_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nbatch_size = 16  # trailing note\nseed = 9\n")
    cfg = load_run_config(path)
    assert cfg.train.batch_size == 16 and cfg.train.seed == 9


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_knob = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


@pytest.mark.parametrize("line, message", [
    ("lenemb = maybe", "config key 'lenemb': cannot parse 'maybe' as bool"),
    ("batch_size = many", "config key 'batch_size': cannot parse 'many' as int"),
    ("batch_size 16", "config line 1: expected 'key = value', got 'batch_size 16'"),
], ids=["bool", "int", "no equals sign"])
def test_config_line_that_does_not_parse_is_rejected(line, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(line + "\n")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text", ["false", "0", "No", "off "])
def test_config_file_turns_the_length_input_off(tmp_path, text):
    # --no-lenemb is a store_const, so only a config file parses a false bool
    path = tmp_path / "run.cfg"
    path.write_text(f"lenemb = {text}\n")
    assert load_run_config(path).hyperparams(57).lenemb is False


def test_config_file_bool_that_does_not_parse_is_exit_2(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("lenemb = maybe\n")
    code = run("--config", str(tmp_path / "run.cfg"), "train", "--corpus", "absent.txt",
               "--vocab", "absent.vocab", "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert "cannot parse 'maybe' as bool" in capsys.readouterr().err


def test_unknown_preset_and_override_key_rejected():
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        load_run_config(preset="nope")
    with pytest.raises(ConfigError, match="unknown config key 'warp_speed'"):
        load_run_config(overrides={"warp_speed": 9})


def test_config_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\n")
    cfg = load_run_config(path, overrides={"seed": 4})
    assert cfg.train.seed == 4


def test_paper_preset_records_published_values():
    cfg = load_run_config(preset="paper")
    hp = cfg.hyperparams(40000)
    assert hp.cell_size == 243
    assert hp.embed_size == 254
    assert hp.latent_dim == 124
    assert hp.bow_width == 236
    assert hp.len_embed_size == 50
    assert hp.softmax_samples == 1000
    assert cfg.top_k == 40000
    assert cfg.train.batch_size == 512
    assert cfg.decode.beam_width == 100
    assert cfg.desired_length == "20"
    assert cfg.train.word_drop_p == 0.20
    assert cfg.train.dropout_keep == 0.87
    assert set(PAPER_PRESET) <= set(parse_config_text(RunConfig().render()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_flags_that_override_config_keys():
    # main() passes every parsed argument whose destination is a config key
    # to load_run_config, so a flag that takes a key's name by accident
    # fails here
    parser = build_parser()
    parsers, dests = [parser], set()
    while parsers:
        for action in parsers.pop()._actions:
            dests.add(action.dest)
            parsers.extend((action.choices or {}).values()
                           if action.dest == "command" else ())
    assert dests & KEYS.keys() == {"seed", "top_k", "max_words", "total_steps", "batch_size",
                                   "lenemb", "desired_length", "beam_width", "byte_cap"}


def test_toy_corpus_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("toy-corpus", "--seed", "7", "--size", "200", "--output", str(out1)) == EXIT_OK
    assert run("toy-corpus", "--seed", "7", "--size", "200", "--output", str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 200


@pytest.mark.parametrize("argv, message", [
    (["--size", "-3"], "--size must be >= 1, got -3"),
    (["--size", "0"], "--size must be >= 1, got 0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["size-negative", "size-zero", "seed-negative"])
def test_toy_corpus_bad_count_is_exit_2_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "toy.txt"
    assert run("toy-corpus", "--output", str(out), *argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_writes_corpus_and_vocab(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("The cat Sat.\nSold 25 cars TODAY!\n\nA dog.\n")
    corpus = tmp_path / "corpus.txt"
    vocab_path = tmp_path / "vocab.txt"
    code = run("preprocess", "--input", str(raw), "--output", str(corpus),
               "--vocab", str(vocab_path), "--top-k", "50")
    assert code == EXIT_OK
    lines = corpus.read_text().splitlines()
    assert lines[0] == "the cat sat ."
    assert lines[1] == "sold # cars today !"
    vocab_lines = vocab_path.read_text().splitlines()
    assert vocab_lines[0] == "<pad>"
    assert (tmp_path / "effective_config.txt").exists()


def test_missing_input_file_is_exit_3(tmp_path):
    code = run("preprocess", "--input", str(tmp_path / "nope.txt"),
               "--output", str(tmp_path / "c.txt"), "--vocab", str(tmp_path / "v.txt"))
    assert code == EXIT_MISSING_FILE


def test_preprocess_output_that_is_a_directory_is_exit_3(tmp_path, capsys):
    (tmp_path / "in.txt").write_text("the cat sat .\n")
    code = run("preprocess", "--input", str(tmp_path / "in.txt"),
               "--output", str(tmp_path), "--vocab", str(tmp_path / "v.txt"))
    assert code == EXIT_MISSING_FILE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]


def test_corpus_load_peaks_under_24_bytes_per_token(tmp_path):
    # 30,000 lines of 5 to 24 Zipf-ranked words over 20,000 word types, and
    # blank lines, which are skipped. Holding every line and token string
    # beside the id lists peaked at 81 bytes per token here; encoding each
    # line as it is read peaks at 14, little more than the lists' 8-byte slots.
    rng = np.random.default_rng(0)
    words = [f"w{rank}" for rank in range(20_000)]
    lengths = rng.integers(5, 25, 30_000)
    ranks = np.minimum(rng.zipf(1.2, lengths.sum()), len(words)) - 1
    lines = [" ".join(words[r] for r in chunk)
             for chunk in np.split(ranks, np.cumsum(lengths)[:-1])]
    lines[::1000] = [""] * len(lines[::1000])
    lines[1::1000] = [" \t "] * len(lines[1::1000])
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = Vocabulary(words)
    tracemalloc.start()
    try:
        sentences = _load_corpus(path, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    token_lines = [line.split() for line in lines if line.split()]
    assert sentences == encode_sentences(token_lines, vocab)
    assert peak / sum(map(len, token_lines)) < 24


@pytest.mark.parametrize("token", ["<pad>", "<s>", "</s>"])
@pytest.mark.parametrize("command", ["train", "probe"])
def test_corpus_line_with_a_control_token_is_exit_1(trained, tmp_path, capsys, command, token):
    # read as a word, the token would be trained as the PAD, BOS or EOS id
    _, _, vocab, _, out_with, out_without = trained
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"the cat runs\n\nthe {token} cat runs\n")
    argv = {
        "train": ["train", "--corpus", str(corpus), "--vocab", str(vocab),
                  "--out-dir", str(tmp_path / "run")],
        "probe": ["probe", "--checkpoint-lenemb", str(out_with / "final.lvae"),
                  "--checkpoint-no-lenemb", str(out_without / "final.lvae"),
                  "--corpus", str(corpus), "--out-dir", str(tmp_path / "probe")],
    }[command]
    assert run(*argv) == EXIT_FAIL
    assert capsys.readouterr().err == f"error: {corpus} line 3 holds the control token {token}\n"


def test_unknown_flag_is_exit_2(capsys):
    assert run("toy-corpus", "--frobnicate", "1", "--output", "x") == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_exit_2(capsys):
    assert run("explode") == EXIT_USAGE
    capsys.readouterr()


def test_bad_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    code = run("--config", str(cfg), "toy-corpus", "--output", str(tmp_path / "o.txt"))
    assert code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flags, config_line", [
    (["--length", "abc"], ""),
    (["--length", "-2"], ""),
    ([], "desired_length = abc\n"),
], ids=["flag-word", "flag-negative", "config-word"])
def test_bad_length_is_exit_2_before_any_file_is_read(tmp_path, capsys, flags, config_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    code = run("--config", str(cfg), "summarize",
               "--checkpoint", str(tmp_path / "absent.lvae"),
               "--input", str(tmp_path / "absent.txt"),
               "--output", str(tmp_path / "o.txt"), *flags)
    assert code == EXIT_USAGE
    assert "desired_length must be a word count >= 0 or 'natural'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config_line, message", [
    (["--steps", "5"], "", "anneal_horizon must be <= total_steps"),
    (["--steps", "0"], "", "total_steps must be >= 1"),
    ([], "word_drop_p = 1.5\n", "word_drop_p must be in [0, 1]"),
    ([], "seed = -1\n", "seed must be >= 0"),
], ids=["flag-steps", "flag-steps-zero", "config-word-drop", "config-seed-negative"])
def test_range_error_is_exit_2_before_any_file_is_read(tmp_path, capsys, flags,
                                                      config_line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    code = run("--config", str(cfg), "train",
               "--corpus", str(tmp_path / "absent.txt"),
               "--vocab", str(tmp_path / "absent.vocab"),
               "--out-dir", str(tmp_path / "out"), *flags)
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


PREPROCESS_ABSENT = ["preprocess", "--input", "in.txt", "--output", "o.txt", "--vocab", "v.txt"]


@pytest.mark.parametrize("argv, config_line, key", [
    ([*PREPROCESS_ABSENT, "--top-k", "0"], "", "top_k"),
    ([*PREPROCESS_ABSENT, "--max-words", "0"], "", "max_words"),
], ids=["top_k", "max_words"])
def test_run_level_range_error_is_exit_2_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                                argv, config_line, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_line)
    assert run("--config", "run.cfg", *argv) == EXIT_USAGE
    assert f"{key} must be >= 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("config_line", [
    "anneal_kind = linear", "adam_beta1 = 0.9", "adam_beta2 = 0.999", "adam_eps = 1e-08",
    "bucket_width = 5",
], ids=lambda line: line.split(" ")[0])
def test_config_naming_a_removed_setting_is_exit_2(tmp_path, monkeypatch, capsys, config_line):
    # an effective_config.txt written before these settings became constants
    # names them with their old defaults; loading it fails loudly
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.cfg").write_text(f"batch_size = 64\n{config_line}\n")
    assert run("--config", "old.cfg", "train", "--corpus", "absent.txt",
               "--vocab", "absent.vocab", "--out-dir", "out") == EXIT_USAGE
    key = config_line.split(" ")[0]
    assert f"config line 2: unknown key {key!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["old.cfg"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny end-to-end train run shared by the decode/eval/probe tests."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.txt"
    assert run("toy-corpus", "--seed", "3", "--size", "240",
               "--output", str(raw)) == EXIT_OK
    corpus, vocab = root / "corpus.txt", root / "vocab.txt"
    assert run("preprocess", "--input", str(raw), "--output", str(corpus),
               "--vocab", str(vocab)) == EXIT_OK
    cfg = root / "tiny.cfg"
    cfg.write_text("cell_size = 12\nembed_size = 12\nlatent_dim = 6\n"
                   "bow_width = 12\nlen_embed_size = 4\ndecoder_layers = 1\n"
                   "softmax_samples = 16\nbatch_size = 32\ntotal_steps = 40\n"
                   "anneal_horizon = 20\ncheckpoint_interval = 20\nbeam_width = 3\n")
    out_with = root / "run_with"
    assert run("--config", str(cfg), "train", "--corpus", str(corpus),
               "--vocab", str(vocab), "--out-dir", str(out_with)) == EXIT_OK
    out_without = root / "run_without"
    assert run("--config", str(cfg), "train", "--corpus", str(corpus),
               "--vocab", str(vocab), "--out-dir", str(out_without),
               "--no-lenemb") == EXIT_OK
    return root, corpus, vocab, cfg, out_with, out_without


def test_train_outputs(trained):
    root, corpus, vocab, cfg, out_with, out_without = trained
    assert (out_with / "final.lvae").exists()
    assert (out_with / "ckpt_000020.lvae").exists()
    assert (out_with / "metrics.csv").exists()
    assert (out_with / "effective_config.txt").exists()
    header = (out_with / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,kl_weight,kl_value,reconstruction,bow,total,grad_norm,clipped"
    _, hp_with, _, step = checkpoint_load(out_with / "final.lvae")
    assert hp_with.lenemb and step == 40
    _, hp_without, _, _ = checkpoint_load(out_without / "final.lvae")
    assert not hp_without.lenemb


@pytest.mark.parametrize("command", ["train", "summarize"])
def test_unusable_output_dir_or_checkpoint_is_exit_3(trained, tmp_path, capsys, command):
    # train --out-dir names an existing file; summarize --checkpoint a directory
    root, corpus, vocab, cfg, _, _ = trained
    (tmp_path / "taken").write_text("")
    (tmp_path / "in.txt").write_text("the cat sat .\n")
    path, argv = {
        "train": (tmp_path / "taken", ["train", "--corpus", str(corpus), "--vocab", str(vocab),
                                       "--out-dir", str(tmp_path / "taken")]),
        "summarize": (root, ["summarize", "--checkpoint", str(root), "--input",
                             str(tmp_path / "in.txt"), "--output", str(tmp_path / "o.txt")]),
    }[command]
    assert run("--config", str(cfg), *argv) == EXIT_MISSING_FILE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def test_train_on_empty_corpus_is_exit_1_without_out_dir(trained, tmp_path, capsys):
    _, _, vocab, _, _, _ = trained
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    out_dir = tmp_path / "run"
    assert run("train", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out-dir", str(out_dir)) == EXIT_FAIL
    assert capsys.readouterr().err == "error: no sentences to train on\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("config_line, message", [
    ("checkpoint_interval = 0", "checkpoint_interval must be >= 1"),
    ("batch_size = 0", "batch_size must be >= 1"),
    ("batch_size = -4", "batch_size must be >= 1"),
    ("grad_clip = -1", "grad_clip must be > 0"),
    ("learning_rate = -0.1", "learning_rate must be > 0"),
    ("dropout_keep = 0", "dropout_keep must be in (0, 1]"),
])
def test_out_of_range_training_setting_is_exit_2(trained, tmp_path, capsys, config_line,
                                                 message):
    root, corpus, vocab, cfg, *_ = trained
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + f"total_steps = 4\nanneal_horizon = 2\n{config_line}\n")
    code = run("--config", str(bad), "train", "--corpus", str(corpus),
               "--vocab", str(vocab), "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summarize_roundtrip(trained, tmp_path):
    root, corpus, vocab, cfg, out_with, _ = trained
    inputs = tmp_path / "in.txt"
    inputs.write_text("the red cat runs quickly\nthe dog sleeps\n")
    outputs = tmp_path / "out.txt"
    code = run("--config", str(cfg), "summarize",
               "--checkpoint", str(out_with / "final.lvae"),
               "--input", str(inputs), "--output", str(outputs), "--length", "3")
    assert code == EXIT_OK
    lines = outputs.read_text().splitlines()
    assert len(lines) == 2
    code = run("--config", str(cfg), "summarize",
               "--checkpoint", str(out_with / "final.lvae"),
               "--input", str(inputs), "--output", str(outputs),
               "--length", "natural")
    assert code == EXIT_OK


def test_summarize_no_lenemb_checkpoint_is_exit_4(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, _, out_without = trained
    inputs = tmp_path / "in.txt"
    inputs.write_text("the dog sleeps\n")
    code = run("--config", str(cfg), "summarize",
               "--checkpoint", str(out_without / "final.lvae"),
               "--input", str(inputs), "--output", str(tmp_path / "o.txt"),
               "--length", "3")
    assert code == EXIT_INCOMPATIBLE
    assert capsys.readouterr().err == (
        "error: incompatible checkpoint: checkpoint was trained without length "
        "embeddings; use --length natural\n")


def test_summarize_length_from_config_file(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, _, out_without = trained
    natural = tmp_path / "natural.cfg"
    natural.write_text(cfg.read_text() + "desired_length = natural\n")
    inputs = tmp_path / "in.txt"
    inputs.write_text("the dog sleeps\n")
    outputs = tmp_path / "out" / "o.txt"
    outputs.parent.mkdir()
    code = run("--config", str(natural), "summarize",
               "--checkpoint", str(out_without / "final.lvae"),
               "--input", str(inputs), "--output", str(outputs))
    assert code == EXIT_OK
    assert "at length=natural" in capsys.readouterr().out
    echoed = (outputs.parent / "effective_config.txt").read_text().splitlines()
    assert "desired_length = natural" in echoed
    # --length still overrides the file
    code = run("--config", str(natural), "summarize",
               "--checkpoint", str(out_without / "final.lvae"),
               "--input", str(inputs), "--output", str(outputs), "--length", "3")
    assert code == EXIT_INCOMPATIBLE
    capsys.readouterr()


def test_corrupt_checkpoint_is_exit_5(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, out_with, _ = trained
    raw = bytearray((out_with / "final.lvae").read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad = tmp_path / "bad.lvae"
    bad.write_bytes(bytes(raw))
    inputs = tmp_path / "in.txt"
    inputs.write_text("the dog sleeps\n")
    code = run("summarize", "--checkpoint", str(bad), "--input", str(inputs),
               "--output", str(tmp_path / "o.txt"))
    assert code == EXIT_CORRUPT
    capsys.readouterr()


@pytest.mark.parametrize("edit", [
    lambda c: c["hyperparams"].update(colour="red"),
    lambda c: c.pop("vocab_tokens"),
    lambda c: c["hyperparams"].update(cell_size=0),
    lambda c: c["hyperparams"].update(latent_dim=c["hyperparams"]["latent_dim"] + 1),
], ids=["unknown hyperparams key", "missing vocab_tokens", "zero cell_size",
        "tensors built for another latent_dim"])
def test_malformed_config_block_is_exit_5(trained, tmp_path, capsys, edit):
    root, corpus, vocab, cfg, out_with, _ = trained
    raw = (out_with / "final.lvae").read_bytes()
    n, = struct.unpack_from("<Q", raw, 8)
    config = json.loads(raw[16:16 + n])
    edit(config)
    config_bytes = json.dumps(config).encode()
    body = raw[:8] + struct.pack("<Q", len(config_bytes)) + config_bytes + raw[16 + n:-4]
    bad = tmp_path / "bad.lvae"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # checksum-valid
    inputs = tmp_path / "in.txt"
    inputs.write_text("the dog sleeps\n")
    code = run("summarize", "--checkpoint", str(bad), "--input", str(inputs),
               "--output", str(tmp_path / "o.txt"))
    assert code == EXIT_CORRUPT
    assert capsys.readouterr().err.startswith("error: unreadable checkpoint: malformed checkpoint")


def test_evaluate_identity_scores_one(tmp_path, capsys):
    source = tmp_path / "src.txt"
    refs = tmp_path / "refs.txt"
    cands = tmp_path / "model.txt"
    lines = "the cat runs\na dog sleeps now\n"
    source.write_text(lines)
    refs.write_text(lines)
    cands.write_text(lines)
    out_dir = tmp_path / "eval"
    code = run("evaluate", "--source", str(source), "--references", str(refs),
               "--candidates", str(cands), "--out-dir", str(out_dir))
    assert code == EXIT_OK
    report = (out_dir / "report.txt").read_text()
    assert "model" in report and "prefix" in report
    row = [l for l in report.splitlines() if l.startswith("model")][0]
    assert row.split()[1:7] == ["100.00"] * 6  # identity: every recall and F1
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "hist_model.csv").read_text().startswith("bucket_start,count")
    capsys.readouterr()


def test_evaluate_table_shows_the_csv_recall_and_f1(tmp_path, capsys):
    source = tmp_path / "src.txt"
    refs = tmp_path / "refs.txt"
    cands = tmp_path / "model.txt"
    source.write_text("the cat runs fast today\na dog sleeps on the mat now\n")
    refs.write_text("the cat runs\na dog sleeps\n")
    cands.write_text("cat runs today\nthe dog sleeps on a mat\n")
    out_dir = tmp_path / "eval"
    assert run("evaluate", "--source", str(source), "--references", str(refs),
               "--candidates", str(cands), "--out-dir", str(out_dir)) == EXIT_OK
    table = (out_dir / "report.txt").read_text()
    assert capsys.readouterr().out == table
    with open(out_dir / "report.csv", encoding="utf-8") as f:
        rows = {row["system"]: row for row in csv.DictReader(f)}
    text_rows = [line.split() for line in table.splitlines()[1:]]
    assert [cells[0] for cells in text_rows] == list(rows)
    for name, *cells in text_rows:
        for i, kind in enumerate(("rouge1", "rouge2", "rougel")):
            recall, f1 = (float(rows[name][f"{kind}_{part}"]) for part in ("recall", "f1"))
            assert cells[2 * i] == f"{100 * recall:.2f}"
            assert cells[2 * i + 1] == f"{100 * f1:.2f}"
            assert f1 != recall   # so a swapped column would show


def test_evaluate_scores_what_summarize_writes(trained, tmp_path, capsys):
    # a blank source line passes through summarize as a blank output line;
    # evaluate leaves it out of every system's scores
    root, corpus, vocab, cfg, out_with, _ = trained
    source = tmp_path / "src.txt"
    source.write_text("the dog sleeps\n\na cat runs\n")
    decoded = tmp_path / "model.txt"
    assert run("summarize", "--checkpoint", str(out_with / "final.lvae"), "--input", str(source),
               "--output", str(decoded), "--length", "2") == EXIT_OK
    assert decoded.read_text().splitlines()[1] == ""
    out_dir = tmp_path / "eval"
    assert run("evaluate", "--source", str(source), "--references", str(source),
               "--candidates", str(decoded), "--out-dir", str(out_dir)) == EXIT_OK
    rows = (out_dir / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["prefix", "model"]
    assert all(row.split(",")[-1] == "2" for row in rows)  # n_examples
    capsys.readouterr()


def test_evaluate_without_a_scorable_line_is_exit_1(tmp_path, capsys):
    for text in ("", "\n  \n"):
        source = tmp_path / "src.txt"
        source.write_text(text)
        out_dir = tmp_path / "eval"
        assert run("evaluate", "--source", str(source), "--references", str(source),
                   "--out-dir", str(out_dir)) == EXIT_FAIL
        assert "no non-blank line to score" in capsys.readouterr().err
        assert not out_dir.exists()


def test_evaluate_misaligned_candidates_leave_no_out_dir(tmp_path, capsys):
    source = tmp_path / "src.txt"
    source.write_text("the cat runs\na dog sleeps now\n")
    short = tmp_path / "short.txt"
    short.write_text("the cat runs\n")
    out_dir = tmp_path / "eval"
    assert run("evaluate", "--source", str(source), "--references", str(source),
               "--candidates", str(source), str(short), "--out-dir", str(out_dir)) == EXIT_FAIL
    assert "does not align" in capsys.readouterr().err
    assert not out_dir.exists()


def test_probe_cli(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, out_with, out_without = trained
    out_dir = tmp_path / "probe"
    code = run("--config", str(cfg), "probe",
               "--checkpoint-lenemb", str(out_with / "final.lvae"),
               "--checkpoint-no-lenemb", str(out_without / "final.lvae"),
               "--corpus", str(corpus), "--out-dir", str(out_dir))
    assert code == EXIT_OK
    report = (out_dir / "probe_report.txt").read_text()
    assert "with length input" in report and "without length input" in report
    capsys.readouterr()


def test_probe_split_does_not_follow_the_training_seed(trained, tmp_path, capsys):
    # --seed picks the training draws; the probe keeps its own fixed split
    root, corpus, vocab, cfg, out_with, out_without = trained
    reports = []
    for seed in ("0", "2"):
        out_dir = tmp_path / f"probe_{seed}"
        assert run("--config", str(cfg), "--seed", seed, "probe",
                   "--checkpoint-lenemb", str(out_with / "final.lvae"),
                   "--checkpoint-no-lenemb", str(out_without / "final.lvae"),
                   "--corpus", str(corpus), "--out-dir", str(out_dir)) == EXIT_OK
        reports.append((out_dir / "probe_report.txt").read_text())
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_probe_cli_swapped_checkpoints_is_exit_4(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, out_with, out_without = trained
    code = run("probe",
               "--checkpoint-lenemb", str(out_without / "final.lvae"),
               "--checkpoint-no-lenemb", str(out_with / "final.lvae"),
               "--corpus", str(corpus))
    assert code == EXIT_INCOMPATIBLE
    capsys.readouterr()


def test_probe_cli_different_vocabularies_is_exit_4(trained, tmp_path, capsys):
    # the same tensors under a vocabulary with its last token renamed
    root, corpus, vocab, cfg, out_with, out_without = trained
    params, hp, vocab_without, step = checkpoint_load(out_without / "final.lvae")
    renamed = Vocabulary.from_tokens(vocab_without.tokens[:-1] + ["renamed"])
    checkpoint_save(tmp_path / "renamed.lvae", params, hp, renamed, step)
    code = run("probe",
               "--checkpoint-lenemb", str(out_with / "final.lvae"),
               "--checkpoint-no-lenemb", str(tmp_path / "renamed.lvae"),
               "--corpus", str(corpus))
    assert code == EXIT_INCOMPATIBLE
    assert "different vocabularies" in capsys.readouterr().err


def test_probe_cli_on_empty_corpus_is_exit_1(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, out_with, out_without = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = run("--config", str(cfg), "probe",
               "--checkpoint-lenemb", str(out_with / "final.lvae"),
               "--checkpoint-no-lenemb", str(out_without / "final.lvae"),
               "--corpus", str(empty))
    assert code == EXIT_FAIL
    assert capsys.readouterr().err == "error: need at least 7 examples for 6 dimensions, got 0\n"


def test_gradcheck_single_instance_passes(capsys):
    assert run("gradcheck", "--seeds", "1") == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_fails_with_tight_threshold(capsys):
    assert run("gradcheck", "--seeds", "1", "--threshold", "1e-12") == EXIT_FAIL
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--seeds", "--eps", "--threshold"])
def test_gradcheck_non_positive_setting_is_exit_2(capsys, flag):
    assert run("gradcheck", flag, "0") == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{flag} must be > 0" in captured.err and "instance" not in captured.out


def test_train_determinism_through_cli(trained, tmp_path):
    root, corpus, vocab, cfg, out_with, _ = trained
    rerun = tmp_path / "rerun"
    assert run("--config", str(cfg), "train", "--corpus", str(corpus),
               "--vocab", str(vocab), "--out-dir", str(rerun)) == EXIT_OK
    assert (rerun / "metrics.csv").read_bytes() == (out_with / "metrics.csv").read_bytes()


def run_module(cwd, *argv):
    """``python -m lenvae.cli *argv`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "lenvae.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_runs_the_cli(tmp_path):
    done = run_module(tmp_path, "toy-corpus", "--size", "5", "--output", "toy.txt")
    assert done.returncode == EXIT_OK, done.stderr
    assert len((tmp_path / "toy.txt").read_text().splitlines()) == 5


def test_python_m_missing_checkpoint_is_exit_3(tmp_path):
    (tmp_path / "in.txt").write_text("the dog sleeps\n")
    done = run_module(tmp_path, "summarize", "--checkpoint", "absent.lvae",
                      "--input", "in.txt", "--output", "o.txt")
    assert done.returncode == EXIT_MISSING_FILE
    assert "missing file" in done.stderr
