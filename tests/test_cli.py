"""End-to-end subcommand behavior and exit codes (all in-process)."""

import json
import struct
import zlib

import numpy as np
import pytest

from lenvae.checkpoint import checkpoint_load, checkpoint_save
from lenvae.cli import (
    EXIT_CORRUPT, EXIT_FAIL, EXIT_INCOMPATIBLE, EXIT_MISSING_FILE, EXIT_OK,
    EXIT_USAGE, main,
)
from lenvae.config import ConfigError, PAPER_PRESET, RunConfig, load_run_config, parse_config_text
from lenvae.model import HyperParams, init_params
from lenvae.textpipe import build_vocab
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


# the 29 keys the run config renders, with their desk defaults
DEFAULT_RENDER = {
    "cell_size = 32", "embed_size = 32", "latent_dim = 16", "bow_width = 32",
    "len_embed_size = 8", "decoder_layers = 2", "max_len_index = 30",
    "softmax_samples = 32", "lenemb = True", "top_k = 1000", "max_words = 30",
    "batch_size = 64", "total_steps = 2000", "anneal_kind = linear",
    "anneal_horizon = 1000", "word_drop_p = 0.2", "dropout_keep = 0.87",
    "learning_rate = 0.002", "adam_beta1 = 0.9", "adam_beta2 = 0.999",
    "adam_eps = 1e-08", "grad_clip = 5.0", "seed = 0", "checkpoint_interval = 1000",
    "desired_length = 20", "beam_width = 8", "max_tokens = 40", "byte_cap = 75",
    "bucket_width = 5",
}


def test_default_render_keeps_every_key_and_value():
    lines = load_run_config().render().splitlines()
    assert len(lines) == 29
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

def test_toy_corpus_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("toy-corpus", "--seed", "7", "--size", "200", "--output", str(out1)) == EXIT_OK
    assert run("toy-corpus", "--seed", "7", "--size", "200", "--output", str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 200


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
    ([], "word_drop_p = 1.5\n", "word_drop_p must be in [0, 1]"),
], ids=["flag-steps", "config-word-drop"])
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
], ids=["unknown hyperparams key", "missing vocab_tokens", "zero cell_size"])
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
    assert row.split()[1:4] == ["100.00", "100.00", "100.00"]  # identity
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "hist_model.csv").read_text().startswith("bucket_start,count")
    capsys.readouterr()


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


def test_probe_cli_swapped_checkpoints_is_exit_4(trained, tmp_path, capsys):
    root, corpus, vocab, cfg, out_with, out_without = trained
    code = run("probe",
               "--checkpoint-lenemb", str(out_without / "final.lvae"),
               "--checkpoint-no-lenemb", str(out_with / "final.lvae"),
               "--corpus", str(corpus))
    assert code == EXIT_INCOMPATIBLE
    capsys.readouterr()


def test_gradcheck_single_instance_passes(capsys):
    assert run("gradcheck", "--seeds", "1") == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_fails_with_tight_threshold(capsys):
    assert run("gradcheck", "--seeds", "1", "--threshold", "1e-12") == EXIT_FAIL
    capsys.readouterr()


def test_train_determinism_through_cli(trained, tmp_path):
    root, corpus, vocab, cfg, out_with, _ = trained
    rerun = tmp_path / "rerun"
    assert run("--config", str(cfg), "train", "--corpus", str(corpus),
               "--vocab", str(vocab), "--out-dir", str(rerun)) == EXIT_OK
    assert (rerun / "metrics.csv").read_bytes() == (out_with / "metrics.csv").read_bytes()
