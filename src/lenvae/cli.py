"""Command-line entry point.

Subcommands: preprocess, train, summarize, evaluate, probe, gradcheck,
toy-corpus. Exit codes: 0 success, 1 generic failure (incl. a failing
gradcheck), 2 usage/config errors, 3 missing or unusable file, 4 incompatible
checkpoint, 5 corrupt/unreadable checkpoint. The effective configuration is
echoed into each command's output directory.
"""

import argparse
import os
import sys

from . import checkpoint as ckpt
from . import metrics as rouge
from .config import KEYS, PRESETS, ConfigError, load_run_config
from .inference import summarize
from .model import tiny_gradcheck_instance
from .numerics import grad_check
from .probe import probe_experiment
from .textpipe import (
    BOS, EOS, PAD, Vocabulary, build_vocab, default_toy_grammar, filter_by_length,
    generate_toy_corpus, normalize,
)
from .training import train

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_INCOMPATIBLE = 4
EXIT_CORRUPT = 5


def _read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _echo_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.txt"), "w", encoding="utf-8") as f:
        f.write(cfg.render())


def _load_corpus(corpus_path, vocab):
    """One id list per non-blank line, each line encoded as it is read, so no
    line or token string outlives its encoding. A literal PAD, BOS or EOS is refused."""
    sentences = []
    with open(corpus_path, encoding="utf-8") as f:
        for number, tokens in enumerate(map(str.split, f), start=1):
            control = next((t for t in tokens if t in (PAD, BOS, EOS)), None)
            if control is not None:
                raise ValueError(f"{corpus_path} line {number} holds the control token {control}")
            if tokens:
                sentences.append(vocab.encode(tokens))
    return sentences


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_preprocess(args, cfg):
    raw = _read_lines(args.input)
    tokenized = [normalize(line) for line in raw]
    tokenized = [t for t in tokenized if t]
    kept = filter_by_length(tokenized, cfg.max_words)
    vocab = build_vocab(kept, cfg.top_k)
    _write_lines(args.output, [" ".join(t) for t in kept])
    vocab.save(args.vocab)
    _echo_config(cfg, os.path.dirname(os.path.abspath(args.output)))
    print(f"kept {len(kept)}/{len(tokenized)} sentences; vocabulary size {vocab.size}")
    return EXIT_OK


def _cmd_toy_corpus(args, cfg):
    seed = args.toy_seed if args.toy_seed is not None else cfg.train.seed
    for flag, value, low in (("--size", args.size, 1), ("--seed", seed, 0)):
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")
    lines = generate_toy_corpus(default_toy_grammar(), args.size, seed)
    _write_lines(args.output, lines)
    print(f"wrote {len(lines)} sentences to {args.output}")
    return EXIT_OK


def _cmd_train(args, cfg):
    vocab = Vocabulary.load(args.vocab)
    sentences = _load_corpus(args.corpus, vocab)
    hp = cfg.hyperparams(vocab.size)
    result = train(sentences, vocab, hp, cfg.train, out_dir=args.out_dir)
    _echo_config(cfg, args.out_dir)
    final = result.metrics.records[-1]
    print(f"trained {cfg.train.total_steps} steps; final total loss {final[5]:.4f}; "
          f"checkpoints: {', '.join(result.checkpoint_paths)}")
    return EXIT_OK


def _cmd_summarize(args, cfg):
    params, hp, vocab, _ = ckpt.checkpoint_load(args.checkpoint)
    lines = _read_lines(args.input)
    outputs = []
    for line in lines:
        if not line.strip():
            outputs.append("")
            continue
        outputs.append(summarize(line, cfg.desired_length, params, hp, vocab,
                                 beam_width=cfg.decode.beam_width,
                                 max_tokens=cfg.decode.max_tokens))
    _write_lines(args.output, outputs)
    _echo_config(cfg, os.path.dirname(os.path.abspath(args.output)))
    print(f"decoded {len(outputs)} sentences at length={cfg.desired_length}")
    return EXIT_OK


def _cmd_evaluate(args, cfg):
    source_lines = _read_lines(args.source)
    # a blank source line (summarize writes a blank output for it) is not scored
    scored = [i for i, line in enumerate(source_lines) if line.strip()]
    if not scored:
        raise ValueError(f"source file {args.source} has no non-blank line to score")

    def scored_lines(path):
        lines = _read_lines(path)
        if len(lines) != len(source_lines):
            raise ValueError(f"{path} does not align with the source line count")
        return [lines[i] for i in scored]

    sources = [source_lines[i] for i in scored]
    reference_lists = [list(refs) for refs in zip(*map(scored_lines, args.references))]
    candidate_lists = [scored_lines(path) for path in args.candidates]
    cap = cfg.byte_cap if cfg.byte_cap > 0 else None

    systems = [rouge.score_system(
        "prefix", [rouge.prefix_baseline(s) for s in sources],
        reference_lists, sources, cap=cap)]
    os.makedirs(args.out_dir, exist_ok=True)
    for path, candidates in zip(args.candidates, candidate_lists):
        name = os.path.splitext(os.path.basename(path))[0]
        systems.append(rouge.score_system(name, candidates, reference_lists,
                                          sources, cap=cap))
        buckets = rouge.length_histogram(candidates)
        rouge.write_histogram(os.path.join(args.out_dir, f"hist_{name}.csv"), buckets)

    table = rouge.render_report(systems)
    with open(os.path.join(args.out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(table)
    with open(os.path.join(args.out_dir, "report.csv"), "w", encoding="utf-8") as f:
        f.write(rouge.report_csv(systems))
    _echo_config(cfg, args.out_dir)
    print(table, end="")
    return EXIT_OK


def _cmd_probe(args, cfg):
    params_with, hp_with, vocab, _ = ckpt.checkpoint_load(args.checkpoint_lenemb)
    params_without, hp_without, vocab2, _ = ckpt.checkpoint_load(args.checkpoint_no_lenemb)
    if not hp_with.lenemb or hp_without.lenemb:
        raise ckpt.IncompatibleCheckpointError(
            "probe needs one length-embedding checkpoint and one without")
    if vocab.tokens != vocab2.tokens:
        raise ckpt.IncompatibleCheckpointError("probe checkpoints use different vocabularies")
    sentences = _load_corpus(args.corpus, vocab)
    result = probe_experiment(params_with, hp_with, params_without, hp_without, sentences)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "probe_report.txt"), "w", encoding="utf-8") as f:
            f.write(result.render())
        _echo_config(cfg, args.out_dir)
    print(result.render(), end="")
    return EXIT_OK


def _cmd_gradcheck(args, cfg):
    for flag, value in (("--seeds", args.seeds), ("--eps", args.eps),
                        ("--threshold", args.threshold)):
        if not value > 0:
            raise ConfigError(f"{flag} must be > 0, got {value}")
    threshold = args.threshold
    worst = 0.0
    for index in range(args.seeds):
        params, loss_fn = tiny_gradcheck_instance(index)
        error = grad_check(loss_fn, params, eps=args.eps)
        worst = max(worst, error)
        print(f"instance {index}: max relative error {error:.3e}")
    print(f"max relative error over {args.seeds} instance(s): {worst:.3e} "
          f"(threshold {threshold:.1e})")
    return EXIT_OK if worst < threshold else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenvae",
        description="Length-controllable sentence autoencoder: train on raw "
                    "sentences, then decode them at any requested word count.")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--preset", default="desk", choices=list(PRESETS),
                        help="named hyperparameter preset (default desk)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize a raw corpus and build a vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="normalized corpus file")
    p.add_argument("--vocab", required=True, help="vocabulary file to write")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--max-words", type=int, dest="max_words")

    p = sub.add_parser("toy-corpus", help="generate the synthetic toy corpus")
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=None, dest="toy_seed")

    p = sub.add_parser("train", help="train a model on a preprocessed corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, dest="total_steps")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--no-lenemb", dest="lenemb", action="store_const", const=False,
                   help="train without the length-embedding input")

    p = sub.add_parser("summarize", help="decode sentences at a requested length")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--length", dest="desired_length",
                   help="word count or 'natural' (default: the config's desired_length)")
    p.add_argument("--beam-width", type=int, dest="beam_width")

    p = sub.add_parser("evaluate", help="score candidate files with ROUGE")
    p.add_argument("--source", required=True, help="input sentences (for PREFIX and Ext. %%)")
    p.add_argument("--references", required=True, nargs="+")
    p.add_argument("--candidates", nargs="*", default=[])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--byte-cap", type=int, dest="byte_cap")

    p = sub.add_parser("probe", help="latent length-information probe")
    p.add_argument("--checkpoint-lenemb", required=True)
    p.add_argument("--checkpoint-no-lenemb", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    return parser


_HANDLERS = {
    "preprocess": _cmd_preprocess,
    "toy-corpus": _cmd_toy_corpus,
    "train": _cmd_train,
    "summarize": _cmd_summarize,
    "evaluate": _cmd_evaluate,
    "probe": _cmd_probe,
    "gradcheck": _cmd_gradcheck,
}

def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        overrides = {key: value for key, value in vars(args).items() if key in KEYS}
        cfg = load_run_config(args.config, args.preset, overrides)
        return _HANDLERS[args.command](args, cfg)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except OSError as e:
        print(f"error: unusable file: {e}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ckpt.IncompatibleCheckpointError as e:
        print(f"error: incompatible checkpoint: {e}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ckpt.CheckpointError as e:
        print(f"error: unreadable checkpoint: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
