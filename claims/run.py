"""The paper's desk-scale claims, gated: ``python3 claims/run.py`` (100 s a seed on 2 cores).

Per seed, in process: ``lenvae toy-corpus``, ``preprocess``, ``train`` with and without
the length input, ``summarize`` at each length, ``evaluate`` against the grammar's core
(``GrammarSpec.core_words``), then ``probe_experiment`` on both final checkpoints.
Writes BENCH_claims.json at the checkout's root; exits 1 if a gate fails on any seed.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lenvae import checkpoint, cli, probe, textpipe  # noqa: E402

# fixed before the first gated run; the KL weight anneals over half the steps
SETTINGS = {"seeds": (0, 1, 2), "corpus_size": 5000, "corpus_seed": 101, "top_k": 100,
            "held_out": 200, "steps": 1500, "beam_width": 8, "max_tokens": 20,
            "control_lengths": (4, 8, 12), "short_lengths": (3, 4), "first_k": 6,
            "probe_sentences": 2000}
CONTROL, SHORT = SETTINGS["control_lengths"], SETTINGS["short_lengths"]
LENGTHS = (*sorted({*CONTROL, *SHORT}), "natural")


def lenvae(work, *argv):
    if cli.main(["--config", str(work / "run.cfg"), *map(str, argv)]) != 0:
        raise RuntimeError(f"lenvae {' '.join(map(str, argv))} failed (its error is above)")


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def length_control(work, seed, steps=SETTINGS["steps"], held_out=SETTINGS["held_out"]):
    """Make the corpus, train the length-input model, decode; gate the lengths."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "run.cfg").write_text(
        f"total_steps = {steps}\nanneal_horizon = {steps // 2}\ncheckpoint_interval = {steps}\n"
        f"beam_width = {SETTINGS['beam_width']}\nmax_tokens = {SETTINGS['max_tokens']}\n"
        "byte_cap = 0\n")
    lenvae(work, "toy-corpus", "--size", SETTINGS["corpus_size"],
           "--seed", SETTINGS["corpus_seed"], "--output", work / "raw.txt")
    lenvae(work, "preprocess", "--input", work / "raw.txt", "--output", work / "corpus.txt",
           "--vocab", work / "vocab.txt", "--top-k", SETTINGS["top_k"])
    corpus = read_lines(work / "corpus.txt")
    write_lines(work / "train.txt", corpus[:-held_out])
    write_lines(work / "held_out.txt", corpus[-held_out:])
    lenvae(work, "--seed", seed, "train", "--corpus", work / "train.txt",
           "--vocab", work / "vocab.txt", "--out-dir", work / "lenemb")
    words = {}
    for length in LENGTHS:
        out = work / f"length_{length}.txt"
        lenvae(work, "summarize", "--checkpoint", work / "lenemb" / "final.lvae",
               "--length", length, "--input", work / "held_out.txt", "--output", out)
        words[length] = np.array([len(s.split()) for s in read_lines(out)])
    requested = np.repeat(CONTROL, held_out)
    produced = np.concatenate([words[n] for n in CONTROL])
    m = {"length_pearson": float(np.corrcoef(requested, produced)[0, 1]),
         "length_abs_error": float(np.abs(produced - requested).mean()),
         "std_length_8": float(words[8].std()), "std_natural": float(words["natural"].std())}
    gates = {"length Pearson >= 0.8": m["length_pearson"] >= 0.8,
             "std(length 8) <= 0.5 std(natural)": m["std_length_8"] <= 0.5 * m["std_natural"]}
    return {"metrics": m, "gates": gates}


def rouge1_f1(work, name, references, candidates):
    """``lenvae evaluate``'s uncapped ROUGE-1 F1 per system, PREFIX included."""
    lenvae(work, "evaluate", "--source", work / "held_out.txt", "--references", references,
           "--candidates", *candidates, "--out-dir", work / name)
    with open(work / name / "report.csv", encoding="utf-8") as f:
        return {row["system"]: float(row["rouge1_f1"]) for row in csv.DictReader(f)}


def run_seed(work, seed):
    result = length_control(work, seed)
    m, gates = result["metrics"], result["gates"]
    lenvae(work, "--seed", seed, "train", "--corpus", work / "train.txt",
           "--vocab", work / "vocab.txt", "--out-dir", work / "no_lenemb", "--no-lenemb")
    held = read_lines(work / "held_out.txt")
    core, k = textpipe.default_toy_grammar().core_words, SETTINGS["first_k"]
    write_lines(work / "core.txt", [" ".join(w for w in s.split() if w in core) for s in held])
    write_lines(work / "first_k.txt", [" ".join(s.split()[:k]) for s in held])
    natural = work / "length_natural.txt"
    candidates = [*(work / f"length_{n}.txt" for n in SHORT), natural]
    m["core_f1"] = f1 = rouge1_f1(work, "eval_core", work / "core.txt", candidates)
    m["first_k_f1"] = rouge1_f1(work, "eval_first_k", work / "first_k.txt", candidates)
    m["self_f1"] = rouge1_f1(work, "eval_self", work / "held_out.txt", [natural])["length_natural"]
    m["self_exact"] = sum(a == b for a, b in zip(read_lines(natural), held))
    (p_with, hp_with, vocab, _), (p_without, hp_without, _, _) = (
        checkpoint.checkpoint_load(work / d / "final.lvae") for d in ("lenemb", "no_lenemb"))
    corpus = read_lines(work / "corpus.txt")[:SETTINGS["probe_sentences"]]
    r2 = probe.probe_experiment(p_with, hp_with, p_without, hp_without,
                                [vocab.encode(s.split()) for s in corpus])
    m.update(probe_r2_with=r2.r2_with, probe_r2_without=r2.r2_without)
    shorts = [f1[f"length_{n}"] for n in SHORT]
    gates["probe R2 without > with"] = r2.r2_without > r2.r2_with
    gates["core F1: short > natural"] = all(s > f1["length_natural"] for s in shorts)
    gates["core F1: prefix >= short"] = all(f1["prefix"] >= s for s in shorts)
    return result


def main():
    with tempfile.TemporaryDirectory() as tmp:
        seeds = {seed: run_seed(Path(tmp) / f"seed{seed}", seed) for seed in SETTINGS["seeds"]}
    passed = all(all(s["gates"].values()) for s in seeds.values())
    git = [subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True).stdout.strip()
           for argv in (("rev-parse", "HEAD"), ("status", "--porcelain", ":!BENCH_claims.json"))]
    record = {"git_sha": git[0], "dirty": bool(git[1]),
              "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
              "numpy": np.__version__, "seeds": seeds, "passed": passed,
              "settings": {**SETTINGS, "anneal_horizon": SETTINGS["steps"] // 2}}
    (ROOT / "BENCH_claims.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({seed: s["gates"] for seed, s in seeds.items()}, indent=1))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
