"""Smoke test of the benchmark at tiny shapes (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py

Runs both kinds of run in-process on shrunken workloads and checks that the
metric names and units are exactly those BENCHMARK.json declares, that every
correctness check passes, and that the named per-layer self times fit inside
the phase wall time.
"""

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


TINY = {
    "desk": dict(train_batches=2, train_steps=3, checkpoint_interval=2, heldout_size=8,
                 decode_lines=4, check_items=4, setup_repeats=1),
    "paper-vocab": dict(batch_size=4, train_batches=2, train_steps=2, heldout_size=4,
                        decode_lines=2, beam_width=4, max_tokens=6, check_items=2,
                        setup_repeats=1, vocab_size=300),
}


@pytest.fixture(params=sorted(workloads.SPECS))
def spec(request):
    return replace(workloads.SPECS[request.param], **TINY[request.param])


def assert_clean(run):
    assert run.correct, (run.checks, run.errors)
    assert run.failed == 0 and run.attempted > 0


def test_untraced_run_emits_the_end_to_end_metrics(spec, tmp_path):
    run = harness.Run(spec, seed=0, trace=0)
    metrics = harness.run_untraced(run, 0.1, str(tmp_path))
    assert_clean(run)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_emits_the_per_layer_metrics(spec, tmp_path):
    run = harness.Run(spec, seed=0, trace=1)
    metrics = harness.run_traced(run, str(tmp_path))
    assert_clean(run)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
    # the named self times never add up to more than the train step or the
    # decoded sentence they split
    assert metrics["training.other.ms"][0] >= 0
    assert metrics["inference.other.ms"][0] >= 0
    assert metrics["numerics.nodes"][0] > 0
