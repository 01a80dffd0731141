"""The lenvae benchmark: one workload in one process, every metric by name.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports lenvae from ``src/`` there.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (see perfbench/README.md). Every metric is printed as a
``name value unit`` line; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The full run record, and the spans
of a traced run, go to .perfbench_out/. The exit code is 1 when a
correctness check fails.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "paper-vocab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process, at most one BLAS thread per core; set before numpy loads
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, SRC)
    import lenvae
    if not os.path.abspath(lenvae.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lenvae was imported from {lenvae.__file__}, not from {SRC}")
    import harness
    import workloads

    spec = workloads.SPECS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    run = harness.Run(spec, args.seed, args.trace)
    if args.trace:
        metrics = harness.run_traced(run, OUT)
    else:
        metrics = harness.run_untraced(run, args.seconds, OUT)

    run.record.update(correct=run.correct, attempted=run.attempted, failed=run.failed,
                      checks=run.checks, errors=run.errors,
                      metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    record_path = os.path.join(OUT, f"run_{spec.name}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(run.record, f, indent=1)
    for name, ok in run.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for error in run.errors:
        print(error, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.record["metrics"]}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
