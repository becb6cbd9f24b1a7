"""Benchmark of the qbmlab command line, end to end and per layer.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The program is run from ``src/`` as it
stands; nothing is installed.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer metrics.  The line before it is the run's
detail record: seed, generated argv, environment, samples and errors.
``--workload all`` runs every workload untraced and prints a table instead.
``--smoke`` shrinks every input to a few seconds of work, for self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


def contract_line(detail: dict, metrics: dict[str, float], spec: list[dict]) -> dict:
    """The result object, with exactly the metrics ``spec`` names."""
    names = [m["name"] for m in spec]
    if set(metrics) != set(names):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from {sorted(names)}")
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main() -> int:
    if not (ROOT / "src" / "qbmlab" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} needs src/qbmlab/cli.py and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # a terminated run unwinds like an interrupt: children are killed, work is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the parent computes the dense references; bound BLAS threads before numpy loads
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[name] = threads
    import bench

    per_layer_names = [m["name"] for m in spec["per_layer"]]
    if args.workload != "all":
        detail, metrics = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.smoke, per_layer_names)
        print(json.dumps(detail), flush=True)
        print(json.dumps(contract_line(
            detail, metrics, spec["per_layer" if args.trace else "end_to_end"])))
        return 0

    print(f"{'workload':<20} {'metric':<12} {'median':>12}  unit   samples")
    all_ok = True
    for name in workloads:
        detail, metrics = bench.run(name, args.seed, args.seconds, False, args.smoke,
                                    per_layer_names)
        # ratios count commands; the timed metrics are medians over iterations
        n = detail["iterations"]["untraced"]
        rows = [(m["name"], metrics[m["name"]], m["unit"],
                 detail["attempted"] if m["unit"] == "share" else n) for m in spec["end_to_end"]]
        rows.append(("fail_ratio", detail["fail_ratio"], "share", detail["attempted"]))
        for metric, value, unit, count in rows:
            print(f"{name:<20} {metric:<12} {value:>12.6g}  {unit:<6} {count}")
        for error in detail["errors"]:
            print(f"{name:<20} error: {error}")
        all_ok = all_ok and detail["failed"] == 0
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
