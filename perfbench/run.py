"""Wall-clock benchmark of the fraud-detection system, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_bursty --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload under the layer tracer and reports the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every correctness check passed.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

MODELED = {"lp_modeled_ms", "core.sim_edges_per_s", "gpusim.global_transactions",
           "gpusim.shared_atomic_serialized_ops", "gpusim.h2d_bytes",
           "gpusim.lane_utilization"}


def clock_of(name: str) -> str:
    """The clock a metric is read from: wall, modeled, host-memory or count."""
    if name in MODELED:
        return "modeled"
    if name == "peak_rss_mb":
        return "host-memory"
    if name.endswith(("_s", "_ms", "per_s")) or name == "trace.overhead_frac":
        return "wall"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}"
        )
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise SystemExit(
            f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}"
        )

    for name in units:
        note = outcome.notes.get(name, "")
        clock = clock_of(name)
        print(f"{name:<40} {outcome.metrics[name]:>16.6g} {units[name]:<8} {clock:<12} {note}")
    if "failed" in outcome.notes:
        print(f"failed: {outcome.notes['failed']}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    correct = not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
