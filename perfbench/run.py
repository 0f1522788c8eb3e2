"""QLOVE benchmark: one command for the kernel, Spark batch and Structured
Streaming paths.

    python3 perfbench/run.py --workload kernel-sliding --seed 1 --seconds 10 --trace 0

Runs one workload on inputs made from ``--seed``, measures for
``--seconds``, gates every output window, writes the full record (metrics,
environment, details, trace spans) to ``.perfbench_out/`` and prints, as
the last line of standard output, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits non-zero when any window fails the gate.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``perfbench/spec.py``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package and the program from its source tree;
# drop this file's own directory so no benchmark module shadows a stdlib one.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import spec  # noqa: E402
from perfbench.common import environment  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=spec.workload_names())
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


def run_workload(args) -> dict:
    if args.workload.startswith("kernel-"):
        from perfbench import wl_kernel

        return wl_kernel.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "spark-batch":
        from perfbench import wl_spark

        return wl_spark.run_batch(ROOT, args.seed, args.seconds, bool(args.trace))
    from perfbench import wl_streaming

    return wl_streaming.run(ROOT, args.seed, args.seconds, bool(args.trace))


def contract_metrics(result: dict, trace: bool) -> dict:
    """Every end-to-end (or per-layer) metric, by name, with its unit. A run
    whose gate failed may lack metrics computed from correct windows."""
    if trace:
        values = result["per_layer"]
        # A layer the workload does not run did no work.
        return {
            n: {"value": float(values.get(n, 0.0)), "unit": u}
            for n, u in spec.per_layer_units().items()
        }
    values = result["metrics"]
    missing = set(spec.end_to_end_units()) - set(values)
    if missing and not result["gate"].failed:
        raise RuntimeError(f"workload emitted no value for {sorted(missing)}")
    return {
        n: {"value": float(values[n]), "unit": u}
        for n, u in spec.end_to_end_units().items()
        if n in values
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.time()
    result = run_workload(args)
    gate = result["gate"]
    metrics = contract_metrics(result, bool(args.trace))
    record = {
        "workload": args.workload,
        "environment": environment(ROOT, args, result.get("env", {})),
        "gate": {
            "attempted": gate.attempted,
            "failed": gate.failed,
            "failed_frac": gate.failed_frac,
            "reasons": dict(gate.reasons),
        },
        "metrics": metrics,
        "details": result.get("details", {}),
        "wall_s": time.time() - started,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    if result.get("spans"):
        spans_path = out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(result["spans"]))
    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {gate.failed_frac:.6g} ({gate.failed}/{gate.attempted}) record {out}")
    correct = gate.failed == 0 and gate.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
