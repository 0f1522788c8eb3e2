"""Compare result sets of the benchmark.

    python3 perfbench/compare.py SET            # spread of one set
    python3 perfbench/compare.py BASE CHANGE    # verdict per workload and metric

A set is a directory of records written by ``run.py --out SET`` (one per
workload and seed, ``--trace 0``). For each workload and end-to-end metric
it prints the median and quartiles (``statistics.quantiles(n=4)``) and the
spread, the quartile distance as a share of the median.

With two sets, the verdict follows choosing-metrics section 8: *improved*
when the change wins at least nine tenths of the seed-paired runs and the
medians differ by more than the base's quartile distance; *worse* when the
change's median is worse than the base's by more than the metric's bound;
*unresolved* when the base's spread is wider than the bound and not every
run of the change reads better than every run of the base; else
*no worse*.

Exits 1 when any verdict is *worse* or, for one set, any spread exceeds
its metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.spec import END_TO_END  # noqa: E402

BETTER = {n: b for n, _, b, _ in END_TO_END}
BOUND = {n: bound for n, _, _, bound in END_TO_END}


def load(path: Path) -> dict[str, dict[str, dict[int, float]]]:
    """``{workload: {metric: {seed: value}}}`` from a directory of records."""
    out: dict[str, dict[str, dict[int, float]]] = {}
    for f in sorted(path.glob("*-trace0.json")):
        rec = json.loads(f.read_text())
        seed = rec["environment"]["seed"]
        for name, m in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, {})[seed] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if BETTER[name] == "lower" else -change


def verdict(name: str, base: dict[int, float], new: dict[int, float]) -> str:
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    paired = sorted(set(base) & set(new))
    wins = sum(worse_by(name, base[s], new[s]) < 0 for s in paired)
    all_better = max(worse_by(name, x, y) for x in b for y in n) < 0
    if paired and wins >= 0.9 * len(paired) and abs(nmed - bmed) > (bq3 - bq1):
        if worse_by(name, bmed, nmed) < 0:
            return "improved"
    if spread(b) > BOUND[name] and not all_better:
        return "unresolved"
    if worse_by(name, bmed, nmed) > BOUND[name]:
        return "worse"
    return "no worse"


def report_one(data) -> int:
    bad = 0
    print(f"{'workload':18s} {'metric':20s} {'n':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for wl, metrics in data.items():
        for name, by_seed in metrics.items():
            v = list(by_seed.values())
            q1, med, q3 = quartiles(v)
            s = spread(v)
            flag = ""
            if s > BOUND[name]:
                flag, bad = "  OVER BOUND", bad + 1
            elif s > BOUND[name] / 3:
                flag = "  over a third"
            print(f"{wl:18s} {name:20s} {len(v):3d} {q1:12.6g} {med:12.6g} {q3:12.6g} {s:7.3f} {BOUND[name]:6.2f}{flag}")
    return 1 if bad else 0


def report_two(base, new) -> int:
    worse = 0
    print(f"{'workload':18s} {'metric':20s} {'base q1/med/q3':>38s} {'change q1/med/q3':>38s} {'worse%':>8s}  verdict")
    for wl in base:
        if wl not in new:
            print(f"{wl:18s} (absent from the change's set)")
            continue
        for name, b in base[wl].items():
            n = new[wl].get(name)
            if not n:
                continue
            bq = "/".join(f"{x:.4g}" for x in quartiles(list(b.values())))
            nq = "/".join(f"{x:.4g}" for x in quartiles(list(n.values())))
            w = worse_by(name, statistics.median(b.values()), statistics.median(n.values()))
            v = verdict(name, b, n)
            worse += v == "worse"
            print(f"{wl:18s} {name:20s} {bq:>38s} {nq:>38s} {w * 100:8.2f}  {v}")
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sets", nargs="+", type=Path, metavar="SET")
    args = p.parse_args(argv)
    if len(args.sets) > 2:
        p.error("give one or two result sets")
    data = [load(s) for s in args.sets]
    if not data[0]:
        p.error(f"no records in {args.sets[0]}")
    return report_one(data[0]) if len(data) == 1 else report_two(*data)


if __name__ == "__main__":
    sys.exit(main())
