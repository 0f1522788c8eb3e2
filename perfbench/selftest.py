"""Self-tests of the benchmark at toy sizes.

    python3 perfbench/selftest.py            # all, Spark included (~2 min)
    python3 perfbench/selftest.py --no-spark # kernel and tooling only

They check that every named metric is emitted with its unit, that an
injected fault (a dropped, duplicated, non-finite or perturbed window)
raises ``failed_frac`` and the exit code, that trace spans form closed
parent chains, and that ``BENCHMARK.json`` is the one ``spec.py`` makes.
The functions are also collected by pytest when this file is named on the
command line; the repository's own test paths do not include it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tomllib
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench import gate, run, spec, tracing, wl_kernel, wl_spark, wl_streaming  # noqa: E402
from repro.streams.windows import WindowSpec  # noqa: E402

OUT = ROOT / ".perfbench_work" / "selftest"

TOY_KERNEL = {
    "kernel-sliding": wl_kernel.KernelConfig(WindowSpec(10_000, 1_000), 60_000, False, 99.0),
    "kernel-fewk-burst": wl_kernel.KernelConfig(WindowSpec(16_384, 1_024), 65_536, True, 90.0),
}


@contextlib.contextmanager
def toy_sizes():
    """Shrink every workload's input; restore the real sizes afterwards."""
    saved = [
        (wl_kernel, "CONFIGS", wl_kernel.CONFIGS),
        (wl_spark, "BATCH_CFG", wl_spark.BATCH_CFG),
        (wl_spark, "WARMUP_EVENTS", wl_spark.WARMUP_EVENTS),
        (wl_streaming, "CFG", wl_streaming.CFG),
        (wl_streaming, "SPEC", wl_streaming.SPEC),
        (wl_streaming, "FILE_EVENTS", wl_streaming.FILE_EVENTS),
        (wl_streaming, "WARMUP_EVENTS", wl_streaming.WARMUP_EVENTS),
        (wl_streaming, "FILES_PER_S", wl_streaming.FILES_PER_S),
    ]
    wl_kernel.CONFIGS = TOY_KERNEL
    wl_spark.BATCH_CFG = wl_kernel.KernelConfig(WindowSpec(8_192, 2_048), 32_768, False, 95.0)
    wl_spark.WARMUP_EVENTS = 8_192
    wl_streaming.CFG = TOY_KERNEL["kernel-fewk-burst"]
    wl_streaming.SPEC = wl_streaming.CFG.spec
    wl_streaming.FILE_EVENTS = 4_096
    wl_streaming.WARMUP_EVENTS = 16_384
    wl_streaming.FILES_PER_S = 4.0
    try:
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


def bench(workload: str, trace: int = 0, seconds: float = 0.5) -> tuple[int, dict, Path]:
    """Run the benchmark in process; exit code, last-line JSON, record."""
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT)]
    with toy_sizes(), contextlib.redirect_stdout(buf):
        code = run.main(argv)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    return code, last, OUT / f"{workload}-seed3-trace{trace}.json"


def assert_contract(last: dict, trace: int) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    want = spec.per_layer_units() if trace else spec.end_to_end_units()
    assert set(last["metrics"]) == set(want), set(want) ^ set(last["metrics"])
    for name, m in last["metrics"].items():
        assert m["unit"] == want[name], (name, m)
        assert isinstance(m["value"], float) and np.isfinite(m["value"]), (name, m)
    assert last["attempted"] >= 1 and last["failed"] == 0 and last["correct"] is True
    if not trace:
        zero = [n for n, m in last["metrics"].items() if m["value"] == 0]
        assert not zero, f"end-to-end metrics must never be 0: {zero}"


# ----------------------------------------------------------------- tests


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == [
        "kernel-sliding", "kernel-fewk-burst", "spark-batch", "spark-streaming",
    ]
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])


def test_no_file_collected_by_repo_pytest():
    conf = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    assert not any(Path(p).resolve() == Path(__file__).parent for p in map(ROOT.joinpath, conf["testpaths"]))
    for f in Path(__file__).parent.iterdir():
        assert not any(fnmatch(f.name, pat) for pat in conf["python_files"]), f.name


def test_gate_counts_each_fault():
    ref = np.arange(1.0, 13.0).reshape(4, 3)
    good = gate.matrix_windows(ref, 5)
    assert gate.check_windows(good, ref, 5).failed == 0
    dropped = good[:2] + good[3:]
    duplicated = good + [good[1]]
    nan = [(w, np.where(np.arange(3) == 0, np.nan, e)) for w, e in good]
    perturbed = [(w, e * (1 + 1e-6) if w == 6 else e) for w, e in good]
    foreign = good + [(99, ref[0])]
    for bad, reason in [(dropped, "missing"), (duplicated, "extra"), (nan, "non_finite"),
                        (perturbed, "off_reference"), (foreign, "extra")]:
        res = gate.check_windows(bad, ref, 5)
        assert res.failed >= 1 and res.failed_frac > 0 and res.reasons[reason] >= 1, (reason, res)
    # A phi left out of the comparison only needs to be finite.
    masked = gate.check_windows(perturbed, ref, 5, compare=[False, False, False])
    assert masked.failed == 0


def test_independent_reference_matches_kernel():
    cfg = TOY_KERNEL["kernel-sliding"]
    stream = cfg.stream(3)
    from repro.streams import runner

    est = runner.run_policy(cfg.operator(), stream).estimates_matrix(wl_kernel.PHIS)
    assert wl_kernel.gate_first_pass(cfg, stream, est).failed == 0


def test_perturbed_estimate_fails_the_run():
    import repro.core.qlove as qlove

    original = qlove.window_result

    def perturbed(summaries, phis, fewk, *, means=None):
        res = original(summaries, phis, fewk, means=means)
        if summaries[-1].sub_id == 20:
            res[0.5] *= 1 + 1e-6
        return res

    qlove.window_result = perturbed
    try:
        code, last, _ = bench("kernel-sliding")
    finally:
        qlove.window_result = original
    assert code != 0 and last["correct"] is False and last["failed"] >= 1


def test_kernel_metrics_and_spans():
    for wl in TOY_KERNEL:
        code, last, _ = bench(wl)
        assert code == 0, last
        assert_contract(last, 0)
        code, last, record = bench(wl, trace=1)
        assert code == 0, last
        assert_contract(last, 1)
        spans = json.loads(record.with_suffix(".spans.json").read_text())
        assert spans and tracing.closed_parent_chains(spans)
        names = {s["name"] for s in spans}
        assert {"streams.runner.run_policy", "core.qlove.observe_chunk",
                "core.subwindow.finalize"} <= names, names
        m = {n: v["value"] for n, v in last["metrics"].items()}
        assert m["core.subwindow.subwindows"] > 0 and m["core.qlove.observe_chunk.self_ms"] > 0
        if wl == "kernel-fewk-burst":
            assert m["core.qlove.answers.samplek"] > 0 and m["core.burst.flagged"] > 0


def test_closed_parent_chains_rejects_broken_traces():
    t = tracing.Tracer()
    with t.span("root"):
        with t.span("child"):
            pass
    assert tracing.closed_parent_chains(t.spans)
    orphan = [dict(s) for s in t.spans if s["name"] == "child"]
    assert not tracing.closed_parent_chains(orphan)
    outside = [dict(s) for s in t.spans]
    outside[0]["end_ns"] = outside[1]["end_ns"] + 1  # child outlives its parent
    assert not tracing.closed_parent_chains(outside)


def test_spark_batch_metrics():
    code, last, _ = bench("spark-batch")
    assert code == 0, last
    assert_contract(last, 0)
    code, last, record = bench("spark-batch", trace=1)
    assert code == 0, last
    assert_contract(last, 1)
    m = {n: v["value"] for n, v in last["metrics"].items()}
    assert m["spark.jobs"] > 0 and m["sparklayer.level1.freq_state.shuffle_bytes"] > 0
    assert tracing.closed_parent_chains(json.loads(record.with_suffix(".spans.json").read_text()))


def test_spark_streaming_metrics():
    code, last, _ = bench("spark-streaming", seconds=2.0)
    assert code == 0, last
    assert_contract(last, 0)
    code, last, _ = bench("spark-streaming", trace=1, seconds=2.0)
    assert code == 0, last
    assert_contract(last, 1)
    m = {n: v["value"] for n, v in last["metrics"].items()}
    assert m["sparklayer.streaming.addBatch_ms"] > 0 and m["sparklayer.streaming.handler.self_ms"] > 0


def main() -> int:
    skip_spark = "--no-spark" in sys.argv[1:]
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    try:
        for name, fn in tests:
            if skip_spark and "spark" in name:
                print(f"skip {name}")
                continue
            try:
                fn()
                print(f"ok   {name}", flush=True)
            except Exception as e:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(e).__name__}: {e}", flush=True)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
