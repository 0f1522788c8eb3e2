"""Spark tests: end-to-end QLOVE (sparklayer/qlove_spark.py) against the
kernel and the exact sliding reference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.experiments.exact_ref import exact_sliding_quantiles
from repro.sparklayer.level1 import collect_summaries, freq_state, subwindow_summaries
from repro.sparklayer.qlove_spark import qlove_estimates
from repro.streams.windows import WindowSpec
from repro.synth_data import ar1, inject_burst, netmon, telemetry_events

PHIS = (0.5, 0.9, 0.99, 0.999)
SPEC = WindowSpec(size=4_000, period=1_000)
PYTHON_NODES = ("FlatMapGroupsIn", "ArrowEvalPython", "BatchEvalPython")


@pytest.fixture(scope="module")
def stream():
    return netmon(12_000, seed=3)


@pytest.fixture(scope="module")
def events(spark, stream):
    return telemetry_events(spark, stream).cache()


def _kernel_results(stream, spec, phis, **kw):
    return QloveOperator(spec, phis, **kw).observe_chunk(stream)


def _executed_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


class TestQloveEstimates:
    def test_plain_matches_kernel(self, spark, events, stream):
        rows = qlove_estimates(spark, events, SPEC, PHIS).orderBy("w").collect()
        kernel = _kernel_results(stream, SPEC, PHIS)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_topk_matches_kernel(self, spark, events, stream):
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.999], top_fraction=0.5
        )
        rows = (
            qlove_estimates(spark, events, SPEC, PHIS, fewk=cfg).orderBy("w").collect()
        )
        kernel = _kernel_results(stream, SPEC, PHIS, fewk=cfg)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_samplek_with_burst_matches_kernel(self, spark, stream):
        bursty = inject_burst(
            stream, window_size=SPEC.size, period=SPEC.period, phi=0.999
        )
        events = telemetry_events(spark, bursty)
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.999], sample_fraction=0.5
        )
        rows = (
            qlove_estimates(spark, events, SPEC, PHIS, fewk=cfg).orderBy("w").collect()
        )
        kernel = _kernel_results(bursty, SPEC, PHIS, fewk=cfg)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_ar1_bit_identical_to_kernel(self, spark):
        # Float values show any other Level-2 summation order in the last bits.
        stream = inject_burst(
            ar1(24_000, psi=0.8, seed=5), window_size=SPEC.size, period=SPEC.period, phi=0.999
        )
        events = telemetry_events(spark, stream)
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.999], sample_fraction=0.5
        )
        rows = (
            qlove_estimates(spark, events, SPEC, PHIS, fewk=cfg).orderBy("w").collect()
        )
        kernel = _kernel_results(stream, SPEC, PHIS, fewk=cfg)
        assert [r.w for r in rows] == list(range(3, 3 + len(kernel)))
        np.testing.assert_array_equal(
            [r.estimates for r in rows], [[res[p] for p in PHIS] for res in kernel]
        )

    def test_quantized_matches_kernel(self, spark, events, stream):
        rows = (
            qlove_estimates(spark, events, SPEC, PHIS, sig_digits=3)
            .orderBy("w")
            .collect()
        )
        kernel = _kernel_results(stream, SPEC, PHIS, sig_digits=3)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_trailing_partial_subwindow_dropped(self, spark):
        stream = netmon(4_500, seed=4)  # 4.5 sub-windows
        events = telemetry_events(spark, stream)
        rows = qlove_estimates(spark, events, SPEC, PHIS).collect()
        assert len(rows) == SPEC.n_evaluations(4_500) == 1

    def test_plain_plan_runs_level1_once(self, spark, stream, tmp_path):
        # Level 1's one Spark query is the state aggregation: one scan and
        # no Python worker. The driver's summaries reach Level 2 as a local
        # table, so the estimates plan reads no file and joins nothing.
        path = str(tmp_path / "events.parquet")
        telemetry_events(spark, stream).write.parquet(path)
        events = spark.read.parquet(path)
        state = _executed_plan(freq_state(events, SPEC.period))
        assert state.count("FileScan parquet") == 1, state
        out = _executed_plan(qlove_estimates(spark, events, SPEC, PHIS))
        assert "FileScan" not in out and "Join" not in out, out
        for plan in (state, out):
            assert not any(node in plan for node in PYTHON_NODES), plan

    @pytest.mark.parametrize("case", ["duplicate_seq", "late_first_seq"])
    def test_missing_subwindow_restarts_fewk(self, spark, case):
        # Sub-window 4 holds 1,001 events, or the stream starts at
        # sub-window 5: no window may contain sub-windows 4 or 0..4.
        # ``starts`` maps each sub-window a kernel operator starts at to
        # its input.
        stream = netmon(10_000, seed=6)
        if case == "duplicate_seq":
            seq = np.append(np.arange(10_000), 4_500)
            values = np.append(stream, stream[4_500])
            starts = {0: stream[:4_000], 5: stream[5_000:]}
            expected_w = [3, 8, 9]
        else:
            seq = np.arange(10_000) + 5_000
            values = stream
            starts = {5: stream}
            expected_w = list(range(8, 15))
        events = spark.createDataFrame(pd.DataFrame({"seq": seq, "value": values}))
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.999], sample_fraction=0.5
        )
        kernel = {
            start + SPEC.n_subwindows - 1 + i: [res[p] for p in PHIS]
            for start, part in starts.items()
            for i, res in enumerate(_kernel_results(part, SPEC, PHIS, fewk=cfg))
        }
        plain = qlove_estimates(spark, events, SPEC, PHIS).orderBy("w").collect()
        fewk = qlove_estimates(spark, events, SPEC, PHIS, fewk=cfg).orderBy("w").collect()
        assert [r.w for r in plain] == [r.w for r in fewk] == sorted(kernel) == expected_w
        np.testing.assert_array_equal([r.estimates for r in fewk], [kernel[r.w] for r in fewk])

    @pytest.mark.parametrize("n_events", [0, SPEC.period - 1])
    def test_stream_shorter_than_a_period_gives_nothing(self, spark, n_events):
        values = netmon(SPEC.period, seed=7)[:n_events]
        events = spark.createDataFrame(
            pd.DataFrame({"seq": np.arange(n_events), "value": values}),
            schema="seq BIGINT, value DOUBLE",
        )
        summaries = collect_summaries(events, SPEC.period, PHIS)
        assert [s.count for s in summaries] == ([n_events] if n_events else [])
        assert subwindow_summaries(events, SPEC.period, PHIS).count() == len(summaries)
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size, period=SPEC.period, phis=[0.999], sample_fraction=0.5
        )
        for fewk in (None, cfg):
            assert qlove_estimates(spark, events, SPEC, PHIS, fewk=fewk).count() == 0


class TestExactSpark:
    def test_qlove_value_error_small_vs_exact(self, spark, events, stream):
        # Window w ends at sub-window w; evaluation e ends at sub-window n - 1 + e.
        exact = {
            SPEC.n_subwindows - 1 + e: q
            for e, q in enumerate(exact_sliding_quantiles(stream, SPEC, PHIS))
        }
        est = {
            r.w: r.estimates
            for r in qlove_estimates(events.sparkSession, events, SPEC, PHIS).collect()
        }
        assert set(est) == set(exact)
        # Non-high quantiles: QLOVE's Level-2 mean lands within a few
        # percent on NetMon (Table 2 shape).
        errs = [
            abs(est[w][0] - exact[w][0]) / exact[w][0] for w in est
        ]
        assert np.mean(errs) < 0.02
