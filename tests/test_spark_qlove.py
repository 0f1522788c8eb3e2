"""Spark tests: end-to-end QLOVE + exact reference (sparklayer/qlove_spark.py,
sparklayer/exact_spark.py)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.oracle import assert_equivalent
from repro.sparklayer.exact_spark import exact_window_quantiles
from repro.sparklayer.qlove_spark import qlove_estimates
from repro.streams.windows import WindowSpec
from repro.synth_data import ar1, inject_burst, netmon, telemetry_events

PHIS = (0.5, 0.9, 0.99, 0.999)
SPEC = WindowSpec(size=4_000, period=1_000)


@pytest.fixture(scope="module")
def stream():
    return netmon(12_000, seed=3)


@pytest.fixture(scope="module")
def events(spark, stream):
    return telemetry_events(spark, stream).cache()


def _kernel_results(stream, spec, phis, **kw):
    return QloveOperator(spec, phis, **kw).observe_chunk(stream)


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
        path = str(tmp_path / "events.parquet")
        telemetry_events(spark, stream).write.parquet(path)
        out = qlove_estimates(spark, spark.read.parquet(path), SPEC, PHIS)
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert plan.count("FlatMapGroupsIn") == 1, plan
        assert plan.count("FileScan parquet") == 1, plan
        assert "Join" not in plan, plan


class TestExactSpark:
    def test_matches_oracle_sql(self, spark, events):
        df = (
            exact_window_quantiles(events, SPEC, (0.5, 0.999))
            .select(
                "w",
                F.col("estimates")[0].alias("q50"),
                F.col("estimates")[1].alias("q999"),
            )
        )
        n = SPEC.n_subwindows
        assert_equivalent(
            df,
            f"""
            WITH member AS (
              SELECT w.w AS w, e.value
              FROM events e
              JOIN (SELECT UNNEST(GENERATE_SERIES({n - 1}, 11)) AS w) w
                ON CAST(FLOOR(e.seq / {SPEC.period}) AS BIGINT)
                   BETWEEN w.w - {n - 1} AND w.w),
            ranked AS (
              SELECT w, value,
                     ROW_NUMBER() OVER (PARTITION BY w ORDER BY value) AS rnk,
                     COUNT(*) OVER (PARTITION BY w) AS cnt
              FROM member)
            SELECT w,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.5 * cnt) AS BIGINT) THEN value END) AS q50,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.999 * cnt) AS BIGINT) THEN value END) AS q999
            FROM ranked GROUP BY w
            """,
            events=events,
        )

    def test_matches_numpy(self, spark, events, stream):
        from repro.core.compression import quantize_sig
        from repro.core.quantile import exact_quantiles

        for sig_digits in (None, 2):
            rows = {
                r.w: r.estimates
                for r in exact_window_quantiles(
                    events, SPEC, PHIS, sig_digits=sig_digits
                ).collect()
            }
            for e in range(SPEC.n_evaluations(len(stream))):
                lo, hi = SPEC.window_bounds(e)
                w = SPEC.n_subwindows - 1 + e
                window = stream[lo:hi]
                if sig_digits is not None:
                    window = quantize_sig(window, sig_digits)
                np.testing.assert_array_equal(rows[w], exact_quantiles(window, PHIS))

    def test_invalid_digits_raise_when_query_is_built(self, events):
        with pytest.raises(ValueError):
            exact_window_quantiles(events, SPEC, PHIS, sig_digits=0)

    def test_qlove_value_error_small_vs_exact(self, spark, events):
        exact = {
            r.w: r.estimates for r in exact_window_quantiles(events, SPEC, PHIS).collect()
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
