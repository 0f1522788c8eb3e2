"""Spark tests: Level-2 sliding aggregation (sparklayer/level2.py)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.sparklayer.level1 import subwindow_summaries
from repro.sparklayer.level2 import complete_windows, sliding_mean_estimates
from repro.synth_data import netmon, telemetry_events

PHIS = (0.5, 0.9)
PERIOD = 500
N_SUB = 4  # window = 2,000 elements


@pytest.fixture(scope="module")
def events(spark):
    return telemetry_events(spark, netmon(6_000, seed=2)).cache()


@pytest.fixture(scope="module")
def summaries(events):
    return subwindow_summaries(events, PERIOD, PHIS).cache()


class TestCompleteWindows:
    def test_membership_counts(self, summaries):
        member = complete_windows(summaries, N_SUB)
        counts = {
            r.w: r.n for r in member.groupBy("w").agg(F.count("*").alias("n")).collect()
        }
        # 12 sub-windows -> windows 3..11 have full membership; windows
        # 0..2 are pre-warm-up and excluded by construction.
        assert set(counts) == set(range(N_SUB - 1, 12))
        assert all(
            counts[w] == min(N_SUB, 12 - w + N_SUB - 1) for w in counts
        )

    def test_window_membership_range(self, summaries):
        member = complete_windows(summaries, N_SUB)
        bad = member.where(
            (F.col("sub_id") > F.col("w"))
            | (F.col("sub_id") < F.col("w") - F.lit(N_SUB - 1))
        ).count()
        assert bad == 0


class TestSlidingMean:
    def test_matches_oracle_sql(self, spark, events):
        df = (
            sliding_mean_estimates(
                subwindow_summaries(events, PERIOD, PHIS), N_SUB
            )
            .select(
                "w",
                F.col("estimates")[0].alias("q50"),
                F.col("estimates")[1].alias("q90"),
            )
        )
        assert_equivalent(
            df,
            f"""
            WITH ranked AS (
              SELECT CAST(FLOOR(seq / {PERIOD}) AS BIGINT) AS sub_id, value,
                     ROW_NUMBER() OVER (PARTITION BY CAST(FLOOR(seq / {PERIOD}) AS BIGINT)
                                        ORDER BY value) AS rnk,
                     COUNT(*) OVER (PARTITION BY CAST(FLOOR(seq / {PERIOD}) AS BIGINT)) AS cnt
              FROM events),
            sub_q AS (
              SELECT sub_id,
                     MAX(CASE WHEN rnk = CAST(CEIL(0.5 * cnt) AS BIGINT) THEN value END) AS q50,
                     MAX(CASE WHEN rnk = CAST(CEIL(0.9 * cnt) AS BIGINT) THEN value END) AS q90
              FROM ranked GROUP BY sub_id)
            SELECT sub_id AS w,
                   AVG(q50) OVER (ORDER BY sub_id
                     ROWS BETWEEN {N_SUB - 1} PRECEDING AND CURRENT ROW) AS q50,
                   AVG(q90) OVER (ORDER BY sub_id
                     ROWS BETWEEN {N_SUB - 1} PRECEDING AND CURRENT ROW) AS q90
            FROM sub_q QUALIFY sub_id >= {N_SUB - 1}
            """,
            events=events,
        )

    def test_matches_kernel_operator(self, spark, events):
        from repro.core.qlove import QloveOperator
        from repro.streams.windows import WindowSpec

        stream = netmon(6_000, seed=2)
        spec = WindowSpec(size=PERIOD * N_SUB, period=PERIOD)
        kernel = QloveOperator(spec, PHIS).observe_chunk(stream)
        rows = (
            sliding_mean_estimates(
                subwindow_summaries(events, PERIOD, PHIS), N_SUB
            )
            .orderBy("w")
            .collect()
        )
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(
                row.estimates, [res[p] for p in PHIS], rtol=1e-12
            )

    @pytest.mark.parametrize("dropped", [1, 6])
    def test_gap_drops_exactly_the_windows_containing_it(self, summaries, dropped):
        from repro.core.qlove import QloveOperator
        from repro.streams.windows import WindowSpec

        spec = WindowSpec(size=PERIOD * N_SUB, period=PERIOD)
        kernel = QloveOperator(spec, PHIS).observe_chunk(netmon(6_000, seed=2))
        windows = {N_SUB - 1 + i: res for i, res in enumerate(kernel)}
        # window w holds sub-windows w-n+1 .. w; near the start a gap also
        # leaves a frame of fewer than n rows that starts at w-n+1
        expected = {w: res for w, res in windows.items() if not w - N_SUB < dropped <= w}
        rows = sliding_mean_estimates(
            summaries.where(F.col("sub_id") != dropped), N_SUB
        ).collect()
        assert sorted(r.w for r in rows) == sorted(expected)
        for r in rows:
            np.testing.assert_allclose(
                r.estimates, [expected[r.w][p] for p in PHIS], rtol=1e-12
            )

    def test_fewer_than_n_summaries_is_empty(self, summaries):
        short = summaries.where(F.col("sub_id") < N_SUB - 1)
        assert short.count() == N_SUB - 1
        assert sliding_mean_estimates(short, N_SUB).count() == 0

    def test_estimate_array_aligned_with_phis(self, summaries):
        rows = sliding_mean_estimates(summaries, N_SUB).collect()
        for r in rows:
            assert len(r.estimates) == len(PHIS)
            # NetMon: Q0.9 strictly above Q0.5
            assert r.estimates[1] > r.estimates[0]
