"""Spark tests: Level-1 frequency state and summaries (sparklayer/level1.py)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.fewk import FewKConfig
from repro.core.subwindow import SubWindowBuilder
from repro.oracle import assert_equivalent
from repro.sparklayer.level1 import freq_state, subwindow_summaries
from repro.synth_data import netmon, pareto_ds, telemetry_events

PHIS = (0.5, 0.9, 0.99, 0.999)
PERIOD = 1_000


@pytest.fixture(scope="module")
def stream():
    return netmon(8_000, seed=1)


@pytest.fixture(scope="module")
def events(spark, stream):
    return telemetry_events(spark, stream).cache()


def _assert_quantized_match(events, stream):
    """Spark's 3-digit summaries of ``events`` equal the kernel builder's
    over ``stream``, period by period."""
    rows = {
        r.sub_id: r
        for r in subwindow_summaries(events, PERIOD, PHIS, sig_digits=3).collect()
    }
    builder = SubWindowBuilder(PHIS, sig_digits=3)
    for s in range(len(stream) // PERIOD):
        builder.accumulate_chunk(stream[s * PERIOD : (s + 1) * PERIOD])
        np.testing.assert_array_equal(rows[s].quantiles, builder.finalize().quantiles)


class TestFreqState:
    def test_matches_oracle(self, spark, events):
        df = freq_state(events, PERIOD)
        assert_equivalent(
            df,
            f"""
            SELECT CAST(FLOOR(seq / {PERIOD}) AS BIGINT) AS sub_id,
                   value, COUNT(*) AS freq
            FROM events GROUP BY 1, 2
            """,
            events=events,
        )

    def test_total_count_preserved(self, events):
        total = freq_state(events, PERIOD).agg(F.sum("freq")).collect()[0][0]
        assert total == 8_000


class TestSubwindowSummaries:
    def test_matches_kernel_builder(self, spark, events, stream):
        rows = {
            r.sub_id: r
            for r in subwindow_summaries(events, PERIOD, PHIS).collect()
        }
        builder = SubWindowBuilder(PHIS)
        for s in range(8):
            builder.accumulate_chunk(stream[s * PERIOD : (s + 1) * PERIOD])
            summary = builder.finalize()
            np.testing.assert_array_equal(rows[s].quantiles, summary.quantiles)
            assert rows[s]["count"] == PERIOD

    def test_fewk_caches_match_kernel(self, spark, events, stream):
        cfg = FewKConfig.from_fraction(
            window_size=4_000,
            period=PERIOD,
            phis=[0.999],
            top_fraction=0.5,
            sample_fraction=0.25,
        )
        rows = {
            r.sub_id: r
            for r in subwindow_summaries(events, PERIOD, PHIS, fewk=cfg).collect()
        }
        builder = SubWindowBuilder(PHIS, fewk=cfg)
        for s in range(8):
            builder.accumulate_chunk(stream[s * PERIOD : (s + 1) * PERIOD])
            summary = builder.finalize()
            np.testing.assert_array_equal(rows[s].top_k[0], summary.top_k[0.999])
            np.testing.assert_array_equal(rows[s].sample_k[0], summary.sample_k[0.999])

    def test_quantized_summaries_match_kernel(self, events, stream):
        _assert_quantized_match(events, stream)

    def test_pareto_quantized_summaries_match_kernel(self, spark):
        # Pareto-sim holds integers below 100, where 3 digits keep a
        # fractional scale, and values past 2^18, which take the
        # quantizer's float path.
        stream = pareto_ds(20_000, seed=3)
        _assert_quantized_match(telemetry_events(spark, stream), stream)

    def test_quantized_quantiles_match_oracle_sql(self, spark, events):
        # 2 significant digits of positive integers, written in DuckDB SQL,
        # then the ceil(phi*N) rank convention over the quantized values.
        df = subwindow_summaries(events, PERIOD, (0.5, 0.99), sig_digits=2).select(
            "sub_id",
            F.col("quantiles")[0].alias("q50"),
            F.col("quantiles")[1].alias("q99"),
        )
        assert_equivalent(
            df,
            f"""
            WITH quantized AS (
              SELECT CAST(FLOOR(seq / {PERIOD}) AS BIGINT) AS sub_id,
                     FLOOR(value / POW(10, FLOOR(LOG10(value)) - 1) * (1+1e-10))
                       * POW(10, FLOOR(LOG10(value)) - 1) AS value
              FROM events),
            ranked AS (
              SELECT sub_id, value,
                     ROW_NUMBER() OVER (PARTITION BY sub_id ORDER BY value) AS rnk,
                     COUNT(*) OVER (PARTITION BY sub_id) AS cnt
              FROM quantized)
            SELECT sub_id,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.5 * cnt) AS BIGINT)
                       THEN value END) AS q50,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.99 * cnt) AS BIGINT)
                       THEN value END) AS q99
            FROM ranked GROUP BY sub_id
            """,
            events=events,
        )

    def test_quantized_zero_and_negative(self, spark):
        # Quantization truncates toward zero and keeps 0.0.
        df = spark.createDataFrame(
            pd.DataFrame({"seq": [0, 1, 2], "value": [0.0, -74_265.0, 74_265.0]})
        )
        (row,) = subwindow_summaries(df, 3, (0.3, 0.6, 1.0), sig_digits=3).collect()
        assert row.quantiles == [-74_200.0, 0.0, 74_200.0]

    def test_invalid_digits_raise_when_query_is_built(self, events):
        with pytest.raises(ValueError):
            subwindow_summaries(events, PERIOD, PHIS, sig_digits=0)

    def test_quantiles_match_oracle_sql(self, spark, events):
        # The paper's ceil(phi*N) rank convention, written directly in SQL.
        df = (
            subwindow_summaries(events, PERIOD, (0.5, 0.99))
            .select(
                "sub_id",
                F.col("quantiles")[0].alias("q50"),
                F.col("quantiles")[1].alias("q99"),
            )
        )
        assert_equivalent(
            df,
            f"""
            WITH ranked AS (
              SELECT CAST(FLOOR(seq / {PERIOD}) AS BIGINT) AS sub_id, value,
                     ROW_NUMBER() OVER (
                       PARTITION BY CAST(FLOOR(seq / {PERIOD}) AS BIGINT)
                       ORDER BY value) AS rnk,
                     COUNT(*) OVER (
                       PARTITION BY CAST(FLOOR(seq / {PERIOD}) AS BIGINT)) AS cnt
              FROM events)
            SELECT sub_id,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.5 * cnt) AS BIGINT)
                       THEN value END) AS q50,
                   MAX(CASE WHEN rnk = CAST(CEIL(0.99 * cnt) AS BIGINT)
                       THEN value END) AS q99
            FROM ranked GROUP BY sub_id
            """,
            events=events,
        )
