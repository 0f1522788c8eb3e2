"""Spark tests: event streams (sparklayer/events.py)."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.sparklayer.events import with_sub_id
from repro.synth_data import netmon, telemetry_events


@pytest.fixture(scope="module")
def events(spark):
    return telemetry_events(spark, netmon(4_000, seed=0)).cache()


class TestWithSubId:
    def test_matches_oracle(self, spark, events):
        df = with_sub_id(events, 500).groupBy("sub_id").agg(
            F.count(F.lit(1)).alias("n")
        )
        assert_equivalent(
            df,
            """
            SELECT CAST(FLOOR(seq / 500) AS BIGINT) AS sub_id, COUNT(*) AS n
            FROM events GROUP BY 1
            """,
            events=events,
        )

    def test_invalid_period(self, events):
        with pytest.raises(ValueError):
            with_sub_id(events, 0)

    def test_sub_id_count(self, events):
        n = with_sub_id(events, 1_000).select("sub_id").distinct().count()
        assert n == 4

