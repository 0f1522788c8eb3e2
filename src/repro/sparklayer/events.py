"""Event-stream DataFrames (Section 2's streaming model, relationally).

An event stream is a DataFrame ``(seq BIGINT, value DOUBLE)`` where ``seq``
is the 0-based arrival order (the element timestamp of count-based
windows). :func:`with_sub_id` assigns each event its Level-1 sub-window.
Values stay raw in Spark: Section 3.1's compression is applied by the
kernel's :func:`repro.core.compression.quantize_sig` where values reach
Python, on the driver in :mod:`.level1`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

__all__ = ["with_sub_id"]


def with_sub_id(events: DataFrame, period: int) -> DataFrame:
    """Add ``sub_id = floor(seq / period)`` (Section 3.1: sub-windows are
    aligned with the window period and follow timestamp order)."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    return events.withColumn("sub_id", (F.col("seq") / period).cast("long"))

