"""QLOVE as a Structured Streaming stateful aggregation.

This is the repro target's "hierarchical windowing quantile sketch as
Structured Streaming stateful aggregation": events arrive as a stream of
``(stream_id, seq, value)`` micro-batches; per ``stream_id`` group,
``applyInPandasWithState`` runs the kernel's
:class:`repro.core.qlove.QloveOperator` behind a reorder buffer on ``seq``
and emits one row per completed window with its estimates. The handler
only dedupes and reorders:

  - only the first arrival of a ``seq`` counts (parked events before the
    new batch, the first copy within a batch);
  - an event with ``seq < next_seq`` was fed already and is dropped;
  - the gap-free run starting at ``next_seq`` is fed to
    ``observe_chunk``; the events behind a gap are parked until it fills.

So the estimates are the kernel's on the deduplicated stream by
construction, and each window is emitted once, in ``w`` order. The state
is one pickled binary column: ``next_seq``, the parked ``seq``/``value``
arrays (ascending) and the operator (``n`` summaries and the in-flight
period). Trade-off: events behind a gap are parked raw, 16 bytes each, so
a lost event grows the buffer without bound. In-order delivery parks
nothing.
"""
from __future__ import annotations

import pickle
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.streams.windows import WindowSpec

__all__ = ["qlove_streaming", "OUTPUT_SCHEMA", "STATE_SCHEMA"]

OUTPUT_SCHEMA = (
    "stream_id STRING, w BIGINT, estimates ARRAY<DOUBLE>"
)
STATE_SCHEMA = StructType([StructField("blob", BinaryType(), True)])


def make_handler(
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
):
    """Build the applyInPandasWithState handler closure."""
    phis = tuple(phis)

    def handler(
        key: tuple, pdfs: Iterable[pd.DataFrame], state: GroupState
    ) -> Iterable[pd.DataFrame]:
        if state.exists:
            st = pickle.loads(bytes(state.get[0]))
        else:
            st = {
                "next_seq": 0,
                "seq": np.empty(0, dtype=np.int64),
                "value": np.empty(0, dtype=np.float64),
                "op": QloveOperator(spec, phis, sig_digits=sig_digits, fewk=fewk),
            }
        pdfs = list(pdfs)
        seq = np.concatenate([st["seq"], *(p["seq"].to_numpy(dtype=np.int64) for p in pdfs)])
        values = np.concatenate(
            [st["value"], *(p["value"].to_numpy(dtype=np.float64) for p in pdfs)]
        )
        # np.unique's return_index is stable: the first arrival of a seq wins.
        seq, first = np.unique(seq, return_index=True)
        values = values[first]
        new = seq >= st["next_seq"]  # the rest are replays
        seq, values = seq[new], values[new]
        # seq is ascending and unique, so seq[i] - i is non-decreasing and
        # equals next_seq exactly on the run without a gap.
        run = int(np.searchsorted(seq - np.arange(len(seq)), st["next_seq"], side="right"))
        results = st["op"].observe_chunk(values[:run])
        st["next_seq"] += run
        st["seq"], st["value"] = seq[run:], values[run:]
        state.update((pickle.dumps(st),))
        if results:
            # The operator has completed next_seq // P sub-windows; the
            # results are the windows ending at the last len(results) of them.
            last_w = st["next_seq"] // spec.period - 1
            yield pd.DataFrame(
                {
                    "stream_id": [str(key[0])] * len(results),
                    "w": list(range(last_w - len(results) + 1, last_w + 1)),
                    "estimates": [[res[p] for p in phis] for res in results],
                }
            )

    return handler


def qlove_streaming(
    events_stream: DataFrame,
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
) -> DataFrame:
    """Wire QLOVE's stateful handler into a streaming events DataFrame.

    ``events_stream`` must be a *streaming* DataFrame with columns
    ``(stream_id STRING, seq BIGINT, value DOUBLE)``. Returns an append-mode
    streaming DataFrame ``(stream_id, w, estimates)`` with one row per
    completed window.

    State is keyed by ``stream_id`` in ``spark.sql.shuffle.partitions``
    state-store partitions. That count is fixed when the query first
    starts from its checkpoint, and every micro-batch visits every
    partition, so set it near the number of stream ids before ``start()``.
    """
    handler = make_handler(spec, phis, sig_digits=sig_digits, fewk=fewk)
    return events_stream.groupBy("stream_id").applyInPandasWithState(
        handler,
        outputStructType=OUTPUT_SCHEMA,
        stateStructType=STATE_SCHEMA,
        outputMode="append",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
