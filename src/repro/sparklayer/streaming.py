"""QLOVE as a Structured Streaming stateful aggregation.

This is the repro target's "hierarchical windowing quantile sketch as
Structured Streaming stateful aggregation": events arrive as a stream of
``(stream_id, seq, value)`` micro-batches; per ``stream_id`` group,
``applyInPandasWithState`` maintains QLOVE's state —

  - ``inflight``: the in-flight sub-windows' frequency-compressed Level-1
    states, keyed by ``sub_id``, each with a bitmap of the ``seq`` offsets
    it has seen;
  - ``summaries``: completed sub-windows summarized by
    :func:`repro.core.subwindow.summarize` but not yet merged, because an
    earlier sub-window is still in flight;
  - ``merge``: the kernel's Level 2, :class:`repro.core.qlove.SlidingMerge`
    (the last ``n`` summaries, running sums, burst detector) —

and emits one output row per *completed window* with the QLOVE estimates.
After each micro-batch the handler pushes parked summaries into ``merge``
while the next expected ``sub_id`` is among them, so the merge sees the
summaries in ``sub_id`` order whatever order the micro-batches delivered
them in (the file source does not forbid out-of-order delivery). Window
estimates, burst flags included, are therefore bit-identical to the
kernel's. Windows are emitted in ``w`` order: window ``w`` is emitted once
every sub-window up to ``w`` has completed, not as soon as its own members
have. For a stream whose sub-windows all arrive, the emitted set of
windows is the kernel's.

Events are deduplicated by ``seq`` (the group key is the stream): only the
first arrival of a ``seq`` counts, and a sub-window completes when every
one of its ``P`` offsets has arrived, so a duplicate can neither stall it
nor complete it early. An event of a sub-window that is already merged or
parked (a replay) is dropped without opening an in-flight entry. The
estimates are then the kernel's on the deduplicated stream.

State is held as one pickled binary column: the state is an arbitrary
nested dict (freq maps, summary objects) and serializing it wholesale keeps
the stateful contract in one place. ``merge`` retains ``n`` summaries like
the kernel operator, and ``summaries`` only those completed ahead of a gap.
"""
from __future__ import annotations

import pickle
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig
from repro.core.qlove import SlidingMerge
from repro.core.subwindow import summarize
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
    burst_alpha: float = 0.01,
):
    """Build the applyInPandasWithState handler closure."""
    phis = tuple(phis)
    cfg = fewk or FewKConfig()

    def handler(
        key: tuple, pdfs: Iterable[pd.DataFrame], state: GroupState
    ) -> Iterable[pd.DataFrame]:
        if state.exists:
            st = pickle.loads(bytes(state.get[0]))
        else:
            st = {
                "inflight": {},
                "summaries": {},
                "merge": SlidingMerge(spec, phis, cfg, burst_alpha),
            }
        merge = st["merge"]
        for pdf in pdfs:
            seq = pdf["seq"].to_numpy(dtype=np.int64)
            values = pdf["value"].to_numpy(dtype=np.float64)
            if sig_digits is not None:
                values = quantize_sig(values, sig_digits)
            sub_ids = seq // spec.period
            for s_id in np.unique(sub_ids).tolist():
                if s_id < merge.next_sub_id or s_id in st["summaries"]:
                    continue  # replay of a sub-window already merged or parked
                in_sub = np.flatnonzero(sub_ids == s_id)
                entry = st["inflight"].setdefault(
                    s_id, {"freq": {}, "seen": np.zeros(spec.period, dtype=bool)}
                )
                # Only the first arrival of each seq counts: the first in
                # this batch, and only if no earlier batch delivered it.
                offsets, first = np.unique(seq[in_sub] - s_id * spec.period, return_index=True)
                new = ~entry["seen"][offsets]
                entry["seen"][offsets[new]] = True
                uniq, counts = np.unique(values[in_sub[first[new]]], return_counts=True)
                for v, c in zip(uniq.tolist(), counts.tolist()):
                    entry["freq"][v] = entry["freq"].get(v, 0) + c
                if entry["seen"].all():  # every seq of the sub-window is in
                    freq = st["inflight"].pop(s_id)["freq"]
                    vals = np.fromiter(freq.keys(), dtype=np.float64, count=len(freq))
                    freqs = np.fromiter(freq.values(), dtype=np.int64, count=len(freq))
                    order = np.argsort(vals)
                    st["summaries"][s_id] = summarize(
                        vals[order], freqs[order], phis, cfg, s_id
                    )
        results = []
        while merge.next_sub_id in st["summaries"]:
            summary = st["summaries"].pop(merge.next_sub_id)
            res = merge.push(summary)
            if res is not None:
                results.append((summary.sub_id, [res[p] for p in phis]))
        state.update((pickle.dumps(st),))
        if results:
            yield pd.DataFrame(
                {
                    "stream_id": [str(key[0])] * len(results),
                    "w": [w for w, _ in results],
                    "estimates": [est for _, est in results],
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
    burst_alpha: float = 0.01,
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
    handler = make_handler(
        spec, phis, sig_digits=sig_digits, fewk=fewk, burst_alpha=burst_alpha
    )
    return events_stream.groupBy("stream_id").applyInPandasWithState(
        handler,
        outputStructType=OUTPUT_SCHEMA,
        stateStructType=STATE_SCHEMA,
        outputMode="append",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
