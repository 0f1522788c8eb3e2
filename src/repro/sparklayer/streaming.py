"""QLOVE as a Structured Streaming stateful aggregation.

This is the repro target's "hierarchical windowing quantile sketch as
Structured Streaming stateful aggregation": events arrive as a stream of
``(stream_id, seq, value)`` micro-batches; per ``stream_id`` group,
``applyInPandasWithState`` maintains QLOVE's state —

  - the in-flight sub-windows' frequency-compressed Level-1 states, and
  - the completed sub-windows' tiny summaries (quantiles + few-k caches) —

and emits one output row per *completed window* with the QLOVE estimates.
The handler is order-insensitive at sub-window granularity (summaries are
keyed by ``sub_id`` and a window is emitted once all of its member
summaries exist), so out-of-order micro-batch delivery — which the file
source does not forbid — cannot corrupt results. Completed sub-windows
are summarized by :func:`repro.core.subwindow.summarize` and kept as
:class:`~repro.core.summary.SubWindowSummary` objects. Burst flags are
derived at emission time: :func:`repro.core.burst.flag_bursts` runs over
sub-windows ``w-n .. w`` (``w-n`` only primes the detector), and window
``w`` waits for ``w-n`` too, so its flags are the sequential kernel
detector's whatever order the sub-windows arrived in.

State is held as one pickled binary column: the state is an arbitrary
nested dict (freq maps, summary objects) and serializing it wholesale keeps
the stateful contract in one place. Expired entries (sub-windows older
than any window that can still complete, and already-emitted window ids)
are pruned every call, so state size stays ``O(n)`` summaries like the
kernel operator's deque.
"""
from __future__ import annotations

import pickle
from typing import Any, Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.burst import flag_bursts
from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig
from repro.core.qlove import window_result
from repro.core.subwindow import summarize
from repro.streams.windows import WindowSpec

__all__ = ["qlove_streaming", "OUTPUT_SCHEMA", "STATE_SCHEMA"]

OUTPUT_SCHEMA = (
    "stream_id STRING, w BIGINT, estimates ARRAY<DOUBLE>"
)
STATE_SCHEMA = StructType([StructField("blob", BinaryType(), True)])


def _emit_ready_windows(
    st: dict[str, Any], spec: WindowSpec, phis: tuple, cfg: FewKConfig, burst_alpha: float
) -> list[tuple[int, list[float]]]:
    """Emit every complete, not-yet-emitted window; prune expired state."""
    n = spec.n_subwindows
    # With a burst test a window also waits for sub-window w-n: it primes
    # the detector that flags w-n+1.
    lookback = n if cfg.burst_phi is not None else n - 1
    summaries = st["summaries"]
    results = []
    for w in sorted(summaries):
        if w < max(st["frontier"], n - 1) or w in st["emitted"]:
            continue
        member_ids = range(max(w - lookback, 0), w + 1)
        if not all(s in summaries for s in member_ids):
            continue
        window = flag_bursts([summaries[s] for s in member_ids], cfg, burst_alpha)[-n:]
        res = window_result(window, phis, cfg)
        results.append((w, [res[p] for p in phis]))
        st["emitted"].add(w)
    # Prune via the monotone frontier = smallest window id not yet emitted.
    # Windows below the frontier can never be (re-)emitted — the emit loop
    # skips them — so their emitted records are droppable, and a summary is
    # dead once every window it serves (plus the burst-flag neighbour) is
    # below the frontier, i.e. once sub_id < frontier - n.
    while st["frontier"] in st["emitted"]:
        st["emitted"].discard(st["frontier"])
        st["frontier"] += 1
    live_from = st["frontier"] - n
    for s_id in [s for s in summaries if s < live_from]:
        del summaries[s_id]
    return results


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
                "summaries": {},
                "inflight": {},
                "emitted": set(),
                "frontier": spec.n_subwindows - 1,
            }
        for pdf in pdfs:
            seq = pdf["seq"].to_numpy(dtype=np.int64)
            values = pdf["value"].to_numpy(dtype=np.float64)
            if sig_digits is not None:
                values = quantize_sig(values, sig_digits)
            sub_ids = seq // spec.period
            for s_id in np.unique(sub_ids):
                chunk = values[sub_ids == s_id]
                entry = st["inflight"].setdefault(int(s_id), {"freq": {}, "count": 0})
                uniq, counts = np.unique(chunk, return_counts=True)
                for v, c in zip(uniq.tolist(), counts.tolist()):
                    entry["freq"][v] = entry["freq"].get(v, 0) + c
                entry["count"] += len(chunk)
                if entry["count"] == spec.period:
                    freq = st["inflight"].pop(int(s_id))["freq"]
                    vals = np.fromiter(freq.keys(), dtype=np.float64, count=len(freq))
                    freqs = np.fromiter(freq.values(), dtype=np.int64, count=len(freq))
                    order = np.argsort(vals)
                    st["summaries"][int(s_id)] = summarize(
                        vals[order], freqs[order], phis, cfg, int(s_id)
                    )
        results = _emit_ready_windows(st, spec, phis, cfg, burst_alpha)
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
