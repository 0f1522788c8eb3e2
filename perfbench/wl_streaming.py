"""The ``spark-streaming`` workload: ``qlove_streaming`` fed open loop.

The query monitors ``len(STREAM_IDS)`` telemetry streams, each made and
configured like ``kernel-fewk-burst``'s (stream 0 is that workload's
stream). Set-up writes every parquet file to a staging directory, lands the
warm-up file (the first ``WARMUP_EVENTS`` events of every stream) in a
fresh spool and runs it through a fresh query and checkpoint. In the timed
region a generator lands one file every ``1 / FILES_PER_S`` seconds —
16K events (4 sub-windows) of every stream, one micro-batch — each by an
atomic rename, whatever the query is doing. A window's latency runs from
the scheduled landing of the file that completes it to its row reaching
the ``foreachBatch`` sink.
"""
from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pandas as pd

from perfbench.common import (
    SETUP_REPEATS,
    PeakRss,
    WorkDir,
    fresh_dir,
    latency_summary,
    median,
)
from perfbench.gate import GateResult, check_windows, rows_matrix, value_errors
from perfbench.tracing import Tracer
from perfbench.wl_kernel import CONFIGS, PHIS, SIG_DIGITS, reference
from perfbench.wl_spark import shutdown_jvm, spark_conf, start_session
from repro.experiments.exact_ref import exact_sliding_quantiles

CFG = CONFIGS["kernel-fewk-burst"]
SPEC = CFG.spec
# Ids whose hash partitions (pmod(hash(stream_id), 4)) are 0, 2, 3 and 1:
# with 4 shuffle partitions each stream's state lives in its own task.
STREAM_IDS = ("netmon-0", "netmon-1", "netmon-2", "netmon-6")
FILE_EVENTS = 16_384  # per stream: 4 sub-windows per micro-batch
WARMUP_EVENTS = 524_288  # per stream, one micro-batch in set-up
# A file takes the query 0.6-1.3 s on 4 cores; one every 1.6 s keeps the
# backlog at one file.
FILES_PER_S = 0.625
DRAIN_TIMEOUT_S = 60.0
# 16 windows per timed file, 7 files a run: p90.
TAIL_P = 90.0
SCHEMA = "stream_id STRING, seq BIGINT, value DOUBLE"


class Sink:
    """``foreachBatch`` target: every window row and when it arrived."""

    def __init__(self):
        self.lock = threading.Lock()
        self.rows: list[tuple[str, int, list]] = []
        self.arrival: dict[tuple[str, int], float] = {}
        self.batches = 0

    def __call__(self, df, batch_id: int) -> None:
        rows = df.collect()
        now = time.perf_counter()
        with self.lock:
            for r in rows:
                self.rows.append((r.stream_id, int(r.w), list(r.estimates)))
                self.arrival.setdefault((r.stream_id, int(r.w)), now)
            self.batches += 1

    def count(self) -> int:
        with self.lock:
            return len(self.rows)


def file_bounds(i: int) -> tuple[int, int]:
    """Per-stream event range of file ``i``: file 0 is the warm-up."""
    if i == 0:
        return 0, WARMUP_EVENTS
    lo = WARMUP_EVENTS + (i - 1) * FILE_EVENTS
    return lo, lo + FILE_EVENTS


def completing_file(w: int) -> int:
    """The file whose landing completes window ``w`` (its last sub-window)."""
    end = (w + 1) * SPEC.period
    return 0 if end <= WARMUP_EVENTS else -(-(end - WARMUP_EVENTS) // FILE_EVENTS)


def file_frame(streams: list[np.ndarray], i: int) -> pd.DataFrame:
    lo, hi = file_bounds(i)
    return pd.concat(
        [
            pd.DataFrame(
                {"stream_id": sid, "seq": np.arange(lo, hi, dtype=np.int64), "value": s[lo:hi]}
            )
            for sid, s in zip(STREAM_IDS, streams)
        ],
        ignore_index=True,
    )


def land(staging: Path, spool: Path, i: int) -> None:
    """Atomically publish file ``i``: it was written in full to the staging
    directory on the same file system, so the source never sees a partial
    file."""
    name = f"part-{i:06d}.parquet"
    os.rename(staging / name, spool / name)


def start_query(spark, spool: Path, checkpoint: Path, sink: Sink):
    from repro.sparklayer.streaming import qlove_streaming

    events = (
        spark.readStream.schema(SCHEMA).option("maxFilesPerTrigger", 1).parquet(str(spool))
    )
    out = qlove_streaming(events, SPEC, PHIS, sig_digits=SIG_DIGITS, fewk=CFG.fewk())
    return (
        out.writeStream.foreachBatch(sink)
        .option("checkpointLocation", str(checkpoint))
        .outputMode("append")
        .start()
    )


def _setup(work: Path, streams: list[np.ndarray], n_files: int, trace: bool, attempt: int):
    """Fresh spool, staging and checkpoint directories, every file staged,
    the warm-up file landed and processed by a new query."""
    spark = start_session(work, trace, "perfbench-spark-streaming")
    base = work / f"run{attempt}"
    staging, spool, checkpoint = (fresh_dir(base / d) for d in ("staging", "spool", "checkpoint"))
    for i in range(n_files):
        file_frame(streams, i).to_parquet(staging / f"part-{i:06d}.parquet", index=False)
    sink = Sink()
    query = start_query(spark, spool, checkpoint, sink)
    land(staging, spool, 0)
    query.processAllAvailable()
    return spark, query, sink, staging, spool


def run(root: Path, seed: int, seconds: float, trace: bool) -> dict:
    timed_files = max(1, math.ceil(seconds * FILES_PER_S))
    n_files = 1 + timed_files
    n_events = file_bounds(timed_files)[1]
    streams = [CFG.stream(seed, *((j,) if j else ()))[:n_events] for j in range(len(STREAM_IDS))]
    n_windows = len(STREAM_IDS) * SPEC.n_evaluations(n_events)
    with WorkDir(root, "spark-streaming") as work:
        try:
            setup_times = []
            query = spark = None
            for attempt in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                if query is not None:
                    query.stop()
                    spark.stop()
                spark, query, sink, staging, spool = _setup(work, streams, n_files, trace, attempt)
                setup_times.append(time.perf_counter() - t0)
            conf = spark_conf(work, trace)
            with PeakRss(children=True) as rss:
                timed = _generate(query, sink, staging, spool, timed_files, n_windows)
            progress = [json.loads(p.json) for p in query.recentProgress]
            query.stop()
        finally:
            shutdown_jvm()

    first_w = SPEC.n_subwindows - 1
    gate = GateResult()
    refs, spaces, est, exact = [], [], [], []
    for sid, stream in zip(STREAM_IDS, streams):
        ref, space, _ = reference(CFG, stream)
        rows = [(w, e) for s, w, e in sink.rows if s == sid]
        gate.add(check_windows(rows, ref, first_w))
        refs.append(ref)
        spaces.append(space)
        if not trace and gate.failed == 0:
            est.append(rows_matrix(rows, len(ref), first_w))
            exact.append(exact_sliding_quantiles(stream, SPEC, PHIS))
    env = {
        "stream_ids": STREAM_IDS,
        "stream_events": n_events,
        "window": SPEC.size,
        "period": SPEC.period,
        "phis": PHIS,
        "file_events_per_stream": FILE_EVENTS,
        "warmup_events_per_stream": WARMUP_EVENTS,
        "timed_files": timed_files,
        "files_per_s": FILES_PER_S,
        "streaming_rate_eps": FILES_PER_S * FILE_EVENTS * len(STREAM_IDS),
        "loop": "open",
        "spark_conf": {k: v for k, v in conf.items() if "dir" not in k},
    }
    timed_progress = [p for p in progress if p.get("numInputRows", 0) > 0][-timed_files:]
    if trace:
        per_layer, replay_gate, spans = _trace_metrics(streams[0], n_files, timed_progress, refs[0])
        gate.add(replay_gate)
        per_layer["generator.lateness_ms.max"] = max(timed["lateness_ms"])
        return {
            "per_layer": per_layer,
            "gate": gate,
            "env": env,
            "spans": spans,
            "details": {"progress": timed_progress},
        }
    if gate.failed:
        return {"metrics": {}, "gate": gate, "env": env}

    # Latency of each window completed in the timed region.
    lat_ms = []
    for (_, w), arrived in sink.arrival.items():
        f = completing_file(w)
        if f > 0:
            lat_ms.append((arrived - timed["scheduled"][f - 1]) * 1e3)
    lat = latency_summary(lat_ms, TAIL_P)
    file_rows = FILE_EVENTS * len(STREAM_IDS)
    if len(timed_progress) != timed_files or any(p["numInputRows"] != file_rows for p in timed_progress):
        raise RuntimeError("the timed micro-batches are not one per timed file")
    # The query's own processing rate: timed events over the time the engine
    # spent executing their micro-batches (read, QLOVE handler, state commit
    # and sink). Wall time since the first landing would mostly measure the
    # generator's fixed schedule.
    busy_s = sum(p["durationMs"]["triggerExecution"] for p in timed_progress) / 1e3
    metrics = {
        "throughput_meps": timed_files * file_rows / busy_s / 1e6,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "backlog_max_batches": max(timed["backlog"]),
        **value_errors(np.vstack(est), np.vstack(exact), PHIS),
        "space_vars": float(np.mean(spaces)),
        "state_bytes": progress[-1]["stateOperators"][0]["memoryUsedBytes"],
        "peak_rss_mb": rss.peak_mb,
        "setup_s": median(setup_times),
    }
    return {
        "metrics": metrics,
        "gate": gate,
        "env": env,
        "details": {
            "latency": lat,
            "setup_times_s": setup_times,
            "generator_lateness_ms_max": max(timed["lateness_ms"]),
            "backlog": timed["backlog"],
            "batch_duration_ms": [p["durationMs"].get("triggerExecution") for p in timed_progress],
        },
    }


def _generate(query, sink: Sink, staging: Path, spool: Path, timed_files: int, n_windows: int) -> dict:
    """Land the timed files on a fixed schedule, then wait for every window."""
    scheduled, lateness, backlog = [], [], []
    with sink.lock:
        done_before = sink.batches
    t0 = time.perf_counter()
    for k in range(timed_files):
        due = t0 + k / FILES_PER_S
        while (now := time.perf_counter()) < due:
            time.sleep(min(due - now, 0.05))
        land(staging, spool, 1 + k)
        scheduled.append(due)
        lateness.append((time.perf_counter() - due) * 1e3)
        with sink.lock:
            done = sink.batches
        # Files landed in the timed region and not yet through the sink.
        backlog.append(k + 1 - (done - done_before))
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while sink.count() < n_windows and time.perf_counter() < deadline:
        if query.exception() is not None:
            raise RuntimeError(f"streaming query failed: {query.exception()}")
        time.sleep(0.01)
    # Let the last batch commit, so its progress report exists.
    query.processAllAvailable()
    return {"scheduled": scheduled, "lateness_ms": lateness, "backlog": backlog}


class _StandInState:
    """Minimal ``GroupState`` for replaying micro-batches through the handler."""

    def __init__(self):
        self._value = None

    @property
    def exists(self) -> bool:
        return self._value is not None

    @property
    def get(self):
        return self._value

    def update(self, value) -> None:
        self._value = value


def _replay(stream: np.ndarray, n_files: int, tracer: Tracer | None):
    """Feed stream 0's micro-batches through ``make_handler`` in process.

    Returns per-call times, state blob sizes and the emitted rows.
    """
    from repro.sparklayer.streaming import make_handler

    handler = make_handler(SPEC, PHIS, sig_digits=SIG_DIGITS, fewk=CFG.fewk())
    state = _StandInState()
    key = (STREAM_IDS[0],)
    times, blobs, rows = [], [], []
    for i in range(n_files):
        pdf = file_frame([stream], i)[["seq", "value"]]
        t0 = time.perf_counter()
        if tracer is None:
            out = list(handler(key, iter([pdf]), state))
        else:
            with tracer.span("sparklayer.streaming.handler"):
                out = list(handler(key, iter([pdf]), state))
        times.append((time.perf_counter() - t0) * 1e3)
        blobs.append(len(state.get[0]))
        for o in out:
            rows.extend(zip(o["w"].tolist(), o["estimates"].tolist()))
    return times, blobs, rows


def _trace_metrics(stream, n_files, progress, ref):
    """Medians of the engine's per-batch progress over the timed batches,
    and the handler's own cost per group from an in-process replay."""

    def med(get):
        vals = [v for v in (get(p) for p in progress) if v is not None]
        return median(vals) if vals else 0.0

    dur = lambda key: med(lambda p: p["durationMs"].get(key))  # noqa: E731
    state = lambda key: med(lambda p: p["stateOperators"][0].get(key))  # noqa: E731
    _replay(stream, n_files, None)  # warm-up: the first replay pays imports and caches
    plain_ms, _, _ = _replay(stream, n_files, None)
    tracer = Tracer()
    traced_ms, blobs, rows = _replay(stream, n_files, tracer)
    timed = slice(1, n_files)
    per_layer = {
        "sparklayer.streaming.trigger_ms": dur("triggerExecution"),
        "sparklayer.streaming.addBatch_ms": dur("addBatch"),
        "sparklayer.streaming.walCommit_ms": dur("walCommit"),
        "sparklayer.streaming.commitOffsets_ms": dur("commitOffsets"),
        "sparklayer.streaming.queryPlanning_ms": dur("queryPlanning"),
        "sparklayer.streaming.state_update_ms": state("allUpdatesTimeMs"),
        "sparklayer.streaming.state_commit_ms": state("commitTimeMs"),
        "sparklayer.streaming.state_rows": state("numRowsTotal"),
        "sparklayer.streaming.state_store_instances": state("numStateStoreInstances"),
        "sparklayer.streaming.handler.self_ms": median(traced_ms[timed]),
        "sparklayer.streaming.handler.state_blob_bytes": median(blobs[timed]),
        "trace.overhead_pct": (median(traced_ms[timed]) / median(plain_ms[timed]) - 1.0) * 100.0,
        "trace.spans": tracer.n_spans / n_files,
    }
    gate = check_windows(rows, ref, SPEC.n_subwindows - 1)
    return per_layer, gate, tracer.spans
