"""Spark session handling and the ``spark-batch`` workload.

``spark-batch`` lands NetMon-sim events as parquet during set-up; the timed
region is read -> ``qlove_estimates`` without few-k (Level-1 double
shuffle, ``applyInPandas`` summaries, SQL Level 2) -> collect, repeated
until the run's time is up.
"""
from __future__ import annotations

import json
import os
import pickle
import shlex
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np
import pandas as pd

from perfbench import spec as bench_spec
from perfbench.common import (
    SETUP_REPEATS,
    PeakRss,
    WorkDir,
    fresh_dir,
    latency_summary,
    median,
)
from perfbench.gate import GateResult, check_windows, rows_matrix, value_errors
from perfbench.tracing import Shims, Tracer
from perfbench.wl_kernel import PHIS, SIG_DIGITS, KernelConfig, reference
from repro.experiments.exact_ref import exact_sliding_quantiles
from repro.streams.windows import WindowSpec

DRIVER_MEMORY = "1g"
REST_TIMEOUT_S = 30.0

# Table 1 query, no few-k; 249 windows per iteration, 3 iterations a run:
# latency tail at p95.
BATCH_CFG = KernelConfig(WindowSpec(131_072, 16_384), 4_194_304, False, 95.0)
# Iterations alternate between BATCH_DATASETS independent inputs, so the
# value errors of a run rest on 8M events while one iteration stays short.
BATCH_DATASETS = 2
# The warm-up job's input. With 160K events the first timed iteration still
# ran 5-15% slower than the next (JIT); with 1M the gap is within the noise.
WARMUP_EVENTS = 64 * 16_384


def spark_conf(work: Path, trace: bool) -> dict[str, str]:
    """Session settings; fixed, and recorded in every Spark result."""
    return {
        "spark.master": f"local[{bench_spec.SPARK_CORES}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(bench_spec.SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.bindAddress": "127.0.0.1",
        "spark.ui.enabled": "true" if trace else "false",
        "spark.ui.port": "0",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(work / "spark-local"),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
    }


def start_session(work: Path, trace: bool, app: str):
    """Start (or restart, in the same JVM) a local Spark session whose JVM,
    Python workers and temporary files all stay under ``work``."""
    tmp = work / "tmp"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
    # An inherited SPARK_LOCAL_DIRS would take precedence over spark.local.dir.
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # spark-submit first runs a small launcher JVM; keep its files here too.
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{bench_spec.SPARK_CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf " + shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName(app)
    for k, v in spark_conf(work, trace).items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_jvm() -> None:
    """Stop the active session and the JVM behind it, and wait for the JVM
    (and the Python workers it started) to exit."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    active = SparkSession.getActiveSession()
    if active is not None:
        active.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:  # subprocess.TimeoutExpired: the JVM ignored EOF
            proc.kill()
            proc.wait(timeout=60)


def write_events(path: Path, values: np.ndarray) -> None:
    pd.DataFrame(
        {
            "seq": np.arange(len(values), dtype=np.int64),
            "value": np.asarray(values, dtype=np.float64),
        }
    ).to_parquet(path, index=False)


# ------------------------------------------------------------------ batch


def _batch_iteration(spark, path: Path):
    from repro.sparklayer import qlove_spark

    t0 = time.perf_counter()
    events = spark.read.parquet(str(path))
    out = qlove_spark.qlove_estimates(spark, events, BATCH_CFG.spec, PHIS, sig_digits=SIG_DIGITS)
    rows = [(r.w, r.estimates) for r in out.collect()]
    return time.perf_counter() - t0, rows


def _batch_setup(work: Path, seed: int, trace: bool):
    """Start the session, land every dataset and run one warm-up job,
    ``SETUP_REPEATS`` times; the last session and landing are the ones
    measured."""
    spark = None
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if spark is not None:
            spark.stop()
        spark = start_session(work, trace, "perfbench-spark-batch")
        streams, paths = [], []
        for d in range(BATCH_DATASETS):
            stream = BATCH_CFG.stream(seed, 1, d)
            path = fresh_dir(work / f"input{d}")
            write_events(path / "events.parquet", stream)
            streams.append(stream)
            paths.append(path)
        warm = fresh_dir(work / "warmup")
        write_events(warm / "events.parquet", streams[0][:WARMUP_EVENTS])
        _batch_iteration(spark, warm)
        times.append(time.perf_counter() - t0)
    return spark, streams, paths, times


def run_batch(root: Path, seed: int, seconds: float, trace: bool) -> dict:
    with WorkDir(root, "spark-batch") as work:
        try:
            spark, streams, paths, setup_times = _batch_setup(work, seed, trace)
            if trace:
                traced = _batch_traced(spark, paths, seconds)
            else:
                iterations = []
                deadline = time.perf_counter() + seconds
                with PeakRss(children=True) as rss:
                    # Every dataset at least once, in turn.
                    while len(iterations) < len(paths) or time.perf_counter() < deadline:
                        iterations.append(_batch_iteration(spark, paths[len(iterations) % len(paths)]))
            conf = spark_conf(work, trace)
        finally:
            shutdown_jvm()

    refs = [reference(BATCH_CFG, s) for s in streams]
    first_w = BATCH_CFG.spec.n_subwindows - 1
    gate = GateResult()
    env = {
        "datasets": BATCH_DATASETS,
        "stream_events": BATCH_CFG.n_events,
        "window": BATCH_CFG.spec.size,
        "period": BATCH_CFG.spec.period,
        "phis": PHIS,
        "spark_conf": {k: v for k, v in conf.items() if "dir" not in k},
    }
    runs = traced.pop("rows") if trace else [rows for _, rows in iterations]
    for i, rows in enumerate(runs):
        gate.add(check_windows(rows, refs[i % len(refs)][0], first_w))
    if trace:
        return {**traced, "gate": gate, "env": env}
    if gate.failed:
        return {"metrics": {}, "gate": gate, "env": env}

    times = [t for t, _ in iterations]
    n_windows = len(refs[0][0])
    # Every window of an iteration reaches the Spark driver when collect returns.
    lat = latency_summary(np.repeat(np.asarray(times) * 1e3, n_windows), BATCH_CFG.tail_p)
    n_events = BATCH_CFG.spec.period * (BATCH_CFG.n_events // BATCH_CFG.spec.period)
    est = [rows_matrix(rows, n_windows, first_w) for rows in runs[: len(streams)]]
    exact = [exact_sliding_quantiles(s, BATCH_CFG.spec, PHIS) for s in streams]
    metrics = {
        # Events over time summed across iterations. Not scaled to the host
        # speed like the kernel: the probe runs while the JVM is still busy
        # after collect and tracks a 4-core job poorly.
        "throughput_meps": n_events * len(times) / sum(times) / 1e6,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        # One batch job at a time: the next read starts after collect.
        "backlog_max_batches": 1,
        **value_errors(np.vstack(est), np.vstack(exact), PHIS),
        "space_vars": float(np.mean([space for _, space, _ in refs])),
        "state_bytes": len(pickle.dumps(refs[0][2])),
        "peak_rss_mb": rss.peak_mb,
        "setup_s": median(setup_times),
    }
    return {
        "metrics": metrics,
        "gate": gate,
        "details": {"iteration_s": times, "latency": lat, "setup_times_s": setup_times},
        "env": env,
    }


# ------------------------------------------------------------- batch trace


class SparkRest:
    """The Spark monitoring REST API of the running application (traced
    runs only; the UI listens on 127.0.0.1)."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.base = f"{self.sc.uiWebUrl}/api/v1/applications/{self.sc.applicationId}"

    def get(self, path: str):
        with urllib.request.urlopen(self.base + path, timeout=REST_TIMEOUT_S) as r:
            return json.loads(r.read())

    def jobs(self, group: str) -> list[dict]:
        """Jobs of a job group, once the listener has seen them finish."""
        ids = set(self.sc.statusTracker().getJobIdsForGroup(group))
        deadline = time.monotonic() + REST_TIMEOUT_S
        while True:
            jobs = [j for j in self.get("/jobs") if j["jobId"] in ids]
            if len(jobs) == len(ids) and all(j["status"] != "RUNNING" for j in jobs):
                return jobs
            if time.monotonic() > deadline:
                raise RuntimeError(f"jobs of group {group} did not finish in the UI")
            time.sleep(0.2)

    def shuffle_write_bytes(self, group: str) -> int:
        total = 0
        for job in self.jobs(group):
            for sid in job["stageIds"]:
                for attempt in self.get(f"/stages/{sid}"):
                    if attempt["status"] == "COMPLETE":
                        total += attempt["shuffleWriteBytes"]
        return total

    def work(self, group: str) -> dict:
        jobs = self.jobs(group)
        return {
            "jobs": len(jobs),
            "stages": sum(len(j["stageIds"]) - j["numSkippedStages"] for j in jobs),
            "tasks": sum(j["numCompletedTasks"] for j in jobs),
        }


_STAGES = {
    "repro.sparklayer.level1:freq_state": "sparklayer.level1.freq_state",
    "repro.sparklayer.level1:subwindow_summaries": "sparklayer.level1.subwindow_summaries",
    "repro.sparklayer.level2:sliding_mean_estimates": "sparklayer.level2.sliding_mean_estimates",
}


def _batch_traced(spark, paths: list[Path], seconds: float) -> dict:
    """Half the time plain iterations, half with each stage materialized on
    its own (persist + count inside the stage's span, in its own job
    group); shuffle bytes and job/stage/task counts from the REST API."""
    from repro.sparklayer.level2 import complete_windows

    sc = spark.sparkContext
    rest = SparkRest(spark)
    tracer = Tracer()
    all_rows, plain, traced = [], [], []
    counts: dict[str, list[int]] = {}

    half = time.perf_counter() + seconds / 2
    while not plain or time.perf_counter() < half:
        sc.setJobGroup("plain", "untraced iteration")
        dt, rows = _batch_iteration(spark, paths[len(all_rows) % len(paths)])
        plain.append(dt)
        all_rows.append(rows)
    work = rest.work("plain")
    n_plain = len(plain)

    def materialize(name):
        def inside(df):
            sc.setJobGroup(name, name)
            df = df.persist()
            counts.setdefault(f"{name}.rows", []).append(df.count())
            return df

        return inside

    def after_level2(tracer, args, result):
        sc.setJobGroup("perfbench.counts", "exploded rows")
        counts.setdefault("exploded", []).append(complete_windows(args[0], args[1]).count())

    targets = {path: (name, None, materialize(name)) for path, name in _STAGES.items()}
    level2 = "repro.sparklayer.level2:sliding_mean_estimates"
    targets[level2] = (_STAGES[level2], after_level2, materialize(_STAGES[level2]))

    from repro.sparklayer import qlove_spark

    deadline = time.perf_counter() + seconds / 2
    with Shims(tracer, targets):
        while not traced or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            with tracer.span("perfbench.spark_batch.iteration"):
                with tracer.span("sparklayer.events.read"):
                    sc.setJobGroup("sparklayer.events.read", "read")
                    data = paths[len(all_rows) % len(paths)]
                    events = spark.read.parquet(str(data)).persist()
                    events.count()
                out = qlove_spark.qlove_estimates(
                    spark, events, BATCH_CFG.spec, PHIS, sig_digits=SIG_DIGITS
                )
                with tracer.span("sparklayer.qlove_spark.collect"):
                    sc.setJobGroup("sparklayer.qlove_spark.collect", "collect")
                    rows = [(r.w, r.estimates) for r in out.collect()]
            traced.append(time.perf_counter() - t0)
            all_rows.append(rows)
            spark.catalog.clearCache()
    sc.setJobGroup("perfbench", "idle")
    n = len(traced)
    per_layer = {
        "sparklayer.events.read_ms": tracer.self_ms("sparklayer.events.read") / n,
        "sparklayer.qlove_spark.collect_ms": tracer.self_ms("sparklayer.qlove_spark.collect") / n,
        "spark.jobs": work["jobs"] / n_plain,
        "spark.stages": work["stages"] / n_plain,
        "spark.tasks": work["tasks"] / n_plain,
        "sparklayer.level2.sliding_mean_estimates.exploded_rows": median(counts["exploded"]),
        "trace.overhead_pct": (median(traced) / median(plain) - 1.0) * 100.0,
        "trace.spans": tracer.n_spans / n,
    }
    for name in _STAGES.values():
        per_layer[f"{name}.self_ms"] = tracer.self_ms(name) / n
        per_layer[f"{name}.shuffle_bytes"] = rest.shuffle_write_bytes(name) / n
        if name != _STAGES[level2]:
            per_layer[f"{name}.rows"] = median(counts[f"{name}.rows"])
    return {
        "per_layer": per_layer,
        "rows": all_rows,
        "spans": tracer.spans,
        "details": {"untraced_iteration_s": plain, "traced_iteration_s": traced},
    }
