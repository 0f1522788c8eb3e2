"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``), so the committed
file and the code that emits the metrics cannot drift apart; the
self-tests check that they agree.
"""
from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 10
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# Fixed Spark execution settings, recorded in every result.
SPARK_CORES = 4  # local[k], k <= nproc
SHUFFLE_PARTITIONS = 4

WORKLOADS = [
    {
        "name": "kernel-sliding",
        "why": "Fig. 4 query (100K window, 1K period, no few-k): per-sub-window fixed cost and Level-2 per-slide work dominate; tail caches and burst test bypassed.",
    },
    {
        "name": "kernel-fewk-burst",
        "why": "128K window, 4K period with few-k on a burst-injected stream: tail extraction, interval sampling, Mann-Whitney and sample-k merge dominate.",
    },
    {
        "name": "spark-batch",
        "why": "The only workload on the Spark shuffle path: parquet read, Level-1 double shuffle, applyInPandas summaries and SQL Level 2, then collect.",
    },
    {
        "name": "spark-streaming",
        "why": "The only workload on the stateful micro-batch path (pickled-state handler, state store): 4 streams fed open loop at 0.625 files/s; kernel-fewk-burst is its baseline.",
    },
]

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("throughput_meps", "Mev/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("backlog_max_batches", "count", "lower", 0.25),
    ("value_err_q50_pct", "%", "lower", 0.25),
    ("value_err_q999_pct", "%", "lower", 0.25),
    ("space_vars", "count", "lower", 0.1),
    ("state_bytes", "B", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

_KERNEL_SELF = [
    "core.compression.quantize_sig",
    "core.subwindow.accumulate_chunk",
    "core.quantile.exact_quantiles_freq",
    "core.qlove.observe_chunk",
    "core.qlove.window_result",
    "streams.runner.run_policy",
    "core.subwindow.finalize",
    "core.fewk.interval_sample",
    "core.fewk.samplek_merge",
    "core.fewk.topk_merge",
    "core.burst.observe",
]
_KERNEL_COUNTS = [
    "core.subwindow.subwindows",
    "core.subwindow.unique_per_subwindow",
    "core.fewk.cached_values_per_subwindow",
    "core.burst.flagged",
    "core.qlove.answers.mean",
    "core.qlove.answers.topk",
    "core.qlove.answers.samplek",
]
_SPARK_BATCH = [
    ("sparklayer.events.read_ms", "ms"),
    ("sparklayer.level1.freq_state.self_ms", "ms"),
    ("sparklayer.level1.freq_state.rows", "count"),
    ("sparklayer.level1.freq_state.shuffle_bytes", "B"),
    ("sparklayer.level1.subwindow_summaries.self_ms", "ms"),
    ("sparklayer.level1.subwindow_summaries.rows", "count"),
    ("sparklayer.level1.subwindow_summaries.shuffle_bytes", "B"),
    ("sparklayer.level2.sliding_mean_estimates.self_ms", "ms"),
    ("sparklayer.level2.sliding_mean_estimates.exploded_rows", "count"),
    ("sparklayer.level2.sliding_mean_estimates.shuffle_bytes", "B"),
    ("sparklayer.qlove_spark.collect_ms", "ms"),
    ("spark.jobs", "count"),
    ("spark.stages", "count"),
    ("spark.tasks", "count"),
]
_STREAMING = [
    ("sparklayer.streaming.trigger_ms", "ms"),
    ("sparklayer.streaming.addBatch_ms", "ms"),
    ("sparklayer.streaming.walCommit_ms", "ms"),
    ("sparklayer.streaming.commitOffsets_ms", "ms"),
    ("sparklayer.streaming.queryPlanning_ms", "ms"),
    ("sparklayer.streaming.state_update_ms", "ms"),
    ("sparklayer.streaming.state_commit_ms", "ms"),
    ("sparklayer.streaming.state_rows", "count"),
    ("sparklayer.streaming.state_store_instances", "count"),
    ("sparklayer.streaming.handler.self_ms", "ms"),
    ("sparklayer.streaming.handler.state_blob_bytes", "B"),
    ("generator.lateness_ms.max", "ms"),
]

PER_LAYER = (
    [(f"{n}.self_ms", "ms") for n in _KERNEL_SELF]
    + [(n, "count") for n in _KERNEL_COUNTS]
    + _SPARK_BATCH
    + _STREAMING
    + [("trace.overhead_pct", "%"), ("trace.spans", "count")]
)


def workload_names() -> list[str]:
    return [w["name"] for w in WORKLOADS]


def end_to_end_units() -> dict[str, str]:
    return {name: unit for name, unit, _, _ in END_TO_END}


def per_layer_units() -> dict[str, str]:
    return dict(PER_LAYER)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
