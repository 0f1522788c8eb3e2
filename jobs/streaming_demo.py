"""spark-submit entrypoint: QLOVE as a live Structured Streaming query.

Generates a NetMon-sim telemetry stream, drops it as parquet micro-batch
files into a spool directory, and runs the stateful QLOVE aggregation
(``applyInPandasWithState``) over it at 3 significant digits with few-k
(``auto_topk``, sample-k), printing one row per completed 128K-window. The
windows must equal the kernel ``QloveOperator``'s bit for bit.

Usage: spark-submit jobs/streaming_demo.py [n_events]
"""
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.sparklayer.streaming import qlove_streaming
from repro.streams.windows import WindowSpec
from repro.synth_data import netmon

SPEC = WindowSpec(size=131_072, period=16_384)
PHIS = (0.5, 0.9, 0.99, 0.999)
SIG_DIGITS = 3


def main() -> None:
    n_events = int(sys.argv[1]) if len(sys.argv) > 1 else 524_288
    spark = (
        SparkSession.builder.appName("qlove-streaming-demo")
        # One state-store partition per stream id: every micro-batch visits
        # every partition.
        .config("spark.sql.shuffle.partitions", "1")
        .getOrCreate()
    )
    spool = Path(tempfile.mkdtemp(prefix="qlove_stream_"))
    try:
        stream = netmon(n_events, seed=0)
        # one parquet file per sub-window = one micro-batch per period
        for s in range(n_events // SPEC.period):
            lo, hi = s * SPEC.period, (s + 1) * SPEC.period
            pd.DataFrame(
                {
                    "stream_id": "netmon",
                    "seq": np.arange(lo, hi, dtype=np.int64),
                    "value": stream[lo:hi],
                }
            ).to_parquet(spool / f"batch-{s:06d}.parquet")
        events = (
            spark.readStream.schema("stream_id STRING, seq BIGINT, value DOUBLE")
            .option("maxFilesPerTrigger", 1)
            .parquet(str(spool))
        )
        fewk = FewKConfig.from_fraction(
            window_size=SPEC.size,
            period=SPEC.period,
            phis=[0.999],
            sample_fraction=0.5,
            auto_topk=True,
        )
        out = qlove_streaming(events, SPEC, PHIS, sig_digits=SIG_DIGITS, fewk=fewk)
        windows = []

        def sink(df, batch_id: int) -> None:
            for r in df.orderBy("w").collect():
                print(f"{r.stream_id} w={r.w} estimates={list(r.estimates)}", flush=True)
                windows.append((r.w, list(r.estimates)))

        query = out.writeStream.foreachBatch(sink).outputMode("append").start()
        query.processAllAvailable()
        query.stop()
        kernel = QloveOperator(
            SPEC, PHIS, sig_digits=SIG_DIGITS, fewk=fewk
        ).observe_chunk(stream)
        windows.sort()
        first = SPEC.n_subwindows - 1
        np.testing.assert_array_equal([w for w, _ in windows], np.arange(len(kernel)) + first)
        np.testing.assert_array_equal(
            [est for _, est in windows], [[r[p] for p in PHIS] for r in kernel]
        )
        print(f"{len(kernel)} windows, bit-identical to the kernel operator")
    finally:
        spark.stop()
        shutil.rmtree(spool)


if __name__ == "__main__":
    main()
