"""Structured Streaming tests: stateful QLOVE (sparklayer/streaming.py)."""
import pickle

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.sparklayer.streaming import make_handler, qlove_streaming
from repro.streams.windows import WindowSpec
from repro.synth_data import ar1, inject_burst, netmon

PHIS = (0.5, 0.9, 0.99)
SPEC = WindowSpec(size=2_000, period=500)


def _write_stream_files(tmp_path, stream, files: int, stream_id: str = "s0"):
    """Chunk a stream into `files` parquet files (whole sub-windows each)."""
    per_file = len(stream) // files
    paths = []
    for i in range(files):
        chunk = stream[i * per_file : (i + 1) * per_file]
        pdf = pd.DataFrame(
            {
                "stream_id": stream_id,
                "seq": np.arange(i * per_file, i * per_file + len(chunk), dtype=np.int64),
                "value": chunk,
            }
        )
        p = tmp_path / f"part-{i:04d}.parquet"
        pdf.to_parquet(p)
        paths.append(p)
    return paths


def _run_streaming(spark, tmp_path, spec, phis, name, **kw):
    stream_df = (
        spark.readStream.schema("stream_id STRING, seq BIGINT, value DOUBLE")
        .option("maxFilesPerTrigger", 1)
        .parquet(str(tmp_path))
    )
    out = qlove_streaming(stream_df, spec, phis, **kw)
    # One state-store partition per stream id: the query fixes the count
    # when it starts, and every micro-batch visits every partition.
    n_ids = pd.read_parquet(tmp_path, columns=["stream_id"])["stream_id"].nunique()
    partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", n_ids)
    try:
        query = (
            out.writeStream.format("memory")
            .queryName(name)
            .outputMode("append")
            .start()
        )
        try:
            query.processAllAvailable()
        finally:
            query.stop()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", partitions)
    return (
        spark.sql(f"SELECT * FROM {name}")
        .orderBy("w")
        .collect()
    )


class TestStreamingQlove:
    def test_matches_kernel(self, spark, tmp_path):
        stream = netmon(6_000, seed=0)
        _write_stream_files(tmp_path, stream, files=6)
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_plain")
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        assert len(rows) == len(kernel) == SPEC.n_evaluations(6_000)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_subwindow_split_across_batches(self, spark, tmp_path):
        # 8 files of 500 elements with period 500 — but shift so files do
        # NOT align with sub-window boundaries.
        stream = netmon(4_000, seed=1)
        per_file = 250  # half a sub-window per file
        for i in range(16):
            chunk = stream[i * per_file : (i + 1) * per_file]
            pd.DataFrame(
                {
                    "stream_id": "s0",
                    "seq": np.arange(i * per_file, (i + 1) * per_file, dtype=np.int64),
                    "value": chunk,
                }
            ).to_parquet(tmp_path / f"part-{i:04d}.parquet")
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_split")
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_matches_kernel(self, spark, tmp_path):
        stream = inject_burst(
            netmon(6_000, seed=2), window_size=SPEC.size, period=SPEC.period, phi=0.99
        )
        _write_stream_files(tmp_path, stream, files=6)
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size,
            period=SPEC.period,
            phis=[0.99],
            top_fraction=0.25,
            sample_fraction=0.5,
        )
        rows = _run_streaming(
            spark, tmp_path, SPEC, PHIS, "qlove_stream_fewk", fewk=cfg
        )
        kernel = QloveOperator(SPEC, PHIS, fewk=cfg).observe_chunk(stream)
        assert len(rows) == len(kernel)
        for row, res in zip(rows, kernel):
            np.testing.assert_allclose(row.estimates, [res[p] for p in PHIS], rtol=1e-12)

    def test_multiple_stream_ids_isolated(self, spark, tmp_path):
        s_a, s_b = netmon(2_000, seed=3), netmon(2_000, seed=4)
        pdf = pd.concat(
            [
                pd.DataFrame(
                    {"stream_id": "a", "seq": np.arange(2_000, dtype=np.int64), "value": s_a}
                ),
                pd.DataFrame(
                    {"stream_id": "b", "seq": np.arange(2_000, dtype=np.int64), "value": s_b}
                ),
            ]
        )
        pdf.to_parquet(tmp_path / "part-0000.parquet")
        rows = _run_streaming(spark, tmp_path, SPEC, PHIS, "qlove_stream_multi")
        by_stream = {}
        for r in rows:
            by_stream.setdefault(r.stream_id, []).append(r)
        for sid, stream in (("a", s_a), ("b", s_b)):
            kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
            assert len(by_stream[sid]) == len(kernel) == 1
            np.testing.assert_allclose(
                by_stream[sid][0].estimates, [kernel[0][p] for p in PHIS], rtol=1e-12
            )


class TestHandlerUnit:
    """Drive the state handler directly (no streaming harness) to cover the
    state-machine paths cheaply."""

    class _FakeState:
        def __init__(self):
            self._val = None

        @property
        def exists(self):
            return self._val is not None

        @property
        def get(self):
            return self._val

        def update(self, v):
            self._val = v

    def _feed(self, handler, state, stream, lo, hi):
        return self._feed_seq(handler, state, stream, np.arange(lo, hi, dtype=np.int64))

    def _feed_seq(self, handler, state, stream, seq, values=None):
        pdf = pd.DataFrame(
            {"seq": seq, "value": stream[seq] if values is None else values}
        )
        return list(handler(("s0",), iter([pdf]), state))

    def _assert_kernel_and_clean(self, outs, state, stream):
        """Every window of ``stream`` emitted once, bit-identical to the
        kernel's, and no sub-window left in flight or parked."""
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        first = SPEC.n_subwindows - 1
        assert [int(w) for o in outs for w in o["w"]] == list(range(first, first + len(kernel)))
        np.testing.assert_array_equal(
            [est for o in outs for est in o["estimates"]],
            [[res[p] for p in PHIS] for res in kernel],
        )
        st_ = pickle.loads(bytes(state.get[0]))
        assert st_["inflight"] == {} and st_["summaries"] == {}
        assert st_["merge"].next_sub_id == len(stream) // SPEC.period

    def test_emits_once_per_window(self):
        stream = netmon(3_000, seed=5)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo in range(0, 3_000, 500):
            outs.extend(self._feed(handler, state, stream, lo, lo + 500))
        ws = [int(w) for o in outs for w in o["w"]]
        assert ws == [3, 4, 5]

    def test_out_of_order_subwindows(self):
        stream = netmon(2_500, seed=6)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        order = [(500, 1000), (0, 500), (1500, 2000), (1000, 1500), (2000, 2500)]
        outs = []
        for lo, hi in order:
            outs.extend(self._feed(handler, state, stream, lo, hi))
        ws = [int(w) for o in outs for w in o["w"]]
        assert sorted(ws) == [3, 4]
        kernel = QloveOperator(SPEC, PHIS).observe_chunk(stream)
        got = {int(w): est for o in outs for w, est in zip(o["w"], o["estimates"])}
        for i, res in enumerate(kernel):
            np.testing.assert_allclose(got[3 + i], [res[p] for p in PHIS], rtol=1e-12)

    def test_fewk_out_of_order_matches_kernel(self):
        # Bursts sit in sub-windows 0, 4 and 8. Sub-windows 4..7 (one split
        # across batches) arrive before 3, whose samples flag burst 4.
        stream = inject_burst(
            netmon(6_000, seed=9), window_size=SPEC.size, period=SPEC.period, phi=0.99
        )
        cfg = FewKConfig.from_fraction(
            window_size=SPEC.size,
            period=SPEC.period,
            phis=[0.99],
            top_fraction=0.25,
            sample_fraction=0.5,
        )
        handler = make_handler(SPEC, PHIS, fewk=cfg)
        state = self._FakeState()
        order = [(0, 1500), (2250, 3000), (3500, 4000), (2000, 2250), (3000, 3500),
                 (1500, 2000), (4500, 6000), (4000, 4500)]
        outs = []
        for lo, hi in order:
            outs.extend(self._feed(handler, state, stream, lo, hi))
        got = {int(w): est for o in outs for w, est in zip(o["w"], o["estimates"])}
        kernel = QloveOperator(SPEC, PHIS, fewk=cfg).observe_chunk(stream)
        assert sorted(got) == list(range(3, 3 + len(kernel)))
        for i, res in enumerate(kernel):
            np.testing.assert_allclose(got[3 + i], [res[p] for p in PHIS], rtol=1e-12)

    @pytest.mark.parametrize("fewk", [False, True], ids=["plain", "fewk"])
    def test_ar1_bit_identical_to_kernel(self, fewk):
        # Float values show any other Level-2 summation order in the last
        # bits. Batches straddle sub-windows and arrive in swapped pairs.
        stream = inject_burst(
            ar1(30_000, psi=0.8, seed=3), window_size=SPEC.size, period=SPEC.period, phi=0.99
        )
        cfg = (
            FewKConfig.from_fraction(
                window_size=SPEC.size,
                period=SPEC.period,
                phis=[0.99],
                top_fraction=0.25,
                sample_fraction=0.5,
            )
            if fewk
            else None
        )
        handler = make_handler(SPEC, PHIS, fewk=cfg)
        state = self._FakeState()
        outs = []
        for pair in range(0, len(stream), 1_500):
            for lo in (pair + 750, pair):
                outs.extend(self._feed(handler, state, stream, lo, lo + 750))
        kernel = QloveOperator(SPEC, PHIS, fewk=cfg).observe_chunk(stream)
        assert [int(w) for o in outs for w in o["w"]] == list(range(3, 3 + len(kernel)))
        np.testing.assert_array_equal(
            [est for o in outs for est in o["estimates"]],
            [[res[p] for p in PHIS] for res in kernel],
        )

    def test_state_pruned(self):
        stream = netmon(10_000, seed=7)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        for lo in range(0, 10_000, 500):
            self._feed(handler, state, stream, lo, lo + 500)
        st = pickle.loads(bytes(state.get[0]))
        # bounded state: the merge retains n summaries, nothing is parked
        assert len(st["merge"].summaries) <= SPEC.n_subwindows
        assert st["merge"].next_sub_id == 20
        assert len(st["summaries"]) == 0
        assert len(st["inflight"]) == 0

    def test_replayed_subwindow_dropped(self):
        stream = netmon(3_000, seed=8)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo in range(0, 3_000, 500):
            outs.extend(self._feed(handler, state, stream, lo, lo + 500))
        assert [int(w) for o in outs for w in o["w"]] == [3, 4, 5]
        assert self._feed(handler, state, stream, 0, 500) == []
        st = pickle.loads(bytes(state.get[0]))
        assert len(st["summaries"]) == 0 and len(st["inflight"]) == 0
        assert st["merge"].next_sub_id == 6

    def test_duplicate_event_in_batch_counts_once(self):
        # Seq 700 arrives twice in one batch; the second copy carries
        # another value and must be ignored, not push the count past P.
        stream = netmon(3_000, seed=10)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo in range(0, 3_000, 500):
            seq = np.arange(lo, lo + 500, dtype=np.int64)
            values = stream[seq]
            if lo == 500:
                seq = np.append(seq, 700)
                values = np.append(values, 1e9)
            outs.extend(self._feed_seq(handler, state, stream, seq, values))
        self._assert_kernel_and_clean(outs, state, stream)

    def test_duplicate_events_across_batches(self):
        # Overlapping batches: seqs 250..299 and 1200..1499 arrive twice.
        stream = netmon(3_000, seed=11)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo, hi in [(0, 300), (250, 1000), (1000, 1500), (1200, 3000)]:
            outs.extend(self._feed(handler, state, stream, lo, hi))
        self._assert_kernel_and_clean(outs, state, stream)

    def test_partial_replay_of_merged_subwindow_leaves_no_entry(self):
        stream = netmon(3_000, seed=12)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo in range(0, 3_000, 500):
            outs.extend(self._feed(handler, state, stream, lo, lo + 500))
        assert self._feed(handler, state, stream, 100, 200) == []
        self._assert_kernel_and_clean(outs, state, stream)

    def test_partial_replay_of_parked_subwindow_leaves_no_entry(self):
        # Sub-window 2 completes while 1 is missing, so it is parked; a
        # partial replay of it must not open a new in-flight entry.
        stream = netmon(3_000, seed=13)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for lo, hi in [(0, 500), (1000, 1500), (1100, 1200), (500, 1000), (1500, 3000)]:
            outs.extend(self._feed(handler, state, stream, lo, hi))
        self._assert_kernel_and_clean(outs, state, stream)

    @given(
        cuts=st.lists(st.integers(min_value=1, max_value=2_999), max_size=12),
        replays=st.lists(
            st.tuples(st.integers(0, 2_999), st.integers(1, 600)), max_size=6
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_shuffled_duplicated_batches_match_kernel(self, cuts, replays, order):
        # Replayed events carry their original values, so the deduplicated
        # stream is the stream itself.
        stream = netmon(3_000, seed=14)
        bounds = sorted({0, 3_000, *cuts})
        batches = [np.arange(lo, hi, dtype=np.int64) for lo, hi in zip(bounds, bounds[1:])]
        batches += [np.arange(lo, min(lo + n, 3_000), dtype=np.int64) for lo, n in replays]
        order.shuffle(batches)
        handler = make_handler(SPEC, PHIS)
        state = self._FakeState()
        outs = []
        for seq in batches:
            outs.extend(self._feed_seq(handler, state, stream, seq))
        self._assert_kernel_and_clean(outs, state, stream)
