"""Kernel workloads: ``QloveOperator`` driven through ``run_policy``.

``kernel-sliding`` is the Fig. 4 query; ``kernel-fewk-burst`` runs few-k
merging on a burst-injected stream, and its stream and configuration are
shared with ``spark-streaming``.
"""
from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from perfbench.common import (
    HostSpeed,
    PeakRss,
    latency_summary,
    median,
    sub_seed,
)
from perfbench.gate import (
    GateResult,
    check_windows,
    matrix_windows,
    mean_of_subwindow_quantiles,
    value_errors,
)
from perfbench.tracing import Shims, Tracer
from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.experiments.exact_ref import exact_sliding_quantiles
from repro.streams import runner
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon

PHIS = (0.5, 0.9, 0.99, 0.999)
SIG_DIGITS = 3
# A kernel set-up takes ~0.2 s, so its median needs more samples than the
# Spark set-ups' (common.SETUP_REPEATS) to stay steady.
SETUP_REPEATS = 9


@dataclass(frozen=True)
class KernelConfig:
    spec: WindowSpec
    n_events: int
    burst: bool  # inject a burst and merge the tail with few-k
    tail_p: float  # latency tail percentile (see common.TAIL_GRID)
    # Value errors are scored on every ``err_stride``-th window; adjacent
    # windows of the 100K/1K query share 99% of their events, and scoring
    # all 8K of them would take longer than the timed region. The window
    # size must be a multiple of ``period * err_stride``.
    err_stride: int = 1

    def fewk(self) -> FewKConfig | None:
        if not self.burst:
            return None
        return FewKConfig.from_fraction(
            window_size=self.spec.size,
            period=self.spec.period,
            phis=[0.99, 0.999],
            sample_fraction=0.5,
            auto_topk=True,
        )

    def operator(self) -> QloveOperator:
        return QloveOperator(self.spec, PHIS, sig_digits=SIG_DIGITS, fewk=self.fewk())

    def stream(self, seed: int, *key: int) -> np.ndarray:
        """The workload's input; ``key`` selects an independent stream of
        the same kind (``spark-streaming`` monitors several)."""
        values = netmon(self.n_events, seed=sub_seed(seed, 0, *key))
        if self.burst:
            values = inject_burst(
                values, window_size=self.spec.size, period=self.spec.period, phi=0.999
            )
        return values

    def mean_phis(self) -> np.ndarray:
        """Mask of the phis answered by the plain Level-2 mean."""
        cfg = self.fewk() or FewKConfig()
        return np.array([cfg.budget_for(p) is None for p in PHIS])


CONFIGS = {
    # ~8K emitting calls per pass, ~9 passes a run; ~1K and ~10 on the
    # second. Past p95 the tail of these 0.1-ms and 1-ms calls is set by host
    # stalls, not by the kernel: at p99 the run-to-run spreads were 0.21 and
    # 0.23 against 0.06 and 0.04 at p95. The first stream is 8M events
    # because its Q0.999 value error varies widely from seed to seed: on 4M
    # its spread over ten seeds reached 0.22.
    "kernel-sliding": KernelConfig(WindowSpec(100_000, 1_000), 8_388_608, False, 95.0, 10),
    "kernel-fewk-burst": KernelConfig(WindowSpec(131_072, 4_096), 4_194_304, True, 95.0),
}


class TimedPolicy:
    """Delegates to an operator and times each ``observe_chunk`` call that
    emits an estimate."""

    def __init__(self, op: QloveOperator):
        self.op = op
        self.name, self.spec, self.phis = op.name, op.spec, op.phis
        self.latencies_ns: list[int] = []

    def observe_chunk(self, values):
        t0 = time.perf_counter_ns()
        out = self.op.observe_chunk(values)
        dt = time.perf_counter_ns() - t0
        if out:
            self.latencies_ns.append(dt)
        return out

    def space_observed(self) -> int:
        return self.op.space_observed()


def setup(cfg: KernelConfig, seed: int) -> tuple[np.ndarray, list[float], list[float]]:
    """Generate the stream and warm the operator up, ``SETUP_REPEATS`` times;
    each set-up's time and its host-speed factor."""
    times = []
    host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        stream = cfg.stream(seed)
        runner.run_policy(cfg.operator(), stream[: cfg.spec.size + 4 * cfg.spec.period])
        times.append(time.perf_counter() - t0)
        host.interval_done()
    return stream, times, host.factors


def reference(cfg: KernelConfig, stream: np.ndarray):
    """The kernel operator run over ``stream``: its estimates (what every
    Spark window must equal), mean space and the operator itself."""
    op = cfg.operator()
    res = runner.run_policy(op, stream)
    return res.estimates_matrix(PHIS), res.mean_space, op


def gate_first_pass(cfg: KernelConfig, stream: np.ndarray, est: np.ndarray) -> GateResult:
    """Plain-mean phis against an independent mean of exact per-sub-window
    quantiles of the quantized input; every phi must be finite."""
    ref = mean_of_subwindow_quantiles(
        quantize_sig(stream, SIG_DIGITS), cfg.spec.size, cfg.spec.period, PHIS
    )
    ref = ref[: cfg.spec.n_evaluations(len(stream))]
    return check_windows(matrix_windows(est, 0), ref, 0, compare=cfg.mean_phis())


def same_as_first(est: np.ndarray, first: np.ndarray) -> GateResult:
    """A repeated pass over the same stream must reproduce the first."""
    if np.array_equal(est, first):
        return GateResult(attempted=len(first))
    return check_windows(matrix_windows(est, 0), first, 0)


def accuracy(cfg: KernelConfig, stream: np.ndarray, est: np.ndarray) -> dict:
    """Value errors against the exact sliding reference, on every
    ``err_stride``-th window: the windows of the same size that slide by
    ``err_stride`` periods."""
    scored = WindowSpec(cfg.spec.size, cfg.spec.period * cfg.err_stride)
    exact = exact_sliding_quantiles(stream, scored, PHIS)
    return value_errors(est[:: cfg.err_stride][: len(exact)], exact, PHIS)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cfg = CONFIGS[name]
    stream, setup_times, setup_factors = setup(cfg, seed)
    if trace:
        return _traced(cfg, stream, seconds)

    gate = GateResult()
    pass_s, scaled_s, latencies_ms, raw_latencies_ms = [], [], [], []
    first_est = None
    deadline = time.perf_counter() + seconds
    with PeakRss(children=False) as rss:
        host = HostSpeed()
        while True:
            policy = TimedPolicy(cfg.operator())
            res = runner.run_policy(policy, stream)
            f = host.interval_done()
            est = res.estimates_matrix(PHIS)
            pass_s.append(res.elapsed_s)
            scaled_s.append(res.elapsed_s * f)
            lat = np.asarray(policy.latencies_ns) / 1e6
            raw_latencies_ms.append(lat)
            latencies_ms.append(lat * f)
            if first_est is None:
                first_est, first_res, first_op = est, res, policy.op
            else:
                gate.add(same_as_first(est, first_est))
            if time.perf_counter() >= deadline:
                break

    gate.add(gate_first_pass(cfg, stream, first_est))
    lat = latency_summary(np.concatenate(latencies_ms), cfg.tail_p)
    raw_lat = latency_summary(np.concatenate(raw_latencies_ms), cfg.tail_p)
    events = res.n_elements * len(pass_s)
    metrics = {
        # Events over time summed across passes, each pass's time scaled to
        # the reference host speed (common.HostSpeed); so are set-up times.
        "throughput_meps": events / sum(scaled_s) / 1e6,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        # run_policy hands over one chunk and waits for it: a closed loop.
        "backlog_max_batches": 1,
        **accuracy(cfg, stream, first_est),
        "space_vars": first_res.mean_space,
        "state_bytes": len(pickle.dumps(first_op)),
        "peak_rss_mb": rss.peak_mb,
        "setup_s": median(np.multiply(setup_times, setup_factors)),
    }
    return {
        "metrics": metrics,
        "gate": gate,
        "details": {
            "passes": len(pass_s),
            "pass_s": pass_s,
            "host_factor": host.factors,
            "unscaled": {
                "throughput_meps": events / sum(pass_s) / 1e6,
                "latency": raw_lat,
                "setup_s": median(setup_times),
            },
            "latency": lat,
            "setup_times_s": setup_times,
            "setup_host_factor": setup_factors,
        },
        "env": {
            "stream_events": len(stream),
            "window": cfg.spec.size,
            "period": cfg.spec.period,
            "phis": PHIS,
            "few_k": [b.__dict__ for b in (cfg.fewk() or FewKConfig()).budgets],
        },
    }


# --------------------------------------------------------------------- trace


def _after_finalize(tracer: Tracer, args, summary) -> None:
    builder = args[0]
    tracer.count("subwindows")
    tracer.count("unique", builder.last_unique)
    tracer.count(
        "cached",
        sum(len(v) for v in summary.top_k.values())
        + sum(len(v) for v in summary.sample_k.values()),
    )


def _after_burst(tracer: Tracer, args, flagged) -> None:
    tracer.count("flagged", bool(flagged))


def _after_window_result(tracer: Tracer, args, result) -> None:
    tracer.count("answers", len(result))


def _counter(key: str):
    def after(tracer: Tracer, args, result) -> None:
        tracer.count(key)

    return after


KERNEL_SHIMS = {
    "repro.streams.runner:run_policy": "streams.runner.run_policy",
    "repro.core.qlove:QloveOperator.observe_chunk": "core.qlove.observe_chunk",
    "repro.core.subwindow:SubWindowBuilder.accumulate_chunk": "core.subwindow.accumulate_chunk",
    "repro.core.compression:quantize_sig": "core.compression.quantize_sig",
    "repro.core.subwindow:SubWindowBuilder.finalize": ("core.subwindow.finalize", _after_finalize),
    "repro.core.quantile:exact_quantiles_freq": "core.quantile.exact_quantiles_freq",
    "repro.core.fewk:interval_sample": "core.fewk.interval_sample",
    "repro.core.burst:BurstDetector.observe": ("core.burst.observe", _after_burst),
    "repro.core.qlove:window_result": ("core.qlove.window_result", _after_window_result),
    "repro.core.fewk:samplek_merge": ("core.fewk.samplek_merge", _counter("samplek")),
    "repro.core.fewk:topk_merge": ("core.fewk.topk_merge", _counter("topk")),
}


def _timed_pass(cfg: KernelConfig, stream: np.ndarray) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    res = runner.run_policy(cfg.operator(), stream)
    return time.perf_counter() - t0, res.estimates_matrix(PHIS)


def _traced(cfg: KernelConfig, stream: np.ndarray, seconds: float) -> dict:
    """Half the time untraced, half traced: per-layer self times and counts
    per pass, and the tracing overhead as the ratio of the pass times (each
    scaled to the reference host speed). Every pass is gated, so the shims
    are shown not to change any estimate."""
    tracer = Tracer()
    host = HostSpeed()
    plain, traced = [], []
    half = time.perf_counter() + seconds / 2
    while not plain or time.perf_counter() < half:
        dt, est = _timed_pass(cfg, stream)
        dt *= host.interval_done()
        if not plain:
            first_est = est
            gate = gate_first_pass(cfg, stream, est)
        else:
            gate.add(same_as_first(est, first_est))
        plain.append(dt)
    deadline = time.perf_counter() + seconds / 2
    with Shims(tracer, KERNEL_SHIMS):
        while not traced or time.perf_counter() < deadline:
            dt, est = _timed_pass(cfg, stream)
            dt *= host.interval_done()
            gate.add(same_as_first(est, first_est))
            traced.append(dt)
    passes = len(traced)
    c = tracer.counts
    subs = max(c["subwindows"], 1)
    span_names = [v if isinstance(v, str) else v[0] for v in KERNEL_SHIMS.values()]
    per_layer = {f"{n}.self_ms": tracer.self_ms(n) / passes for n in span_names}
    per_layer.update(
        {
            "core.subwindow.subwindows": c["subwindows"] / passes,
            "core.subwindow.unique_per_subwindow": c["unique"] / subs,
            "core.fewk.cached_values_per_subwindow": c["cached"] / subs,
            "core.burst.flagged": c["flagged"] / passes,
            "core.qlove.answers.topk": c["topk"] / passes,
            "core.qlove.answers.samplek": c["samplek"] / passes,
            "core.qlove.answers.mean": (c["answers"] - c["topk"] - c["samplek"]) / passes,
            "trace.overhead_pct": (median(traced) / median(plain) - 1.0) * 100.0,
            "trace.spans": tracer.n_spans / passes,
        }
    )
    return {
        "per_layer": per_layer,
        "gate": gate,
        "details": {"untraced_pass_s": plain, "traced_pass_s": traced},
        "spans": tracer.spans,
        "env": {"stream_events": len(stream), "window": cfg.spec.size, "period": cfg.spec.period},
    }
