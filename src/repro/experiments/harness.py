"""Shared experiment harness (Section 5.1's metrics over any policy).

Runs policies over a stream with the Trill-substitute runner, computes the
paper's three metrics against the exact sliding reference:

  - average relative value error (%)  —  mean of |a_i - b_i| / b_i * 100
  - average rank error e'             —  mean of |r - r'_i| / N
  - space (observed mean of stored variables; analytical where defined)

plus single-thread throughput in million events/second. When a
SparkSession is passed, QLOVE's estimates are additionally produced by the
distributed DataFrame pipeline and asserted equal to the kernel's to 1e-9
relative — the error tables then report numbers that hold for both
execution layers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.quantile import rank_error, value_error
from repro.experiments.exact_ref import exact_sliding_quantiles, sorted_windows
from repro.streams.runner import RunResult, run_policy
from repro.streams.windows import WindowSpec

__all__ = ["PolicyReport", "evaluate", "run_and_evaluate", "default_n_events"]


def default_n_events(fallback: int = 2_000_000) -> int:
    """Stream length for experiment tables. The paper streams 10M (real
    datasets); default here is 2M for container-scale runtimes — override
    with the ``REPRO_N`` environment variable."""
    return int(os.environ.get("REPRO_N", fallback))


@dataclass
class PolicyReport:
    """One policy's metrics over one stream/window configuration."""

    policy: str
    spec: WindowSpec
    value_err_pct: dict[float, float]
    rank_err: dict[float, float]
    space_observed: float
    space_analytical: int | None
    throughput_meps: float
    n_evaluations: int

    def row(self, phis: Sequence[float]) -> dict:
        out: dict = {"policy": self.policy}
        for p in phis:
            out[f"rank_err@{p}"] = round(self.rank_err[p], 4)
        for p in phis:
            out[f"value_err%@{p}"] = round(self.value_err_pct[p], 2)
        out["space_analytical"] = self.space_analytical
        out["space_observed"] = round(self.space_observed)
        out["throughput_Mev/s"] = round(self.throughput_meps, 2)
        return out


def evaluate(
    result: RunResult,
    stream: np.ndarray,
    phis: Sequence[float],
    *,
    exact: np.ndarray | None = None,
    with_rank_error: bool = True,
    space_analytical: int | None = None,
) -> PolicyReport:
    """Score one runner result against the exact sliding reference."""
    phis = tuple(phis)
    spec = result.spec
    est = result.estimates_matrix(phis)
    if exact is None:
        exact = exact_sliding_quantiles(stream, spec, phis)
    if est.shape != exact.shape:
        raise ValueError(f"estimates {est.shape} vs exact {exact.shape}")
    v_err = {
        p: float(
            np.mean([value_error(est[e, i], exact[e, i]) for e in range(len(est))])
        )
        * 100.0
        for i, p in enumerate(phis)
    }
    r_err: dict[float, float] = {p: float("nan") for p in phis}
    if with_rank_error:
        sums = np.zeros(len(phis))
        count = 0
        for e, window in enumerate(sorted_windows(stream, spec)):
            for i, p in enumerate(phis):
                sums[i] += rank_error(est[e, i], window, p)
            count += 1
        r_err = {p: float(sums[i] / count) for i, p in enumerate(phis)}
    return PolicyReport(
        policy=result.policy,
        spec=spec,
        value_err_pct=v_err,
        rank_err=r_err,
        space_observed=result.mean_space,
        space_analytical=space_analytical,
        throughput_meps=result.throughput_eps / 1e6,
        n_evaluations=len(result.evaluations),
    )


def run_and_evaluate(
    policy,
    stream: np.ndarray,
    phis: Sequence[float],
    *,
    exact: np.ndarray | None = None,
    with_rank_error: bool = True,
    spark=None,
) -> PolicyReport:
    """run_policy + evaluate, optionally cross-checking QLOVE on Spark.

    With ``spark`` set and a QLOVE policy, the same stream is pushed
    through :func:`repro.sparklayer.qlove_spark.qlove_estimates` and the
    two execution layers are asserted to agree to 1e-9 relative — the
    table then certifies the distributed dataflow, not just the kernel.
    """
    result = run_policy(policy, stream)
    if spark is not None and hasattr(policy, "fewk"):
        from repro.sparklayer.qlove_spark import qlove_estimates
        from repro.synth_data import telemetry_events

        events = telemetry_events(spark, stream)
        rows = (
            qlove_estimates(
                spark,
                events,
                policy.spec,
                policy.phis,
                sig_digits=policy._builder.sig_digits,
                fewk=policy.fewk,
            )
            .orderBy("w")
            .collect()
        )
        kernel = result.estimates_matrix(policy.phis)
        spark_est = np.array([r.estimates for r in rows])
        if spark_est.shape != kernel.shape:
            raise AssertionError(
                f"Spark produced {spark_est.shape} windows, kernel {kernel.shape}"
            )
        np.testing.assert_allclose(spark_est, kernel, rtol=1e-9)
    analytical = (
        policy.space_analytical() if hasattr(policy, "space_analytical") else None
    )
    return evaluate(
        result,
        stream,
        phis,
        exact=exact,
        with_rank_error=with_rank_error,
        space_analytical=analytical,
    )
