"""Single-threaded stream runner over incremental quantile operators.

This is the Trill substitute (DESIGN.md section 2): it feeds a finite numpy
stream through a policy in sub-window-sized chunks, collecting every
full-window evaluation and the policy's observed space at each evaluation.
All policies (QLOVE and the baselines) expose the same protocol:

  - ``observe_chunk(values) -> list[{phi: estimate}]`` — accumulate a batch;
    return one result dict per period boundary crossed with a full window.
  - ``space_observed() -> int`` — stored-variable count right now.

Chunk size is the window period, matching the evaluation cadence of the
paper's queries. Each policy cuts its input into periods with one
:class:`~repro.streams.windows.PeriodBuffer`, so it accepts chunks of any
length with the same results.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.streams.windows import WindowSpec

__all__ = ["QuantilePolicy", "Evaluation", "RunResult", "run_policy"]


class QuantilePolicy(Protocol):
    """Protocol every sliding-window quantile policy implements."""

    name: str
    spec: WindowSpec
    phis: tuple[float, ...]

    def observe_chunk(self, values: np.ndarray) -> "list[dict[float, float]]": ...

    def space_observed(self) -> int: ...


@dataclass(frozen=True)
class Evaluation:
    """One query evaluation: estimates per phi + observed space."""

    index: int
    estimates: dict[float, float]
    space: int


@dataclass
class RunResult:
    """All evaluations of one policy over one stream, plus wall time."""

    policy: str
    spec: WindowSpec
    evaluations: list[Evaluation] = field(default_factory=list)
    elapsed_s: float = 0.0
    n_elements: int = 0

    @property
    def throughput_eps(self) -> float:
        """Elements per second processed (single-threaded)."""
        return self.n_elements / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def estimates_matrix(self, phis: Sequence[float]) -> np.ndarray:
        """(n_evaluations, n_phis) matrix of estimates."""
        return np.array(
            [[e.estimates[p] for p in phis] for e in self.evaluations],
            dtype=np.float64,
        )

    @property
    def mean_space(self) -> float:
        return float(np.mean([e.space for e in self.evaluations])) if self.evaluations else 0.0


def run_policy(policy: QuantilePolicy, stream: np.ndarray) -> RunResult:
    """Feed ``stream`` through ``policy`` in period-sized chunks.

    Trailing elements that do not complete a period are dropped (no query
    evaluation would see them), mirroring the paper's count-based windows.
    """
    spec = policy.spec
    stream = np.asarray(stream, dtype=np.float64)
    n_chunks = len(stream) // spec.period
    result = RunResult(policy=policy.name, spec=spec, n_elements=n_chunks * spec.period)
    t0 = time.perf_counter()
    eval_index = 0
    for c in range(n_chunks):
        chunk = stream[c * spec.period : (c + 1) * spec.period]
        for estimates in policy.observe_chunk(chunk):
            result.evaluations.append(
                Evaluation(index=eval_index, estimates=estimates, space=policy.space_observed())
            )
            eval_index += 1
    result.elapsed_s = time.perf_counter() - t0
    expected = spec.n_evaluations(result.n_elements)
    if len(result.evaluations) != expected:
        raise RuntimeError(
            f"{policy.name}: produced {len(result.evaluations)} evaluations, "
            f"expected {expected} for stream of {result.n_elements} with {spec}"
        )
    return result
