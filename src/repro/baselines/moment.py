"""Moment sketch: mergeable moment-based quantile summaries.

The paper's baseline (5): "an algorithm using mergeable moment-based
quantile sketches to predict the original data distribution from moment
statistics summary" (Gan et al.'s moments sketch). Each sub-window stores
``{count, min, max, power sums of ln(x)^i for i=1..K}`` — the log-moment
variant the moments-sketch authors recommend for skewed, positive-valued
data such as latencies. Summaries merge by element-wise addition (and
min/max), so sliding-window expiry is summary-granular like QLOVE's.

Quantile estimation follows the moments-sketch recipe: scale ln(x) to
[-1, 1], convert power moments to Chebyshev moments, fit the
maximum-entropy density ``f(y) = exp(sum_j lambda_j T_j(y))`` by damped
Newton iteration on Gauss-Legendre quadrature, then invert the CDF on a
grid. When Newton fails to converge (ill-conditioned moments), it falls
back to a two-moment lognormal fit — the same distribution-model family,
with the number of fallbacks tracked in :attr:`MomentPolicy.n_fallbacks`.

No rank-error bound exists for this sketch: its error is model error,
which the paper's Table 1 shows concentrating at extreme quantiles.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["MomentSketch", "MomentPolicy", "inv_norm_cdf"]


def inv_norm_cdf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation,
    |relative error| < 1.15e-9; scipy is unavailable in this container)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"need 0 < p < 1, got {p}")
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


@dataclass
class MomentSketch:
    """Mergeable log-moment summary of a positive-valued population.

    Power sums are stored for the *centered* log values ``ln(x) - center``.
    An uncentered sum of ``ln(x)^12`` loses ~12 significant digits to
    cancellation when converted to the scaled moments the maxent solver
    needs (the moments-sketch authors flag the same precision hazard);
    centering near the data's log-mean keeps the conversion well
    conditioned. All sketches that will be merged must share ``center`` —
    the policy below fixes it from its first sub-window.
    """

    k: int
    count: int
    z_min: float
    z_max: float
    center: float
    power_sums: np.ndarray  # power_sums[i] = sum of (ln(x) - center)^(i+1)

    @staticmethod
    def from_values(values: np.ndarray, k: int, *, center: float | None = None) -> "MomentSketch":
        z = np.log(np.maximum(np.asarray(values, dtype=np.float64), 1e-12))
        if center is None:
            center = float(z.mean())
        zc = z - center
        sums = np.array([(zc**i).sum() for i in range(1, k + 1)])
        return MomentSketch(
            k=k,
            count=len(z),
            z_min=float(z.min()),
            z_max=float(z.max()),
            center=center,
            power_sums=sums,
        )

    @staticmethod
    def merge(parts: "list[MomentSketch]") -> "MomentSketch":
        if not parts:
            raise ValueError("merge needs at least one sketch")
        k = parts[0].k
        center = parts[0].center
        if any(p.center != center for p in parts):
            raise ValueError("cannot merge sketches with different centers")
        return MomentSketch(
            k=k,
            count=sum(p.count for p in parts),
            z_min=min(p.z_min for p in parts),
            z_max=max(p.z_max for p in parts),
            center=center,
            power_sums=np.sum([p.power_sums for p in parts], axis=0),
        )

    @property
    def size(self) -> int:
        """Stored-variable count: count + min + max + k power sums."""
        return 3 + self.k

    # ---------------- estimation ---------------- #
    def _scaled_power_moments(self) -> np.ndarray:
        """E[y^j], j=0..k, for y = (2 ln(x) - (a+b)) / (b - a) in [-1, 1].

        With centered sums, ``y = alpha * zc + beta'`` where ``zc = ln(x) -
        center`` and ``beta' = alpha * center - (a+b)/(b-a)`` has magnitude
        at most ~1, so the binomial expansion stays well conditioned.
        """
        a, b = self.z_min, self.z_max
        if b - a < 1e-12:
            return np.array([1.0] + [0.0] * self.k)
        alpha = 2.0 / (b - a)
        beta = alpha * self.center - (a + b) / (b - a)
        mu = np.concatenate([[1.0], self.power_sums / self.count])  # E[zc^i]
        out = np.empty(self.k + 1)
        for j in range(self.k + 1):
            out[j] = math.fsum(
                math.comb(j, i) * alpha**i * beta ** (j - i) * mu[i] for i in range(j + 1)
            )
        return out

    def _chebyshev_moments(self) -> np.ndarray:
        """E[T_j(y)], j=0..k, from the scaled power moments."""
        power = self._scaled_power_moments()
        cheb = np.empty(self.k + 1)
        for j in range(self.k + 1):
            unit = np.zeros(j + 1)
            unit[j] = 1.0
            coeffs = np.polynomial.chebyshev.cheb2poly(unit)  # T_j in power basis
            cheb[j] = float(np.dot(coeffs, power[: len(coeffs)]))
        return cheb

    def _maxent_lambda(self, n_quad: int = 64, max_iter: int = 60) -> np.ndarray | None:
        """Damped Newton solve of the maxent moment-matching problem."""
        target = self._chebyshev_moments()
        nodes, quad_w = np.polynomial.legendre.leggauss(n_quad)
        # T[j, q] = T_j(node_q)
        T = np.array(
            [np.polynomial.chebyshev.chebval(nodes, np.eye(self.k + 1)[j]) for j in range(self.k + 1)]
        )
        lam = np.zeros(self.k + 1)
        lam[0] = -math.log(2.0)  # start at the uniform density on [-1, 1]
        for _ in range(max_iter):
            expo = lam @ T
            m = float(expo.max())
            expo -= m
            f = np.exp(expo)
            z = float(quad_w @ f)
            f_norm = f / z  # density up to normalization of T_0 term
            moments = T @ (quad_w * f_norm)
            grad = moments - target
            if np.abs(grad).max() < 1e-9:
                # Normalization is re-applied at evaluation time (the CDF is
                # renormalized on the grid), so lam can be returned as-is.
                return lam
            H = (T * (quad_w * f_norm)) @ T.T - np.outer(moments, moments)
            try:
                step = np.linalg.solve(H + 1e-10 * np.eye(self.k + 1), grad)
            except np.linalg.LinAlgError:
                return None
            # Backtracking line search on the dual objective
            # log(integral of exp(lam . T)) - lam . target.
            t = 1.0
            base = math.log(z) + m - lam @ target
            improved = False
            for _ in range(30):
                cand = lam - t * step
                e2 = cand @ T
                m2 = e2.max()
                z2 = float(quad_w @ np.exp(e2 - m2))
                obj = math.log(z2) + m2 - cand @ target
                if obj < base - 1e-14:
                    lam = cand
                    improved = True
                    break
                t *= 0.5
            if not improved:
                return None
        return None

    def quantiles(self, phis: Sequence[float], n_grid: int = 2048) -> tuple[np.ndarray, bool]:
        """Estimate phi-quantiles of x. Returns (values, used_fallback)."""
        a, b = self.z_min, self.z_max
        if b - a < 1e-12:
            return np.full(len(phis), math.exp(a)), False
        lam = self._maxent_lambda()
        if lam is not None:
            y = np.linspace(-1.0, 1.0, n_grid)
            T = np.array(
                [np.polynomial.chebyshev.chebval(y, np.eye(self.k + 1)[j]) for j in range(self.k + 1)]
            )
            expo = lam @ T
            expo -= expo.max()
            f = np.exp(expo)
            weights = np.full(n_grid, 2.0 / (n_grid - 1))
            weights[[0, -1]] /= 2.0  # trapezoid
            z_grid = float((weights * f).sum())
            # Validate on the evaluation grid: a solution that only
            # "converged" on the coarse quadrature (e.g. a boundary spike
            # the 64 Gauss nodes cannot resolve) reveals itself here —
            # fall back to the lognormal fit instead of returning garbage.
            grid_moments = T @ (weights * f / z_grid)
            if np.abs(grid_moments - self._chebyshev_moments()).max() > 1e-3:
                lam = None
            else:
                cdf = np.cumsum((f[1:] + f[:-1]) / 2.0)
                cdf = np.concatenate([[0.0], cdf])
                cdf /= cdf[-1]
                ys = np.interp(np.asarray(phis), cdf, y)
                zs = (ys + 1.0) / 2.0 * (b - a) + a
                return np.exp(zs), False
        # Fallback: lognormal from the first two log-moments.
        mu = self.center + self.power_sums[0] / self.count
        var = max(
            self.power_sums[1] / self.count - (self.power_sums[0] / self.count) ** 2,
            1e-18,
        )
        sd = math.sqrt(var)
        zs = np.array([mu + sd * inv_norm_cdf(min(max(p, 1e-12), 1 - 1e-12)) for p in phis])
        zs = np.clip(zs, a, b)
        return np.exp(zs), True


class MomentPolicy:
    """Sliding-window quantiles from merged per-sub-window moment sketches."""

    name = "Moment"

    def __init__(self, spec: WindowSpec, phis: Sequence[float], *, k: int = 12):
        self.spec = spec
        self.phis = tuple(phis)
        self.k = k
        self._sketches: deque[MomentSketch] = deque(maxlen=spec.n_subwindows)
        self._cut = PeriodBuffer(spec.period)
        self._center: float | None = None  # fixed from the first sub-window
        self.n_fallbacks = 0
        self.n_queries = 0

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, values: np.ndarray) -> dict[float, float] | None:
        if self._center is None:
            self._center = float(np.log(np.maximum(values, 1e-12)).mean())
        self._sketches.append(MomentSketch.from_values(values, self.k, center=self._center))
        if len(self._sketches) < self.spec.n_subwindows:
            return None
        merged = MomentSketch.merge(list(self._sketches))
        q, fb = merged.quantiles(self.phis)
        self.n_queries += 1
        self.n_fallbacks += int(fb)
        return dict(zip(self.phis, q.tolist()))

    def space_observed(self) -> int:
        return sum(s.size for s in self._sketches)

    def space_analytical(self) -> int:
        return self.spec.n_subwindows * (3 + self.k)
