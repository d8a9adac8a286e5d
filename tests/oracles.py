"""Slow, independent reference computations used only by the tests.

* `gegenbauer_block_sum` is the direct O(N^2 * t) pairwise criterion: it
  forms every inner product x_i . x_l in blocks and sums the ambient sphere's
  zonal polynomials over them by their three-term recurrence, in float64.
  It shares no code with `designforge.verify`, so it is the small-N oracle
  for `verify_gegenbauer`.
* `moment_deviations_direct` is the per-monomial loop the verifier's table
  walk replaced: each monomial copies x_0^a_0 and multiplies in every other
  nonzero power, left to right.  The walk forms the same products, so the
  two must agree bit for bit.
* `mc_moment_oracle` is deliberately dumb (normalized Gaussian sampling) and
  exists to cross-check the closed-form moments, not to certify designs.
"""
from __future__ import annotations

import math

import numpy as np

from designforge import MultiIndex, VerificationReport, iter_multi_indices, sphere_monomial_moment


def _zonal_value_at_one(k: int, dim: int) -> float:
    # C_k^lambda(1) with lambda = (dim-2)/2; equals 1 for dim = 2 (Chebyshev)
    if dim == 2:
        return 1.0
    return float(math.comb(k + dim - 3, k))


def gegenbauer_block_sum(design, t: int, tol: float) -> VerificationReport:
    """Pairwise zonal-polynomial sums, normalized by N^2 and the value at 1."""
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    dim = design.ambient_dim
    if dim < 2:
        raise ValueError("pairwise criterion needs ambient dimension >= 2")
    pts = np.asarray(design.points, dtype=np.float64)
    count = pts.shape[0]
    lam = (dim - 2) / 2.0

    sums = np.zeros(t + 1)
    block = max(1, min(count, 2**22 // max(count, 1)))
    for start in range(0, count, block):
        x = pts[start : start + block] @ pts.T
        prev = np.ones_like(x)
        if t >= 1:
            cur = x.copy() if dim == 2 else 2.0 * lam * x
        sums[0] += prev.sum()
        for k in range(1, t + 1):
            sums[k] += cur.sum()
            if k < t:
                if dim == 2:
                    nxt = 2.0 * x * cur - prev
                else:
                    nxt = (2.0 * (k + lam) * x * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
                prev, cur = cur, nxt

    worst = -1.0
    worst_k = None
    for k in range(1, t + 1):
        residual = float(abs(sums[k])) / (count**2 * _zonal_value_at_one(k, dim))
        if residual > worst:
            worst = residual
            worst_k = k
    if t == 0:
        worst = 0.0
    return VerificationReport(
        method="gegenbauer",
        degree_checked=t,
        max_abs_residual=worst,
        passed=worst <= tol,
        tolerance=tol,
        worst_degree=worst_k,
    )


def moment_deviations_direct(design, t: int) -> list[tuple[MultiIndex, np.longdouble]]:
    """(alpha, mean of x^alpha minus its sphere moment), one monomial at a time."""
    pts = np.asarray(design.points, dtype=np.longdouble)
    count, dim = pts.shape
    ones = np.ones(count, dtype=np.longdouble)
    powers = [[ones] for _ in range(dim)]
    for c in range(dim):
        for e in range(1, t + 1):
            powers[c].append(powers[c][e - 1] * pts[:, c])

    out = []
    for alpha in iter_multi_indices(dim, t):
        values = powers[0][alpha[0]].copy()
        for c in range(1, dim):
            if alpha[c]:
                values *= powers[c][alpha[c]]
        mu = sphere_monomial_moment(dim, alpha)
        average = values.sum() / count
        out.append((alpha, average - np.longdouble(mu.numerator) / np.longdouble(mu.denominator)))
    return out


def mc_moment_oracle(
    dim: int, alpha: MultiIndex, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of a sphere monomial moment, with standard error.

    Uniform sphere points are normalized Gaussian vectors; deterministic for
    a fixed seed.  Returns (estimate, standard_error).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if len(alpha) != dim:
        raise ValueError(f"multi-index has {len(alpha)} entries, expected {dim}")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    chunk = 1_000_000
    while remaining > 0:
        size = min(chunk, remaining)
        g = rng.standard_normal((size, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        values = np.ones(size)
        for c, e in enumerate(alpha):
            if e:
                values *= g[:, c] ** e
        total += float(values.sum())
        total_sq += float((values**2).sum())
        remaining -= size
    mean = total / samples
    if samples == 1:
        return mean, math.inf
    variance = max(total_sq / samples - mean**2, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(variance / samples)
