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
* `orthonormal_values_direct` is the per-row recurrence loop that the
  stacked kernel `jacobi.orthonormal_values` replaced.  Both do the same
  arithmetic in the same order, so they must agree bit for bit.
* `product_points_repeat_tile` forms a product's points from full copies of
  the factors, `np.repeat` of X and `np.tile` of Y, scaled one node at a
  time.  `construct.product` broadcasts the factors instead; each
  coordinate is the same single product, so the two must agree bit for bit.
* `rule_text_encoded` is the rule writer that `formats.rule_text`'s template
  replaced: json's encoder, indent=2, over the rule's field dict, each float
  field in 17g and hex text by `encode_floats`.  The two must write the same
  bytes.
* `same_bits` compares floating-point arrays by value and sign bit.
  `tobytes()` will not do for long doubles: on x86-64 each 80-bit value is
  stored in 16 bytes, and the 6 padding bytes are not initialised, so two
  equal arrays can print different bytes.
* `sin_cos_integral` is the integral of sin^a cos^b from 0 by the classical
  reduction formulas, in mpmath.  With u = sin^2 it is an unnormalized
  incomplete Beta function of half-integer parameters, so it checks the
  quantile start, which reads its levels off a table of the weight instead.
* `per_value_text` formats every value on its own, by "{:.17g}".format or
  float.hex.  `formats.float_text` formats each distinct bit pattern once
  and must give the same text.
* `power_moment` is the normalized moment of t^d against a Jacobi weight,
  expanded exactly from `jacobi_moment_ratio` by the binomial theorem; the
  Gauss-rule tests compare against it.
* `mc_moment_oracle` is deliberately dumb (normalized Gaussian sampling) and
  exists to cross-check the closed-form moments, not to certify designs.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from designforge import JacobiWeight, MultiIndex, VerificationReport, iter_multi_indices, jacobi_moment_ratio, sphere_monomial_moment
from designforge.construct import _scales_of
from designforge.formats import dump_json, float_text
from designforge.jacobi import _coefficients


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


def product_points_repeat_tile(X, Y, T) -> np.ndarray:
    """Node k's block of rows is (s_k * x_i, c_k * y_j) for every i, then j."""
    xs = np.repeat(X.points, Y.count, axis=0)
    ys = np.tile(Y.points, (X.count, 1))
    return np.vstack([np.hstack([s * xs, c * ys]) for s, c in _scales_of(T)])


def encode_floats(field: str, values) -> dict:
    """`values` in 17g text under `field` and in hex under field + "_hex"; both lists nest like the array."""
    return {field: float_text(values).tolist(), field + "_hex": float_text(values, exact=True).tolist()}


def rule_text_encoded(q) -> str:
    """A rule file, by json's encoder over the rule's fields."""
    return dump_json({
        "m": q.weight.m,
        "n": q.weight.n,
        "degree": q.degree,
        "K": q.K,
        **encode_floats("nodes", q.nodes),
        "max_abs_residual": float(q.max_abs_residual),
        "certified": bool(q.certified),
    })


def same_bits(a, b) -> bool:
    """True when a and b have one dtype and shape and equal values with equal
    sign bits (so -0.0 differs from 0.0), NaN matching NaN.

    For an x86-64 long double this fixes all 80 significant bits of every
    finite value without reading the padding bytes.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def orthonormal_values_direct(w, max_degree, x, dtype=np.float64, with_derivative=False):
    """P_0..P_max_degree (and their derivatives) at x, one row per recurrence step."""
    x = np.asarray(x, dtype=dtype)
    a, sqrt_b = _coefficients(w, max_degree + 1, dtype)

    p = np.zeros((max_degree + 1, x.size), dtype=dtype)
    p[0] = 1
    dp = np.zeros_like(p) if with_derivative else None
    prev = np.zeros_like(x)
    prev_d = np.zeros_like(x)
    for k in range(max_degree):
        nxt = ((x - a[k]) * p[k] - (sqrt_b[k] * prev if k > 0 else 0)) / sqrt_b[k + 1]
        if with_derivative:
            nxt_d = (p[k] + (x - a[k]) * dp[k] - (sqrt_b[k] * prev_d if k > 0 else 0)) / sqrt_b[k + 1]
            prev_d = dp[k]
            dp[k + 1] = nxt_d
        prev = p[k]
        p[k + 1] = nxt
    if with_derivative:
        return p, dp
    return p


def sin_cos_integral(a: int, b: int, s, c):
    """The integral of sin^a cos^b over [0, phi], where sin(phi) = s and cos(phi) = c
    are mpmath numbers, in the working precision.

    The base cases a, b in {0, 1} are phi, sin, 1 - cos and sin^2 / 2; each
    step raises a power by 2: (k + b) J(k, b) = (k - 1) J(k - 2, b) - s^(k-1) c^(b+1),
    then (a + k) J(a, k) = (k - 1) J(a, k - 2) + s^(a+1) c^(k-1).
    """
    J = [[mp.asin(s), s], [1 - c, s * s / 2]][a % 2][b % 2]
    for k in range(a % 2 + 2, a + 1, 2):
        J = ((k - 1) * J - s ** (k - 1) * c ** (b % 2 + 1)) / (k + b % 2)
    for k in range(b % 2 + 2, b + 1, 2):
        J = ((k - 1) * J + s ** (a + 1) * c ** (k - 1)) / (a + k)
    return J


def per_value_text(values, exact: bool = False):
    """Each value as float64 in 17g text, or in hex if exact, nested like the array."""
    fmt = float.hex if exact else "{:.17g}".format

    def each(v):
        return [each(x) for x in v] if isinstance(v, list) else fmt(v)

    return each(np.asarray(values).astype(np.float64).tolist())


def power_moment(w: JacobiWeight, d: int) -> Fraction:
    """Normalized power moment mu_d = integral of t^d w(t) dt / integral of w(t) dt.

    Obtained from jacobi_moment_ratio via t = 2*(1+t)/2 - 1 and the binomial
    theorem; mu_0 = 1 always.
    """
    if d < 0:
        raise ValueError(f"power must be non-negative, got {d}")
    out = Fraction(0)
    for j in range(d + 1):
        sign = -1 if (d - j) % 2 else 1
        out += sign * math.comb(d, j) * Fraction(2) ** j * jacobi_moment_ratio(w, 0, j)
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
