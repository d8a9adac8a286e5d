"""Certification of the design property against exact moments.

Both criteria read one table.  For every monomial x^alpha of total degree
<= t it holds the deviation

    delta_alpha = (1/N) sum_i x_i^alpha - mu_alpha

of the point average from the exact rational sphere moment mu_alpha.
Averages are accumulated in extended precision with pairwise reduction, so
each deviation is exact to well under one double ulp.

The table is filled by a depth-first walk over the coordinates of N points in
R^d.  The product x_0^a_0 ... x_c^a_c is formed once and shared by every
monomial with that prefix, so each monomial costs one elementwise multiply
and one sum over N extended-precision numbers: O(N * C(d+t, t)) time.  The
products are formed left to right, skipping zero exponents, exactly as a
monomial-at-a-time loop would, so the deviations do not depend on the walk.
Memory is about ((d-2)*t + d + 1)*N extended-precision numbers: stored
powers x_c^e (e <= t) for c >= 2, one product buffer per level, and two
buffers in which the powers of x_0 and x_1 are formed as the walk reaches
them.  The walk is a module-level function: a nested function that calls
itself is a reference cycle through its closure, which would keep the
buffers alive after the table is built until the cyclic garbage collector
ran.

* `verify_monomials` reports the largest |delta_alpha|.
* `verify_gegenbauer` reports, for k = 1..t, the pairwise sum of the ambient
  sphere's degree-k zonal polynomial C_k (Gegenbauer, parameter (d-2)/2;
  Chebyshev for d = 2), normalized by N^2 and by C_k(1) so residuals are
  comparable across degrees.  By the addition theorem each sum is a sum of
  squares, so it vanishes exactly when the point set averages all degree-k
  harmonics to zero (Delsarte, Goethals and Seidel, 1977).
* `verify_design` builds the table once and returns the monomial report,
  then the pairwise one when d >= 2; `build` certifies every node with it.
  The pairwise residual is quadratic in the deviations, so on its own it
  passes averages that are off by about the square root of its tolerance.

The pairwise sum is read off the table instead of the N^2 inner products.
For unit vectors (x.y)^j = sum_{|alpha|=j} (j!/alpha!) x^alpha y^alpha, so
with C_k(s) = sum_j c_{k,j} s^j

    (1/N^2) sum_{i,l} C_k(x_i.x_l) = sum_j c_{k,j} sum_{|alpha|=j} (j!/alpha!) delta_alpha^2.

Writing each average as mu_alpha + delta_alpha gives two more terms, and
both vanish for k >= 1: the mu.mu term is the double sphere integral of
C_k(x.y), and the mu.delta term is the point average of the sphere integral
of C_k(x_i.y) over y.  A zonal harmonic of degree k >= 1 integrates to zero
over the sphere when |x_i| = 1, and `Design` holds every point to unit norm
within 1e-12.  Dropping those terms is what keeps the rounding floor at the
size of delta^2.  Summing squared averages instead cancels terms as large as
|c_{k,j}|, and that floor reaches 1e-9 on the 33-gon at degree 32.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import MultiIndex, iter_multi_indices, sphere_monomial_moment


@dataclass
class VerificationReport:
    method: str
    degree_checked: int
    max_abs_residual: float
    passed: bool
    tolerance: float
    worst_monomial: MultiIndex | None = None
    worst_degree: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "degree_checked": self.degree_checked,
            "max_abs_residual": self.max_abs_residual,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }
        if self.worst_monomial is not None:
            out["worst_monomial"] = list(self.worst_monomial.exponents)
        if self.worst_degree is not None:
            out["worst_degree"] = self.worst_degree
        return out


def _fraction_to_longdouble(f) -> np.longdouble:
    return np.longdouble(f.numerator) / np.longdouble(f.denominator)


# Powers of the first coordinates are formed by a running product as the walk
# reaches them instead of being stored: x_0 is reached once and x_1 once per
# exponent of x_0, so streaming them costs O(t^2) products and saves 2t columns.
_STREAMED = 2


def _powers(column, top: int, stored, buffer):
    """None for x^0, then x^e for e = 1..top.

    Read from `stored` (stored[e-1] = x^e), or formed in `buffer` by the same
    running product x^e = x^(e-1) * x that fills the stored table.
    """
    yield None
    if stored is not None:
        yield from stored[:top]
        return
    for e in range(1, top + 1):
        if e == 1:
            np.copyto(buffer, column)
        else:
            np.multiply(buffer, column, out=buffer)
        yield buffer


def _walk(pts, tables, scratch, c: int, budget: int, prefix, head: tuple, sums: dict) -> None:
    """Sum x^alpha over the points for every alpha that extends `head`, the
    exponents of coordinates < c, by at most `budget` more degrees.

    `prefix` is the product, left to right, of the factors x_b^alpha_b with
    b < c and alpha_b > 0, or None when there are none.  Level c writes its
    products into scratch[c], which deeper levels never touch.
    """
    last = c == pts.shape[1] - 1
    product, running = scratch[c]
    for e, power in enumerate(_powers(pts[:, c], budget, tables[c], running)):
        if power is None:
            value = prefix
        elif prefix is None:
            value = power
        else:
            value = np.multiply(prefix, power, out=product)
        exponents = head + (e,)
        if not last:
            _walk(pts, tables, scratch, c + 1, budget - e, value, exponents, sums)
        elif value is None:  # x^0: a sum of N ones, which is exact
            sums[exponents] = np.longdouble(pts.shape[0])
        else:
            sums[exponents] = value.sum()


def _moment_deviations(design, t: int) -> list[tuple[MultiIndex, np.longdouble]]:
    """(alpha, mean of x^alpha over the points minus its sphere moment), |alpha| <= t."""
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    pts = np.asarray(design.points, dtype=np.longdouble)
    count, dim = pts.shape
    tables = [None] * dim
    for c in range(_STREAMED, dim):
        column = pts[:, c]
        tables[c] = []
        for _ in range(t):
            tables[c].append(tables[c][-1] * column if tables[c] else column.copy())
    scratch = [
        (
            np.empty(count, dtype=np.longdouble) if c > 0 else None,
            np.empty(count, dtype=np.longdouble) if c < _STREAMED else None,
        )
        for c in range(dim)
    ]
    sums = {}
    _walk(pts, tables, scratch, 0, t, None, (), sums)
    return [
        (alpha, sums[alpha.exponents] / count - _fraction_to_longdouble(sphere_monomial_moment(dim, alpha)))
        for alpha in iter_multi_indices(dim, t)
    ]


def _monomial_report(deviations, t: int, tol: float) -> VerificationReport:
    worst = -1.0
    worst_alpha = None
    for alpha, delta in deviations:
        residual = float(abs(delta))
        if residual > worst:
            worst = residual
            worst_alpha = alpha
    return VerificationReport(
        method="monomial",
        degree_checked=t,
        max_abs_residual=worst,
        passed=worst <= tol,
        tolerance=tol,
        worst_monomial=worst_alpha,
    )


def verify_monomials(design, t: int, tol: float) -> VerificationReport:
    """Max deviation of monomial averages from exact moments, degree <= t."""
    return _monomial_report(_moment_deviations(design, t), t, tol)


def _zonal_coefficients(dim: int, t: int) -> np.ndarray:
    """Row k holds the power-basis coefficients of C_k(s) / C_k(1), k <= t.

    Exact recurrence for the normalized polynomials, lambda = (dim - 2)/2:
    (k + 2 lambda) P_{k+1} = 2 (k + lambda) s P_k - k P_{k-1}, with P_0 = 1
    and P_1 = s.  At lambda = 0 it is the Chebyshev recurrence.
    """
    lam = Fraction(dim - 2, 2)
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, t):
        nxt = [Fraction(0)] + [2 * (k + lam) * c for c in rows[k]]
        for j, c in enumerate(rows[k - 1]):
            nxt[j] -= k * c
        rows.append([c / (k + 2 * lam) for c in nxt])
    out = np.zeros((t + 1, t + 1), dtype=np.longdouble)
    for k in range(t + 1):
        for j, c in enumerate(rows[k]):
            out[k, j] = _fraction_to_longdouble(c)
    return out


def _multinomial(alpha: MultiIndex) -> int:
    """|alpha|! / (alpha_1! ... alpha_d!)."""
    out = math.factorial(alpha.degree)
    for e in alpha:
        out //= math.factorial(e)
    return out


def _gegenbauer_report(deviations, dim: int, t: int, tol: float) -> VerificationReport:
    squares = np.zeros(t + 1, dtype=np.longdouble)
    for alpha, delta in deviations:
        squares[alpha.degree] += np.longdouble(_multinomial(alpha)) * delta * delta
    sums = _zonal_coefficients(dim, t) @ squares

    worst = -1.0
    worst_k = None
    for k in range(1, t + 1):
        residual = float(abs(sums[k]))
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


def verify_gegenbauer(design, t: int, tol: float) -> VerificationReport:
    """Pairwise zonal-polynomial sums, normalized by N^2 and the value at 1.

    Computed from squared moment deviations (see the module docstring) in
    O(N * C(d+t, t)) time instead of O(N^2 * t).
    """
    if design.ambient_dim < 2:
        raise ValueError("pairwise criterion needs ambient dimension >= 2; use verify_monomials")
    return _gegenbauer_report(_moment_deviations(design, t), design.ambient_dim, t, tol)


def verify_design(design, t: int, tol: float) -> list[VerificationReport]:
    """[monomial report, pairwise report if ambient >= 2], read from one table."""
    deviations = _moment_deviations(design, t)
    reports = [_monomial_report(deviations, t, tol)]
    if design.ambient_dim >= 2:
        reports.append(_gegenbauer_report(deviations, design.ambient_dim, t, tol))
    return reports
