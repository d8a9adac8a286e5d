"""Certification of the design property against exact moments.

Both criteria read one table.  For every monomial x^alpha of total degree
<= t it holds the deviation

    delta_alpha = (1/N) sum_i x_i^alpha - mu_alpha

of the point average from the exact rational sphere moment mu_alpha.
Averages are accumulated in extended precision with pairwise reduction, so
each deviation is exact to well under one double ulp.  The exact constants
(these moments, and the multinomials and zonal coefficients below) are
converted once per (d, t), on first use, and shared read-only.

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
  sphere's degree-k zonal polynomial C_k (the Jacobi polynomial of weight
  (d-1, d-1) from `jacobi`'s recurrence: Gegenbauer of parameter (d-2)/2,
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
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache

import numpy as np

from . import jacobi
from .moments import JacobiWeight, MultiIndex, iter_multi_indices, sphere_monomial_moment


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
        """Fields in declaration order, skipping those that are None."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        if self.worst_monomial is not None:
            out["worst_monomial"] = list(self.worst_monomial.exponents)
        return out


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
    moments, _ = _exact_constants(dim, t)
    return [(alpha, sums[alpha.exponents] / count - mu) for alpha, mu in zip(iter_multi_indices(dim, t), moments)]


def _first_largest(values) -> tuple[int, float]:
    """(index, value) of the first largest |v|, compared as doubles."""
    residuals = [float(abs(v)) for v in values]
    i = int(np.argmax(residuals))
    return i, residuals[i]


def _monomial_report(deviations, t: int, tol: float) -> VerificationReport:
    i, worst = _first_largest(delta for _, delta in deviations)
    return VerificationReport(
        method="monomial", degree_checked=t, max_abs_residual=worst, passed=worst <= tol, tolerance=tol,
        worst_monomial=deviations[i][0],
    )


def verify_monomials(design, t: int, tol: float) -> VerificationReport:
    """Max deviation of monomial averages from exact moments, degree <= t."""
    return _monomial_report(_moment_deviations(design, t), t, tol)


def _read_only(values) -> np.ndarray:
    out = jacobi._to_dtype(values, np.longdouble)
    out.setflags(write=False)
    return out


@cache
def _zonal_coefficients(dim: int, t: int) -> np.ndarray:
    """Row k holds the power-basis coefficients of C_k(s) / C_k(1), k <= t, read-only.

    C_k is the monic Jacobi polynomial of JacobiWeight(dim - 1, dim - 1), that
    is Gegenbauer of parameter (dim - 2)/2 (Chebyshev for dim = 2).  The weight
    is symmetric, so every a_k is 0 and C_{k+1} = s C_k - b_k C_{k-1}.
    """
    _, b = jacobi.recurrence_coefficients(JacobiWeight(dim - 1, dim - 1), t)
    rows = [[Fraction(0)] * (t + 1), [Fraction(1)] + [Fraction(0)] * t]  # C_{-1}, C_0
    for k in range(t):
        rows.append([c - b[k] * p for c, p in zip([Fraction(0)] + rows[-1][:-1], rows[-2])])
    return _read_only([c / sum(row) for row in rows[1:] for c in row]).reshape(t + 1, t + 1)


@cache
def _exact_constants(dim: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sphere moments and multinomials |alpha|!/alpha! for |alpha| <= t,
    in the order of `iter_multi_indices`."""
    alphas = list(iter_multi_indices(dim, t))
    return (
        _read_only([sphere_monomial_moment(dim, alpha) for alpha in alphas]),
        _read_only([math.factorial(alpha.degree) // math.prod(map(math.factorial, alpha)) for alpha in alphas]),
    )


def _gegenbauer_report(deviations, dim: int, t: int, tol: float) -> VerificationReport:
    _, multinomials = _exact_constants(dim, t)
    squares = np.zeros(t + 1, dtype=np.longdouble)
    for (alpha, delta), weight in zip(deviations, multinomials):
        squares[alpha.degree] += weight * delta * delta
    sums = _zonal_coefficients(dim, t) @ squares

    worst, worst_k = 0.0, None
    if t > 0:
        i, worst = _first_largest(sums[1:])
        worst_k = i + 1
    return VerificationReport(
        method="gegenbauer", degree_checked=t, max_abs_residual=worst, passed=worst <= tol, tolerance=tol,
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
