"""Certification of the design property against exact moments.

Both criteria read one table.  For every monomial x^alpha of total degree
<= t it holds the deviation

    delta_alpha = (1/N) sum_i x_i^alpha - mu_alpha

of the point average from the exact rational sphere moment mu_alpha.
Averages are accumulated in extended precision with pairwise reduction, so
each deviation is exact to well under one double ulp.  The exact constants
(the exponents alpha in graded order with the bounds of each degree's block,
these moments, and the multinomials and zonal coefficients below) are made
once per (d, t), on first use, and shared read-only.

The table is filled by one of two walks over N points in R^d, each
O(N * C(d+t, t)) time, and both give the same bits.  Each product x^alpha is
formed left to right from the running powers x_c^e = x_c^(e-1) * x_c, exactly
as a monomial-at-a-time loop would, and each monomial's N values are summed
by numpy's pairwise sum over one contiguous row, so the deviations do not
depend on the walk.

* A small set, whose table of C(d+t, t) monomials x N points holds at most
  `_SMALL_TABLE` = 2^20 long doubles (every leaf `build` walks, up to
  t = 126), is walked in one pass over that whole table: one `cumprod` forms
  every coordinate's powers, one fancy-indexed multiply per coordinate
  forms every row, and one `sum(axis=1)` sums them.  A factor x^0 = 1 is a
  multiply by one, which is exact.  Memory is the table, one temporary of
  its size and (t+1)*d*N powers: at most 2^21 long doubles (32 MB) besides
  the powers.
* A larger set is walked in one loop over the monomials in lexicographic
  order.  Each monomial there raises one exponent alpha_c of the one before
  by one and zeroes those after c, so the product x_0^a_0 ... x_c^a_c of
  the coordinates up to c, skipping zero exponents, is formed once, from
  the kept product up to c-1, and shared by every monomial with that
  prefix: each monomial costs one elementwise multiply and one sum, written
  to its graded position.  Memory is about ((d-2)*t + d + 1)*N
  extended-precision numbers: stored powers x_c^e (e <= t) for c >= 2, one
  product buffer per coordinate c >= 1, and two buffers in which the powers
  of x_0 and x_1 are formed as the loop reaches them.

A design made by `construct.product` from factors X in R^m and Y in R^n and
a rule T = {t_1..t_K} has the points (s_k x, c_k y), with
s_k = sqrt((1-t_k)/2) and c_k = sqrt((1+t_k)/2), so each average factors:

    avg(u^a v^b) = T_{|a|,|b|} avg_X(u^a) avg_Y(v^b),   T_{i,j} = (1/K) sum_k s_k^i c_k^j.

`product_averages` forms that table in O(C(d+t, t) + K t^2) from the
factors' tables, and `construct.certify_plan` reads each product node's
table off its children's this way, so only the leaves are walked;
`verify_averages` certifies a table, whichever way it was made, and
`verify_design` always walks the points it is given.  The certificate of a product node in `build` thus
covers the multiset defined by its factors' points and the long-double
scales s_k, c_k.  The stored points differ from that multiset by one
rounding per coordinate per tree level, a relative 2^-64 each, so a monomial
average of degree <= t differs by at most about depth * t * 2^-64 (4e-18 at
depth 4 and t = 20), far below any tolerance in use (1e-9 by default).

`verify_averages` is the one builder of reports.  From a table it reports:

* the monomial criterion, the largest |delta_alpha|;
* from d = 2 up, the pairwise criterion: for k = 1..t, the pairwise sum of
  the ambient sphere's degree-k zonal polynomial C_k (the Jacobi polynomial
  of weight (d-1, d-1) from `jacobi`'s recurrence: Gegenbauer of parameter
  (d-2)/2, Chebyshev for d = 2), normalized by N^2 and by C_k(1) so
  residuals are comparable across degrees.  By the addition theorem each
  sum is a sum of squares, so it vanishes exactly when the point set
  averages all degree-k harmonics to zero (Delsarte, Goethals and Seidel,
  1977).  It is quadratic in the deviations, so on its own it passes
  averages that are off by about the square root of its tolerance.

`verify_design` walks a design's points into one table and certifies it so,
and `build` certifies every node's table.  `verify_monomials` and
`verify_gegenbauer` are the two entries of `verify_design`, kept only for the
benchmark's span wrappers.

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
            out["worst_monomial"] = list(self.worst_monomial)
        return out


# Powers of the first coordinates are formed by a running product as the walk
# reaches them instead of being stored: x_0 is reached once and x_1 once per
# exponent of x_0, so streaming them costs O(t^2) products and saves 2t columns.
_STREAMED = 2

# A set whose table of monomials x points holds at most this many long doubles
# is walked in one pass over the whole table: every `build` leaf up to t = 126.
_SMALL_TABLE = 1 << 20


def _walk_table(pts: np.ndarray, t: int) -> np.ndarray:
    """Sum of x^alpha over the rows of `pts` for every |alpha| <= t, in graded
    order, from the whole (monomials x points) table at once."""
    count, dim = pts.shape
    powers = np.empty((t + 1, dim, count), dtype=np.longdouble)
    powers[0] = 1
    powers[1:] = pts.T
    np.cumprod(powers, axis=0, out=powers)  # row e is x^e = x^(e-1) * x, as the streaming walk forms it
    exponents = _exponent_columns(dim, t)
    table = powers[exponents[0], 0]
    for c in range(1, dim):
        table *= powers[exponents[c], c]
    return table.sum(axis=1)


def _walk_streaming(pts: np.ndarray, t: int) -> np.ndarray:
    """Sum of x^alpha over the rows of `pts` for every |alpha| <= t, in graded
    order, by one loop over the alphas in lexicographic order."""
    count, dim = pts.shape
    exponents = _exponent_columns(dim, t)
    order = np.lexsort(exponents[::-1])
    lex = exponents[:, order]
    # each alpha raises alpha_c of the one before by one and zeroes those after c
    steps = np.argmax(lex[:, 1:] != lex[:, :-1], axis=0)
    # stored[e - 1, c - _STREAMED] is x_c^e = x_c^(e-1) * x_c, in one contiguous row
    stored = np.empty((t, max(dim - _STREAMED, 0), count), dtype=np.longdouble)
    stored[:] = pts[:, _STREAMED:].T
    np.cumprod(stored, axis=0, out=stored)
    running = np.empty((min(dim, _STREAMED), count), dtype=np.longdouble)
    buffers = np.empty((dim - 1, count), dtype=np.longdouble)  # coordinate c >= 1 forms its product in row c - 1
    # products[c] is the product, left to right, of x_b^alpha_b for b <= c and alpha_b > 0
    products = [None] * dim
    sums = np.empty(len(order), dtype=np.longdouble)
    sums[0] = count  # x^0, first in both orders: a sum of N ones, which is exact
    for rank, c, e in zip(order[1:].tolist(), steps.tolist(), lex[steps, np.arange(1, len(order))].tolist()):
        if c >= _STREAMED:
            power = stored[e - 1, c - _STREAMED]
        else:
            power = running[c]
            if e == 1:
                np.copyto(power, pts[:, c])
            else:
                np.multiply(power, pts[:, c], out=power)
        prefix = products[c - 1] if c else None
        value = power if prefix is None else np.multiply(prefix, power, out=buffers[c - 1])
        products[c:] = [value] * (dim - c)
        sums[rank] = value.sum()
    return sums


def walked_averages(pts: np.ndarray, t: int) -> np.ndarray:
    """Mean of x^alpha over the rows of `pts` for every |alpha| <= t, in graded order.

    A set whose table of monomials x points holds at most `_SMALL_TABLE`
    long doubles is walked in one pass over that table, in memory for the
    table, one temporary of its size and (t+1)*d*N powers; a larger one in
    one loop over the monomials in lexicographic order, which forms each
    prefix product x_0^a_0 ... x_c^a_c once, in about ((d-2)*t + d + 1)*N
    long doubles.  Both give the same bits."""
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    pts = np.asarray(pts, dtype=np.longdouble)
    count, dim = pts.shape
    walk = _walk_table if count * len(_exact_constants(dim, t)[0]) <= _SMALL_TABLE else _walk_streaming
    return walk(pts, t) / count


@cache
def _split_indices(m: int, n: int, t: int) -> tuple[np.ndarray, ...]:
    """For every alpha = (a, b) in R^(m+n) with |alpha| <= t, in graded order:
    the position of a in the graded order of R^m, that of b in R^n, |a| and |b|."""
    position_a = {a: i for i, a in enumerate(_exact_constants(m, t)[0])}
    position_b = {b: i for i, b in enumerate(_exact_constants(n, t)[0])}
    rows = [(position_a[alpha[:m]], position_b[alpha[m:]], sum(alpha[:m]), sum(alpha[m:]))
            for alpha in _exact_constants(m + n, t)[0]]
    return tuple(np.array(column, dtype=np.intp) for column in zip(*rows))


def product_averages(left_table, right_table, scales: np.ndarray, m: int, n: int, t: int) -> np.ndarray:
    """The table of the product of factors in R^m and R^n with tables
    `left_table` and `right_table`, scaled by row k of `scales`, (s_k, c_k):

    avg(u^a v^b) = T[|a|, |b|] * avg_X(u^a) * avg_Y(v^b), T[i, j] = mean_k s_k^i c_k^j.
    """
    powers = np.empty((t + 1,) + scales.shape, dtype=np.longdouble)
    powers[0] = 1
    powers[1:] = scales
    np.cumprod(powers, axis=0, out=powers)
    weights = powers[:, :, 0] @ powers[:, :, 1].T / len(scales)
    a, b, degree_a, degree_b = _split_indices(m, n, t)
    return weights[degree_a, degree_b] * left_table[a] * right_table[b]


def _first_largest(values: np.ndarray) -> tuple[int, float]:
    """(index, value) of the first largest |v|, compared as doubles."""
    residuals = np.abs(values).astype(np.float64)
    i = int(np.argmax(residuals))
    return i, float(residuals[i])


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
    # C_k(1) is the sum of row k's coefficients
    return _read_only([c / one for row, one in zip(rows[1:], map(sum, rows[1:])) for c in row]).reshape(t + 1, t + 1)


@cache
def _exact_constants(dim: int, t: int) -> tuple[tuple[MultiIndex, ...], np.ndarray, np.ndarray, tuple[int, ...]]:
    """Every alpha with |alpha| <= t in the order of `iter_multi_indices`, the
    read-only sphere moments and multinomials |alpha|!/alpha! in that order,
    and the block bounds: the alphas of degree k are alphas[bounds[k]:bounds[k + 1]]."""
    alphas = tuple(iter_multi_indices(dim, t))
    return (
        alphas,
        _read_only([sphere_monomial_moment(dim, alpha) for alpha in alphas]),
        _read_only([math.factorial(alpha.degree) // math.prod(map(math.factorial, alpha)) for alpha in alphas]),
        tuple(math.comb(dim + k - 1, dim) for k in range(t + 2)),
    )


@cache
def _exponent_columns(dim: int, t: int) -> np.ndarray:
    """Row c holds alpha_c for every |alpha| <= t, in graded order, read-only."""
    out = np.array(_exact_constants(dim, t)[0], dtype=np.intp).T.copy()
    out.setflags(write=False)
    return out


@cache
def _degree_blocks(dim: int, t: int) -> np.ndarray:
    """Mask of a (t+1) x (largest block) table: row k's first C(dim+k-1, k) cells
    hold, in graded order, the alphas of degree k."""
    bounds = _exact_constants(dim, t)[3]
    sizes = np.diff(bounds)
    out = np.arange(sizes[-1]) < sizes[:, None]
    out.setflags(write=False)
    return out


def _degree_squares(deviations: np.ndarray, dim: int, t: int) -> np.ndarray:
    """sum over |alpha| = k of (k!/alpha!) delta_alpha^2, for k = 0..t.

    Each degree's block is summed left to right (a cumsum, not numpy's pairwise
    sum), so the rounding is that of a loop over the alphas in graded order.
    The blocks are the rows of one zero-padded table; every term is >= 0, so
    the trailing zeros leave each row's sum as it is.
    """
    _, _, multinomials, _ = _exact_constants(dim, t)
    mask = _degree_blocks(dim, t)
    padded = np.zeros(mask.shape, dtype=np.longdouble)
    padded[mask] = multinomials * deviations * deviations
    return np.cumsum(padded, axis=1)[:, -1]


def verify_averages(table: np.ndarray, dim: int, t: int, tol: float) -> list[VerificationReport]:
    """[monomial report, pairwise report if dim >= 2] of a table of averages in R^dim."""
    alphas, moments, _, _ = _exact_constants(dim, t)
    deviations = table - moments
    i, worst = _first_largest(deviations)
    reports = [VerificationReport(
        method="monomial", degree_checked=t, max_abs_residual=worst, passed=worst <= tol, tolerance=tol,
        worst_monomial=alphas[i],
    )]
    if dim >= 2:
        sums = _zonal_coefficients(dim, t) @ _degree_squares(deviations, dim, t)
        i, worst = _first_largest(sums[1:]) if t > 0 else (None, 0.0)
        reports.append(VerificationReport(
            method="gegenbauer", degree_checked=t, max_abs_residual=worst, passed=worst <= tol, tolerance=tol,
            worst_degree=None if i is None else i + 1,
        ))
    return reports


def verify_design(design, t: int, tol: float) -> list[VerificationReport]:
    """`verify_averages` of the table walked over the design's points."""
    return verify_averages(walked_averages(design.points, t), design.ambient_dim, t, tol)


# perfbench/spans.py times these two views by name until ROADMAP item 5's benchmark refresh
def verify_monomials(design, t: int, tol: float) -> VerificationReport:
    return verify_design(design, t, tol)[0]


def verify_gegenbauer(design, t: int, tol: float) -> VerificationReport:
    if design.ambient_dim < 2:
        raise ValueError("pairwise criterion needs ambient dimension >= 2; use verify_design")
    return verify_design(design, t, tol)[1]
