"""Exact rational moments of sphere monomials and Jacobi weights.

All values returned here are `fractions.Fraction` instances, so downstream
verifiers and solvers can compare against targets with no tolerance at all.
The two families of integrals are

    sphere moment   (1/|S^{d-1}|) * integral over S^{d-1} of x^alpha
    weight ratio    integral of ((1-t)/2)^a ((1+t)/2)^b w(t) dt / integral of w(t) dt

with w(t) = (1-t)^((m-2)/2) (1+t)^((n-2)/2) on [-1, 1].  Both reduce to
ratios of Gamma functions whose pi factors cancel, which is why exact
rational arithmetic is possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator


class MultiIndex(tuple):
    """Exponent vector (a_1, ..., a_d) of the monomial x_1^a_1 ... x_d^a_d.

    A tuple of non-negative ints, checked once when made; it compares, hashes
    and indexes as the plain tuple, so MultiIndex((3, 0)) == (3, 0).
    """

    __slots__ = ()

    def __new__(cls, exponents):
        exps = super().__new__(cls, map(int, exponents))
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative, got {exps}")
        return exps

    @property
    def degree(self) -> int:
        return sum(self)


@dataclass(frozen=True)
class JacobiWeight:
    """The weight (1-x)^((m-2)/2) (1+x)^((n-2)/2) on [-1, 1].

    m and n are the dimensions of the two sphere factors whose join produces
    this weight; both must be >= 1, which keeps the exponents > -1 and the
    weight integrable.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"sphere factor dimensions must be >= 1, got m={self.m}, n={self.n}")

    @property
    def alpha(self) -> Fraction:
        """Exponent of (1-x)."""
        return Fraction(self.m - 2, 2)

    @property
    def beta(self) -> Fraction:
        """Exponent of (1+x)."""
        return Fraction(self.n - 2, 2)

    @property
    def mass(self) -> float:
        """Total integral of the weight over [-1, 1], 2^((m+n-2)/2) * B(m/2, n/2),
        formed in logs; a float, as pi factors make it irrational in general.
        Raises OverflowError when it does not fit in a float64."""
        m, n = self.m, self.n
        try:
            log_beta = math.lgamma(m / 2) + math.lgamma(n / 2) - math.lgamma((m + n) / 2)
            return math.exp((m + n - 2) / 2 * math.log(2) + log_beta)
        except OverflowError:
            raise OverflowError(f"the mass of the (m={m}, n={n}) weight does not fit in a float64") from None


def _rising(x: Fraction, k: int) -> Fraction:
    """x (x+1) ... (x+k-1), exactly."""
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


@cache
def _sphere_denominator(dim: int, k: int) -> Fraction:
    """(dim/2) (dim/2 + 1) ... (dim/2 + k - 1)."""
    return _rising(Fraction(dim, 2), k)


@cache
def _even_factor(b: int) -> Fraction:
    """(2b)! / (4^b b!), the factor of one exponent 2b in a sphere moment."""
    return Fraction(math.factorial(2 * b), 4**b * math.factorial(b))


def sphere_monomial_moment(dim: int, alpha: MultiIndex) -> Fraction:
    """Normalized moment of x^alpha over the unit sphere in R^dim.

    Returns (1/|S^{dim-1}|) * integral of x^alpha, which is 0 whenever any
    exponent is odd and otherwise the rational value

        prod_i (2b_i)! / (4^{b_i} b_i!)  /  [ (dim/2) (dim/2 + 1) ... (dim/2 + |b| - 1) ]

    with b_i = alpha_i / 2.  dim = 1 is the two-point sphere {-1, +1} with
    counting-average measure; the same formula covers it.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if len(alpha) != dim:
        raise ValueError(f"multi-index has {len(alpha)} entries, expected {dim}")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    out = Fraction(1) / _sphere_denominator(dim, alpha.degree // 2)
    for a in alpha:
        out *= _even_factor(a // 2)
    return out


def jacobi_moment_ratio(w: JacobiWeight, a: int, b: int) -> Fraction:
    """Normalized moment of ((1-t)/2)^a ((1+t)/2)^b against the weight w.

    Equals B(a + m/2, b + n/2) / B(m/2, n/2), a ratio of Beta functions whose
    arguments differ from the base case by the integers a and b, hence exact:

        rising(m/2, a) * rising(n/2, b) / rising((m+n)/2, a+b).
    """
    if a < 0 or b < 0:
        raise ValueError(f"powers must be non-negative, got a={a}, b={b}")
    num = _rising(Fraction(w.m, 2), a) * _rising(Fraction(w.n, 2), b)
    return num / _rising(Fraction(w.m + w.n, 2), a + b)


def iter_multi_indices(dim: int, max_degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of length dim with total degree <= max_degree.

    Graded order: degree 0 first, then degree 1, ...; within a degree the
    first coordinate decreases.  The count is C(dim + max_degree, dim).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    for degree in range(max_degree + 1):
        for exps in compositions(degree, dim):
            yield MultiIndex(exps)
