"""Orthonormal polynomials for Jacobi weights via the three-term recurrence.

The recurrence coefficients for the weight (1-x)^alpha (1+x)^beta are the
classical ones (Gautschi, "Orthogonal Polynomials: Computation and
Approximation").  Since alpha and beta are half-integers here, every
coefficient is an exact rational; we keep them as Fractions and convert to
the requested float dtype once per (weight, count, dtype), on first use.
Polynomials are orthonormal with respect to the weight normalized to unit
mass, so P_0 = 1 and the exact average of P_d (d >= 1) is 0.  One stacked
recurrence gives the values and derivatives from which the equal-weight
solver forms its residuals and Jacobian; `quadrature` then solves each step
in min(t, K) dimensions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

from .moments import JacobiWeight


def recurrence_coefficients(w: JacobiWeight, count: int) -> tuple[list[Fraction], list[Fraction]]:
    """First `count` monic recurrence coefficients (a_k, b_k) for the weight w.

    p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x).  b_0 is reported as 1
    (the measure is treated as normalized; the true mass is w.mass).
    """
    alpha, beta = w.alpha, w.beta
    a: list[Fraction] = []
    b: list[Fraction] = []
    s = alpha + beta
    for k in range(count):
        if k == 0:
            a.append((beta - alpha) / (s + 2))
            b.append(Fraction(1))
        else:
            two_k = 2 * k
            a.append((beta * beta - alpha * alpha) / ((two_k + s) * (two_k + s + 2)))
            if k == 1:
                b.append(4 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3)))
            else:
                b.append(
                    4 * k * (k + alpha) * (k + beta) * (k + s)
                    / ((two_k + s) ** 2 * (two_k + s + 1) * (two_k + s - 1))
                )
    return a, b


def _to_dtype(values: list[Fraction], dtype) -> np.ndarray:
    return np.array([dtype(v.numerator) / dtype(v.denominator) for v in values], dtype=dtype)


@cache
def _coefficients(w: JacobiWeight, count: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` coefficients as read-only `dtype` arrays (a_k, sqrt(b_k)).

    Every LM evaluation needs the same few of these, and rebuilding them from
    Fractions costs more than the evaluation itself.  The arrays are shared
    by all callers, hence read-only.
    """
    a_frac, b_frac = recurrence_coefficients(w, count)
    a = _to_dtype(a_frac, dtype)
    sqrt_b = np.sqrt(_to_dtype(b_frac, dtype))
    a.setflags(write=False)
    sqrt_b.setflags(write=False)
    return a, sqrt_b


def orthonormal_values(
    w: JacobiWeight,
    max_degree: int,
    x: np.ndarray,
    dtype=np.float64,
    with_derivative: bool = False,
):
    """Evaluate orthonormal polynomials P_0..P_max_degree at the points x.

    Returns an array of shape (max_degree + 1, len(x)); with_derivative=True
    returns a (values, derivatives) pair.  Evaluation runs entirely in
    `dtype`, so passing np.longdouble gives extended-precision residuals.

    Values and, when asked for, derivatives are the rows of one
    (max_degree + 1, rows, len(x)) array, so each degree is one pass of the
    recurrence over both:  P'_{k+1} = ((x - a_k) P'_k + P_k - sqrt(b_k) P'_{k-1})
    / sqrt(b_{k+1}) shares every operation with P_{k+1} but the added P_k.
    """
    x = np.asarray(x, dtype=dtype)
    a, sqrt_b = _coefficients(w, max_degree + 1, dtype)
    shift = x - a[:max_degree, None]  # row k is x - a_k

    out = np.zeros((max_degree + 1, 2 if with_derivative else 1, x.size), dtype=dtype)
    out[0, 0] = 1
    for k in range(max_degree):
        nxt = out[k + 1]
        np.multiply(shift[k], out[k], out=nxt)
        if with_derivative:
            nxt[1] += out[k, 0]
        if k > 0:
            nxt -= sqrt_b[k] * out[k - 1]
        nxt /= sqrt_b[k + 1]
    if with_derivative:
        return out[:, 0], out[:, 1]
    return out[:, 0]


@cache
def gauss_rule(w: JacobiWeight, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian nodes and weights for the weight w (Golub-Welsch), as read-only
    arrays shared by every caller.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    built from the recurrence coefficients; the weights are the squared first
    eigenvector components scaled by the total mass.  The solver asks for at
    most ceil((t+1)/2) nodes, so the matrix is small enough for numpy's dense
    symmetric eigensolver, which reads its lower triangle only.  The rule
    integrates polynomials up to degree 2*num_nodes - 1 exactly against w.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    diag, sqrt_b = _coefficients(w, num_nodes, np.float64)
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(sqrt_b[1:], -1))
    weights = w.mass * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
