"""Checks of one build's outputs, run outside the timed region.

The check does not call the package's verifiers, because those are what the
benchmark times.  It reads the report tree, recomputes the
Delsarte-Goethals-Seidel bound, and averages a seeded sample of monomials of
degree <= t over the root design in extended precision, comparing them with
the exact moments from `designforge.moments.sphere_monomial_moment`.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from designforge.moments import MultiIndex, sphere_monomial_moment

SAMPLED_MONOMIALS = 32


def dgs_lower_bound(n: int, t: int) -> int:
    """Delsarte-Goethals-Seidel lower bound on the size of a t-design on S^n."""
    k = t // 2
    if t % 2 == 0:
        return math.comb(n + k, n) + math.comb(n + k - 1, n)
    return 2 * math.comb(n + k, n)


def points_sha256(points: np.ndarray) -> str:
    """Digest of the points rounded to doubles, as the CLI's hex fields store them."""
    return hashlib.sha256(np.ascontiguousarray(points, dtype="<f8").tobytes()).hexdigest()


def sample_exponents(rng: np.random.Generator, dim: int, t: int, count: int) -> list[tuple[int, ...]]:
    """`count` exponent vectors of degree 1..t.

    Every other one has degree exactly t, where a design of too low a degree
    fails first; every other pair is all-even, so its exact moment is not 0.
    """
    out = []
    for i in range(count):
        degree = t if i % 2 == 0 else int(rng.integers(1, t + 1))
        if i % 4 >= 2 and degree >= 2:
            half = rng.multinomial(degree // 2, [1.0 / dim] * dim)
            out.append(tuple(2 * int(e) for e in half))
        else:
            out.append(tuple(int(e) for e in rng.multinomial(degree, [1.0 / dim] * dim)))
    return out


def _product_nodes(node: dict):
    if node["kind"] == "product":
        yield node
    for child in node["children"]:
        yield from _product_nodes(child)


def check_build(n: int, t: int, points: np.ndarray, report: dict, tol: float, rng: np.random.Generator) -> list[str]:
    """Problems found with one build's design and report; empty when the build is correct."""
    problems = []
    pts = np.asarray(points, dtype=np.longdouble)
    if pts.ndim != 2 or pts.shape[1] != n + 1:
        return [f"design has shape {pts.shape}, expected (N, {n + 1})"]
    if not report.get("passed"):
        problems.append("report does not say passed")
    tree = report["tree"]
    if tree["cardinality"] != len(pts) or report["total_points"] != len(pts):
        problems.append(f"report counts {tree['cardinality']}/{report['total_points']} points, design has {len(pts)}")
    if report["dgs_lower_bound"] != dgs_lower_bound(n, t):
        problems.append(f"report DGS bound {report['dgs_lower_bound']} != {dgs_lower_bound(n, t)}")
    for node in _product_nodes(tree):
        left, right = node["children"]
        if node["cardinality"] != node["K"] * node["M"] * node["N"]:
            problems.append(f"node {node['path'] or 'root'}: cardinality {node['cardinality']} != K*M*N")
        if (node["M"], node["N"]) != (left["cardinality"], right["cardinality"]):
            problems.append(f"node {node['path'] or 'root'}: M, N do not match the children")
    for alpha in sample_exponents(rng, n + 1, t, SAMPLED_MONOMIALS):
        values = np.ones(len(pts), dtype=np.longdouble)
        for c, e in enumerate(alpha):
            if e:
                values *= pts[:, c] ** e
        exact = sphere_monomial_moment(n + 1, MultiIndex(alpha))
        error = abs(values.sum() / len(pts) - np.longdouble(exact.numerator) / np.longdouble(exact.denominator))
        if not error <= tol:
            problems.append(f"monomial {alpha}: average off by {float(error):.3e} > {tol:g}")
    return problems
