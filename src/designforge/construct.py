"""Spherical design construction by recursive products of lower spheres.

The engine is the product map: given point sets X on the unit sphere of R^m
and Y on the unit sphere of R^n, and an equal-weight quadrature T for the
weight (1-x)^((m-2)/2) (1+x)^((n-2)/2), the K*M*N vectors

    ( sqrt((1-t_k)/2) * x,  sqrt((1+t_k)/2) * y )

lie on the unit sphere of R^{m+n}.  If X and Y are t-designs, T needs only
degree floor(t/2): averaging a monomial u^a v^b of degree <= t over X and Y
leaves only even exponents, so what remains is a polynomial in t_k of
degree (|a|+|b|)/2 <= floor(t/2).  A T of degree k thus gives degree
min(X, Y, 2k+1).  Iterating the map from the two trivial bases -- the pair
{-1, +1} in R^1 and regular polygons in R^2 -- reaches every dimension.

The split schedule halves the ambient dimension at each level: ambient 2q
splits into (q, q) and ambient 2q+1 into (q, q+1), except ambient 3 which
splits into (2, 1), i.e. a polygon times {-1, +1} (the quadrature there
needs O(t^2) nodes, so the three-dimensional sphere costs O(t^3) points).
`a_sequence` gives the resulting cardinality growth exponents.

`build` walks the plan bottom-up along one path for leaves and products
alike: make the node's design and its table of monomial averages (walked
over a leaf's points, read off the children's tables for a product), certify
the table with `verify.verify_averages`, and record the worst residual of its
certificates in the node's report.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import verify as _verify
from .cache import InMemoryQuadratureCache
from .moments import JacobiWeight
from .quadrature import Quadrature, SolverOptions, decode_floats, encode_floats, solve_equal_weight

_PI = np.longdouble("3.14159265358979323846264338327950288")
_NORM_TOL = 1e-12


@dataclass(eq=False)
class Design:
    """Point multiset on the unit sphere of R^ambient_dim, claimed degree t.

    Points are stored in extended precision; every row must have unit norm
    within 1e-12.  Whether the multiset actually averages polynomials of
    degree <= t correctly is certified by the verify module, never assumed.
    Designs compare by identity: `==` between two point arrays is not a bool.
    """

    ambient_dim: int
    degree: int
    points: np.ndarray
    # set by `product`: row k holds the scales (s_k, c_k) it multiplied the factors by
    _scales: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.longdouble))
        if self.ambient_dim < 1:
            raise ValueError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != self.ambient_dim:
            raise ValueError(
                f"points must be a non-empty (N, {self.ambient_dim}) array, got {pts.shape}"
            )
        norms = np.sqrt((pts.astype(np.float64) ** 2).sum(axis=1))
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= _NORM_TOL:  # also true when a coordinate is NaN or infinite
            raise ValueError(f"points must have unit norm within {_NORM_TOL:g}; worst |~1| = {worst:.3e}")
        self.points = pts

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "degree": self.degree,
            "count": self.count,
            **encode_floats("points", self.points),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Design":
        for name in ("ambient_dim", "degree", "count"):
            if type(data[name]) is not int:  # also rejects a bool, which is an int to Python
                raise TypeError(f"{name} must be an integer, got {json.dumps(data[name])}")
        design = cls(ambient_dim=data["ambient_dim"], degree=data["degree"], points=decode_floats(data, "points"))
        if design.count != data["count"]:
            raise ValueError(f"point count {design.count} does not match recorded count={data['count']}")
        return design


def base_s0(t: int) -> Design:
    """The two-point set {+1, -1} in R^1; averages every even power to 1 and
    every odd power to 0, hence a t-design for all t."""
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    return Design(ambient_dim=1, degree=t, points=np.array([[1], [-1]], dtype=np.longdouble))


def base_s1(t: int, phase: float = 0.0) -> Design:
    """The regular (t+1)-gon on the unit circle, rotated by `phase` radians.

    A (t+1)-gon kills every circular harmonic of order 1..t, so it is a
    t-design with the fewest possible points; the phase is free (rotations
    do not change the averaging property) but pinned for reproducibility.
    The phase is first reduced mod 2*pi, which is exact, so a large phase
    loses no precision in the angles.
    """
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    j = np.arange(t + 1, dtype=np.longdouble)
    theta = 2 * _PI * j / np.longdouble(t + 1) + np.fmod(np.longdouble(phase), 2 * _PI)
    return Design(ambient_dim=2, degree=t, points=np.column_stack([np.cos(theta), np.sin(theta)]))


def product(X: Design, Y: Design, T: Quadrature) -> Design:
    """Combine designs on the spheres of R^m and R^n into one on R^{m+n}.

    Every (node, x, y) triple contributes one point, so the output has
    exactly K*M*N points; each has unit norm because the two scale factors
    are sqrt((1-t)/2) and sqrt((1+t)/2).  The output degree is
    min(X.degree, Y.degree, 2*T.degree + 1): averaging over X and Y keeps
    only monomials whose exponents are all even, so a monomial of degree d
    becomes a polynomial of degree <= d/2 in the node.  T must be certified:
    a hand-made rule can be marked `certified=True` by its maker.

    The output keeps the scales in `_scales`, row k holding (s_k, c_k), so
    `build` reads its moments off its factors' (`verify.product_averages`)
    instead of walking its K*M*N points.
    """
    m, n = T.weight.m, T.weight.n
    if X.ambient_dim != m:
        raise ValueError(f"first factor lives in R^{X.ambient_dim}, quadrature expects R^{m}")
    if Y.ambient_dim != n:
        raise ValueError(f"second factor lives in R^{Y.ambient_dim}, quadrature expects R^{n}")
    if not T.certified:
        raise ValueError("quadrature is not certified")

    degree = min(X.degree, Y.degree, 2 * T.degree + 1)
    nodes = T.nodes.astype(np.longdouble)
    scales = np.sqrt(np.maximum(np.column_stack([(1 - nodes) / 2, (1 + nodes) / 2]), np.longdouble(0)))
    points = np.empty((T.K * X.count * Y.count, m + n), dtype=np.longdouble)
    blocks = points.reshape(T.K, X.count * Y.count, m + n)
    np.multiply(scales[:, 0, None, None], np.repeat(X.points, Y.count, axis=0), out=blocks[:, :, :m])
    np.multiply(scales[:, 1, None, None], np.tile(Y.points, (X.count, 1)), out=blocks[:, :, m:])
    design = Design(ambient_dim=m + n, degree=degree, points=points)
    design._scales = scales
    return design


@cache
def a_sequence(n: int) -> int:
    """Cardinality growth exponent for designs on the n-sphere built here.

    a_1 = 1, a_2 = 3, a_{2q-1} = 2 a_{q-1} + q, a_{2q} = a_{q-1} + a_q + q + 1.
    Satisfies a_{2^k - 1} = k 2^{k-1} and a_n < (n/2) log2(2n) for n > 10.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if n == 1:
        return 1
    if n == 2:
        return 3
    if n % 2 == 1:
        q = (n + 1) // 2
        return 2 * a_sequence(q - 1) + q
    q = n // 2
    return a_sequence(q - 1) + a_sequence(q) + q + 1


def lower_bound(n: int, t: int) -> int:
    """Delsarte-Goethals-Seidel lower bound on the size of a t-design on S^n."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    k = t // 2
    if t % 2 == 0:
        return math.comb(n + k, n) + math.comb(n + k - 1, n)
    return 2 * math.comb(n + k, n)


@dataclass(frozen=True)
class PlanNode:
    """One node of a build plan: a base design or a binary product split."""

    ambient_dim: int
    kind: str  # "s0", "s1", or "product"
    left: "PlanNode | None" = None
    right: "PlanNode | None" = None

    @property
    def split(self) -> tuple[int, int]:
        if self.kind != "product":
            raise ValueError("leaf nodes have no split")
        return self.left.ambient_dim, self.right.ambient_dim


@dataclass(frozen=True)
class BuildPlan:
    """Recursion tree for building a t-design on S^sphere_dim."""

    sphere_dim: int
    degree: int
    root: PlanNode

    def describe(self) -> str:
        def walk(node: PlanNode) -> str:
            if node.kind == "s0":
                return "S0"
            if node.kind == "s1":
                return "S1"
            return f"(S{node.ambient_dim - 1} = {walk(node.left)} x {walk(node.right)})"

        return walk(self.root)


def plan(n: int, t: int, overrides: dict[int, tuple[int, int]] | None = None) -> BuildPlan:
    """Build plan for a t-design on S^n.

    The default split sends ambient dimension 2q to (q, q) and 2q+1 to
    (q, q+1), with ambient 3 handled as (2, 1).  `overrides` maps an ambient
    dimension >= 3 to a custom (m, n) child pair with m + n = ambient, for
    experimenting with other trees; ambient 1 and 2 are leaves.  An override
    for an ambient dimension the tree never reaches is an error, not ignored.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    overrides = overrides or {}
    for dim, (dm, dn) in overrides.items():
        if dim < 3:
            raise ValueError(f"ambient {dim} is a leaf and takes no override, got ({dm}, {dn})")
        if dm < 1 or dn < 1 or dm + dn != dim:
            raise ValueError(f"override for ambient {dim} must split into positive dims summing to {dim}, got ({dm}, {dn})")

    def split_of(ambient: int) -> tuple[int, int]:
        if ambient in overrides:
            return overrides[ambient]
        if ambient == 3:
            return 2, 1
        if ambient % 2 == 0:
            return ambient // 2, ambient // 2
        return ambient // 2, ambient // 2 + 1

    reached = set()

    def make(ambient: int) -> PlanNode:
        reached.add(ambient)
        if ambient == 1:
            return PlanNode(ambient_dim=1, kind="s0")
        if ambient == 2:
            return PlanNode(ambient_dim=2, kind="s1")
        dm, dn = split_of(ambient)
        return PlanNode(ambient_dim=ambient, kind="product", left=make(dm), right=make(dn))

    root = make(n + 1)
    unreached = sorted(overrides.keys() - reached)
    if unreached:
        raise ValueError(f"ambient {unreached[0]} is not in the tree for S^{n}, so its override would be ignored")
    return BuildPlan(sphere_dim=n, degree=t, root=root)


class BuildError(RuntimeError):
    """A node of a build failed verification; `node_path` identifies it."""

    def __init__(self, message: str, node_path: str):
        super().__init__(message)
        self.node_path = node_path


# BuildNodeReport fields that only a product node has
_PRODUCT_ONLY = ("m", "n", "K", "M", "N", "quad_residual")


@dataclass
class BuildNodeReport:
    path: str
    ambient_dim: int
    kind: str
    cardinality: int
    verify_method: str
    verify_residual: float
    m: int = 0
    n: int = 0
    K: int = 0
    M: int = 0
    N: int = 0
    quad_residual: float = 0.0
    children: list["BuildNodeReport"] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """Fields in declaration order; a leaf omits the product-only fields."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if self.kind == "product" or f.name not in _PRODUCT_ONLY}
        out["children"] = [c.to_json_dict() for c in self.children]
        return out


@dataclass
class BuildReport:
    sphere_dim: int
    degree: int
    total_points: int
    exponent: int
    dgs_lower_bound: int
    max_residual: float
    passed: bool
    root: BuildNodeReport

    def to_json_dict(self) -> dict:
        """Fields in declaration order, with the root node's report under "tree"."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tree"] = out.pop("root").to_json_dict()
        return out


def solve_cached(
    m: int, n: int, t: int, opts: SolverOptions, cache_obj: InMemoryQuadratureCache
) -> Quadrature:
    """Solve for an equal-weight rule, consulting the cache first."""
    hit = cache_obj.lookup(m, n, t, opts.tolerance)
    if hit is not None:
        return hit
    q, _ = solve_equal_weight(JacobiWeight(m, n), t, opts)
    cache_obj.store(q)
    return q


def build(
    bp: BuildPlan,
    solver_opts: SolverOptions | None = None,
    design_tol: float = 1e-9,
    cache_obj=None,
    phase: float = 0.0,
) -> tuple[Design, BuildReport]:
    """Execute a build plan bottom-up and certify every node.

    A leaf is exact by construction; a product node first solves (or fetches
    from cache) its equal-weight quadrature of degree floor(t/2), which is
    enough for degree t (see `product`).  A leaf's table of monomial averages
    is walked over its points; a product's is read off its children's tables
    and the scales `product` used (`verify.product_averages`), and a product
    design without them is walked.  `verify.verify_averages` reads the
    monomial and, from ambient 2 up, the pairwise certificate off the table.
    Only the tables pass up the tree, so no design below the root outlives
    the build.  Raises BuildError naming the offending node if any
    certificate exceeds design_tol, and propagates NoConvergenceError from
    the quadrature solver.
    """
    t = bp.degree
    solver_opts = solver_opts or SolverOptions()
    if cache_obj is None:
        cache_obj = InMemoryQuadratureCache()

    def execute(node: PlanNode, path: str) -> tuple[Design, np.ndarray, BuildNodeReport]:
        product_fields, table = {}, None
        if node.kind == "s0":
            design = base_s0(t)
        elif node.kind == "s1":
            design = base_s1(t, phase=phase)
        else:
            X, left_table, left_report = execute(node.left, path + "L")
            Y, right_table, right_report = execute(node.right, path + "R")
            m, n = node.split
            quad = solve_cached(m, n, t // 2, solver_opts, cache_obj)
            design = product(X, Y, quad)
            if design._scales is not None:
                table = _verify.product_averages(left_table, right_table, design._scales, m, n, t)
            product_fields = dict(m=m, n=n, K=quad.K, M=X.count, N=Y.count,
                                  quad_residual=quad.max_abs_residual, children=[left_report, right_report])
        if table is None:
            table = _verify.walked_averages(design.points, t)
        checks = _verify.verify_averages(table, design.ambient_dim, t, design_tol)
        residual = max(r.max_abs_residual for r in checks)
        if not all(r.passed for r in checks):
            raise BuildError(
                f"verification failed at node {path or 'root'} "
                f"(S^{node.ambient_dim - 1}, residual {residual:.3e} > {design_tol:g})",
                node_path=path or "root",
            )
        report = BuildNodeReport(
            path=path,
            ambient_dim=node.ambient_dim,
            kind=node.kind,
            cardinality=design.count,
            verify_method="+".join(r.method for r in checks),
            verify_residual=residual,
            **product_fields,
        )
        return design, table, report

    design, _, root_report = execute(bp.root, "")
    report = BuildReport(
        sphere_dim=bp.sphere_dim,
        degree=t,
        total_points=design.count,
        exponent=a_sequence(bp.sphere_dim),
        dgs_lower_bound=lower_bound(bp.sphere_dim, t),
        max_residual=_max_residual(root_report),
        passed=True,
        root=root_report,
    )
    return design, report


def _max_residual(node: BuildNodeReport) -> float:
    return max([node.verify_residual] + [_max_residual(c) for c in node.children])
