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

`_default_split` states the paper's tree once: ambient a splits into
(floor(a/2), ceil(a/2)), except ambient 3 into (2, 1), a polygon times
{-1, +1}.  Leaves grow like t^0 and t^1, and a join of the spheres of R^m
and R^n takes a rule whose K grows like t^max(m, n) (Kuijlaars, 1995), so
`a_sequence` folds the join law a(m + n) = a(m) + a(n) + max(m, n) over it.

`build` walks the plan once per distinct subtree: the paper's split repeats
a subtree at every even ambient dimension, and equal `PlanNode`s compare
equal.  `certify_plan` goes bottom-up, certifying each distinct node's
table of monomial averages (walked over a leaf's points, read off the
children's tables and the rule's scales for a product) and recording its
size, K*M*N at a product; it needs rules, not product points, so `bounds`
runs it on cached rules alone.  It returns the build report and the
certified parts: a leaf's design, or a product's (left, right, rule).
`form` makes the points from them with `product`, scaled by the same
`_scales_of` values; `factors` forms only the root's two factors, from
which `product_rows` gives the halves of every root row, so `designforge
build` writes a design without forming its points.
"""
from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from . import verify as _verify
from .cache import InMemoryQuadratureCache
from .formats import design_text, load_json
from .moments import JacobiWeight
from .quadrature import Quadrature, SolverOptions, solve_equal_weight

_PI = np.longdouble("3.14159265358979323846264338327950288")
_NORM_TOL = 1e-12
DESIGN_TOLERANCE = 1e-9  # default bound on every node's certificate, for `build` and `verify`


def _check_unit_norms(smallest, largest) -> None:
    """Raise ValueError unless every norm whose square lies between `smallest`
    and `largest` (scalars or arrays) is within _NORM_TOL of 1."""
    # sqrt is monotone, so |norm - 1| peaks at the smallest or the largest square
    worst = float(np.max(np.abs(np.sqrt(np.concatenate([np.ravel(smallest), np.ravel(largest)])) - 1)))
    if not worst <= _NORM_TOL:  # also true when a coordinate is NaN or infinite
        raise ValueError(f"points must have unit norm within {_NORM_TOL:g}; worst |~1| = {worst:.3e}")


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
        squares = np.einsum("ij,ij->i", pts, pts)  # in long double, with no copy of the points
        _check_unit_norms(squares.min(), squares.max())
        self.points = pts

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    # perfbench/spans.py times this view of the design file by name until ROADMAP item 5's benchmark refresh
    def to_json_dict(self) -> dict:
        return load_json(design_text(self.points, self.degree))


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


def _scales_of(T: Quadrature) -> np.ndarray:
    """Row k holds (sqrt((1-t_k)/2), sqrt((1+t_k)/2)) in long double."""
    nodes = T.nodes.astype(np.longdouble)
    return np.sqrt(np.maximum(np.column_stack([(1 - nodes) / 2, (1 + nodes) / 2]), np.longdouble(0)))


def product(X: Design, Y: Design, T: Quadrature) -> Design:
    """Combine designs on the spheres of R^m and R^n into one on R^{m+n}.

    Every (node, x, y) triple contributes one point, so the output has
    exactly K*M*N points; each has unit norm because the two scale factors
    are sqrt((1-t)/2) and sqrt((1+t)/2).  The output degree is
    min(X.degree, Y.degree, 2*T.degree + 1): averaging over X and Y keeps
    only monomials whose exponents are all even, so a monomial of degree d
    becomes a polynomial of degree <= d/2 in the node.  T must be certified:
    a hand-made rule can be marked `certified=True` by its maker.

    Point (k, i, j) joins the halves that `product_rows` gives, so the
    points are those `designforge build` writes without forming them.
    """
    left, right = product_rows(X, Y, T)
    m, n = T.weight.m, T.weight.n
    points = np.empty((T.K, X.count, Y.count, m + n), dtype=np.longdouble)
    points[..., :m] = left[:, :, None]
    points[..., m:] = right[:, None]
    return Design(ambient_dim=m + n, degree=min(X.degree, Y.degree, 2 * T.degree + 1), points=points.reshape(-1, m + n))


def product_rows(X: Design, Y: Design, T: Quadrature) -> tuple[np.ndarray, np.ndarray]:
    """The halves of the rows of `product(X, Y, T)`: row (k, i, j) is
    left[k, i] = s_k x_i followed by right[k, j] = c_k y_j, where (s_k, c_k)
    is row k of `_scales_of(T)`, the values `certify_plan` reads the
    product's moments with (`verify.product_averages`), so the certificate
    is that of these rows.

    Raises ValueError unless X lives in R^m and Y in R^n for T's weight,
    T is certified, and every row has unit norm within 1e-12: the squared
    norms of node k's rows lie between the sum of its halves' smallest
    squared norms and the sum of their largest.
    """
    m, n = T.weight.m, T.weight.n
    if X.ambient_dim != m:
        raise ValueError(f"first factor lives in R^{X.ambient_dim}, quadrature expects R^{m}")
    if Y.ambient_dim != n:
        raise ValueError(f"second factor lives in R^{Y.ambient_dim}, quadrature expects R^{n}")
    if not T.certified:
        raise ValueError("quadrature is not certified")
    scales = _scales_of(T)
    left = scales[:, 0, None, None] * X.points
    right = scales[:, 1, None, None] * Y.points
    squares = [np.einsum("kij,kij->ki", half, half) for half in (left, right)]
    _check_unit_norms(squares[0].min(1) + squares[1].min(1), squares[0].max(1) + squares[1].max(1))
    return left, right


def _default_split(ambient: int) -> tuple[int, int]:
    """The paper's split of an ambient dimension >= 3: (floor(a/2), ceil(a/2)),
    but (2, 1) for ambient 3, the polygon first."""
    return (2, 1) if ambient == 3 else (ambient // 2, (ambient + 1) // 2)


@cache
def _exponent(ambient: int) -> int:
    """a(1) = 0, a(2) = 1, a(m + n) = a(m) + a(n) + max(m, n) over `_default_split`."""
    if ambient <= 2:
        return ambient - 1
    m, n = _default_split(ambient)
    return _exponent(m) + _exponent(n) + max(m, n)


def a_sequence(n: int) -> int:
    """Cardinality growth exponent a_n of the designs on S^n built here.

    A join of the spheres of R^m and R^n takes a rule whose K grows like
    t^max(m, n) (Kuijlaars, 1995), so a_n = a(n + 1) under the join law
    a(m + n) = a(m) + a(n) + max(m, n) over `_default_split`, the one
    statement of the split.  Satisfies a_{2^k - 1} = k 2^{k-1} and
    a_n < (n/2) log2(2n) for n > 10.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return _exponent(n + 1)


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


def plan(n: int, t: int, overrides: dict[int, tuple[int, int]] | None = None) -> BuildPlan:
    """Build plan for a t-design on S^n.

    Ambient dimensions split by `_default_split`.  `overrides` maps an ambient
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

    reached = set()

    def make(ambient: int) -> PlanNode:
        reached.add(ambient)
        if ambient == 1:
            return PlanNode(ambient_dim=1, kind="s0")
        if ambient == 2:
            return PlanNode(ambient_dim=2, kind="s1")
        dm, dn = overrides.get(ambient) or _default_split(ambient)
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


def certify_plan(
    bp: BuildPlan,
    rule_for,
    design_tol: float = DESIGN_TOLERANCE,
    phase: float = 0.0,
) -> tuple[BuildReport, Design | tuple]:
    """Certify every node of a plan without forming a product's points.

    `rule_for(m, n, degree)` returns a product node's equal-weight rule of
    degree floor(t/2), enough for degree t (see `product`).  A leaf's table
    of monomial averages is walked over its points, a product's is read off
    its children's tables and its rule's scales (`verify.product_averages`);
    `verify.verify_averages` reads the monomial and, from ambient 2 up, the
    pairwise certificate off it.  Each distinct subtree is certified, and
    its rule asked for, once; a repeat's report is a copy under its own
    paths.  Returns the build report and the root's certified parts, which
    `form` makes the design from: a leaf's design, or a product's (left
    parts, right parts, rule), where equal children are one object.
    Raises BuildError naming the first node whose certificate exceeds
    design_tol; what `rule_for` raises passes through.

    No product row is formed or norm-checked here.  Their unit norm follows
    from the leaf `Design`s, which check theirs, and from `Quadrature`'s
    refusal of nodes outside [-1, 1], which makes s_k^2 + c_k^2 = 1 to
    rounding; a report written without the design rests on both.
    """
    t = bp.degree
    done: dict[PlanNode, tuple[np.ndarray, BuildNodeReport, Design | tuple]] = {}

    def execute(node: PlanNode, path: str) -> tuple[np.ndarray, BuildNodeReport, Design | tuple]:
        if node in done:
            table, report, parts = done[node]
            return table, _repathed(report, path), parts
        product_fields = {}
        if node.kind == "product":
            m, n = node.split
            rule = rule_for(m, n, t // 2)  # first, so a missing rule ends the walk early
            left_table, left_report, left_parts = execute(node.left, path + "L")
            right_table, right_report, right_parts = execute(node.right, path + "R")
            table = _verify.product_averages(left_table, right_table, _scales_of(rule), m, n, t)
            cardinality = rule.K * left_report.cardinality * right_report.cardinality
            product_fields = dict(m=m, n=n, K=rule.K, M=left_report.cardinality, N=right_report.cardinality,
                                  quad_residual=rule.max_abs_residual, children=[left_report, right_report])
            parts = (left_parts, right_parts, rule)
        else:
            parts = base_s0(t) if node.kind == "s0" else base_s1(t, phase=phase)
            table = _verify.walked_averages(parts.points, t)
            cardinality = parts.count
        checks = _verify.verify_averages(table, node.ambient_dim, t, design_tol)
        residual = max(r.max_abs_residual for r in checks)
        if not all(r.passed for r in checks):
            raise BuildError(
                f"verification failed at node {path or 'root'} "
                f"(S^{node.ambient_dim - 1}, residual {residual:.3e} > {design_tol:g})",
                node_path=path or "root",
            )
        report = BuildNodeReport(path=path, ambient_dim=node.ambient_dim, kind=node.kind, cardinality=cardinality,
                                 verify_method="+".join(r.method for r in checks), verify_residual=residual,
                                 **product_fields)
        done[node] = table, report, parts
        return table, report, parts

    _, root, parts = execute(bp.root, "")
    done.clear()  # `execute` refers to itself, so only a gc pass frees its cells; they must hold no design
    report = BuildReport(sphere_dim=bp.sphere_dim, degree=t, total_points=root.cardinality,
                         exponent=a_sequence(bp.sphere_dim), dgs_lower_bound=lower_bound(bp.sphere_dim, t),
                         max_residual=_max_residual(root), passed=True, root=root)
    return report, parts


def _repathed(node: BuildNodeReport, path: str) -> BuildNodeReport:
    """A copy of a node's report, and of its subtree's, under `path`."""
    children = [_repathed(child, path + side) for child, side in zip(node.children, "LR")]
    return replace(node, path=path, children=children)


def factors(parts: tuple) -> tuple[Design, Design, Quadrature]:
    """A product's two factor designs and its rule, from its certified parts;
    equal children are formed once and passed as both factors."""
    left, right, rule = parts
    X = form(left)
    return X, X if right is left else form(right), rule


def form(parts: Design | tuple) -> Design:
    """The design of certified parts (see `certify_plan`)."""
    return parts if isinstance(parts, Design) else product(*factors(parts))


@contextlib.contextmanager
def naming_the_count(report: BuildReport):
    """Re-raise a MemoryError in the block as one naming the report's point count."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"the {report.total_points} points of S^{report.sphere_dim} degree {report.degree} do not fit in memory") from None


def certify_build(
    bp: BuildPlan,
    solver_opts: SolverOptions | None = None,
    design_tol: float = DESIGN_TOLERANCE,
    cache_obj=None,
    phase: float = 0.0,
) -> tuple[BuildReport, Design | tuple]:
    """`build` without forming the points: `certify_plan` with each rule
    solved or fetched from `cache_obj` by `solve_cached`.  Raises MemoryError
    naming the point count before any rule is solved if the plan's leaves
    alone rule out holding the points."""
    fewest = _leaf_points(bp.root, bp.degree)
    if fewest * bp.root.ambient_dim * np.dtype(np.longdouble).itemsize > sys.maxsize:
        raise MemoryError(f"S^{bp.sphere_dim} degree {bp.degree} needs at least {_count_text(fewest)} points, which do not fit in memory")
    solver_opts = solver_opts or SolverOptions()
    cache_obj = InMemoryQuadratureCache() if cache_obj is None else cache_obj
    return certify_plan(
        bp, lambda m, n, degree: solve_cached(m, n, degree, solver_opts, cache_obj), design_tol, phase
    )


def build(
    bp: BuildPlan,
    solver_opts: SolverOptions | None = None,
    design_tol: float = DESIGN_TOLERANCE,
    cache_obj=None,
    phase: float = 0.0,
) -> tuple[Design, BuildReport]:
    """Certify a build plan with `certify_build`, then form its points from
    the certified leaves and rules; no design below the root outlives the
    build.  Raises BuildError naming the offending node if any certificate
    exceeds design_tol, and propagates NoConvergenceError from the
    quadrature solver.  Raises MemoryError naming the point count if the
    points cannot be held, and before any rule is solved if the plan's
    leaves alone rule them out.
    """
    report, parts = certify_build(bp, solver_opts, design_tol, cache_obj, phase)
    with naming_the_count(report):
        return form(parts), report


def _count_text(count: int) -> str:
    """A point count in decimal, or as a power of ten once it has more digits
    than Python converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(count)
    except ValueError:
        return f"about 10^{math.floor(math.log10(count))}"


def _leaf_points(node: PlanNode, t: int) -> int:
    """The product of the leaf sizes under `node`: a lower bound on its point
    count, since every rule has K >= 1."""
    if node.kind == "product":
        return _leaf_points(node.left, t) * _leaf_points(node.right, t)
    return 2 if node.kind == "s0" else t + 1  # base_s0 and base_s1's point counts


def _max_residual(node: BuildNodeReport) -> float:
    return max([node.verify_residual] + [_max_residual(c) for c in node.children])
