"""Equal-weight quadratures of prescribed polynomial degree for Jacobi weights.

A rule here is a multiset T = {t_1, ..., t_K} in [-1, 1] such that the plain
average (1/K) sum p(t_k) reproduces the normalized integral of every
polynomial p up to some degree t.  No closed-form construction is known, so
`solve_equal_weight` searches numerically:

  1. take the node floor, the larger of the Gaussian count ceil((t+1)/2)
     and `_fewest_nodes(w, t)`, a proven lower bound on K from the
     Christoffel numbers (see there); no rule has fewer nodes.  A floor past
     max_K is refused at once, with nothing tried (ceil((t+1)/2) is checked
     first, so a degree past max_K forms no Gauss rule).  Otherwise the
     ladder starts at ceil((t+1)/2) and grows x1.5 (step 4), passing over
     every rung below the floor without an attempt;
  2. each K gets up to two attempts, from two starts.  One is the Gaussian
     rule (Golub-Welsch, `jacobi.gauss_rule`), each node repeated in
     proportion to its weight (largest-remainder rounding), copies fanned
     out by SPREAD; the other is the (k - 1/2)/K quantiles of the weight,
     read off a cumulative table of its density that is formed once per
     weight (`_init_quantile`).  At K = ceil((t+1)/2) the Gaussian start
     goes first: where the Gauss weights are equal (K = 1, or K = 2 for a
     symmetric weight) it is already the rule and certifies with no LM
     iteration, while the quantile start takes 4-5.  Above that count the
     quantile start goes first, since it usually converges in fewer
     iterations.  The second start is formed only if the first attempt
     fails, and K is the first rung at which either start certifies, so the
     order moves no K.  Both are numpy only.  No other start certified in
     a survey of 866 solves, so nothing is random;
  3. run Levenberg-Marquardt on the residuals of the orthonormal-polynomial
     averages, parameterizing t_k = cos(theta_k) so nodes can never leave
     [-1, 1].  An attempt ends on one of three rules: max|r| reaches the
     target; the best max|r| has gone 30 iterations without falling by 1%
     (on a K too small for degree t the residual plateaus around
     1e-1..1e-2; of the attempts that converged in every solve of the
     weights (m, n) with m, n <= 4 at t <= 16, one went 29 iterations
     without such a gain, the Gaussian start of (4, 1) and (1, 4) at degree
     14, K = 315, and no other went more than 12); or the fixed cap of
     MAX_ITERATIONS = 300.
     Each step solves the damped normal equations in min(t, K) dimensions
     (`_lm_step`), since at high degree K is several times t;
  4. when both fail, grow K geometrically (x1.5, rounded up) and retry up to
     max_K, then raise NoConvergenceError with the closest attempt's report
     (a floor past max_K raises it in step 1, with no attempt to carry).

Residuals use the orthonormal basis rather than raw powers: the exact target
is then 0 for every degree >= 1, and the system stays well-conditioned.
Certification re-evaluates the residuals in extended precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .jacobi import gauss_rule, orthonormal_values
from .moments import JacobiWeight


# An LM attempt stops once its best max|r| has not fallen by STALL_GAIN
# (relative) in STALL_WINDOW iterations; see step 3 of the module docstring.
STALL_GAIN = 0.01
STALL_WINDOW = 30
# Every LM attempt ends after at most this many iterations.
MAX_ITERATIONS = 300
# Fan-out of the Gaussian start's repeated nodes, in units of pi/K radians.
SPREAD = 0.05
# Equal cells of [0, pi/2] in the quantile start's table of the weight.
QUANTILE_CELLS = 2048


@dataclass
class SolverOptions:
    """Solver settings; each LM attempt stops after MAX_ITERATIONS, a constant.
    `seed` is accepted and ignored (nothing is random)."""

    tolerance: float = 1e-12
    max_K: int = 512
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_K < 1:
            raise ValueError("max_K must be >= 1")


@dataclass
class Quadrature:
    """Equal-weight node multiset for a Jacobi weight, claimed degree t.

    Nodes are kept sorted ascending (repetitions allowed); `certified` is set
    by `certify` and means the extended-precision residuals stayed within
    `tolerance` for all degrees 1..t.
    """

    weight: JacobiWeight
    degree: int
    nodes: np.ndarray
    certified: bool = False
    tolerance: float = math.nan
    max_abs_residual: float = math.nan

    def __post_init__(self):
        nodes = np.sort(np.asarray(self.nodes, dtype=np.float64))
        if nodes.size < 1:
            raise ValueError("a quadrature needs at least one node")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if nodes[0] < -1.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [-1, 1]")
        self.nodes = nodes

    @property
    def K(self) -> int:
        return int(self.nodes.size)


@dataclass
class QuadratureReport:
    residuals: np.ndarray
    max_abs_residual: float
    K: int
    iterations: int  # LM iterations over every attempt of the solve


class NoConvergenceError(RuntimeError):
    """Raised when no K <= max_K produced residuals within tolerance.

    Carries the best quadrature and report found so the caller can inspect
    the residual level or retry with a relaxed tolerance.  Both are None when
    the node floor exceeds max_K, so no K was tried.
    """

    def __init__(self, message: str, best: Quadrature | None, report: QuadratureReport | None):
        super().__init__(message)
        self.best = best
        self.report = report


def certify(q: Quadrature, tol: float) -> QuadratureReport:
    """Re-evaluate residuals in extended precision and set the certified flag.

    The residuals r_0..r_t are the averages of the orthonormal polynomials
    P_0..P_t over the nodes; r_0 is 0 by construction.  The exact targets
    are rational (zero for every orthonormal degree >= 1), and the recurrence
    coefficients are exact rationals converted straight to extended
    precision, so the only noise left is the extended-precision arithmetic
    itself.
    """
    nodes = np.asarray(q.nodes, dtype=np.longdouble)
    residuals = orthonormal_values(q.weight, q.degree, nodes, dtype=np.longdouble).mean(axis=1)
    residuals[0] = 0  # equal weights always reproduce constants
    max_abs = float(np.max(np.abs(residuals[1:]))) if q.degree >= 1 else 0.0
    q.certified = max_abs <= tol
    q.tolerance = tol
    q.max_abs_residual = max_abs
    return QuadratureReport(
        residuals=residuals.astype(np.float64),
        max_abs_residual=max_abs,
        K=q.K,
        iterations=0,
    )


def _largest_remainder_multiplicities(weights: np.ndarray, K: int) -> np.ndarray:
    """Integer multiplicities summing to K, proportional to the weights."""
    quota = K * weights / weights.sum()
    mult = np.floor(quota).astype(int)
    short = K - mult.sum()
    if short > 0:
        remainders = quota - mult
        order = np.argsort(-remainders, kind="stable")
        mult[order[:short]] += 1
    return mult


def _init_gauss_multiplicity(w: JacobiWeight, degree: int, K: int) -> np.ndarray:
    """Initial angles: Gaussian nodes replicated by weight, copies fanned out.

    Duplicated copies are offset symmetrically in theta so the Jacobian
    columns start distinct; a zero spread would leave duplicates moving in
    lockstep and waste the extra degrees of freedom.
    """
    num_gauss = max(1, math.ceil((degree + 1) / 2))
    nodes, weights = gauss_rule(w, num_gauss)
    mult = _largest_remainder_multiplicities(weights, K)
    theta0 = np.arccos(np.clip(nodes, -1.0, 1.0))
    delta = SPREAD * math.pi / max(K, 2)
    thetas = []
    for th, q in zip(theta0, mult):
        for j in range(q):
            thetas.append(th + delta * (j - (q - 1) / 2))
    return np.clip(np.array(thetas), 1e-6, math.pi - 1e-6)


@cache
def _quantile_table(w: JacobiWeight) -> tuple[np.ndarray, np.ndarray]:
    """The weight's unnormalized cumulative table in phi and the cell edges it is
    read at, as read-only arrays shared by every start for w (see `_init_quantile`)."""
    width = math.pi / 2 / QUANTILE_CELLS
    phi = (np.arange(QUANTILE_CELLS) + 0.5) * width
    log_density = (w.n - 1) * np.log(np.sin(phi)) + (w.m - 1) * np.log(np.cos(phi))
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_density - log_density.max()))])
    edges = np.arange(QUANTILE_CELLS + 1) * width
    cdf.setflags(write=False)
    edges.setflags(write=False)
    return cdf, edges


def _init_quantile(w: JacobiWeight, K: int) -> np.ndarray:
    """Initial angles, ascending, at the (k - 1/2)/K quantiles of the normalized weight.

    In u = (1+t)/2 the weight is the Beta(n/2, m/2) density.  With
    u = sin^2(phi), so that theta = pi - 2 phi, its density in phi is
    proportional to sin^(n-1) cos^(m-1) on [0, pi/2].  That density is
    tabulated at the midpoints of QUANTILE_CELLS equal cells, in logs so that
    a narrow weight does not underflow, and summed into a cumulative table at
    the cell edges, once per weight (`_quantile_table`); each level is read
    off that table by linear interpolation.  A level lies within about 1e-6
    of its exact value for weights up to (8, 8): enough for a start, which
    LM refines.
    """
    cdf, edges = _quantile_table(w)
    levels = (np.arange(K) + 0.5) / K * cdf[-1]
    return math.pi - 2 * np.interp(levels, cdf, edges)[::-1]


def _lm_step(jac: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """The Marquardt step (J^T J + lam D)^-1 J^T r for the t x K Jacobian J.

    D is the diagonal of J^T J, floored at 1e-12 of its largest entry.  When
    K > t the same step is solved as D^-1 J^T (J D^-1 J^T + lam I)^-1 r (the
    push-through identity): one t x t system in place of a K x K one.
    Raises LinAlgError when the system is singular.
    """
    t, K = jac.shape

    def floored(diag):
        return np.maximum(diag, 1e-12 * max(diag.max(), 1e-30))

    if K <= t:
        jtj = jac.T @ jac
        jtj.flat[:: K + 1] += lam * floored(jtj.diagonal())
        return np.linalg.solve(jtj, jac.T @ r)
    scaled = jac / floored(np.einsum("ij,ij->j", jac, jac))
    gram = scaled @ jac.T
    gram.flat[:: t + 1] += lam
    return np.linalg.solve(gram, r) @ scaled


def _levenberg_marquardt(
    theta: np.ndarray,
    w: JacobiWeight,
    degree: int,
    tol: float,
) -> tuple[np.ndarray, float, int]:
    """Minimize the residual vector over node angles; returns (theta, max|r|, iters).

    Marquardt-scaled damping; the target is pushed below tol so the
    extended-precision re-certification has headroom.  Stops at the target,
    on a stall (STALL_GAIN, STALL_WINDOW) or after MAX_ITERATIONS; a
    singular step system only raises the damping.
    """
    target = 0.05 * tol
    K = theta.size

    def evaluate(th):
        x = np.cos(th)
        p, dp = orthonormal_values(w, degree, x, with_derivative=True)
        r = p[1:].mean(axis=1)
        jac = dp[1:] * (-np.sin(th)) / K
        return r, jac, np.linalg.norm(r)

    r, jac, norm = evaluate(theta)
    lam = 1e-3
    iterations = 0
    best_theta, best_max = theta.copy(), float(np.max(np.abs(r)))
    mark, stalled = best_max, 0
    for _ in range(MAX_ITERATIONS):
        max_r = float(np.max(np.abs(r)))
        if max_r < best_max:
            best_max, best_theta = max_r, theta.copy()
        if max_r <= target:
            break
        if best_max <= (1.0 - STALL_GAIN) * mark:
            mark, stalled = best_max, 0
        elif stalled >= STALL_WINDOW:
            break
        stalled += 1
        iterations += 1
        try:
            step = _lm_step(jac, r, lam)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = theta - step
        r_trial, jac_trial, norm_trial = evaluate(trial)
        if norm_trial < norm:
            theta, r, jac, norm = trial, r_trial, jac_trial, norm_trial
            lam = max(lam / 3.0, 1e-14)
        else:
            lam *= 4.0
    max_r = float(np.max(np.abs(r)))
    if max_r < best_max:
        best_max, best_theta = max_r, theta.copy()
    return best_theta, best_max, iterations


def _fewest_nodes(w: JacobiWeight, t: int) -> int:
    """A proven lower bound on K for any equal-weight rule of degree t for w.

    Let s = floor((t+1)/2), P_k the orthonormal polynomials of the unit-mass
    weight, xi the largest zero of P_s, and W_first, W_last the end weights of
    the s-point Gauss rule (divided by the mass).  Then K >= 1/min(W_first,
    W_last):
      1. The largest node is >= xi.  q(x) = (x - xi)(P_s(x)/(x - xi))^2 has
         degree 2s - 1 <= t and integral 0.  If every node were below xi,
         every q(x_i) would be <= 0, so every node would sit on the other
         s - 1 zeros of P_s; but the square of their node polynomial has
         degree 2s - 2 <= t and a positive integral, yet averages to 0.
      2. At any node x, 1/K <= lambda_s(x) = 1 / sum_{k<s} P_k(x)^2: apply
         the rule to p^2, where p is the Christoffel-Darboux kernel
         polynomial with p(x) = 1 (degree 2s - 2 <= t).
      3. On [xi, 1] every P_k with k < s is positive and increasing, so
         lambda_s is largest at xi, where it equals W_last.  The left end is
         the mirror image, with W_first.
    The relative margin keeps attained bounds exact: Gauss-Chebyshev (weight
    (1, 1)) is itself equal-weight, and (2, 2) at degree 3 has 1/W_last =
    2.0000000000000004 in float64.
    """
    _, weights = gauss_rule(w, max(1, (t + 1) // 2))
    end_weight = min(weights[0], weights[-1]) / w.mass
    return math.ceil((1 - 1e-9) / end_weight)


def solve_equal_weight(
    w: JacobiWeight, t: int, opts: SolverOptions | None = None
) -> tuple[Quadrature, QuadratureReport]:
    """Find a certified equal-weight quadrature of degree t for the weight w.

    The node floor is the larger of ceil((t+1)/2) and `_fewest_nodes(w, t)`:
    a rule with K nodes averages the square of its node polynomial (degree
    2K, positive integral) to 0, so it is exact to degree at most 2K - 1, and
    the Christoffel bound is proven there.  When the floor exceeds
    opts.max_K, NoConvergenceError is raised at once, naming the floor, with
    no start formed and no attempt made (best and report None); the Gauss
    rule behind the Christoffel bound is formed only when ceil((t+1)/2) fits.
    Otherwise K climbs the ladder ceil((t+1)/2), then x1.5 up to opts.max_K,
    skipping rungs below the floor, and NoConvergenceError carries the best
    attempt if no K reaches opts.tolerance.
    """
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    opts = opts or SolverOptions()

    if t == 0:
        nodes, _ = gauss_rule(w, 1)
        q = Quadrature(weight=w, degree=0, nodes=nodes)
        report = certify(q, opts.tolerance)
        return q, report

    def grow(K):
        return min(max(K + 1, math.ceil(K * 1.5)), opts.max_K)

    K = gauss_count = (t + 2) // 2  # ceil((t+1)/2)
    fewest = K if K > opts.max_K else max(K, _fewest_nodes(w, t))
    if fewest > opts.max_K:
        raise NoConvergenceError(
            f"no equal-weight rule of degree {t} for weight (m={w.m}, n={w.n}) up to K={opts.max_K}: "
            f"a rule of degree {t} needs at least {fewest} nodes",
            best=None,
            report=None,
        )
    while K < fewest:
        K = grow(K)
    total_iterations = 0
    best: tuple[Quadrature, QuadratureReport] | None = None
    while True:
        # the Gauss start goes first only at the Gauss count, where equal Gauss
        # weights make it the rule itself; above it the quantile start usually
        # needs fewer iterations (module docstring, step 2).  Each start is
        # made only when reached, and K is the first rung either certifies, so
        # the order moves no K.
        gauss = lambda: _init_gauss_multiplicity(w, t, K)
        quantile = lambda: _init_quantile(w, K)
        for start in (gauss, quantile) if K <= gauss_count else (quantile, gauss):
            theta, _, iters = _levenberg_marquardt(start(), w, t, opts.tolerance)
            total_iterations += iters
            q = Quadrature(weight=w, degree=t, nodes=np.cos(theta))
            report = certify(q, opts.tolerance)
            report.iterations = total_iterations
            if q.certified:
                return q, report
            if best is None or report.max_abs_residual < best[1].max_abs_residual:
                best = (q, report)
        if K >= opts.max_K:
            break
        K = grow(K)

    best_q, best_report = best
    best_report.iterations = total_iterations
    raise NoConvergenceError(
        f"no equal-weight rule of degree {t} for weight (m={w.m}, n={w.n}) "
        f"within tolerance {opts.tolerance:g} up to K={opts.max_K}; "
        f"best residual {best_report.max_abs_residual:.3e} at K={best_q.K}",
        best=best_q,
        report=best_report,
    )
