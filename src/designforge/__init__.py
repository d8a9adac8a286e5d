"""Spherical design construction, equal-weight quadrature synthesis, and
exact-moment certification."""

from .construct import (
    BuildError,
    BuildPlan,
    BuildReport,
    Design,
    InMemoryQuadratureCache,
    a_sequence,
    base_s0,
    base_s1,
    build,
    lower_bound,
    plan,
    product,
    solve_cached,
)
from .moments import (
    JacobiWeight,
    MultiIndex,
    iter_multi_indices,
    jacobi_moment_ratio,
    sphere_monomial_moment,
)
from .quadrature import (
    NoConvergenceError,
    Quadrature,
    QuadratureReport,
    SolverOptions,
    certify,
    solve_equal_weight,
)
from .verify import VerificationReport, verify_design

__version__ = "0.1.0"

__all__ = [
    "BuildError",
    "BuildPlan",
    "BuildReport",
    "Design",
    "InMemoryQuadratureCache",
    "JacobiWeight",
    "MultiIndex",
    "NoConvergenceError",
    "Quadrature",
    "QuadratureReport",
    "SolverOptions",
    "VerificationReport",
    "a_sequence",
    "base_s0",
    "base_s1",
    "build",
    "certify",
    "iter_multi_indices",
    "jacobi_moment_ratio",
    "lower_bound",
    "plan",
    "product",
    "solve_cached",
    "solve_equal_weight",
    "sphere_monomial_moment",
    "verify_design",
    "__version__",
]
