"""The benchmark's workloads: which builds one pass makes, and through which entry point.

This module imports nothing from designforge, so the orchestrating process
can read the table without loading the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# build() and the CLI default; the benchmark checks outputs at the same tolerance
DESIGN_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "library": build(plan(n, t), ...); "cli": `designforge build` in-process
    cache: str  # "fresh-disk", "memory" or "prefilled-disk"
    cases: tuple[tuple[int, int], ...]  # (sphere dimension n, degree t), one build each per pass
    quick_cases: tuple[tuple[int, int], ...]  # tiny stand-ins for the self-check mode
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-s2",
            entry="library",
            cache="fresh-disk",
            cases=((2, 10), (2, 14)),
            quick_cases=((2, 3), (2, 4)),
            why="cold S^2 builds at t=10 and 14 with an empty disk cache: the equal-weight solve is almost all of the wall time",
        ),
        Workload(
            name="pairwise-cli",
            entry="cli",
            cache="prefilled-disk",
            cases=((4, 6), (5, 4)),
            quick_cases=((3, 3), (4, 2)),
            why="CLI builds of S^4 t=6 and S^5 t=4 from a pre-filled disk cache: no solves, the O(N^2 t) pairwise check dominates",
        ),
        Workload(
            name="monomial-large",
            entry="library",
            cache="memory",
            cases=((5, 7),),
            quick_cases=((5, 2),),
            why="cold S^5 t=7 build, 451584 points: above the pairwise cutoff, so the monomial verifier and product dominate",
        ),
    )
}


def phase_for(seed: int) -> float:
    """Rotation of the polygon leaves for a workload seed; seed 0 gives the CLI default 0."""
    return 2.0 * math.pi * ((seed * _GOLDEN) % 1.0)
