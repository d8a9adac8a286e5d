"""In-memory spans and counters for the traced run, recorded from outside the package.

`traced(tracer)` swaps public functions of each designforge layer for
wrappers that record a span (name, start, end, parent span, build id) and
the layer's counters, then call the original.  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the time its
direct child spans cover, so, for example, `jacobi` time nested in a solve is
not counted again in `quadrature.solve_s`.

Layer boundaries (span name <- wrapped function):

    quadrature.solve       construct.solve_equal_weight (the name build() calls)
    (count only)           quadrature.certify, one call per LM attempt inside a solve
    jacobi.recurrence      jacobi.recurrence_coefficients
    jacobi.orthonormal     quadrature.orthonormal_values
    construct.product      construct.product
    verify.monomial        verify.verify_monomials
    verify.pairwise        verify.verify_gegenbauer
    moments.sphere_moment  verify.sphere_monomial_moment
    cache.lookup/.store    lookup/store of QuadratureCache and InMemoryQuadratureCache
    cli.serialize          cli.dump_json, Design.to_json_dict, BuildReport.to_json_dict
    cli.write              cli.atomic_write_text
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from math import comb

BUILD_SPAN = "build"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, build id]
        self.counts: Counter = Counter()
        self.build_id: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.build_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(counts, args, result)` updates the layer's counters."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per span name, over every span recorded."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - child
        return dict(total), dict(own)


def _count_solve(counts, args, result):
    counts["quadrature.solves"] += 1
    counts["quadrature.lm_iterations"] += result[1].iterations


def _count_lookup(counts, args, result):
    counts["cache.lookups"] += 1
    counts["cache.hits"] += result is not None


def _count_monomial(counts, args, result):
    design, t = args[0], args[1]
    counts["verify.monomial_calls"] += 1
    # computed, not measured: points times monomials of degree <= t
    counts["verify.monomial_terms"] += design.count * comb(design.ambient_dim + t, t)


def _count_pairwise(counts, args, result):
    counts["verify.pairwise_calls"] += 1
    counts["verify.pairwise_pairs"] += args[0].count ** 2  # computed: N^2 inner products


def _count_points(counts, args, result):
    counts["construct.product_points"] += result.count


def _count_written(counts, args, result):
    counts["cli.bytes_written"] += len(args[1].encode())


def _counter(name):
    def after(counts, args, result):
        counts[name] += 1

    return after


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block, then restore the originals."""
    from designforge import cache, cli, construct, jacobi, quadrature, verify

    def count_attempt(q, tol):
        if tracer.inside("quadrature.solve"):
            tracer.counts["quadrature.attempts"] += 1
        return original_certify(q, tol)

    original_certify = quadrature.certify
    replacements = [
        (construct, "solve_equal_weight", "quadrature.solve", _count_solve),
        (jacobi, "recurrence_coefficients", "jacobi.recurrence", _counter("jacobi.recurrence_calls")),
        (quadrature, "orthonormal_values", "jacobi.orthonormal", _counter("jacobi.orthonormal_calls")),
        (construct, "product", "construct.product", _count_points),
        (verify, "verify_monomials", "verify.monomial", _count_monomial),
        (verify, "verify_gegenbauer", "verify.pairwise", _count_pairwise),
        (verify, "sphere_monomial_moment", "moments.sphere_moment", _counter("moments.sphere_moment_calls")),
        (cache.QuadratureCache, "lookup", "cache.lookup", _count_lookup),
        (construct.InMemoryQuadratureCache, "lookup", "cache.lookup", _count_lookup),
        (cache.QuadratureCache, "store", "cache.store", _counter("cache.stores")),
        (construct.InMemoryQuadratureCache, "store", "cache.store", _counter("cache.stores")),
        (cli, "dump_json", "cli.serialize", None),
        (construct.Design, "to_json_dict", "cli.serialize", None),
        (construct.BuildReport, "to_json_dict", "cli.serialize", None),
        (cli, "atomic_write_text", "cli.write", _count_written),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in replacements]
    saved.append((quadrature, "certify", original_certify))
    try:
        for owner, attr, name, after in replacements:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
        quadrature.certify = count_attempt
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
