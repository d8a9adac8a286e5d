"""Base designs, the product map, the exponent sequence, planner and builder."""
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    BuildError,
    Design,
    InMemoryQuadratureCache,
    JacobiWeight,
    Quadrature,
    SolverOptions,
    a_sequence,
    base_s0,
    base_s1,
    build,
    lower_bound,
    plan,
    product,
    solve_equal_weight,
    verify_design,
)
from designforge import construct
from designforge.construct import _default_split, _exponent, certify_plan, product_rows, solve_cached
from designforge.formats import design_from_json, design_text
from designforge.verify import verify_monomials
from oracles import product_points_repeat_tile, same_bits


class CountingCache(InMemoryQuadratureCache):
    """Records the (m, n, degree) of every rule stored."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def store(self, q):
        self.stored.append((q.weight.m, q.weight.n, q.degree))
        super().store(q)


class TestBaseDesigns:
    @pytest.mark.parametrize("t", [0, 3, 17])
    def test_two_point_base(self, t):
        d = base_s0(t)
        assert d.ambient_dim == 1 and d.count == 2
        assert sorted(float(p[0]) for p in d.points) == [-1.0, 1.0]

    def test_two_point_base_matches_moments(self):
        d = base_s0(9)
        pts = np.asarray(d.points, dtype=float)[:, 0]
        for k in range(10):
            expected = 1.0 if k % 2 == 0 else 0.0
            assert float(np.mean(pts**k)) == expected

    def test_polygon_two_gon(self):
        d = base_s1(1)
        assert np.asarray(d.points, dtype=float) == pytest.approx(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), abs=1e-15
        )

    def test_polygon_square(self):
        d = base_s1(3)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.asarray(d.points, dtype=float) == pytest.approx(expected, abs=1e-15)

    def test_triangle_is_two_design(self):
        report = verify_monomials(base_s1(2), 2, 1e-12)
        assert report.passed and report.max_abs_residual < 1e-15

    def test_phase_rotates_but_preserves_design(self):
        d = base_s1(4, phase=0.7)
        assert np.asarray(d.points, dtype=float)[0] == pytest.approx(
            [math.cos(0.7), math.sin(0.7)], abs=1e-15
        )
        assert verify_monomials(d, 4, 1e-12).passed


class TestProduct:
    def test_worked_example_on_s2(self):
        X, Y = base_s1(1), base_s0(1)
        T, _ = solve_equal_weight(JacobiWeight(2, 1), 1)
        D = product(X, Y, T)
        assert D.ambient_dim == 3 and D.count == T.K * 2 * 2 == 4
        pts = np.asarray(D.points, dtype=float)
        a, b = math.sqrt(2 / 3), math.sqrt(1 / 3)
        assert sorted(map(tuple, np.round(pts, 12))) == sorted(
            map(tuple, np.round([[a, 0, b], [a, 0, -b], [-a, 0, b], [-a, 0, -b]], 12))
        )
        assert pts.mean(axis=0) == pytest.approx([0, 0, 0], abs=1e-15)
        assert verify_monomials(D, 1, 1e-12).passed

    def test_cardinality_is_kmn(self):
        X, Y = base_s1(3), base_s0(3)  # M = 4, N = 2
        T = Quadrature(
            weight=JacobiWeight(2, 1), degree=3, nodes=np.array([-0.8, 0.1, 0.5]), certified=True
        )
        D = product(X, Y, T)
        assert D.count == 3 * 4 * 2 == 24

    def test_degenerate_node_embeds_first_factor(self):
        X, Y = base_s1(2), base_s0(2)
        T = Quadrature(weight=JacobiWeight(2, 1), degree=2, nodes=np.array([-1.0]), certified=True)
        D = product(X, Y, T)
        pts = np.asarray(D.points, dtype=float)
        assert pts[:, 2] == pytest.approx(np.zeros(D.count), abs=0)
        assert pts[:, :2] == pytest.approx(
            np.repeat(np.asarray(X.points, dtype=float), 2, axis=0), abs=1e-18
        )

    def test_points_are_the_repeat_tile_formula_bit_for_bit(self, built):
        cases = [
            (base_s1(4), base_s1(4), solve_equal_weight(JacobiWeight(2, 2), 4)[0]),
            (base_s1(5, phase=0.3), base_s0(5), solve_equal_weight(JacobiWeight(2, 1), 2)[0]),
            (built(2, 6)[0], base_s1(6), solve_equal_weight(JacobiWeight(3, 2), 3)[0]),
        ]
        for X, Y, T in cases:
            assert same_bits(product(X, Y, T).points, product_points_repeat_tile(X, Y, T))

    def test_forms_no_copy_of_the_factors_or_the_points(self):
        # beside the points, only one long double per point (the squared norms)
        X, Y = base_s1(40), base_s1(40)
        T, _ = solve_equal_weight(JacobiWeight(2, 2), 20)
        tracemalloc.start()
        try:
            points = product(X, Y, T).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * points.nbytes

    def test_unit_norms(self):
        X, Y = base_s1(4), base_s1(4)
        T, _ = solve_equal_weight(JacobiWeight(2, 2), 4)
        D = product(X, Y, T)
        norms = np.linalg.norm(np.asarray(D.points, dtype=float), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 2e-16 * 4

    def test_rejects_dimension_mismatch(self):
        T, _ = solve_equal_weight(JacobiWeight(2, 2), 1)
        with pytest.raises(ValueError):
            product(base_s0(1), base_s1(1), T)

    def test_rejects_uncertified_without_override(self):
        T = Quadrature(weight=JacobiWeight(2, 1), degree=1, nodes=np.array([0.0]))
        with pytest.raises(ValueError):
            product(base_s1(1), base_s0(1), T)

    @pytest.mark.parametrize("moved", [1e-9, np.nan, np.inf, -np.inf])
    def test_rows_off_the_sphere_are_refused_from_the_halves(self, monkeypatch, moved):
        # the written rows are checked off each node's smallest and largest half norms
        X, Y = base_s1(5), base_s0(5)
        T, _ = solve_equal_weight(JacobiWeight(2, 1), 2)
        scales = construct._scales_of(T)
        scales[1, 0] += moved
        monkeypatch.setattr(construct, "_scales_of", lambda rule: scales)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit norm within 1e-12"):
            product_rows(X, Y, T)  # an infinite scale times a zero coordinate is NaN

    def test_degree_is_minimum_of_inputs(self):
        X, Y = base_s1(5), base_s0(9)
        T, _ = solve_equal_weight(JacobiWeight(2, 1), 2)
        assert product(X, Y, T).degree == 5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_degree_k_rule_gives_exactly_2k_plus_1(self, k):
        # the (2k+4)-gon and {+-1} are exact beyond 2k+2, so the rule alone
        # limits the degree; (2, 1) is asymmetric, so nothing is exact by symmetry
        X, Y = base_s1(2 * k + 3), base_s0(2 * k + 3)
        T, _ = solve_equal_weight(JacobiWeight(2, 1), k)
        D = product(X, Y, T)
        assert D.degree == 2 * k + 1
        assert all(r.passed for r in verify_design(D, 2 * k + 1, 1e-9))
        assert not all(r.passed for r in verify_design(D, 2 * k + 2, 1e-9))


class TestExponentSequence:
    def test_table(self):
        assert [a_sequence(k) for k in range(1, 11)] == [1, 3, 4, 7, 9, 11, 12, 16, 19, 22]

    def test_power_of_two_identity(self):
        for k in range(1, 21):
            assert a_sequence(2**k - 1) == k * 2 ** (k - 1)

    def test_unrolled_value(self):
        assert a_sequence(15) == 32

    @given(st.integers(min_value=11, max_value=64))
    @settings(max_examples=54, deadline=None, derandomize=True)
    def test_log_bound(self, n):
        assert a_sequence(n) < (n / 2) * math.log2(2 * n)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=64, deadline=None, derandomize=True)
    def test_at_least_linear(self, n):
        assert a_sequence(n) >= n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            a_sequence(0)

    def test_join_law_folded_over_the_default_plan(self):
        def fold(node):
            if node.kind != "product":
                return 0 if node.kind == "s0" else 1
            return fold(node.left) + fold(node.right) + max(node.split)

        for n in range(1, 201):
            assert fold(plan(n, 3).root) == a_sequence(n), n

    def test_is_memoized_per_ambient_dimension(self):
        # the default tree of S^(10^6) has about 2 * 10^6 nodes, but few distinct ambient dimensions
        _exponent.cache_clear()
        start = time.perf_counter()
        a_sequence(10**6)
        assert time.perf_counter() - start < 0.1


class TestLowerBound:
    @pytest.mark.parametrize(
        "n,t,expected",
        [(2, 4, 9), (2, 3, 6), (5, 0, 1), (3, 4, 14), (1, 1, 2), (1, 2, 3), (1, 3, 4)],
    )
    def test_known_values(self, n, t, expected):
        assert lower_bound(n, t) == expected

    def test_circle_matches_polygon_count(self):
        for t in range(0, 30):
            assert lower_bound(1, t) == t + 1


class TestPlan:
    def test_s2_splits_into_circle_and_pair(self):
        bp = plan(2, 5)
        assert bp.root.kind == "product" and bp.root.split == (2, 1)
        assert bp.root.left.kind == "s1" and bp.root.right.kind == "s0"

    def test_s3_splits_into_two_circles(self):
        bp = plan(3, 2)
        assert bp.root.split == (2, 2)
        assert bp.root.left.kind == "s1" and bp.root.right.kind == "s1"

    def test_s4_splits_into_circle_and_s2(self):
        bp = plan(4, 2)
        assert bp.root.split == (2, 3)
        assert bp.root.left.kind == "s1"
        assert bp.root.right.kind == "product" and bp.root.right.split == (2, 1)

    def test_every_default_split_is_default_split(self):
        def products(node):
            if node.kind == "product":
                yield node
                yield from products(node.left)
                yield from products(node.right)

        for n in range(1, 201):
            for node in products(plan(n, 2).root):
                assert node.split == _default_split(node.ambient_dim)

    def test_even_and_odd_ambient_rules(self):
        assert plan(5, 1).root.split == (3, 3)
        assert plan(6, 1).root.split == (3, 4)
        assert plan(7, 1).root.split == (4, 4)
        assert plan(7, 1).root.left.split == (2, 2)

    def test_override_changes_split(self):
        bp = plan(4, 1, overrides={5: (1, 4)})
        assert bp.root.split == (1, 4)

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            plan(4, 1, overrides={5: (1, 3)})
        with pytest.raises(ValueError):
            plan(4, 1, overrides={5: (0, 5)})
        with pytest.raises(ValueError, match="leaf"):  # ambient 2 is a polygon leaf, never split
            plan(4, 1, overrides={2: (1, 1)})

    def test_unreached_override_rejected(self):
        with pytest.raises(ValueError, match="ambient 9 is not in the tree"):
            plan(2, 3, overrides={9: (4, 5)})
        with pytest.raises(ValueError, match="ambient 4 is not in the tree"):  # 5 splits (2, 3)
            plan(4, 1, overrides={4: (1, 3)})

    def test_override_reached_through_another_override(self):
        bp = plan(4, 1, overrides={5: (1, 4), 4: (1, 3)})
        assert bp.root.split == (1, 4) and bp.root.right.split == (1, 3)

    def test_leaf_only_plan_for_circle(self):
        bp = plan(1, 7)
        assert bp.root.kind == "s1"


class TestBuild:
    def test_circle_build_is_polygon(self, quad_cache):
        design, report = build(plan(1, 7), cache_obj=quad_cache)
        assert design.count == 8
        assert report.root.kind == "s1" and not report.root.children

    def test_s2_degree_one_worked_example(self, quad_cache):
        design, report = build(plan(2, 1), cache_obj=quad_cache)
        assert design.count == 4
        assert report.max_residual <= 1e-12
        assert report.root.K * report.root.M * report.root.N == design.count

    def test_s3_degree_two_cardinality(self, quad_cache):
        design, report = build(plan(3, 2), cache_obj=quad_cache)
        assert report.root.M == report.root.N == 3
        assert design.count == 9 * report.root.K
        assert report.passed

    def test_report_cardinalities_multiply(self, quad_cache):
        _, report = build(plan(4, 2), cache_obj=quad_cache)

        def check(node):
            if node.kind == "product":
                assert node.cardinality == node.K * node.M * node.N
                assert node.M == node.children[0].cardinality
                assert node.N == node.children[1].cardinality
                for child in node.children:
                    check(child)

        check(report.root)

    def test_even_and_odd_degree_share_a_rule(self):
        cache = CountingCache()
        build(plan(2, 6), cache_obj=cache)
        assert cache.stored == [(2, 1, 3)]
        design, _ = build(plan(2, 7), cache_obj=cache)
        assert cache.stored == [(2, 1, 3)] and design.degree == 7

    @pytest.mark.parametrize("t", [70, 72, 74, pytest.param(76, marks=pytest.mark.xfail(
        strict=True, raises=BuildError,
        reason="ROADMAP item 10: the alternating zonal sum lifts the root's pairwise residual past 1e-9"))])
    def test_s2_certifies_at_high_degree(self, quad_cache, t):
        design, report = build(plan(2, t), cache_obj=quad_cache)
        assert report.passed and report.max_residual <= 1e-9
        assert design.count == report.total_points and design.degree == t

    @pytest.mark.parametrize("t", [82, pytest.param(83, marks=pytest.mark.xfail(
        strict=True, raises=BuildError, reason="ROADMAP item 16"))])
    def test_s1_certifies_at_high_degree(self, t):
        # the exact (t+1)-gon: at t = 83 the cancelling zonal sum reads 2.6e-9 at the root
        design, report = build(plan(1, t))
        assert report.passed and report.max_residual <= 1e-9
        assert design.count == t + 1 and design.degree == t

    def test_design_beyond_any_address_space_is_refused_before_certifying(self, monkeypatch):
        # S^200 t=2: every rule has K = 1, so the leaves' 2.4e51 points are the count
        def certify_plan(*args, **kwargs):
            raise AssertionError("certify_plan was called")

        monkeypatch.setattr("designforge.construct.certify_plan", certify_plan)
        with pytest.raises(MemoryError, match=r"^S\^200 degree 2 needs at least 2435013403100201220879672449168160867466000113598464 points"):
            build(plan(200, 2))

    def test_design_too_large_to_hold_names_the_count(self, monkeypatch, quad_cache):
        def product(*args):
            raise MemoryError

        monkeypatch.setattr(construct, "product", product)
        with pytest.raises(MemoryError, match=r"^the 20 points of S\^2 degree 4 do not fit in memory$"):
            build(plan(2, 4), cache_obj=quad_cache)

    def test_each_distinct_subtree_is_certified_once(self, quad_cache):
        # S^7 = S^3 x S^3 and S^3 = S^1 x S^1: one rule per distinct join, and
        # each repeat's report is a copy under its own paths
        asked = []

        def rule_for(m, n, degree):
            asked.append((m, n, degree))
            return solve_cached(m, n, degree, SolverOptions(), quad_cache)

        report, (left, right, rule) = certify_plan(plan(7, 4), rule_for)
        assert asked == [(4, 4, 2), (2, 2, 2)]
        assert right is left and left[0] is left[1]

        def paths(node):
            return [node.path] + [p for child in node.children for p in paths(child)]

        assert paths(report.root) == ["", "L", "LL", "LR", "R", "RL", "RR"]
        first, second = (child.to_json_dict() for child in report.root.children)
        assert second == json.loads(json.dumps(first).replace('"path": "L', '"path": "R'))

    def test_failed_verification_names_node(self, quad_cache):
        with pytest.raises(BuildError) as err:
            build(plan(2, 3), design_tol=1e-22, cache_obj=quad_cache)
        assert err.value.node_path


class TestDesignType:
    def test_rejects_off_sphere_points(self):
        with pytest.raises(ValueError):
            Design(ambient_dim=2, degree=1, points=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):  # NaN fails every comparison, so test it on its own
            Design(ambient_dim=2, degree=1, points=np.array([[np.nan, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_coordinate_among_unit_rows(self, bad):
        with pytest.raises(ValueError, match="unit norm"):
            Design(ambient_dim=2, degree=1, points=np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Design(ambient_dim=2, degree=1, points=np.zeros((0, 2)))

    def test_rejects_points_that_are_not_a_matrix(self):
        with pytest.raises(ValueError, match=r"got \(1, 2, 1\)"):
            Design(ambient_dim=2, degree=1, points=np.array([[[1.0], [0.0]]]))

    def test_equality_is_identity(self):
        # a generated __eq__ compared the point arrays, and `==` between
        # arrays of several elements is not a bool
        d = base_s1(3)
        assert (d == base_s1(3)) is False
        assert (d == d) is True

    def test_json_round_trip_is_fixed_point(self):
        d = base_s1(4, phase=0.3)
        text = design_text(d.points, d.degree)
        back = design_from_json(json.loads(text))
        assert design_text(back.points, back.degree) == text
        assert back.count == d.count
