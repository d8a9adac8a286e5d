"""Both verification criteria, their agreement, and the Monte Carlo oracle."""
import copy
import gc
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from designforge import (
    BuildError,
    Design,
    JacobiWeight,
    MultiIndex,
    Quadrature,
    SolverOptions,
    base_s0,
    base_s1,
    product,
    solve_cached,
    solve_equal_weight,
    sphere_monomial_moment,
    verify_design,
)
from designforge import construct, jacobi, verify
from designforge.verify import verify_gegenbauer, verify_monomials
from oracles import gegenbauer_block_sum, mc_moment_oracle, moment_deviations_direct, same_bits


def random_rotation(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def rotated(design, seed):
    pts = np.asarray(design.points, dtype=float) @ random_rotation(design.ambient_dim, seed).T
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Design(ambient_dim=design.ambient_dim, degree=design.degree, points=pts)


def corrupted(design, delta=1e-3):
    """Move one point a distance delta along the sphere (exactly tangential;
    a radial nudge plus renormalization would shrink the effective shift)."""
    pts = np.asarray(design.points, dtype=float).copy()
    p = pts[0] / np.linalg.norm(pts[0])
    for e in np.eye(design.ambient_dim):
        u = e - (e @ p) * p
        if np.linalg.norm(u) > 0.5:
            u /= np.linalg.norm(u)
            break
    pts[0] = np.cos(delta) * p + np.sin(delta) * u
    return Design(ambient_dim=design.ambient_dim, degree=design.degree, points=pts)


class TestVerifyMonomials:
    def test_triangle_passes_degree_two(self):
        report = verify_monomials(base_s1(2), 2, 1e-12)
        assert report.passed and report.max_abs_residual < 1e-15

    def test_triangle_fails_degree_three(self):
        report = verify_monomials(base_s1(2), 3, 1e-9)
        assert not report.passed
        assert report.worst_monomial.degree == 3

    def test_single_point_fails_degree_one(self):
        d = Design(ambient_dim=3, degree=1, points=np.array([[1.0, 0.0, 0.0]]))
        report = verify_monomials(d, 1, 1e-9)
        assert not report.passed
        assert report.max_abs_residual == pytest.approx(1.0)

    def test_monotone_in_degree(self):
        d = base_s1(7)
        residuals = [verify_monomials(d, t, 1e-9).max_abs_residual for t in range(1, 9)]
        assert all(a <= b + 1e-18 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("t", range(1, 13))
    def test_polygon_passes_t_fails_t_plus_one(self, t):
        gon = base_s1(t)
        assert verify_monomials(gon, t, 1e-12).passed
        assert not verify_monomials(gon, t + 1, 5e-17).passed


class TestVerifyGegenbauer:
    def test_square_passes_degree_three(self):
        report = verify_gegenbauer(base_s1(3), 3, 1e-12)
        assert report.passed

    def test_square_fails_degree_four_at_degree_four(self):
        report = verify_gegenbauer(base_s1(3), 4, 1e-9)
        assert not report.passed
        assert report.worst_degree == 4

    def test_antipodal_pair_passes_degree_one(self):
        d = Design(ambient_dim=3, degree=1, points=np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert verify_gegenbauer(d, 1, 1e-12).passed

    def test_ambient_one_unsupported(self):
        d = Design(ambient_dim=1, degree=1, points=np.array([[1.0], [-1.0]]))
        with pytest.raises(ValueError):
            verify_gegenbauer(d, 1, 1e-9)


class TestPairwiseAgainstBlockSum:
    """The moment-deviation form against the direct O(N^2) pairwise sum."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_point_sets_agree(self, dim):
        # verify_design's reports, read off one table, against the per-monomial
        # loop and the direct pairwise sum
        rng = np.random.default_rng(100 + dim)
        for t in range(9):
            pts = rng.standard_normal((20 + 3 * t, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            d = Design(ambient_dim=dim, degree=t, points=pts)
            reports = verify_design(d, t, 1e-9)
            assert [r.method for r in reports] == ["monomial", "gegenbauer"][:1 + (dim >= 2)]
            direct = moment_deviations_direct(d, t)
            residuals = [float(abs(deviation)) for _, deviation in direct]
            assert reports[0].max_abs_residual == max(residuals)
            assert reports[0].worst_monomial == direct[residuals.index(max(residuals))][0]
            if dim >= 2:
                slow = gegenbauer_block_sum(d, t, 1e-9)
                assert reports[1].max_abs_residual == pytest.approx(slow.max_abs_residual, rel=1e-9, abs=0)
                assert reports[1].worst_degree == slow.worst_degree

    @pytest.mark.parametrize("t", [20, 32, 40])
    def test_large_polygon_passes_t_fails_t_plus_one(self, t):
        # summing squared averages instead of squared deviations leaves a
        # rounding floor above 1e-9 by t = 32
        gon = base_s1(t)
        assert verify_gegenbauer(gon, t, 1e-12).passed
        report = verify_gegenbauer(gon, t + 1, 1e-12)
        assert not report.passed
        assert report.worst_degree == t + 1

    def test_ambient_seven_corruption_caught(self, built):
        # a build reads both certificates at every ambient >= 2; the pairwise
        # residual is quadratic in the shift, hence the larger move
        design, report = built(6, 3)
        assert report.root.verify_method == "monomial+gegenbauer"
        bad = corrupted(design, delta=0.1)
        assert not verify_gegenbauer(bad, 3, 1e-9).passed
        assert not gegenbauer_block_sum(bad, 3, 1e-9).passed

    @staticmethod
    def move_root_rule(monkeypatch, shift):
        """Serve S^6's root rule, (3, 4) of degree 1, with one node moved by `shift`."""
        real_solve = construct.solve_cached

        def solve_moving_root_node(m, n, t, opts, cache_obj):
            rule = real_solve(m, n, t, opts, cache_obj)
            if (m, n) != (3, 4):
                return rule
            nodes = rule.nodes.copy()
            nodes[0] += shift
            return Quadrature(weight=rule.weight, degree=t, nodes=nodes, certified=True)

        monkeypatch.setattr(construct, "solve_cached", solve_moving_root_node)

    def test_build_rejects_corrupted_ambient_seven_root(self, monkeypatch, quad_cache):
        # both certificates fail: monomial 1.7e-2, pairwise 1.7e-3
        self.move_root_rule(monkeypatch, 0.1)
        with pytest.raises(BuildError) as excinfo:
            construct.build(construct.plan(6, 3), cache_obj=quad_cache)
        assert excinfo.value.node_path == "root"

    def test_build_rejects_ambient_seven_root_moved_by_default_shift(self, monkeypatch, quad_cache):
        # the pairwise residual of moved_rule's 1e-6 shift is about 1.7e-13,
        # far below 1e-9; the monomial certificate, read at every node, catches it
        self.move_root_rule(monkeypatch, 1e-6)
        with pytest.raises(BuildError) as excinfo:
            construct.build(construct.plan(6, 3), cache_obj=quad_cache)
        assert excinfo.value.node_path == "root"


class TestOneTablePerNode:
    # one table per distinct subtree, children first: S^4 = S^1 x (S^1 x S^0)
    # certifies its second polygon once, and S^6 = (S^1 x S^0) x (S^1 x S^1) its polygon once
    @pytest.mark.parametrize("n,t,dims", [(1, 4, [2]), (2, 3, [2, 1, 3]), (4, 6, [2, 1, 3, 5]), (6, 3, [2, 1, 3, 4, 7])],
                             ids=["1-4", "2-3", "4-6", "6-3"])
    def test_build_makes_one_deviation_table_per_node(self, monkeypatch, quad_cache, n, t, dims):
        calls = []
        real = verify.verify_averages

        def counting(table, dim, degree, tol):
            calls.append(dim)
            return real(table, dim, degree, tol)

        monkeypatch.setattr(verify, "verify_averages", counting)
        _, report = construct.build(construct.plan(n, t), cache_obj=quad_cache)
        assert calls == dims
        assert report.root.verify_method == "monomial+gegenbauer"


def deviation_pairs(design, t):
    """(alpha, deviation) for every |alpha| <= t, in the verifier's graded order."""
    alphas, moments, _, _ = verify._exact_constants(design.ambient_dim, t)
    return list(zip(alphas, verify.walked_averages(design.points, t) - moments))


def random_unit_design(count, dim, t, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Design(ambient_dim=dim, degree=t, points=pts)


class TestDeviationTable:
    """The prefix-product walk against the per-monomial loop it replaced."""

    @staticmethod
    def assert_bit_identical(design, t):
        walked = deviation_pairs(design, t)
        direct = moment_deviations_direct(design, t)
        assert [alpha for alpha, _ in walked] == [alpha for alpha, _ in direct]
        assert same_bits(np.array([d for _, d in walked]), np.array([d for _, d in direct]))

    @pytest.mark.parametrize("n,t", [(0, 3), (1, 4), (2, 4), (3, 3), (4, 2), (5, 2), (6, 3)])
    def test_built_designs(self, built, n, t):
        design = base_s0(t) if n == 0 else built(n, t)[0]
        assert design.ambient_dim == n + 1
        for degree in (0, 1, t):
            self.assert_bit_identical(design, degree)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_point_sets(self, dim):
        for t in range(8):
            self.assert_bit_identical(random_unit_design(17 + 5 * t, dim, t, seed=200 + 10 * dim + t), t)

    @pytest.mark.parametrize("phase", [0.0, 0.7, 3.0])
    def test_small_path_polygons(self, monkeypatch, phase):
        # a build's leaves take the one-pass table walk, and never enter the streaming one
        monkeypatch.setattr(verify, "_walk_streaming", None)
        for t in range(81):
            self.assert_bit_identical(base_s1(t, phase=phase), t)

    def test_small_path_point_pairs(self, monkeypatch):
        monkeypatch.setattr(verify, "_walk_streaming", None)
        for t in range(81):
            self.assert_bit_identical(base_s0(t), t)

    # at (1, 15) the 16 monomials divide the cap, so a set of cap / 16 points fills it exactly
    @pytest.mark.parametrize("dim,t", [(2, 10), (3, 8), (6, 4), (1, 15)])
    def test_both_paths_agree_on_each_side_of_the_cap(self, monkeypatch, dim, t):
        fits = verify._SMALL_TABLE // len(verify._exact_constants(dim, t)[0])
        for count, other in ((fits, "_walk_streaming"), (fits + 1, "_walk_table")):
            pts = random_unit_design(count, dim, t, seed=300 + count).points.astype(np.longdouble)
            table = verify._walk_table(pts, t)
            assert same_bits(table, verify._walk_streaming(pts, t)), (dim, t, count)
            with monkeypatch.context() as patch:  # the path not taken at this size is never entered
                patch.setattr(verify, other, None)
                assert same_bits(verify.walked_averages(pts, t), table / count)

    # (8, 4) is left out: there the d + 1 buffers outweigh the 2t columns that streaming x_0 and x_1 saves
    @pytest.mark.parametrize("dim,t", [(6, 7), (3, 7), (2, 7)])
    def test_memory_freed_on_return_and_below_power_table(self, dim, t):
        # with the cyclic collector off, only reference counting frees the
        # table; the peak stays under a stored table of every x_c^e, e <= t
        count = 50_000
        design = random_unit_design(count, dim, t, seed=7)
        column = count * np.dtype(np.longdouble).itemsize
        gc.disable()
        tracemalloc.start()
        try:
            verify_design(design, t, 1e-9)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert current < column
        assert peak < dim * t * column


class TestStreamingWalk:
    """The streaming walk, forced on sets that fit the cap, against the per-monomial loop."""

    @pytest.fixture(autouse=True)
    def streaming_only(self, monkeypatch):
        monkeypatch.setattr(verify, "_SMALL_TABLE", -1)
        monkeypatch.setattr(verify, "_walk_table", None)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_point_sets(self, dim):
        # d = 1 stores no power and forms no product; t = 0 walks one monomial
        for t in range(8):
            TestDeviationTable.assert_bit_identical(random_unit_design(17 + 5 * t, dim, t, seed=200 + 10 * dim + t), t)

    @pytest.mark.parametrize("phase", [0.0, 0.7, 3.0])
    def test_polygons(self, phase):
        for t in range(81):
            TestDeviationTable.assert_bit_identical(base_s1(t, phase=phase), t)

    def test_point_pairs(self):
        for t in range(81):
            TestDeviationTable.assert_bit_identical(base_s0(t), t)


def count_walks(monkeypatch):
    """The ambient dimension of every point set `verify.walked_averages` walks, in order."""
    entries = []
    real = verify.walked_averages

    def counting(pts, t):
        entries.append(np.shape(pts)[1])
        return real(pts, t)

    monkeypatch.setattr(verify, "walked_averages", counting)
    return entries


def factored_tree(bp, quad_cache, phase=0.0, degree=None):
    """(node, design, table) for every node of the plan, children first, with
    each table of averages up to `degree` (default the plan's) made as
    `construct.certify_plan` makes it: walked for a leaf, read off the
    children's tables and the rule's scales for a product."""
    t = bp.degree
    degree = t if degree is None else degree
    out = []

    def make(node):
        if node.kind != "product":
            design = base_s0(t) if node.kind == "s0" else base_s1(t, phase=phase)
            table = verify.walked_averages(design.points, degree)
        else:
            m, n = node.split
            (X, left), (Y, right) = make(node.left), make(node.right)
            rule = solve_cached(m, n, t // 2, SolverOptions(), quad_cache)
            design = product(X, Y, rule)
            table = verify.product_averages(left, right, construct._scales_of(rule), m, n, degree)
        out.append((node, design, table))
        return design, table

    make(bp.root)
    return out


def walked(design):
    """A new design holding a copy of the points."""
    return Design(ambient_dim=design.ambient_dim, degree=design.degree, points=design.points.copy())


def moved_rule():
    """The (2, 1) rule of degree 2 with one node moved by 1e-6, marked certified by hand."""
    weight = JacobiWeight(2, 1)
    rule, _ = solve_equal_weight(weight, 2)
    nodes = rule.nodes.copy()
    nodes[1] += 1e-6
    return Quadrature(weight=weight, degree=2, nodes=nodes, certified=True)


def verdicts(design, t):
    return [r.passed for r in verify_design(design, t, 1e-9)]


def table_pairs(table, dim, t):
    """(alpha, deviation) for every |alpha| <= t of a table of averages, in graded order."""
    alphas, moments, _, _ = verify._exact_constants(dim, t)
    return list(zip(alphas, table - moments))


def table_verdicts(table, dim, t):
    return [r.passed for r in verify.verify_averages(table, dim, t, 1e-9)]


class TestFactoredTable:
    """A product's table read off its factors' tables, against the walk over its points."""

    @pytest.mark.parametrize(
        "n,t,overrides,phase",
        [(2, 10, None, 0.0), (3, 7, None, 0.0), (4, 6, None, 0.0), (5, 5, None, 0.0), (6, 4, None, 0.0),
         (7, 4, None, 0.0), (8, 3, None, 0.0), (9, 3, None, 0.0),
         (5, 4, {6: (4, 2)}, 0.0), (4, 5, {5: (1, 4)}, 0.0), (3, 5, None, 0.3)],
    )
    def test_matches_direct_walk(self, quad_cache, n, t, overrides, phase):
        for degree in (t, t + 1):
            for node, design, table in factored_tree(construct.plan(n, t, overrides), quad_cache, phase, degree):
                if node.kind != "product":
                    continue
                direct = walked(design)
                factored = table_pairs(table, design.ambient_dim, degree)
                walk = deviation_pairs(direct, degree)
                assert [alpha for alpha, _ in factored] == [alpha for alpha, _ in walk]
                gap = max(abs(a - b) for (_, a), (_, b) in zip(factored, walk))
                assert gap <= 1e-18, (node.ambient_dim, degree, float(gap))
                assert table_verdicts(table, design.ambient_dim, degree) == verdicts(direct, degree)

    def test_moved_quadrature_node_fails_at_its_product(self, quad_cache):
        circle, pair, rule = base_s1(5), base_s0(5), moved_rule()
        design = product(circle, pair, rule)
        table = verify.product_averages(verify.walked_averages(circle.points, 5), verify.walked_averages(pair.points, 5),
                                        construct._scales_of(rule), 2, 1, 5)
        reports = verify.verify_averages(table, 3, 5, 1e-9)
        assert not all(r.passed for r in reports)
        direct = verify_design(walked(design), 5, 1e-9)
        assert [r.max_abs_residual for r in reports] == pytest.approx([r.max_abs_residual for r in direct], rel=1e-6)

    def test_build_rejects_moved_quadrature_node(self, monkeypatch, quad_cache):
        # S^4 = S^1 x S^2 and S^2 = S^1 x S^0: the (2, 1) rule is the right child's
        moved = moved_rule()
        real_solve = construct.solve_cached

        def solve_moving_one_node(m, n, t, opts, cache_obj):
            return moved if (m, n) == (2, 1) else real_solve(m, n, t, opts, cache_obj)

        monkeypatch.setattr(construct, "solve_cached", solve_moving_one_node)
        with pytest.raises(BuildError) as excinfo:
            construct.build(construct.plan(4, 5), cache_obj=quad_cache)
        assert excinfo.value.node_path == "R"

    def test_replaced_points_are_walked(self, monkeypatch, quad_cache):
        design = product(base_s1(5), base_s0(5), solve_cached(2, 1, 2, SolverOptions(), quad_cache))
        design.points = corrupted(design).points
        entries = count_walks(monkeypatch)
        assert not all(verdicts(design, 5))
        assert entries == [3]

    def test_replaced_factor_points_are_walked(self, monkeypatch, quad_cache):
        circle = base_s1(5)
        design = product(circle, base_s0(5), solve_cached(2, 1, 2, SolverOptions(), quad_cache))
        circle.points = base_s1(5, phase=0.1).points
        entries = count_walks(monkeypatch)
        assert all(verdicts(design, 5))
        assert entries == [3]

    def test_writable_points_keep_no_table(self):
        # an in-place write to writable points must show in the next certificate
        design = Design(ambient_dim=2, degree=3, points=base_s1(3).points.copy())
        assert all(verdicts(design, 3))
        design.points[0] = design.points[1]
        assert not any(verdicts(design, 3))

    def test_copied_design_is_walked(self, quad_cache):
        # a copy's points are writable, so a write to them must show
        design = product(base_s1(5), base_s0(5), solve_cached(2, 1, 2, SolverOptions(), quad_cache))
        assert all(verdicts(design, 5))
        copied = copy.deepcopy(design)
        copied.points[0] = copied.points[1]
        assert not all(verdicts(copied, 5))

    @pytest.mark.parametrize("n,t", [(5, 7), (6, 3)])
    def test_build_walks_only_leaf_points(self, monkeypatch, quad_cache, n, t):
        # a product's table costs O(C(d+t, t) + K t^2); a walk over its points would be O(N C(d+t, t));
        # each distinct leaf, the polygon and the pair, is walked once
        entries = count_walks(monkeypatch)
        design, _ = construct.build(construct.plan(n, t), cache_obj=quad_cache)
        assert entries == [2, 1]

    def test_build_keeps_no_design_below_the_root(self, monkeypatch, quad_cache):
        refs = []
        real_product = construct.product

        def recording_product(X, Y, quad):
            refs.extend([weakref.ref(X), weakref.ref(Y)])
            return real_product(X, Y, quad)

        monkeypatch.setattr(construct, "product", recording_product)
        gc.disable()
        try:
            design, _ = construct.build(construct.plan(5, 7), cache_obj=quad_cache)
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        # S^5 = S^2 x S^2: the S^2 = S^1 x S^0 is formed once and passed as both factors
        assert len(refs) == 4 and not any(alive)


class TestExactConstants:
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_zonal_rows_match_scipy(self, dim):
        from scipy.special import eval_chebyt, eval_gegenbauer

        rows = verify._zonal_coefficients(dim, 12)
        s = np.linspace(-1.0, 1.0, 41)
        for k, row in enumerate(rows):
            # Horner in long double, as the rows are used
            value = np.zeros_like(s, dtype=np.longdouble)
            for c in row[::-1]:
                value = value * s + c
            if dim == 2:
                expected = eval_chebyt(k, s)
            else:
                lam = (dim - 2) / 2
                expected = eval_gegenbauer(k, lam, s) / eval_gegenbauer(k, lam, 1.0)
            assert np.max(np.abs(value.astype(float) - expected)) <= 1e-13, (dim, k)

    def test_zonal_rows_match_per_coefficient_division(self):
        """Dividing each row by its sum, taken once, gives the bytes of taking
        sum(row) again for every coefficient."""
        for dim in range(2, 7):
            for t in range(21):
                _, b = jacobi.recurrence_coefficients(JacobiWeight(dim - 1, dim - 1), t)
                rows = [[Fraction(0)] * (t + 1), [Fraction(1)] + [Fraction(0)] * t]
                for k in range(t):
                    rows.append([c - b[k] * p for c, p in zip([Fraction(0)] + rows[-1][:-1], rows[-2])])
                expected = verify._read_only([c / sum(row) for row in rows[1:] for c in row])
                assert same_bits(verify._zonal_coefficients(dim, t), expected.reshape(t + 1, t + 1)), (dim, t)

    def test_indices_enumerated_once_per_dim_and_degree(self, monkeypatch):
        calls = []
        enumerate_indices = verify.iter_multi_indices

        def counted(dim, t):
            calls.append((dim, t))
            return enumerate_indices(dim, t)

        monkeypatch.setattr(verify, "iter_multi_indices", counted)
        verify._exact_constants.cache_clear()
        verify_design(base_s1(4), 3, 1e-9)
        verify_design(base_s1(6), 3, 1e-9)
        assert calls == [(2, 3)]

    def test_cached_arrays_are_read_only(self):
        _, moments, multinomials, _ = verify._exact_constants(3, 4)
        for array in (moments, multinomials, verify._zonal_coefficients(3, 4)):
            with pytest.raises(ValueError):
                array.flat[0] = 1


def loop_squares(design, t):
    """The per-degree sums of (|alpha|!/alpha!) delta_alpha^2 as the per-monomial
    loop added them, one alpha at a time in graded order."""
    _, _, multinomials, _ = verify._exact_constants(design.ambient_dim, t)
    squares = np.zeros(t + 1, dtype=np.longdouble)
    for (alpha, delta), weight in zip(deviation_pairs(design, t), multinomials):
        squares[alpha.degree] += weight * delta * delta
    return squares


def loop_reports(design, t):
    """[(residual, worst monomial), (residual, worst degree) if ambient >= 2] with
    abs and float applied one value at a time, as the loops did."""
    pairs = deviation_pairs(design, t)
    residuals = [float(abs(delta)) for _, delta in pairs]
    i = int(np.argmax(residuals))
    out = [(residuals[i], pairs[i][0])]
    if design.ambient_dim >= 2:
        sums = [float(abs(v)) for v in verify._zonal_coefficients(design.ambient_dim, t) @ loop_squares(design, t)]
        k = int(np.argmax(sums[1:])) + 1 if t > 0 else None
        out.append((sums[k] if k else 0.0, k))
    return out


class TestArrayReductions:
    """The reports' array reductions give the loops' values bit for bit."""

    @pytest.mark.parametrize("n,t", [(2, 10), (2, 14), (3, 6), (4, 4), (6, 3)])
    def test_built_designs(self, built, n, t):
        design, _ = built(n, t)
        for degree in range(t + 2):
            self.assert_same(design, degree)

    @pytest.mark.parametrize("dim,seed", [(1, 0), (2, 1), (3, 2), (5, 3)])
    def test_random_sets(self, dim, seed):
        design = random_unit_design(40, dim, 5, seed)
        for degree in range(7):
            self.assert_same(design, degree)

    @staticmethod
    def assert_same(design, t):
        deviations = verify.walked_averages(design.points, t) - verify._exact_constants(design.ambient_dim, t)[1]
        squares = verify._degree_squares(deviations, design.ambient_dim, t)
        assert np.array_equal(squares, loop_squares(design, t))  # exact, in long double
        reports = verify_design(design, t, 1e-9)
        got = [(reports[0].max_abs_residual, reports[0].worst_monomial)]
        got += [(r.max_abs_residual, r.worst_degree) for r in reports[1:]]
        assert got == loop_reports(design, t)


class TestWorstEntry:
    """Ties are real, and the first entry in order wins."""

    def test_first_largest_monomial(self):
        # the triangle at degree 3: (3, 0) and (1, 2) both deviate by exactly 0.25
        report = verify_monomials(base_s1(2), 3, 1e-9)
        assert report.max_abs_residual == 0.25
        assert report.worst_monomial == MultiIndex((3, 0))

    def test_first_largest_degree(self):
        # the antipodal pair: the even degrees k = 2 and k = 4 both read 1.0
        report = verify_gegenbauer(base_s1(1), 4, 1e-9)
        assert report.max_abs_residual == 1.0
        assert report.worst_degree == 2


class TestAgreementAndInvariance:
    @pytest.mark.parametrize("n,t", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_methods_agree_on_built_designs(self, built, n, t):
        design, _ = built(n, t)
        a = verify_monomials(design, t, 1e-9)
        b = verify_gegenbauer(design, t, 1e-9)
        assert a.passed and b.passed

    @pytest.mark.parametrize("n,t", [(2, 3), (3, 2)])
    def test_both_methods_detect_corruption(self, built, n, t):
        design, _ = built(n, t)
        bad = corrupted(design)
        assert not verify_monomials(bad, t, 1e-9).passed
        assert not verify_gegenbauer(bad, t, 1e-9).passed

    def test_rotation_keeps_monomial_verdict(self, built):
        design, _ = built(2, 4)
        tol = 1e-9
        assert verify_monomials(design, 4, tol).passed
        for seed in (1, 2, 3):
            spun = rotated(design, seed)
            report = verify_monomials(spun, 4, 10 * tol)
            assert report.passed, report.max_abs_residual

    def test_rotation_leaves_gegenbauer_residual_unchanged(self, built):
        design, _ = built(3, 3)
        base = verify_gegenbauer(design, 3, 1e-9).max_abs_residual
        spun = verify_gegenbauer(rotated(design, 7), 3, 1e-9).max_abs_residual
        assert abs(base - spun) < 1e-12


class TestMonteCarloOracle:
    def test_deterministic_for_fixed_seed(self):
        a = mc_moment_oracle(3, MultiIndex((2, 0, 0)), 10_000, seed=5)
        b = mc_moment_oracle(3, MultiIndex((2, 0, 0)), 10_000, seed=5)
        assert a == b

    def test_second_moment_within_three_sigma(self):
        est, se = mc_moment_oracle(3, MultiIndex((2, 0, 0)), 200_000, seed=11)
        assert abs(est - 1 / 3) <= 3 * se

    def test_odd_moment_within_three_sigma(self):
        est, se = mc_moment_oracle(3, MultiIndex((1, 0, 0)), 200_000, seed=12)
        assert abs(est) <= 3 * se

    def test_mixed_moment_matches_closed_form(self):
        alpha = MultiIndex((2, 2, 0, 0))
        est, se = mc_moment_oracle(4, alpha, 200_000, seed=13)
        exact = float(sphere_monomial_moment(4, alpha))
        assert abs(est - exact) <= 3 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_moment_oracle(3, MultiIndex((2, 0)), 100, seed=0)
        with pytest.raises(ValueError):
            mc_moment_oracle(2, MultiIndex((2, 0)), 0, seed=0)
