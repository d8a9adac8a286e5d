"""Both verification criteria, their agreement, and the Monte Carlo oracle."""
import gc
import tracemalloc

import numpy as np
import pytest

from designforge import (
    BuildError,
    Design,
    MultiIndex,
    base_s0,
    base_s1,
    sphere_monomial_moment,
    verify_design,
    verify_gegenbauer,
    verify_monomials,
)
from designforge import construct, verify
from oracles import gegenbauer_block_sum, mc_moment_oracle, moment_deviations_direct


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
        # verify_design, reading one table, matches the two verifiers run apart
        rng = np.random.default_rng(100 + dim)
        for t in range(9):
            pts = rng.standard_normal((20 + 3 * t, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            d = Design(ambient_dim=dim, degree=t, points=pts)
            separate = [verify_monomials(d, t, 1e-9)]
            if dim >= 2:
                fast = verify_gegenbauer(d, t, 1e-9)
                slow = gegenbauer_block_sum(d, t, 1e-9)
                assert fast.max_abs_residual == pytest.approx(slow.max_abs_residual, rel=1e-9, abs=0)
                assert fast.worst_degree == slow.worst_degree
                separate.append(fast)
            assert verify_design(d, t, 1e-9) == separate

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

    def test_build_rejects_corrupted_ambient_seven_root(self, monkeypatch, quad_cache):
        real_product = construct.product

        def corrupting_product(X, Y, quad):
            design = real_product(X, Y, quad)
            return corrupted(design, delta=0.1) if design.ambient_dim == 7 else design

        monkeypatch.setattr(construct, "product", corrupting_product)
        with pytest.raises(BuildError) as excinfo:
            construct.build(construct.plan(6, 3), cache_obj=quad_cache)
        assert excinfo.value.node_path == "root"

    def test_build_rejects_ambient_seven_root_moved_by_default_shift(self, monkeypatch, quad_cache):
        # the pairwise residual of a 1e-3 move is far below 1e-9; the
        # monomial certificate, read at every node, catches it
        real_product = construct.product

        def corrupting_product(X, Y, quad):
            design = real_product(X, Y, quad)
            return corrupted(design) if design.ambient_dim == 7 else design

        monkeypatch.setattr(construct, "product", corrupting_product)
        with pytest.raises(BuildError) as excinfo:
            construct.build(construct.plan(6, 3), cache_obj=quad_cache)
        assert excinfo.value.node_path == "root"


class TestOneTablePerNode:
    @pytest.mark.parametrize("n,t", [(1, 4), (2, 3), (4, 6), (6, 3)])
    def test_build_makes_one_deviation_table_per_node(self, monkeypatch, quad_cache, n, t):
        calls = []
        real = verify._moment_deviations

        def counting(design, degree):
            calls.append(design.ambient_dim)
            return real(design, degree)

        def tree_dims(node):
            children = [] if node.kind != "product" else [node.left, node.right]
            return [d for c in children for d in tree_dims(c)] + [node.ambient_dim]

        monkeypatch.setattr(verify, "_moment_deviations", counting)
        bp = construct.plan(n, t)
        _, report = construct.build(bp, cache_obj=quad_cache)
        assert calls == tree_dims(bp.root)
        assert report.root.verify_method == "monomial+gegenbauer"


def random_unit_design(count, dim, t, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Design(ambient_dim=dim, degree=t, points=pts)


class TestDeviationTable:
    """The prefix-product walk against the per-monomial loop it replaced."""

    @staticmethod
    def assert_bit_identical(design, t):
        walked = verify._moment_deviations(design, t)
        direct = moment_deviations_direct(design, t)
        assert [alpha for alpha, _ in walked] == [alpha for alpha, _ in direct]
        assert [np.asarray(d).tobytes() for _, d in walked] == [np.asarray(d).tobytes() for _, d in direct]

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

    def test_memory_freed_on_return_and_below_power_table(self):
        # with the cyclic collector off, only reference counting frees the
        # table; the peak stays under a stored table of every x_c^e, e <= t
        count, dim, t = 50_000, 6, 7
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

    def test_cached_arrays_are_read_only(self):
        moments, multinomials = verify._exact_constants(3, 4)
        for array in (moments, multinomials, verify._zonal_coefficients(3, 4)):
            with pytest.raises(ValueError):
                array.flat[0] = 1


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
