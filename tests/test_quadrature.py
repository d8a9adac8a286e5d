"""Gaussian initializers, residual evaluation, and the equal-weight solver."""
import json
import math

import mpmath as mp
import numpy as np
import pytest

from designforge import (
    JacobiWeight,
    NoConvergenceError,
    Quadrature,
    SolverOptions,
    base_s0,
    base_s1,
    certify,
    jacobi_moment_ratio,
    plan,
    product,
    solve_cached,
    solve_equal_weight,
)
from designforge.jacobi import _coefficients, _to_dtype, gauss_rule, orthonormal_values, recurrence_coefficients
import designforge.quadrature as quadrature_module
from designforge.quadrature import (
    _fewest_nodes,
    _init_gauss_multiplicity,
    _init_quantile,
    _levenberg_marquardt,
    _lm_step,
    _quantile_table,
)
from designforge.formats import decode_floats, rule_from_json, rule_text
from oracles import encode_floats, orthonormal_values_direct, power_moment, same_bits, sin_cos_integral

mp.mp.dps = 40


class TestGaussJacobiInit:
    def test_midpoint_rule_for_flat_weight(self):
        nodes, weights = gauss_rule(JacobiWeight(2, 2), 1)
        assert nodes == pytest.approx([0.0], abs=1e-15)
        assert weights == pytest.approx([2.0], abs=1e-14)

    def test_two_point_flat_weight(self):
        nodes, weights = gauss_rule(JacobiWeight(2, 2), 2)
        root = 1 / math.sqrt(3)
        assert nodes == pytest.approx([-root, root], abs=1e-14)
        assert weights == pytest.approx([1.0, 1.0], abs=1e-13)
        # exactness through degree 3 against the raw integrals on [-1, 1]
        for d, integral in enumerate([2.0, 0.0, 2 / 3, 0.0]):
            assert float(weights @ nodes**d) == pytest.approx(integral, abs=1e-13)

    def test_single_node_is_weight_mean(self):
        nodes, _ = gauss_rule(JacobiWeight(2, 1), 1)
        assert nodes == pytest.approx([-1 / 3], abs=1e-15)

    @pytest.mark.parametrize("m,n", [(2, 1), (1, 1), (3, 2), (4, 4), (5, 3)])
    @pytest.mark.parametrize("count", [1, 2, 4, 7])
    def test_positive_weights_and_moment_exactness(self, m, n, count):
        w = JacobiWeight(m, n)
        nodes, weights = gauss_rule(w, count)
        assert np.all(weights > 0)
        assert float(weights.sum()) == pytest.approx(w.mass, rel=1e-12)
        for d in range(2 * count):
            normalized = float(weights @ nodes**d) / w.mass
            assert normalized == pytest.approx(float(power_moment(w, d)), abs=5e-13)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            gauss_rule(JacobiWeight(2, 2), 0)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_scipy_tridiagonal_eigensolver(self, m, n):
        # scipy is a test-only oracle: Golub-Welsch on the same matrix, by a tridiagonal solver
        from scipy.linalg import eigh_tridiagonal

        w = JacobiWeight(m, n)
        for count in (1, 2, 3, 5, 10, 25, 60):
            nodes, weights = gauss_rule(w, count)
            diag, sqrt_b = _coefficients(w, count, np.float64)
            ref_nodes, vectors = eigh_tridiagonal(diag, sqrt_b[1:])
            ref_weights = w.mass * vectors[0] ** 2
            # a symmetric eigensolver's error scales with the matrix norm, here <= 1
            assert np.max(np.abs(nodes - ref_nodes)) <= 2 * np.spacing(1.0), count
            assert np.all(np.abs(weights - ref_weights) <= 2 * np.spacing(ref_weights)), count


class TestQuantileStart:
    """`_init_quantile` against the weight's distribution: a start read off a table, held to 1e-5 in level."""

    def test_oracle_is_the_regularized_incomplete_beta(self):
        # with u = sin^2(phi), the integral over its full value is I_u(n/2, m/2)
        for m, n in [(1, 1), (3, 8), (8, 2), (5, 5)]:
            total = sin_cos_integral(n - 1, m - 1, mp.mpf(1), mp.mpf(0))
            for u in map(mp.mpf, ("0.01", "0.3", "0.77", "0.999")):
                ratio = sin_cos_integral(n - 1, m - 1, mp.sqrt(u), mp.sqrt(1 - u)) / total
                exact = mp.betainc(mp.mpf(n) / 2, mp.mpf(m) / 2, 0, u, regularized=True)
                assert abs(ratio - exact) < mp.mpf(10) ** -35

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_40_digit_inversion(self, m, n):
        # each t = cos(theta) has level F(t) = J(a, b)/Z in phi, with u = (1+t)/2 =
        # sin^2(phi), evaluated in 40 digits; it is within 1e-5 of (k - 1/2)/K
        a, b = n - 1, m - 1
        total = sin_cos_integral(a, b, mp.mpf(1), mp.mpf(0))
        for K in (1, 2, 5, 48, 345):
            theta = _init_quantile(JacobiWeight(m, n), K)
            assert np.all(np.diff(theta) > 0) and 0 < theta[0] and theta[-1] < math.pi
            for k, t in enumerate(np.cos(theta[::-1]).tolist()):
                u = (1 + mp.mpf(t)) / 2
                level = sin_cos_integral(a, b, mp.sqrt(u), mp.sqrt(1 - u)) / total
                assert abs(level - mp.mpf(2 * k + 1) / (2 * K)) <= 1e-5, (K, k)

    @pytest.mark.parametrize("m,n", [(16, 3), (50, 50), (3, 100), (200, 200), (1100, 1100), (3000, 3000), (3000, 5)])
    def test_narrow_weights_match_scipy(self, m, n):
        # the bump narrows like 1/sqrt(m + n) and its table is formed in logs,
        # so even (3000, 3000) neither underflows nor leaves two angles equal
        from scipy.special import betainc

        theta = _init_quantile(JacobiWeight(m, n), 512)
        assert np.all(np.isfinite(theta)) and np.all(np.diff(theta) > 0)
        assert 0 < theta[0] and theta[-1] < math.pi
        # node k lies in the k-th of 512 equal-mass bands; scipy is a test-only oracle
        levels = betainc(n / 2, m / 2, (1 + np.cos(theta[::-1])) / 2)
        assert np.all(np.abs(512 * levels - (np.arange(512) + 0.5)) < 0.5)

    def test_one_read_only_table_per_weight(self):
        _quantile_table.cache_clear()
        weights = [JacobiWeight(2, 1), JacobiWeight(4, 3)]
        for w in weights:
            for K in (1, 8, 14, 345):
                _init_quantile(w, K)
        info = _quantile_table.cache_info()
        assert info.misses == len(weights) and info.hits == 3 * len(weights)
        for w in weights:
            cdf, edges = _quantile_table(w)
            with pytest.raises(ValueError):
                cdf[0] = 1.0
            with pytest.raises(ValueError):
                edges[0] = 1.0
            # the cached table equals one formed afresh, bit for bit
            width = math.pi / 2 / quadrature_module.QUANTILE_CELLS
            phi = (np.arange(quadrature_module.QUANTILE_CELLS) + 0.5) * width
            log_density = (w.n - 1) * np.log(np.sin(phi)) + (w.m - 1) * np.log(np.cos(phi))
            assert same_bits(cdf, np.concatenate([[0.0], np.cumsum(np.exp(log_density - log_density.max()))]))
            assert same_bits(edges, np.arange(quadrature_module.QUANTILE_CELLS + 1) * width)


class TestOrthonormalPolynomials:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 1), (3, 2)])
    def test_against_gram_schmidt_oracle(self, m, n):
        # independent route: moments by numerical integration, then
        # Gram-Schmidt on the monomial basis in 40-digit arithmetic
        weight = lambda x: (1 - x) ** (mp.mpf(m - 2) / 2) * (1 + x) ** (mp.mpf(n - 2) / 2)
        mass = mp.quad(weight, [-1, 0, 1])
        dmax = 6
        mom = [mp.quad(lambda x: x**d * weight(x), [-1, 0, 1]) / mass for d in range(2 * dmax + 1)]
        coeffs = []
        for d in range(dmax + 1):
            c = [mp.mpf(0)] * (d + 1)
            c[d] = mp.mpf(1)
            for e in coeffs:
                proj = mp.fsum(e[j] * mom[d + j] for j in range(len(e)))
                for j in range(len(e)):
                    c[j] -= proj * e[j]
            norm2 = mp.fsum(
                c[i] * c[j] * mom[i + j] for i in range(d + 1) for j in range(d + 1)
            )
            coeffs.append([ci / mp.sqrt(norm2) for ci in c])

        xs = np.array([-0.9, -0.3, 0.25, 0.8])
        values = orthonormal_values(JacobiWeight(m, n), dmax, xs)
        for i, x in enumerate(xs):
            for d, c in enumerate(coeffs):
                oracle = float(mp.fsum(c[j] * mp.mpf(x) ** j for j in range(len(c))))
                assert values[d, i] == pytest.approx(oracle, abs=5e-15)


class TestStackedRecurrence:
    """The stacked kernel against the per-row loop it replaced, bit for bit."""

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_per_row_loop(self, m, n):
        w = JacobiWeight(m, n)
        rng = np.random.default_rng(10 * m + n)
        for K in (1, 3, 14, 60):
            x = rng.uniform(-1.0, 1.0, K)
            x[0], x[-1] = -1.0, 1.0
            for dtype in (np.float64, np.longdouble):
                # the loop's first d + 1 rows do not depend on how far it runs
                values, derivatives = orthonormal_values_direct(w, 40, x, dtype, with_derivative=True)
                for degree in range(41):
                    p, dp = orthonormal_values(w, degree, x, dtype, with_derivative=True)
                    assert same_bits(p, values[: degree + 1]), (K, dtype, degree)
                    assert same_bits(dp, derivatives[: degree + 1]), (K, dtype, degree)
                    assert same_bits(orthonormal_values(w, degree, x, dtype), values[: degree + 1]), (K, dtype, degree)


class TestLMStep:
    """`_lm_step` against the Marquardt step (J^T J + lam D)^-1 J^T r."""

    @staticmethod
    def float64_step(jac, r, lam):
        """The K x K step as the solver formed it before the t x t form."""
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        floor = 1e-12 * max(diag.max(), 1e-30)
        diag[diag < floor] = floor
        return np.linalg.solve(jtj + lam * np.diag(diag), jac.T @ r)

    @staticmethod
    def exact_step(jac, r, lam):
        """The same K x K step solved in 50-digit arithmetic."""
        with mp.workdps(50):
            J = mp.matrix(jac.tolist())
            jtj = J.T * J
            diag = [jtj[i, i] for i in range(jac.shape[1])]
            floor = mp.mpf(1e-12) * max(max(diag), mp.mpf(1e-30))
            for i, d in enumerate(diag):
                jtj[i, i] += mp.mpf(lam) * max(d, floor)
            return np.array([float(v) for v in mp.lu_solve(jtj, J.T * mp.matrix(r.tolist()))])

    @pytest.mark.parametrize("t,K", [(1, 2), (3, 4), (5, 12), (10, 41)])
    @pytest.mark.parametrize("lam", [1e-14, 1e-3, 10.0])
    def test_t_by_t_step_matches_the_K_by_K_step(self, t, K, lam):
        # at lam = 1e-14 the K x K matrix is singular but for the damping
        # (rank t < K), and a float64 solve of it can be off by 1e-2 and
        # more; the 50-digit solve is the reference there
        rng = np.random.default_rng(1000 * t + K)
        jac, r = rng.standard_normal((t, K)), rng.standard_normal(t)
        step = _lm_step(jac, r, lam)
        exact = self.exact_step(jac, r, lam)
        assert np.linalg.norm(step - exact) <= 1e-10 * np.linalg.norm(exact)
        if lam >= 1e-3:
            float64 = self.float64_step(jac, r, lam)
            assert np.linalg.norm(step - float64) <= 1e-10 * np.linalg.norm(float64)

    @pytest.mark.parametrize("t,K", [(4, 4), (12, 5)])
    def test_K_at_most_t_keeps_the_K_by_K_form(self, t, K):
        rng = np.random.default_rng(t + K)
        jac, r = rng.standard_normal((t, K)), rng.standard_normal(t)
        for lam in (1e-14, 1e-3, 10.0):
            assert same_bits(_lm_step(jac, r, lam), self.float64_step(jac, r, lam))

    def test_floored_column_scale(self):
        # a zero column of J gets the floored scale, not a division by zero
        jac = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
        r = np.array([0.3, -0.2])
        step = _lm_step(jac, r, 1e-3)
        exact = self.exact_step(jac, r, 1e-3)
        assert np.all(np.isfinite(step)) and step[1] == 0.0
        assert np.linalg.norm(step - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize("t,K", [(20, 89), (30, 183), (38, 345)])
    def test_high_degree_keeps_K(self, t, K):
        q, _ = solve_equal_weight(JacobiWeight(2, 1), t)
        assert q.certified and q.K == K


class TestCachedCoefficients:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 3), (1, 4)])
    def test_match_exact_fraction_conversion(self, dtype, m, n):
        w = JacobiWeight(m, n)
        a, sqrt_b = _coefficients(w, 12, dtype)
        a_frac, b_frac = recurrence_coefficients(w, 12)
        assert a.dtype == dtype and sqrt_b.dtype == dtype
        assert np.array_equal(a, _to_dtype(a_frac, dtype))
        assert np.array_equal(sqrt_b, np.sqrt(_to_dtype(b_frac, dtype)))

    def test_read_only(self):
        w = JacobiWeight(2, 1)
        for array in (*_coefficients(w, 5, np.float64), *gauss_rule(w, 1), *gauss_rule(w, 5)):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestStallRule:
    def _inits(self, w, t, K):
        return [_init_gauss_multiplicity(w, t, K), _init_quantile(w, K)]

    def test_doomed_K_stops_early(self):
        # no equal-weight rule of degree 10 for (2, 1) has 6 nodes; the
        # residual plateaus and every init used to run all 300 iterations
        w = JacobiWeight(2, 1)
        for theta0 in self._inits(w, 10, 6):
            _, max_r, iters = _levenberg_marquardt(theta0, w, 10, 1e-12)
            assert max_r > 1e-3
            assert iters < 100

    def test_succeeding_attempt_still_converges(self):
        w = JacobiWeight(2, 1)
        theta, max_r, _ = _levenberg_marquardt(_init_gauss_multiplicity(w, 10, 21), w, 10, 1e-12)
        assert max_r <= 0.05 * 1e-12
        q = Quadrature(weight=w, degree=10, nodes=np.cos(theta))
        certify(q, 1e-12)
        assert q.certified and q.K == 21

    @pytest.mark.parametrize("m,n,t,K", [(4, 1, 14, 315), (1, 4, 14, 315), (1, 2, 6, 9)])
    def test_solves_one_iteration_inside_the_window_still_certify(self, m, n, t, K):
        # at K each quantile start fails and the Gauss start certifies; that of (4, 1)
        # and (1, 4) at degree 14 goes STALL_WINDOW - 1 iterations without a STALL_GAIN gain
        q, _ = solve_equal_weight(JacobiWeight(m, n), t)
        assert q.certified and q.K <= K


class TestResidualVector:
    def test_midpoint_kills_degree_one(self):
        q = Quadrature(weight=JacobiWeight(2, 2), degree=1, nodes=np.array([0.0]))
        assert certify(q, 1e-12).residuals == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_gauss_pair_exact_through_degree_three(self):
        root = 1 / math.sqrt(3)
        q = Quadrature(weight=JacobiWeight(2, 2), degree=3, nodes=np.array([-root, root]))
        assert np.max(np.abs(certify(q, 1e-12).residuals)) < 1e-14

    def test_endpoints_fail_degree_two(self):
        # exact Gram-Schmidt for the flat weight: P2 = (x^2 - 1/3)/sqrt(4/45),
        # so P2(+-1) = sqrt(5) and the equal-weight average at {-1, 1} is sqrt(5)
        q = Quadrature(weight=JacobiWeight(2, 2), degree=2, nodes=np.array([-1.0, 1.0]))
        r = certify(q, 1e-12).residuals
        assert r[2] == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_permutation_invariant(self):
        nodes = np.array([0.7, -0.2, 0.1, -0.9])
        a = certify(Quadrature(weight=JacobiWeight(3, 2), degree=4, nodes=nodes), 1e-12).residuals
        b = certify(
            Quadrature(weight=JacobiWeight(3, 2), degree=4, nodes=nodes[::-1].copy()), 1e-12
        ).residuals
        assert np.array_equal(a, b)  # nodes are canonicalized to ascending order


class TestCertify:
    def test_gauss_pair_certifies(self):
        root = 1 / math.sqrt(3)
        q = Quadrature(weight=JacobiWeight(2, 2), degree=3, nodes=np.array([-root, root]))
        report = certify(q, 1e-12)
        assert q.certified and report.max_abs_residual < 1e-14

    def test_endpoints_do_not_certify(self):
        q = Quadrature(weight=JacobiWeight(2, 2), degree=2, nodes=np.array([-1.0, 1.0]))
        certify(q, 1e-12)
        assert not q.certified

    def test_degree_zero_always_certifies(self):
        q = Quadrature(weight=JacobiWeight(5, 1), degree=0, nodes=np.array([0.37]))
        report = certify(q, 1e-12)
        assert q.certified and report.max_abs_residual == 0.0


class TestSolveEqualWeight:
    def test_degree_zero(self):
        q, report = solve_equal_weight(JacobiWeight(2, 2), 0)
        assert q.K == 1 and q.certified
        assert report.residuals == pytest.approx([0.0])

    def test_flat_weight_degree_three_golden(self):
        q, report = solve_equal_weight(JacobiWeight(2, 2), 3)
        root = 1 / math.sqrt(3)
        assert q.K == 2
        assert q.nodes == pytest.approx([-root, root], abs=1e-12)
        assert report.max_abs_residual <= 1e-12

    def test_mean_node_golden(self):
        q, _ = solve_equal_weight(JacobiWeight(2, 1), 1)
        assert q.K == 1
        assert q.nodes == pytest.approx([-1 / 3], abs=1e-12)

    @pytest.mark.parametrize("m,n,t", [(2, 1, 4), (2, 2, 5), (2, 3, 4), (3, 3, 4), (1, 1, 3)])
    def test_certified_reproduces_exact_split_moments(self, m, n, t):
        # the defining property in its raw form: equal-weight averages of
        # ((1-t)/2)^a ((1+t)/2)^b match the exact normalized moments
        w = JacobiWeight(m, n)
        q, _ = solve_equal_weight(w, t)
        assert q.certified
        u_minus = (1.0 - q.nodes) / 2.0
        u_plus = (1.0 + q.nodes) / 2.0
        for a in range(t + 1):
            for b in range(t + 1 - a):
                average = float(np.mean(u_minus**a * u_plus**b))
                exact = float(jacobi_moment_ratio(w, a, b))
                assert abs(average - exact) <= 10 * q.tolerance

    def test_symmetric_weight_nodes_symmetric_or_symmetrizable(self):
        q, _ = solve_equal_weight(JacobiWeight(3, 3), 5)
        nodes = q.nodes
        mirrored = -nodes[::-1]
        if np.max(np.abs(nodes - mirrored)) > q.tolerance:
            symmetrized = (nodes - nodes[::-1]) / 2.0
            qs = Quadrature(weight=q.weight, degree=q.degree, nodes=symmetrized)
            certify(qs, q.tolerance)
            assert qs.certified

    def test_doubling_nodes_stays_certified(self):
        q, _ = solve_equal_weight(JacobiWeight(2, 1), 3)
        doubled = Quadrature(
            weight=q.weight, degree=q.degree, nodes=np.concatenate([q.nodes, q.nodes])
        )
        certify(doubled, q.tolerance)
        assert doubled.certified and doubled.K == 2 * q.K

    def test_no_convergence_carries_best_attempt(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "MAX_ITERATIONS", 5)
        # (2, 1) at degree 7: bound 10, so the one rung tried is K = max_K = 10
        with pytest.raises(NoConvergenceError) as err:
            solve_equal_weight(JacobiWeight(2, 1), 7, SolverOptions(max_K=10))
        assert err.value.best.K == 10
        assert err.value.report.max_abs_residual > 1e-12

    def test_degree_past_max_K_is_refused_before_any_attempt(self, monkeypatch):
        calls = []
        real_gauss, real_lm, real_quantile = (
            quadrature_module.gauss_rule, quadrature_module._levenberg_marquardt, quadrature_module._init_quantile)
        monkeypatch.setattr(quadrature_module, "gauss_rule", lambda *args: calls.append("gauss") or real_gauss(*args))
        monkeypatch.setattr(quadrature_module, "_levenberg_marquardt", lambda *args: calls.append("lm") or real_lm(*args))
        monkeypatch.setattr(quadrature_module, "_init_quantile", lambda *args: calls.append("quantile") or real_quantile(*args))
        # ceil(11/2) = 6 > 5: no rule of degree 10 has 5 nodes, so nothing is tried
        with pytest.raises(NoConvergenceError) as err:
            solve_equal_weight(JacobiWeight(2, 1), 10, SolverOptions(max_K=5))
        assert err.value.best is None and err.value.report is None
        assert "up to K=5" in str(err.value) and "needs at least 6 nodes" in str(err.value)
        assert calls == []
        # ceil(10/2) = 5 fits, but the Christoffel bound 15 of degree 9 does not:
        # only the bound's Gauss rule is formed, no start and no LM attempt
        with pytest.raises(NoConvergenceError) as err:
            solve_equal_weight(JacobiWeight(2, 1), 9, SolverOptions(max_K=5))
        assert err.value.best is None and err.value.report is None
        assert "needs at least 15 nodes" in str(err.value)
        assert calls == ["gauss"]

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            solve_equal_weight(JacobiWeight(2, 2), -1)

    def test_two_attempts_per_K_quantile_first_above_the_gauss_count(self, monkeypatch):
        attempts = []
        real = quadrature_module._levenberg_marquardt

        def recording(theta0, *args):
            result = real(theta0, *args)
            attempts.append((theta0, result[2]))
            return result

        monkeypatch.setattr(quadrature_module, "_levenberg_marquardt", recording)
        # the cap is read at call time
        monkeypatch.setattr(quadrature_module, "MAX_ITERATIONS", 5)
        w = JacobiWeight(2, 1)
        with pytest.raises(NoConvergenceError) as err:
            solve_equal_weight(w, 6, SolverOptions(max_K=9))
        Ks = [6, 9]  # ceil(7/2) = 4 lifted to the bound 6, then x1.5 = max_K
        assert len(attempts) == 2 * len(Ks)
        assert max(iters for _, iters in attempts) == 5
        for K, quantile, gauss in zip(Ks, attempts[::2], attempts[1::2]):
            assert np.array_equal(quantile[0], _init_quantile(w, K))
            assert np.array_equal(gauss[0], _init_gauss_multiplicity(w, 6, K))
        # the error carries the closest attempt's own report, with every attempt's iterations
        assert err.value.report.K == err.value.best.K
        assert err.value.report.max_abs_residual == err.value.best.max_abs_residual
        assert err.value.report.iterations == sum(iters for _, iters in attempts)

    def test_gauss_start_first_at_the_gauss_count(self, monkeypatch):
        attempts = []
        real = quadrature_module._levenberg_marquardt
        monkeypatch.setattr(quadrature_module, "_levenberg_marquardt", lambda theta0, *args: attempts.append(theta0) or real(theta0, *args))
        monkeypatch.setattr(quadrature_module, "MAX_ITERATIONS", 3)
        # (2, 2) at degree 4: ceil(5/2) = 3 is also the bound, then x1.5 = max_K = 5
        w = JacobiWeight(2, 2)
        with pytest.raises(NoConvergenceError):
            solve_equal_weight(w, 4, SolverOptions(max_K=5))
        expected = [_init_gauss_multiplicity(w, 4, 3), _init_quantile(w, 3), _init_quantile(w, 5), _init_gauss_multiplicity(w, 4, 5)]
        assert len(attempts) == len(expected)
        for got, want in zip(attempts, expected):
            assert np.array_equal(got, want)

    def test_quantile_start_made_only_when_reached(self, monkeypatch):
        made = []
        real_gauss, real_quantile = quadrature_module._init_gauss_multiplicity, quadrature_module._init_quantile
        monkeypatch.setattr(quadrature_module, "_init_gauss_multiplicity", lambda *args: made.append(("gauss", *args)) or real_gauss(*args))
        monkeypatch.setattr(quadrature_module, "_init_quantile", lambda *args: made.append(("quantile", *args)) or real_quantile(*args))
        # above the Gauss count the quantile start certifies, so no Gauss start is formed
        w = JacobiWeight(2, 1)
        q, _ = solve_equal_weight(w, 7)
        assert q.certified and q.K == 14 and made == [("quantile", w, 14)]
        # at the Gauss count the Gauss start certifies, so no quantile start is formed
        for m, n, t, K in [(2, 2, 3, 2), (2, 1, 1, 1)]:
            made.clear()
            w = JacobiWeight(m, n)
            q, _ = solve_equal_weight(w, t)
            assert q.certified and q.K == K and made == [("gauss", w, t, K)], (m, n, t)

    def test_quantile_start_certifies_where_gauss_fails(self):
        # the four rules of a 354-rule survey that only the weight-quantile start
        # certifies; without it (4, 2) at degree 10 ends at K=72
        tol = SolverOptions().tolerance
        for m, n, t, K in [(4, 2, 10, 48), (2, 4, 10, 48), (3, 5, 12, 89), (5, 3, 12, 89)]:
            w = JacobiWeight(m, n)
            q, _ = solve_equal_weight(w, t)
            assert q.certified and q.K == K, (m, n, t)
            theta, _, _ = _levenberg_marquardt(_init_gauss_multiplicity(w, t, K), w, t, tol)
            gauss_only = Quadrature(weight=w, degree=t, nodes=np.cos(theta))
            certify(gauss_only, tol)
            assert not gauss_only.certified, (m, n, t)


# K of every rule of these weights at degrees 1..12, as solved with the
# Gauss start first at every rung; the start order must move none of them
K_GRID = {
    (2, 1): [1, 2, 3, 5, 8, 9, 14, 18, 18, 21, 32, 39],
    (2, 2): [1, 2, 2, 5, 5, 6, 6, 12, 12, 14, 14, 17],
    (3, 2): [1, 2, 3, 5, 8, 9, 14, 18, 27, 32, 32, 39],
    (3, 3): [1, 2, 2, 5, 5, 9, 9, 12, 12, 21, 21, 39],
    (4, 4): [1, 2, 2, 5, 5, 9, 9, 18, 18, 32, 32, 59],
    (4, 3): [1, 2, 3, 5, 8, 14, 14, 18, 27, 32, 48, 59],
    (2, 3): [1, 2, 3, 5, 8, 9, 14, 18, 27, 32, 32, 39],
}


class TestStartOrder:
    """The quantile start first above the Gauss count: fewer LM iterations, the same K."""

    @pytest.mark.parametrize("t,K", [(5, 8), (7, 14)])
    def test_s2_join_rules_certify_in_few_iterations(self, t, K):
        # the cold rules of S^2 at t = 10 and 14; from the Gauss start each took 12-13
        q, report = solve_equal_weight(JacobiWeight(2, 1), t)
        assert q.certified and q.K == K
        assert report.iterations <= 6

    @pytest.mark.parametrize("m,n", sorted(K_GRID))
    def test_order_moves_no_K(self, m, n):
        w = JacobiWeight(m, n)
        for t, K in enumerate(K_GRID[m, n], start=1):
            q, _ = solve_equal_weight(w, t)
            assert q.certified and q.K == K, t


class TestFewestNodes:
    """The Christoffel bound on K, and the K ladder that skips below it."""

    @pytest.mark.parametrize("s", range(1, 21))
    def test_attained_by_gauss_chebyshev(self, s):
        # the s-point Gauss-Chebyshev rule is itself equal-weight, so the
        # bound is attained; the relative margin must keep it exact
        assert _fewest_nodes(JacobiWeight(1, 1), 2 * s - 1) == s

    def test_float_noise_above_an_integer_is_absorbed(self):
        # 1 / W_last evaluates to 2.0000000000000004 here; K = 2 is the golden
        assert _fewest_nodes(JacobiWeight(2, 2), 3) == 2

    @pytest.mark.parametrize("s", range(1, 7))
    def test_chebyshev_solve_stops_at_the_bound(self, s):
        q, _ = solve_equal_weight(JacobiWeight(1, 1), 2 * s - 1)
        assert q.certified and q.K == s

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_never_above_a_certified_K(self, m, n):
        w = JacobiWeight(m, n)
        for t in range(1, 9):
            q, _ = solve_equal_weight(w, t)
            assert q.certified and _fewest_nodes(w, t) <= q.K, t

    @pytest.mark.parametrize(
        "trees,named",
        [([(2, t) for t in range(1, 73)], {(2, 1, d) for d in range(1, 37)}), ([(6, 8), (7, 8)], {(3, 4, 4), (4, 4, 4)})],
        ids=["S2-to-t72", "S6-S7-t8"],
    )
    def test_never_above_the_K_of_a_tree_rule(self, quad_cache, trees, named):
        # a degree whose bound exceeds max_K is refused untried, so a bound above
        # a certified K would refuse a solvable degree; every join rule of these trees
        def joins(node, t):
            if node.kind == "product":
                yield (*node.split, t // 2)
                yield from joins(node.left, t)
                yield from joins(node.right, t)

        rules = {rule for n, t in trees for rule in joins(plan(n, t).root, t)}
        assert named <= rules
        for m, n, d in sorted(rules):
            q = solve_cached(m, n, d, SolverOptions(), quad_cache)
            assert q.certified and _fewest_nodes(JacobiWeight(m, n), d) <= q.K, (m, n, d)

    @pytest.mark.parametrize("t,K", [(7, 14), (14, 41)])
    def test_ladder_skips_to_the_first_rung_at_or_above_the_bound(self, monkeypatch, t, K):
        # (2, 1): bound 10 at degree 7 on the ladder 4, 6, 9, 14; bound 29 at
        # degree 14 on the ladder 8, 12, 18, 27, 41
        attempts = []
        real = quadrature_module._levenberg_marquardt

        def recording(theta0, *args):
            attempts.append(theta0)
            return real(theta0, *args)

        monkeypatch.setattr(quadrature_module, "_levenberg_marquardt", recording)
        w = JacobiWeight(2, 1)
        q, _ = solve_equal_weight(w, t)
        assert q.certified and q.K == K
        assert len(attempts) == 1
        assert np.array_equal(attempts[0], _init_quantile(w, K))

    def test_error_is_silent_on_the_bound_when_max_K_allows_it(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "MAX_ITERATIONS", 5)
        with pytest.raises(NoConvergenceError) as err:
            solve_equal_weight(JacobiWeight(2, 1), 7, SolverOptions(max_K=10))
        assert "needs at least" not in str(err.value)


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [{"tolerance": math.inf}, {"tolerance": math.nan}, {"tolerance": 0.0}, {"tolerance": -1e-12}, {"max_K": 0}],
    )
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestQuadratureType:
    def test_nodes_sorted_and_in_range(self):
        q = Quadrature(weight=JacobiWeight(2, 2), degree=1, nodes=np.array([0.5, -0.5]))
        assert list(q.nodes) == [-0.5, 0.5]
        with pytest.raises(ValueError):
            Quadrature(weight=JacobiWeight(2, 2), degree=1, nodes=np.array([1.5]))

    def test_json_round_trip_bit_exact(self):
        q, _ = solve_equal_weight(JacobiWeight(2, 3), 3)
        text = rule_text(q)
        back = rule_from_json(json.loads(text))
        assert np.array_equal(back.nodes, q.nodes)
        assert back.certified is False  # the file's certificate is not read
        certify(back, q.tolerance)
        assert rule_text(back) == text

    def test_rule_read_from_json_is_uncertified(self):
        # a forged file: one node moved by 1e-3, "certified": true left in place
        data = json.loads(rule_text(solve_equal_weight(JacobiWeight(2, 1), 3)[0]))
        nodes = decode_floats(data, "nodes")
        nodes[0] += 1e-3
        data.update(encode_floats("nodes", nodes))
        assert data["certified"] is True
        forged = rule_from_json(data)
        assert forged.certified is False
        with pytest.raises(ValueError, match="quadrature is not certified"):
            product(base_s1(7), base_s0(7), forged)
        assert certify(forged, 1e-12).max_abs_residual > 1e-12 and not forged.certified

    @pytest.mark.parametrize("depth", [65, 5000])
    def test_nodes_nested_past_any_array_are_a_value_error(self, depth):
        # the decoder once recursed once per level, into a RecursionError at about 1000;
        # a rule's nodes are a flat list, so any list inside it is refused without a walk
        nodes = ["0x0p+0"]
        for _ in range(depth - 1):
            nodes = [nodes]
        with pytest.raises(ValueError, match=r"^nodes_hex: expected a hex string, got a list nested inside$"):
            decode_floats({"nodes_hex": nodes}, "nodes")

    @pytest.mark.parametrize("field", ["m", "n", "degree", "K"])
    @pytest.mark.parametrize("value", [float("inf"), 2.0, True, "2"])
    def test_json_counts_must_be_integers(self, field, value):
        data = json.loads(rule_text(solve_equal_weight(JacobiWeight(2, 1), 1)[0]))
        data[field] = value
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            rule_from_json(data)
