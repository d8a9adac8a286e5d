"""Exact moment engine: closed forms vs. independent oracles and symmetries."""
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    JacobiWeight,
    MultiIndex,
    iter_multi_indices,
    jacobi_moment_ratio,
    sphere_monomial_moment,
)
from oracles import mc_moment_oracle, power_moment

mp.mp.dps = 40


def mp_ratio(m, n, a, b):
    """Independent numerical evaluation of the normalized weight moment."""
    w = lambda x: (1 - x) ** (mp.mpf(m - 2) / 2) * (1 + x) ** (mp.mpf(n - 2) / 2)
    num = mp.quad(lambda x: ((1 - x) / 2) ** a * ((1 + x) / 2) ** b * w(x), [-1, 0, 1])
    return num / mp.quad(w, [-1, 0, 1])


class TestMultiIndex:
    def test_degree_and_half(self):
        alpha = MultiIndex((4, 2, 0))
        assert alpha.degree == 6

    def test_is_the_plain_tuple(self):
        alpha = MultiIndex((3, 0))
        assert alpha == (3, 0)
        assert hash(alpha) == hash((3, 0))
        assert {(3, 0): "x"}[alpha] == "x"

    def test_entries_become_ints(self):
        alpha = MultiIndex(iter([True, 2.0]))
        assert alpha == (1, 2)
        assert all(type(e) is int for e in alpha)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    @pytest.mark.parametrize("dim,deg", [(1, 5), (2, 4), (3, 6), (5, 3)])
    def test_enumeration_count(self, dim, deg):
        indices = list(iter_multi_indices(dim, deg))
        assert len(indices) == math.comb(dim + deg, dim)
        assert len(set(indices)) == len(indices)
        degrees = [a.degree for a in indices]
        assert degrees == sorted(degrees)  # graded order


class TestSphereMoments:
    def test_second_moment_s2(self):
        assert sphere_monomial_moment(3, MultiIndex((2, 0, 0))) == Fraction(1, 3)

    def test_odd_vanishes(self):
        assert sphere_monomial_moment(3, MultiIndex((1, 0, 0))) == 0

    def test_fourth_moment_s2(self):
        # cross-checked against the Monte Carlo oracle (1e7 samples, 0.45 sigma)
        assert sphere_monomial_moment(3, MultiIndex((4, 0, 0))) == Fraction(1, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sphere_monomial_moment(3, MultiIndex((2, 0)))

    def test_s0_counting_measure(self):
        for k in range(8):
            value = sphere_monomial_moment(1, MultiIndex((k,)))
            assert value == (1 if k % 2 == 0 else 0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_odd_entry_gives_zero(self, dim, data):
        exps = data.draw(
            st.lists(st.integers(min_value=0, max_value=7), min_size=dim, max_size=dim)
        )
        if all(e % 2 == 0 for e in exps):
            exps[data.draw(st.integers(min_value=0, max_value=dim - 1))] += 1
        assert sphere_monomial_moment(dim, MultiIndex(tuple(exps))) == 0

    def test_memoized_factors_match_formula(self):
        """The cached rising factorial and per-exponent factors give the Fraction
        the formula gives when every factor is rebuilt."""

        def rising(x, k):
            out = Fraction(1)
            for i in range(k):
                out *= x + i
            return out

        for dim in range(1, 7):
            for alpha in iter_multi_indices(dim, 8):
                expected = Fraction(0)
                if all(a % 2 == 0 for a in alpha):
                    expected = Fraction(1) / rising(Fraction(dim, 2), alpha.degree // 2)
                    for b in (a // 2 for a in alpha):
                        expected *= Fraction(math.factorial(2 * b), 4**b * math.factorial(b))
                assert sphere_monomial_moment(dim, alpha) == expected, (dim, alpha)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_second_moments_sum_to_one(self, dim):
        total = sum(
            sphere_monomial_moment(dim, MultiIndex(tuple(2 if j == i else 0 for j in range(dim))))
            for i in range(dim)
        )
        assert total == 1

    def test_fourth_moment_against_ten_million_samples(self):
        # the closed form for (4,0,0) was adopted only after this check
        alpha = MultiIndex((4, 0, 0))
        est, se = mc_moment_oracle(3, alpha, samples=10_000_000, seed=20260810)
        assert abs(est - 1 / 5) <= 3 * se

    def test_monte_carlo_agreement_grid(self):
        # representative brute-force cross-check, dims <= 4 and degree <= 6
        cases = [
            (1, (2,)), (1, (4,)), (1, (5,)), (1, (6,)),
            (2, (2, 2)), (2, (4, 0)), (2, (3, 1)), (2, (6, 0)), (2, (2, 4)),
            (3, (2, 0, 0)), (3, (2, 2, 0)), (3, (4, 2, 0)), (3, (1, 1, 2)),
            (3, (2, 2, 2)), (3, (6, 0, 0)),
            (4, (2, 2, 0, 0)), (4, (4, 0, 2, 0)), (4, (2, 2, 1, 1)),
            (4, (2, 2, 2, 0)), (4, (6, 0, 0, 0)),
        ]
        for i, (dim, exps) in enumerate(cases):
            alpha = MultiIndex(exps)
            est, se = mc_moment_oracle(dim, alpha, samples=50_000, seed=1000 + i)
            exact = float(sphere_monomial_moment(dim, alpha))
            assert abs(est - exact) <= 4 * se, (dim, exps, est, exact, se)


class TestJacobiMomentRatio:
    @pytest.mark.parametrize(
        "m,n,a,b,expected",
        [
            (2, 2, 0, 0, Fraction(1)),
            (2, 2, 1, 0, Fraction(1, 2)),
            (2, 1, 0, 1, Fraction(1, 3)),
            # the following were cross-checked by numerical integration (mpmath, 40 digits)
            (3, 2, 2, 1, Fraction(2, 21)),
            (4, 3, 0, 2, Fraction(5, 21)),
            (1, 1, 1, 2, Fraction(1, 16)),
        ],
    )
    def test_known_values(self, m, n, a, b, expected):
        assert jacobi_moment_ratio(JacobiWeight(m, n), a, b) == expected

    @pytest.mark.parametrize("m,n,a,b", [(2, 1, 0, 1), (3, 1, 2, 2), (1, 2, 1, 3)])
    def test_against_numerical_integration(self, m, n, a, b):
        exact = jacobi_moment_ratio(JacobiWeight(m, n), a, b)
        numeric = mp_ratio(m, n, a, b)
        assert abs(float(numeric - mp.mpf(exact.numerator) / exact.denominator)) < 1e-12

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_reflection_symmetry(self, m, n, a, b):
        assert jacobi_moment_ratio(JacobiWeight(m, n), a, b) == jacobi_moment_ratio(
            JacobiWeight(n, m), b, a
        )

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_strictly_inside_unit_interval(self, m, n, a, b):
        value = jacobi_moment_ratio(JacobiWeight(m, n), a, b)
        if a + b >= 1:
            assert 0 < value < 1
        else:
            assert value == 1


class TestPowerMoments:
    @pytest.mark.parametrize(
        "m,n,d,expected",
        [
            (2, 2, 0, Fraction(1)),
            (2, 2, 1, Fraction(0)),
            (2, 2, 2, Fraction(1, 3)),
            (2, 1, 1, Fraction(-1, 3)),
            # cross-checked by numerical integration (mpmath, 40 digits)
            (2, 3, 3, Fraction(13, 105)),
            (1, 2, 4, Fraction(107, 315)),
        ],
    )
    def test_known_values(self, m, n, d, expected):
        assert power_moment(JacobiWeight(m, n), d) == expected

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (1, 1), (4, 4)])
    def test_symmetric_weight_odd_powers_vanish(self, m, n):
        w = JacobiWeight(m, m)
        for d in (1, 3, 5, 7):
            assert power_moment(w, d) == 0

    def test_mu_zero_is_one(self):
        for m, n in [(1, 1), (2, 5), (7, 3)]:
            assert power_moment(JacobiWeight(m, n), 0) == 1


class TestNormalizationIdentity:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_mass_product_matches_joined_sphere(self, m, n):
        # 2^{-(m+n)/2} |S^{m-1}| |S^{n-1}| * mass(w) == |S^{m+n-1}|, to 1e-12
        surface = lambda d: 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        mass = mp.mpf(2) ** (mp.mpf(m + n - 2) / 2) * mp.beta(mp.mpf(m) / 2, mp.mpf(n) / 2)
        lhs = mp.mpf(2) ** (-mp.mpf(m + n) / 2) * surface(m) * surface(n) * mass
        rhs = surface(m + n)
        assert abs(float(lhs / rhs - 1)) < 1e-12

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 4)])
    def test_mass_property_matches_mpmath(self, m, n):
        w = JacobiWeight(m, n)
        ref = mp.quad(
            lambda x: (1 - x) ** (mp.mpf(m - 2) / 2) * (1 + x) ** (mp.mpf(n - 2) / 2),
            [-1, 0, 1],
        )
        assert abs(w.mass / float(ref) - 1) < 1e-13

    @pytest.mark.parametrize("m,n", [(1100, 1100), (3000, 3000), (2000, 40)])
    def test_mass_in_logs_matches_mpmath(self, m, n):
        # from m + n = 2200 on, 2^((m+n-2)/2) alone overflows a float64; the
        # exponent's terms are near (m+n) ln 2, so its rounding costs about (m+n) ulp
        ref = mp.mpf(2) ** (mp.mpf(m + n - 2) / 2) * mp.beta(mp.mpf(m) / 2, mp.mpf(n) / 2)
        assert abs(JacobiWeight(m, n).mass / ref - 1) < (m + n) * 1e-15

    def test_mass_beyond_float64_raises(self):
        with pytest.raises(OverflowError, match=r"the mass of the \(m=3000, n=5\) weight does not fit in a float64"):
            JacobiWeight(3000, 5).mass


class TestWeightValidation:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            JacobiWeight(0, 2)
        with pytest.raises(ValueError):
            JacobiWeight(2, -1)
