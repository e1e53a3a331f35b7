import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from tailbalance import (
    DomainError,
    Prior,
    StateOfNature,
    cdf_given_A,
    cdf_given_B,
    pdf_given_state,
    posterior_from_signal,
    quantile_given_state,
    sample_signal,
)

ABILITIES = np.linspace(0.0, 1.0, 11)
T_GRID = np.linspace(-1.0, 1.0, 201)


class TestPrior:
    def test_odds_lambda_is_exact_at_construction(self):
        for theta in (0.2, 0.5, 0.75, 1.0 / 3.0):
            prior = Prior(theta)
            assert prior.odds_lambda == (1.0 - prior.theta) / prior.theta

    def test_half_theta_gives_unit_odds(self):
        assert Prior(0.5).odds_lambda == 1.0

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_theta_outside_open_interval(self, theta):
        with pytest.raises(DomainError):
            Prior(theta)

    @pytest.mark.parametrize("theta", [1e-310, 5e-324])
    def test_rejects_theta_whose_odds_overflow(self, theta):
        with pytest.raises(DomainError, match="overflow"):
            Prior(theta)

    def test_smallest_normal_priors_keep_finite_odds(self):
        assert Prior(1e-300).odds_lambda == (1.0 - 1e-300) / 1e-300
        assert np.isfinite(Prior(np.finfo(float).tiny).odds_lambda)


class TestCdfs:
    def test_symmetry_identity(self):
        # cdf_given_B(a, t) == 1 - cdf_given_A(a, -t) on the full grid
        for a in ABILITIES:
            lhs = cdf_given_B(a, T_GRID)
            rhs = 1.0 - cdf_given_A(a, -T_GRID)
            np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)

    def test_cdf_axioms(self):
        for cdf in (cdf_given_A, cdf_given_B):
            for a in ABILITIES:
                vals = cdf(a, T_GRID)
                assert abs(vals[0]) <= 1e-12
                assert abs(vals[-1] - 1.0) <= 1e-12
                assert np.all(np.diff(vals) >= -1e-12)

    def test_zero_ability_is_uniform(self):
        np.testing.assert_allclose(cdf_given_A(0.0, T_GRID), (T_GRID + 1.0) / 2.0,
                                   rtol=0.0, atol=0.0)
        np.testing.assert_allclose(cdf_given_B(0.0, T_GRID), (T_GRID + 1.0) / 2.0,
                                   rtol=0.0, atol=0.0)

    def test_point_values(self):
        assert cdf_given_A(1.0, 0.0) == pytest.approx(0.25, abs=1e-15)
        assert cdf_given_B(1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
        assert cdf_given_A(0.3, -1.0) == 0.0
        assert cdf_given_B(0.3, 1.0) == 1.0

    def test_rejects_bad_ability(self):
        with pytest.raises(DomainError):
            cdf_given_A(-0.2, 0.0)
        with pytest.raises(DomainError):
            cdf_given_A(1.5, 0.0)


class TestPdf:
    def test_point_values(self):
        assert pdf_given_state(0.7, 0.0, StateOfNature.A) == 0.5
        assert pdf_given_state(1.0, 1.0, StateOfNature.B) == 0.0
        assert pdf_given_state(0.5, 0.5, StateOfNature.A) == pytest.approx(0.625, abs=1e-15)

    def test_matches_finite_difference_of_cdf(self):
        h = 1e-4
        interior = np.linspace(-1.0 + h, 1.0 - h, 201)
        for a in ABILITIES:
            diff_a = (cdf_given_A(a, interior + h / 2) - cdf_given_A(a, interior - h / 2)) / h
            diff_b = (cdf_given_B(a, interior + h / 2) - cdf_given_B(a, interior - h / 2)) / h
            np.testing.assert_allclose(diff_a, pdf_given_state(a, interior, StateOfNature.A),
                                       rtol=0.0, atol=1e-6)
            np.testing.assert_allclose(diff_b, pdf_given_state(a, interior, StateOfNature.B),
                                       rtol=0.0, atol=1e-6)

    def test_integrates_to_one(self):
        from scipy.integrate import trapezoid

        s = np.linspace(-1.0, 1.0, 20001)
        for a in (0.0, 0.4, 1.0):
            for state in StateOfNature:
                total = trapezoid(pdf_given_state(a, s, state), s)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_outside_support(self):
        assert pdf_given_state(0.5, 1.5, StateOfNature.A) == 0.0
        assert pdf_given_state(0.5, -2.0, StateOfNature.B) == 0.0


class TestQuantile:
    def test_roundtrip_on_u_grid(self):
        u = np.linspace(0.0, 1.0, 101)
        for a in ABILITIES:
            for state in StateOfNature:
                t = quantile_given_state(a, u, state)
                cdf = cdf_given_A if state is StateOfNature.A else cdf_given_B
                np.testing.assert_allclose(cdf(a, t), u, rtol=0.0, atol=1e-10)

    def test_point_values(self):
        assert quantile_given_state(0.0, 0.5, StateOfNature.A) == 0.0
        assert quantile_given_state(1.0, 0.25, StateOfNature.A) == pytest.approx(0.0, abs=1e-15)
        assert quantile_given_state(0.6, 1.0, StateOfNature.A) == 1.0
        assert quantile_given_state(0.6, 0.0, StateOfNature.A) == -1.0

    def test_zero_ability_reduces_to_uniform_inverse(self):
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(quantile_given_state(0.0, u, StateOfNature.A),
                                   2.0 * u - 1.0, rtol=0.0, atol=0.0)

    def test_output_stays_in_support(self):
        u = np.linspace(0.0, 1.0, 10001)
        for a in (0.3, 1.0):
            t = quantile_given_state(a, u, StateOfNature.B)
            assert np.all(t >= -1.0) and np.all(t <= 1.0)

    @pytest.mark.parametrize("u", [-0.01, 1.01, float("nan")])
    def test_rejects_u_outside_unit_interval(self, u):
        with pytest.raises(DomainError):
            quantile_given_state(0.5, u, StateOfNature.A)


class TestSampling:
    def test_same_seed_same_draws(self):
        one = sample_signal(0.7, StateOfNature.A, 64, seed=123)
        two = sample_signal(0.7, StateOfNature.A, 64, seed=123)
        np.testing.assert_array_equal(one, two)

    def test_different_seeds_differ(self):
        one = sample_signal(0.7, StateOfNature.A, 64, seed=1)
        two = sample_signal(0.7, StateOfNature.A, 64, seed=2)
        assert not np.array_equal(one, two)

    def test_uniform_case_ks(self):
        draws = sample_signal(0.0, StateOfNature.A, 100_000, seed=7)
        result = stats.kstest(draws, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert result.statistic < 0.01

    def test_full_ability_mean(self):
        # mean of density (1 + s)/2 over [-1, 1] is 1/3, variance 2/9
        n = 100_000
        draws = sample_signal(1.0, StateOfNature.A, n, seed=11)
        se = np.sqrt(2.0 / 9.0 / n)
        assert abs(draws.mean() - 1.0 / 3.0) < 3.0 * se

    def test_generator_can_be_passed_directly(self):
        rng = np.random.default_rng(5)
        first = sample_signal(0.4, StateOfNature.B, 10, seed=rng)
        rng2 = np.random.default_rng(5)
        second = sample_signal(0.4, StateOfNature.B, 10, seed=rng2)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("size", [2.9, "x", None, -1])
    def test_rejects_a_size_that_is_not_a_count(self, size):
        with pytest.raises(DomainError, match="size must be"):
            sample_signal(0.4, StateOfNature.A, size, seed=1)

    @pytest.mark.parametrize("seed", ["x", [1], -1, 2**64])
    def test_rejects_seed_outside_the_64_bit_range(self, seed):
        with pytest.raises(DomainError):
            sample_signal(0.4, StateOfNature.A, 10, seed=seed)


class TestPosterior:
    def test_point_values(self):
        half = Prior(0.5)
        assert posterior_from_signal(1.0, 1.0, half) == 1.0
        assert posterior_from_signal(0.8, 0.0, half) == 0.5
        assert posterior_from_signal(0.5, 0.5, half) == pytest.approx(0.625, abs=1e-15)

    def test_zero_ability_returns_prior(self):
        prior = Prior(0.3)
        s = np.linspace(-1.0, 1.0, 21)
        np.testing.assert_allclose(posterior_from_signal(0.0, s, prior),
                                   prior.theta, rtol=0.0, atol=1e-15)

    def test_strictly_increasing_in_signal(self):
        prior = Prior(0.5)
        for a in ABILITIES[1:]:
            vals = posterior_from_signal(a, T_GRID, prior)
            assert np.all(np.diff(vals) > 0.0)

    def test_rejects_signal_outside_support(self):
        with pytest.raises(DomainError):
            posterior_from_signal(0.5, 1.2, Prior(0.5))


@settings(max_examples=200)
@given(a=st.floats(0.0, 1.0), t=st.floats(-1.0, 1.0))
def test_symmetry_identity_property(a, t):
    assert cdf_given_B(a, t) == pytest.approx(1.0 - cdf_given_A(a, -t), abs=1e-12)


@settings(max_examples=200)
@given(a=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
def test_quantile_inverts_cdf_property(a, u):
    t = quantile_given_state(a, u, StateOfNature.A)
    assert cdf_given_A(a, t) == pytest.approx(u, abs=1e-10)


@settings(max_examples=100)
@given(a=st.floats(0.0, 1.0), s=st.floats(-1.0, 1.0),
       theta=st.floats(0.01, 0.99))
def test_posterior_is_a_probability_property(a, s, theta):
    q = posterior_from_signal(a, s, Prior(theta))
    assert 0.0 <= q <= 1.0


ABILITY_POINTS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))


@settings(max_examples=200)
@given(a=ABILITY_POINTS,
       t=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=8),
                    elements=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                                       st.floats(-1.0, 1.0))))
def test_cdfs_equal_their_formulas_bit_for_bit(a, t):
    # one formula with a sign serves both states, computed step by step in
    # place; each must round as written out, on 0-d, 1-d and 2-d inputs
    for got, expected in ((cdf_given_A(a, t), (t + 1.0) * (a * t - a + 2.0) / 4.0),
                          (cdf_given_B(a, t), (t + 1.0) * (a - a * t + 2.0) / 4.0)):
        assert np.shape(got) == t.shape and np.array_equal(got, expected)
        assert type(got) is (float if t.ndim == 0 else np.ndarray)
