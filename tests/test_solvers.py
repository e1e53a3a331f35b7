import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbalance import (
    Affine,
    AlphaSpec,
    CoefficientPair,
    DegenerateAbility,
    DegenerateAlpha,
    DomainError,
    Indeterminate,
    InvalidBoundary,
    LinearAbility,
    Prior,
    Provenance,
    SingularCoefficients,
    SolvedCdf,
    Tabulated,
    alt_decomposition_solver,
    cdf_given_A,
    closed_form_linear,
    closed_form_linear_odds,
    decomposition_parts,
    odds_limit_large_lambda,
    odds_limit_small_lambda,
    posterior_tail,
    residual_check,
    solve_affine_pair,
    solve_balanced,
    solve_odds,
)
from tailbalance.alpha import RESIDUAL_TOL, cdf_values_ok, check_grid, evaluate_on

HALF = Prior(0.5)
ABILITIES = [round(0.1 * k, 1) for k in range(1, 11)]
GRID_201 = np.linspace(-1.0, 1.0, 201)


def exact_grid(n):
    """The check grid written out: point k is (2k - (n - 1)) / (n - 1),
    correctly rounded."""
    return np.array([float(Fraction(2 * k - n + 1, n - 1)) for k in range(n)])


def balanced_linear_solutions(a):
    """All four independent routes to the balanced linear solution."""
    alpha = LinearAbility(0.5, a)
    return {
        "balanced": solve_balanced(alpha),
        "closed": closed_form_linear(a),
        "decomposition": alt_decomposition_solver(a),
        "odds": solve_odds(alpha, HALF),
    }


class TestSolverAgreement:
    @pytest.mark.parametrize("a", ABILITIES)
    def test_all_four_routes_agree_pairwise(self, a):
        solutions = balanced_linear_solutions(a)
        values = {name: s(GRID_201) for name, s in solutions.items()}
        names = sorted(values)
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                np.testing.assert_allclose(values[left], values[right],
                                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("a", ABILITIES)
    def test_matches_state_a_signal_cdf(self, a):
        # the balanced linear solution is the ability-a signal CDF itself
        h = solve_balanced(LinearAbility(0.5, a))
        np.testing.assert_allclose(h(GRID_201), cdf_given_A(a, GRID_201),
                                   rtol=0.0, atol=1e-12)


class TestResidualSoundness:
    @pytest.mark.parametrize("a", ABILITIES)
    def test_every_solver_output_scores_tiny_residual(self, a):
        alpha = LinearAbility(0.5, a)
        for name, solved in balanced_linear_solutions(a).items():
            assert solved.max_residual <= 1e-10, name
            report = residual_check(solved, alpha, HALF, grid_size=1001)
            assert report.max_residual <= 1e-10, name

    def test_unbalanced_prior_residual(self):
        prior = Prior(0.3)
        alpha = LinearAbility(0.3, 0.7)
        solved = solve_odds(alpha, prior)
        report = residual_check(solved, alpha, prior, grid_size=1001)
        assert report.max_residual <= 1e-10

    def test_perturbed_candidate_is_flagged(self):
        base = closed_form_linear(0.6)

        def warped(t):
            t = np.asarray(t, dtype=float)
            return np.clip(base(t) + 1e-3 * np.sin(np.pi * t), 0.0, 1.0)

        report = residual_check(warped, LinearAbility(0.5, 0.6), HALF)
        assert report.max_residual > 1e-4

    def test_report_carries_argmax_location(self):
        report = residual_check(closed_form_linear(0.4),
                                LinearAbility(0.5, 0.4), HALF)
        assert -1.0 <= report.argmax_t <= 1.0
        assert report.max_residual == report.residual.max()
        assert report.t.shape == report.residual.shape


class TestBoundaryBehavior:
    @pytest.mark.parametrize("a", ABILITIES)
    def test_endpoints_and_midpoint(self, a):
        alpha = LinearAbility(0.5, a)
        for name, solved in balanced_linear_solutions(a).items():
            assert abs(solved(-1.0)) <= 1e-12, name
            assert abs(solved(1.0) - 1.0) <= 1e-12, name
            assert abs(solved(0.0) - (1.0 - alpha(0.0))) <= 1e-12, name

    @pytest.mark.parametrize("a", ABILITIES)
    def test_strictly_below_one_before_endpoint(self, a):
        for name, solved in balanced_linear_solutions(a).items():
            assert np.all(solved(GRID_201[:-1]) < 1.0), name

    def test_valid_cdf_flag_is_set(self):
        for solved in balanced_linear_solutions(0.5).values():
            assert solved.is_valid_cdf

    def test_odds_endpoints(self):
        prior = Prior(0.25)
        solved = solve_odds(LinearAbility(0.25, 0.9), prior)
        assert abs(solved(-1.0)) <= 1e-12
        assert abs(solved(1.0) - 1.0) <= 1e-12

    def test_alpha_missing_theta_by_a_rounding(self):
        # 0.545 - 0.245 = 0.30000000000000004: H(-1) must still be exactly
        # 0, or the residual's ratio at t = +1 reads 0 instead of 1
        solved = solve_odds(Affine(0.545, 0.245), Prior(0.3))
        assert solved(-1.0) == 0.0
        assert solved.max_residual <= RESIDUAL_TOL


class TestBalancedFormula:
    """solve_balanced is solve_odds at theta = 1/2; these tests hold it to
    the textbook balanced formula itself, bit for bit."""

    @staticmethod
    def _textbook(alpha, t):
        at, an = alpha(t), alpha(-t)
        return (2.0 * at - 1.0) * (1.0 - an) / (at + (an - 1.0))

    @staticmethod
    def _alphas():
        t = np.linspace(-1.0, 1.0, 201)
        curved = 0.5 + 0.375 * ((t + 1.0) / 2.0) ** 1.3
        yield LinearAbility(0.5, 0.7)
        yield LinearAbility(0.5, 1.0)
        yield Affine(0.6, 0.1)
        yield Tabulated(tuple(zip(t.tolist(), curved.tolist())))

    @pytest.mark.parametrize("grid_size", [1001, 20001])
    def test_equals_the_textbook_formula(self, grid_size):
        grid = np.linspace(-1.0, 1.0, grid_size)
        for alpha in self._alphas():
            solved = solve_balanced(alpha, grid_size=grid_size)
            assert np.array_equal(solved(grid), self._textbook(alpha, grid)), alpha
            assert solved.is_valid_cdf


class TestExtremePriors:
    def test_tiny_theta_does_not_overflow(self):
        # lambda**2 overflows below theta ~ 1e-154; the scaled form does not
        prior = Prior(1e-160)
        solved = solve_odds(LinearAbility(1e-160, 0.7), prior)
        assert solved.is_valid_cdf
        assert solved.max_residual <= RESIDUAL_TOL
        assert solved(0.0) > 0.0

    @pytest.mark.parametrize("theta", [0.999, 0.9999])
    @pytest.mark.parametrize("a", [0.3, 0.9])
    def test_prior_near_one_stays_a_cdf(self, theta, a):
        # the two denominator terms cancel to three digits here unless the
        # solver arranges them as a difference of tail products
        prior = Prior(theta)
        solved = solve_odds(LinearAbility(theta, a), prior)
        assert solved.is_valid_cdf
        assert solved.max_residual <= RESIDUAL_TOL
        closed = closed_form_linear_odds(a, prior)
        assert np.max(np.abs(solved(GRID_201) - closed(GRID_201))) <= 1e-10

    @pytest.mark.parametrize("one_minus_theta", [1e-6, 1e-9, 1e-12, 1e-15])
    @pytest.mark.parametrize("a", [0.3, 0.9, 1.0])
    def test_prior_nearer_one_is_refused_or_right(self, one_minus_theta, a):
        # near theta = 1 alpha's values have lost the digits of 1 - alpha, so
        # an H that passes its own residual check can still be far from the
        # closed form; the guard must refuse rather than return that H
        theta = 1.0 - one_minus_theta
        prior = Prior(theta)
        try:
            solved = solve_odds(LinearAbility(theta, a), prior)
        except DegenerateAlpha:
            return
        grid = np.linspace(-1.0, 1.0, 1001)
        closed = closed_form_linear_odds(a, prior)
        assert np.max(np.abs(solved(grid) - closed(grid))) <= 1e-9


@st.composite
def tiny_priors(draw):
    """theta log-uniform in [1e-300, 1/2]."""
    return 10.0 ** draw(st.floats(-300.0, math.log10(0.5)))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 1.0), theta=tiny_priors())
def test_odds_solver_matches_closed_form_at_any_small_prior(a, theta):
    prior = Prior(theta)
    solved = solve_odds(LinearAbility(theta, a), prior)
    assert solved.is_valid_cdf
    assert solved.max_residual <= RESIDUAL_TOL
    assert solved(-1.0) == 0.0
    grid = np.linspace(-1.0, 1.0, 1001)
    closed = closed_form_linear_odds(a, prior)
    assert np.max(np.abs(solved(grid) - closed(grid))) <= 1e-12


class TestDegeneracies:
    def test_zero_ability_rejected_by_default(self):
        with pytest.raises(DegenerateAlpha):
            solve_balanced(LinearAbility(0.5, 0.0))

    def test_zero_ability_uniform_limit_on_request(self):
        solved = solve_balanced(LinearAbility(0.5, 0.0), allow_uniform_limit=True)
        np.testing.assert_allclose(solved(GRID_201), (GRID_201 + 1.0) / 2.0,
                                   rtol=0.0, atol=0.0)
        assert solved.is_valid_cdf

    def test_closed_form_handles_zero_ability_directly(self):
        solved = closed_form_linear(0.0)
        np.testing.assert_allclose(solved(GRID_201), (GRID_201 + 1.0) / 2.0,
                                   rtol=0.0, atol=0.0)

    def test_odds_closed_form_rejects_zero_ability(self):
        with pytest.raises(DegenerateAbility):
            closed_form_linear_odds(0.0, Prior(0.3))
        solved = closed_form_linear_odds(0.0, Prior(0.3), allow_uniform_limit=True)
        np.testing.assert_allclose(solved(GRID_201), (GRID_201 + 1.0) / 2.0,
                                   rtol=0.0, atol=0.0)

    def test_constant_alpha_rejected_by_solve_odds(self):
        prior = Prior(0.3)
        with pytest.raises(DegenerateAlpha):
            solve_odds(LinearAbility(0.3, 0.0), prior)
        solved = solve_odds(LinearAbility(0.3, 0.0), prior, allow_uniform_limit=True)
        assert solved.is_valid_cdf

    def test_boundary_mismatch_rejected(self):
        with pytest.raises(InvalidBoundary):
            solve_balanced(LinearAbility(0.4, 0.5))
        with pytest.raises(InvalidBoundary):
            solve_odds(LinearAbility(0.5, 0.5), Prior(0.3))

    def test_even_or_tiny_grid_rejected(self):
        with pytest.raises(DomainError):
            solve_balanced(LinearAbility(0.5, 0.5), grid_size=100)
        with pytest.raises(DomainError):
            closed_form_linear(0.5, grid_size=1)


class TestAffinePair:
    def test_reproduces_odds_solution(self):
        # the general-odds equation rearranged into affine-pair form:
        # H(-t) = (1 - alpha(t))/(lambda alpha(t)) * (1 - H(t))
        prior = Prior(0.4)
        alpha = LinearAbility(0.4, 0.8)
        lam = prior.odds_lambda

        def gamma(t):
            av = np.asarray(alpha(t), dtype=float)
            return (1.0 - av) / (lam * av)

        def delta(t):
            return -np.asarray(gamma(t), dtype=float)

        via_pair = solve_affine_pair(CoefficientPair(gamma=gamma, delta=delta))
        via_odds = solve_odds(alpha, prior)
        np.testing.assert_allclose(via_pair(GRID_201), via_odds(GRID_201),
                                   rtol=0.0, atol=1e-12)
        assert via_pair.max_residual <= 1e-10
        assert via_pair.provenance is Provenance.AFFINE_PAIR

    def test_homogeneous_equation_gives_zero(self):
        pair = CoefficientPair(
            gamma=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            delta=lambda t: np.full_like(np.asarray(t, dtype=float), -0.5),
        )
        solved = solve_affine_pair(pair)
        np.testing.assert_allclose(solved(GRID_201), 0.0, rtol=0.0, atol=0.0)
        assert not solved.is_valid_cdf

    def test_singular_product_at_origin_raises(self):
        # delta(t) = 1 + t has delta(t)*delta(-t) = 1 - t**2, equal to 1
        # exactly at t = 0
        pair = CoefficientPair(gamma=lambda t: np.asarray(t, dtype=float) * 0.0,
                               delta=lambda t: 1.0 + np.asarray(t, dtype=float))
        with pytest.raises(SingularCoefficients) as excinfo:
            solve_affine_pair(pair)
        assert excinfo.value.t == 0.0
        assert abs(excinfo.value.value) < 1e-12

    def test_near_singular_but_above_tolerance_does_not_raise(self):
        # constant product 1 - 1e-10 stays a hair outside the guard band
        d = np.sqrt(1.0 - 1e-10)
        pair = CoefficientPair(gamma=lambda t: np.full_like(np.asarray(t, dtype=float), 0.1),
                               delta=lambda t: np.full_like(np.asarray(t, dtype=float), d))
        solve_affine_pair(pair)


class TestDecomposition:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 1.0])
    def test_parts_have_expected_closed_forms(self, a):
        f, g = decomposition_parts(a)
        t = GRID_201
        np.testing.assert_array_equal(f(t), t)
        np.testing.assert_allclose(g(t), (2.0 - a + a * t * t) / 2.0,
                                   rtol=0.0, atol=0.0)

    def test_difference_and_sum_recombine(self):
        # f is H(t) - H(-t) and g is H(t) + H(-t) for the closed form
        a = 0.6
        f, g = decomposition_parts(a)
        h = closed_form_linear(a)
        np.testing.assert_allclose(h(GRID_201) - h(-GRID_201), f(GRID_201),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(h(GRID_201) + h(-GRID_201), g(GRID_201),
                                   rtol=0.0, atol=1e-12)


class TestOddsClosedForm:
    @pytest.mark.parametrize("a", ABILITIES)
    def test_matches_general_solver_off_balance(self, a):
        prior = Prior(0.35)
        closed = closed_form_linear_odds(a, prior)
        general = solve_odds(LinearAbility(0.35, a), prior)
        np.testing.assert_allclose(closed(GRID_201), general(GRID_201),
                                   rtol=0.0, atol=1e-12)

    def test_known_value_at_lambda_four(self):
        prior = Prior(0.2)  # odds 4
        closed = closed_form_linear_odds(1.0, prior)
        general = solve_odds(LinearAbility(0.2, 1.0), prior)
        assert closed(0.0) == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert general(0.0) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_large_lambda_limit(self):
        lam = 1e6
        prior = Prior(1.0 / (1.0 + lam))
        for a in (0.5, 1.0):
            h = closed_form_linear_odds(a, prior)
            for t in (-0.5, 0.0, 0.5):
                approx = odds_limit_large_lambda(a, lam, t)
                assert abs(h(t) - approx) / abs(h(t)) < 1e-5

    def test_small_lambda_limit(self):
        lam = 1e-6
        prior = Prior(1.0 / (1.0 + lam))
        for a in (0.5, 1.0):
            h = closed_form_linear_odds(a, prior)
            for t in (-0.5, 0.0, 0.5):
                approx = odds_limit_small_lambda(a, t)
                assert abs(h(t) - approx) / abs(h(t)) < 1e-5

    @pytest.mark.parametrize("t, large, small", [(-3.0, 0.0, 0.0), (-1.0, 0.1, 0.0),
                                                  (1.0, 1.0, 1.0), (3.0, 1.0, 1.0)])
    def test_limit_rows_at_and_off_the_ends(self, t, large, small):
        # at t = -1 the large-odds equivalent reads (1/a - 1)/lambda;
        # t = +1 would divide by zero in it
        assert odds_limit_large_lambda(0.5, 10.0, t) == pytest.approx(large, abs=1e-15)
        assert odds_limit_small_lambda(0.5, t) == small
        grid = np.array([t, 0.0])
        np.testing.assert_array_equal(odds_limit_large_lambda(0.5, 10.0, grid),
                                      [odds_limit_large_lambda(0.5, 10.0, t),
                                       odds_limit_large_lambda(0.5, 10.0, 0.0)])
        np.testing.assert_array_equal(odds_limit_small_lambda(0.5, grid),
                                      [small, odds_limit_small_lambda(0.5, 0.0)])

    @pytest.mark.parametrize("a, lam", [(5e-324, 1e-10), (1e-300, 1e-300), (0.5, 1e-320)])
    def test_large_lambda_row_refuses_a_value_past_the_largest_double(self, a, lam):
        # lambda * a underflows to 0 or 1/lambda overflows: the equivalent
        # is beyond every double, so it is refused, not returned as inf
        with pytest.raises(DomainError, match="not a finite double at t=0.0"):
            odds_limit_large_lambda(a, lam, 0.0)
        with pytest.raises(DomainError):
            odds_limit_large_lambda(a, lam, np.array([-2.0, 0.0, 1.0]))

    def test_large_lambda_row_keeps_its_finite_extremes(self):
        # ends and off-support points never reach the quotient; a tiny
        # lambda * a stays finite where lambda is large enough
        np.testing.assert_array_equal(
            odds_limit_large_lambda(0.5, 1e-320, np.array([-2.0, 1.0, 3.0])), [0.0, 1.0, 1.0])
        assert odds_limit_large_lambda(5e-324, 1e300, 0.0) == 2.0 / (1e300 * 5e-324) - 1e-300
        assert np.isnan(odds_limit_large_lambda(0.5, 10.0, np.nan))

    def test_limit_helpers_reject_bad_input(self):
        with pytest.raises(DomainError):
            odds_limit_large_lambda(0.0, 10.0, 0.0)
        with pytest.raises(DomainError):
            odds_limit_large_lambda(0.5, -1.0, 0.0)
        with pytest.raises(DomainError):
            odds_limit_small_lambda(1.5, 0.0)

    @pytest.mark.parametrize("call,message", [
        (lambda: odds_limit_small_lambda("x", 0.0), "ability must be a number, got 'x'"),
        (lambda: odds_limit_large_lambda("x", 10.0, 0.0),
         "ability must be a number, got 'x'"),
        (lambda: odds_limit_small_lambda(float("nan"), 0.0),
         "ability must lie in [0, 1], got nan"),
        (lambda: odds_limit_small_lambda(0.0, 0.0), "ability must lie in (0, 1], got 0.0"),
        (lambda: odds_limit_large_lambda(0.5, "y", 0.0),
         "odds_lambda must be a number, got 'y'"),
        (lambda: odds_limit_large_lambda(0.5, float("nan"), 0.0),
         "odds_lambda must be positive, got nan"),
        (lambda: odds_limit_large_lambda(0.5, 0.0, 0.0),
         "odds_lambda must be positive, got 0.0"),
    ], ids=["small-text-a", "large-text-a", "nan-a", "zero-a", "text-lambda",
            "nan-lambda", "zero-lambda"])
    def test_limit_helpers_name_the_broken_rule(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


def linear_odds_reference(a, odds_lambda, t):
    """The linear-odds closed form as one quotient,
    (1 + t) * (a*t - a + 2) * (a/4) / D(t); the solver evaluates it as
    the signal CDF times a / D(t) instead."""
    den = a + (odds_lambda - 1.0) * (a * a / 4.0) * (1.0 - t * t)
    return (1.0 + t) * (a * t - a + 2.0) * (a / 4.0) / den


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(st.floats(1e-300, 1.0),
                   st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e)),
       theta=st.floats(1e-6, 1.0 - 1e-6))
def test_linear_odds_closed_form_matches_the_one_quotient_form(a, theta):
    # a stops at 1e-300: below ~1e-307 the quotient form's a/4 is
    # subnormal and loses digits, which the solver's a / D(t) does not
    prior = Prior(theta)
    reference = linear_odds_reference(a, prior.odds_lambda, GRID_201)
    got = closed_form_linear_odds(a, prior, grid_size=3)(GRID_201)
    scale = np.where(reference == 0.0, 1.0, np.abs(reference))
    assert np.max(np.abs(got - reference) / scale) <= 4e-16


EPS = np.finfo(float).eps
EXACT_POINTS = check_grid(101)


def exact_linear_odds_h(theta, a, t):
    """H of ``LinearAbility(theta, a)`` at t in exact rationals: the odds
    formula from the same doubles, with the exact lambda = (1 - theta)/theta."""
    theta, a, t = Fraction(theta), Fraction(a), Fraction(t)
    lam = (1 - theta) / theta

    def alpha(x):
        return theta + (x + 1) * (1 - theta) * a / 2

    at, an = alpha(t), alpha(-t)
    return ((lam + 1) * at - 1) * (1 - an) / (at + an + (lam * lam - 1) * at * an - 1)


def assert_is_exact_h(solved, theta, a):
    """``solved`` is exactly 0 where the exact H is, and elsewhere within
    (16 + kappa) eps relative of it.  kappa is the condition number of the
    signal CDF's factor a*t - a + 2, which cancels near t = -1 when a is
    near 1; elsewhere it is at most a few units.  Measured over 3,000
    (theta, a) pairs drawn as below and 10,000 with a near 1 (2-CPU x86,
    numpy 2.4): at most 6.9 eps where kappa < 1, 43 eps at
    a = 1 - 1.3e-8, t = -0.98 (kappa 148), and never above 0.43 of the
    bound."""
    for got, t in zip(solved(EXACT_POINTS), EXACT_POINTS):
        exact = exact_linear_odds_h(theta, a, t)
        if exact == 0:
            assert got == 0.0, t
            continue
        kappa = (a * abs(t) + a * (1.0 - t)) / (2.0 - a * (1.0 - t))
        assert abs(Fraction(got) - exact) <= Fraction((16.0 + kappa) * EPS) * exact, t


CLOSED_FORM_ABILITIES = st.one_of(st.just(1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))


@settings(max_examples=120, deadline=None)
@given(theta=st.one_of(st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
                       st.floats(-16.0, math.log10(0.5)).map(lambda u: 1.0 - 10.0 ** u)),
       a=CLOSED_FORM_ABILITIES)
def test_linear_odds_closed_form_is_the_exact_h_of_its_spec(theta, a):
    assert_is_exact_h(closed_form_linear_odds(a, Prior(theta), grid_size=3), theta, a)


@settings(max_examples=60, deadline=None)
@given(a=CLOSED_FORM_ABILITIES)
def test_balanced_closed_form_is_the_exact_h_of_its_spec(a):
    assert_is_exact_h(closed_form_linear(a, grid_size=3), 0.5, a)


class TestOutsideTheSupport:
    OUTSIDE = np.array([-np.inf, -2.0, -1.0000000000000002, 1.0000000000000002,
                        2.0, np.inf])
    EXPECTED = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_balanced_closed_form_continues_as_zero_and_one(self, a):
        h = closed_form_linear(a)
        np.testing.assert_array_equal(h(self.OUTSIDE), self.EXPECTED)
        assert h(2.0) == 1.0

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("theta", [1e-6, 0.3, 0.9])
    def test_odds_closed_form_continues_as_zero_and_one(self, a, theta):
        h = closed_form_linear_odds(a, Prior(theta), allow_uniform_limit=True)
        np.testing.assert_array_equal(h(self.OUTSIDE), self.EXPECTED)
        assert h(-2.0) == 0.0

    SOLVED = {
        "closed_form_linear": lambda: closed_form_linear(0.5),
        "closed_form_linear_odds": lambda: closed_form_linear_odds(0.5, Prior(0.3)),
        "solve_balanced": lambda: solve_balanced(LinearAbility(0.5, 0.5)),
        "solve_odds": lambda: solve_odds(LinearAbility(0.3, 0.5), Prior(0.3)),
        "alt_decomposition_solver": lambda: alt_decomposition_solver(0.5),
        # H(-t) = gamma(t) + 0.4*H(t) for the uniform H(t) = (t + 1)/2,
        # with a gamma that keeps its line off [-1, +1]
        "solve_affine_pair": lambda: solve_affine_pair(CoefficientPair(
            gamma=lambda t: (1.0 - t) / 2.0 - 0.4 * (1.0 + t) / 2.0,
            delta=lambda t: np.full(np.shape(t), 0.4))),
    }

    @pytest.mark.parametrize("solver", SOLVED)
    def test_every_solver_reads_its_endpoint_values_beyond_them(self, solver):
        h = self.SOLVED[solver]()
        low, high = h(-1.0), h(1.0)
        expected = np.array([low, low, low, high, high, high])
        assert h(self.OUTSIDE).tobytes() == expected.tobytes()
        assert h(-2.0) == low and h(2.0) == high
        assert math.isnan(h(np.nan))

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("theta", [1e-6, 0.5, 0.9])
    def test_closed_forms_clamp_as_np_clip_does(self, a, theta):
        # NaN passes through and -0.0 keeps its sign, as under np.clip
        t = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, -1.0, 1.0, 5e-324, -0.3])
        h = closed_form_linear_odds(a, Prior(theta), allow_uniform_limit=True)
        if a == 0.0:
            expected = (np.clip(t, -1.0, 1.0) + 1.0) / 2.0
        else:
            c = np.clip(t, -1.0, 1.0)
            expected = (c + 1.0) * (a * c - a + 2.0) / 4.0
            lam = Prior(theta).odds_lambda
            if lam != 1.0:
                expected *= a / (a + (lam - 1.0) * (a * a / 4.0) * (1.0 - c * c))
        assert h(t).tobytes() == expected.tobytes()


class TestPosteriorTail:
    def test_prior_at_left_endpoint(self):
        h = closed_form_linear(0.8)
        assert posterior_tail(h, -1.0, HALF) == pytest.approx(0.5, abs=1e-12)
        prior = Prior(0.3)
        h_odds = solve_odds(LinearAbility(0.3, 0.8), prior)
        assert posterior_tail(h_odds, -1.0, prior) == pytest.approx(0.3, abs=1e-12)

    def test_one_at_right_endpoint(self):
        h = closed_form_linear(0.8)
        assert posterior_tail(h, 1.0, HALF) == 1.0

    def test_recovers_alpha_midpoint(self):
        h = closed_form_linear(1.0)
        assert posterior_tail(h, 0.0, HALF) == pytest.approx(0.75, abs=1e-12)

    def test_recovers_alpha_on_grid(self):
        alpha = LinearAbility(0.5, 0.7)
        h = solve_balanced(alpha)
        recovered = posterior_tail(h, GRID_201[:-1], HALF)
        np.testing.assert_allclose(recovered, alpha(GRID_201[:-1]),
                                   rtol=0.0, atol=1e-12)

    def test_interior_mass_exhaustion_raises(self):
        # a CDF that hits 1 at t = 0.5 makes both tails vanish beyond it
        def early(t):
            t = np.asarray(t, dtype=float)
            return np.clip(t + 0.5, 0.0, 1.0)

        with pytest.raises(Indeterminate):
            posterior_tail(early, 0.75, HALF)

    def test_interior_exhaustion_on_a_multi_dimensional_input_raises(self):
        # the first vanishing denominator is at t = 0.7, flat index 2
        def early(t):
            return np.where(np.asarray(t) > -0.5, 1.0, 0.0)

        with pytest.raises(Indeterminate, match="t=0.7;"):
            posterior_tail(early, [[0.2, 0.3], [0.7, 0.9]], HALF)

    def test_multi_dimensional_input_keeps_its_shape(self):
        h = closed_form_linear(0.8)
        t = np.array([[-1.0, 0.0], [0.5, 1.0]])
        got = posterior_tail(h, t, HALF)
        assert got.shape == (2, 2)
        assert got.tobytes() == posterior_tail(h, t.ravel(), HALF).tobytes()


class TestTabulatedRoundTrip:
    @staticmethod
    def _curved_alpha(t):
        t = np.asarray(t, dtype=float)
        u = (t + 1.0) / 2.0
        out = 0.5 + 0.375 * u * u
        return out if out.ndim else float(out)

    @staticmethod
    def _tabulate(h_solved, knots):
        tk = np.linspace(-1.0, 1.0, knots)
        vals = np.empty_like(tk)
        vals[:-1] = posterior_tail(h_solved, tk[:-1], HALF)
        # posterior_tail reads the 0/0 at t = +1 as 1 by the boundary
        # convention of the defining equation; the alpha knot there is
        # instead the left-limit, recovered by linear extrapolation
        vals[-1] = 2.0 * vals[-2] - vals[-3]
        return Tabulated(points=tuple(zip(tk.tolist(), vals.tolist())))

    def _roundtrip_error(self, knots):
        h_true = solve_balanced(self._curved_alpha)
        h_round = solve_balanced(self._tabulate(h_true, knots))
        fine = np.linspace(-1.0, 1.0, 2001)
        return float(np.max(np.abs(h_round(fine) - h_true(fine))))

    def test_error_is_quadratic_in_knot_spacing(self):
        err_coarse = self._roundtrip_error(51)
        err_fine = self._roundtrip_error(101)
        step_coarse = 2.0 / 50.0
        assert err_coarse <= 0.5 * step_coarse**2
        # halving the spacing should quarter the error
        assert 0.15 <= err_fine / err_coarse <= 0.35

    def test_linear_alpha_round_trips_exactly(self):
        # knots of a linear alpha are reproduced by linear interpolation,
        # so the round trip is limited only by rounding
        h_true = solve_balanced(LinearAbility(0.5, 0.8))
        h_round = solve_balanced(self._tabulate(h_true, 41))
        fine = np.linspace(-1.0, 1.0, 801)
        np.testing.assert_allclose(h_round(fine), h_true(fine),
                                   rtol=0.0, atol=1e-12)


def logistic_mixture_cdf(bumps):
    """A smooth CDF on [-1, 1]: the weighted mixture of logistic CDFs with
    the given (centre, scale, weight), each cut to [-1, 1] and
    renormalized there."""
    total = sum(w for _, _, w in bumps)

    def h(t):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        out = np.zeros_like(t)
        for c, s, w in bumps:
            lo, hi = (1.0 / (1.0 + math.exp((c - x) / s)) for x in (-1.0, 1.0))
            out += w / total * (1.0 / (1.0 + np.exp((c - t) / s)) - lo) / (hi - lo)
        return out
    return h


@st.composite
def state_a_bumps(draw):
    """1 to 4 logistic bumps, each centred right of 0 (log-uniform in
    [1e-4, 1]): a bump's density is then larger at u than at -u for
    u > 0, so the mixture has H(t) + H(-t) < 1 inside (-1, 1), as a
    state-A signal CDF does.  That keeps alpha above theta there and the
    odds denominator positive.  A centre near 1e-4 gives an almost
    symmetric H and a small denominator."""
    return draw(st.lists(st.tuples(st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e),
                                   st.floats(0.05, 1.0), st.floats(0.1, 1.0)),
                         min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(bumps=state_a_bumps(),
       theta=st.one_of(st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
                       st.floats(-3.0, math.log10(0.5)).map(lambda e: 1.0 - 10.0 ** e)))
def test_alpha_determines_h_at_any_prior(bumps, theta):
    """The paper's uniqueness result as a round trip: H -> alpha =
    posterior_tail(H, ., Prior(theta)) -> solve_odds gives back H.  The
    bound scales as 1/(1 - theta) because 1 - alpha loses digits as
    theta -> 1.  Over a sweep of centres, scales and priors the error
    reached 3e-9 at theta = 0.999 and 6e-12 at theta = 0.001, both with
    centres at 1e-4 and at most 0.06 of the bound."""
    prior = Prior(theta)
    h = logistic_mixture_cdf(bumps)
    solved = solve_odds(lambda t: posterior_tail(h, t, prior), prior)
    grid = check_grid(1001)
    assert np.abs(solved(grid) - h(grid)).max() <= 1e-10 / (1.0 - theta)


@pytest.mark.parametrize("theta", [0.01, 0.3, 0.7, 0.95])
def test_tabulated_alpha_error_falls_as_knot_spacing_squared(theta):
    """The round trip through a table: alpha = posterior_tail(H, ., Prior(theta))
    on m and 2m equal knot intervals, then solve_odds(Tabulated(...)).
    Piecewise-linear interpolation errs by about spacing**2 * alpha''/8,
    so halving the spacing cuts the error in H by about 4 (3.83-4.01
    measured at m = 20 and 40).  H = ((1 + t)/2)**3 has zero density at
    t = -1, which keeps alpha smooth up to t = +1; a logistic mixture,
    whose density is positive there, has alpha(1-) < 1 = alpha(1) and
    converges only linearly."""
    prior = Prior(theta)

    def h(t):
        return ((1.0 + np.asarray(t, dtype=float)) / 2.0) ** 3

    grid = check_grid(1001)
    errors = []
    for m in (20, 40):
        knots = np.linspace(-1.0, 1.0, m + 1)
        table = Tabulated(tuple(zip(knots.tolist(), posterior_tail(h, knots, prior).tolist())))
        errors.append(np.abs(solve_odds(table, prior)(grid) - h(grid)).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@settings(max_examples=60, deadline=None)
@given(bumps=state_a_bumps(), c=st.floats(-0.9, 0.9))
def test_affine_pair_recovers_h_from_its_own_relation(bumps, c):
    """The affine-pair route to a known H: gamma(t) = H(-t) - c * H(t)
    and delta = c make H the pair's solution, and solve_affine_pair
    gives it back within rounding amplified by 1 / (1 - c**2) <= 5.3."""
    h = logistic_mixture_cdf(bumps)
    pair = CoefficientPair(gamma=lambda t: h(-np.asarray(t)) - c * h(t),
                           delta=lambda t: np.full(np.shape(t), c))
    solved = solve_affine_pair(pair)
    grid = check_grid(1001)
    assert np.abs(solved(grid) - h(grid)).max() <= 1e-12
    assert solved.max_residual <= 1e-12
    assert solved.is_valid_cdf


class TestSolvedCdfBehavior:
    def test_provenance_tags(self):
        assert solve_balanced(LinearAbility(0.5, 0.5)).provenance \
            is Provenance.BALANCED_FORMULA
        assert closed_form_linear(0.5).provenance is Provenance.CLOSED_FORM_LINEAR
        assert alt_decomposition_solver(0.5).provenance is Provenance.DECOMPOSITION
        assert solve_odds(LinearAbility(0.5, 0.5), HALF).provenance \
            is Provenance.ODDS_FORMULA
        assert closed_form_linear_odds(0.5, Prior(0.4)).provenance \
            is Provenance.CLOSED_FORM_LINEAR

    def test_scalar_and_array_evaluation(self):
        solved = closed_form_linear(0.5)
        scalar = solved(0.25)
        assert isinstance(scalar, float)
        arr = solved(np.array([0.25, 0.5]))
        assert arr.shape == (2,)
        assert arr[0] == scalar

    def test_from_table_wraps_solver_output(self):
        h = closed_form_linear(0.7)
        t = np.linspace(-1.0, 1.0, 101)
        table = SolvedCdf.from_table(np.column_stack([t, h(t)]))
        assert table.is_valid_cdf
        report = residual_check(table, LinearAbility(0.5, 0.7), HALF,
                                grid_size=101)
        assert report.max_residual <= 1e-10


class CountingAlpha(AlphaSpec):
    """A linear alpha that records the points of every call."""

    def __init__(self, theta, a):
        self.inner = LinearAbility(theta, a)
        self.calls = []

    def __call__(self, t):
        self.calls.append(np.array(t, dtype=float))
        return self.inner(t)


def call_labels(calls, grid):
    """Name each recorded call: a scalar probe at -1 (alpha(-1) is the
    grid's first value), +grid or -grid (which, the grid being
    antisymmetric, no solver needs)."""
    labels = []
    for t in calls:
        if t.ndim == 0 and t == -1.0:
            labels.append("probe")
        elif np.array_equal(t, grid):
            labels.append("+grid")
        elif np.array_equal(t, -grid):
            labels.append("-grid")
        else:
            labels.append(repr(t))
    return sorted(labels)


class TestOneGridPass:
    """Each solver evaluates its inputs once, on the grid, reads their
    values on -grid as those reversed, and hands them to its residual
    and validity checks."""

    @pytest.mark.parametrize("theta, solve", [
        (0.3, lambda alpha: solve_odds(alpha, Prior(0.3), grid_size=101)),
        (0.5, lambda alpha: solve_balanced(alpha, grid_size=101)),
    ], ids=["odds", "balanced"])
    def test_solve_odds_evaluates_alpha_once_on_the_grid(self, theta, solve):
        alpha = CountingAlpha(theta, 0.7)
        solved = solve(alpha)
        assert call_labels(alpha.calls, exact_grid(101)) == ["+grid"]
        assert solved.max_residual <= RESIDUAL_TOL

    @pytest.mark.parametrize("theta, solve", [
        (0.3, lambda alpha: solve_odds(alpha, Prior(0.3), allow_uniform_limit=True,
                                       grid_size=101)),
        (0.5, lambda alpha: solve_balanced(alpha, allow_uniform_limit=True, grid_size=101)),
    ], ids=["odds", "balanced"])
    def test_uniform_limit_reuses_the_one_grid_pass(self, theta, solve):
        alpha = CountingAlpha(theta, 0.0)
        solved = solve(alpha)
        assert call_labels(alpha.calls, exact_grid(101)) == ["+grid"]
        grid = exact_grid(101)
        assert same_bits(solved(grid), (grid + 1.0) / 2.0)
        assert solved.max_residual <= RESIDUAL_TOL and solved.is_valid_cdf

    def test_boundary_refusal_reads_alpha_at_minus_one_off_the_grid(self):
        alpha = CountingAlpha(0.4, 0.7)
        with pytest.raises(InvalidBoundary) as exc:
            solve_odds(alpha, Prior(0.5), grid_size=101)
        assert str(exc.value) == "alpha(-1) = 0.4 disagrees with the prior theta = 0.5"
        assert call_labels(alpha.calls, exact_grid(101)) == ["+grid"]

    def test_residual_check_evaluates_h_and_alpha_once_on_the_grid(self):
        alpha, h = CountingAlpha(0.3, 0.7), CountingAlpha(0.3, 0.7)
        h.inner = closed_form_linear_odds(0.7, Prior(0.3), grid_size=101)
        report = residual_check(h, alpha, Prior(0.3), 101)
        for counted in (h, alpha):
            assert call_labels(counted.calls, exact_grid(101)) == ["+grid"]
        assert report.max_residual <= RESIDUAL_TOL

    def test_affine_pair_evaluates_each_coefficient_once_on_the_grid(self):
        calls = {"gamma": [], "delta": []}

        def counted(name, fn):
            def call(t):
                calls[name].append(np.array(t, dtype=float))
                return fn(np.asarray(t, dtype=float))
            return call

        pair = CoefficientPair(
            gamma=counted("gamma", lambda t: np.asarray(cdf_given_A(0.6, -t))
                          - 0.4 * np.asarray(cdf_given_A(0.6, t))),
            delta=counted("delta", lambda t: np.full(t.shape, 0.4)))
        solved = solve_affine_pair(pair, grid_size=101)
        for name in ("gamma", "delta"):
            assert call_labels(calls[name], exact_grid(101)) == ["+grid"], name
        assert solved.max_residual <= RESIDUAL_TOL
        calls["delta"].clear()
        pair.singularity_gap(101)
        assert call_labels(calls["delta"], exact_grid(101)) == ["+grid"]


def in_place_linear(theta, a):
    """LinearAbility(theta, a) computed in place: it writes into an array
    argument, step by step in the order LinearAbility rounds."""
    def alpha(t):
        t += 1.0
        t *= 1.0 - theta
        t *= a
        t /= 2.0
        t += theta
        return t
    return alpha


def affine_pairs():
    """The same (gamma, delta) pair twice: pure, and computed in place
    into an array argument."""
    def pure_gamma(t):
        return np.asarray(cdf_given_A(0.6, -t)) - 0.4 * np.asarray(cdf_given_A(0.6, t))

    def in_place_delta(t):
        t *= 0.0
        t += 0.4
        return t

    def in_place_gamma(t):
        values = pure_gamma(np.asarray(t, dtype=float))
        t *= 0.0
        t += values
        return t

    return (CoefficientPair(pure_gamma, lambda t: np.full(np.shape(t), 0.4)),
            CoefficientPair(in_place_gamma, in_place_delta))


def read_only(values):
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def same_bits(x, y):
    """Bit-for-bit equality, with -0.0 read as +0.0: -grid's middle point
    is -0.0 where the reversed grid's is +0.0, and an odd function keeps
    that sign."""
    return (np.asarray(x) + 0.0).tobytes() == (np.asarray(y) + 0.0).tobytes()


def curved_table(theta):
    """A 41-knot tabulated alpha through (-1, theta), curved between knots."""
    knots = np.linspace(-1.0, 1.0, 41)
    values = theta + (1.0 - theta) * 0.6 * ((knots + 1.0) / 2.0) ** 1.3
    return Tabulated(tuple(zip(knots.tolist(), values.tolist())))


#: Alpha specs, every solver's evaluator and plain numpy callables, each
#: built when its test runs
MIRROR_CASES = {
    "linear": lambda: LinearAbility(0.3, 0.7),
    "affine": lambda: Affine(0.5, 0.2),
    "table": lambda: curved_table(0.3),
    "odds": lambda: solve_odds(LinearAbility(0.3, 0.7), Prior(0.3)),
    "odds-above-half": lambda: solve_odds(LinearAbility(0.8, 0.7), Prior(0.8)),
    "odds-table": lambda: solve_odds(curved_table(0.3), Prior(0.3)),
    "balanced": lambda: solve_balanced(LinearAbility(0.5, 0.6)),
    "affine-pair": lambda: solve_affine_pair(affine_pairs()[0]),
    "closed-form": lambda: closed_form_linear(0.6),
    "closed-form-odds": lambda: closed_form_linear_odds(0.7, Prior(1e-200)),
    "uniform": lambda: closed_form_linear(0.0),
    "decomposition": lambda: alt_decomposition_solver(0.6),
    "from-table": lambda: SolvedCdf.from_table([(-1.0, 0.0), (0.2, 0.45), (1.0, 1.0)]),
    "exp": lambda: np.exp,
    "tanh": lambda: np.tanh,
    "log1p": lambda: np.log1p,
    "cube": lambda: lambda t: t ** 3,
    "power": lambda: lambda t: (1.0 + t) ** 1.7,
}


class TestCheckGrid:
    """Solvers share one exactly antisymmetric read-only grid per size; no
    array a caller sees is that grid or read-only."""

    @pytest.mark.parametrize("n", [3, 101, 1001, 20001])
    def test_cached_grid_is_read_only(self, n):
        grid = check_grid(n)
        assert check_grid(n) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    @pytest.mark.parametrize("n", [3, 5, 101, 1001, 20001])
    def test_grid_is_correctly_rounded_and_antisymmetric(self, n):
        grid = check_grid(n)
        assert grid.tobytes() == exact_grid(n).tobytes()
        assert (grid[0], grid[n // 2], grid[-1]) == (-1.0, 0.0, 1.0)
        assert same_bits(grid[::-1], -grid)

    @pytest.mark.parametrize("n", [3, 101, 1001, 20001])
    @pytest.mark.parametrize("name", list(MIRROR_CASES))
    def test_values_on_the_mirror_grid_are_the_values_reversed(self, name, n):
        fn = MIRROR_CASES[name]()
        grid = check_grid(n)
        with np.errstate(divide="ignore"):  # log1p(-1) is -inf
            mirror, forward = evaluate_on(fn, -grid), evaluate_on(fn, grid)
        assert same_bits(mirror, forward[::-1])

    def test_writing_into_a_report_leaves_later_calls_alone(self):
        alpha, prior = LinearAbility(0.3, 0.7), Prior(0.3)
        solved = solve_odds(alpha, prior, grid_size=101)
        before = residual_check(solved, alpha, prior, 101)
        report = residual_check(solved, alpha, prior, 101)
        for values in (report.t, report.h, report.alpha, report.residual):
            assert values.flags.writeable
            values[:] = 7.0
        later = residual_check(solved, alpha, prior, 101)
        assert later.t.tobytes() == exact_grid(101).tobytes()
        assert later.h.tobytes() == before.h.tobytes()
        assert later.max_residual == before.max_residual
        again = solve_odds(alpha, prior, grid_size=101)
        assert again(GRID_201).tobytes() == solved(GRID_201).tobytes()
        assert again.max_residual == solved.max_residual

    def test_a_callable_that_returns_its_argument_gets_its_own_copy(self):
        report = residual_check(lambda t: t, LinearAbility(0.5, 0.6), HALF, 101)
        assert report.h.flags.writeable
        report.h[:] = 7.0
        assert check_grid(101).tobytes() == exact_grid(101).tobytes()
        assert report.t.tobytes() == exact_grid(101).tobytes()

    @pytest.mark.parametrize("theta, a", [(0.3, 0.7), (0.5, 0.6), (0.8, 1.0), (1e-200, 0.4)])
    @pytest.mark.parametrize("grid_size", [101, 1001])
    def test_alpha_that_updates_its_argument_matches_a_pure_one(self, theta, a, grid_size):
        prior = Prior(theta)
        pure = solve_odds(LinearAbility(theta, a), prior, grid_size=grid_size)
        impure = solve_odds(in_place_linear(theta, a), prior, grid_size=grid_size)
        # a read-only argument sends the in-place alpha through the scalar loop
        t = read_only(np.linspace(-1.5, 1.5, 301))
        assert impure(t).tobytes() == pure(t).tobytes()
        assert impure.max_residual == pure.max_residual
        assert impure.is_valid_cdf == pure.is_valid_cdf
        check = residual_check(pure, in_place_linear(theta, a), prior, grid_size)
        assert check.max_residual == pure.max_residual
        assert check.alpha.tobytes() == evaluate_on(LinearAbility(theta, a),
                                                    check_grid(grid_size)).tobytes()

    @pytest.mark.parametrize("t", [[[0.1], [0.2]],
                                   np.linspace(-1.5, 1.5, 24).reshape(2, 3, 4)],
                             ids=["nested-list", "3-d"])
    def test_in_place_alpha_on_a_multi_dimensional_input(self, t):
        # the scalar loop visits every element, not only the first axis
        prior = Prior(0.3)
        pure = solve_odds(LinearAbility(0.3, 0.7), prior, grid_size=101)
        impure = solve_odds(in_place_linear(0.3, 0.7), prior, grid_size=101)
        got, expected = impure(t), pure(t)
        assert expected.shape == np.shape(t)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        pure_pair, in_place_pair = affine_pairs()
        expected = solve_affine_pair(pure_pair, grid_size=101)(t)
        got = solve_affine_pair(in_place_pair, grid_size=101)(t)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_coefficients_that_update_their_argument_match_pure_ones(self):
        pure_pair, in_place_pair = affine_pairs()
        pure = solve_affine_pair(pure_pair, grid_size=101)
        impure = solve_affine_pair(in_place_pair, grid_size=101)
        assert impure.max_residual == pure.max_residual
        assert impure.is_valid_cdf == pure.is_valid_cdf
        t = read_only(GRID_201)
        assert impure(t).tobytes() == pure(t).tobytes()
        assert in_place_pair.singularity_gap(101) == (0.84, -1.0)

    @pytest.mark.parametrize("n", [5, 1001])
    @pytest.mark.parametrize("solve, inputs", [
        (lambda alpha: solve_odds(alpha, Prior(0.3)),
         (LinearAbility(0.3, 0.7), in_place_linear(0.3, 0.7))),
        (solve_affine_pair, affine_pairs()),
        (closed_form_linear, (0.7, 0.7)),
        (closed_form_linear, (0.0, 0.0)),
        (lambda a: closed_form_linear_odds(a, Prior(0.3)), (0.7, 0.7)),
        (alt_decomposition_solver, (0.7, 0.7)),
        (SolvedCdf.from_table, ([(-1.0, 0.0), (0.2, 0.45), (1.0, 1.0)],) * 2),
    ], ids=["odds", "affine", "closed-form", "uniform", "closed-form-odds",
            "decomposition", "table"])
    def test_evaluator_leaves_a_writable_argument_alone(self, solve, inputs, n):
        pure, impure = (solve(x) for x in inputs)
        t = np.linspace(-1.0, 1.0, n)
        assert impure(t).tobytes() == pure(read_only(t)).tobytes()
        assert t.tobytes() == np.linspace(-1.0, 1.0, n).tobytes()
        for solved in (pure, impure):
            scalar, zero_d, listed = solved(0.25), solved(np.asarray(0.25)), solved([0.25, 0.5])
            assert type(scalar) is float and type(zero_d) is float
            assert isinstance(listed, np.ndarray) and listed.shape == (2,)
            assert scalar == zero_d == listed[0]


def same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def affine_pair_residual(solved, coeffs, grid_size):
    """solve_affine_pair's check from scratch: the sup of
    |H(-t) - gamma(t) - delta(t) * H(t)| on the grid, and H on the grid."""
    grid = exact_grid(grid_size)
    h_pos = evaluate_on(solved, grid)
    residual = np.abs(evaluate_on(solved, -grid) - evaluate_on(coeffs.gamma, grid)
                      - evaluate_on(coeffs.delta, grid) * h_pos)
    return float(np.max(residual)), h_pos


def alpha_of_kind(kind, theta, a, p):
    """A linear, affine or 41-knot curved tabulated alpha through
    (-1, theta), or None where its constructor refuses (an affine
    alpha(-1) or a table flat to rounding)."""
    slope = (1.0 - theta) * a / 2.0
    t = np.linspace(-1.0, 1.0, 41)
    v = theta + (1.0 - theta) * a * ((t + 1.0) / 2.0) ** p
    try:
        if kind == "linear":
            return LinearAbility(theta, a)
        if kind == "affine":
            return Affine(theta + slope, slope)
        return Tabulated(tuple(zip(t.tolist(), v.tolist())))
    except DomainError:
        return None


@st.composite
def accepted_priors(draw):
    """theta over the range Prior accepts: ordinary, log-uniform down to
    1e-300, or within 1e-16 of 1."""
    return draw(st.one_of(
        st.floats(1e-6, 1.0 - 1e-6),
        st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
        st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
        st.just(1e-300)))


@settings(max_examples=120, deadline=None)
@given(theta=accepted_priors(),
       a=st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
       p=st.floats(0.6, 1.6),
       kind=st.sampled_from(["linear", "affine", "table"]),
       grid_size=st.sampled_from([3, 101, 1001]))
def test_every_solver_matches_a_fresh_residual_check(theta, a, p, kind, grid_size):
    """Each solver's max_residual and is_valid_cdf equal, bit for bit, a
    from-scratch check of the evaluator it returns."""
    prior = Prior(theta)
    alpha, half = alpha_of_kind(kind, theta, a, p), alpha_of_kind(kind, 0.5, a, p)
    runs = [(lambda: closed_form_linear_odds(a, prior, allow_uniform_limit=True,
                                             grid_size=grid_size),
             LinearAbility(theta, a), prior),
            (lambda: closed_form_linear(a, grid_size=grid_size), LinearAbility(0.5, a), HALF),
            (lambda: alt_decomposition_solver(a, grid_size=grid_size),
             LinearAbility(0.5, a), HALF)]
    if alpha is not None:
        runs.append((lambda: solve_odds(alpha, prior, allow_uniform_limit=True,
                                        grid_size=grid_size), alpha, prior))
    if half is not None:
        runs.append((lambda: solve_balanced(half, allow_uniform_limit=True,
                                            grid_size=grid_size), half, HALF))
    for run, target, target_prior in runs:
        try:
            solved = run()
        except (DegenerateAlpha, InvalidBoundary):
            continue
        report = residual_check(solved, target, target_prior, grid_size=grid_size)
        assert same(solved.max_residual, report.max_residual), solved.provenance
        assert solved.is_valid_cdf == cdf_values_ok(report.h), solved.provenance

    c = 0.9 * p - 0.5  # in (0.04, 0.94)
    pair = CoefficientPair(
        gamma=lambda t: np.asarray(cdf_given_A(a, -np.asarray(t)))
        - c * np.asarray(cdf_given_A(a, t)),
        delta=lambda t: np.full(np.shape(t), c))
    solved = solve_affine_pair(pair, grid_size=grid_size)
    residual, h_pos = affine_pair_residual(solved, pair, grid_size)
    assert same(solved.max_residual, residual)
    assert solved.is_valid_cdf == cdf_values_ok(h_pos)


def test_a_nan_residual_is_the_max_residual():
    """One NaN on the check grid makes a solver's max_residual NaN, as
    it makes residual_check's: the maximum does not drop it."""
    linear = LinearAbility(0.3, 0.6)

    def alpha(t):
        return np.where(np.asarray(t) == 0.5, np.nan, linear(t))

    solved = solve_odds(alpha, Prior(0.3), grid_size=101)
    assert math.isnan(solved.max_residual) and not solved.is_valid_cdf
    assert math.isnan(residual_check(solved, alpha, Prior(0.3), 101).max_residual)
    pair = CoefficientPair(gamma=alpha, delta=lambda t: np.full(np.shape(t), 0.4))
    assert math.isnan(solve_affine_pair(pair, grid_size=101).max_residual)


INTERIOR = np.linspace(-0.95, 0.95, 39)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 1.0), log_gap=st.floats(-6.5, math.log10(0.5)))
def test_solve_odds_approaches_the_small_lambda_row(a, log_gap):
    """As theta -> 1 (lambda -> 0), up to the edge where solve_odds refuses,
    the solution is the lambda = 0 row within lambda * 4a/9: the two share
    the numerator and their denominators differ by lambda * a**2 (1 - t**2)/4,
    against a product of denominators of at least (3a/4)**2."""
    theta = 1.0 - 10.0 ** log_gap
    prior = Prior(theta)
    lam = prior.odds_lambda
    try:
        solved = solve_odds(LinearAbility(theta, a), prior)
    except DegenerateAlpha:
        assert lam < 1e-5  # refused only where den sinks below the guard
        return
    gap = np.abs(solved(INTERIOR) - odds_limit_small_lambda(a, INTERIOR))
    # 1e-9: rounding of 1 - alpha, which has lost digits this close to 1
    assert np.max(gap) <= lam * 4.0 * a / 9.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 1.0), theta=tiny_priors())
def test_solve_odds_approaches_the_large_lambda_row(a, theta):
    """As theta -> 0 (lambda -> inf) the solution is the large-odds row L
    within a relative 4/(lambda * a * (1 - t**2)): the exact denominator
    D exceeds the row's lambda * a**2 (1 - t**2)/4 by less than a."""
    prior = Prior(theta)
    lam = prior.odds_lambda
    solved = solve_odds(LinearAbility(theta, a), prior)
    row = odds_limit_large_lambda(a, lam, INTERIOR)
    gap = np.abs(solved(INTERIOR) - row) / row
    # 1e-14: rounding, relative
    assert np.all(gap <= 4.0 / (lam * a * (1.0 - INTERIOR ** 2)) + 1e-14)


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1.0)))
def test_balanced_closed_form_is_the_state_a_signal_cdf_bit_for_bit(a):
    # at lambda = 1 the factor a / D(t) is exactly 1 and is skipped
    solved = closed_form_linear(a)
    t = np.linspace(-1.0, 1.0, 1001)
    np.testing.assert_array_equal(solved(t), cdf_given_A(a, t))
