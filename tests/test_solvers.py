import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbalance import (
    Affine,
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
from tailbalance.alpha import RESIDUAL_TOL

HALF = Prior(0.5)
ABILITIES = [round(0.1 * k, 1) for k in range(1, 11)]
GRID_201 = np.linspace(-1.0, 1.0, 201)


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
