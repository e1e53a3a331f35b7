import numpy as np
import pytest

from tailbalance import (
    Affine,
    BetaFn,
    CoefficientPair,
    DomainError,
    LinearAbility,
    Prior,
    Provenance,
    SolvedCdf,
    Tabulated,
    alpha_from_json,
    cdf_axioms_hold,
)

GRID = np.linspace(-1.0, 1.0, 201)


class TestLinearAbility:
    def test_endpoints(self):
        spec = LinearAbility(theta=0.5, a=0.8)
        assert spec(-1.0) == 0.5
        assert spec(1.0) == pytest.approx(0.9, abs=1e-15)

    def test_reduces_to_prior_when_ability_is_zero(self):
        spec = LinearAbility(theta=0.3, a=0.0)
        np.testing.assert_allclose(spec(GRID), 0.3, rtol=0.0, atol=0.0)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(DomainError):
            LinearAbility(theta=0.0, a=0.5)
        with pytest.raises(DomainError):
            LinearAbility(theta=0.5, a=-0.1)
        with pytest.raises(DomainError):
            LinearAbility(theta=0.5, a=1.5)
        for theta in (None, "x"):
            with pytest.raises(DomainError):
                LinearAbility(theta=theta, a=0.5)

    def test_json_roundtrip(self):
        spec = LinearAbility(theta=0.4, a=0.7)
        clone = alpha_from_json(spec.to_json())
        np.testing.assert_allclose(clone(GRID), spec(GRID), rtol=0.0, atol=0.0)


class TestAffine:
    def test_matches_linear_parameterization(self):
        # intercept - slope = theta at t = -1, slope = (1 - theta) a / 2
        theta, a = 0.5, 0.6
        spec = Affine(intercept=theta + (1.0 - theta) * a / 2.0,
                      slope=(1.0 - theta) * a / 2.0)
        linear = LinearAbility(theta=theta, a=a)
        np.testing.assert_allclose(spec(GRID), linear(GRID), rtol=0.0, atol=1e-15)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(DomainError):
            Affine(intercept=0.6, slope=0.0)

    def test_rejects_values_leaving_unit_interval(self):
        with pytest.raises(DomainError):
            Affine(intercept=0.9, slope=0.3)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            Affine(intercept="x", slope=0.2)
        with pytest.raises(DomainError):
            Affine(intercept=0.6, slope=None)

    def test_json_roundtrip(self):
        spec = Affine(intercept=0.65, slope=0.15)
        clone = alpha_from_json(spec.to_json())
        np.testing.assert_allclose(clone(GRID), spec(GRID), rtol=0.0, atol=0.0)


class TestTabulated:
    def test_interpolates_linearly(self):
        spec = Tabulated(points=((-1.0, 0.5), (0.0, 0.7), (1.0, 0.9)))
        assert spec(-0.5) == pytest.approx(0.6, abs=1e-15)
        assert spec(0.5) == pytest.approx(0.8, abs=1e-15)

    def test_requires_full_support_coverage(self):
        with pytest.raises(DomainError):
            Tabulated(points=((-0.9, 0.5), (1.0, 0.9)))

    def test_requires_strictly_increasing_values(self):
        with pytest.raises(DomainError):
            Tabulated(points=((-1.0, 0.5), (0.0, 0.5), (1.0, 0.9)))

    @pytest.mark.parametrize("points", [5, [[-1.0, 0.5, 0.1]], [[-1.0, "x"], [1.0, 0.9]]])
    def test_rejects_malformed_points(self, points):
        with pytest.raises(DomainError):
            alpha_from_json({"kind": "table", "points": points})

    def test_json_roundtrip(self):
        spec = Tabulated(points=((-1.0, 0.5), (-0.25, 0.62), (1.0, 0.95)))
        clone = alpha_from_json(spec.to_json())
        np.testing.assert_allclose(clone(GRID), spec(GRID), rtol=0.0, atol=0.0)


class TestAlphaFromJson:
    def test_accepts_json_string(self):
        spec = alpha_from_json('{"kind": "linear", "theta": 0.5, "a": 0.4}')
        assert isinstance(spec, LinearAbility)
        assert spec.a == 0.4

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            alpha_from_json({"kind": "quadratic"})

    def test_rejects_inconsistent_declared_theta(self):
        with pytest.raises(DomainError):
            alpha_from_json({"kind": "affine", "intercept": 0.65,
                             "slope": 0.15, "theta": 0.9})


class TestBetaFn:
    def test_matches_odds_of_alpha(self):
        spec = LinearAbility(theta=0.5, a=0.8)
        beta = BetaFn(spec)
        vals = spec(GRID)
        np.testing.assert_allclose(beta(GRID), vals / (1.0 - vals),
                                   rtol=0.0, atol=1e-12)

    def test_strictly_increasing(self):
        beta = BetaFn(LinearAbility(theta=0.4, a=0.6))
        assert np.all(np.diff(beta(GRID[:-1])) > 0.0)

    def test_infinite_at_certainty(self):
        beta = BetaFn(LinearAbility(theta=0.5, a=1.0))
        assert beta(1.0) == np.inf

    def test_anchored_at_prior_odds(self):
        prior = Prior(0.4)
        beta = BetaFn(LinearAbility(theta=prior.theta, a=0.5))
        assert beta(-1.0) == pytest.approx(prior.theta / (1.0 - prior.theta),
                                           abs=1e-15)


class TestCoefficientPair:
    def test_solvable_when_product_stays_away_from_one(self):
        pair = CoefficientPair(gamma=lambda t: 0.25 * (1.0 - t),
                               delta=lambda t: -0.25 * (1.0 - t))
        gap, _ = pair.singularity_gap()
        assert gap > 0.5
        assert pair.is_solvable()

    def test_detects_singular_product(self):
        pair = CoefficientPair(gamma=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                               delta=lambda t: np.ones_like(np.asarray(t, dtype=float)))
        gap, where = pair.singularity_gap()
        assert gap < 1e-12
        assert -1.0 <= where <= 1.0
        assert not pair.is_solvable()


class TestSolvedCdf:
    def test_from_table_evaluates_by_interpolation(self):
        t = np.linspace(-1.0, 1.0, 5)
        h = (t + 1.0) / 2.0
        solved = SolvedCdf.from_table(np.column_stack([t, h]))
        assert solved.provenance is Provenance.GRID_NUMERIC
        assert np.isnan(solved.max_residual)
        assert solved.is_valid_cdf
        assert solved(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_from_table_flags_invalid_cdf(self):
        t = np.linspace(-1.0, 1.0, 5)
        h = np.array([0.0, 0.6, 0.4, 0.8, 1.0])
        solved = SolvedCdf.from_table(np.column_stack([t, h]))
        assert not solved.is_valid_cdf

    def test_from_table_requires_support_endpoints(self):
        t = np.linspace(-0.5, 1.0, 5)
        h = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            SolvedCdf.from_table(np.column_stack([t, h]))


def test_cdf_axioms_hold_accepts_valid_cdf():
    assert cdf_axioms_hold(lambda t: (np.asarray(t) + 1.0) / 2.0)


def test_cdf_axioms_hold_rejects_wrong_endpoint():
    assert not cdf_axioms_hold(lambda t: (np.asarray(t) + 1.0) / 4.0)


def test_cdf_axioms_hold_rejects_decreasing():
    assert not cdf_axioms_hold(lambda t: (1.0 - np.asarray(t)) / 2.0)
