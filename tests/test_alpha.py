import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbalance import (
    Affine,
    CoefficientPair,
    DomainError,
    InvalidBoundary,
    LinearAbility,
    Prior,
    Provenance,
    SolvedCdf,
    Tabulated,
    alpha_from_json,
    cdf_axioms_hold,
    solve_odds,
)
from tailbalance.alpha import EQUALITY_TOL, _alpha_and_prior, _missing_field, cdf_values_ok

GRID = np.linspace(-1.0, 1.0, 201)
#: JSON text nested too deep for the parser
DEEP = "[" * 100000 + "]" * 100000


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
        with pytest.raises(DomainError, match="^intercept must be a number, got 'x'$"):
            Affine(intercept="x", slope=0.2)
        with pytest.raises(DomainError, match="^slope must be a number, got None$"):
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
        # the cached knot arrays take no part in equality or hashing
        assert clone == spec
        assert hash(clone) == hash(spec)


class TestAlphaFromJson:
    def test_accepts_json_string(self):
        spec = alpha_from_json('{"kind": "linear", "theta": 0.5, "a": 0.4}')
        assert isinstance(spec, LinearAbility)
        assert spec.a == 0.4

    def test_kind_defaults_to_linear_and_theta_to_one_half(self):
        for obj in ({"a": 0.4}, {"kind": None, "a": 0.4, "theta": None}):
            assert alpha_from_json(obj) == LinearAbility(0.5, 0.4)

    @pytest.mark.parametrize("obj,message", [
        ("{bad", "^alpha spec is not valid JSON: "),
        (DEEP, "^alpha spec is not valid JSON: maximum recursion depth exceeded"),
        ("[1]", "^alpha spec must be a JSON object, got list$"),
        ([1], "^alpha spec must be a JSON object, got list$"),
    ], ids=["malformed", "deep", "text-list", "list"])
    def test_rejects_anything_but_a_json_object(self, obj, message):
        with pytest.raises(DomainError, match=message):
            alpha_from_json(obj)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError, match="^unknown alpha kind: 'quadratic'$"):
            alpha_from_json({"kind": "quadratic"})

    @pytest.mark.parametrize("obj,name", [
        ({"kind": "linear", "theta": 0.5}, "a"),
        ({"kind": "affine", "slope": 0.15}, "intercept"),
        ({"kind": "affine", "intercept": 0.65}, "slope"),
        ({"kind": "table"}, "points"),
        # a null field is missing, as is an absent one
        ({"a": None}, "a"),
        ({"kind": "table", "points": None}, "points"),
    ])
    def test_names_a_missing_field(self, obj, name):
        with pytest.raises(DomainError, match=f"missing the '{name}' field"):
            alpha_from_json(obj)

    @pytest.mark.parametrize("obj", [
        {"kind": "linear", "a": 0.4},
        {"kind": "affine", "intercept": 0.65, "slope": 0.15},
        {"kind": "table", "points": [[-1.0, 0.3], [1.0, 0.8]]},
    ])
    def test_prior_is_theta_else_alpha_at_minus_one(self, obj):
        spec, prior = _alpha_and_prior(obj, _missing_field)
        assert prior.theta == spec(-1.0)
        _, declared = _alpha_and_prior({**obj, "theta": 0.25}, _missing_field)
        assert declared.theta == 0.25

    def test_declared_theta_off_alpha_at_minus_one_is_refused_by_the_solver(self):
        obj = {"kind": "affine", "intercept": 0.65, "slope": 0.15, "theta": 0.9}
        spec, prior = _alpha_and_prior(obj, _missing_field)
        with pytest.raises(InvalidBoundary, match="disagrees with the prior theta = 0.9"):
            solve_odds(spec, prior)

    def test_rejects_non_number_theta(self):
        with pytest.raises(DomainError, match="^theta must be a number, got 'x'$"):
            alpha_from_json({"kind": "affine", "intercept": 0.65,
                             "slope": 0.15, "theta": "x"})


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


@pytest.mark.parametrize("grid_size", [0, 1, 2, 4, 1000, -3, None, "x", 5.5])
def test_every_public_grid_argument_refuses_a_bad_size(grid_size):
    pair = CoefficientPair(gamma=lambda t: 0.25 * (1.0 - t),
                           delta=lambda t: -0.25 * (1.0 - t))
    for check in (pair.singularity_gap, pair.is_solvable,
                  lambda n: cdf_axioms_hold(lambda t: (np.asarray(t) + 1.0) / 2.0, n)):
        with pytest.raises(DomainError, match="grid_size must be an"):
            check(grid_size)


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

    @pytest.mark.parametrize("points", [[("x", 0.5), (1.0, 1.0)],
                                        [(0.0,), (1.0, 1.0)]])
    def test_from_table_rejects_malformed_points(self, points):
        with pytest.raises(DomainError, match=r"points must be \(t, H\) pairs"):
            SolvedCdf.from_table(points)


@pytest.mark.parametrize("points", [
    5,
    [(-1.0,), (1.0, 0.9)],
    [(-1.0, "x"), (1.0, 0.9)],
    [(-1.0, 0.5)],
    [(-0.9, 0.5), (1.0, 0.9)],
    [(-1.0, 0.5), (float("nan"), 0.6), (1.0, 0.9)],
    [(-1.0, 0.5), (0.5, 0.6), (0.0, 0.7), (1.0, 0.9)],
], ids=["not-pairs", "short-pair", "not-a-number", "one-knot", "short-support",
        "nan-t", "decreasing-t"])
def test_alpha_and_h_tables_share_each_knot_rule(points):
    with pytest.raises(DomainError) as alpha_error:
        Tabulated(points)
    with pytest.raises(DomainError) as h_error:
        SolvedCdf.from_table(points)
    assert str(h_error.value) == str(alpha_error.value).replace("alpha", "H")


def test_cdf_axioms_hold_accepts_valid_cdf():
    assert cdf_axioms_hold(lambda t: (np.asarray(t) + 1.0) / 2.0)


def test_cdf_axioms_hold_rejects_wrong_endpoint():
    assert not cdf_axioms_hold(lambda t: (np.asarray(t) + 1.0) / 4.0)


def test_cdf_axioms_hold_rejects_decreasing():
    assert not cdf_axioms_hold(lambda t: (1.0 - np.asarray(t)) / 2.0)


def values_ok_before(h):
    """The validity check as it stood with a finiteness pass of its own:
    the reference ``cdf_values_ok`` must agree with on every input."""
    if not np.isfinite(h).all():
        return False
    if abs(h[0]) > EQUALITY_TOL or abs(h[-1] - 1.0) > EQUALITY_TOL:
        return False
    return bool(np.minimum.reduce(np.subtract(h[1:], h[:-1])) >= -EQUALITY_TOL)


@st.composite
def grid_values(draw):
    """1 to 50 values, sorted or not, endpoints pinned to 0 and 1 or not,
    with NaN, +inf and -inf at the endpoints and inside."""
    n = draw(st.integers(1, 50))
    h = draw(st.lists(st.floats(-0.1, 1.1), min_size=n, max_size=n))
    if draw(st.booleans()):
        h.sort()
    if draw(st.booleans()):
        h[0], h[-1] = 0.0, 1.0
    spots = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    for i in draw(st.lists(spots, max_size=4)):
        h[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return np.array(h)


@settings(max_examples=600, deadline=None)
@given(h=grid_values())
@example(h=np.array([np.nan]))
@example(h=np.array([0.0, np.inf, np.inf, 1.0]))
@example(h=np.array([0.0, -np.inf, -np.inf, 1.0]))
@example(h=np.array([0.0, 0.5, np.nan, 1.0]))
@example(h=np.array([0.0, 0.5, 1.0]))
def test_cdf_values_ok_agrees_with_the_finiteness_pass(h):
    if len(h) < 2:  # no grid over [-1, +1] has fewer than two points
        with pytest.raises(DomainError):
            cdf_values_ok(h)
    else:
        assert cdf_values_ok(h) == values_ok_before(h)


@pytest.mark.parametrize("h, shape", [
    (np.float64(0.5), "()"), (np.array(0.0), "()"), (np.array([]), "(0,)"), ([0.0], "(1,)"),
    (np.array([[0.0, 1.0], [0.0, 1.0]]), "(2, 2)"), (np.zeros((0, 3)), "(0, 3)"),
])
def test_cdf_values_ok_refuses_anything_but_a_1d_array_of_two_values(h, shape):
    with pytest.raises(DomainError) as exc:
        cdf_values_ok(h)
    assert str(exc.value) == ("CDF values must be a 1-D array of at least two values, "
                              f"got shape {shape}")
