import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailbalance import (
    CondorcetModel,
    DomainError,
    EvenJury,
    JuryConfig,
    LinearAbility,
    Method,
    Prior,
    SizeLimit,
    StateOfNature,
    TieBreak,
    cdf_given_A,
    cdf_given_B,
    condorcet_curve,
    condorcet_error,
    condorcet_exact,
    exact_verdict_probability,
    monte_carlo_verdict,
    order_scan,
    posterior_from_signal,
    posterior_tail,
)
from tailbalance import jury
from tailbalance.jury import (
    _WALK_TRIALS,
    _cutoff,
    _exact_majority_a,
    _juror_step,
    _posterior_given_history,
    _simulate,
    _walk_shares,
)
from tailbalance.signals import _quantile_A_on_support

HALF = Prior(0.5)


def make_config(abilities, theta=0.5, **kwargs):
    return JuryConfig(abilities=tuple(abilities), prior=Prior(theta), **kwargs)


class TestJuryConfig:
    def test_json_roundtrip(self):
        config = make_config((0.5, 0.9, 0.1), theta=0.7,
                             tie_break=TieBreak.VOTE_B, trials=500, seed=42)
        clone = JuryConfig.from_json(config.to_json())
        assert clone == config

    def test_from_json_defaults(self):
        config = JuryConfig.from_json({"abilities": [0.4]})
        assert config.prior.theta == 0.5
        assert config.tie_break is TieBreak.FOLLOW_SIGNAL_SIGN
        assert config.trials == 100_000
        assert config.seed == 0

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            make_config(())
        with pytest.raises(DomainError):
            make_config((1.3,))
        with pytest.raises(DomainError):
            make_config((0.5,), trials=0)
        with pytest.raises(DomainError):
            make_config((0.5,), seed=-1)
        with pytest.raises(DomainError):
            JuryConfig.from_json({"abilities": [0.5], "tie_break": "coin_flip"})

    def test_trials_must_fit_an_int64(self):
        # numpy draws the trial counts as int64
        assert make_config((0.5,), trials=2**63 - 1).trials == 2**63 - 1
        with pytest.raises(DomainError, match=r"trials must lie in \[1, 2\*\*63\)"):
            make_config((0.5,), trials=2**63)

    def test_non_integral_numbers_are_refused(self):
        config = make_config((0.5,), trials=1000.0, seed=2.0)
        assert (config.trials, config.seed) == (1000, 2)
        with pytest.raises(DomainError, match="trials must be an integer, got 1000.9"):
            make_config((0.5,), trials=1000.9)
        with pytest.raises(DomainError, match="seed must be an integer, got 2.5"):
            make_config((0.5,), seed=2.5)
        with pytest.raises(DomainError, match="n must be an integer, got 5.9"):
            CondorcetModel(0.6, 5.9)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_booleans_are_not_numbers(self, flag):
        shown = repr(flag)
        with pytest.raises(DomainError, match=f"^ability must be a number, got {shown}$"):
            JuryConfig(abilities=(flag, 0.5, 0.6), prior=Prior(0.5))
        with pytest.raises(DomainError, match=f"^trials must be an integer, got {shown}$"):
            make_config((0.5,), trials=flag)
        with pytest.raises(DomainError, match=f"^seed must be an integer, got {shown}$"):
            make_config((0.5,), seed=flag)
        with pytest.raises(DomainError, match=f"^p must be a number, got {shown}$"):
            CondorcetModel(flag, 5)
        with pytest.raises(DomainError, match=f"^n must be an integer, got {shown}$"):
            CondorcetModel(0.6, flag)
        with pytest.raises(DomainError, match=f"^theta must be a number, got {shown}$"):
            Prior(flag)

    @pytest.mark.parametrize("fields", [
        {"abilities": [0.5], "theta": "x"},
        {"abilities": [0.5], "theta": 10**400},
        {"abilities": "0.5,0.6,0.7"},
        {"abilities": 0.5},
        {"abilities": [0.5, None, 0.7]},
        {"abilities": [0.5], "trials": "many"},
        {"abilities": [0.5], "trials": float("inf")},
        {"abilities": [0.5], "seed": [1]},
    ])
    def test_wrong_types_are_domain_errors(self, fields):
        with pytest.raises(DomainError):
            JuryConfig.from_json(fields)

    @pytest.mark.parametrize("obj,message", [
        ("{bad", "^jury config is not valid JSON: "),
        ("[" * 100000 + "]" * 100000,
         "^jury config is not valid JSON: maximum recursion depth exceeded"),
        ("[0.5]", "^jury config must be a JSON object, got list$"),
        ([0.5], "^jury config must be a JSON object, got list$"),
    ], ids=["malformed", "deep", "text-list", "list"])
    def test_anything_but_a_json_object_is_a_domain_error(self, obj, message):
        with pytest.raises(DomainError, match=message):
            JuryConfig.from_json(obj)

    def test_null_fields_read_as_absent(self):
        nulls = {"theta": None, "tie_break": None, "trials": None, "seed": None}
        assert JuryConfig.from_json({"abilities": [0.5], **nulls}) == make_config((0.5,))
        missing = "^jury config is missing the 'abilities' field$"
        with pytest.raises(DomainError, match=missing):
            JuryConfig.from_json({"abilities": None, **nulls})


class TestCutoff:
    """The juror's signal cutoff s* = clip((1 - 2q)/a, -1, 1)."""

    def test_symmetric_prior_cuts_at_zero(self):
        for a in (0.1, 0.5, 1.0):
            assert _cutoff(a, 0.5) == 0.0

    def test_worked_value(self):
        assert _cutoff(0.8, 0.6) == pytest.approx(-0.25, abs=1e-15)

    def test_clamps_to_support(self):
        assert _cutoff(0.5, 0.9) == -1.0
        assert _cutoff(0.5, 0.1) == 1.0
        # a certain posterior decides the vote whatever the signal
        assert _cutoff(0.5, 1.0) == -1.0
        assert _cutoff(0.5, 0.0) == 1.0

    @pytest.mark.parametrize("tie_break,at_half", [
        (TieBreak.FOLLOW_SIGNAL_SIGN, 0.5), (TieBreak.VOTE_A, 1.0), (TieBreak.VOTE_B, 0.0),
    ])
    def test_zero_ability_follows_the_posterior(self, tie_break, at_half):
        # no informative cutoff: the vote follows q, and the tie rule at q = 1/2
        q = np.array([0.6, 0.4, 0.5])
        s, p_a, p_b = _juror_step(0.0, q, tie_break)
        np.testing.assert_array_equal(s, 0.0)
        np.testing.assert_array_equal(p_a, [1.0, 0.0, at_half])
        np.testing.assert_array_equal(p_b, [1.0, 0.0, at_half])

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 1.0, exclude_min=True),
           q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_interior_cutoffs_split_the_posterior_in_half(self, a, q):
        cutoff = float(_cutoff(a, q))
        assume(abs(cutoff) < 1.0)
        # 1 + a*s and 1 - a*s cancel to 2(1 - q) and 2q, so the rounding
        # grows as 1/min(q, 1 - q)
        assert posterior_from_signal(a, cutoff, Prior(q)) == pytest.approx(
            0.5, rel=0.0, abs=1e-15 / min(q, 1.0 - q))


def _tail_ratio_of_cdf_a(a: Fraction, s: Fraction) -> Fraction:
    """(1 - F_A(s)) / (1 - F_A(s) + F_A(-s)), the tail ratio at lambda = 1,
    in exact arithmetic."""
    def cdf(t):
        return (t + 1) * (a * t - a + 2) / 4
    return (1 - cdf(s)) / (1 - cdf(s) + cdf(-s))


class TestWalkComputesTheTailRatio:
    """The jury walk's posterior after an A vote is the paper's tail ratio
    of the state-A signal CDF at the juror's cutoff."""

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1e-8, 1.0), q=st.floats(1e-12, 1.0 - 1e-12))
    @example(a=0.6, q=0.5)
    @example(a=1e-3, q=0.5 - 4.99e-4)
    def test_posterior_after_an_a_vote(self, a, q):
        s = float(_cutoff(a, q))
        assume(abs(s) < 1.0)
        _, p_a, p_b = _juror_step(a, np.array([q]), TieBreak.FOLLOW_SIGNAL_SIGN)
        with np.errstate(divide="ignore"):  # 1 - F_B(s) rounds to 0 near s = 1
            ll_a, ll_b = np.log(p_a), np.log(p_b)
        walk = float(_posterior_given_history(q, ll_a, ll_b)[0])
        paper = posterior_tail(lambda t: cdf_given_A(a, t), s, Prior(q))
        # both sides cancel in 1 - F_A(s), so the rounding grows as
        # 1/(1 - s)**2 (at most 6.2 eps/(1 - s)**2 measured over 25k cases)
        eps = np.finfo(float).eps
        assert walk == pytest.approx(paper, rel=16.0 * eps / (1.0 - s) ** 2, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 1.0), s=st.floats(-1.0, 1.0, exclude_max=True))
    def test_even_prior_tail_ratio_is_the_linear_alpha(self, a, s):
        a_frac, s_frac = Fraction(a), Fraction(s)
        exact = Fraction(1, 2) + a_frac * (1 + s_frac) / 4
        assert _tail_ratio_of_cdf_a(a_frac, s_frac) == exact
        assert LinearAbility(0.5, a)(s) == pytest.approx(float(exact), rel=4e-16, abs=0.0)


class TestExactVerdict:
    @pytest.mark.parametrize("a", [0.2, 0.5, 1.0])
    def test_single_juror_closed_form(self, a):
        stats = exact_verdict_probability(make_config((a,)))
        assert stats.p_correct == pytest.approx((2.0 + a) / 4.0, abs=1e-12)
        assert stats.method is Method.EXACT
        assert stats.stderr == 0.0

    def test_single_uninformative_juror(self):
        stats = exact_verdict_probability(make_config((0.0,)))
        assert stats.p_correct == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a", [0.4, 0.8])
    def test_three_equal_jurors_beat_one(self, a):
        single = exact_verdict_probability(make_config((a,))).p_correct
        triple = exact_verdict_probability(make_config((a, a, a))).p_correct
        assert triple > single

    def test_full_ability_single_juror_dominates(self):
        best = exact_verdict_probability(make_config((1.0,))).p_correct
        assert best == pytest.approx(0.75, abs=1e-12)
        for a in (0.0, 0.3, 0.6, 0.9, 0.99):
            other = exact_verdict_probability(make_config((a,))).p_correct
            assert other < best

    def test_all_zero_jury_is_a_coin_flip(self):
        stats = exact_verdict_probability(make_config((0.0, 0.0, 0.0)))
        assert stats.p_correct == pytest.approx(0.5, abs=1e-12)

    def test_state_relabeling_symmetry_at_even_prior(self):
        # swapping A and B mirrors every threshold, so the chance the
        # majority says A under A equals the chance it says B under B
        for abilities in ((0.5, 0.9, 0.1), (0.7, 0.7, 0.7), (1.0, 0.2, 0.4)):
            maj_a_given_a, maj_a_given_b = _exact_majority_a(
                make_config(abilities))
            assert maj_a_given_a == pytest.approx(1.0 - maj_a_given_b,
                                                  abs=1e-12)

    def test_even_jury_rejected(self):
        with pytest.raises(EvenJury):
            exact_verdict_probability(make_config((0.5, 0.5)))

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            exact_verdict_probability(make_config((0.5,) * 27))

    # (P(majority A | A), P(majority A | B), p_correct) as computed by the
    # depth-first recursion the level walk replaced
    @pytest.mark.parametrize("abilities, theta, pinned", [
        (tuple(0.48 + k / 450 for k in range(19)), 0.45,
         (0.6582167699370428, 0.18524535487778607, 0.744312601288887)),
        ((0.5,) * 21, 0.5,
         (0.746881003230316, 0.2531189967697039, 0.7468810032303062)),
    ], ids=["near-flat-19", "half-21"])
    def test_matches_depth_first_values(self, abilities, theta, pinned):
        config = make_config(abilities, theta=theta)
        got = (*_exact_majority_a(config),
               exact_verdict_probability(config).p_correct)
        np.testing.assert_allclose(got, pinned, rtol=0.0, atol=1e-12)


class TestMonteCarlo:
    def test_same_seed_is_reproducible(self):
        config = make_config((0.5, 0.9, 0.1), trials=20_000, seed=99)
        first = monte_carlo_verdict(config)
        second = monte_carlo_verdict(config)
        assert first.p_correct == second.p_correct
        assert first.stderr == second.stderr
        assert first.method is Method.MONTE_CARLO
        assert first.trials_used == 20_000

    def test_worker_count_does_not_change_the_estimate(self):
        config = make_config((0.6, 0.6, 0.6), trials=50_000, seed=7)
        results = []
        for workers in ("1", "4"):
            with mock.patch.dict(os.environ, {"TAILBALANCE_THREADS": workers}):
                results.append(monte_carlo_verdict(config).p_correct)
        assert results[0] == results[1]

    def test_matches_exact_within_three_stderr(self):
        config = make_config((1.0,), trials=100_000, seed=3)
        exact = exact_verdict_probability(config).p_correct
        mc = monte_carlo_verdict(config)
        assert abs(mc.p_correct - exact) <= 3.0 * mc.stderr

    def test_stderr_follows_binomial_formula(self):
        config = make_config((0.5, 0.9, 0.1), trials=10_000, seed=5)
        mc = monte_carlo_verdict(config)
        expected = math.sqrt(mc.p_correct * (1.0 - mc.p_correct) / 10_000)
        assert mc.stderr == pytest.approx(expected, rel=1e-12)

    def test_conditional_mode_agrees_with_exact(self):
        config = make_config((0.5, 0.9, 0.1), theta=0.7,
                             trials=40_000, seed=21)
        exact = exact_verdict_probability(config).p_correct
        mc = monte_carlo_verdict(config, conditional=True)
        assert abs(mc.p_correct - exact) <= 3.0 * mc.stderr
        assert mc.trials_used == 40_000

    def test_conditional_mode_needs_two_trials(self):
        config = make_config((0.5,), trials=1, seed=0)
        with pytest.raises(DomainError):
            monte_carlo_verdict(config, conditional=True)

    def test_even_jury_rejected(self):
        with pytest.raises(EvenJury):
            monte_carlo_verdict(make_config((0.5, 0.5), trials=100))

    def test_uninformative_jury_hits_half_over_many_seeds(self):
        # the verdict is a fair coin in both states, so z = (p_hat - 1/2) /
        # stderr is close to standard normal; its mean over the seeds has
        # sd 1/sqrt(k) and its sample variance sd sqrt(2/(k - 1))
        k = 400
        z = np.array([
            (mc.p_correct - 0.5) / mc.stderr
            for mc in (monte_carlo_verdict(make_config((0.0,) * 3, trials=50_000,
                                                       seed=seed))
                       for seed in range(k))
        ])
        assert abs(z.mean()) <= 4.0 / math.sqrt(k)
        assert abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (k - 1))

    @pytest.mark.parametrize("conditional", [False, True], ids=["plain", "conditional"])
    def test_call_above_the_walk_bound_splits_evenly(self, conditional):
        config = make_config((0.5, 0.9, 0.1), theta=0.7,
                             trials=_WALK_TRIALS + 5, seed=23)
        with mock.patch.object(jury, "_simulate", wraps=jury._simulate) as walk:
            mc = monte_carlo_verdict(config, conditional=conditional)
        shares = [call.args[1:3] for call in walk.call_args_list]
        trials, theta = config.trials, config.prior.theta
        if conditional:
            n_a = round(theta * trials)
        else:
            n_a = int(np.random.default_rng(config.seed).binomial(trials, theta))
        assert len(shares) == 2
        assert sum(a for a, _ in shares) == n_a
        assert sum(b for _, b in shares) == trials - n_a
        assert max(a + b for a, b in shares) <= _WALK_TRIALS
        p, se = exact_p_and_se(config, conditional)
        assert abs(mc.p_correct - p) <= 5.0 * se

    @pytest.mark.parametrize("theta, n_a", [(1e-300, 1), (1.0 - 1e-16, 999)])
    def test_conditional_mode_at_extreme_priors(self, theta, n_a):
        config = make_config((0.5, 0.9, 0.1), theta=theta, trials=1000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.object(jury, "_simulate", wraps=jury._simulate) as walk:
                mc = monte_carlo_verdict(config, conditional=True)
        assert [call.args[1:3] for call in walk.call_args_list] == [(n_a, 1000 - n_a)]
        assert 0.0 <= mc.p_correct <= 1.0
        assert math.isfinite(mc.stderr)

    # (abilities, theta, tie rule, conditional, seed) -> p_correct, pinned
    # from one generator per call that walks the vote tree once
    PINNED = [
        ((0.0, 0.7, 0.4), 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, False, 11, 0.67115),
        ((0.0, 0.7, 0.4), 0.5, TieBreak.VOTE_A, False, 12, 0.66995),
        ((0.0, 0.7, 0.4), 0.5, TieBreak.VOTE_B, True, 13, 0.6793),
        ((0.0,) * 5, 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, False, 14, 0.4997),
        ((0.0,) * 3, 0.5, TieBreak.VOTE_A, True, 15, 0.5),
        ((1.0, 0.3, 0.6), 0.3, TieBreak.FOLLOW_SIGNAL_SIGN, True, 16,
         0.7893999999999999),
        ((0.9, 0.2, 0.55, 0.35, 0.8, 0.1, 0.65, 0.45, 0.7), 0.7,
         TieBreak.FOLLOW_SIGNAL_SIGN, False, 17, 0.80645),
        (tuple(round(0.04 * k, 2) for k in range(25)), 0.4, TieBreak.VOTE_B, True,
         18, 0.7426999999999999),
        # n = 101, where the most vote histories are occupied
        (tuple(round(0.01 * k, 2) for k in range(101)), 0.6,
         TieBreak.FOLLOW_SIGNAL_SIGN, False, 19, 0.7873),
        ((0.0,) + (0.3,) * 100, 0.5, TieBreak.VOTE_A, True, 20, 0.6516500000000001),
        # one state draws none of the trials: A at theta 1e-12, B at 1 - 1e-16
        ((0.9, 0.2, 0.55), 1e-12, TieBreak.FOLLOW_SIGNAL_SIGN, False, 21, 1.0),
        ((0.0, 0.7, 0.4), 1.0 - 1e-16, TieBreak.VOTE_A, False, 22, 1.0),
    ]

    #: stderr of each PINNED row, keyed by its seed
    PINNED_STDERR = {
        11: 0.0033219548273569284, 12: 0.003325033815617519,
        13: 0.0032935201532706612, 14: 0.003535533269536577, 15: 0.0,
        16: 0.002566175378151028, 17: 0.0027936391812472846,
        18: 0.0024859191794317586, 19: 0.002893602512440159,
        20: 0.0033686648319475178, 21: 0.0, 22: 0.0,
    }

    @pytest.mark.parametrize("abilities,theta,tie_break,conditional,seed,expected",
                             PINNED)
    def test_draws_are_pinned(self, abilities, theta, tie_break, conditional,
                              seed, expected):
        config = make_config(abilities, theta=theta, tie_break=tie_break,
                             trials=20_000, seed=seed)
        stats = monte_carlo_verdict(config, conditional=conditional)
        assert stats.p_correct == expected
        assert stats.stderr == self.PINNED_STDERR[seed]

    @pytest.mark.parametrize("theta, seed, n_a", [(1e-12, 21, 0), (1.0 - 1e-16, 22, 20_000)])
    def test_pinned_rows_with_an_empty_state(self, theta, seed, n_a):
        assert np.random.default_rng(seed).binomial(20_000, theta) == n_a

    def test_empty_state_over_two_walks_is_pinned(self):
        config = make_config((0.9, 0.2, 0.55), theta=1e-12, trials=_WALK_TRIALS + 3, seed=23)
        with mock.patch.object(jury, "_simulate", wraps=jury._simulate) as walk:
            stats = monte_carlo_verdict(config)
        assert [call.args[1:3] for call in walk.call_args_list] == [(0, 524289), (0, 524290)]
        assert stats.p_correct == 1.0
        assert stats.stderr == 0.0


class TestOrderScan:
    def test_middle_first_wins_on_spread_triple(self):
        rows = order_scan((0.9, 0.5, 0.1), HALF)
        assert rows[0].ordering == (0.5, 0.9, 0.1)
        assert rows[0].rank == 1
        assert len(rows) == 6
        assert rows[0].p_correct - rows[1].p_correct > 1e-9

    def test_equal_abilities_all_tie(self):
        rows = order_scan((0.6, 0.6, 0.6), HALF)
        assert all(row.rank == 1 for row in rows)
        spread = max(r.p_correct for r in rows) - min(r.p_correct for r in rows)
        assert spread <= 1e-12

    def test_sorted_descending(self):
        rows = order_scan((0.8, 0.6, 0.2), HALF)
        probs = [row.p_correct for row in rows]
        assert probs == sorted(probs, reverse=True)
        assert [row.rank for row in rows] == sorted(row.rank for row in rows)

    @pytest.mark.parametrize("tie_break", list(TieBreak))
    @pytest.mark.parametrize("abilities", [
        (0.9, 0.5, 0.1), (0.0, 0.7, 0.3),
        (0.8, 0.6, 0.45, 0.2, 0.95), (0.6, 0.0, 0.4, 1.0, 0.2),
    ])
    def test_rows_equal_single_walks(self, abilities, tie_break):
        prior = Prior(0.45)
        rows = order_scan(abilities, prior, tie_break)
        assert len(rows) == math.factorial(len(abilities))
        for row in rows:
            single = exact_verdict_probability(JuryConfig(
                abilities=row.ordering, prior=prior, tie_break=tie_break))
            assert row.p_correct == single.p_correct

    def test_guards(self):
        with pytest.raises(SizeLimit):
            order_scan((0.5,) * 9, HALF)
        with pytest.raises(EvenJury):
            order_scan((0.5, 0.5, 0.5, 0.5), HALF)
        with pytest.raises(DomainError):
            order_scan((0.5,), HALF)
        with pytest.raises(DomainError, match="ability must be a number, got 'x'"):
            order_scan((0.5, "x", 0.7), HALF)


IMPORT_BOUNDARY = """
import sys

import tailbalance
from tailbalance import (CondorcetModel, JuryConfig, LinearAbility, Prior, condorcet_exact,
                         exact_verdict_probability, monte_carlo_verdict, solve_odds)

solve_odds(LinearAbility(0.3, 0.7), Prior(0.3))(0.2)
config = JuryConfig(abilities=(0.5, 0.6, 0.7), prior=Prior(0.4), trials=1000)
exact_verdict_probability(config)
monte_carlo_verdict(config)
monte_carlo_verdict(config, conditional=True)
assert "scipy.stats" not in sys.modules, "scipy.stats loaded before a condorcet_* call"
value = condorcet_exact(CondorcetModel(0.6, 101))
assert "scipy.stats" in sys.modules
import scipy.stats
assert value == float(scipy.stats.binom.sf(50, 101, 0.6)), value
"""


def test_only_condorcet_loads_scipy_stats():
    # a fresh interpreter: this one may have scipy.stats loaded already
    result = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestCondorcet:
    def test_single_juror_returns_p(self):
        assert condorcet_exact(CondorcetModel(p=0.7, n=1)) == pytest.approx(
            0.7, abs=1e-15)

    def test_certain_jurors_return_one(self):
        for n in (1, 3, 101):
            assert condorcet_exact(CondorcetModel(p=1.0, n=n)) == 1.0

    def test_three_jurors_worked_value(self):
        assert condorcet_exact(CondorcetModel(p=0.6, n=3)) == pytest.approx(
            0.648, abs=1e-12)

    def test_curve_prefix(self):
        curve = condorcet_curve(0.6, 5)
        assert [n for n, _ in curve] == [1, 3, 5]
        np.testing.assert_allclose([v for _, v in curve],
                                   [0.6, 0.648, 0.68256],
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.75, 0.9])
    def test_strictly_increasing_to_201(self, p):
        values = np.array([v for _, v in condorcet_curve(p, 201)])
        unsaturated = values < 1.0
        # strict growth is visible until the success probability rounds
        # to 1.0; past that point the complementary error tail keeps the
        # same statement observable
        assert np.all(np.diff(values[unsaturated]) > 0.0)
        assert np.all(values[~unsaturated] == 1.0)
        errors = np.array([condorcet_error(CondorcetModel(p=p, n=n))
                           for n, _ in condorcet_curve(p, 201)])
        assert np.all(np.diff(errors) < 0.0)

    def test_error_complements_exact_while_representable(self):
        for n in (1, 3, 25):
            model = CondorcetModel(p=0.6, n=n)
            total = condorcet_exact(model) + condorcet_error(model)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            CondorcetModel(p=0.5, n=3)
        with pytest.raises(DomainError):
            CondorcetModel(p=0.6, n=4)
        with pytest.raises(DomainError):
            condorcet_curve(0.4, 5)
        with pytest.raises(DomainError):
            condorcet_curve(0.6, 10)
        for p, n in (("x", 3), (None, 3), (0.6, "x"), (0.6, None)):
            with pytest.raises(DomainError):
                CondorcetModel(p=p, n=n)
            with pytest.raises(DomainError):
                condorcet_curve(p, n)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 1.0))
def test_single_juror_formula_property(a):
    stats = exact_verdict_probability(make_config((a,)))
    assert stats.p_correct == pytest.approx((2.0 + a) / 4.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(abilities=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                           st.floats(0.0, 1.0)),
       theta=st.floats(0.05, 0.95))
def test_exact_probability_is_always_a_probability(abilities, theta):
    stats = exact_verdict_probability(make_config(abilities, theta=theta))
    assert 0.0 <= stats.p_correct <= 1.0


def history_loglik(config, votes):
    """log P(votes | A) and log P(votes | B) of a vote history, rebuilt
    vote by vote from ``_posterior_given_history`` and ``_juror_step`` on
    1-element arrays."""
    ll_a = ll_b = np.zeros(1)
    for a, vote in zip(config.abilities, votes):
        q = _posterior_given_history(config.prior.theta, ll_a, ll_b)
        _, p_a, p_b = _juror_step(a, q, config.tie_break)
        if vote is StateOfNature.B:
            p_a, p_b = 1.0 - p_a, 1.0 - p_b
        with np.errstate(divide="ignore"):
            ll_a = ll_a + np.log(p_a)
            ll_b = ll_b + np.log(p_b)
    return float(ll_a[0]), float(ll_b[0])


def test_history_loglik_matches_hand_computation():
    # two jurors (0.8, 0.6) at theta = 1/2; votes A then B
    config = make_config((0.8, 0.6))
    ll_a, ll_b = history_loglik(config, (StateOfNature.A, StateOfNature.B))

    p1_a = 1.0 - cdf_given_A(0.8, 0.0)
    p1_b = 1.0 - cdf_given_B(0.8, 0.0)
    q2 = p1_a / (p1_a + p1_b)
    cut2 = (1.0 - 2.0 * q2) / 0.6
    p2_a = 1.0 - cdf_given_A(0.6, cut2)
    p2_b = 1.0 - cdf_given_B(0.6, cut2)

    assert ll_a == pytest.approx(math.log(p1_a) + math.log(1.0 - p2_a), abs=1e-12)
    assert ll_b == pytest.approx(math.log(p1_b) + math.log(1.0 - p2_b), abs=1e-12)


def brute_force_majority_a(config):
    """P(majority A | A), P(majority A | B) summed over all 2**n complete
    vote histories, each rebuilt vote by vote."""
    n = len(config.abilities)
    mass_a = mass_b = 0.0
    for votes in itertools.product((StateOfNature.A, StateOfNature.B), repeat=n):
        if 2 * votes.count(StateOfNature.A) < n:
            continue
        try:
            ll_a, ll_b = history_loglik(config, votes)
        except DomainError as exc:
            # an earlier vote was impossible under both states
            assert "probability zero" in str(exc)
            continue
        mass_a += math.exp(ll_a)
        mass_b += math.exp(ll_b)
    return mass_a, mass_b


@st.composite
def log_uniform_priors(draw):
    """theta, or 1 - theta, log-uniform in [1e-6, 1/2]."""
    tail = 10.0 ** draw(st.floats(-6.0, math.log10(0.5)))
    return 1.0 - tail if draw(st.booleans()) else tail


@settings(max_examples=40, deadline=None)
@given(abilities=st.sampled_from([1, 3, 5, 7, 9]).flatmap(
           lambda n: st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(0.0, 1.0)),
                              min_size=n, max_size=n)),
       theta=log_uniform_priors(),
       tie_break=st.sampled_from(list(TieBreak)))
def test_exact_walk_matches_brute_force_histories(abilities, theta, tie_break):
    config = make_config(abilities, theta=theta, tie_break=tie_break)
    np.testing.assert_allclose(_exact_majority_a(config),
                               brute_force_majority_a(config),
                               rtol=0.0, atol=1e-12)


def per_trial_chunk(config, size, seed_seq, fixed_state=None):
    """The Monte Carlo kernel as it was before it grouped trials by vote
    history: every trial draws its own signal and carries its own
    log-likelihoods, and computes its own posterior and cutoff at every
    juror."""
    rng = np.random.default_rng(seed_seq)
    theta = config.prior.theta
    if fixed_state is None:
        is_a = rng.random(size) < theta
    else:
        is_a = np.full(size, fixed_state is StateOfNature.A)
    ll_a = np.zeros(size)
    ll_b = np.zeros(size)
    votes_a = np.zeros(size, dtype=np.int64)
    for a in config.abilities:
        u = rng.random(size)
        u_eff = np.where(is_a, u, 1.0 - u)
        s_as_if_a = _quantile_A_on_support(a, u_eff)  # u_eff lies in [0, 1]
        s = np.where(is_a, s_as_if_a, -s_as_if_a)
        q = _posterior_given_history(theta, ll_a, ll_b)
        cut, p_a, p_b = _juror_step(a, q, config.tie_break)
        if a > 0.0:
            vote_a = s >= cut
        else:  # P(vote A) is 0 or 1, or 1/2 where the tie follows the signal
            vote_a = np.where(p_a == 0.5, s >= 0.0, p_a == 1.0)
        with np.errstate(divide="ignore"):
            ll_a = ll_a + np.log(np.where(vote_a, p_a, 1.0 - p_a))
            ll_b = ll_b + np.log(np.where(vote_a, p_b, 1.0 - p_b))
        votes_a += vote_a
    majority_a = votes_a > len(config.abilities) // 2
    return int(np.sum(majority_a == is_a))


def history_chunk(config, size, seed_seq, fixed_state=None):
    """Hits of ``size`` trials walked by ``_simulate``, with the state-A
    count drawn from Binomial(size, theta), or every trial in
    ``fixed_state``: the kernel called as ``per_trial_chunk`` is."""
    rng = np.random.default_rng(seed_seq)
    if fixed_state is None:
        n_a = int(rng.binomial(size, config.prior.theta))
    else:
        n_a = size if fixed_state is StateOfNature.A else 0
    hits_a, hits_b = _simulate(config, n_a, size - n_a, rng)
    return hits_a + hits_b


STATES = [None, StateOfNature.A, StateOfNature.B]


def chunk_mean(kernel, config, fixed_state, chunks, size=16384, seed=0):
    """Mean hit rate of ``chunks`` chunks of ``size`` trials, each seeded
    by a child spawned from ``seed``."""
    children = np.random.SeedSequence(seed).spawn(chunks)
    hits = sum(kernel(config, size, child, fixed_state) for child in children)
    return hits / (chunks * size)


def exact_hit_rate(config, fixed_state):
    """P(correct verdict) in ``fixed_state``, or under the prior for None."""
    won_a, won_b = _exact_majority_a(config)
    if fixed_state is StateOfNature.A:
        return won_a
    if fixed_state is StateOfNature.B:
        return 1.0 - won_b
    theta = config.prior.theta
    return theta * won_a + (1.0 - theta) * (1.0 - won_b)


def exact_p_and_se(config, conditional):
    """Exact P(correct verdict) and the standard error of a Monte Carlo
    call on ``config``, both from the exact walk, so that the error bound
    holds even where the estimate is 0 or 1."""
    theta, trials = config.prior.theta, config.trials
    won_a, won_b = _exact_majority_a(config)
    p = theta * won_a + (1.0 - theta) * (1.0 - won_b)
    if conditional:
        n_a = min(max(round(theta * trials), 1), trials - 1)
        var = (theta**2 * won_a * (1.0 - won_a) / n_a
               + (1.0 - theta)**2 * won_b * (1.0 - won_b) / (trials - n_a))
    else:
        var = p * (1.0 - p) / trials
    return p, math.sqrt(var)


def zero_led_abilities(n):
    """A zero-ability juror first (the tie rule decides at theta = 1/2),
    then a fully able one, then fixed random abilities."""
    if n == 1:
        return (0.6,)
    rest = np.random.default_rng(n).uniform(0.0, 1.0, n - 2)
    return (0.0, 1.0, *rest.tolist())


@pytest.mark.parametrize("fixed_state", STATES)
@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("tie_break", list(TieBreak))
@pytest.mark.parametrize("n", [1, 3, 7, 15, 25])
def test_history_kernel_matches_the_exact_walk(n, tie_break, theta, fixed_state):
    config = make_config(zero_led_abilities(n), theta=theta, tie_break=tie_break)
    p = exact_hit_rate(config, fixed_state)
    trials = 64 * 16384
    mean = chunk_mean(history_chunk, config, fixed_state, chunks=64, seed=n)
    assert abs(mean - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials) + 1e-12


@pytest.mark.parametrize("conditional", [False, True], ids=["plain", "conditional"])
@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("tie_break", list(TieBreak))
@pytest.mark.parametrize("n", [1, 3, 7, 15, 25])
def test_one_walk_estimator_matches_the_exact_walk(n, tie_break, theta, conditional):
    config = make_config(zero_led_abilities(n), theta=theta, tie_break=tie_break,
                         trials=_WALK_TRIALS, seed=n)
    p, se = exact_p_and_se(config, conditional)
    mc = monte_carlo_verdict(config, conditional=conditional)
    assert abs(mc.p_correct - p) <= 5.0 * se + 1e-12


@pytest.mark.parametrize("fixed_state", STATES)
@pytest.mark.parametrize("abilities, theta, tie_break", [
    (tuple(round(0.01 * k, 2) for k in range(101)), 0.6, TieBreak.FOLLOW_SIGNAL_SIGN),
    ((0.0,) + (0.3,) * 100, 0.5, TieBreak.VOTE_A),
], ids=["spread-101", "zero-led-101"])
def test_history_kernel_matches_the_per_trial_kernel_at_101(abilities, theta, tie_break,
                                                            fixed_state):
    # beyond the exact walk's cap: the per-trial kernel is the reference
    config = make_config(abilities, theta=theta, tie_break=tie_break)
    chunks = 8
    by_counts = chunk_mean(history_chunk, config, fixed_state, chunks, seed=1)
    by_trials = chunk_mean(per_trial_chunk, config, fixed_state, chunks, seed=2)
    pooled = (by_counts + by_trials) / 2.0
    se = math.sqrt(2.0 * pooled * (1.0 - pooled) / (chunks * 16384))
    assert abs(by_counts - by_trials) <= 5.0 * se


@pytest.mark.parametrize("n_a, n_b", [
    (3, 2**21 - 3), (2**21 - 3, 3), (1, 0), (0, 1), (5, _WALK_TRIALS),
    (2**22 + 1, 2**22 - 1), (_WALK_TRIALS, _WALK_TRIALS + 1),
])
def test_walk_shares_are_even_and_bounded(n_a, n_b):
    shares = _walk_shares(n_a, n_b)
    assert len(shares) == -(-(n_a + n_b) // _WALK_TRIALS)
    ups, downs = zip(*shares)
    assert (sum(ups), sum(downs)) == (n_a, n_b)
    assert max(ups) - min(ups) <= 1 and max(downs) - min(downs) <= 1
    assert max(a + b for a, b in shares) <= _WALK_TRIALS


@st.composite
def extreme_priors(draw):
    """theta across the range the CLI accepts, 1e-300 to 1 - 1e-16."""
    if draw(st.booleans()):
        return 10.0 ** draw(st.floats(-300.0, math.log10(0.5)))
    return 1.0 - 10.0 ** draw(st.floats(-16.0, math.log10(0.5)))


def exact_mass_walk(abilities, theta, tie_break):
    """P(majority votes A) in state A and in state B for one voting order,
    summed exactly: each history's mass is the ``Fraction`` product of the
    float vote probabilities the walk itself draws (its log-likelihoods,
    posteriors and ``_juror_step`` calls are the walk's own), so only the
    two returned sums are rounded."""
    n = len(abilities)
    need = n // 2 + 1
    fraction = np.frompyfunc(Fraction, 1, 1)
    won_a = won_b = Fraction(0)
    count = np.zeros(1, dtype=np.int64)
    ll_a = np.zeros(1)
    ll_b = np.zeros(1)
    mass_a = np.array([Fraction(1)], dtype=object)
    mass_b = np.array([Fraction(1)], dtype=object)
    for i in range(n):
        q = _posterior_given_history(theta, ll_a, ll_b)
        _, p_a, p_b = _juror_step(abilities[i], q, tie_break)
        grow_a = (p_a > 0.0) | (p_b > 0.0)
        grow_b = (p_a < 1.0) | (p_b < 1.0)
        won = grow_a & (count == need - 1)
        grow_a &= ~won
        grow_b &= i + 1 - count < need
        up_a, up_b = mass_a * fraction(p_a), mass_b * fraction(p_b)
        down_a, down_b = mass_a * fraction(1.0 - p_a), mass_b * fraction(1.0 - p_b)
        won_a += sum(up_a[won])
        won_b += sum(up_b[won])
        with np.errstate(divide="ignore"):
            ll_a = np.concatenate((ll_a + np.log(p_a), ll_a + np.log(1.0 - p_a)))
            ll_b = np.concatenate((ll_b + np.log(p_b), ll_b + np.log(1.0 - p_b)))
        keep = np.concatenate((grow_a, grow_b))
        ll_a, ll_b = ll_a[keep], ll_b[keep]
        mass_a = np.concatenate((up_a, down_a))[keep]
        mass_b = np.concatenate((up_b, down_b))[keep]
        count = np.concatenate((count + 1, count))[keep]
    return float(won_a), float(won_b)


@settings(max_examples=60, deadline=None)
@given(abilities=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]).flatmap(
           lambda n: st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]),
                                        st.floats(0.0, 1.0)),
                              min_size=n, max_size=n)),
       theta=st.one_of(st.just(0.5), extreme_priors()),
       tie_break=st.sampled_from(list(TieBreak)))
@example(abilities=[0.0] * 10 + [0.5, 0.671875, 0.7738702922219873], theta=0.5,
         tie_break=TieBreak.FOLLOW_SIGNAL_SIGN)
def test_exact_walk_matches_the_exact_rational_sum(abilities, theta, tie_break):
    # the walk rounds each product of vote probabilities and each sum of
    # masses; the reference rounds only its two final sums
    config = make_config(abilities, theta=theta, tie_break=tie_break)
    np.testing.assert_allclose(_exact_majority_a(config),
                               exact_mass_walk(config.abilities, theta, tie_break),
                               rtol=0.0, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(abilities=st.sampled_from([1, 3, 5, 7, 9, 15, 101]).flatmap(
           lambda n: st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]),
                                        st.floats(0.0, 1.0)),
                              min_size=n, max_size=n)),
       theta=st.one_of(st.just(0.5), extreme_priors()),
       tie_break=st.sampled_from(list(TieBreak)),
       fixed_state=st.sampled_from(STATES),
       size=st.sampled_from([1, 7, 16384]),
       seed=st.integers(0, 2**64 - 1))
def test_history_kernel_returns_a_count_at_any_accepted_input(
        abilities, theta, tie_break, fixed_state, size, seed):
    # rng.binomial raises on a probability outside [0, 1] or NaN
    config = make_config(abilities, theta=theta, tie_break=tie_break)
    hits = history_chunk(config, size, np.random.SeedSequence(seed), fixed_state)
    assert 0 <= hits <= size


@pytest.mark.parametrize("fixed_state", [StateOfNature.A, StateOfNature.B])
@pytest.mark.parametrize("theta", [0.5, 0.3, 0.8])
@pytest.mark.parametrize("tie_break", [TieBreak.VOTE_A, TieBreak.VOTE_B])
@pytest.mark.parametrize("n", [1, 3, 25, 101])
def test_uninformed_jury_in_a_fixed_state_hits_exactly(n, tie_break, theta, fixed_state):
    # every vote follows the prior or the tie rule, so each trial's
    # verdict is certain and the count is exact
    config = make_config((0.0,) * n, theta=theta, tie_break=tie_break)
    p = exact_hit_rate(config, fixed_state)
    assert p in (0.0, 1.0)
    for size in (1, 7, 16384):
        hits = history_chunk(config, size, np.random.SeedSequence(n), fixed_state)
        assert hits == p * size


def posterior_before(theta, ll_a, ll_b):
    """``_posterior_given_history`` as it was before the walk's per-level
    calls were cut."""
    m = np.maximum(ll_a, ll_b)
    if (m == -np.inf).any():
        raise DomainError("history has probability zero under both states")
    w_a = theta * np.exp(ll_a - m)
    w_b = (1.0 - theta) * np.exp(ll_b - m)
    return w_a / (w_a + w_b)


def cutoff_before(a, q):
    """``_cutoff`` as it was before the walk's per-level calls were cut."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):
        s = np.divide(1.0 - 2.0 * q, a, out=np.zeros(np.broadcast(a, q).shape),
                      where=a > 0.0)
    return np.minimum(np.maximum(s, -1.0), 1.0)


def juror_step_before(a, q, tie_break):
    """``_juror_step`` as it was before the walk's per-level calls were
    cut, with the two CDFs each written out in full."""
    a = np.asarray(a, dtype=float)
    s = cutoff_before(a, q)
    p_a = 1.0 - (s + 1.0) * (a * s - a + 2.0) / 4.0
    p_b = 1.0 - (s + 1.0) * (a - a * s + 2.0) / 4.0
    blind = a == 0.0
    if blind.any():
        vote = np.where(q == 0.5, jury._TIE_VOTE_A[tie_break], q > 0.5)
        p_a = np.where(blind, vote, p_a)
        p_b = np.where(blind, vote, p_b)
    return s, p_a, p_b


def level_walk_before(abilities, theta, tie_break, w_a, w_b, split):
    """``_level_walk`` as it was before its per-level calls were cut: the
    reference its outputs must equal bit for bit."""
    orders, n = abilities.shape
    need = n // 2 + 1
    won_a = np.zeros(orders)
    won_b = np.zeros(orders)
    row = np.arange(orders)
    votes = np.zeros(orders, dtype=np.int64)
    ll = np.zeros((2, orders))
    w = np.stack((w_a, w_b))
    for i in range(n):
        m = len(row)
        q = posterior_before(theta, ll[0], ll[1])
        a = abilities[0, i] if orders == 1 else abilities[row, i]
        _, p_a, p_b = juror_step_before(a, q, tie_break)
        c = np.empty((2, 2 * m))
        c[0, :m] = p_a
        c[1, :m] = p_b
        np.subtract(1.0, c[:, :m], out=c[:, m:])
        child = split(w, c)
        votes = np.concatenate((votes + 1, votes))
        if i + 1 >= need:
            done = np.flatnonzero(votes[:m] == need)
            rows = row[done]
            won_a += np.bincount(rows, child[0][done], orders)
            won_b += np.bincount(rows, child[1][done], orders)
        keep = np.flatnonzero((child[0] + child[1] > 0.0) & (votes < need)
                              & (votes > i + 1 - need))
        parent = keep % m
        w = child.take(keep, axis=1)
        c = c.take(keep, axis=1)
        with np.errstate(divide="ignore"):
            np.log(c, out=c)
        ll = np.add(c, ll.take(parent, axis=1), out=c)
        votes = votes[keep]
        row = row[parent]
    return won_a, won_b


def binomial_split(seed, n_a, n_b):
    """``_simulate``'s split of trial counts, drawing from its own
    generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    live = slice(0 if n_a else 1, 2 if n_b else 1)

    def split(w, c):
        up = np.zeros_like(w)
        up[live] = rng.binomial(w[live], np.ascontiguousarray(c[live, :w.shape[1]]))
        return np.concatenate((up, w - up), axis=1)
    return split


@st.composite
def voting_orders(draw):
    """One voting order of odd n up to 15, or a batch of its permutations."""
    n = draw(st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]))
    abilities = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310]),
                                        st.floats(0.0, 1.0)),
                              min_size=n, max_size=n))
    if n < 3 or draw(st.booleans()):
        return np.array([abilities])
    return np.array(draw(st.lists(st.permutations(abilities), min_size=2, max_size=6)))


@settings(max_examples=120, deadline=None)
@given(orders=voting_orders(),
       theta=st.one_of(st.just(0.5), extreme_priors()),
       tie_break=st.sampled_from(list(TieBreak)),
       n_a=st.integers(0, 2**16), n_b=st.integers(0, 2**16),
       seed=st.integers(0, 2**64 - 1))
@example(orders=np.array([[0.0] * 10 + [0.5, 0.671875, 0.7738702922219873]]),
         theta=0.5, tie_break=TieBreak.FOLLOW_SIGNAL_SIGN, n_a=3, n_b=5, seed=0)
@example(orders=np.array([[0.0] * 5]), theta=0.5, tie_break=TieBreak.VOTE_A,
         n_a=3, n_b=5, seed=0)  # the frontier empties before the last juror
def test_level_walk_equals_the_walk_before_bit_for_bit(orders, theta, tie_break,
                                                       n_a, n_b, seed):
    count = len(orders)
    ones = np.ones(count)
    before = level_walk_before(orders, theta, tie_break, ones, ones, jury._mean_split)
    after = jury._level_walk(orders, theta, tie_break, np.ones((2, count)),
                             jury._mean_split)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    if n_a + n_b == 0:
        return
    w_a, w_b = np.full(count, n_a), np.full(count, n_b)
    before = level_walk_before(orders, theta, tie_break, w_a, w_b,
                               binomial_split(seed, n_a, n_b))
    after = jury._level_walk(orders, theta, tie_break, np.stack((w_a, w_b)),
                             binomial_split(seed, n_a, n_b))
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_level_walk_stops_at_the_first_empty_frontier():
    """0.95 then a hundred 0.05 jurors herd behind the first vote, so every
    history is decided by level 51 of 101: the walk splits 51 times, and
    its exact and drawn values are the full walk's."""
    orders = np.array([[0.95] + [0.05] * 100])
    ones = np.ones(1)
    widths = []

    def counted(split):
        def call(w, c):
            widths.append(w.shape[1])
            return split(w, c)
        return call

    after = jury._level_walk(orders, 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, np.ones((2, 1)),
                             counted(jury._mean_split))
    assert len(widths) == 51 and min(widths) > 0
    before = level_walk_before(orders, 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, ones, ones,
                               jury._mean_split)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    w_a, w_b = np.full(1, 5000), np.full(1, 7000)
    widths.clear()
    after = jury._level_walk(orders, 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, np.stack((w_a, w_b)),
                             counted(binomial_split(3, 5000, 7000)))
    assert len(widths) == 51
    before = level_walk_before(orders, 0.5, TieBreak.FOLLOW_SIGNAL_SIGN, w_a, w_b,
                               binomial_split(3, 5000, 7000))
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
