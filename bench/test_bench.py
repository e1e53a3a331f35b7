"""Tests of the benchmark's own parts: the reference walk, the checks,
the order statistics, the spans and the seeded inputs."""

import itertools

import numpy as np
import pytest

import wl_exact
import wl_mc
import wl_solve
from harness import PYTHON_LOOP, LoopResult, Refused, Tracer, tail
from reference import reference_walk
from tailbalance import JuryConfig, Prior, TieBreak, exact_verdict_probability


@pytest.mark.parametrize("tie_break", list(TieBreak))
def test_reference_matches_exact_walk_on_small_juries(tie_break):
    rng = np.random.default_rng(11)
    for n, theta in itertools.product((1, 3, 5, 7), (0.5, 0.2, 0.83)):
        for _ in range(6):
            abilities = rng.uniform(0.0, 1.0, n)
            abilities[rng.random(n) < 0.3] = 0.0
            abilities[rng.random(n) < 0.1] = 1.0
            config = JuryConfig(tuple(abilities), Prior(theta), tie_break)
            ref = reference_walk(config.abilities, theta, tie_break)
            assert abs(ref.p_correct - exact_verdict_probability(config).p_correct) <= 1e-12


def test_reference_counts_a_single_informed_juror():
    ref = reference_walk([1.0], 0.5)
    # cutoff 0: P(vote A | A) = 3/4, and both branches close at once
    assert ref.p_correct == pytest.approx(0.75, abs=1e-15)
    assert (ref.nodes, ref.retired, ref.forced) == (3, 2, 0)


def test_reference_counts_a_forced_vote():
    ref = reference_walk([0.0], 0.7)
    assert ref.p_correct == pytest.approx(0.7, abs=1e-15)
    assert (ref.nodes, ref.retired, ref.forced) == (2, 1, 1)


@pytest.mark.parametrize("tie_break, forced", [(TieBreak.VOTE_A, 1), (TieBreak.VOTE_B, 1),
                                               (TieBreak.FOLLOW_SIGNAL_SIGN, 0)])
def test_reference_tie_rules_at_the_knife_edge(tie_break, forced):
    ref = reference_walk([0.0], 0.5, tie_break)
    assert ref.p_correct == pytest.approx(0.5, abs=1e-15)
    assert ref.forced == forced


def test_reference_rejects_even_jury():
    with pytest.raises(ValueError):
        reference_walk([0.5, 0.5], 0.5)


def test_tail_leaves_ten_values_above():
    assert tail(range(1, 31)) == (20, 200 / 3, 30)


def test_tail_falls_back_to_the_median_on_short_runs():
    assert tail(range(1, 21)) == (11, 55.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 200 / 3, 3)


def test_tail_stops_at_p99_on_long_runs():
    assert tail(range(1, 2001)) == (1980, 99.0, 2000)


def test_host_factors_use_the_nearest_calibrations():
    cal = [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3]
    loop = LoopResult(ops=[], seconds=[1.0] * 6, calibrations=cal,
                      calibrated_at=list(range(6)))
    factors = loop.host_factors()
    assert factors[0] == PYTHON_LOOP.reference_s / 3e-3
    assert factors[5] == PYTHON_LOOP.reference_s / 4e-3
    times, _ = loop.corrected()
    assert times == factors


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("bench.op"):
        with tracer.span("jury.call"):
            pass
    outer, inner = tracer.spans
    assert inner[3] == 0
    own = tracer.self_times()
    assert own["jury"] == pytest.approx(inner[2] - inner[1])
    assert own["bench"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("jury.call"):
        pass
    assert tracer.spans == []


INPUTS = {wl_exact: lambda s: s.configs, wl_mc: lambda s: s.cases,
          wl_solve: lambda s: [(c.kind, c.theta) for c in s.cases.values()]}


@pytest.mark.parametrize("module", list(INPUTS))
def test_inputs_repeat_for_a_seed(module):
    inputs = INPUTS[module]
    first, again, other = (module.build(seed, Tracer(False)) for seed in (5, 5, 6))
    assert first.order == again.order
    assert inputs(first) == inputs(again)
    assert inputs(first) != inputs(other)


def test_monte_carlo_check_is_not_vacuous_at_certainty():
    config = JuryConfig((0.9, 0.8, 0.7), Prior(0.5), trials=100_000)
    case = wl_mc.McCase(config, conditional=False)
    sim = wl_mc.McSim({"k": case}, ["k"], Tracer(False), rerun_key="k")
    p = reference_walk(config.abilities, 0.5).p_correct
    assert sim._check_reference(case, p) is None
    assert sim._check_reference(case, 1.0) is not None
    assert sim._check_reference(wl_mc.McCase(config, conditional=True), 0.0) is not None


def test_solve_check_counts_bad_results_and_unexpected_refusals():
    sweep = wl_solve.build(3, Tracer(False), probe=True)
    key = next(k for k in sweep.order if sweep.cases[k].kind == "closed-odds")
    assert sweep._check(key, (False, 0.0)) == "result is not a valid CDF"
    assert "max_residual" in sweep._check(key, (True, 1.0))
    assert "refused" in sweep._check(key, Refused("DegenerateAlpha"))


def test_timed_solver_priors_avoid_the_residual_defect():
    sweep = wl_solve.build(7, Tracer(False))
    for case in sweep.cases.values():
        if case.solver == "solve_odds":
            assert case.grid == 1001
            assert wl_solve.exact_odds(case.theta, float(case.alpha(-1.0)))


def test_defect_probe_counts_every_unrestricted_input():
    counts = wl_solve.defect_probe(7)
    sizes = [sum(c for _, _, c in kinds)
             for kinds in (wl_solve.DEFECT_ORDINARY, wl_solve.DEFECT_EXTREME)]
    assert [c.inputs for c in counts] == sizes
    assert all(0 <= c.failed <= c.inputs for c in counts)
    assert counts == wl_solve.defect_probe(7)
