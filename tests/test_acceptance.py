"""End-to-end acceptance gate.

One test per release criterion, each printing a single line with the
measured quantity and the bound it must meet, so ``pytest -v`` doubles
as the acceptance report.
"""

import json
import subprocess
import sys
import time

import numpy as np
from scipy import stats as scipy_stats

from tailbalance import (
    CoefficientPair,
    CondorcetModel,
    JuryConfig,
    LinearAbility,
    Prior,
    SingularCoefficients,
    StateOfNature,
    alt_decomposition_solver,
    cdf_given_A,
    closed_form_linear,
    closed_form_linear_odds,
    condorcet_curve,
    condorcet_exact,
    decomposition_parts,
    exact_verdict_probability,
    monte_carlo_verdict,
    odds_limit_large_lambda,
    odds_limit_small_lambda,
    order_scan,
    residual_check,
    sample_signal,
    solve_affine_pair,
    solve_balanced,
    solve_odds,
)

ABILITIES = [round(0.1 * k, 1) for k in range(1, 11)]
GRID_1001 = np.linspace(-1.0, 1.0, 1001)
HALF = Prior(0.5)
CLI = [sys.executable, "-m", "tailbalance"]


def report(criterion, detail):
    print(f"criterion {criterion} PASS: {detail}")


def test_criterion_01_balanced_solver_matches_linear_closed_form():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_residual = 0.0
    for a in ABILITIES:
        solved = solve_balanced(LinearAbility(0.5, a), grid_size=1001)
        target = (GRID_1001 + 1.0) * (a * GRID_1001 - a + 2.0) / 4.0
        worst_gap = max(worst_gap, float(np.max(np.abs(solved(GRID_1001) - target))))
        check = residual_check(solved, LinearAbility(0.5, a), HALF, grid_size=1001)
        worst_residual = max(worst_residual, check.max_residual)
    elapsed = time.perf_counter() - start
    report(1, f"max formula gap {worst_gap:.3e} (bound 1e-12), "
              f"max residual {worst_residual:.3e} (bound 1e-12), "
              f"runtime {elapsed:.3f}s (bound 1s)")
    assert worst_gap <= 1e-12
    assert worst_residual <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_decomposition_oracle_matches_closed_form():
    worst = 0.0
    for a in ABILITIES:
        via_parts = alt_decomposition_solver(a, grid_size=1001)
        direct = closed_form_linear(a, grid_size=1001)
        worst = max(worst, float(np.max(np.abs(via_parts(GRID_1001)
                                               - direct(GRID_1001)))))
        f, g = decomposition_parts(a)
        np.testing.assert_array_equal(f(GRID_1001), GRID_1001)
        np.testing.assert_array_equal(
            g(GRID_1001), (2.0 - a + a * GRID_1001 * GRID_1001) / 2.0)
    report(2, f"max decomposition gap {worst:.3e} (bound 1e-12), "
              "parts f(t)=t and g(t)=(2-a+at^2)/2 exact")
    assert worst <= 1e-12


def test_criterion_03_singularity_guard_fires_exactly_on_tolerance():
    # delta(t) = 1 + t makes delta(t)*delta(-t) = 1 - t**2, singular
    # exactly at the origin
    singular = CoefficientPair(
        gamma=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        delta=lambda t: 1.0 + np.asarray(t, dtype=float))
    raised = None
    try:
        solve_affine_pair(singular)
    except SingularCoefficients as exc:
        raised = exc
    assert raised is not None
    assert raised.t == 0.0
    assert abs(raised.value) < 1e-12

    # a constant product of 1 - 1e-10 sits outside the guard band and
    # must not raise
    d = np.sqrt(1.0 - 1e-10)
    solve_affine_pair(CoefficientPair(
        gamma=lambda t: np.full_like(np.asarray(t, dtype=float), 0.1),
        delta=lambda t: np.full_like(np.asarray(t, dtype=float), d)))
    report(3, f"guard fired at t={raised.t} with |1-dd|={abs(raised.value):.1e} "
              "(bound 1e-12); gap 1e-10 case solved without raising")


def test_criterion_04_odds_solver_collapses_to_balanced_at_unit_lambda():
    worst_general = 0.0
    worst_closed = 0.0
    for a in ABILITIES:
        alpha = LinearAbility(0.5, a)
        via_odds = solve_odds(alpha, HALF, grid_size=1001)
        via_balanced = solve_balanced(alpha, grid_size=1001)
        worst_general = max(worst_general, float(np.max(np.abs(
            via_odds(GRID_1001) - via_balanced(GRID_1001)))))
        # closed_form_linear is closed_form_linear_odds at theta = 1/2, so
        # the cross-check is the one-quotient form of the linear-odds
        # closed form, (1 + t)(a*t - a + 2)(a/4) / D(t), where D(t) = a
        closed_odds = closed_form_linear_odds(a, HALF, grid_size=1001)
        quotient = (1.0 + GRID_1001) * (a * GRID_1001 - a + 2.0) * (a / 4.0) / a
        worst_closed = max(worst_closed, float(np.max(np.abs(
            closed_odds(GRID_1001) - quotient))))

    prior4 = Prior(0.2)  # odds lambda = 4
    from_general = solve_odds(LinearAbility(0.2, 1.0), prior4)(0.0)
    from_closed = closed_form_linear_odds(1.0, prior4)(0.0)
    report(4, f"unit-lambda gaps general {worst_general:.3e} / closed "
              f"{worst_closed:.3e} (bound 1e-12); lambda=4 midpoint "
              f"{from_general:.17g} vs {from_closed:.17g} vs 1/7")
    assert worst_general <= 1e-12
    assert worst_closed <= 1e-12
    assert abs(from_general - 1.0 / 7.0) <= 1e-12
    assert abs(from_closed - 1.0 / 7.0) <= 1e-12


def test_criterion_05_extreme_odds_match_asymptotic_rows():
    worst = 0.0
    for lam in (1e6, 1e-6):
        prior = Prior(1.0 / (1.0 + lam))
        for a in (0.5, 1.0):
            h = closed_form_linear_odds(a, prior)
            for t in (-0.5, 0.0, 0.5):
                if lam > 1.0:
                    approx = odds_limit_large_lambda(a, lam, t)
                else:
                    approx = odds_limit_small_lambda(a, t)
                rel = abs(h(t) - approx) / abs(h(t))
                worst = max(worst, rel)
    report(5, f"max relative deviation from limit rows {worst:.3e} "
              "(bound 1e-5)")
    assert worst <= 1e-5


def test_criterion_06_condorcet_limit_at_desk_scale():
    start = time.perf_counter()
    curve = condorcet_curve(0.6, 1001)
    values = np.array([v for _, v in curve])
    three = condorcet_exact(CondorcetModel(p=0.6, n=3))
    elapsed = time.perf_counter() - start
    report(6, f"curve strictly increasing over {len(values)} sizes, final "
              f"{values[-1]:.12f} (bound >0.999); exact(0.6,3)={three:.17g} "
              f"(0.648 within 1e-12); runtime {elapsed:.3f}s (bound 1s)")
    assert np.all(np.diff(values) > 0.0)
    assert values[-1] > 0.999
    assert abs(three - 0.648) <= 1e-12
    assert elapsed < 1.0


def test_criterion_07_monte_carlo_tracks_exact_across_seeds():
    cases = {
        "single full-ability": ((1.0,), 0.5),
        "spread triple": ((0.5, 0.9, 0.1), 0.5),
        "equal triple, tilted prior": ((0.6, 0.6, 0.6), 0.7),
    }
    start = time.perf_counter()
    summary = []
    for label, (abilities, theta) in cases.items():
        prior = Prior(theta)
        exact = exact_verdict_probability(
            JuryConfig(abilities=abilities, prior=prior)).p_correct
        hits = 0
        for seed in range(100):
            config = JuryConfig(abilities=abilities, prior=prior,
                                trials=10_000, seed=seed)
            mc = monte_carlo_verdict(config)
            if abs(mc.p_correct - exact) <= 3.0 * mc.stderr:
                hits += 1
        summary.append((label, hits))
    elapsed = time.perf_counter() - start
    report(7, "; ".join(f"{label}: {hits}/100 within 3 stderr (bound >=99)"
                        for label, hits in summary)
             + f"; runtime {elapsed:.1f}s (bound 30s)")
    for label, hits in summary:
        assert hits >= 99, label
    assert elapsed < 30.0


def test_criterion_08_middle_ability_juror_votes_first():
    triples = [(0.9, 0.5, 0.1), (0.8, 0.6, 0.2), (0.7, 0.5, 0.3)]
    start = time.perf_counter()
    margins = []
    for triple in triples:
        ordered = tuple(sorted(triple))
        expected_top = (ordered[1], ordered[2], ordered[0])
        rows = order_scan(triple, HALF)
        assert rows[0].ordering == expected_top, triple
        margins.append(rows[0].p_correct - rows[1].p_correct)
    elapsed = time.perf_counter() - start
    report(8, "top ordering is middle-high-low for all triples, margins "
              + ", ".join(f"{m:.3e}" for m in margins)
              + f" (bound >1e-9); runtime {elapsed:.2f}s (bound 5s)")
    assert all(m > 1e-9 for m in margins)
    assert elapsed < 5.0


def test_criterion_09_sampler_survives_kolmogorov_smirnov():
    n = 100_000
    critical = scipy_stats.kstwobign.isf(0.01) / np.sqrt(n)
    worst = 0.0
    for k, a in enumerate((0.0, 0.5, 1.0)):
        draws = sample_signal(a, StateOfNature.A, n, seed=2026 + k)
        result = scipy_stats.kstest(draws, lambda x, a=a: cdf_given_A(a, x))
        worst = max(worst, float(result.statistic))
    report(9, f"max KS statistic {worst:.5f} over a in {{0, 0.5, 1}} "
              f"(1% critical value {critical:.5f})")
    assert worst < critical


def test_criterion_10_cli_is_deterministic_and_round_trips(tmp_path):
    solve_args = CLI + ["solve", "--theta", "0.4", "--a", "0.7",
                        "--grid", "2001"]
    first = subprocess.run(solve_args, capture_output=True, check=True)
    second = subprocess.run(solve_args, capture_output=True, check=True)
    assert first.stdout == second.stdout

    sim_args = CLI + ["simulate", "--abilities", "0.5,0.9,0.1",
                      "--trials", "5000", "--seed", "17"]
    sim_one = subprocess.run(sim_args, capture_output=True, check=True)
    sim_two = subprocess.run(sim_args, capture_output=True, check=True)
    assert sim_one.stdout == sim_two.stdout

    table = tmp_path / "h.csv"
    table.write_bytes(first.stdout)
    residuals = {}
    for grid in ("1001", "999"):
        verify = subprocess.run(
            CLI + ["verify", "--theta", "0.4", "--a", "0.7",
                   "--h", str(table), "--grid", grid, "--tol", "1e-6",
                   "--format", "json"],
            capture_output=True, text=True)
        assert verify.returncode == 0, verify.stderr
        residuals[grid] = json.loads(verify.stdout)["metadata"]["max_residual"]
    report(10, "solve and simulate byte-identical across reruns; round-trip "
               f"residuals {residuals['1001']:.3e} (shared knots) and "
               f"{residuals['999']:.3e} (between knots), bound 1e-6")
    assert residuals["1001"] <= 1e-6
    assert residuals["999"] <= 1e-6
