"""mc-sim: in-process monte_carlo_verdict calls on the default thread pool.

This is the numpy kernel and the worker pool; it does no exact work.
Juries of n = 3 and 7 expose per-chunk overhead and n = 25 and 101
per-juror throughput.  Each size runs plain and stratified
(``conditional``), and half the juries open with a zero-ability juror at
an even prior under a vote_a or vote_b tie rule, which takes the
kernel's other branch.  Trials are set so that every call takes a
similar time, which keeps the median and the tail op steady.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from harness import Calibration, Crashed, Op, Tracer, median, numpy_pool
from reference import reference_walk
from tailbalance import JuryConfig, Prior, TieBreak, monte_carlo_verdict
from tailbalance.jury import _chunk_sizes, _worker_cap

# About 0.15 s a call on 2 workers; n=101 runs exactly two full chunks.
TRIALS = {3: 850_000, 7: 400_000, 25: 120_000, 101: 32_768}
PROBE_TRIALS = {3: 200_000, 101: 32_768}
#: Juries up to this size are checked against the reference walk.
REFERENCE_MAX_N = 15


def resolved_workers(trials: int) -> int:
    """Worker count the package's planner picks for a plain call of
    ``trials`` trials under the current TAILBALANCE_THREADS."""
    return _worker_cap(len(_chunk_sizes(trials)))


def calibration() -> Calibration:
    """A numpy pool as wide as the pool the package gives these calls."""
    return numpy_pool(resolved_workers(max(TRIALS.values())))


@dataclass(frozen=True)
class McCase:
    config: JuryConfig
    conditional: bool

    @property
    def draws(self) -> int:
        return len(self.config.abilities) * self.config.trials


@dataclass
class McSim:
    cases: dict[str, McCase]
    order: list[str]
    tracer: Tracer
    rerun_key: str

    @property
    def ops(self) -> list[Op]:
        return [self._op(key) for key in self.order]

    def _op(self, key: str) -> Op:
        case = self.cases[key]
        tracer = self.tracer

        def simulate():
            with tracer.span("jury.monte_carlo_verdict"):
                stats = monte_carlo_verdict(case.config, conditional=case.conditional)
            return stats.p_correct
        return Op(key, simulate)

    def check(self, first: dict) -> dict[str, str | None]:
        verdict = {}
        for key, p_hat in first.items():
            if isinstance(p_hat, Crashed):
                verdict[key] = p_hat.error
                continue
            case = self.cases[key]
            verdict[key] = self._check_reference(case, p_hat)
            if key == self.rerun_key and verdict[key] is None:
                verdict[key] = self._check_single_thread(case, p_hat)
        return verdict

    def _check_reference(self, case: McCase, p_hat: float) -> str | None:
        """|p_hat - p| within 4 standard errors, both taken from the exact
        reference, so the bound holds even when p_hat is 0 or 1."""
        config = case.config
        if len(config.abilities) > REFERENCE_MAX_N:
            return None if 0.0 <= p_hat <= 1.0 else "p_hat outside [0, 1]"
        ref = reference_walk(config.abilities, config.prior.theta, config.tie_break)
        theta, trials = config.prior.theta, config.trials
        if case.conditional:
            n_a = min(max(int(round(theta * trials)), 1), trials - 1)
            p_a, p_b = ref.maj_a_given_a, 1.0 - ref.maj_a_given_b
            var = (theta**2 * p_a * (1.0 - p_a) / n_a
                   + (1.0 - theta)**2 * p_b * (1.0 - p_b) / (trials - n_a))
        else:
            var = ref.p_correct * (1.0 - ref.p_correct) / trials
        if abs(p_hat - ref.p_correct) > 4.0 * math.sqrt(var) + 1e-12:
            return f"p_hat {p_hat!r} beyond 4 SE of the reference {ref.p_correct!r}"
        return None

    def _check_single_thread(self, case: McCase, p_hat: float) -> str | None:
        os.environ["TAILBALANCE_THREADS"] = "1"
        try:
            again = monte_carlo_verdict(case.config, conditional=case.conditional).p_correct
        finally:
            del os.environ["TAILBALANCE_THREADS"]
        return None if again == p_hat else "p_hat changes with TAILBALANCE_THREADS=1"


def build(seed: int, tracer: Tracer, probe: bool = False) -> McSim:
    rng = np.random.default_rng([seed, 3])
    cases: dict[str, McCase] = {}
    variants = [(False, TieBreak.FOLLOW_SIGNAL_SIGN, False),
                (True, TieBreak.FOLLOW_SIGNAL_SIGN, False),
                (False, TieBreak.VOTE_A, True),
                (True, TieBreak.VOTE_B, True)]
    for n, trials in (PROBE_TRIALS if probe else TRIALS).items():
        for conditional, tie, zero in variants[:1] if probe else variants:
            abilities = rng.uniform(0.0, 1.0, n)
            theta = float(rng.uniform(0.2, 0.8))
            if zero:
                # first juror uninformed at an even prior: the tie rule decides
                abilities[0], theta = 0.0, 0.5
            config = JuryConfig(tuple(float(a) for a in abilities), Prior(theta),
                                tie_break=tie, trials=trials,
                                seed=int(rng.integers(2**63)))
            cases[f"n{n}-{'cond' if conditional else 'plain'}-{tie.value}"] = McCase(
                config, conditional)
    keys = list(cases)
    order = [keys[int(i)] for i in rng.permutation(len(keys))]
    small = [k for k in keys if len(cases[k].config.abilities) <= REFERENCE_MAX_N]
    return McSim(cases, order, tracer, rerun_key=small[int(rng.integers(len(small)))])


def juror_draws_per_s(sim: McSim, loop) -> float:
    return sum(sim.cases[sim.order[i]].draws for i in loop.index) / loop.wall


def layer_metrics(sim: McSim, loop, tracer: Tracer) -> dict[str, tuple[float, str]]:
    small_draws = small_s = large_draws = large_s = 0.0
    for i, seconds in zip(loop.index, loop.seconds):
        case = sim.cases[sim.order[i]]
        n = len(case.config.abilities)
        if n <= 7:
            small_draws, small_s = small_draws + case.draws, small_s + seconds
        elif n >= 25:
            large_draws, large_s = large_draws + case.draws, large_s + seconds
    trials = max(c.config.trials for c in sim.cases.values())
    return {
        "jury.mc_call_s": (median(loop.seconds), "s"),
        "jury.mc_small_n_draws_per_s": (small_draws / small_s, "1/s"),
        "jury.mc_large_n_draws_per_s": (large_draws / large_s, "1/s"),
        "jury.mc_workers": (float(resolved_workers(trials)), "count"),
        "jury.mc_juror_draws_per_s": (juror_draws_per_s(sim, loop), "1/s"),
    }
