"""solve-sweep: in-process solver calls, each with its built-in residual
and validity check.

A solver call takes about a millisecond, which is invisible inside a CLI
call, so the solvers and alpha specs get a workload of their own.  One
pass holds 48 calls.  36 use ordinary priors (theta in [0.05, 0.95])
with linear, affine and 201-knot tabulated alphas on grids of 1001 and
(closed forms and the balanced solver) 20001 points.  The other 12, a
quarter of every pass, are the extreme-prior share: theta log-uniform
down to 1e-150, 1 - theta log-uniform down to 1e-16 (closed form only),
and ability 0 with and without ``allow_uniform_limit``.

The timed inputs avoid three known defects of the package, because every
timed op must pass its check.  ``defect_probe`` measures them on the
unrestricted inputs in every run:

* ordinary priors: ``solve_odds`` returns the right H, but H(-1) comes out
  a rounding-sized nonzero unless (lambda + 1) * alpha(-1) rounds to
  exactly 1, and ``residual_check`` then reads the t = +1 ratio as a
  quotient of two rounding errors, reporting ``max_residual`` up to 1.
  The timed priors are drawn only where that product is exact.
* large grid: on 20001 points ``solve_odds`` loses enough precision next
  to t = -1 that its residual exceeds ``RESIDUAL_TOL`` in about one call
  in a hundred, so the timed sweep keeps solve_odds on 1001 points.
* extreme priors (ROADMAP item 4): ``lambda * lambda`` overflows below
  theta of about 1e-154, and ``solve_odds`` returns an invalid CDF there
  and for theta above about 0.97.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from harness import NUMPY_SMALL, Calibration, Crashed, Op, Refused, Tracer, call_seconds, median
from tailbalance import (
    Affine,
    CoefficientPair,
    LinearAbility,
    Prior,
    SolverError,
    Tabulated,
    alt_decomposition_solver,
    cdf_axioms_hold,
    cdf_given_A,
    closed_form_linear,
    closed_form_linear_odds,
    residual_check,
    solve_affine_pair,
    solve_balanced,
    solve_odds,
)
from tailbalance.alpha import RESIDUAL_TOL

#: Agreement required with the linear closed form.
MATCH_TOL = 1e-12
KNOTS = 201
LARGE_GRID = 20001

# (kind, grid, count per pass); kinds are described in _case().  solve_odds
# on a linear alpha at grid 1001 is the largest group, with about as many
# calls cheaper than it (closed forms, refusals) as dearer (tables, large
# grids, affine pairs), so the median op falls inside that group.  The
# large grid goes to the closed forms and the balanced solver only.
ORDINARY = [("odds-linear", 1001, 12), ("odds-affine", 1001, 2), ("odds-table", 1001, 3),
            ("balanced-linear", 1001, 2), ("balanced-linear", LARGE_GRID, 2),
            ("balanced-table", 1001, 1), ("closed-linear", 1001, 2),
            ("closed-odds", 1001, 4), ("closed-odds", LARGE_GRID, 2),
            ("decomposition", 1001, 2), ("affine-pair", 1001, 4)]
EXTREME = [("odds-linear-tiny-theta", 1001, 6),
           ("closed-odds-tiny-theta", 1001, 1), ("closed-odds-near-one", 1001, 1),
           ("odds-zero-ability", 1001, 1), ("odds-zero-ability-uniform", 1001, 1),
           ("closed-odds-zero-ability", 1001, 1),
           ("closed-odds-zero-ability-uniform", 1001, 1)]
PROBE = [("odds-linear", 1001, 2), ("closed-odds", LARGE_GRID, 1),
         ("odds-table", 1001, 1), ("closed-odds", 1001, 2),
         ("odds-linear-tiny-theta", 1001, 1)]
#: Lowest tiny theta of the timed share: lambda * lambda overflows below
#: about 1e-154.
TIMED_TINY_THETA = 1e-150
#: The defect probe's inputs, drawn with no restriction.  Its extreme
#: share is the one the timed sweep would hold without the defects: theta
#: down to 1e-300 and 1 - theta down to 1e-16 through solve_odds too.
DEFECT_ORDINARY = [("odds-linear", 1001, 32), ("odds-affine", 1001, 16),
                   ("odds-table", 1001, 16), ("odds-linear", LARGE_GRID, 8),
                   ("odds-table", LARGE_GRID, 8)]
DEFECT_EXTREME = [("odds-linear-tiny-theta", 1001, 12), ("odds-linear-near-one", 1001, 12),
                  ("closed-odds-tiny-theta", 1001, 4), ("closed-odds-near-one", 1001, 4),
                  ("odds-zero-ability", 1001, 4), ("odds-zero-ability-uniform", 1001, 4),
                  ("closed-odds-zero-ability", 1001, 4),
                  ("closed-odds-zero-ability-uniform", 1001, 4)]


def calibration() -> Calibration:
    """A solver call is numpy dispatch on 1001-point arrays.  Over eight
    20 s stretches on the reference host, this calibration left a
    run-to-run spread of the median op of 0.036, the pure-Python loop
    0.062 (0.285 uncorrected)."""
    return NUMPY_SMALL


@dataclass
class SolveCase:
    kind: str
    grid: int
    solver: str
    run: Callable
    theta: float
    alpha: object = None
    expected: Callable | None = None
    may_refuse: bool = False


def _table(rng, theta: float) -> Tabulated:
    """A curved alpha through 201 knots: theta + (1-theta)*a*((t+1)/2)**p."""
    a, p = rng.uniform(0.1, 1.0), rng.uniform(0.6, 1.6)
    t = np.linspace(-1.0, 1.0, KNOTS)
    v = theta + (1.0 - theta) * a * ((t + 1.0) / 2.0) ** p
    return Tabulated(tuple(zip(t.tolist(), v.tolist())))


def exact_odds(theta: float, alpha_at_minus_one: float) -> bool:
    """Whether solve_odds's H(-1) factor (lambda + 1) * alpha(-1) - 1 is
    exactly 0 in floating point, as it is in exact arithmetic."""
    return (Prior(theta).odds_lambda + 1.0) * alpha_at_minus_one - 1.0 == 0.0


def _draw(kind: str, rng, timed: bool) -> tuple[float, float]:
    """(ability, theta) of one case; a timed case is redrawn until its
    prior avoids the residual defect (about one draw in five misses)."""
    while True:
        a = float(rng.uniform(0.05, 1.0))
        theta = float(rng.uniform(0.05, 0.95))
        if kind.endswith("tiny-theta"):
            floor = TIMED_TINY_THETA if timed else 1e-300
            theta = float(10.0 ** rng.uniform(np.log10(floor), np.log10(0.5)))
        elif kind.endswith("near-one"):
            theta = 1.0 - float(10.0 ** rng.uniform(-16.0, np.log10(0.5)))
        if "zero-ability" in kind:
            a = 0.0
        if kind == "odds-affine":
            slope = (1.0 - theta) * a / 2.0
            at_minus_one = Affine(theta + slope, slope)(-1.0)
        else:
            at_minus_one = theta
        if not timed or not kind.startswith("odds") or exact_odds(theta, at_minus_one):
            return a, theta


def _case(kind: str, grid: int, rng, timed: bool = True) -> SolveCase:
    a, theta = _draw(kind, rng, timed)
    extreme = kind.endswith(("tiny-theta", "near-one")) or "zero-ability" in kind
    uniform = kind.endswith("-uniform")
    prior = Prior(theta)
    if kind.startswith("balanced"):
        theta, prior = 0.5, Prior(0.5)
    linear = LinearAbility(theta, a)

    def closed(alpha_a=a, alpha_theta=theta):
        return closed_form_linear_odds(alpha_a, Prior(alpha_theta), grid_size=grid,
                                       allow_uniform_limit=True)

    if kind.startswith("odds-table") or kind == "balanced-table":
        alpha = _table(rng, theta)
        solver = solve_balanced if kind.startswith("balanced") else solve_odds
        args = (alpha,) if kind.startswith("balanced") else (alpha, prior)
        return SolveCase(kind, grid, solver.__name__,
                         lambda: solver(*args, grid_size=grid), theta, alpha=alpha)
    if kind == "odds-affine":
        slope = (1.0 - theta) * a / 2.0
        alpha = Affine(theta + slope, slope)
        return SolveCase(kind, grid, "solve_odds",
                         lambda: solve_odds(alpha, prior, grid_size=grid),
                         theta, alpha, lambda: closed(2.0 * slope / (1.0 - theta)))
    if kind.startswith("odds"):
        return SolveCase(kind, grid, "solve_odds",
                         lambda: solve_odds(linear, prior, allow_uniform_limit=uniform,
                                            grid_size=grid),
                         theta, linear, closed, may_refuse=extreme and not uniform)
    if kind == "balanced-linear":
        return SolveCase(kind, grid, "solve_balanced",
                         lambda: solve_balanced(linear, grid_size=grid),
                         theta, linear, closed)
    if kind == "closed-linear":
        return SolveCase(kind, grid, "closed_form_linear",
                         lambda: closed_form_linear(a, grid_size=grid),
                         0.5, LinearAbility(0.5, a), lambda: closed(a, 0.5))
    if kind.startswith("closed-odds"):
        return SolveCase(kind, grid, "closed_form_linear_odds",
                         lambda: closed_form_linear_odds(a, prior,
                                                         allow_uniform_limit=uniform,
                                                         grid_size=grid),
                         theta, linear, None, may_refuse=extreme and not uniform)
    if kind == "decomposition":
        return SolveCase(kind, grid, "alt_decomposition_solver",
                         lambda: alt_decomposition_solver(a, grid_size=grid),
                         0.5, LinearAbility(0.5, a), lambda: closed(a, 0.5))
    # affine-pair: H(-t) = gamma(t) + c*H(t), built from the CDF it must return
    c = float(rng.uniform(0.1, 0.9))
    pair = CoefficientPair(
        gamma=lambda t: np.asarray(cdf_given_A(a, -np.asarray(t)))
        - c * np.asarray(cdf_given_A(a, t)),
        delta=lambda t: np.full(np.shape(t), c))
    return SolveCase(kind, grid, "solve_affine_pair",
                     lambda: solve_affine_pair(pair, grid_size=grid), 0.5,
                     expected=lambda: (lambda t: cdf_given_A(a, t)))


@dataclass
class SolveSweep:
    cases: dict[str, SolveCase]
    order: list[str]
    tracer: Tracer
    kept: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [self._op(key) for key in self.order]

    def _op(self, key: str) -> Op:
        case = self.cases[key]
        name = f"solvers.{case.solver}"
        tracer = self.tracer

        def solve():
            try:
                with tracer.span(name):
                    h = case.run()
            except SolverError as exc:
                return Refused(type(exc).__name__)
            self.kept.setdefault(key, h)
            return h.is_valid_cdf, h.max_residual
        return Op(key, solve)

    def check(self, first: dict) -> dict[str, str | None]:
        verdict = {key: self._check(key, out) for key, out in first.items()}
        self.passed = {k: self.kept[k] for k, v in verdict.items()
                       if v is None and k in self.kept}
        return verdict

    def _check(self, key: str, out) -> str | None:
        case = self.cases[key]
        if isinstance(out, Crashed):
            return out.error
        if isinstance(out, Refused):
            return None if case.may_refuse else f"refused a well-posed problem ({out.reason})"
        valid, residual = out
        if not valid:
            return "result is not a valid CDF"
        if not residual <= RESIDUAL_TOL:
            return f"max_residual {residual!r} above {RESIDUAL_TOL}"
        if case.expected is not None:
            t = np.linspace(-1.0, 1.0, case.grid)
            gap = np.max(np.abs(np.asarray(self.kept[key](t)) - np.asarray(case.expected()(t))))
            if not gap <= MATCH_TOL:
                return f"off the closed form by {gap:.3e}"
        return None


def build(seed: int, tracer: Tracer, probe: bool = False) -> SolveSweep:
    rng = np.random.default_rng([seed, 4])
    cases = {}
    for kind, grid, count in (PROBE if probe else ORDINARY + EXTREME):
        for k in range(count):
            cases[f"{kind}-{grid}-{k}"] = _case(kind, grid, rng)
    keys = list(cases)
    order = [keys[int(i)] for i in rng.permutation(len(keys))]
    return SolveSweep(cases, order, tracer)


@dataclass(frozen=True)
class DefectCount:
    """Failed checks among one class of the defect probe's inputs."""

    name: str
    failed: int
    inputs: int
    example: str | None

    @property
    def ratio(self) -> float:
        return self.failed / self.inputs


def defect_probe(seed: int) -> list[DefectCount]:
    """Check each unrestricted input once, untimed, and count the failures
    of the ordinary-prior and the extreme-prior class: the package's known
    defects, measured in every run and kept out of the timed ops."""
    rng = np.random.default_rng([seed, 5])
    counts = []
    for name, kinds in (("ordinary_prior", DEFECT_ORDINARY),
                        ("extreme_prior", DEFECT_EXTREME)):
        cases = {f"{kind}-{grid}-{k}": _case(kind, grid, rng, timed=False)
                 for kind, grid, count in kinds for k in range(count)}
        sweep = SolveSweep(cases, list(cases), Tracer(False))
        first = {}
        # overflow at tiny theta warns on every call
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            for op in sweep.ops:
                try:
                    first[op.key] = op.call()
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    first[op.key] = Crashed(f"{type(exc).__name__}: {exc}")
        failed = {k: r for k, r in sweep.check(first).items() if r is not None}
        example = next((f"{k} (theta {cases[k].theta!r}): {r}"
                        for k, r in failed.items()), None)
        counts.append(DefectCount(name, len(failed), len(cases), example))
    return counts


def layer_metrics(sweep: SolveSweep, loop, tracer: Tracer) -> dict[str, tuple[float, str]]:
    by = {"odds": [], "closed": []}
    for i, seconds in zip(loop.index, loop.seconds):
        case = sweep.cases[sweep.order[i]]
        if case.solver == "solve_odds":
            by["odds"].append(seconds)
        elif case.solver.startswith("closed_form") and case.grid != LARGE_GRID:
            by["closed"].append(seconds)
    h_key = next(k for k in sweep.order if sweep.cases[k].kind == "odds-linear"
                 and k in sweep.kept)
    h, case = sweep.kept[h_key], sweep.cases[h_key]
    prior = Prior(case.theta)
    table = _table(np.random.default_rng(0), 0.3)
    grid = np.linspace(-1.0, 1.0, LARGE_GRID)
    worst = max((solved.max_residual for solved in sweep.passed.values()), default=0.0)

    def timed(name, call):
        return call_seconds(tracer, name, call, repeats=15), "s"

    return {
        "solvers.solve_odds_s": (median(by["odds"]), "s"),
        # outside the timed sweep, which keeps solve_odds off the large grid
        "solvers.solve_odds_large_grid_s": timed(
            "solvers.solve_odds", lambda: solve_odds(case.alpha, prior,
                                                     grid_size=LARGE_GRID)),
        "solvers.closed_form_s": (median(by["closed"]), "s"),
        "solvers.residual_check_s": timed("solvers.residual_check",
                                          lambda: residual_check(h, case.alpha, prior)),
        "solvers.max_residual": (worst, "1"),
        "alpha.linear_eval_s": timed("alpha.linear_eval", lambda: case.alpha(grid)),
        "alpha.table_eval_s": timed("alpha.table_eval", lambda: table(grid)),
        "alpha.cdf_axioms_s": timed("alpha.cdf_axioms", lambda: cdf_axioms_hold(h)),
    }
