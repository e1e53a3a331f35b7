"""Solvers for the tail-balance functional equations.

The defining relation ties a candidate CDF ``H`` on [-1, +1] to a
target function ``alpha`` and prior odds ``lambda``:

    (1 - H(t)) / (1 - H(t) + lambda * H(-t)) = alpha(t)

with the left side read as 1 at t = +1, where both tails vanish.  The
balanced case is lambda = 1.  Each solver returns a ``SolvedCdf`` whose
``max_residual`` was measured against this relation (or, for the
affine-pair solver, against its own relation H(-t) = gamma + delta*H)
on a check grid, and whose ``is_valid_cdf`` flag is computed from the
values rather than assumed.

``solve_odds`` (and so ``solve_balanced``) evaluates alpha once on the
check grid and once on its mirror, besides its alpha(-1) probe, and
``solve_affine_pair`` evaluates gamma and delta once each on both.  The
H values, residual and validity come from those arrays through the same
H formula the returned evaluator runs, so they equal bit for bit what a
fresh ``residual_check`` of the evaluator reports.  The closed forms
and the decomposition solver check their evaluator with
``residual_check``.  Each evaluator is a bare array-in/array-out core;
``SolvedCdf`` adapts scalars, lists and 0-d arrays to it.  Every check
grid comes from ``check_grid``, built once per size and shared
read-only.  On the default 1001-point grid a call costs about 70-130 us
in process (2-CPU x86, numpy 2.4), mostly fixed numpy dispatch over a
dozen or so array operations.

Every formula is evaluated in its alpha form.  The equivalent
odds-transform form divides by 1 - alpha(t), which is 0 at t = +1
whenever alpha reaches certainty, so the alpha form needs no special
casing at the right endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .alpha import (
    EQUALITY_TOL,
    BOUNDARY_TOL,
    AlphaSpec,
    CoefficientPair,
    LinearAbility,
    Provenance,
    SolvedCdf,
    _check_grid_size,
    cdf_values_ok,
    check_grid,
    evaluate_on,
)
from .errors import (
    DegenerateAbility,
    DegenerateAlpha,
    DomainError,
    Indeterminate,
    InvalidBoundary,
    SingularCoefficients,
)
from .signals import Prior, _cdf_on_support, _check_ability, _check_prior, _number

DEFAULT_GRID = 1001

_BALANCED_PRIOR = Prior(0.5)


def _uniform_solution(provenance: Provenance, alpha: AlphaSpec, prior: Prior,
                      grid_size: int) -> SolvedCdf:
    def core(t):
        return (np.minimum(np.maximum(t, -1.0), 1.0) + 1.0) / 2.0

    return _finish(core, provenance, residual_check(core, alpha, prior, grid_size))


def _finish(evaluator, provenance: Provenance, report: ResidualReport) -> SolvedCdf:
    """Attach a residual report's measured residual and validity (judged
    on the report's own H values, the evaluator's on the grid) to an
    evaluator."""
    return SolvedCdf(
        evaluator=evaluator,
        provenance=provenance,
        max_residual=report.max_residual,
        is_valid_cdf=cdf_values_ok(report.h),
    )


def solve_balanced(alpha: AlphaSpec, *, allow_uniform_limit: bool = False,
                   grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """Solve the balanced (lambda = 1) tail-balance equation.

    The unique nonnegative solution is

        H(t) = (2*alpha(t) - 1) * (1 - alpha(-t)) / (alpha(t) + alpha(-t) - 1)

    the odds equation at theta = 1/2, so this is ``solve_odds`` with that
    prior under its own provenance tag; the values equal the expression
    above bit for bit wherever alpha(-1) is exactly 1/2.  The constant
    alpha = 1/2 (zero ability) collapses the equation to 0/0 everywhere;
    by default that raises DegenerateAlpha, and passing
    ``allow_uniform_limit=True`` instead returns its declared limit, the
    uniform CDF (t + 1)/2.
    """
    solved = solve_odds(alpha, _BALANCED_PRIOR, allow_uniform_limit=allow_uniform_limit,
                        grid_size=grid_size)
    return replace(solved, provenance=Provenance.BALANCED_FORMULA)


def closed_form_linear(a: float, *, grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """The balanced solution for the linear ability family, in closed form.

    H(t) = (t + 1) * (a*t - a + 2) / 4, exactly the state-A signal CDF
    at ability ``a``: ``closed_form_linear_odds`` at theta = 1/2, where
    its factor a / D(t) is exactly 1.  Zero ability gives the uniform
    CDF with no error.
    """
    return closed_form_linear_odds(a, _BALANCED_PRIOR, allow_uniform_limit=True,
                                   grid_size=grid_size)


def solve_affine_pair(coeffs: CoefficientPair, *,
                      grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """Solve H(-t) = gamma(t) + delta(t) * H(t) for H.

    Writing the relation at t and at -t and eliminating H(-t) gives

        H(t) = (gamma(t) * delta(-t) + gamma(-t)) / (1 - delta(t) * delta(-t))

    which requires delta(t) * delta(-t) != 1 across the grid.  The
    returned max_residual measures this relation, not the tail-balance
    ratio; the result need not be a CDF at all (gamma = 0 solves the
    homogeneous equation with H = 0) and is_valid_cdf reports that
    honestly.
    """
    n = _check_grid_size(grid_size)
    grid = check_grid(n)
    d_pos = evaluate_on(coeffs.delta, grid)
    d_neg = evaluate_on(coeffs.delta, -grid)
    gap = 1.0 - d_pos * d_neg
    i = int(np.abs(gap).argmin())
    if abs(gap[i]) < EQUALITY_TOL:
        raise SingularCoefficients(float(grid[i]), float(gap[i]))

    def h(g_t, g_neg_t, d_neg_t, gap_t):
        return (g_t * d_neg_t + g_neg_t) / gap_t

    def core(t):
        d_neg_t = evaluate_on(coeffs.delta, -t)
        gap_t = 1.0 - evaluate_on(coeffs.delta, t) * d_neg_t
        return h(evaluate_on(coeffs.gamma, t), evaluate_on(coeffs.gamma, -t), d_neg_t, gap_t)

    # the evaluator's values on +grid and -grid, bit for bit: at -grid the
    # gap is 1 - delta(-t) * delta(t), the same product
    g_pos = evaluate_on(coeffs.gamma, grid)
    g_neg = evaluate_on(coeffs.gamma, -grid)
    h_pos = h(g_pos, g_neg, d_neg, gap)
    h_neg = h(g_neg, g_pos, d_pos, gap)
    residual = np.abs(h_neg - g_pos - d_pos * h_pos)
    return SolvedCdf(
        evaluator=core,
        provenance=Provenance.AFFINE_PAIR,
        max_residual=float(residual.max()),
        is_valid_cdf=cdf_values_ok(h_pos),
    )


def solve_odds(alpha: AlphaSpec, prior: Prior, *,
               allow_uniform_limit: bool = False,
               grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """Solve the general-odds tail-balance equation.

    With lambda = (1 - theta)/theta the prior odds of state B,

        H(t) = ((lambda + 1) * alpha(t) - 1) * (1 - alpha(-t))
               / (alpha(t) + alpha(-t) + (lambda**2 - 1) * alpha(t) * alpha(-t) - 1)

    The formula is evaluated multiplied through by theta**2:

        num = theta * (alpha(t) - alpha(-1)) * (1 - alpha(-t))
        den = theta**2 * (alpha(t) + alpha(-t) - 1) + (1 - 2*theta) * alpha(t) * alpha(-t)
            = (1 - theta)**2 * alpha(t) * alpha(-t) - theta**2 * (1 - alpha(t)) * (1 - alpha(-t))

    lambda**2 overflows below theta ~ 1e-154; the scaled terms do not.
    Above theta = 1/2 the two terms of the first form of den cancel to a
    few digits, so den takes the second form there; the first, at theta =
    1/2, is the balanced formula times powers of two, bit for bit.  The
    measured alpha(-1) in num makes H(-1) exactly 0 even where alpha(-1)
    misses theta by a rounding, which keeps the residual at t = +1
    exact.  The guard |den| <= EQUALITY_TOL * theta**2 is the unscaled
    test.  A constant alpha = theta makes den vanish identically (the
    zero-ability degeneracy); ``allow_uniform_limit=True`` opts into the
    uniform-CDF limit.
    """
    _check_prior(prior)
    n = _check_grid_size(grid_size)
    theta = prior.theta
    boundary = float(np.asarray(alpha(-1.0), dtype=float))
    if abs(boundary - theta) > BOUNDARY_TOL:
        raise InvalidBoundary(
            f"alpha(-1) = {boundary!r} disagrees with the prior theta = "
            f"{theta!r}"
        )

    def scaled_den(at, an):
        if theta <= 0.5:
            return theta * theta * (at + (an - 1.0)) + (1.0 - 2.0 * theta) * at * an
        return (1.0 - theta) ** 2 * at * an - theta * theta * (1.0 - at) * (1.0 - an)

    grid = check_grid(n)
    a_pos = evaluate_on(alpha, grid)
    a_neg = evaluate_on(alpha, -grid)
    den = scaled_den(a_pos, a_neg)
    # <=: below theta ~ 1e-154 the band underflows to 0, and a den of
    # exactly 0 (a 0/0 in every H) must still be caught
    if (np.abs(den) <= EQUALITY_TOL * (theta * theta)).any():
        if allow_uniform_limit and np.abs(a_pos - theta).max() <= EQUALITY_TOL:
            return _uniform_solution(Provenance.ODDS_FORMULA, alpha, prior, n)
        where = float(grid[int(np.abs(den).argmin())])
        raise DegenerateAlpha(
            f"odds-equation denominator vanishes near t={where!r}; "
            "no unique solution exists there"
        )

    def h(at, an, den):
        # 1 - alpha(-t) is exact at the endpoints (Sterbenz), which pins
        # H(+1) to exactly 1 in the balanced case.
        return theta * (at - boundary) * (1.0 - an) / den

    def core(t):
        at = evaluate_on(alpha, t)
        an = evaluate_on(alpha, -t)
        return h(at, an, scaled_den(at, an))

    # the evaluator's values on +grid and -grid, bit for bit: at -grid it
    # evaluates alpha at -(-grid), which is grid exactly
    report = _report(grid, h(a_pos, a_neg, den), h(a_neg, a_pos, scaled_den(a_neg, a_pos)),
                     a_pos, prior.odds_lambda)
    return _finish(core, Provenance.ODDS_FORMULA, report)


def closed_form_linear_odds(a: float, prior: Prior, *,
                            allow_uniform_limit: bool = False,
                            grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """The general-odds solution for the linear ability family.

    H(t) = (1 + t) * (a*t - a + 2) * (a/4) / D(t)

    with D(t) = a + (lambda - 1) * (a**2 / 4) * (1 - t**2), evaluated as
    the state-A signal CDF (0 and 1 off [-1, +1]) times a / D(t).  D is
    positive for every a in (0, 1] and lambda > 0 (its minimum over t is
    a * (1 - a/4) when lambda < 1), so the only degeneracy is a = 0,
    where a / D is 0/0; the limit there is the uniform CDF, returned
    only on explicit request.
    """
    _check_prior(prior)
    a = _check_ability(a)
    n = _check_grid_size(grid_size)
    alpha = LinearAbility(prior.theta, a)
    if a == 0.0:
        if allow_uniform_limit:
            return _uniform_solution(Provenance.CLOSED_FORM_LINEAR, alpha, prior, n)
        raise DegenerateAbility(
            "the linear-odds closed form is 0/0 at ability 0; "
            "pass allow_uniform_limit=True for the uniform-CDF limit"
        )
    lam = prior.odds_lambda

    def core(t):
        t = np.minimum(np.maximum(t, -1.0), 1.0)
        out = _cdf_on_support(a, t, 1.0)
        if lam != 1.0:  # at lambda = 1, D is exactly a and the factor exactly 1
            out *= a / (a + (lam - 1.0) * (a * a / 4.0) * (1.0 - t * t))
        return out

    return _finish(core, Provenance.CLOSED_FORM_LINEAR, residual_check(core, alpha, prior, n))


def decomposition_parts(a: float):
    """Odd and even building blocks of the balanced linear solution.

    Splitting H into the difference f(t) = H(t) - H(-t) and the sum
    g(t) = H(t) + H(-t) and eliminating against the balanced equation
    yields f(t) = t for every ability and g(t) = (2 - a + a*t**2) / 2.
    Returns the pair (f, g) as vectorized callables.
    """
    a = _check_ability(a)

    def f(t):
        t = np.asarray(t, dtype=float)
        out = t + 0.0
        return out if out.ndim else float(out)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = (2.0 - a + a * t * t) / 2.0
        return out if out.ndim else float(out)

    return f, g


def alt_decomposition_solver(a: float, *,
                             grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """Balanced linear solution rebuilt from its odd/even decomposition.

    Returns H = (f + g) / 2 with the parts from ``decomposition_parts``.
    The evaluation path shares nothing with ``closed_form_linear``'s
    factored polynomial, so agreement between the two is a genuine
    cross-check rather than a restatement.
    """
    f, g = decomposition_parts(a)

    def core(t):
        return (f(t) + g(t)) / 2.0

    return _finish(core, Provenance.DECOMPOSITION,
                   residual_check(core, LinearAbility(0.5, float(a)), _BALANCED_PRIOR,
                                  _check_grid_size(grid_size)))


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals of a candidate H against the tail-balance relation.

    The arrays share one index: ``residual[i]`` is the absolute defect at
    ``t[i]``, where the target is alpha(t) on [-1, +1) and the boundary
    convention value 1 at t = +1.
    """

    t: np.ndarray
    h: np.ndarray
    alpha: np.ndarray
    residual: np.ndarray
    max_residual: float
    argmax_t: float


def _tail_ratio(h_pos: np.ndarray, h_neg: np.ndarray, lam: float):
    """From H(t) and H(-t): 1 - H(t), 1 - H(t) + lambda*H(-t) and their
    quotient, which is inf or NaN where the denominator is 0, for the
    caller to resolve."""
    num = 1.0 - h_pos
    den = num + lam * h_neg
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return num, den, ratio


def _report(grid: np.ndarray, h_pos: np.ndarray, h_neg: np.ndarray,
            a_vals: np.ndarray, lam: float) -> ResidualReport:
    """The residual report of H on +grid and -grid against alpha on
    +grid: ``residual_check`` and ``solve_odds``'s grid pass, which
    hands in the values it already has."""
    num, den, ratio = _tail_ratio(h_pos, h_neg, lam)
    ratio[(den == 0.0) & (num == 0.0)] = 1.0
    # |ratio - alpha|, and |ratio - 1| at t = +1, written into ratio: on a
    # 20001-point grid each further array is about 40 fresh pages, which
    # glibc hands back to the OS after every call and faults in again
    last = ratio[-1]
    residual = np.subtract(ratio, a_vals, out=ratio)
    residual[-1] = last - 1.0
    np.abs(residual, out=residual)
    i = int(residual.argmax())
    return ResidualReport(
        t=grid,
        h=h_pos,
        alpha=a_vals,
        residual=residual,
        max_residual=float(residual[i]),
        argmax_t=float(grid[i]),
    )


def residual_check(h, alpha: AlphaSpec, prior: Prior,
                   grid_size: int = DEFAULT_GRID) -> ResidualReport:
    """Measure how well ``h`` solves the tail-balance equation for ``alpha``.

    ``h`` may be a SolvedCdf or any callable on [-1, +1].  The ratio
    (1 - H(t)) / (1 - H(t) + lambda * H(-t)) is compared against
    alpha(t) on a uniform grid, except at t = +1 where the defining
    convention reads the ratio as 1; an exact 0/0 is resolved to 1 so
    exact solutions score a zero residual there, while a 0/0 away from
    the boundary surfaces as a large residual rather than an exception.
    """
    n = _check_grid_size(grid_size)
    _check_prior(prior)
    grid = check_grid(n)
    return _report(grid.copy(), evaluate_on(h, grid), evaluate_on(h, -grid),
                   evaluate_on(alpha, grid), prior.odds_lambda)


def posterior_tail(h, t, prior: Prior):
    """Posterior weight of the right tail: (1 - H(t)) / (1 - H(t) + lambda*H(-t)).

    At t = +1 both tails of a valid CDF vanish and the value is 1 by
    convention.  A vanishing denominator anywhere else means the
    candidate H ran out of mass early, which raises Indeterminate
    instead of inventing a number.
    """
    _check_prior(prior)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _, den, ratio = _tail_ratio(evaluate_on(h, t_arr), evaluate_on(h, -t_arr),
                                prior.odds_lambda)
    zero = den == 0.0
    interior = np.flatnonzero(zero & (t_arr < 1.0))
    if interior.size:
        raise Indeterminate(
            f"both tails vanish at interior point t={float(t_arr[interior[0]])!r}; "
            "the posterior ratio is 0/0 there"
        )
    ratio[zero] = 1.0
    if np.asarray(t, dtype=float).ndim == 0:
        return float(ratio[0])
    return ratio


def odds_limit_large_lambda(a: float, odds_lambda: float, t):
    """Leading behaviour of the linear-odds solution as lambda grows.

    For t inside (-1, 1) the solution is asymptotically
    2/(lambda*a*(1 - t)) - 1/lambda, an equivalent, not a CDF; it is kept
    separate from the solvers and exists to validate the large-odds
    regime numerically.  The equivalent holds at t = -1 too, where it
    reads (1/a - 1)/lambda.  At t = +1 the solution is exactly 1 for
    every lambda and the equivalent would divide by zero, so the row
    takes 1 there; off [-1, +1] it continues as 0 and 1, as the closed
    forms do.  Where the equivalent exceeds the largest double (lambda * a
    so small that it underflows, or 1/lambda overflowing), it raises
    DomainError rather than return inf or NaN.
    """
    a = _check_ability(a)
    if a == 0.0:
        raise DomainError(f"ability must lie in (0, 1], got {a!r}")
    lam = _number(odds_lambda, "odds_lambda")
    if not lam > 0.0:
        raise DomainError(f"odds_lambda must be positive, got {odds_lambda!r}")
    t = np.asarray(t, dtype=float)
    top = t >= 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inside = 2.0 / (lam * a * (1.0 - np.where(top, 0.0, t))) - 1.0 / lam
    out = np.where(top, 1.0, np.where(t < -1.0, 0.0, inside))
    unbounded = np.flatnonzero(~np.isfinite(out) & ~np.isnan(t))
    if unbounded.size:
        raise DomainError(
            f"the large-odds equivalent at ability {a!r} and odds_lambda {lam!r} "
            f"is not a finite double at t={float(t.flat[unbounded[0]])!r}"
        )
    return out if out.ndim else float(out)


def odds_limit_small_lambda(a: float, t):
    """Limit of the linear-odds solution as lambda -> 0.

    Setting lambda = 0 in the closed form gives
    (1 + t) * (a*t - a + 2) / (4 - a + a*t**2), a genuine CDF (state A
    is certain, so the solved distribution is conditioned on it): 0 at
    t = -1 and 1 at t = +1, continued off [-1, +1] as the constants 0
    and 1, as the closed forms are.
    """
    a = _check_ability(a)
    if a == 0.0:
        raise DomainError(f"ability must lie in (0, 1], got {a!r}")
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    out = (1.0 + t) * (a * t - a + 2.0) / (4.0 - a + a * t * t)
    return out if out.ndim else float(out)
