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

Every check grid comes from ``check_grid``, built once per size, shared
read-only and exactly antisymmetric, so a pointwise callable's values on
-grid are its values on the grid reversed, read as views.  Each check
therefore evaluates every input once per grid point: alpha in
``solve_odds``, which reads alpha(-1) as the grid's first value, gamma
and delta in ``solve_affine_pair``, H and alpha in the others.
``residual_check`` and every tail-balance solver run the one residual
pass, ``_residual``, on those values, and every solver returns through ``_finish``, so a
solver's ``max_residual`` and ``is_valid_cdf`` equal, bit for bit, what
a fresh check of its evaluator reports; only ``residual_check`` builds
a ``ResidualReport``.  Each evaluator is a bare array-in/array-out core
that receives t clamped to [-1, +1]; ``SolvedCdf`` clamps it and adapts
scalars, lists and 0-d arrays to it, so every solved H reads its
endpoint values H(-1) and H(+1) beyond that range.  On the
default 1001-point grid a call that returns a result costs about 40-55
us in process (median per solver and alpha kind in the benchmark's
solve-sweep; 2-CPU x86, Python 3.11, numpy 2.4), mostly fixed numpy
dispatch.

Each formula writes its intermediates in the operand order of the
formula written as one expression, so every value is that expression's
bit for bit, and never into a caller's array.  Every grid pass but
``solve_affine_pair``'s writes them into the calling thread's scratch
(``_scratch``: three float and two bool rows per grid size, kept between
calls within ``_SCRATCH_BYTES``).  After a thread's first call on a grid
size, a 20001-point tail-balance solver call therefore allocates one
grid-sized array, alpha's values (a tracemalloc peak of about 1.0 such
arrays), and ``residual_check`` its four report arrays (4.0), while
``solve_affine_pair``, which writes one-expression formulas, peaks at
about 7.0.  In the benchmark's solve-sweep op mix a 20001-point call of
``solve_odds``, ``solve_balanced`` or ``closed_form_linear_odds`` faults
in at most 0.04 pages (``resource.getrusage``, same host), against 85
when each call freed its arrays and glibc handed the heap top back to
the OS.  A process that solves once, as every CLI call does, gains
nothing from this, nor do 1001-point grids, whose freed arrays the heap
never trimmed.  Evaluators and ``ResidualReport`` arrays are new arrays
on every call.

Every formula is evaluated in its alpha form.  The equivalent
odds-transform form divides by 1 - alpha(t), which is 0 at t = +1
whenever alpha reaches certainty, so the alpha form needs no special
casing at the right endpoint.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .alpha import (
    BOUNDARY_TOL,
    DEFAULT_GRID,
    EQUALITY_TOL,
    AlphaSpec,
    CoefficientPair,
    LinearAbility,
    Provenance,
    SolvedCdf,
    _check_grid_size,
    _values_ok,
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
from .signals import Prior, _cdf_on_support, _check_ability, _check_prior, _clamp, _number

_BALANCED_PRIOR = Prior(0.5)

#: The most bytes of grid-pass scratch (``_scratch``) a thread keeps
#: between calls, 26 bytes per grid point: 4 MiB holds the scratch of any
#: grid up to 161319 points.
_SCRATCH_BYTES = 4 * 2**20
_scratch_blocks = threading.local()


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch of the calling thread's for one n-point grid pass: a (3, n)
    float block and a (2, n) bool block, with arbitrary contents.

    A thread keeps the scratch of each grid size it uses, unless it alone
    exceeds ``_SCRATCH_BYTES``, dropping the oldest sizes while their
    bytes together do, and hands it to its later n-point passes, so a
    repeated call writes pages already mapped.  A pass takes it only
    after its last call into a caller's function, so a callable that
    itself solves never reaches scratch in use, and no array a caller
    receives is a view of it.
    """
    kept = getattr(_scratch_blocks, "by_size", None)
    if kept is None:
        kept = _scratch_blocks.by_size = {}
    scratch = kept.get(n)
    if scratch is None:
        scratch = np.empty((3, n)), np.empty((2, n), dtype=bool)
        if _nbytes(scratch) <= _SCRATCH_BYTES:
            kept[n] = scratch
            total = sum(map(_nbytes, kept.values()))
            for size in list(kept):  # the oldest first
                if total <= _SCRATCH_BYTES:
                    break
                total -= _nbytes(kept.pop(size))
    return scratch


def _nbytes(scratch) -> int:
    return sum(block.nbytes for block in scratch)


def _uniform_solution(a_vals: np.ndarray, prior: Prior, scratch) -> SolvedCdf:
    """``solve_odds``'s uniform-CDF limit, (t + 1)/2, checked against its
    alpha values on the check grid, in its ``scratch``."""
    def core(t, out=None):
        out = np.add(t, 1.0, out=out)
        out /= 2.0
        return out

    h_pos = core(check_grid(len(a_vals)), scratch[0][0])
    return _checked(core, Provenance.ODDS_FORMULA, h_pos, a_vals, prior, scratch)


def _finish(evaluator, provenance: Provenance, h_on_grid: np.ndarray,
            residual: np.ndarray, diff=None) -> SolvedCdf:
    """The one way a solver returns: its evaluator with the largest
    residual (NaN if any is NaN) and the validity of its values on the
    check grid, which are the evaluator's there bit for bit; ``diff`` is
    ``_values_ok``'s."""
    return SolvedCdf(
        evaluator=evaluator,
        provenance=provenance,
        max_residual=float(np.maximum.reduce(residual)),
        is_valid_cdf=_values_ok(h_on_grid, diff),
    )


def _checked(evaluator, provenance: Provenance, h_pos: np.ndarray, a_vals: np.ndarray,
             prior: Prior, scratch) -> SolvedCdf:
    """``_finish`` for a tail-balance solver, from its H and alpha on the
    check grid, with the residual pass in ``scratch`` (``_scratch``) but
    for its first float row, which ``h_pos`` may be."""
    rows, flags = scratch
    residual = _residual(h_pos, a_vals, prior.odds_lambda, rows[1], rows[2], flags)
    return _finish(evaluator, provenance, h_pos, residual, rows[2, :-1])


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
    d_neg = d_pos[::-1]  # delta on -grid: the grid is antisymmetric
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

    # the evaluator's values on the grid, bit for bit; reversed, they are
    # its values on -grid, where the gap is the same product (gap is
    # symmetric)
    g_pos = evaluate_on(coeffs.gamma, grid)
    h_pos = h(g_pos, g_pos[::-1], d_neg, gap)
    return _finish(core, Provenance.AFFINE_PAIR, h_pos,
                   np.abs(h_pos[::-1] - g_pos - d_pos * h_pos))


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
    1/2, is the balanced formula times powers of two, bit for bit.
    alpha(-1) is alpha's value at the check grid's first point, exactly
    -1; that measured value in num makes H(-1) exactly 0 even where
    alpha(-1) misses theta by a rounding, which keeps the residual at
    t = +1 exact, and an alpha(-1) more than BOUNDARY_TOL off theta is
    refused as InvalidBoundary.  The guard |den| <= EQUALITY_TOL * theta**2 is the unscaled
    test.  A constant alpha = theta makes den vanish identically (the
    zero-ability degeneracy); ``allow_uniform_limit=True`` opts into the
    uniform-CDF limit.
    """
    _check_prior(prior)
    n = _check_grid_size(grid_size)
    theta = prior.theta
    grid = check_grid(n)
    a_pos = evaluate_on(alpha, grid)
    a_neg = a_pos[::-1]  # alpha on -grid: the grid is antisymmetric
    boundary = float(a_pos[0])  # alpha(-1): the grid starts at exactly -1
    if abs(boundary - theta) > BOUNDARY_TOL:
        raise InvalidBoundary(
            f"alpha(-1) = {boundary!r} disagrees with the prior theta = "
            f"{theta!r}"
        )

    def scaled_den(at, an, den, work):
        # each form step by step in den and work (None: new arrays), in
        # its own operand order, so the values are the written-out forms'
        # bit for bit
        if theta <= 0.5:
            # theta**2 * (at + (an - 1)) + (1 - 2*theta) * at * an
            den = np.subtract(an, 1.0, out=den)
            den += at
            den *= theta * theta
            cross = np.multiply(1.0 - 2.0 * theta, at, out=work)
            cross *= an
            den += cross
            return den
        # (1 - theta)**2 * at * an - theta**2 * (1 - at) * (1 - an)
        tails = np.subtract(1.0, at, out=work)
        tails *= theta * theta
        den = np.subtract(1.0, an, out=den)
        tails *= den
        np.multiply((1.0 - theta) ** 2, at, out=den)
        den *= an
        den -= tails
        return den

    scratch = _scratch(n)
    rows = scratch[0]
    den = scaled_den(a_pos, a_neg, rows[0], rows[1])
    # some |den| <= band; fmin skips NaN, and <=: below theta ~ 1e-154 the
    # band underflows to 0, and a den of exactly 0 (a 0/0 in every H) must
    # still be caught
    size = np.abs(den, out=rows[1])
    if np.fmin.reduce(size) <= EQUALITY_TOL * (theta * theta):
        if allow_uniform_limit and np.abs(np.subtract(a_pos, theta, out=rows[2]),
                                          out=rows[2]).max() <= EQUALITY_TOL:
            return _uniform_solution(a_pos, prior, scratch)
        where = float(grid[int(size.argmin())])
        raise DegenerateAlpha(
            f"odds-equation denominator vanishes near t={where!r}; "
            "no unique solution exists there"
        )

    def h(shift, an, den, work):
        # theta * (at - boundary) * (1 - an) / den from shift = at -
        # boundary, with 1 - an in work and the quotient written into den.
        # 1 - alpha(-t) is exact at the endpoints (Sterbenz), which pins
        # H(+1) to exactly 1 in the balanced case.
        shift *= theta
        shift *= np.subtract(1.0, an, out=work)
        return np.divide(shift, den, out=den)

    def core(t):
        at = evaluate_on(alpha, t)
        an = evaluate_on(alpha, -t)
        return h(at - boundary, an, scaled_den(at, an, None, None), None)

    # the evaluator's values on the grid, bit for bit; reversed, they are
    # its values on -grid, as every formula step is elementwise
    h_pos = h(np.subtract(a_pos, boundary, out=rows[1]), a_neg, den, rows[2])
    return _checked(core, Provenance.ODDS_FORMULA, h_pos, a_pos, prior, scratch)


def closed_form_linear_odds(a: float, prior: Prior, *,
                            allow_uniform_limit: bool = False,
                            grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """The general-odds solution for the linear ability family.

    H(t) = (1 + t) * (a*t - a + 2) * (a/4) / D(t)

    with D(t) = a + (lambda - 1) * (a**2 / 4) * (1 - t**2), evaluated as
    the state-A signal CDF times a / D(t).  D is positive for every a in
    (0, 1] and lambda > 0 (its minimum over t is a * (1 - a/4) when
    lambda < 1), so the only degeneracy is a = 0, where a / D is 0/0;
    the limit there is the uniform CDF, the signal CDF at a = 0 with the
    factor skipped, returned only on explicit request.
    """
    _check_prior(prior)
    a = _check_ability(a)
    n = _check_grid_size(grid_size)
    if a == 0.0 and not allow_uniform_limit:
        raise DegenerateAbility(
            "the linear-odds closed form is 0/0 at ability 0; "
            "pass allow_uniform_limit=True for the uniform-CDF limit"
        )
    lam = prior.odds_lambda

    def h(t, out, spare):
        # t in [-1, +1], left unwritten; the CDF in out, with spare for its
        # middle step and then the factor
        _cdf_on_support(a, t, 1.0, out, (out, spare))
        # at lambda = 1, D is exactly a and the factor exactly 1; at a = 0
        # the CDF is already (t + 1)/2, the limit of the 0/0 factor
        if lam != 1.0 and a != 0.0:
            # a / (a + (lam - 1) * (a*a/4) * (1 - t*t)), built in spare
            factor = np.multiply(t, t, out=spare)
            np.subtract(1.0, factor, out=factor)
            factor *= (lam - 1.0) * (a * a / 4.0)
            factor += a
            out *= np.divide(a, factor, out=factor)
        return out

    def core(t):
        return h(t, np.empty_like(t), np.empty_like(t))

    grid = check_grid(n)
    a_vals = evaluate_on(LinearAbility(prior.theta, a), grid)
    scratch = _scratch(n)
    rows = scratch[0]
    return _checked(core, Provenance.CLOSED_FORM_LINEAR, h(grid, rows[0], rows[1]), a_vals,
                    prior, scratch)


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
        out = _even_part(a, np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    return f, g


def _even_part(a: float, t, out=None):
    """The even part g(t) = (2 - a + a*t*t) / 2, step by step in ``out``
    (None: a new array); a sum's operands commute exactly, so the values
    are the written-out formula's bit for bit."""
    g = np.multiply(a, t, out=out)
    g *= t
    g += 2.0 - a
    g /= 2.0
    return g


def alt_decomposition_solver(a: float, *,
                             grid_size: int = DEFAULT_GRID) -> SolvedCdf:
    """Balanced linear solution rebuilt from its odd/even decomposition.

    Returns H = (f + g) / 2 with the parts of ``decomposition_parts``.
    The evaluation path shares nothing with ``closed_form_linear``'s
    factored polynomial, so agreement between the two is a genuine
    cross-check rather than a restatement.
    """
    a = _check_ability(a)
    n = _check_grid_size(grid_size)

    def h(t, out, spare):
        # (f(t) + g(t)) / 2 with f(t) = t + 0.0, in out
        np.add(t, 0.0, out=out)
        out += _even_part(a, t, spare)
        out /= 2.0
        return out

    def core(t):
        return h(t, np.empty_like(t), np.empty_like(t))

    a_vals = evaluate_on(LinearAbility(0.5, a), check_grid(n))
    scratch = _scratch(n)
    rows = scratch[0]
    return _checked(core, Provenance.DECOMPOSITION, h(check_grid(n), rows[0], rows[1]),
                    a_vals, _BALANCED_PRIOR, scratch)


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


def _tail_ratio(h_pos: np.ndarray, h_neg: np.ndarray, lam: float, ratio=None, den=None):
    """From H(t) and H(-t): the quotient (1 - H(t)) / (1 - H(t) +
    lambda*H(-t)) and its denominator, in ``ratio`` and ``den`` (None: new
    arrays).  The quotient is inf or NaN where the denominator is 0, for
    the caller to resolve; there it is NaN exactly where 1 - H(t) is 0,
    since a NaN 1 - H(t) makes the denominator NaN too."""
    ratio = np.subtract(1.0, h_pos, out=ratio)
    den = np.multiply(lam, h_neg, out=den)
    den += ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratio, den, out=ratio)
    return ratio, den


def _residual(h_pos: np.ndarray, a_vals: np.ndarray, lam: float, out: np.ndarray,
              den: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """The one residual pass: |ratio - alpha| of H on the check grid
    against alpha there, and |ratio - 1| at t = +1, with H(-grid) read as
    H(grid) reversed, written into ``out``; ``den`` takes the ratio's
    denominator and ``flags``' two rows its 0/0s.  ``residual_check`` and
    every tail-balance solver run it."""
    ratio, den = _tail_ratio(h_pos, h_pos[::-1], lam, out, den)
    undefined = np.equal(den, 0.0, out=flags[0])
    undefined &= np.isnan(ratio, out=flags[1])
    np.copyto(ratio, 1.0, where=undefined)  # an exact 0/0
    last = ratio[-1]
    residual = np.subtract(ratio, a_vals, out=ratio)
    residual[-1] = last - 1.0
    return np.abs(residual, out=residual)


def residual_check(h, alpha: AlphaSpec, prior: Prior,
                   grid_size: int = DEFAULT_GRID) -> ResidualReport:
    """Measure how well ``h`` solves the tail-balance equation for ``alpha``.

    ``h`` may be a SolvedCdf or any callable on [-1, +1].  The ratio
    (1 - H(t)) / (1 - H(t) + lambda * H(-t)) is compared against
    alpha(t) on the ``check_grid`` points, except at t = +1 where the
    defining convention reads the ratio as 1; an exact 0/0 is resolved to
    1 so exact solutions score a zero residual there, while a 0/0 away
    from the boundary surfaces as a large residual rather than an
    exception.  H(-t) is read as H on the grid reversed, so ``h`` must be
    pointwise, as any function of t is.
    """
    n = _check_grid_size(grid_size)
    _check_prior(prior)
    grid = check_grid(n)
    h_pos = evaluate_on(h, grid)
    a_vals = evaluate_on(alpha, grid)
    rows, flags = _scratch(n)
    residual = _residual(h_pos, a_vals, prior.odds_lambda, np.empty(n), rows[0], flags)
    i = int(residual.argmax())
    return ResidualReport(
        t=grid.copy(),  # the shared grid is read-only
        h=h_pos,
        alpha=a_vals,
        residual=residual,
        max_residual=float(residual[i]),
        argmax_t=float(grid[i]),
    )


def posterior_tail(h, t, prior: Prior):
    """Posterior weight of the right tail: (1 - H(t)) / (1 - H(t) + lambda*H(-t)).

    At t = +1 both tails of a valid CDF vanish and the value is 1 by
    convention.  A vanishing denominator anywhere else means the
    candidate H ran out of mass early, which raises Indeterminate
    instead of inventing a number.
    """
    _check_prior(prior)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ratio, den = _tail_ratio(evaluate_on(h, t_arr), evaluate_on(h, -t_arr),
                             prior.odds_lambda)
    zero = den == 0.0
    interior = np.flatnonzero(zero & (t_arr < 1.0))
    if interior.size:
        raise Indeterminate(
            f"both tails vanish at interior point t={float(t_arr.flat[interior[0]])!r}; "
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
    t = _clamp(np.asarray(t, dtype=float))
    out = (1.0 + t) * (a * t - a + 2.0) / (4.0 - a + a * t * t)
    return out if out.ndim else float(out)
