"""Target functions and result types for the tail-balance solvers.

An "alpha spec" is a strictly increasing function ``alpha(t)`` on
[-1, +1] prescribing the right-tail posterior weight a solved CDF must
reproduce.  Three concrete shapes are supported: the linear
ability-indexed family, a free affine function, and a tabulated
piecewise-linear function.  All three serialize to a small JSON
object (``to_json``), and one reader, ``_alpha_and_prior``, builds a
spec and its prior back from such an object for both the library
(``alpha_from_json``) and the CLI, so an object from an output header
is a valid --config.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .signals import Prior, _check_ability, _clamp, _integer, _json_object, _number

#: Absolute tolerance for pointwise equality of two evaluated functions.
EQUALITY_TOL = 1e-12

#: Acceptable sup-norm residual of a solution against its defining equation.
RESIDUAL_TOL = 1e-10

#: Tolerance for matching a declared prior against alpha(-1).
BOUNDARY_TOL = 1e-9


class AlphaSpec:
    """Base class for tail-balance target functions.

    Subclasses are callable on scalars or numpy arrays and must be
    strictly increasing wherever they are non-degenerate.  The constant
    function induced by zero ability is deliberately constructible so
    the solvers can reject it with a precise error instead of the
    constructor masking the problem.
    """

    def __call__(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class LinearAbility(AlphaSpec):
    """alpha(t) = theta + (t + 1) * (1 - theta) * a / 2.

    The line through (-1, theta) reaching theta + (1 - theta) * a at
    t = +1; ability 1 reaches certainty, ability 0 degenerates to the
    constant theta.
    """

    theta: float
    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", Prior(self.theta).theta)
        object.__setattr__(self, "a", _check_ability(self.a))

    def __call__(self, t):
        # theta + (t + 1) * (1 - theta) * a / 2, step by step in one array
        out = np.asarray(t, dtype=float) + 1.0
        out *= 1.0 - self.theta
        out *= self.a
        out /= 2.0
        out += self.theta
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"kind": "linear", "theta": self.theta, "a": self.a}


@dataclass(frozen=True)
class Affine(AlphaSpec):
    """alpha(t) = intercept + slope * t with slope > 0.

    The implied prior is alpha(-1) = intercept - slope; solvers check it
    against the prior they are given.
    """

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        b = _number(self.intercept, "intercept")
        a = _number(self.slope, "slope")
        if not a > 0.0:
            raise DomainError(f"slope must be positive, got {self.slope!r}")
        if not 0.0 < b - a < 1.0:
            raise DomainError(
                f"alpha(-1) = intercept - slope = {b - a!r} must lie in (0, 1)"
            )
        if b + a > 1.0 + EQUALITY_TOL:
            raise DomainError(
                f"alpha(+1) = intercept + slope = {b + a!r} exceeds 1"
            )
        object.__setattr__(self, "intercept", b)
        object.__setattr__(self, "slope", a)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.intercept + self.slope * t
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {
            "kind": "affine",
            "intercept": self.intercept,
            "slope": self.slope,
            "theta": self.intercept - self.slope,
        }


def _knot_arrays(points, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The t and value columns of (t, value) knots, at least two, with t
    strictly increasing from -1 to +1; ``name`` (alpha or H) names the
    value in the errors."""
    try:
        pts = [(float(t), float(v)) for t, v in points]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"points must be (t, {name}) pairs: {exc}") from exc
    if len(pts) < 2:
        raise DomainError(f"a tabulated {name} needs at least two knots")
    ts, vs = np.array(pts).T.copy()
    if abs(ts[0] + 1.0) > EQUALITY_TOL or abs(ts[-1] - 1.0) > EQUALITY_TOL:
        raise DomainError(f"tabulated {name} knots must start at t=-1 and end at t=+1")
    if not (ts[1:] - ts[:-1] > 0.0).all():
        raise DomainError(f"tabulated {name} knot t values must be strictly increasing")
    return ts, vs


@dataclass(frozen=True)
class Tabulated(AlphaSpec):
    """Piecewise-linear alpha through strictly increasing knots.

    Knots span t = -1 to +1 (``_knot_arrays``), so the function covers
    the whole support without extrapolation; values lie in (0, 1].
    """

    points: tuple[tuple[float, float], ...]
    _knots: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ts, vs = _knot_arrays(self.points, "alpha")
        if not (vs[1:] - vs[:-1] > 0.0).all():
            raise DomainError("knot values must be strictly increasing")
        if vs[0] <= 0.0 or vs[0] >= 1.0 or vs[-1] > 1.0 + EQUALITY_TOL:
            raise DomainError("knot values must lie in (0, 1]")
        object.__setattr__(self, "points", tuple(zip(ts.tolist(), vs.tolist())))
        object.__setattr__(self, "_knots", (ts, vs))

    def __call__(self, t):
        out = np.interp(np.asarray(t, dtype=float), *self._knots)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"kind": "table", "points": [[t, v] for t, v in self.points]}


def _missing_field(obj: dict, name: str):
    """``obj[name]``, refusing an absent or null field."""
    value = obj.get(name)
    if value is None:
        raise DomainError(f"alpha spec is missing the {name!r} field")
    return value


def _alpha_and_prior(obj: dict, require: Callable) -> tuple[AlphaSpec, Prior]:
    """The one reading of an alpha spec's JSON object: the spec and its prior.

    ``kind`` defaults to linear and a linear ``theta`` to 1/2; a null
    field counts as missing; ``require(obj, name)`` returns a field that
    has no default or refuses it (``_missing_field`` for the library, the
    CLI's missing-parameter line for the CLI).  The prior is ``theta``
    when given, else alpha(-1).  A declared ``theta`` off alpha(-1) is
    left to the solvers, which refuse it as ``InvalidBoundary``.
    """
    kind = obj.get("kind")
    theta = obj.get("theta")
    if kind is None or kind == "linear":
        spec = LinearAbility(0.5 if theta is None else theta, require(obj, "a"))
    elif kind == "affine":
        spec = Affine(require(obj, "intercept"), require(obj, "slope"))
    elif kind == "table":
        spec = Tabulated(require(obj, "points"))
    else:
        raise DomainError(f"unknown alpha kind: {kind!r}")
    return spec, Prior(spec(-1.0) if theta is None else theta)


def alpha_from_json(obj: dict | str) -> AlphaSpec:
    """Build an AlphaSpec from its JSON object (or a JSON string), by
    ``_alpha_and_prior``'s rules; a non-number ``theta`` is refused."""
    return _alpha_and_prior(_json_object(obj, "alpha spec"), _missing_field)[0]


def _check_grid_size(grid_size: int) -> int:
    """The one rule for a check-grid size: an odd integer >= 3, so the
    grid holds -1, 0 and +1."""
    n = _integer(grid_size, "grid_size")
    if n < 3 or n % 2 == 0:
        raise DomainError(f"grid_size must be an odd integer >= 3, got {grid_size!r}")
    return n


#: The default check-grid size.
DEFAULT_GRID = 1001


@functools.lru_cache(maxsize=8)
def check_grid(n: int) -> np.ndarray:
    """The n-point grid over [-1, +1], n >= 2: t_k = (2k - (n - 1)) / (n - 1).

    Each point is one correctly rounded quotient of integers, and t_k and
    t_(n-1-k) have opposite numerators, so ``grid[::-1] == -grid`` exactly
    at every n, even or odd, and -1 and +1 are exact.  A pointwise
    callable's values on -grid are thus its values on the grid reversed,
    which the solvers read instead of evaluating twice (``np.linspace``
    misses this at 436 of 1001 points).  Only an odd n puts 0 on the grid
    (at k = (n - 1)/2), so a check grid's size is odd
    (``_check_grid_size``); the CLI's ``solve`` and ``posterior`` write
    these points for any --grid >= 2.

    Built once per size and shared by every call, so it is read-only:
    whatever hands it to a caller copies it first.
    """
    grid = np.arange(-(n - 1), n, 2, dtype=float) / (n - 1)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class CoefficientPair:
    """Coefficients of the affine relation H(-t) = gamma(t) + delta(t) * H(t).

    Both callables must accept numpy arrays (scalar-only callables are
    tolerated at a speed cost).  Solvability requires
    delta(t) * delta(-t) != 1 across the evaluation grid.
    """

    gamma: Callable
    delta: Callable

    def singularity_gap(self, grid_size: int = DEFAULT_GRID) -> tuple[float, float]:
        """Smallest |1 - delta(t)*delta(-t)| on the grid and its location;
        delta(-t) is delta on the antisymmetric grid, reversed."""
        t = check_grid(_check_grid_size(grid_size))
        d = evaluate_on(self.delta, t)
        gap = np.abs(1.0 - d * d[::-1])
        i = int(gap.argmin())
        return float(gap[i]), float(t[i])

    def is_solvable(self, grid_size: int = DEFAULT_GRID) -> bool:
        gap, _ = self.singularity_gap(grid_size)
        return gap >= EQUALITY_TOL


class Provenance(enum.Enum):
    """Which solver produced a SolvedCdf."""

    CLOSED_FORM_LINEAR = "closed-form-linear"
    BALANCED_FORMULA = "balanced-formula"
    ODDS_FORMULA = "odds-formula"
    AFFINE_PAIR = "affine-pair"
    DECOMPOSITION = "decomposition"
    GRID_NUMERIC = "grid-numeric"


@dataclass(frozen=True)
class SolvedCdf:
    """An evaluable candidate CDF on [-1, +1] with verification metadata.

    ``max_residual`` is the measured sup-norm residual of the producing
    solver's defining equation on its check grid (NaN for grid-ingested
    tables, which carry no defining equation until verified).
    ``is_valid_cdf`` is computed, never asserted, from the solver's values
    on the check grid, which equal the evaluator's there bit for bit: it
    records whether they are nondecreasing and pinned to 0 and 1 at the
    endpoints.

    ``evaluator`` takes a read-only float array of at least one
    dimension (1-d for a scalar or a list of points) with every value in
    [-1, +1] (NaN aside), and returns a float array of the same shape.
    Calling the SolvedCdf adapts any input to it: t is clamped to
    [-1, +1] in a new array, so every solved H reads its endpoint values
    H(-1) and H(+1) beyond that range, and a scalar or 0-d array gives a
    float, anything else an array.  As the array is read-only, a
    callable inside the evaluator that writes into its argument takes
    ``evaluate_on``'s scalar loop.
    """

    evaluator: Callable
    provenance: Provenance
    max_residual: float
    is_valid_cdf: bool

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        clamped = _clamp(np.atleast_1d(t))
        clamped.flags.writeable = False
        out = self.evaluator(clamped)
        return float(out[0]) if t.ndim == 0 else out

    @staticmethod
    def from_table(points: Sequence[tuple[float, float]]) -> "SolvedCdf":
        """Wrap tabulated (t, H) knots (``_knot_arrays``; the H values
        need only be finite) as a piecewise-linear evaluator."""
        ts, hs = _knot_arrays(points, "H")
        if not np.isfinite(hs).all():
            raise DomainError("tabulated H values must be finite")
        evaluator = functools.partial(np.interp, xp=ts, fp=hs)
        return SolvedCdf(
            evaluator=evaluator,
            provenance=Provenance.GRID_NUMERIC,
            max_residual=float("nan"),
            is_valid_cdf=cdf_axioms_hold(evaluator),
        )


def evaluate_on(fn: Callable, grid: np.ndarray) -> np.ndarray:
    """Evaluate a callable on a grid, falling back to a scalar loop.

    A callable that writes into a read-only grid (``check_grid``) raises
    ValueError and so takes the scalar loop, which visits every element
    whatever the grid's shape; a read-only result, such as the grid
    itself handed back, is copied.
    """
    try:
        out = np.asarray(fn(grid), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != grid.shape:
        out = np.array([float(fn(float(x))) for x in grid.ravel()]).reshape(grid.shape)
    elif not out.flags.writeable:
        out = out.copy()
    return out


def cdf_axioms_hold(evaluator: Callable, grid_size: int = DEFAULT_GRID) -> bool:
    """Check monotonicity and endpoint pinning of an evaluator on a grid."""
    return cdf_values_ok(evaluate_on(evaluator, check_grid(_check_grid_size(grid_size))))


def cdf_values_ok(h: np.ndarray) -> bool:
    """``cdf_axioms_hold`` for values already evaluated on a grid over
    [-1, +1], a 1-D array of at least two values; any other shape raises
    DomainError."""
    h = np.asarray(h)
    if h.ndim != 1 or len(h) < 2:
        raise DomainError(f"CDF values must be a 1-D array of at least two values, "
                          f"got shape {h.shape}")
    # two equal infinities side by side difference to NaN, which fails quietly
    with np.errstate(invalid="ignore"):
        return _values_ok(h)


def _values_ok(h: np.ndarray, diff=None) -> bool:
    """``cdf_values_ok`` of an array, writing its successive differences
    into ``diff`` (len(h) - 1 floats; a new array when None).  A NaN or an
    infinity fails without a pass of its own: at an endpoint the endpoint
    test refuses it, and inside it makes a difference next to it NaN or
    -inf, and so their minimum."""
    if not (abs(h[0]) <= EQUALITY_TOL and abs(h[-1] - 1.0) <= EQUALITY_TOL):
        return False
    return bool(np.minimum.reduce(np.subtract(h[1:], h[:-1], out=diff)) >= -EQUALITY_TOL)
