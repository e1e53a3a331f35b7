"""Ability-indexed signal family on the interval [-1, +1].

A decision maker with ability ``a`` in [0, 1] observes a signal ``s`` in
[-1, +1] whose distribution tilts toward the true state of nature.  Under
state A the density is ``(1 + a*s) / 2``; under state B it is
``(1 - a*s) / 2``.  Ability 0 gives the uninformative uniform signal, and
ability 1 gives the maximally informative triangular tilt.

The two conditional CDFs are mirror images of each other:

    cdf_given_B(a, t) == 1 - cdf_given_A(a, -t)

All array arguments are broadcast with numpy semantics; scalars in give
scalars out.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

class StateOfNature(enum.Enum):
    """The binary hidden state conditioning every signal distribution."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class Prior:
    """Prior belief that the state is A.

    ``odds_lambda`` is the prior odds of state B against state A,
    ``(1 - theta) / theta``, computed once at construction so every
    consumer sees the identical value.
    """

    theta: float
    odds_lambda: float = field(init=False)

    def __post_init__(self) -> None:
        theta = _number(self.theta, "theta")
        if not 0.0 < theta < 1.0:
            raise DomainError(f"theta must lie strictly in (0, 1), got {self.theta!r}")
        odds_lambda = (1.0 - theta) / theta
        if not np.isfinite(odds_lambda):  # only a subnormal theta, below ~5.6e-309
            raise DomainError(
                f"theta = {self.theta!r} is too small: the prior odds "
                "(1 - theta)/theta overflow"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "odds_lambda", odds_lambda)


def _check_ability(ability: float) -> float:
    """``ability`` as a float; raises DomainError for a non-number or a
    value outside [0, 1] (NaN included)."""
    a = _number(ability, "ability")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"ability must lie in [0, 1], got {ability!r}")
    return a


def _check_prior(prior: Prior) -> Prior:
    if not isinstance(prior, Prior):
        raise DomainError(f"prior must be a Prior, got {prior!r}")
    return prior


def _number(value, name: str) -> float:
    """``value`` as a float; raises DomainError for a non-number.  A
    boolean (Python or numpy) is refused rather than read as 1 or 0, so
    a JSON ``true`` in a CLI ``--config`` is not taken for a value."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    """``value`` as an int; raises DomainError for a non-number, a
    boolean or a number with a fractional part.  An integral float such
    as 1000.0 and a digit string such as '7' pass."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (number != value and not isinstance(value, str)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return number


def _json_object(obj, what: str) -> dict:
    """``obj`` as a JSON object, parsing it first if it is a str; raises
    DomainError, naming ``what``, for text that is not JSON (nesting too
    deep to parse included) and for any value but an object."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_seed(seed) -> int:
    """``seed`` as an int; raises DomainError unless it is an integer in
    [0, 2**64)."""
    value = _integer(seed, "seed")
    if not 0 <= value < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return value


def _check_state(state: StateOfNature) -> StateOfNature:
    if not isinstance(state, StateOfNature):
        raise DomainError(f"state must be a StateOfNature, got {state!r}")
    return state


def _cdf_on_support(a, t, sign, out=None, work=(None, None)):
    """Signal CDF for t in [-1, +1], unchecked:
    (t + 1) * (sign * (a*t - a) + 2) / 4.

    ``sign`` is +1 for state A, (t + 1) * (a*t - a + 2) / 4, and -1 for
    state B, (t + 1) * (a - a*t + 2) / 4: a - a*t is exactly -(a*t - a)
    in IEEE arithmetic, so each state rounds as its formula written out
    does.  ``a`` and ``sign`` broadcast against ``t``, so a column of
    both signs gives both states' rows from one t + 1 and one a*t - a.

    The middle steps write into arrays this call allocated, or into the
    two arrays of ``work`` (for scalar ``a`` and ``sign`` only; the first
    may be ``out``), in the formula's own operand order, so the values
    are the written-out formula's bit for bit while at most two such
    arrays are live; only the last writes ``out``, which for the jury is
    a strided view that every further pass over it would cost.  A 0-d
    ``t`` gives numpy scalars, which the augmented operators rebind
    instead of writing.
    """
    p = np.multiply(a, t, out=work[0])
    p -= a
    p = np.multiply(sign, p, out=work[0])
    p += 2.0
    p *= np.add(t, 1.0, out=work[1])
    return np.divide(p, 4.0, out=out)


def _clamp(t, out=None):
    """Float ``t`` clamped to [-1, +1] in ``out`` (None: a new array of
    t's shape, 0-d for a 0-d t), NaN and -0.0 kept, as under ``np.clip``."""
    if out is None:
        out = np.empty(np.shape(t))
    np.maximum(t, -1.0, out=out)
    return np.minimum(out, 1.0, out=out)


def _quantile_A_on_support(a, u):
    """State-A inverse CDF for u in [0, 1], unchecked."""
    t = (a + 4.0 * u - 2.0) / (1.0 + np.sqrt((1.0 - a) ** 2 + 4.0 * a * u))
    # the u = 0 endpoint lands on -1 exactly (numerator and denominator
    # are exact negations), but u = 1 picks up rounding inside the
    # discriminant; pin it so both support endpoints are hit exactly
    t = np.where(u == 1.0, 1.0, t)
    return _clamp(t, t)


def cdf_given_A(ability: float, t):
    """CDF of the signal under state A, evaluated at ``t``.

    On [-1, +1] this is ``(t + 1) * (a*t - a + 2) / 4``; outside the
    support it continues as the constant 0 or 1.
    """
    a = _check_ability(ability)
    out = _cdf_on_support(a, _clamp(np.asarray(t, dtype=float)), 1.0)
    return out if out.ndim else float(out)


def cdf_given_B(ability: float, t):
    """CDF of the signal under state B: the mirror image of state A."""
    a = _check_ability(ability)
    out = _cdf_on_support(a, _clamp(np.asarray(t, dtype=float)), -1.0)
    return out if out.ndim else float(out)


def pdf_given_state(ability: float, t, state: StateOfNature):
    """Density of the signal at ``t`` under the given state.

    ``(1 + a*t) / 2`` under A, ``(1 - a*t) / 2`` under B, and 0 outside
    the support [-1, +1].
    """
    a = _check_ability(ability)
    _check_state(state)
    t = np.asarray(t, dtype=float)
    sign = 1.0 if state is StateOfNature.A else -1.0
    out = np.where(np.abs(t) <= 1.0, (1.0 + sign * a * t) / 2.0, 0.0)
    return out if out.ndim else float(out)


def quantile_given_state(ability: float, u, state: StateOfNature):
    """Inverse CDF under the given state.

    Rejects probabilities outside [0, 1]; the returned signal is clamped
    to [-1, +1] so floating-point noise can never escape the support.

    The state-A root of the quadratic ``a*t**2 + 2*t + (2 - a - 4*u) = 0``
    is evaluated in the form

        t = (a + 4*u - 2) / (1 + sqrt((1 - a)**2 + 4*a*u))

    which stays exact as ``a -> 0`` (reducing to ``2*u - 1``) and avoids
    the cancellation the textbook root suffers there.  State B follows
    from the mirror identity as ``-quantile_A(a, 1 - u)``.
    """
    a = _check_ability(ability)
    _check_state(state)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0) or np.any(np.isnan(u)):
        raise DomainError("quantile probability u must lie in [0, 1]")
    if state is StateOfNature.B:
        out = -_quantile_A_on_support(a, 1.0 - u)
    else:
        out = _quantile_A_on_support(a, u)
    return out if out.ndim else float(out)


def sample_signal(
    ability: float,
    state: StateOfNature,
    size: int = 1,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``size`` signals by inverse-transform sampling.

    Passing the same ``seed`` always reproduces the same draws.  An
    existing ``numpy.random.Generator`` may be supplied instead to
    continue an established stream.
    """
    a = _check_ability(ability)
    _check_state(state)
    n = _integer(size, "size")
    if n < 0:
        raise DomainError(f"size must be non-negative, got {size!r}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(None if seed is None else _check_seed(seed))
    u = rng.random(n)
    return np.asarray(quantile_given_state(a, u, state), dtype=float)


def posterior_from_signal(ability: float, t, prior: Prior):
    """Posterior probability of state A after observing signal ``t``.

    Bayes' rule with the two densities gives

        theta * (1 + a*t) / (theta * (1 + a*t) + (1 - theta) * (1 - a*t))
    """
    _check_prior(prior)
    a = _check_ability(ability)
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1.0):
        raise DomainError("signal t must lie in [-1, 1]")
    like_a = prior.theta * (1.0 + a * t)
    like_b = (1.0 - prior.theta) * (1.0 - a * t)
    out = like_a / (like_a + like_b)
    return out if out.ndim else float(out)
