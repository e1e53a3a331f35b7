"""Sequential majority voting over the ability-indexed signal family.

Jurors vote in a fixed order.  Each sees every earlier vote and every
ability, forms the Bayesian posterior that the state is A, observes a
private signal, and votes for whichever state the combined evidence
favours.  Because the signal likelihood ratio is monotone, the optimal
vote is a threshold rule: vote A exactly when the signal reaches a
cutoff determined by the pre-signal posterior.

The module computes the majority verdict's correctness probability two
ways, by exact enumeration over vote histories and by Monte Carlo,
plus the classical binary-juror majority baseline for comparison.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .alpha import EQUALITY_TOL
from .errors import DomainError, EvenJury, SizeLimit
from .signals import (
    Prior,
    _cdf_on_support,
    _check_ability,
    _check_prior,
    _check_seed,
    _integer,
    _number,
)

#: Largest jury the exact enumeration will attempt.
EXACT_SIZE_LIMIT = 25

#: Largest jury order_scan will permute (factorial growth).
ORDER_SCAN_LIMIT = 7

class TieBreak(enum.Enum):
    """What a juror does when the posterior is exactly 1/2 and the signal
    carries no information (zero ability)."""

    FOLLOW_SIGNAL_SIGN = "follow_signal"
    VOTE_A = "vote_a"
    VOTE_B = "vote_b"


class Method(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class JuryConfig:
    """A jury: voting order, prior, tie rule, and simulation budget."""

    abilities: tuple[float, ...]
    prior: Prior
    tie_break: TieBreak = TieBreak.FOLLOW_SIGNAL_SIGN
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        abilities = tuple(_check_ability(a) for a in self.abilities)
        if not abilities:
            raise DomainError("abilities must be non-empty")
        _check_prior(self.prior)
        if not isinstance(self.tie_break, TieBreak):
            raise DomainError(f"tie_break must be a TieBreak, got {self.tie_break!r}")
        trials = _integer(self.trials, "trials")
        if not 1 <= trials < 2**63:  # numpy draws counts as int64
            raise DomainError(f"trials must lie in [1, 2**63), got {self.trials!r}")
        seed = _check_seed(self.seed)
        object.__setattr__(self, "abilities", abilities)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_json(cls, obj: dict | str) -> "JuryConfig":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise DomainError(f"jury config must be a JSON object, got {type(obj).__name__}")
        # a null field is absent, so its default applies
        obj = {key: value for key, value in obj.items() if value is not None}
        if "abilities" not in obj:
            raise DomainError("jury config is missing the 'abilities' field")
        if not isinstance(obj["abilities"], (list, tuple)):
            raise DomainError(f"abilities must be a list of numbers, got {obj['abilities']!r}")
        try:
            tie_break = TieBreak(obj.get("tie_break", "follow_signal"))
        except ValueError:
            raise DomainError(
                f"tie_break must be one of {[t.value for t in TieBreak]}, "
                f"got {obj.get('tie_break')!r}"
            ) from None
        return cls(
            abilities=tuple(obj["abilities"]),
            prior=Prior(obj.get("theta", 0.5)),
            tie_break=tie_break,
            trials=obj.get("trials", 100_000),
            seed=obj.get("seed", 0),
        )

    def to_json(self) -> dict:
        return {
            "abilities": list(self.abilities),
            "theta": self.prior.theta,
            "tie_break": self.tie_break.value,
            "trials": self.trials,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class VerdictStats:
    """Correct-verdict probability with its estimation pedigree."""

    p_correct: float
    method: Method
    stderr: float
    trials_used: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_correct <= 1.0:
            raise DomainError(f"p_correct must lie in [0, 1], got {self.p_correct!r}")
        if self.stderr < 0.0:
            raise DomainError(f"stderr must be >= 0, got {self.stderr!r}")


@dataclass(frozen=True)
class CondorcetModel:
    """The classical binary model: n independent jurors, each correct
    with the same probability p > 1/2."""

    p: float
    n: int

    def __post_init__(self) -> None:
        p = _number(self.p, "p")
        n = _integer(self.n, "n")
        if not 0.5 < p <= 1.0:
            raise DomainError(f"p must lie in (1/2, 1], got {self.p!r}")
        if n < 1 or n % 2 == 0:
            raise DomainError(f"n must be an odd positive integer, got {self.n!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)


def _posterior_given_history(theta: float, ll_a, ll_b):
    """Posterior P(state A | history) from accumulated log-likelihoods,
    elementwise over arrays of histories: ``_level_walk``'s posterior
    at each level."""
    m = np.maximum(ll_a, ll_b)
    if m.size and m.min() == -np.inf:
        raise DomainError("history has probability zero under both states")
    w_a = theta * np.exp(ll_a - m)
    w_b = (1.0 - theta) * np.exp(ll_b - m)
    return w_a / (w_a + w_b)


#: P(vote A) of a zero-ability juror at the q = 1/2 knife edge.
_TIE_VOTE_A = {TieBreak.FOLLOW_SIGNAL_SIGN: 0.5, TieBreak.VOTE_A: 1.0, TieBreak.VOTE_B: 0.0}

#: ``_cdf_on_support``'s sign for state A and for state B, as a column
#: that spreads along the histories.
_STATE_SIGN = np.array([[1.0], [-1.0]])

#: Smallest divisor of the cutoff.  q lies in [0, 1], so a nonzero
#: 1 - 2q is at least 2**-54 in magnitude and its quotient by any ability
#: up to 2**-60 clamps to +/-1: dividing by max(a, 2**-60) leaves every
#: cutoff as it is and cannot overflow at a subnormal ability.
_LEAST_DIVISOR = 2.0**-60


def _cutoff(a, q):
    """Signal cutoff s* = clip((1 - 2q)/a, -1, 1), elementwise; 0 where
    a = 0.  ``a`` is one float for every q, or an array."""
    x = 1.0 - 2.0 * q
    if isinstance(a, float):
        s = x / max(a, _LEAST_DIVISOR) if a > 0.0 else np.zeros_like(x)
    else:
        s = np.divide(x, np.maximum(a, _LEAST_DIVISOR),
                      out=np.zeros(np.broadcast(a, q).shape), where=a > 0.0)
    return np.minimum(np.maximum(s, -1.0), 1.0)


def _juror_step(a, q, tie_break: TieBreak, out=None):
    """Cutoff, P(vote A | state A) and P(vote A | state B), elementwise.

    ``q`` is the array of the juror's pre-signal posteriors that the
    state is A, one per history.  For a > 0 the juror votes A exactly
    when the signal reaches the cutoff s* = clip((1 - 2q)/a, -1, 1); at
    zero ability the signal is useless and the vote follows the
    posterior alone, with ``tie_break`` deciding the q = 1/2 knife edge
    (P(vote A) is then 0, 1/2 or 1 in both states).  This is the one
    statement of the decision rule; ``_level_walk`` calls it for the
    exact walk, ``order_scan`` and Monte Carlo.  ``a`` is one float for
    every q (one voting order), or an array; the two probabilities are
    the rows of ``out``, a (2,) + q's shape buffer, allocated when None.
    The zero-ability override runs only when some ability is 0, so the
    common all-informed call costs the cutoff and the two CDF rows.
    """
    one = isinstance(a, float)
    if not one:
        a = np.asarray(a, dtype=float)
    s = _cutoff(a, q)
    p = _cdf_on_support(a, s, _STATE_SIGN, out)
    np.subtract(1.0, p, out=p)
    blind = a == 0.0
    if blind if one else blind.any():
        vote = np.where(q == 0.5, _TIE_VOTE_A[tie_break], q > 0.5)
        np.copyto(p, vote, where=blind)
    return s, p[0], p[1]


def _require_odd(config: JuryConfig) -> int:
    n = len(config.abilities)
    if n % 2 == 0:
        raise EvenJury(f"majority verdicts need an odd jury, got n={n}")
    return n


def _level_walk(abilities: np.ndarray, theta: float, tie_break: TieBreak,
                w: np.ndarray, split) -> tuple[np.ndarray, np.ndarray]:
    """Weight that reaches an A majority, in state A and in state B, for
    each row of an (orders, n) array of voting orders.

    The one walk over the vote-history tree, one juror per level.  Per
    undecided history the frontier holds its order, its votes for A and,
    as (2, histories) arrays with state A first, its log-likelihoods
    ``ll`` and weights ``w``, which starts as the roots' weights.  Given
    the history and the state, a vote is a Bernoulli draw with P(vote A)
    from ``_juror_step``.  ``c[s]`` holds P(vote A) then P(vote B) in
    state s, and ``split(w, c)`` returns the children's weights in that
    (2, 2m) layout: by the draw's mean for the exact walk
    (``_mean_split``), by a binomial draw of counts for Monte Carlo
    (``_simulate``).  A children that reach a majority are banked
    per order with ``np.bincount``; they, B children that reach a
    majority and children of zero weight leave the frontier, and the walk
    stops at the first empty one, as an empty level banks nothing and
    draws nothing.  Compaction is stable, so an order's results agree bit
    for bit alone or in a batch.

    A level makes about 45 array calls whatever its width, so a narrow
    tree costs mostly that: with every ability 0.9, or every ability
    0.5, an n = 13 exact call takes about 1.5 ms, of which the first
    level and the call's set-up take about 0.12 ms (interleaved medians
    on a shared 2-CPU x86 host under load, numpy 2.4.6).
    """
    orders, n = abilities.shape
    need = n // 2 + 1
    won_a = np.zeros(orders)
    won_b = np.zeros(orders)
    row = np.arange(orders)
    votes = np.zeros(orders, dtype=np.int64)
    ll = np.zeros((2, orders))
    # one order: each juror's ability is one float for every history
    column = abilities[0].tolist() if orders == 1 else None
    for i in range(n):
        m = len(row)
        if not m:  # every history decided or weightless: the rest is empty
            break
        q = _posterior_given_history(theta, ll[0], ll[1])
        a = column[i] if orders == 1 else abilities[row, i]
        c = np.empty((2, 2 * m))
        _juror_step(a, q, tie_break, out=c[:, :m])
        np.subtract(1.0, c[:, :m], out=c[:, m:])
        child = split(w, c)
        votes = np.concatenate((votes + 1, votes))
        if i + 1 >= need:  # no earlier juror can complete a majority
            done = (votes[:m] == need).nonzero()[0]
            if len(done):
                rows = row[done]
                won_a += np.bincount(rows, child[0][done], orders)
                won_b += np.bincount(rows, child[1][done], orders)
        # undecided children that hold weight in some state
        keep = (np.logical_or(child[0], child[1]) & (votes < need)
                & (votes > i + 1 - need)).nonzero()[0]
        parent = keep % m
        w = child.take(keep, axis=1)
        c = c.take(keep, axis=1)
        with np.errstate(divide="ignore"):
            np.log(c, out=c)
        ll = np.add(c, ll.take(parent, axis=1), out=c)
        votes = votes[keep]
        row = row[parent]
        del child, keep, parent  # freed before the next level allocates its own
    return won_a, won_b


def _mean_split(w, c):
    """The exact walk's split: each weight times P(vote)."""
    return (c.reshape(2, 2, -1) * w[:, None]).reshape(2, -1)


def _exact_majority_a(config: JuryConfig) -> tuple[float, float]:
    """P(majority votes A | state A) and P(majority votes A | state B)."""
    won_a, won_b = _level_walk(np.array([config.abilities]), config.prior.theta,
                               config.tie_break, np.ones((2, 1)), _mean_split)
    return float(won_a[0]), float(won_b[0])


def _verdict_accuracy(abilities: np.ndarray, prior: Prior,
                      tie_break: TieBreak) -> np.ndarray:
    """Exact P(majority verdict is correct) for each row of ``abilities``."""
    won_a, won_b = _level_walk(abilities, prior.theta, tie_break,
                               np.ones((2, len(abilities))), _mean_split)
    p = prior.theta * won_a + (1.0 - prior.theta) * (1.0 - won_b)
    return np.clip(p, 0.0, 1.0)


def exact_verdict_probability(config: JuryConfig) -> VerdictStats:
    """Exact probability that the majority verdict matches the state.

    Averages the two conditional majority probabilities with prior
    weights theta and 1 - theta, from ``_level_walk`` with unit root
    weights split by each vote's probability.  Each level costs about 45
    array calls plus work in proportion to its histories, and peak
    memory follows the widest level: with every ability 0.5 at n = 25
    the walk visits 20.8M histories (the widest level 2.7M) in about
    2.5 s at 0.53-0.59 GiB peak RSS, and a near-flat n = 13 jury (6.9k
    histories) takes about 1.5 ms (shared 2-CPU x86 host under load,
    numpy 2.4.6).  n stays capped at ``EXACT_SIZE_LIMIT``.
    """
    n = _require_odd(config)
    if n > EXACT_SIZE_LIMIT:
        raise SizeLimit(
            f"exact enumeration is capped at n={EXACT_SIZE_LIMIT}, got n={n}"
        )
    p = _verdict_accuracy(np.array([config.abilities]), config.prior, config.tie_break)
    return VerdictStats(p_correct=float(p[0]), method=Method.EXACT,
                        stderr=0.0, trials_used=0)


def _simulate(config: JuryConfig, n_a: int, n_b: int,
              rng: np.random.Generator) -> tuple[int, int]:
    """Walk ``n_a`` trials in state A and ``n_b`` in state B; return the
    correct verdicts among each.

    ``_level_walk`` with counts of trials as the weights: the trials at
    a history vote independently, so a binomial draw from ``rng`` splits
    each count between the children.  Every trial ends in a majority, so
    the state-A hits are the trials that reach an A majority and the
    state-B hits are the rest.  Nothing is done per trial, and the cost
    is the binomial draws per occupied history, which grow far slower
    than the trials: the ``mc-sim`` juries (seed 7) occupy at most 2
    histories per level at n = 3, and at n = 101 at most 3.6k with 32,768
    trials and 42k with 2**20 (97k for abilities 0.00 to 1.00, 123 MiB
    peak RSS).  A kept history holds at least one trial, so the frontier
    never exceeds ``n_a + n_b``.
    """
    live = slice(0 if n_a else 1, 2 if n_b else 1)

    def split(w, c):
        # an empty state is not drawn (rng.binomial(0, p) takes nothing
        # from the stream, only time); a strided p costs binomial ~15 us
        up = np.zeros_like(w)
        up[live] = rng.binomial(w[live], np.ascontiguousarray(c[live, :w.shape[1]]))
        return np.concatenate((up, w - up), axis=1)

    won_a, won_b = _level_walk(np.array([config.abilities]), config.prior.theta,
                               config.tie_break, np.array([[n_a], [n_b]]), split)
    return int(won_a[0]), n_b - int(won_b[0])


#: Most trials one Monte Carlo walk carries, the bound on its frontier.
_WALK_TRIALS = 2**20


def _walk_shares(n_a: int, n_b: int) -> list[tuple[int, int]]:
    """(state-A, state-B) trials of each walk: both counts split evenly
    over the fewest walks of at most ``_WALK_TRIALS`` trials.  A's
    remainder goes to the first walks and B's to the last, so a walk
    takes two extra trials only when every walk takes one, and none
    exceeds ``_WALK_TRIALS``."""
    walks = -(-(n_a + n_b) // _WALK_TRIALS)
    q_a, r_a = divmod(n_a, walks)
    q_b, r_b = divmod(n_b, walks)
    return [(q_a + (k < r_a), q_b + (k >= walks - r_b)) for k in range(walks)]


# Only bench/ still uses this, to size the trace's signal arrays and, through
# _chunk_sizes, the mc-sim calibration pool; Monte Carlo no longer chunks.
_CHUNK_TRIALS = 16384


# Only bench/ still calls this, to size the mc-sim calibration pool and
# its jury.mc_workers metric; Monte Carlo runs no pool.
def _worker_cap(n_chunks: int) -> int:
    """Worker count a thread pool over ``n_chunks`` chunks would use:
    TAILBALANCE_THREADS, else min(8, CPUs)."""
    env = os.environ.get("TAILBALANCE_THREADS", "").strip()
    if env:
        try:
            cap = max(1, int(env))
        except ValueError:
            raise DomainError(
                f"TAILBALANCE_THREADS must be an integer, got {env!r}"
            ) from None
    else:
        cap = min(8, os.cpu_count() or 1)
    return max(1, min(cap, n_chunks))


# Only bench/ still calls this, with _worker_cap, for the mc-sim pool size.
def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, _CHUNK_TRIALS)
    return [_CHUNK_TRIALS] * full + ([rest] if rest else [])


def monte_carlo_verdict(config: JuryConfig, *, conditional: bool = False) -> VerdictStats:
    """Monte Carlo estimate of the correct-verdict probability.

    One generator, ``np.random.default_rng(config.seed)``, drives the
    call.  A plain call draws its state-A count from Binomial(trials,
    theta); ``conditional=True`` stratifies, fixing the state-A count at
    the prior's share (at least 1 and at most trials - 1) and averaging
    each stratum with its prior weight, which removes the variance of the
    state draw.  A plain run is the single stratum of weight 1, so both
    modes share one estimator: p = sum of w * p_s and
    var = sum of w**2 * p_s * (1 - p_s) / n_s over the strata.

    Both modes then walk the exact walk's vote tree once (``_simulate``)
    with the two counts as root weights, split by binomial draws in place
    of probabilities split by their mean; the walk returns the hits in
    each state.  A walk's cost follows its occupied histories, which grow
    far slower than its trials, so only a call above ``_WALK_TRIALS``
    trials is split, into even shares walked in turn with the same
    generator; that bounds a walk's memory.  In process on a shared
    2-CPU x86 host under load (numpy 2.4.6, median of 5 per call) the
    ``mc-sim`` calls (seed 7) take 0.4-0.5 ms at n = 3 (850,000 trials),
    1.0 ms at n = 7 (400,000), 3.1-5.1 ms at n = 25 (120,000) and
    13-35 ms at n = 101 (32,768).
    """
    _require_odd(config)
    theta = config.prior.theta
    trials = config.trials
    rng = np.random.default_rng(config.seed)
    if conditional:
        if trials < 2:
            raise DomainError("conditional mode needs at least 2 trials")
        n_a = int(round(theta * trials))
        n_a = min(max(n_a, 1), trials - 1)
    else:
        n_a = int(rng.binomial(trials, theta))
    n_b = trials - n_a
    hits_a = hits_b = 0
    for share_a, share_b in _walk_shares(n_a, n_b):
        h_a, h_b = _simulate(config, share_a, share_b, rng)
        hits_a += h_a
        hits_b += h_b

    if conditional:
        strata = [(theta, hits_a, n_a), (1.0 - theta, hits_b, n_b)]
    else:
        strata = [(1.0, hits_a + hits_b, trials)]
    p_hat = var = 0.0
    for w, hits, n_s in strata:
        p_s = hits / n_s
        p_hat += w * p_s
        var += w**2 * p_s * (1.0 - p_s) / n_s
    stderr = math.sqrt(var)
    return VerdictStats(p_correct=p_hat, method=Method.MONTE_CARLO,
                        stderr=stderr, trials_used=trials)


@dataclass(frozen=True)
class OrderingRow:
    """One permutation's exact verdict probability; equal-within-tolerance
    probabilities share a rank."""

    ordering: tuple[float, ...]
    p_correct: float
    rank: int


def order_scan(abilities, prior: Prior,
               tie_break: TieBreak = TieBreak.FOLLOW_SIGNAL_SIGN) -> list[OrderingRow]:
    """Exact verdict probability of every voting order, best first.

    All n! orderings are evaluated (duplicates included when abilities
    repeat, so permutation symmetry is visible as a block of ties).
    They share one exact walk (``_level_walk``) as the rows of an (n!, n)
    ability array, so the array-call overhead is paid n times rather
    than n * n! times.  Each row equals ``exact_verdict_probability`` of
    its ordering bit for bit.  The n = 7 scan takes about 47 ms (shared
    2-CPU x86 host under load, numpy 2.4.6).
    """
    # validates the abilities, prior and tie rule as a single walk would
    config = JuryConfig(abilities=abilities, prior=prior, tie_break=tie_break)
    n = len(config.abilities)
    if n > ORDER_SCAN_LIMIT:
        raise SizeLimit(
            f"order_scan is capped at n={ORDER_SCAN_LIMIT} (factorial growth), got n={n}"
        )
    _require_odd(config)
    if n < 3:
        raise DomainError(f"order_scan needs at least 3 jurors, got n={n}")
    perms = list(permutations(config.abilities))
    p = _verdict_accuracy(np.array(perms), prior, tie_break)
    scored = list(zip(perms, p.tolist()))
    scored.sort(key=lambda row: (-row[1], row[0]))
    rows: list[OrderingRow] = []
    rank = 0
    leader = None
    for perm, p in scored:
        if leader is None or leader - p > EQUALITY_TOL:
            rank += 1
            leader = p
        rows.append(OrderingRow(ordering=perm, p_correct=p, rank=rank))
    return rows


def condorcet_exact(model: CondorcetModel) -> float:
    """P(majority correct) for n binary jurors each correct w.p. p.

    The binomial upper tail P(X > n/2); evaluated by the regularized
    incomplete beta function, which neither overflows nor loses the tail
    for n up to 10**4.  ``scipy.stats`` is imported on the first call of
    a ``condorcet_*`` function; ``import tailbalance`` does not load it.
    """
    from scipy.stats import binom

    return float(binom.sf(model.n // 2, model.n, model.p))


def condorcet_error(model: CondorcetModel) -> float:
    """P(majority wrong), the complementary binomial tail.

    Useful when the success probability saturates to 1.0 in double
    precision (large n, strong p): the error tail stays representable
    far beyond that point, so monotonicity can still be observed.
    Imports ``scipy.stats`` on first use, as ``condorcet_exact`` does.
    """
    from scipy.stats import binom

    return float(binom.cdf(model.n // 2, model.n, model.p))


def condorcet_curve(p: float, n_max: int) -> list[tuple[int, float]]:
    """(n, majority accuracy) for every odd n up to n_max, which must
    make a valid ``CondorcetModel`` with p.  Imports ``scipy.stats`` on
    first use, as ``condorcet_exact`` does."""
    from scipy.stats import binom

    largest = CondorcetModel(p, n_max)
    ns = np.arange(1, largest.n + 1, 2)
    vals = binom.sf(ns // 2, ns, largest.p)
    return list(zip(ns.tolist(), np.asarray(vals, dtype=float).tolist()))
