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
from scipy.stats import binom

from .alpha import EQUALITY_TOL
from .errors import DomainError, EvenJury, SizeLimit, ZeroAbility
from .signals import (
    Prior,
    StateOfNature,
    _cdf_A_on_support,
    _cdf_B_on_support,
    _check_ability,
    _check_prior,
    _check_seed,
    _integer,
)

#: Largest jury the exact enumeration will attempt.
EXACT_SIZE_LIMIT = 25

#: Largest jury order_scan will permute (factorial growth).
ORDER_SCAN_LIMIT = 7

#: Largest jury for which a full ThresholdTable is materialized.
TABLE_SIZE_LIMIT = 15

_CHUNK_TRIALS = 16384


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
        if trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials!r}")
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
        try:
            p = float(self.p)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"p must be a number, got {self.p!r}") from None
        n = _integer(self.n, "n")
        if not 0.5 < p <= 1.0:
            raise DomainError(f"p must lie in (1/2, 1], got {self.p!r}")
        if n < 1 or n % 2 == 0:
            raise DomainError(f"n must be an odd positive integer, got {self.n!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _posterior_given_history(theta: float, ll_a, ll_b):
    """Posterior P(state A | history) from accumulated log-likelihoods,
    elementwise over arrays of histories."""
    m = np.maximum(ll_a, ll_b)
    if (m == -np.inf).any():
        raise DomainError("history has probability zero under both states")
    w_a = theta * np.exp(ll_a - m)
    w_b = (1.0 - theta) * np.exp(ll_b - m)
    return w_a / (w_a + w_b)


#: P(vote A) of a zero-ability juror at the q = 1/2 knife edge.
_TIE_VOTE_A = {TieBreak.FOLLOW_SIGNAL_SIGN: 0.5, TieBreak.VOTE_A: 1.0, TieBreak.VOTE_B: 0.0}


def _cutoff(a, q) -> np.ndarray:
    """Signal cutoff s* = clip((1 - 2q)/a, -1, 1), elementwise; 0 where a = 0."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # a subnormal ability sends s to +/-inf
        s = np.divide(1.0 - 2.0 * q, a, out=np.zeros(np.broadcast(a, q).shape),
                      where=a > 0.0)
    return np.minimum(np.maximum(s, -1.0), 1.0)


def _juror_step(a, q, tie_break: TieBreak) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cutoff, P(vote A | state A) and P(vote A | state B), elementwise.

    ``q`` is the juror's pre-signal posterior that the state is A.  For
    a > 0 the juror votes A exactly when the signal reaches the cutoff
    s* = clip((1 - 2q)/a, -1, 1); at zero ability the signal is useless
    and the vote follows the posterior alone, with ``tie_break`` deciding
    the q = 1/2 knife edge (P(vote A) is then 0, 1/2 or 1 in both
    states).  This is the one statement of the decision rule: the exact
    walk, Monte Carlo, ``VoteHistory`` and ``ThresholdTable`` all call
    it.  The zero-ability override runs only when some ability is 0, so
    the common all-informed call costs the cutoff and two CDFs.
    """
    a = np.asarray(a, dtype=float)
    s = _cutoff(a, q)
    p_a = 1.0 - _cdf_A_on_support(a, s)
    p_b = 1.0 - _cdf_B_on_support(a, s)
    blind = a == 0.0
    if blind.any():
        vote = np.where(q == 0.5, _TIE_VOTE_A[tie_break], q > 0.5)
        p_a = np.where(blind, vote, p_a)
        p_b = np.where(blind, vote, p_b)
    return s, p_a, p_b


@dataclass(frozen=True)
class VoteHistory:
    """A prefix of the voting with its likelihood under each state.

    The log-likelihood fields are exactly the sums of per-vote
    conditional log-probabilities, so rebuilding the history vote by
    vote from scratch reproduces them.
    """

    votes: tuple[StateOfNature, ...] = ()
    loglik_A: float = 0.0
    loglik_B: float = 0.0

    def extend(self, config: JuryConfig, vote: StateOfNature) -> "VoteHistory":
        i = len(self.votes)
        if i >= len(config.abilities):
            raise DomainError("every juror has already voted")
        q = _posterior_given_history(config.prior.theta, self.loglik_A, self.loglik_B)
        _, p_a, p_b = _juror_step(config.abilities[i], q, config.tie_break)
        p_a, p_b = float(p_a), float(p_b)
        if vote is StateOfNature.A:
            step_a, step_b = p_a, p_b
        else:
            step_a, step_b = 1.0 - p_a, 1.0 - p_b
        return VoteHistory(
            votes=self.votes + (vote,),
            loglik_A=self.loglik_A + _log(step_a),
            loglik_B=self.loglik_B + _log(step_b),
        )

    @classmethod
    def from_votes(cls, config: JuryConfig, votes) -> "VoteHistory":
        history = cls()
        for vote in votes:
            history = history.extend(config, vote)
        return history


@dataclass(frozen=True)
class ThresholdTable:
    """Materialized signal cutoffs, keyed by vote-history prefix.

    ``entries[votes]`` is the cutoff faced by juror ``len(votes)`` after
    seeing that history; ``None`` marks zero-ability jurors, whose vote
    ignores the signal except through the tie rule.  Histories that are
    impossible under both states carry no entry.
    """

    entries: dict

    def lookup(self, votes: tuple[StateOfNature, ...]):
        return self.entries[tuple(votes)]

    @classmethod
    def from_config(cls, config: JuryConfig) -> "ThresholdTable":
        n = len(config.abilities)
        if n > TABLE_SIZE_LIMIT:
            raise SizeLimit(
                f"threshold tables hold 2**n entries; n={n} exceeds the "
                f"cap of {TABLE_SIZE_LIMIT}"
            )
        theta = config.prior.theta
        entries: dict = {}

        def walk(votes: tuple, ll_a: float, ll_b: float) -> None:
            i = len(votes)
            if i == n:
                return
            a = config.abilities[i]
            q = _posterior_given_history(theta, ll_a, ll_b)
            cut, p_a, p_b = _juror_step(a, q, config.tie_break)
            entries[votes] = float(cut) if a > 0.0 else None
            p_a, p_b = float(p_a), float(p_b)
            if p_a > 0.0 or p_b > 0.0:
                walk(votes + (StateOfNature.A,), ll_a + _log(p_a), ll_b + _log(p_b))
            if p_a < 1.0 or p_b < 1.0:
                walk(votes + (StateOfNature.B,),
                     ll_a + _log(1.0 - p_a), ll_b + _log(1.0 - p_b))

        walk((), 0.0, 0.0)
        return cls(entries=entries)


def vote_threshold(a: float, posterior_a_before_signal: float) -> float:
    """Signal cutoff above which a juror votes A.

    Solves q*(1 + a*s) = (1 - q)*(1 - a*s) for s and clamps to the
    support: s* = (1 - 2q)/a.  Zero ability admits no informative
    threshold and raises ZeroAbility so the caller can fall back to the
    tie rule.
    """
    a = _check_ability(a)
    q = float(posterior_a_before_signal)
    if not 0.0 < q < 1.0:
        raise DomainError(
            f"posterior_a_before_signal must lie strictly in (0, 1), got {q!r}"
        )
    if a == 0.0:
        raise ZeroAbility("a zero-ability juror has no signal threshold")
    return float(_cutoff(a, q))


def _require_odd(config: JuryConfig) -> int:
    n = len(config.abilities)
    if n % 2 == 0:
        raise EvenJury(f"majority verdicts need an odd jury, got n={n}")
    return n


def _level_walk(abilities: np.ndarray, theta: float,
                tie_break: TieBreak) -> tuple[np.ndarray, np.ndarray]:
    """P(majority votes A | state A) and P(majority votes A | state B) for
    each row of an (orders, n) array of voting orders.

    Walks the vote-history tree one juror at a time.  The frontier holds
    every undecided prefix of every order as parallel arrays (order
    index, votes for A, log-likelihood under A, under B).  Each level
    grows the A child where either state can cast an A vote and the B
    child where either can cast a B vote, banks the mass of A children
    that reach a majority, and drops B children whose side has already
    won.  Compaction is stable, so an order's prefixes meet the tally in
    the same sequence whether the order runs alone or in a batch, and
    the results agree bit for bit.
    """
    orders, n = abilities.shape
    need = n // 2 + 1
    won_a = np.zeros(orders)
    won_b = np.zeros(orders)
    order = np.arange(orders)
    count = np.zeros(orders, dtype=np.int64)
    ll_a = np.zeros(orders)
    ll_b = np.zeros(orders)
    for i in range(n):
        q = _posterior_given_history(theta, ll_a, ll_b)
        _, p_a, p_b = _juror_step(abilities[order, i], q, tie_break)
        grow_a = (p_a > 0.0) | (p_b > 0.0)
        grow_b = (p_a < 1.0) | (p_b < 1.0)
        won = grow_a & (count == need - 1)
        grow_a &= ~won
        grow_b &= i + 1 - count < need
        with np.errstate(divide="ignore"):
            up_a, up_b = ll_a + np.log(p_a), ll_b + np.log(p_b)
            down_a, down_b = ll_a + np.log(1.0 - p_a), ll_b + np.log(1.0 - p_b)
        won_a += np.bincount(order[won], np.exp(up_a[won]), orders)
        won_b += np.bincount(order[won], np.exp(up_b[won]), orders)
        ll_a = np.concatenate((up_a[grow_a], down_a[grow_b]))
        ll_b = np.concatenate((up_b[grow_a], down_b[grow_b]))
        order = np.concatenate((order[grow_a], order[grow_b]))
        count = np.concatenate((count[grow_a] + 1, count[grow_b]))
    return won_a, won_b


def _exact_majority_a(config: JuryConfig) -> tuple[float, float]:
    """P(majority votes A | state A) and P(majority votes A | state B)."""
    won_a, won_b = _level_walk(np.array([config.abilities]), config.prior.theta,
                               config.tie_break)
    return float(won_a[0]), float(won_b[0])


def _verdict_accuracy(abilities: np.ndarray, prior: Prior,
                      tie_break: TieBreak) -> np.ndarray:
    """Exact P(majority verdict is correct) for each row of ``abilities``."""
    won_a, won_b = _level_walk(abilities, prior.theta, tie_break)
    p = prior.theta * won_a + (1.0 - prior.theta) * (1.0 - won_b)
    return np.clip(p, 0.0, 1.0)


def exact_verdict_probability(config: JuryConfig) -> VerdictStats:
    """Exact probability that the majority verdict matches the state.

    Averages the two conditional majority probabilities with prior
    weights theta and 1 - theta.  The vote-history tree is walked one
    juror at a time in numpy (``_level_walk``).  Each level costs a few
    dozen array calls plus work in proportion to the prefixes it visits,
    so run time follows the nodes visited once a tree holds more than a
    few thousand, and peak memory follows the widest level, at about
    160 bytes per prefix.  With every ability 0.5 at n = 25 the walk
    visits 20.8M prefixes (10.4M of them undecided, the widest level
    2.7M) in about 1.7 s at 0.5 GiB peak RSS; the depth-first Python
    recursion it replaced took about 135 s.  A near-flat n = 13 jury
    (6.9k prefixes) drops from about 45 ms to about 1.5 ms (2-CPU x86
    host, numpy 2.4).  n stays capped at ``EXACT_SIZE_LIMIT``.
    """
    n = _require_odd(config)
    if n > EXACT_SIZE_LIMIT:
        raise SizeLimit(
            f"exact enumeration is capped at n={EXACT_SIZE_LIMIT}, got n={n}"
        )
    p = _verdict_accuracy(np.array([config.abilities]), config.prior, config.tie_break)
    return VerdictStats(p_correct=float(p[0]), method=Method.EXACT,
                        stderr=0.0, trials_used=0)


def _simulate_chunk(config: JuryConfig, size: int, seed_seq, fixed_state=None) -> int:
    """Simulate ``size`` juries and return how many verdicts were correct.

    Once the vote history and the state are fixed, a juror's vote is a
    Bernoulli draw with P(vote A) = 1 - F_state(s*), the probability
    ``_juror_step`` returns, independently across trials.  So the chunk
    carries counts, not trials: for each occupied history of the current
    level its log-likelihoods under A and B, its votes for A, and how
    many trials sit there in state A (``cnt_a``) and in state B
    (``cnt_b``).  A plain chunk draws its state-A count from
    Binomial(size, theta); a stratified one puts every trial in
    ``fixed_state``.

    Each juror costs, per occupied history, the posterior, one
    ``_juror_step`` and two binomial draws that split each count into A
    and B voters.  Children are laid out A children first, then B
    children, as in ``_level_walk``.  A child whose side has reached a
    majority is retired: its state-A trials (A majority) or state-B
    trials (B majority) are added to the hits.  Unoccupied children are
    dropped.  Nothing is done per trial, so the cost follows the occupied
    histories alone.  In a 16,384-trial chunk the ``mc-sim`` juries
    (seed 7) occupy at most 2 histories per level at n = 3, 7 at n = 7,
    about 300 at n = 25 and 2,200 at n = 101.
    One 16,384-trial chunk of a random jury takes about 0.4 ms at n = 3,
    1.1 ms at n = 7, 2.3 ms at n = 25 and 18-22 ms at n = 101, against
    1.8, 4.1, 8.5 and 45 ms when every trial drew its own signal (median
    of 21, 2-CPU x86 host, numpy 2.4).  The binomial draws dominate at
    n = 101.
    """
    rng = np.random.default_rng(seed_seq)
    theta = config.prior.theta
    if fixed_state is None:
        n_a = rng.binomial(size, theta)
    else:
        n_a = size if fixed_state is StateOfNature.A else 0
    need = len(config.abilities) // 2 + 1
    cnt_a = np.array([n_a], dtype=np.int64)
    cnt_b = np.array([size - n_a], dtype=np.int64)
    ll_a = np.zeros(1)
    ll_b = np.zeros(1)
    votes_a = np.zeros(1, dtype=np.int64)
    hits = 0
    for i, a in enumerate(config.abilities):
        q = _posterior_given_history(theta, ll_a, ll_b)
        _, p_a, p_b = _juror_step(a, q, config.tie_break)
        up_a = rng.binomial(cnt_a, p_a)
        up_b = rng.binomial(cnt_b, p_b)
        cnt_a = np.concatenate((up_a, cnt_a - up_a))
        cnt_b = np.concatenate((up_b, cnt_b - up_b))
        votes_a = np.concatenate((votes_a + 1, votes_a))
        won_a = votes_a == need
        won_b = i + 1 - votes_a == need
        hits += int(cnt_a[won_a].sum()) + int(cnt_b[won_b].sum())
        keep = np.flatnonzero(~(won_a | won_b) & (cnt_a + cnt_b > 0))
        parent = keep % len(ll_a)
        with np.errstate(divide="ignore"):
            ll_a = ll_a[parent] + np.log(np.concatenate((p_a, 1.0 - p_a))[keep])
            ll_b = ll_b[parent] + np.log(np.concatenate((p_b, 1.0 - p_b))[keep])
        cnt_a, cnt_b, votes_a = cnt_a[keep], cnt_b[keep], votes_a[keep]
    return hits


def _worker_cap(n_chunks: int) -> int:
    """Worker count a thread pool over ``n_chunks`` chunks would use:
    TAILBALANCE_THREADS, else min(8, CPUs).  Monte Carlo runs its chunks
    in the calling thread; the ``mc-sim`` benchmark still sizes its
    calibration pool from this."""
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


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, _CHUNK_TRIALS)
    return [_CHUNK_TRIALS] * full + ([rest] if rest else [])


def monte_carlo_verdict(config: JuryConfig, *, conditional: bool = False) -> VerdictStats:
    """Monte Carlo estimate of the correct-verdict probability.

    Trials run in fixed-size chunks, in order in the calling thread, each
    with its own generator spawned deterministically from the config
    seed; the hits combine by integer addition.

    ``conditional=True`` stratifies: trials are split between the two
    states in proportion to the prior and each stratum is averaged with
    its prior weight, which removes the variance of the state draw.  A
    plain run is the single stratum of weight 1 whose state is drawn, so
    both modes share one estimator: p = sum of w * p_s and
    var = sum of w**2 * p_s * (1 - p_s) / n_s over the strata.

    Each chunk (``_simulate_chunk``) works per occupied vote history,
    with no per-trial work: a posterior, a cutoff and two binomial draws
    per history and juror.  With no per-trial work left, a two-thread
    pool over the chunks measured slower than one thread: a median call
    over the 16 ``mc-sim`` juries (seed 61) took 37 ms against 25 ms
    (2-CPU x86 host, numpy 2.4), so the chunks run serially.
    """
    _require_odd(config)
    theta = config.prior.theta
    trials = config.trials
    if conditional:
        if trials < 2:
            raise DomainError("conditional mode needs at least 2 trials")
        n_a = int(round(theta * trials))
        n_a = min(max(n_a, 1), trials - 1)
        strata = [(StateOfNature.A, theta, n_a),
                  (StateOfNature.B, 1.0 - theta, trials - n_a)]
    else:
        strata = [(None, 1.0, trials)]
    plan = [(state, size) for state, _, n_s in strata for size in _chunk_sizes(n_s)]
    children = np.random.SeedSequence(config.seed).spawn(len(plan))
    hits = [_simulate_chunk(config, size, child, fixed_state=state)
            for (state, size), child in zip(plan, children)]

    p_hat = var = 0.0
    for state, w, n_s in strata:
        p_s = sum(h for (s, _), h in zip(plan, hits) if s is state) / n_s
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
    They share one level walk as the rows of an (n!, n) ability array,
    so the frontier holds every order's undecided prefixes at once and
    the array-call overhead is paid n times rather than n * n! times.
    Each row equals ``exact_verdict_probability`` of its ordering bit
    for bit.  The n = 7 scan takes about 30 ms, against about 2.8 s for
    5040 separate depth-first recursions before (2-CPU x86 host, numpy
    2.4).
    """
    abilities = tuple(float(a) for a in abilities)
    n = len(abilities)
    if n > ORDER_SCAN_LIMIT:
        raise SizeLimit(
            f"order_scan is capped at n={ORDER_SCAN_LIMIT} (factorial growth), got n={n}"
        )
    if n % 2 == 0:
        raise EvenJury(f"majority verdicts need an odd jury, got n={n}")
    if n < 3:
        raise DomainError(f"order_scan needs at least 3 jurors, got n={n}")
    # validates the abilities, prior and tie rule as a single walk would
    config = JuryConfig(abilities=abilities, prior=prior, tie_break=tie_break)
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
    for n up to 10**4.
    """
    return float(binom.sf(model.n // 2, model.n, model.p))


def condorcet_error(model: CondorcetModel) -> float:
    """P(majority wrong), the complementary binomial tail.

    Useful when the success probability saturates to 1.0 in double
    precision (large n, strong p): the error tail stays representable
    far beyond that point, so monotonicity can still be observed.
    """
    return float(binom.cdf(model.n // 2, model.n, model.p))


def condorcet_curve(p: float, n_max: int) -> list[tuple[int, float]]:
    """(n, majority accuracy) for every odd n up to n_max, which must
    make a valid ``CondorcetModel`` with p."""
    largest = CondorcetModel(p, n_max)
    ns = np.arange(1, largest.n + 1, 2)
    vals = binom.sf(ns // 2, ns, largest.p)
    return list(zip(ns.tolist(), np.asarray(vals, dtype=float).tolist()))
