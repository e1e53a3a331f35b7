"""Reference history walk for the sequential jury, kept apart from the package.

It is written only against the public signal CDFs and the documented
decision rule: a juror with ability a > 0 and pre-signal posterior q votes
A exactly when the signal reaches s* = clip((1 - 2q)/a, -1, 1); a juror
with ability 0 follows the posterior, and the tie rule decides q = 1/2.
Besides the verdict probability it counts what the walk did, which the
package itself does not report:

* ``nodes``: vote prefixes visited, retired leaves included;
* ``retired``: prefixes closed because one side already holds a majority;
* ``forced``: votes cast where only one outcome was possible (a clamped
  cutoff, or a zero-ability juror off the knife edge), i.e. herding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tailbalance import TieBreak, cdf_given_A, cdf_given_B


@dataclass(frozen=True)
class WalkResult:
    p_correct: float
    maj_a_given_a: float
    maj_a_given_b: float
    nodes: int
    retired: int
    forced: int

    @property
    def votes(self) -> int:
        """Prefixes at which a juror actually voted."""
        return self.nodes - self.retired


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def vote_a_probs(a: float, q: float, tie_break: TieBreak) -> tuple[float, float]:
    """P(vote A | state A), P(vote A | state B) under the documented rule."""
    if a > 0.0:
        s = min(1.0, max(-1.0, (1.0 - 2.0 * q) / a))
        return 1.0 - cdf_given_A(a, s), 1.0 - cdf_given_B(a, s)
    if q != 0.5:
        v = 1.0 if q > 0.5 else 0.0
    elif tie_break is TieBreak.VOTE_A:
        v = 1.0
    elif tie_break is TieBreak.VOTE_B:
        v = 0.0
    else:
        v = 0.5
    return v, v


def reference_walk(abilities, theta: float,
                   tie_break: TieBreak = TieBreak.FOLLOW_SIGNAL_SIGN) -> WalkResult:
    """Exact majority accuracy of an odd jury, with walk counts."""
    abilities = tuple(float(a) for a in abilities)
    n = len(abilities)
    if n % 2 == 0:
        raise ValueError(f"odd jury required, got n={n}")
    need = n // 2 + 1
    mass = [0.0, 0.0]
    counts = [0, 0, 0]  # nodes, retired, forced
    # explicit stack of (juror index, votes for A, log-lik under A, under B)
    stack = [(0, 0, 0.0, 0.0)]
    while stack:
        i, count_a, ll_a, ll_b = stack.pop()
        counts[0] += 1
        if count_a >= need:
            mass[0] += math.exp(ll_a)
            mass[1] += math.exp(ll_b)
            counts[1] += 1
            continue
        if i - count_a >= need:
            counts[1] += 1
            continue
        m = max(ll_a, ll_b)
        w_a = theta * math.exp(ll_a - m)
        w_b = (1.0 - theta) * math.exp(ll_b - m)
        p_a, p_b = vote_a_probs(abilities[i], w_a / (w_a + w_b), tie_break)
        can_a = p_a > 0.0 or p_b > 0.0
        can_b = p_a < 1.0 or p_b < 1.0
        if can_a != can_b:
            counts[2] += 1
        if can_b:
            stack.append((i + 1, count_a, ll_a + _log(1.0 - p_a), ll_b + _log(1.0 - p_b)))
        if can_a:
            stack.append((i + 1, count_a + 1, ll_a + _log(p_a), ll_b + _log(p_b)))
    p = theta * mass[0] + (1.0 - theta) * (1.0 - mass[1])
    return WalkResult(p_correct=min(1.0, max(0.0, p)), maj_a_given_a=mass[0],
                      maj_a_given_b=mass[1], nodes=counts[0], retired=counts[1],
                      forced=counts[2])
