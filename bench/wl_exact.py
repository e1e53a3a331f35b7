"""exact-walk: in-process exact_verdict_probability and order_scan calls.

The history walk is pure Python recursion, the slowest layer per unit
of work.  A third of the juries draw abilities uniformly (Latin-hypercube
strata, so every jury spans [0, 1]) with theta in [0.1, 0.9]; cascades
prune their trees to 10^1-10^4 nodes, so per-call cost dominates.  The
others are near-flat (abilities c +/- 0.02 around fixed centres c in
[0.3, 0.7], theta near 1/2), whose trees keep 10^4-10^5 nodes, so per-node
cost dominates.  order_scan at n=5 and n=7 adds thousands of tiny walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from harness import Crashed, Op, Tracer, median
from reference import reference_walk
from tailbalance import JuryConfig, Prior, exact_verdict_probability, order_scan

# Juries per round by size.  The near-flat n=13 trees all hold about 6.8k
# nodes; they are the largest group, with about as many ops cheaper than
# them (the random juries and the n=5 scan) as dearer (the n=15 near-flat
# trees and the few large random ones), so the median op falls in the
# middle of that group and the eleventh-slowest among the n=15 trees.
RANDOM_SIZES = {9: 2, 11: 2, 13: 2, 15: 2, 17: 2, 19: 2}
FLAT_SIZES = {13: 16, 15: 8}
#: Rounds per pass.  A pass opens with the n=7 order_scan (5040 walks,
#: about 2.5 s) and the n=17 near-flat jury (about 0.5 s), so a 20 s run
#: holds one of each of the two slowest ops whatever the seed.  Every round
#: repeats the near-flat juries and draws its own random juries and n=5
#: scan: a random jury's tree ranges over three orders of magnitude, and
#: fresh draws each round keep one unlucky draw from weighing on the whole
#: run.
ROUNDS = 8
PROBE_RANDOM = {9: 1, 13: 1, 17: 1}
PROBE_FLAT = {13: 1, 15: 1}
#: Range of the near-flat juries' common ability.  A jury's cost depends on
#: where its centre sits, so the k-th of m juries of a size sits at the same
#: centre for every seed; only the +/-0.02 spread and theta are drawn.
FLAT_CENTRES = (0.3, 0.7)


def spread_abilities(rng, n: int) -> tuple[float, ...]:
    """n abilities, one uniform draw in each n-th of [0, 1], shuffled."""
    return tuple(float(x) for x in (rng.permutation(n) + rng.random(n)) / n)


def flat_abilities(rng, n: int, k: int, m: int) -> tuple[float, ...]:
    """n abilities c +/- 0.02 around the k-th of m evenly spaced centres."""
    lo, hi = FLAT_CENTRES
    c = lo + (hi - lo) * (k + 0.5) / m
    return tuple(float(x) for x in c + rng.uniform(-0.02, 0.02, n))


@dataclass
class ExactWalk:
    configs: dict[str, JuryConfig]
    scans: dict[str, tuple[tuple[float, ...], Prior]]
    order: list[str]
    tracer: Tracer
    refs: dict = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [self._op(key) for key in self.order]

    def _op(self, key: str) -> Op:
        tracer = self.tracer
        if key in self.configs:
            config = self.configs[key]

            def walk():
                with tracer.span("jury.exact_verdict_probability"):
                    return exact_verdict_probability(config).p_correct
            return Op(key, walk)
        abilities, prior = self.scans[key]

        def scan():
            with tracer.span("jury.order_scan"):
                rows = order_scan(abilities, prior)
            return tuple((row.ordering, row.p_correct) for row in rows)
        return Op(key, scan)

    def references(self, keys) -> None:
        """Reference walks for every exact key given, run once, untimed."""
        for key in keys:
            if key in self.configs and key not in self.refs:
                c = self.configs[key]
                self.refs[key] = reference_walk(c.abilities, c.prior.theta, c.tie_break)

    def check(self, first: dict) -> dict[str, str | None]:
        self.references(first)
        verdict = {}
        for key, out in first.items():
            if isinstance(out, Crashed):
                verdict[key] = out.error
            elif key in self.configs:
                ok = abs(out - self.refs[key].p_correct) <= 1e-12
                verdict[key] = None if ok else "p_correct off the reference walk"
            else:
                verdict[key] = self._check_scan(key, out)
        return verdict

    def _check_scan(self, key: str, rows) -> str | None:
        abilities, prior = self.scans[key]
        values = [p for _, p in rows]
        if len(rows) != math.factorial(len(abilities)):
            return "order_scan skipped orderings"
        if any(b > a for a, b in zip(values, values[1:])):
            return "order_scan rows are not sorted"
        top, p_top = rows[0]
        p_exact = exact_verdict_probability(JuryConfig(top, prior)).p_correct
        p_ref = reference_walk(top, prior.theta).p_correct
        if p_top != p_exact or abs(p_top - p_ref) > 1e-12:
            return "order_scan top row disagrees with the exact walk"
        return None


def build(seed: int, tracer: Tracer, probe: bool = False) -> ExactWalk:
    rng = np.random.default_rng([seed, 2])
    flat: dict[str, JuryConfig] = {}
    for n, count in (PROBE_FLAT if probe else FLAT_SIZES).items():
        for k in range(count):
            flat[f"flat-{n}-{k}"] = JuryConfig(
                flat_abilities(rng, n, k, count), Prior(float(rng.uniform(0.4, 0.6))))
    configs = dict(flat)
    scans: dict[str, tuple[tuple[float, ...], Prior]] = {}
    order: list[str] = []
    for r in range(1 if probe else ROUNDS):
        groups: dict[str, list[str]] = {}
        for key in flat:
            groups.setdefault(key.rsplit("-", 1)[0], []).append(key)
        for n, count in (PROBE_RANDOM if probe else RANDOM_SIZES).items():
            # theta in strata of [0.1, 0.9] too, so each size spans its range
            thetas = 0.1 + 0.8 * (rng.permutation(count) + rng.random(count)) / count
            for k, theta in enumerate(thetas):
                key = f"random-{n}-{r}-{k}"
                configs[key] = JuryConfig(spread_abilities(rng, n), Prior(float(theta)))
                groups.setdefault(f"random-{n}", []).append(key)
        scans[f"scan-5-{r}"] = (spread_abilities(rng, 5), Prior(float(rng.uniform(0.3, 0.7))))
        groups["scan-5"] = [f"scan-5-{r}"]
        order += interleave(rng, groups.values())
    if probe:
        return ExactWalk(configs, scans, order, tracer)
    # the n=7 scan is one op of about 2.5 s, an eighth of a run: its input
    # is fixed (one ability at the middle of each seventh of [0, 1], an even
    # prior) so that its cost does not move the run's figures with the seed
    scans["scan-7"] = (tuple((k + 0.5) / 7 for k in range(7)), Prior(0.5))
    configs["flat-17-0"] = JuryConfig(flat_abilities(rng, 17, 0, 1),
                                      Prior(float(rng.uniform(0.4, 0.6))))
    return ExactWalk(configs, scans, ["scan-7", "flat-17-0", *order], tracer)


def interleave(rng, groups) -> list[str]:
    """One seeded order in which every prefix holds each group in proportion:
    the j-th member (shuffled) of a group of c sits at (j + u) / c."""
    placed = []
    for keys in groups:
        for j, i in enumerate(rng.permutation(len(keys))):
            placed.append(((j + rng.random()) / len(keys), keys[int(i)]))
    return [key for _, key in sorted(placed)]


def layer_metrics(walk: ExactWalk, loop, tracer: Tracer) -> dict[str, tuple[float, str]]:
    first = loop.first_outputs()
    walk.references(first)
    refs = [walk.refs[k] for k in walk.configs if k in first]
    nodes = sum(r.nodes for r in refs)
    exact_s, exact_nodes, scan_s, perms = [], 0, [], 0
    largest_scan = max(len(abilities) for abilities, _ in walk.scans.values())
    largest_scan_s = []
    for i, seconds in zip(loop.index, loop.seconds):
        op_key = walk.order[i]
        if op_key in walk.configs:
            exact_s.append(seconds)
            exact_nodes += walk.refs[op_key].nodes
            continue
        n = len(walk.scans[op_key][0])
        scan_s.append(seconds)
        perms += math.factorial(n)
        if n == largest_scan:
            largest_scan_s.append(seconds)
    return {
        "jury.exact_nodes": (float(nodes), "count"),
        "jury.exact_retired_ratio": (sum(r.retired for r in refs) / nodes, "ratio"),
        "jury.exact_forced_vote_ratio": (sum(r.forced for r in refs)
                                         / sum(r.votes for r in refs), "ratio"),
        "jury.exact_nodes_per_s": (exact_nodes / sum(exact_s), "1/s"),
        "jury.exact_call_s": (median(exact_s), "s"),
        "jury.order_scan_s": (median(largest_scan_s), "s"),
        "jury.order_scan_perms_per_s": (perms / sum(scan_s), "1/s"),
    }
