"""cli-mix: `python -m tailbalance` child processes in a closed loop.

Every call pays interpreter start and the package import, which is most
of a call today, so start-up and output emission show here and nowhere
else.  One pass holds all eight subcommands with small inputs, three
large-output calls, a solve -> verify round trip through a CSV file, a
call that must be refused with exit 1, and two repeats whose stdout must
match the first run byte for byte.  The pass is laid out on a fixed
template so that a run cut by its deadline loses large calls and a repeat
only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from harness import (
    CHILD_IMPORTS,
    OUT,
    ROOT,
    Calibration,
    Crashed,
    Op,
    Refused,
    Tracer,
    median,
    run_child,
)
from reference import reference_walk
from wl_solve import exact_odds

SUBCOMMANDS = ("solve", "verify", "sample", "posterior", "simulate", "exact",
               "order-scan", "condorcet")

# S: small call, L: large-output call, T/V: round-trip solve/verify,
# X: refused call, R: repeat of one of the first five small calls.  A 20 s
# run holds 10 to 15 calls, so the first 13 slots hold every small call
# and one of each other kind: a run takes its median over the same
# subcommands whatever the seed, less the last small calls at worst.
TEMPLATE = "SSLSTVSRSSXSSLLR"


def calibration() -> Calibration:
    """Each op is a child interpreter that mostly imports."""
    return CHILD_IMPORTS


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout_bytes: int
    digest: str


@dataclass
class CliCall:
    key: str
    subcommand: str
    args: list[str]
    expect_code: int = 0
    rows: int | None = None
    large: bool = False
    stdout_to: str | None = None
    check: str | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _theta(rng) -> float:
    """A prior in [0.1, 0.9] to three places, redrawn until solve_odds's
    residual at t = +1 is sound there (see wl_solve.exact_odds): otherwise
    ``verify`` rejects the solver's own H, a known defect that the defect
    probe measures instead."""
    while True:
        theta = round(float(rng.uniform(0.1, 0.9)), 3)
        if exact_odds(theta, theta):
            return theta


def _abilities(rng, n: int) -> list[float]:
    return [round(float(a), 3) for a in rng.uniform(0.05, 1.0, n)]


def _small_calls(rng) -> list[CliCall]:
    theta = _theta(rng)
    a = round(float(rng.uniform(0.1, 1.0)), 3)
    seed = int(rng.integers(0, 2**31))
    jury9 = _abilities(rng, 9)
    jury5 = _abilities(rng, 5)
    sim5 = _abilities(rng, 5)
    p = round(float(rng.uniform(0.51, 0.9)), 3)
    th = ["--theta", _fmt(theta)]
    return [
        CliCall("solve", "solve", ["solve", *th, "--a", _fmt(a), "--grid", "201"], rows=201),
        CliCall("verify", "verify", ["verify", *th, "--a", _fmt(a)], rows=1001),
        CliCall("sample", "sample", ["sample", "--a", _fmt(a), "--n", "1000",
                                     "--seed", str(seed)], rows=1000),
        CliCall("posterior", "posterior", ["posterior", *th, "--a", _fmt(a),
                                           "--grid", "201"], rows=201),
        CliCall("simulate", "simulate",
                ["simulate", "--abilities", ",".join(map(_fmt, sim5)), *th,
                 "--trials", "20000", "--seed", str(seed)], rows=1, check="simulate"),
        CliCall("exact", "exact", ["exact", "--abilities", ",".join(map(_fmt, jury9)), *th],
                rows=1, check="exact"),
        CliCall("order-scan", "order-scan",
                ["order-scan", "--abilities", ",".join(map(_fmt, jury5)), *th],
                rows=120, check="order-scan"),
        CliCall("condorcet", "condorcet", ["condorcet", "--p", _fmt(p)], rows=51),
    ]


def _large_calls(rng) -> list[CliCall]:
    theta = _theta(rng)
    a = round(float(rng.uniform(0.1, 1.0)), 3)
    solve = ["solve", "--theta", _fmt(theta), "--a", _fmt(a), "--grid", "20001"]
    return [
        CliCall("sample-large", "sample",
                ["sample", "--a", _fmt(a), "--n", "100000",
                 "--seed", str(int(rng.integers(0, 2**31)))], rows=100000, large=True),
        CliCall("solve-large-csv", "solve", solve, rows=20001, large=True),
        CliCall("solve-large-json", "solve", solve + ["--format", "json"],
                rows=20001, large=True),
    ]


def _round_trip(rng, table: str) -> list[CliCall]:
    theta = _theta(rng)
    a = round(float(rng.uniform(0.1, 1.0)), 3)
    alpha = ["--theta", _fmt(theta), "--a", _fmt(a)]
    return [
        CliCall("round-trip-solve", "solve", ["solve", *alpha, "--grid", "2001"],
                rows=2001, stdout_to=table),
        CliCall("round-trip-verify", "verify",
                ["verify", *alpha, "--h", table, "--grid", "1001", "--tol", "1e-6"],
                rows=1001),
    ]


def _refused(rng) -> CliCall:
    even = _abilities(rng, 2 * int(rng.integers(1, 4)))
    return CliCall("refused-even-jury", "exact",
                   ["exact", "--abilities", ",".join(map(_fmt, even))], expect_code=1)


def _data_rows(stdout: bytes, json_format: bool) -> tuple[list, list]:
    """(columns, rows) parsed from CSV or JSON output."""
    if json_format:
        doc = json.loads(stdout)
        return doc["columns"], doc["rows"]
    lines = stdout.decode().splitlines()
    if not lines or not lines[0].startswith("# tailbalance "):
        raise ValueError("missing reproducibility header")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    return lines[1].split(","), rows


def _value_of(call: CliCall, flag: str) -> str:
    return call.args[call.args.index(flag) + 1]


@dataclass
class CliMix:
    calls: list[CliCall]
    tmp: str
    tracer: Tracer
    emit_large: CliCall
    emit_small: CliCall
    first_stdout: dict[str, bytes] = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [Op(c.key, self._runner(c)) for c in self.calls]

    def _runner(self, call: CliCall):
        def run():
            with self.tracer.span(f"cli.{call.subcommand}"):
                proc = run_child(["-m", "tailbalance", *call.args])[1]
            if call.stdout_to is not None:
                with open(ROOT / call.stdout_to, "wb") as fh:
                    fh.write(proc.stdout)
            self.first_stdout.setdefault(call.key, proc.stdout)
            if call.expect_code:
                # a documented refusal prints the CLI's one error line; an
                # uncaught exception also exits 1 but prints a traceback
                err = proc.stderr.decode(errors="replace")
                if err.startswith("error: ") and "Traceback" not in err:
                    return Refused(f"exit {proc.returncode}")
                return Refused(f"exit {proc.returncode} without the CLI's error line")
            return CliOutput(proc.returncode, len(proc.stdout),
                             hashlib.sha256(proc.stdout).hexdigest())
        return run

    def check(self, first: dict) -> dict[str, str | None]:
        """Failure reason per key that ran (None when the output is right)."""
        verdict: dict[str, str | None] = {}
        for call in {c.key: c for c in self.calls}.values():
            if call.key not in first:
                continue
            out = first[call.key]
            if isinstance(out, Crashed):
                verdict[call.key] = out.error
                continue
            if call.expect_code:
                ok = out == Refused(f"exit {call.expect_code}")
                verdict[call.key] = None if ok else f"expected exit {call.expect_code}, got {out}"
                continue
            if out.returncode != 0:
                verdict[call.key] = f"exit {out.returncode}"
                continue
            try:
                verdict[call.key] = self._check_rows(call, self.first_stdout[call.key])
            except (ValueError, KeyError, IndexError) as exc:
                verdict[call.key] = f"unparsable output: {exc}"
        return verdict

    def _check_rows(self, call: CliCall, stdout: bytes) -> str | None:
        _, rows = _data_rows(stdout, "--format" in call.args)
        if call.rows is not None and len(rows) != call.rows:
            return f"{len(rows)} rows, expected {call.rows}"
        if call.check is None:
            return None
        abilities = [float(x) for x in _value_of(call, "--abilities").split(",")]
        theta = float(_value_of(call, "--theta"))
        if call.check == "exact":
            ref = reference_walk(abilities, theta).p_correct
            return None if abs(float(rows[0][1]) - ref) <= 1e-12 else "p_correct off the reference"
        if call.check == "order-scan":
            values = [float(r[1]) for r in rows]
            if values != sorted(values, reverse=True):
                return "order-scan rows are not sorted"
            top = [float(x) for x in rows[0][0].split(";")]
            ref = reference_walk(top, theta).p_correct
            return None if abs(values[0] - ref) <= 1e-12 else "top ordering off the reference"
        trials = int(_value_of(call, "--trials"))
        ref = reference_walk(abilities, theta).p_correct
        bound = 4.0 * math.sqrt(ref * (1.0 - ref) / trials)
        return None if abs(float(rows[0][1]) - ref) <= bound else "simulate beyond 4 SE"

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def build(seed: int, tracer: Tracer, probe: bool = False) -> CliMix:
    """Seeded calls laid out on TEMPLATE; a probe is one short pass."""
    rng = np.random.default_rng([seed, 1])
    tmp = OUT / f"tmp-cli-{seed}-{'probe' if probe else 'run'}"
    tmp.mkdir(parents=True, exist_ok=True)
    small = _small_calls(rng)
    order = [int(i) for i in rng.permutation(len(small))]
    small = [small[i] for i in order]
    large = _large_calls(rng)
    emit = (next(c for c in large if c.subcommand == "sample"),
            next(c for c in small if c.subcommand == "sample"))
    if probe:
        return CliMix(small, str(tmp), tracer, *emit)
    trip = iter(_round_trip(rng, str((tmp / "h.csv").relative_to(ROOT))))
    refused = _refused(rng)
    repeats = iter(small[int(i)] for i in rng.choice(5, size=2, replace=False))
    sources = {"S": iter(small), "L": iter(large), "X": iter([refused]),
               "T": trip, "V": trip, "R": repeats}
    return CliMix([next(sources[slot]) for slot in TEMPLATE], str(tmp), tracer, *emit)


def layer_metrics(mix: CliMix, loop, tracer: Tracer) -> dict[str, tuple[float, str]]:
    first = loop.first_outputs()
    ran = {c.key: c for c in mix.calls if isinstance(first.get(c.key), CliOutput)}
    by_key: dict[str, list[float]] = {}
    for i, seconds in zip(loop.index, loop.seconds):
        by_key.setdefault(mix.calls[i].key, []).append(seconds)

    def small(sub: str) -> list[CliCall]:
        return [c for c in ran.values() if c.subcommand == sub and not c.large]

    out = {f"cli.{sub}_p50_s": (median(t for c in small(sub) for t in by_key[c.key]), "s")
           for sub in SUBCOMMANDS}
    out["cli.stdout_bytes"] = (float(sum(first[k].stdout_bytes for k in ran)), "count")
    out["cli.emit_bytes_per_s"] = (emit_rate(mix, tracer), "B/s")
    return out


def emit_rate(mix: CliMix, tracer: Tracer, repeats: int = 3) -> float:
    """Bytes per second the CLI adds for a large ``sample`` table.

    Both the 100k-row call and the pass's small ``sample`` call run in this
    process through ``tailbalance.cli.main`` with stdout captured, so the
    difference of their median times is emission, free of the process
    start that dominates (and adds noise to) a child call.
    """
    from tailbalance.cli import main

    def timed(call: CliCall) -> tuple[float, int]:
        times = []
        for _ in range(repeats):
            buf = io.StringIO()
            with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                main(call.args)
                times.append(time.perf_counter() - t0)
        return median(times), len(buf.getvalue().encode())

    large_s, large_bytes = timed(mix.emit_large)
    small_s, small_bytes = timed(mix.emit_small)
    # a non-positive difference would mean noise swamped emission; charge
    # the large call's whole time then, which understates the rate
    extra_s = large_s - small_s if large_s > small_s else large_s
    return (large_bytes - small_bytes) / extra_s
