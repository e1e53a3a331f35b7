"""Machinery shared by the workloads: paths, spans, the timed loop, order
statistics, child processes and the environment record."""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Layers the workloads' ops call into, named after the package modules;
#: "bench" is the harness itself.
LAYERS = ("bench", "cli", "jury", "solvers")

#: Least time between two calibrations inside a timed loop.
CALIBRATION_EVERY_S = 0.1
#: Calibrations that make up the neighbourhood of one op.
CALIBRATION_WINDOW = 5


@dataclass(frozen=True)
class Calibration:
    """A fixed piece of work that never touches the package, and the
    seconds it takes on the reference host (a 2-CPU x86-64 VM, CPython
    3.11, numpy 2.4, quiet).

    The shared host's cores slow down and speed up by tens of percent
    over seconds to minutes, and the calibration slows with them.  Its
    work should use the host the way the workload's ops do: one thread of
    Python, or a pool of numpy threads.
    """

    name: str
    work: Callable[[], object]
    reference_s: float
    #: Which order statistic of nearby calibration times stands for the
    #: host's speed: the median, or lower where a burst of stolen CPU
    #: stalls a short calibration far more than it stalls an op.
    quantile: float = 0.5

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def factor(self, seconds: list[float]) -> float:
        """reference_s over the ``quantile`` of calibration times:
        multiplying a wall time measured among them by it removes the
        host's drift."""
        xs = sorted(seconds)
        pos = self.quantile * (len(xs) - 1)
        return self.reference_s / ((xs[math.floor(pos)] + xs[math.ceil(pos)]) / 2)


def _python_loop() -> int:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return acc


def _numpy_chunk(x):
    for _ in range(3):
        np.sort(x)
        np.exp(x)
        np.cumsum(x)


_CHUNKS = [np.random.default_rng(i).random(16384) for i in range(16)]

#: One thread of pure Python: the interpreter-bound in-process workloads.
PYTHON_LOOP = Calibration("python-loop", _python_loop, 1.5e-3)

_GRID = np.linspace(-1.0, 1.0, 1001)


def _numpy_small() -> float:
    acc = 0.0
    for k in range(30):
        x = _GRID * (0.3 + 0.01 * k) + 0.5
        y = x[::-1]
        d = 1.0 + x * x + 0.7 * x * y
        h = np.where(np.abs(d) < 1e-9, 0.5, (1.7 * x - 1.0) * (1.0 - y) / d)
        acc += float(np.max(np.abs(np.diff(h)))) + float(np.min(h))
    return acc


#: One thread of elementwise numpy calls on 1001-point arrays, as a
#: solver call makes them.
NUMPY_SMALL = Calibration("numpy-small", _numpy_small, 1.2e-3)


def _child_imports() -> None:
    proc = run_child(["-c", "import asyncio, ctypes, decimal, email.mime.text, http.client, "
                            "json, sqlite3, unittest, xml.dom.minidom"])[1]
    proc.check_returncode()


#: A fresh interpreter importing part of the standard library: the
#: workloads and set-up whose ops are child processes that mostly import.
CHILD_IMPORTS = Calibration("child-imports", _child_imports, 0.15)


def numpy_pool(threads: int) -> Calibration:
    """16 numpy chunks mapped over a fresh pool of ``threads`` threads,
    as a Monte Carlo call maps its chunks.

    A burst of stolen CPU on one core stalls this 7 ms job whole, while a
    Monte Carlo call twenty times longer rides it out on the other
    thread, so the second-fastest of five nearby calibrations stands for
    the host's speed rather than their median.
    """

    def work():
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_numpy_chunk, _CHUNKS))

    return Calibration(f"numpy-pool-{threads}", work, 13e-3 / threads, quantile=0.25)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id].

    Disabled tracers record nothing, so untraced runs pay one branch per
    span.  Spans are opened only by the benchmark around its calls into
    the package, never inside it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, seconds in zip(self.spans, own):
            layer = span[0].split(".")[0]
            totals[layer if layer in totals else "bench"] += seconds
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


@dataclass
class Op:
    """One closed-loop operation.

    ``key`` names the input: every op with the same key must give the
    same output.  ``call`` returns a value that the workload's check can
    compare; a documented refusal is returned as ``Refused``, never raised.
    """

    key: str
    call: Callable[[], object]


@dataclass(frozen=True)
class Refused:
    """A documented refusal: the exception class name or the exit code."""

    reason: str


@dataclass(frozen=True)
class Crashed:
    """An exception the package does not document for this input."""

    error: str


@dataclass
class LoopResult:
    ops: list[Op]
    index: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    outputs: list[object] = field(default_factory=list)
    calibration: Calibration = PYTHON_LOOP
    calibrations: list[float] = field(default_factory=list)
    calibrated_at: list[int] = field(default_factory=list)
    wall: float = 0.0

    def host_factors(self) -> list[float]:
        """Calibration factor per op, from the CALIBRATION_WINDOW
        calibrations nearest it."""
        factors = []
        window = min(CALIBRATION_WINDOW, len(self.calibrations))
        for j in range(len(self.seconds)):
            c = bisect.bisect_right(self.calibrated_at, j)
            lo = max(0, min(c - window // 2, len(self.calibrations) - window))
            factors.append(self.calibration.factor(self.calibrations[lo:lo + window]))
        return factors

    def corrected(self) -> tuple[list[float], float]:
        """(host-corrected op times, host-corrected wall time)."""
        times = [t * f for t, f in zip(self.seconds, self.host_factors())]
        return times, self.wall * sum(times) / sum(self.seconds)

    def first_outputs(self) -> dict[str, object]:
        """The first output seen for each key that ran."""
        seen: dict[str, object] = {}
        for i, out in zip(self.index, self.outputs):
            seen.setdefault(self.ops[i].key, out)
        return seen


def timed_loop(ops: list[Op], seconds: float, tracer: Tracer, *,
               full_pass: bool = False, trace_share: float = 1.0,
               seed: int = 0, calibration: Calibration = PYTHON_LOOP) -> LoopResult:
    """Run ``ops`` in order, cycling, one at a time, until ``seconds`` pass.

    One client in a closed loop: each op starts when the previous one
    ends.  ``full_pass`` keeps going past the deadline until every input
    has run once.  With a tracer on, each op is traced with probability
    ``trace_share`` (seeded), so traced and untraced ops share one input
    mix and their medians give the tracing overhead.  Between ops, at
    least CALIBRATION_EVERY_S apart, ``calibration`` runs; its time is
    kept apart and left out of ``wall``.
    """
    coin = random.Random(seed)
    result = LoopResult(ops=ops, calibration=calibration)
    enabled = tracer.enabled
    start = time.perf_counter()
    deadline = start + seconds
    distinct = len({op.key for op in ops})
    seen: set[str] = set()
    i = 0
    end = start
    calibrated = -math.inf
    while True:
        if end - calibrated >= CALIBRATION_EVERY_S:
            result.calibrations.append(calibration.seconds())
            result.calibrated_at.append(i)
            calibrated = end
        op = ops[i % len(ops)]
        traced = enabled and coin.random() < trace_share
        tracer.enabled = traced
        tracer.op = i
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            try:
                out = op.call()
            except Exception as exc:  # the loop must survive and count it
                out = Crashed(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        result.index.append(i % len(ops))
        result.seconds.append(end - t0)
        result.traced.append(traced)
        result.outputs.append(out)
        seen.add(op.key)
        i += 1
        if end >= deadline and (not full_pass or len(seen) == distinct):
            break
    tracer.enabled = enabled
    tracer.op = None
    result.wall = end - start - sum(result.calibrations)
    return result


def run_once(ops: list[Op], tracer: Tracer) -> LoopResult:
    """One pass over ``ops`` with every call traced (layer probes)."""
    return timed_loop(ops, 0.0, tracer, full_pass=True)


def median(values) -> float:
    return float(statistics.median(values))


def call_seconds(tracer: Tracer, name: str, call: Callable[[], object],
                 repeats: int) -> float:
    """Median wall time of ``repeats`` traced calls (layer probes)."""
    times = []
    for _ in range(repeats):
        with tracer.span(name):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
    return median(times)


def tail(values, cap: float = 99.0) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile, at most
    ``cap``, that leaves at least ten values above it, and never below the
    median.

    Below 22 values no percentile above the median leaves ten values
    above it, and the median (the upper one of an even count) is
    returned.  Above 1100 values the cap binds: there the eleventh-largest
    value is a rare host stall rather than a slow input.
    """
    xs = sorted(values)
    n = len(xs)
    k = max(n // 2, min(n - 11, math.ceil(cap / 100.0 * n) - 1))
    return xs[k], 100.0 * (k + 1) / n, n


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from ``src`` and
    the user's default Monte Carlo pool."""
    env = {k: v for k, v in os.environ.items() if k != "TAILBALANCE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(args: list[str], timeout: float = 120.0
              ) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child Python, wait for it, and return (wall seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    return time.perf_counter() - t0, proc


def interpreter_seconds(repeats: int = 5) -> float:
    """Median wall time of a bare interpreter start: the host calibration."""
    return median(run_child(["-c", "pass"])[0] for _ in range(repeats))


def cpu_ticks() -> tuple[int, int] | None:
    """(all, steal) CPU ticks of the host since boot from /proc/stat, or
    None where that file is absent.  Steal is time the hypervisor gave
    to other guests: the visible part of host drift."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def git_sha() -> str | None:
    """HEAD of the git checkout, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, mc_workers: int, interpreter_s: float,
                steal: float | None) -> dict:
    from importlib import metadata

    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "git_sha": git_sha(),
        "seed": seed,
        "mc_workers": mc_workers,
        "cli.interpreter_s": interpreter_s,
        "host.steal_share": steal,
    }
