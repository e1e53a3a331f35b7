"""tailbalance benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload exact-walk --seed 7 --seconds 20 --trace 0

Runs the package from ``src`` in this checkout.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it report the environment, the op counts behind each metric and
every failed check.  Results and spans are also written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from harness import (
    CHILD_IMPORTS,
    OUT,
    PYTHON_LOOP,
    SRC,
    Tracer,
    call_seconds,
    cpu_ticks,
    environment,
    interpreter_seconds,
    median,
    run_child,
    run_once,
    steal_share,
    tail,
    timed_loop,
)

WORKLOADS = ("cli-mix", "exact-walk", "mc-sim", "solve-sweep")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def _module(workload: str):
    import wl_cli
    import wl_exact
    import wl_mc
    import wl_solve

    return {"cli-mix": wl_cli, "exact-walk": wl_exact, "mc-sim": wl_mc,
            "solve-sweep": wl_solve}[workload]


def _import_package() -> None:
    """Import tailbalance from this checkout's src, or exit with an error."""
    if not (SRC / "tailbalance" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'tailbalance'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import tailbalance
    except ImportError as exc:
        sys.exit(f"error: cannot import tailbalance from {SRC}: {exc}")
    if Path(tailbalance.__file__).resolve().parent != (SRC / "tailbalance").resolve():
        sys.exit(f"error: tailbalance resolved to {tailbalance.__file__}, not {SRC}")


def _op_failures(loop, verdict: dict) -> list[str | None]:
    """Failure reason per op run: its input's check, or a changed output."""
    first = loop.first_outputs()
    reasons = []
    for i, out in zip(loop.index, loop.outputs):
        key = loop.ops[i].key
        if out != first[key]:
            reasons.append("output differs from the first run of the same input")
        else:
            reasons.append(verdict.get(key, "not checked"))
    return reasons


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(host-corrected, raw) median wall time of fresh processes that
    import the package and build the workload's seeded inputs.  The
    child-imports calibration runs before each process and after the
    last; their median gives the set-up phase's host factor."""
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(CHILD_IMPORTS.seconds())
        seconds, proc = run_child([str(Path(__file__).resolve()), "--setup-only",
                                   "--workload", workload, "--seed", str(seed)])
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed: {proc.stderr.decode(errors='replace')}")
        times.append(seconds)
    calibrations.append(CHILD_IMPORTS.seconds())
    return median(times) * CHILD_IMPORTS.factor(calibrations), median(times)


def _import_seconds(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Cumulative import times from ``python -X importtime``."""
    samples: dict[str, list[float]] = {"cli.import_s": [], "jury.import_s": [],
                                       "jury.scipy_stats_import_s": []}
    code = ("import time; t = time.perf_counter(); import tailbalance.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPEATS):
        with tracer.span("cli.import"):
            _, proc = run_child(["-X", "importtime", "-c", code])
        samples["cli.import_s"].append(float(proc.stdout))
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) == "tailbalance.jury":
                samples["jury.import_s"].append(int(m.group(1)) * 1e-6)
            elif m and m.group(2) == "scipy.stats":
                samples["jury.scipy_stats_import_s"].append(int(m.group(1)) * 1e-6)
    return {name: (median(values), "s") for name, values in samples.items()}


def _signal_rates(tracer: Tracer, repeats: int = 30) -> dict[str, tuple[float, str]]:
    import numpy as np

    from tailbalance import StateOfNature, cdf_given_A, quantile_given_state, sample_signal
    # one Monte Carlo chunk: the array size mc-sim hands to signals
    from tailbalance.jury import _CHUNK_TRIALS as SIGNAL_ARRAY

    rng = np.random.default_rng(0)
    u = rng.random(SIGNAL_ARRAY)
    t = 2.0 * u - 1.0
    calls = {
        "signals.quantile_draws_per_s": lambda: quantile_given_state(0.6, u, StateOfNature.A),
        "signals.sample_draws_per_s": lambda: sample_signal(0.6, StateOfNature.A,
                                                            SIGNAL_ARRAY, rng),
        "signals.cdf_evals_per_s": lambda: cdf_given_A(0.6, t),
    }
    return {name: (SIGNAL_ARRAY / call_seconds(tracer, name.rsplit("_", 3)[0], call, repeats),
                   "1/s")
            for name, call in calls.items()}


def _layer_metrics(workload: str, seed: int, session, loop, main: Tracer,
                   interpreter_s: float, failures: list, notes: list[str]) -> dict:
    probe = Tracer(True)
    metrics = {"cli.interpreter_s": (interpreter_s, "s")}
    for name in WORKLOADS:
        module = _module(name)
        if name == workload:
            metrics.update(module.layer_metrics(session, loop, probe))
            continue
        other = module.build(seed, probe, probe=True)
        try:
            probe_loop = run_once(other.ops, probe)
            verdict = other.check(probe_loop.first_outputs())
            metrics.update(module.layer_metrics(other, probe_loop, probe))
        finally:
            getattr(other, "close", lambda: None)()
        for reason in _op_failures(probe_loop, verdict):
            if reason is not None:
                notes.append(f"probe {name}: {reason}")
    metrics.update(_import_seconds(probe))
    metrics.update(_signal_rates(probe))
    traced = [s for s, on in zip(loop.seconds, loop.traced) if on]
    plain = [s for s, on in zip(loop.seconds, loop.traced) if not on]
    if traced and plain:
        overhead = (median(traced) - median(plain)) / median(plain)
    else:
        overhead = 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    traced_wall = sum(main.durations("bench.op"))
    for layer, seconds in main.self_times().items():
        metrics[f"trace.{layer}_self_share"] = (seconds / traced_wall, "ratio")
    metrics["failed_op_ratio"] = (sum(r is not None for r in failures) / len(failures),
                                  "ratio")
    probe.dump(OUT / f"{workload}-seed{seed}-probe-spans.json")
    main.dump(OUT / f"{workload}-seed{seed}-spans.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_package()
    os.environ.pop("TAILBALANCE_THREADS", None)
    module = _module(args.workload)
    if args.setup_only:
        getattr(module.build(args.seed, Tracer(False)), "close", lambda: None)()
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    setup_s, raw_setup_s = (None, None) if args.trace else _setup_seconds(args.workload,
                                                                          args.seed)
    interpreter_s = interpreter_seconds()
    tracer = Tracer(bool(args.trace))
    session = module.build(args.seed, tracer)
    ticks = cpu_ticks()
    try:
        loop = timed_loop(session.ops, args.seconds, tracer, full_pass=bool(args.trace),
                          trace_share=0.5, seed=args.seed,
                          calibration=getattr(module, "calibration", lambda: PYTHON_LOOP)())
        steal = steal_share(ticks, cpu_ticks())
        verdict = session.check(loop.first_outputs())
        failures = _op_failures(loop, verdict)
        # the package's known defects, kept out of the timed inputs
        defects = _module("solve-sweep").defect_probe(args.seed)
        notes: list[str] = []
        if args.trace:
            metrics = _layer_metrics(args.workload, args.seed, session, loop, tracer,
                                     interpreter_s, failures, notes)
            metrics.update({f"solvers.{d.name}_defect_ratio": (d.ratio, "ratio")
                            for d in defects})
        else:
            # end-to-end times are host-corrected; the raw ones go to notes
            times, wall = loop.corrected()
            tail_s, tail_pct, count = tail(times)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_s": (median(times), "s"),
                "op_tail_s": (tail_s, "s"),
                "ops_per_s": (count / wall, "1/s"),
            }
            factors = loop.host_factors()
            notes.append(f"host factor median {median(factors):.6g} range {min(factors):.6g}"
                         f"-{max(factors):.6g} from {len(loop.calibrations)} "
                         f"{loop.calibration.name} calibrations")
            notes.append(f"raw setup_s {raw_setup_s:.6g} op_p50_s {median(loop.seconds):.6g} "
                         f"op_tail_s {tail(loop.seconds)[0]:.6g} "
                         f"ops_per_s {count / loop.wall:.6g}")
            notes.append(f"op_tail_s is p{tail_pct:.1f} of {count} ops")
            if args.workload == "mc-sim":
                notes.append(f"juror_draws_per_s {module.juror_draws_per_s(session, loop):.6g}")
    finally:
        getattr(session, "close", lambda: None)()

    mc = _module("mc-sim")
    env = environment(args.seed, mc.resolved_workers(max(mc.TRIALS.values())),
                      interpreter_s, steal)
    failed = sum(r is not None for r in failures)
    attempted = len(failures)
    by_reason: dict[str, int] = {}
    for i, reason in zip(loop.index, failures):
        if reason is not None:
            label = f"{loop.ops[i].key}: {reason}"
            by_reason[label] = by_reason.get(label, 0) + 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"ops {attempted} in {loop.wall:.3f} s, failed {failed} "
          f"(failed_op_ratio {failed / attempted:.6g})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for line in notes:
        print(f"note {line}")
    for label, times in sorted(by_reason.items()):
        print(f"failure x{times} {label}")
    for d in defects:
        print(f"known defect {d.name}: {d.failed} of {d.inputs} unrestricted inputs fail"
              + (f", first {d.example}" if d.example else ""))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, notes=notes, failures=by_reason,
                  known_defects=[dataclasses.asdict(d) for d in defects],
                  op_seconds=loop.seconds,
                  op_keys=[loop.ops[i].key for i in loop.index],
                  calibration=loop.calibration.name, calibrations=loop.calibrations,
                  calibrated_at=loop.calibrated_at)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
