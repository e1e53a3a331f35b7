"""Command-line front end.

Every subcommand prints a reproducibility header (artifact version plus
the fully resolved command spec), then plot-ready rows in CSV or JSON.
Exit codes: 0 success, 1 for usage and validation problems (the message
names the offending field) and for an allocation the machine cannot
serve (``error: not enough memory: ...``), 2 when a solver reports a
mathematical degeneracy or a verification fails.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

# Only `condorcet` needs scipy.stats, and the condorcet_* functions import
# it themselves.  It stays here because the traced benchmark probe
# (bench/run.py --trace 1) reads the scipy.stats line of
# `python -X importtime -c "import tailbalance.cli"` and fails without it;
# it goes once the benchmark catches up (ROADMAP item 1).
import scipy.stats  # noqa: F401

from . import __version__
from .alpha import (
    RESIDUAL_TOL,
    Affine,
    AlphaSpec,
    LinearAbility,
    SolvedCdf,
    Tabulated,
    check_grid,
)
from .errors import DomainError, SolverError
from .jury import (
    CondorcetModel,
    JuryConfig,
    condorcet_curve,
    exact_verdict_probability,
    monte_carlo_verdict,
    order_scan,
)
from .signals import Prior, StateOfNature, posterior_from_signal, sample_signal
from .solvers import (
    DEFAULT_GRID,
    alt_decomposition_solver,
    closed_form_linear_odds,
    residual_check,
    solve_balanced,
    solve_odds,
)

_H_KEYWORDS = ("odds", "balanced", "closed-form", "decomposition")


def _fmt17(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(subcommand: str, output_format: str, params: dict, columns, rows,
          comments=(), extra_metadata=None) -> None:
    """Write the header and rows of one run.  The header carries the fully
    resolved spec (sorted keys, no timestamps), so any emitted file states
    exactly how to regenerate itself."""
    spec = {"format": output_format, "params": params, "subcommand": subcommand}
    # one write: click.echo flushes on every call
    if output_format == "csv":
        echo = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        lines = [f"# tailbalance {__version__} {echo}", ",".join(columns)]
        lines.extend(",".join([_fmt17(v) for v in row]) for row in rows)
        lines.extend(f"# {comment}" for comment in comments)
        click.echo("\n".join(lines))
    else:
        metadata = {"version": __version__, "spec": spec}
        if extra_metadata:
            metadata.update(extra_metadata)
        doc = {"metadata": metadata, "columns": list(columns), "rows": list(rows)}
        click.echo(json.dumps(doc, sort_keys=True, indent=2))


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read --config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--config {path!r} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise click.UsageError(f"--config {path!r} must hold a JSON object")
    return obj


def _pick(flag_value, cfg: dict, key: str, default=None):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _require(flag_value, cfg: dict, key: str):
    """``_pick`` for a parameter with no default; its flag is ``--<key>``."""
    value = _pick(flag_value, cfg, key)
    if value is None:
        raise click.UsageError(
            f"missing required parameter: --{key} (or '{key}' in --config)"
        )
    return value


def _resolve_alpha(cfg, kind, theta, ability, intercept, slope):
    """Build (AlphaSpec, Prior) from flags + config.  The prior is --theta
    when given, else the spec's own alpha(-1)."""
    kind = _pick(kind, cfg, "kind", "linear")
    theta_val = _pick(theta, cfg, "theta")
    if kind == "linear":
        a = _pick(ability, cfg, "a")
        if a is None:
            raise click.UsageError("linear alpha needs --a (or 'a' in --config)")
        spec = LinearAbility(0.5 if theta_val is None else theta_val, a)
    elif kind == "affine":
        b = _pick(intercept, cfg, "intercept")
        s = _pick(slope, cfg, "slope")
        if b is None or s is None:
            raise click.UsageError(
                "affine alpha needs --intercept and --slope (or config keys)"
            )
        spec = Affine(b, s)
    elif kind == "table":
        points = cfg.get("points")
        if points is None:
            raise click.UsageError("table alpha needs 'points' in --config")
        spec = Tabulated(points)
    else:
        raise click.UsageError(f"unknown alpha kind: {kind!r}")
    return spec, Prior(spec(-1.0) if theta_val is None else theta_val)


def _output_grid(grid: int) -> np.ndarray:
    """The --grid points of ``solve`` and ``posterior``: ``check_grid(grid)``,
    so at odd sizes they are ``verify --grid``'s points."""
    if grid < 2:
        raise click.UsageError(f"--grid must be at least 2, got {grid}")
    return check_grid(grid)


def _read_h_table(path: str) -> SolvedCdf:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read --h table {path!r}: {exc}")
    points = []
    header = False  # at most one non-numeric line, before the first row
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except (ValueError, IndexError):
            if points or header:
                raise click.UsageError(f"malformed row in --h table {path!r}: {line!r}")
            header = True
    if len(points) < 2:
        raise click.UsageError(f"--h table {path!r} contains no data rows")
    return SolvedCdf.from_table(points)


def _resolve_h(h_source, alpha: AlphaSpec, prior: Prior, allow_uniform: bool):
    if h_source == "odds":
        return solve_odds(alpha, prior, allow_uniform_limit=allow_uniform)
    if h_source == "balanced":
        return solve_balanced(alpha, allow_uniform_limit=allow_uniform)
    if h_source == "closed-form":
        if not isinstance(alpha, LinearAbility):
            raise click.UsageError("--h closed-form needs a linear alpha (--a)")
        return closed_form_linear_odds(
            alpha.a, prior, allow_uniform_limit=allow_uniform or prior.theta == 0.5)
    if h_source == "decomposition":
        if not isinstance(alpha, LinearAbility):
            raise click.UsageError("--h decomposition needs a linear alpha (--a)")
        if prior.theta != 0.5:
            raise click.UsageError("--h decomposition is defined for --theta 0.5 only")
        return alt_decomposition_solver(alpha.a)
    return _read_h_table(h_source)


def _ordering_str(abilities) -> str:
    return ";".join(format(float(a), ".17g") for a in abilities)


def _resolve_jury(cfg, abilities, theta, tie_break, trials=None, seed=None) -> JuryConfig:
    if abilities is not None:
        try:
            abilities = [float(x) for x in abilities.split(",")]
        except ValueError:
            raise click.UsageError(
                f"--abilities must be comma-separated numbers, got {abilities!r}"
            )
    flags = {"abilities": abilities, "theta": theta, "tie_break": tie_break,
             "trials": trials, "seed": seed}
    merged = {k: v for k, v in cfg.items() if k in flags}
    merged.update((k, v) for k, v in flags.items() if v is not None)
    _require(abilities, cfg, "abilities")
    return JuryConfig.from_json(merged)


def _emit_verdicts(subcommand: str, output_format: str, config: JuryConfig,
                   verdicts, **params) -> None:
    """Write (ordering, p_correct, method, stderr) rows under a spec holding
    the jury's abilities, theta and tie rule plus ``params``."""
    params = {
        "abilities": list(config.abilities),
        "theta": config.prior.theta,
        "tie_break": config.tie_break.value,
        **params,
    }
    rows = [[_ordering_str(ordering), float(p), method, float(stderr)]
            for ordering, p, method, stderr in verdicts]
    _emit(subcommand, output_format, params, ["ordering", "p_correct", "method", "stderr"],
          rows)


_config_option = click.option("--config", "config_path", type=str, default=None,
                              help="JSON file of parameters; flags override it.")
_theta_option = click.option("--theta", type=float, default=None,
                             help="Prior probability of state A.")
_ability_option = click.option("--a", "ability", type=float, default=None,
                               help="Ability of the signal distribution (and of the "
                                    "linear alpha family).")
_uniform_option = click.option("--allow-uniform-limit", is_flag=True, default=False,
                               help="Accept the uniform-CDF limit for degenerate "
                                    "(constant) alpha.")

_alpha_options = [
    _config_option,
    click.option("--alpha", "alpha_kind",
                 type=click.Choice(["linear", "affine", "table"]), default=None,
                 help="Shape of the target function (default linear)."),
    _theta_option,
    _ability_option,
    click.option("--intercept", type=float, default=None,
                 help="Intercept of an affine alpha."),
    click.option("--slope", type=float, default=None,
                 help="Slope of an affine alpha."),
]

_jury_options = [
    _config_option,
    click.option("--abilities", type=str, default=None,
                 help="Comma-separated abilities in voting order."),
    _theta_option,
    click.option("--tie-break", "tie_break",
                 type=click.Choice(["follow_signal", "vote_a", "vote_b"]),
                 default=None, help="Rule at posterior exactly 1/2."),
]

_format_option = click.option("--format", "output_format",
                              type=click.Choice(["csv", "json"]), default="csv",
                              show_default=True, help="Output format.")


def _apply(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@click.group()
@click.version_option(version=__version__, prog_name="tailbalance")
def cli():
    """Tail-balance solvers, signal sampling, and jury simulation."""


@cli.command()
@_apply(_alpha_options)
@click.option("--h", "h_source", type=click.Choice(_H_KEYWORDS), default="odds",
              show_default=True, help="Which solver produces H.")
@click.option("--grid", type=int, default=201, show_default=True,
              help="Number of output points on [-1, +1].")
@_uniform_option
@_format_option
def solve(config_path, alpha_kind, theta, ability, intercept, slope, h_source,
          grid, allow_uniform_limit, output_format):
    """Solve for the CDF induced by an alpha spec; emit (t, H) rows."""
    cfg = _load_config(config_path)
    alpha, prior = _resolve_alpha(cfg, alpha_kind, theta, ability, intercept, slope)
    ts = _output_grid(grid)
    h = _resolve_h(h_source, alpha, prior, allow_uniform_limit)
    if not h.is_valid_cdf:
        click.echo(f"refused: the solved H is not a valid CDF (H(-1) = {_fmt17(h(-1.0))}, "
                   f"H(+1) = {_fmt17(h(1.0))})", err=True)
        sys.exit(2)
    params = {
        "alpha": alpha.to_json(),
        "theta": prior.theta,
        "h": h_source,
        "grid": grid,
        "allow_uniform_limit": bool(allow_uniform_limit),
    }
    rows = [[float(t), float(v)] for t, v in zip(ts, h(ts))]
    _emit("solve", output_format, params, ["t", "H"], rows)


@cli.command()
@_apply(_alpha_options)
@click.option("--h", "h_source", type=str, default="odds", show_default=True,
              help="Solver keyword (odds, balanced, closed-form, decomposition) "
                   "or a path to a CSV of t,H rows.")
@click.option("--grid", type=int, default=DEFAULT_GRID, show_default=True,
              help="Check-grid size (odd, >= 3).")
@click.option("--tol", type=float, default=RESIDUAL_TOL, show_default=True,
              help="Verification fails (exit 2) if the max residual exceeds this.")
@_uniform_option
@_format_option
def verify(config_path, alpha_kind, theta, ability, intercept, slope, h_source,
           grid, tol, allow_uniform_limit, output_format):
    """Check a candidate H against the tail-balance equation for alpha."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise click.UsageError(f"--tol must be a finite number >= 0, got {tol!r}")
    cfg = _load_config(config_path)
    alpha, prior = _resolve_alpha(cfg, alpha_kind, theta, ability, intercept, slope)
    h = _resolve_h(h_source, alpha, prior, allow_uniform_limit)
    report = residual_check(h, alpha, prior, grid)
    params = {
        "alpha": alpha.to_json(),
        "theta": prior.theta,
        "h": h_source,
        "grid": grid,
        "tol": tol,
    }
    rows = [[float(t), float(hv), float(av), float(rv)]
            for t, hv, av, rv in zip(report.t, report.h, report.alpha,
                                     report.residual)]
    summary = (f"max_residual {_fmt17(report.max_residual)} "
               f"at t={_fmt17(report.argmax_t)}")
    _emit("verify", output_format, params, ["t", "H", "alpha", "residual"], rows,
          comments=[summary],
          extra_metadata={"max_residual": report.max_residual,
                          "argmax_t": report.argmax_t})
    if not report.max_residual <= tol:
        click.echo(
            f"verification failed: max residual {_fmt17(report.max_residual)} "
            f"exceeds --tol {_fmt17(tol)}",
            err=True,
        )
        sys.exit(2)


@cli.command()
@_config_option
@_ability_option
@click.option("--state", type=click.Choice(["A", "B"]), default="A",
              show_default=True, help="Conditioning state of nature.")
@click.option("--n", "count", type=int, default=100, show_default=True,
              help="Number of draws.")
@click.option("--seed", type=int, default=None, help="RNG seed (default 0).")
@_format_option
def sample(config_path, ability, state, count, seed, output_format):
    """Draw signals by inverse transform; emit (i, signal) rows."""
    cfg = _load_config(config_path)
    a = _require(ability, cfg, "a")
    seed_val = _pick(seed, cfg, "seed", 0)
    draws = sample_signal(a, StateOfNature[state], count, seed_val)
    # both values passed sample_signal's checks
    params = {"a": float(a), "state": state, "n": int(count), "seed": int(seed_val)}
    rows = [[i, float(s)] for i, s in enumerate(draws)]
    _emit("sample", output_format, params, ["i", "signal"], rows)


@cli.command()
@_config_option
@_ability_option
@_theta_option
@click.option("--s", "signal", type=float, default=None,
              help="Evaluate at one signal instead of a grid.")
@click.option("--grid", type=int, default=201, show_default=True,
              help="Grid size over [-1, +1] when --s is omitted.")
@_format_option
def posterior(config_path, ability, theta, signal, grid, output_format):
    """Posterior probability of state A after observing a signal."""
    cfg = _load_config(config_path)
    a = _require(ability, cfg, "a")
    prior = Prior(_pick(theta, cfg, "theta", 0.5))
    if signal is not None:
        ts = np.asarray([float(signal)])
    else:
        ts = _output_grid(grid)
    ps = np.asarray(posterior_from_signal(a, ts, prior), dtype=float)
    params = {
        "a": float(a), "theta": prior.theta,
        "s": None if signal is None else float(signal),
        "grid": int(grid),
    }
    rows = [[float(t), float(p)] for t, p in zip(ts, ps)]
    _emit("posterior", output_format, params, ["t", "posterior"], rows)


@cli.command()
@_apply(_jury_options)
@click.option("--trials", type=int, default=None, help="Monte Carlo trials.")
@click.option("--seed", type=int, default=None, help="RNG seed.")
@click.option("--conditional", is_flag=True, default=False,
              help="Stratify trials by state for lower variance.")
@_format_option
def simulate(config_path, abilities, theta, tie_break, trials, seed,
             conditional, output_format):
    """Monte Carlo estimate of the majority verdict's accuracy."""
    cfg = _load_config(config_path)
    config = _resolve_jury(cfg, abilities, theta, tie_break, trials, seed)
    stats = monte_carlo_verdict(config, conditional=conditional)
    _emit_verdicts("simulate", output_format, config,
                   [(config.abilities, stats.p_correct, stats.method.value, stats.stderr)],
                   trials=config.trials, seed=config.seed, conditional=bool(conditional))


@cli.command()
@_apply(_jury_options)
@_format_option
def exact(config_path, abilities, theta, tie_break, output_format):
    """Exact majority-verdict accuracy by history enumeration."""
    cfg = _load_config(config_path)
    config = _resolve_jury(cfg, abilities, theta, tie_break)
    stats = exact_verdict_probability(config)
    _emit_verdicts("exact", output_format, config,
                   [(config.abilities, stats.p_correct, stats.method.value, stats.stderr)])


@cli.command("order-scan")
@_apply(_jury_options)
@_format_option
def order_scan_command(config_path, abilities, theta, tie_break, output_format):
    """Exact accuracy of every voting order, best first."""
    cfg = _load_config(config_path)
    config = _resolve_jury(cfg, abilities, theta, tie_break)
    rows = order_scan(config.abilities, config.prior, config.tie_break)
    _emit_verdicts("order-scan", output_format, config,
                   [(row.ordering, row.p_correct, "exact", 0.0) for row in rows])


@cli.command()
@_config_option
@click.option("--p", "p_value", type=float, default=None,
              help="Per-juror correctness probability, in (1/2, 1].")
@click.option("--n-max", "n_max", type=int, default=None,
              help="Largest (odd) jury size (default 101).")
@_format_option
def condorcet(config_path, p_value, n_max, output_format):
    """Majority accuracy of the binary baseline for odd jury sizes."""
    cfg = _load_config(config_path)
    largest = CondorcetModel(_require(p_value, cfg, "p"), _pick(n_max, cfg, "n_max", 101))
    curve = condorcet_curve(largest.p, largest.n)
    rows = [[int(n), float(v)] for n, v in curve]
    _emit("condorcet", output_format, {"p": largest.p, "n_max": largest.n},
          ["n", "p_correct"], rows)


def main(argv=None):
    """Console entry point mapping errors to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except MemoryError as exc:
        click.echo(f"error: not enough memory: {exc}", err=True)
        sys.exit(1)
    except SolverError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
