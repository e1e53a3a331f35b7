import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbalance import Affine, LinearAbility, Tabulated
from tailbalance.alpha import check_grid
from tailbalance.cli import main

RUN = [sys.executable, "-m", "tailbalance"]


def run_cli(*args, check=None):
    """Run ``main`` in this process; returns its exit code and output as a
    CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    result = subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())
    if check is not None:
        assert result.returncode == check, result.stderr
    return result


def run_module(*args, check=None):
    """``python -m tailbalance`` in a child process, for the entry point
    itself."""
    result = subprocess.run(RUN + list(args), capture_output=True, text=True)
    if check is not None:
        assert result.returncode == check, result.stderr
    return result


def csv_rows(stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    header, data = lines[0], lines[1:]
    return header.split(","), [ln.split(",") for ln in data]


def header_spec(stdout):
    first = stdout.splitlines()[0]
    assert first.startswith("# tailbalance ")
    payload = first.split(" ", 3)
    return payload[2], json.loads(payload[3])


class TestSolveCommand:
    def test_csv_shape_and_endpoints(self):
        result = run_cli("solve", "--a", "0.8", "--grid", "11", check=0)
        columns, rows = csv_rows(result.stdout)
        assert columns == ["t", "H"]
        assert len(rows) == 11
        assert float(rows[0][0]) == -1.0
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == 1.0

    def test_header_echoes_resolved_spec(self):
        result = run_cli("solve", "--a", "0.8", "--grid", "11", check=0)
        version, spec = header_spec(result.stdout)
        assert spec["subcommand"] == "solve"
        assert spec["params"]["grid"] == 11
        assert spec["params"]["alpha"]["a"] == 0.8
        assert spec["params"]["theta"] == 0.5

    def test_json_format_carries_no_timestamps(self):
        result = run_cli("solve", "--a", "0.8", "--grid", "5",
                         "--format", "json", check=0)
        doc = json.loads(result.stdout)
        assert set(doc) == {"columns", "metadata", "rows"}
        assert set(doc["metadata"]) == {"spec", "version"}
        assert len(doc["rows"]) == 5

    def test_solver_keywords_agree(self):
        outputs = []
        for keyword in ("odds", "balanced", "closed-form", "decomposition"):
            result = run_cli("solve", "--a", "0.5", "--grid", "21",
                             "--h", keyword, check=0)
            _, rows = csv_rows(result.stdout)
            outputs.append([float(r[1]) for r in rows])
        for other in outputs[1:]:
            assert all(abs(x - y) <= 1e-12 for x, y in zip(outputs[0], other))

    def test_degenerate_ability_exits_two(self):
        result = run_cli("solve", "--a", "0")
        assert result.returncode == 2
        assert result.stderr.strip()

    def test_invalid_cdf_is_refused(self):
        # at a near-zero ability the denominator cancels to ~1e-10 and H(+1)
        # overshoots 1 by ~1e-8
        result = run_cli("solve", "--theta", "0.8", "--a", "1e-8")
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "not a valid CDF" in result.stderr

    def test_uniform_limit_opt_in(self):
        result = run_cli("solve", "--a", "0", "--allow-uniform-limit",
                         "--grid", "5", check=0)
        _, rows = csv_rows(result.stdout)
        assert [float(r[1]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_missing_ability_exits_one(self):
        result = run_cli("solve")
        assert result.returncode == 1
        assert "--a" in result.stderr

    def test_prior_whose_odds_overflow_is_refused(self):
        result = run_cli("solve", "--theta", "1e-310", "--a", "0.7")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: theta = 1e-310 is too small: the prior odds (1 - theta)/theta overflow"
        ]

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "alpha.json"
        cfg.write_text(json.dumps({"kind": "linear", "theta": 0.4, "a": 0.7}))
        via_config = run_cli("solve", "--config", str(cfg), "--grid", "11",
                             check=0)
        via_flags = run_cli("solve", "--theta", "0.4", "--a", "0.7",
                            "--grid", "11", check=0)
        assert via_config.stdout == via_flags.stdout

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "alpha.json"
        cfg.write_text(json.dumps({"a": 0.7}))
        overridden = run_cli("solve", "--config", str(cfg), "--a", "0.3",
                             "--grid", "11", check=0)
        direct = run_cli("solve", "--a", "0.3", "--grid", "11", check=0)
        assert overridden.stdout == direct.stdout


class TestVerifyCommand:
    def test_solver_output_verifies_cleanly(self):
        result = run_cli("verify", "--a", "0.6", "--h", "closed-form",
                         "--grid", "101", check=0)
        columns, rows = csv_rows(result.stdout)
        assert columns == ["t", "H", "alpha", "residual"]
        assert len(rows) == 101
        assert max(float(r[3]) for r in rows) <= 1e-12
        assert "# max_residual" in result.stdout

    def test_round_trip_through_table_file(self, tmp_path):
        table = tmp_path / "h.csv"
        solved = run_cli("solve", "--theta", "0.4", "--a", "0.7",
                         "--grid", "2001", check=0)
        table.write_text(solved.stdout)
        result = run_cli("verify", "--theta", "0.4", "--a", "0.7",
                         "--h", str(table), "--grid", "1001",
                         "--tol", "1e-6", check=0)
        assert result.returncode == 0

    def test_tolerance_failure_exits_two(self, tmp_path):
        table = tmp_path / "h.csv"
        solved = run_cli("solve", "--a", "0.7", "--grid", "51", check=0)
        table.write_text(solved.stdout)
        result = run_cli("verify", "--a", "0.9", "--h", str(table),
                         "--grid", "101", "--tol", "1e-10")
        assert result.returncode == 2
        assert "verification failed" in result.stderr

    def test_json_metadata_reports_max_residual(self):
        result = run_cli("verify", "--a", "0.6", "--h", "closed-form",
                         "--grid", "11", "--format", "json", check=0)
        doc = json.loads(result.stdout)
        assert "max_residual" in doc["metadata"]
        assert doc["metadata"]["max_residual"] <= 1e-12

    def test_unreadable_table_exits_one(self):
        result = run_cli("verify", "--a", "0.6", "--h", "/nonexistent/h.csv")
        assert result.returncode == 1

    @pytest.mark.parametrize("edit, row", [
        (lambda lines, i: lines[:i] + ["-1,oops"] + lines[i + 1:], "-1,oops"),
        (lambda lines, i: lines[:i] + ["t2,H2"] + lines[i:], "t2,H2"),
    ], ids=["bad-first-row", "second-header"])
    def test_table_skips_one_header_and_refuses_other_rows(self, edit, row, tmp_path):
        """Only one non-numeric line before the data is a header; any
        other is refused, by name, as a malformed row."""
        lines = run_cli("solve", "--a", "0.6", "--grid", "5", check=0).stdout.splitlines()
        first = lines.index("t,H") + 1
        table = tmp_path / "h.csv"
        table.write_text("\n".join(edit(lines, first)) + "\n")
        result = run_cli("verify", "--a", "0.6", "--h", str(table), "--grid", "5", check=1)
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            f"Error: malformed row in --h table {str(table)!r}: {row!r}")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12", "-inf"])
    def test_meaningless_tol_exits_one(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--a", "0.5", "--tol", tol])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"Error: --tol must be a finite number >= 0, got {float(tol)!r}")

    def test_zero_tol_is_accepted(self):
        # the closed form's residual on this grid is exactly 0
        run_cli("verify", "--a", "0.6", "--h", "closed-form", "--grid", "3",
                "--tol", "0", check=0)

    def test_csv_rows_then_summary_in_one_block(self, capsys):
        main(["verify", "--a", "0.6", "--h", "closed-form", "--grid", "3"])
        lines = capsys.readouterr().out.split("\n")
        assert lines[0].startswith("# tailbalance ")
        assert lines[1] == "t,H,alpha,residual"
        assert [ln.split(",")[0] for ln in lines[2:5]] == ["-1", "0", "1"]
        assert lines[5].startswith("# max_residual ")
        assert lines[6:] == [""]


class TestSampleCommand:
    def test_deterministic_rows(self):
        first = run_cli("sample", "--a", "0.5", "--n", "50", "--seed", "9",
                        check=0)
        second = run_cli("sample", "--a", "0.5", "--n", "50", "--seed", "9",
                         check=0)
        assert first.stdout == second.stdout
        _, rows = csv_rows(first.stdout)
        assert len(rows) == 50
        assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_different_seeds_differ(self):
        one = run_cli("sample", "--a", "0.5", "--n", "50", "--seed", "1",
                      check=0)
        two = run_cli("sample", "--a", "0.5", "--n", "50", "--seed", "2",
                      check=0)
        assert one.stdout != two.stdout

    def test_state_b_flag(self):
        result = run_cli("sample", "--a", "1.0", "--state", "B", "--n", "40",
                         "--seed", "4", check=0)
        _, rows = csv_rows(result.stdout)
        draws = [float(r[1]) for r in rows]
        # ability-1 state-B signals lean negative
        assert sum(d < 0 for d in draws) > len(draws) // 2


class TestPosteriorCommand:
    def test_single_signal_row(self):
        result = run_cli("posterior", "--a", "0.5", "--s", "0.5", check=0)
        _, rows = csv_rows(result.stdout)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(0.625, abs=1e-15)

    def test_grid_output_is_monotone(self):
        result = run_cli("posterior", "--a", "0.8", "--grid", "41", check=0)
        _, rows = csv_rows(result.stdout)
        ps = [float(r[1]) for r in rows]
        assert len(ps) == 41
        assert all(b > a for a, b in zip(ps, ps[1:]))

    def test_prior_flag_shifts_posterior(self):
        result = run_cli("posterior", "--a", "0.5", "--s", "0", "--theta",
                         "0.3", check=0)
        _, rows = csv_rows(result.stdout)
        assert float(rows[0][1]) == pytest.approx(0.3, abs=1e-15)


class TestJuryCommands:
    def test_exact_known_value(self):
        result = run_cli("exact", "--abilities", "1.0", check=0)
        _, rows = csv_rows(result.stdout)
        assert rows[0][0] == "1"
        assert float(rows[0][1]) == 0.75
        assert rows[0][2] == "exact"
        assert float(rows[0][3]) == 0.0

    def test_simulate_deterministic_and_near_exact(self):
        args = ("simulate", "--abilities", "0.5,0.9,0.1", "--trials", "20000",
                "--seed", "11")
        first = run_cli(*args, check=0)
        second = run_cli(*args, check=0)
        assert first.stdout == second.stdout
        _, rows = csv_rows(first.stdout)
        p_hat, stderr = float(rows[0][1]), float(rows[0][3])
        exact = run_cli("exact", "--abilities", "0.5,0.9,0.1", check=0)
        _, exact_rows = csv_rows(exact.stdout)
        assert abs(p_hat - float(exact_rows[0][1])) <= 3.0 * stderr
        assert rows[0][2] == "monte_carlo"

    def test_even_jury_exits_one(self):
        result = run_cli("exact", "--abilities", "0.5,0.5")
        assert result.returncode == 1
        assert "odd" in result.stderr

    def test_config_file_for_jury(self, tmp_path):
        cfg = tmp_path / "jury.json"
        cfg.write_text(json.dumps({"abilities": [0.5, 0.9, 0.1],
                                   "theta": 0.5}))
        via_config = run_cli("exact", "--config", str(cfg), check=0)
        via_flags = run_cli("exact", "--abilities", "0.5,0.9,0.1", check=0)
        _, config_rows = csv_rows(via_config.stdout)
        _, flag_rows = csv_rows(via_flags.stdout)
        assert config_rows == flag_rows

    def test_order_scan_lists_every_permutation(self):
        result = run_cli("order-scan", "--abilities", "0.9,0.5,0.1", check=0)
        _, rows = csv_rows(result.stdout)
        assert len(rows) == 6
        assert rows[0][0] == "0.5;0.90000000000000002;0.10000000000000001"
        probs = [float(r[1]) for r in rows]
        assert probs == sorted(probs, reverse=True)

    def test_malformed_abilities_exit_one(self):
        result = run_cli("exact", "--abilities", "0.5,high,0.1")
        assert result.returncode == 1


class TestCondorcetCommand:
    def test_known_prefix(self):
        result = run_cli("condorcet", "--p", "0.6", "--n-max", "5", check=0)
        _, rows = csv_rows(result.stdout)
        assert [int(r[0]) for r in rows] == [1, 3, 5]
        values = [float(r[1]) for r in rows]
        assert values[0] == pytest.approx(0.6, abs=1e-12)
        assert values[1] == pytest.approx(0.648, abs=1e-12)
        assert values[2] == pytest.approx(0.68256, abs=1e-12)

    def test_rejects_half_p(self):
        result = run_cli("condorcet", "--p", "0.5", "--n-max", "5")
        assert result.returncode == 1


class TestMissingParameters:
    @pytest.mark.parametrize("args,line", [
        (["sample"], "Error: missing required parameter: --a (or 'a' in --config)"),
        (["posterior", "--theta", "0.3"],
         "Error: missing required parameter: --a (or 'a' in --config)"),
        (["condorcet", "--n-max", "5"],
         "Error: missing required parameter: --p (or 'p' in --config)"),
        (["simulate", "--trials", "10"],
         "Error: missing required parameter: --abilities (or 'abilities' in --config)"),
        (["exact", "--theta", "0.3"],
         "Error: missing required parameter: --abilities (or 'abilities' in --config)"),
        (["order-scan"],
         "Error: missing required parameter: --abilities (or 'abilities' in --config)"),
        (["solve", "--theta", "0.3"],
         "Error: missing required parameter: --a (or 'a' in --config)"),
        # an empty field is not skipped: it would silently shrink the jury
        (["exact", "--abilities", "0.5,,0.6,0.7"],
         "Error: --abilities must be comma-separated numbers, got '0.5,,0.6,0.7'"),
        (["exact", "--abilities", ",0.5,"],
         "Error: --abilities must be comma-separated numbers, got ',0.5,'"),
    ])
    def test_exits_one_with_the_error_line(self, args, line, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == line

    @pytest.mark.parametrize("args,config,line", [
        (["solve", "--alpha", "affine", "--intercept", "0.6"], None,
         "Error: missing required parameter: --slope (or 'slope' in --config)"),
        (["solve", "--alpha", "affine", "--slope", "0.2"], None,
         "Error: missing required parameter: --intercept (or 'intercept' in --config)"),
        (["verify"], {"kind": "table"},
         "Error: missing required parameter: 'points' in --config"),
        (["solve"], {"kind": "bogus"}, "error: unknown alpha kind: 'bogus'"),
        # a key the file sets to null is missing, as is an absent one
        (["solve"], {"a": None}, "Error: missing required parameter: --a (or 'a' in --config)"),
    ])
    def test_alpha_refusals_exit_one_with_one_error_line(self, args, config, line,
                                                         tmp_path, capsys):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if l.lower().startswith("error")]
        assert errors == [line]
        assert captured.err.splitlines()[-1] == line


class TestWrongTypedConfig:
    @pytest.mark.parametrize("command,config,line", [
        ("exact", {"abilities": [0.5, 0.6, 0.7], "theta": "x"},
         "error: theta must be a number, got 'x'"),
        ("exact", {"abilities": "0.5,0.6,0.7"},
         "error: abilities must be a list of numbers, got '0.5,0.6,0.7'"),
        ("sample", {"a": "x"}, "error: ability must be a number, got 'x'"),
        ("simulate", {"abilities": [0.5, 0.6, 0.7], "trials": "many"},
         "error: trials must be an integer, got 'many'"),
        ("sample", {"a": 0.5, "seed": "x"}, "error: seed must be an integer, got 'x'"),
        ("sample", {"a": 0.5, "seed": [1]}, "error: seed must be an integer, got [1]"),
        ("condorcet", {"p": "x"}, "error: p must be a number, got 'x'"),
        ("condorcet", {"n_max": "x", "p": 0.6}, "error: n must be an integer, got 'x'"),
        ("condorcet", {"n_max": 5.9, "p": 0.6}, "error: n must be an integer, got 5.9"),
        ("solve", {"kind": "affine", "intercept": "x", "slope": 0.2},
         "error: intercept must be a number, got 'x'"),
        ("solve", {"kind": "affine", "intercept": 0.6, "slope": "x"},
         "error: slope must be a number, got 'x'"),
        ("solve", {"kind": "table", "points": 5},
         "error: points must be (t, alpha) pairs: 'int' object is not iterable"),
        # a JSON true is not read as 1
        ("simulate", {"abilities": [True, 0.5, 0.6], "trials": True},
         "error: ability must be a number, got True"),
        ("simulate", {"abilities": [0.4, 0.5, 0.6], "trials": True},
         "error: trials must be an integer, got True"),
        ("condorcet", {"p": True}, "error: p must be a number, got True"),
        ("condorcet", {"p": 0.6, "n_max": False}, "error: n must be an integer, got False"),
    ])
    def test_exits_one_with_one_error_line(self, command, config, line, tmp_path,
                                           capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]


class TestUnknownConfigKeys:
    """--config may set only the keys its subcommand reads; any other key
    is refused with one error line that names it."""

    @pytest.mark.parametrize("command,config,unknown,reads", [
        ("solve", {"a": 0.6, "grid": 5, "thetaa": 0.9}, "'grid', 'thetaa'",
         "a, intercept, kind, points, slope, theta"),
        ("verify", {"a": 0.6, "tol": 1.0}, "'tol'",
         "a, intercept, kind, points, slope, theta"),
        ("sample", {"a": 0.5, "n": 2}, "'n'", "a, seed"),
        ("posterior", {"a": 0.5, "s": 0.2}, "'s'", "a, theta"),
        ("simulate", {"abilities": [0.5], "conditional": True}, "'conditional'",
         "abilities, seed, theta, tie_break, trials"),
        ("exact", {"abilities": [0.5, 0.6, 0.7], "trials": 10}, "'trials'",
         "abilities, theta, tie_break"),
        ("order-scan", {"abilities": [0.5], "seed": 1}, "'seed'",
         "abilities, theta, tie_break"),
        ("condorcet", {"p": 0.6, "n": 5}, "'n'", "n_max, p"),
    ])
    def test_exits_one_naming_the_key(self, command, config, unknown, reads, tmp_path,
                                      capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = (f"Error: --config {str(path)!r} sets keys this subcommand does not "
                f"read: {unknown} (it reads {reads})")
        assert [l for l in captured.err.splitlines() if l.startswith("Error")] == [line]
        assert captured.err.splitlines()[-1] == line

    @pytest.mark.parametrize("command,config", [
        ("solve", {"kind": "linear", "a": 0.6, "theta": 0.4}),
        ("verify", {"kind": "affine", "intercept": 0.6, "slope": 0.2, "theta": 0.4}),
        ("solve", {"kind": "table", "points": [[-1.0, 0.3], [1.0, 0.8]]}),
        ("sample", {"a": 0.5, "seed": 3}),
        ("posterior", {"a": 0.5, "theta": 0.3}),
        ("simulate", {"abilities": [0.5], "theta": 0.4, "tie_break": "vote_a",
                      "trials": 10, "seed": 1}),
        ("exact", {"abilities": [0.5], "theta": 0.4, "tie_break": "vote_b"}),
        ("order-scan", {"abilities": [0.5, 0.6, 0.7], "theta": 0.4,
                        "tie_break": "vote_b"}),
        ("condorcet", {"p": 0.6, "n_max": 5}),
    ])
    def test_every_key_the_subcommand_reads_is_accepted(self, command, config, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run_cli(command, "--config", str(path), check=0)


class TestNullConfigKeys:
    """A key the --config object sets to null reads as absent: for every
    key each subcommand reads, the call prints the same bytes and exits
    with the same code as with the key left out (a required key is
    refused alike either way)."""

    @pytest.mark.parametrize("command,config,args", [
        ("solve", {"a": 0.6, "theta": 0.3}, ["--grid", "11"]),
        ("verify", {"kind": "affine", "intercept": 0.6, "slope": 0.2}, ["--grid", "11"]),
        ("sample", {"a": 0.5, "seed": 3}, ["--n", "5"]),
        ("posterior", {"a": 0.5, "theta": 0.3}, ["--grid", "5"]),
        ("simulate", {"abilities": [0.55, 0.7, 0.9], "theta": 0.4, "tie_break": "vote_a",
                      "trials": 1000, "seed": 1}, []),
        ("exact", {"abilities": [0.55, 0.7, 0.9], "theta": 0.4, "tie_break": "vote_a"}, []),
        ("order-scan", {"abilities": [0.55, 0.7, 0.9], "theta": 0.4,
                        "tie_break": "vote_b"}, []),
        ("condorcet", {"p": 0.6, "n_max": 5}, []),
    ])
    def test_prints_what_the_absent_key_prints(self, command, config, args, tmp_path):
        path = tmp_path / "config.json"
        for key in GRAMMAR[command][2]:
            rest = {k: v for k, v in config.items() if k != key}
            outputs = []
            for obj in (rest, {**rest, key: None}):
                path.write_text(json.dumps(obj))
                result = run_cli(command, *args, "--config", str(path))
                outputs.append((result.returncode, result.stdout, result.stderr))
            assert outputs[1] == outputs[0], key


class TestUndecodableFiles:
    """A --config or --h file that is not UTF-8 text, or JSON nested past
    the parser's depth, is refused with one error line."""

    @pytest.mark.parametrize("args,content,line", [
        (["sample", "--config"], b'\xff{"a": 0.5}',
         "is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        (["sample", "--config"], b"[" * 100_000 + b"]" * 100_000,
         "is not valid JSON: maximum recursion depth exceeded"),
        (["verify", "--a", "0.5", "--h"], b"t,H\n\xff\n",
         "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    ], ids=["config-utf8", "config-depth", "h-table-utf8"])
    def test_exits_one_with_one_error_line(self, args, content, line, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main([*args, str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if l.startswith("Error")]
        assert len(errors) == 1 and line in errors[0]
        assert captured.err.splitlines()[-1] == errors[0]


class TestHeaderAlphaAsConfig:
    """solve's header carries its alpha spec's JSON object, and that object
    as a --config regenerates the same output byte for byte."""

    @pytest.mark.parametrize("args", [
        ["--a", "0.6", "--theta", "0.3"],
        ["--alpha", "affine", "--intercept", "0.6", "--slope", "0.2"],
        ["--config", "table.json"],
    ], ids=["linear", "affine", "table"])
    def test_round_trip(self, args, tmp_path):
        (tmp_path / "table.json").write_text(
            json.dumps({"kind": "table", "points": TABLE_POINTS}))
        args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        first = run_cli("solve", *args, "--grid", "11", check=0).stdout
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(header_spec(first)[1]["params"]["alpha"]))
        assert run_cli("solve", "--config", str(path), "--grid", "11",
                       check=0).stdout == first


class TestOversizedTrials:
    def test_exits_one_with_one_error_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--abilities", "0.5,0.6,0.7",
                  "--trials", str(2**63)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: trials must lie in [1, 2**63), got 9223372036854775808"]


def cap_address_space():
    """Limit the child calling this to 1 GiB of address space."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
class TestUnservedAllocation:
    """A size the CLI accepts but the machine cannot allocate ends in the
    CLI's error line, not a traceback.  The calls run in child processes
    under a 1 GiB address-space cap, so the allocation fails at once
    rather than exhausting the host."""

    @pytest.mark.parametrize("args", [
        ("sample", "--a", "0.5", "--n", "300000000"),  # a 2.24 GiB draw array
        ("verify", "--a", "0.6", "--grid", "200000001"),  # a 1.49 GiB grid
    ], ids=["sample", "verify"])
    def test_exits_one_with_an_error_line(self, args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run(RUN + list(args), capture_output=True, text=True, env=env,
                                preexec_fn=cap_address_space)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: not enough memory: "), result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


class TestNaNInputs:
    TABLE = [[-1.0, 0.5], [0.0, 0.6], [1.0, 0.9]]

    def _refused(self, args, line, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    def test_posterior_signal(self, capsys):
        self._refused(["posterior", "--a", "0.5", "--s", "nan"],
                      "error: signal t must lie in [-1, 1]", capsys)

    @pytest.mark.parametrize("column,line", [
        (0, "error: tabulated alpha knot t values must be strictly increasing"),
        (1, "error: knot values must be strictly increasing"),
    ], ids=["t", "alpha"])
    def test_tabulated_alpha_knot(self, column, line, tmp_path, capsys):
        points = [list(p) for p in self.TABLE]
        points[1][column] = float("nan")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "table", "points": points}))
        self._refused(["solve", "--config", str(path)], line, capsys)

    def test_h_table_t(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("t,H\n-1,0\nnan,0.5\n1,1\n")
        self._refused(["verify", "--a", "0.8", "--h", str(path)],
                      "error: tabulated H knot t values must be strictly increasing",
                      capsys)

    def test_h_table_h(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("t,H\n-1,0\n0,nan\n1,1\n")
        self._refused(["verify", "--a", "0.8", "--h", str(path), "--grid", "5"],
                      "error: tabulated H values must be finite", capsys)


class TestSpecHeader:
    @pytest.mark.parametrize("args", [
        ["solve", "--a", "0.8", "--grid", "5"],
        ["verify", "--theta", "0.4", "--a", "0.6", "--h", "closed-form", "--grid", "5"],
        ["sample", "--a", "0.5", "--state", "B", "--n", "3", "--seed", "1"],
        ["posterior", "--a", "0.5", "--s", "0.5"],
        ["simulate", "--abilities", "0.5,0.9,0.1", "--trials", "100", "--seed", "3",
         "--conditional"],
        ["exact", "--abilities", "0.5,0.9,0.1", "--theta", "0.4"],
        ["order-scan", "--abilities", "0.9,0.5,0.1", "--tie-break", "vote_a"],
        ["condorcet", "--p", "0.6", "--n-max", "5"],
    ], ids=lambda args: args[0])
    def test_csv_header_spec_equals_json_metadata_spec(self, args):
        csv_out = run_cli(*args, check=0)
        json_out = run_cli(*args, "--format", "json", check=0)
        version, csv_spec = header_spec(csv_out.stdout)
        metadata = json.loads(json_out.stdout)["metadata"]
        assert version == metadata["version"]
        assert csv_spec == {**metadata["spec"], "format": "csv"}
        assert metadata["spec"]["format"] == "json"
        assert metadata["spec"]["subcommand"] == args[0]


class TestOutputGrid:
    """``solve --grid n`` and ``posterior --grid n`` write ``check_grid(n)``,
    which at odd n is ``verify --grid n``'s grid."""

    @staticmethod
    def t_column(*args):
        _, rows = csv_rows(run_cli(*args, check=0).stdout)
        return np.array([float(row[0]) for row in rows])

    @pytest.mark.parametrize("n", [2, 4, 11, 200, 201])
    def test_t_column_is_the_check_grid(self, n):
        grid = check_grid(n).tobytes()
        solve_t = self.t_column("solve", "--a", "0.6", "--grid", str(n))
        posterior_t = self.t_column("posterior", "--a", "0.6", "--grid", str(n))
        assert solve_t.tobytes() == grid
        assert posterior_t.tobytes() == grid
        if n % 2:
            verify_t = self.t_column("verify", "--a", "0.6", "--grid", str(n))
            assert verify_t.tobytes() == grid

    @pytest.mark.parametrize("command", ["solve", "posterior"])
    def test_grid_below_two_exits_one(self, command):
        result = run_cli(command, "--a", "0.6", "--grid", "1", check=1)
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == "Error: --grid must be at least 2, got 1"


TABLE_POINTS = [[-1.0, 0.3], [0.0, 0.55], [1.0, 0.8]]


class TestImpliedPrior:
    """Without --theta the prior is the alpha spec's own alpha(-1); with
    it the header echoes the flag."""

    @pytest.fixture
    def table_config(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"kind": "table", "points": TABLE_POINTS}))
        return str(path)

    def cases(self, table_config):
        return [
            (["--a", "0.6"], LinearAbility(0.5, 0.6)),
            (["--alpha", "affine", "--intercept", "0.6", "--slope", "0.2"],
             Affine(0.6, 0.2)),
            (["--config", table_config], Tabulated(TABLE_POINTS)),
        ]

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_theta_is_alpha_at_minus_one(self, command, table_config):
        for args, spec in self.cases(table_config):
            out = run_cli(command, *args, "--grid", "11", check=0).stdout
            theta = header_spec(out)[1]["params"]["theta"]
            assert theta == spec(-1.0), args

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_theta_flag_is_echoed(self, command, table_config):
        flags = {"0.6": "0.3", "affine": "0.4", table_config: "0.3"}
        for args, _ in self.cases(table_config):
            theta = flags[args[1]]
            out = run_cli(command, *args, "--theta", theta, "--grid", "11",
                          check=0).stdout
            assert header_spec(out)[1]["params"]["theta"] == float(theta), args

    def test_affine_theta_off_alpha_at_minus_one_exits_two(self):
        result = run_cli("solve", "--alpha", "affine", "--intercept", "0.6",
                         "--slope", "0.2", "--theta", "0.41", check=2)
        assert result.stdout == ""
        assert result.stderr == (
            "alpha(-1) = 0.39999999999999997 disagrees with the prior theta = 0.41\n")


# The CLI contract test draws every size below these caps, so that one
# call takes milliseconds and the test a few seconds.  A valid size above
# them is answered, but can take seconds to minutes or more memory than a
# test should ask for; budgeting every size by bytes is a separate ROADMAP
# item.
MAX_GRID = 401  # solve, verify and posterior --grid
MAX_DRAWS = 200  # sample --n
MAX_TRIALS = 2_000  # simulate --trials and "trials"
MAX_JURY = 7  # abilities per jury (order-scan permutes them all)
MAX_N = 201  # condorcet --n-max and "n_max"

# JSON values outside the easy ranges, for any --config key
ODD_VALUES = st.sampled_from([
    None, True, False, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1e308, 2**64, -1, 0, 1, 2, "x", "0.5", "",
    [], [0.5], {"a": 0.5},
])
# the flag spellings of the same, for any flag that takes a value
ODD_TOKENS = ["nan", "inf", "-inf", "5e-324", "1e308", "-1", "0", "1", "x", "", "1.5"]

NUMBER = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5]), ODD_VALUES)
FLOAT_TOKEN = st.one_of(st.floats(-0.1, 1.1).map(repr), st.sampled_from(ODD_TOKENS))


def count_value(cap):
    return st.one_of(st.integers(-2, cap), ODD_VALUES)


def count_token(cap):
    return st.one_of(st.integers(-2, cap).map(str), st.sampled_from(ODD_TOKENS))


def choice_token(*choices):
    return st.sampled_from([*choices, "bogus"])


KNOTS = st.lists(st.lists(st.one_of(st.floats(-1.0, 1.0), ODD_VALUES), min_size=2,
                          max_size=2), max_size=4)
TABLE = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4, unique=True).map(
    lambda vs: [[-1.0 + 2.0 * i / (len(vs) - 1), v] for i, v in enumerate(sorted(vs))])
ABILITIES = st.one_of(st.lists(st.one_of(st.floats(0.0, 1.0), ODD_VALUES),
                               max_size=MAX_JURY), ODD_VALUES)
ABILITIES_TOKEN = st.one_of(
    st.lists(st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(ODD_TOKENS)),
             min_size=1, max_size=MAX_JURY).map(",".join),
    st.sampled_from([",0.5,", "0.5,,0.6", "x"]))
TIE_BREAK = ["follow_signal", "vote_a", "vote_b"]

ALPHA_FLAGS = {"--alpha": choice_token("linear", "affine", "table"),
               "--theta": FLOAT_TOKEN, "--a": FLOAT_TOKEN,
               "--intercept": FLOAT_TOKEN, "--slope": FLOAT_TOKEN,
               "--h": choice_token("odds", "balanced", "closed-form", "decomposition"),
               "--grid": count_token(MAX_GRID)}
ALPHA_KEYS = {"kind": st.one_of(choice_token("linear", "affine", "table"), ODD_VALUES),
              "theta": NUMBER, "a": NUMBER, "intercept": NUMBER, "slope": NUMBER,
              "points": st.one_of(TABLE, KNOTS, ODD_VALUES)}
JURY_FLAGS = {"--abilities": ABILITIES_TOKEN, "--theta": FLOAT_TOKEN,
              "--tie-break": choice_token(*TIE_BREAK)}
JURY_KEYS = {"abilities": ABILITIES, "theta": NUMBER,
             "tie_break": st.one_of(choice_token(*TIE_BREAK), ODD_VALUES)}
SEED_VALUE = st.one_of(st.integers(-1, 2**64), ODD_VALUES)

#: subcommand -> (flags with a value, switches, --config keys), each flag
#: and key with the strategy of its value
GRAMMAR = {
    "solve": (ALPHA_FLAGS, ["--allow-uniform-limit"], ALPHA_KEYS),
    "verify": ({**ALPHA_FLAGS, "--tol": FLOAT_TOKEN}, ["--allow-uniform-limit"],
               ALPHA_KEYS),
    "sample": ({"--a": FLOAT_TOKEN, "--state": choice_token("A", "B"),
                "--n": count_token(MAX_DRAWS), "--seed": count_token(2**64)},
               [], {"a": NUMBER, "seed": SEED_VALUE}),
    "posterior": ({"--a": FLOAT_TOKEN, "--theta": FLOAT_TOKEN, "--s": FLOAT_TOKEN,
                   "--grid": count_token(MAX_GRID)}, [], {"a": NUMBER, "theta": NUMBER}),
    "simulate": ({**JURY_FLAGS, "--trials": count_token(MAX_TRIALS),
                  "--seed": count_token(2**64)}, ["--conditional"],
                 {**JURY_KEYS, "trials": count_value(MAX_TRIALS), "seed": SEED_VALUE}),
    "exact": (JURY_FLAGS, [], JURY_KEYS),
    "order-scan": (JURY_FLAGS, [], JURY_KEYS),
    "condorcet": ({"--p": FLOAT_TOKEN, "--n-max": count_token(MAX_N)}, [],
                  {"p": st.one_of(st.floats(0.5, 1.0), ODD_VALUES),
                   "n_max": count_value(MAX_N)}),
}
#: keys no subcommand reads from --config
UNKNOWN_KEYS = ["thetaa", "grid", "n", "h", "s", "format", "conditional"]


@st.composite
def cli_calls(draw):
    """(subcommand, flag arguments, --config object or None)."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags, switches, keys = GRAMMAR[command]
    args = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        args += [flag, draw(flags[flag])]
    args += [switch for switch in switches if draw(st.booleans())]
    args += ["--format", draw(st.sampled_from(["csv", "json"]))]
    config = None
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
        config = {name: draw(keys[name]) for name in names}
        for name in draw(st.lists(st.sampled_from(UNKNOWN_KEYS), max_size=2, unique=True)):
            config[name] = draw(ODD_VALUES)
    return command, args, config


def no_constant(name):
    raise AssertionError(f"non-finite {name} in the output")


def assert_finite_output(stdout: str, output_format: str) -> None:
    """Every number the call printed, header included, is finite."""
    if output_format == "json":
        doc = json.loads(stdout, parse_constant=no_constant)
        columns, rows = doc["columns"], doc["rows"]
    else:
        header, columns_line, *rows = stdout.splitlines()
        json.loads(header.split(" ", 3)[3], parse_constant=no_constant)
        columns = columns_line.split(",")
        rows = [row.split(",") for row in rows if not row.startswith("#")]
    for row in rows:
        assert len(row) == len(columns)
        for column, cell in zip(columns, row):
            if column != "method":
                assert all(math.isfinite(float(x)) for x in str(cell).split(";")), row


class TestContract:
    """Every call the CLI accepts is answered (exit 0, every number
    finite) or refused (exit 1 or 2, one error line), never a traceback:
    all 8 subcommands, through flags and --config, over null, boolean,
    NaN, subnormal, huge, string, list and object values and unknown
    keys, with the sizes capped as stated above."""

    @settings(max_examples=400, deadline=None)
    @given(call=cli_calls())
    @example(call=("sample", ["--format", "csv"], {"a": 0.5, "seed": None}))
    @example(call=("solve", ["--format", "csv"], {"a": 0.6, "grid": 5, "thetaa": 0.9}))
    def test_answered_or_refused(self, call):
        command, args, config = call
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                path = os.path.join(tmp, "config.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                args = [*args, "--config", path]
            result = run_cli(command, *args)
        lines = result.stderr.splitlines()
        assert "Traceback" not in result.stderr
        unknown = config is not None and not set(config) <= set(GRAMMAR[command][2])
        if result.returncode == 0:
            assert not unknown, "an unknown --config key was ignored"
            assert result.stderr == ""
            assert_finite_output(result.stdout, args[args.index("--format") + 1])
        elif result.returncode == 1:
            assert result.stdout == ""
            errors = [line for line in lines if line.lower().startswith("error")]
            assert len(errors) == 1 and lines[-1] == errors[0], result.stderr
        else:
            assert result.returncode == 2, result
            assert not unknown, "an unknown --config key was ignored"
            assert len(lines) == 1, result.stderr


class TestEntryPoint:
    def test_version_flag(self):
        result = run_module("--version", check=0)
        assert "tailbalance" in result.stdout

    def test_unknown_command_exits_one(self):
        result = run_module("frobnicate")
        assert result.returncode != 0

    def test_help_lists_subcommands(self):
        result = run_module("--help", check=0)
        for name in ("solve", "verify", "sample", "posterior", "simulate",
                     "exact", "order-scan", "condorcet"):
            assert name in result.stdout
