import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qslkit
from qslkit import cli, verify
from qslkit.bounds import DEFAULT_P_GRID
from qslkit.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, run_cli
from qslkit.states import save_state, validate_state
from qslkit.verify import SweepConfig


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_subcommand_emits_json(capsys):
    code, out, _ = run(capsys, "bounds", "--qubit-p1", "0.5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tau_qsl"] == pytest.approx(math.pi, rel=1e-12)


def test_moments_subcommand_reads_a_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(validate_state([(0.0, 0.8), (1.0, 0.2)]), path)
    code, out, _ = run(capsys, "moments", "--state", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(0.2, abs=1e-15)
    assert payload["sigma"] == pytest.approx(0.4, abs=1e-15)


def test_regime_subcommand_accepts_bare_moments(capsys):
    code, out, _ = run(capsys, "regime", "--mean", "0.2", "--sigma", "0.45")
    assert code == EXIT_OK
    assert json.loads(out)["regime"] == "FORBIDDEN"


def test_regime_subcommand_reports_crossover(capsys):
    code, out, _ = run(capsys, "regime", "--qubit-p1", "0.2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["regime"] == "ML"
    assert payload["crossover"] == pytest.approx(1.8466427569084543, rel=1e-9)


def test_state_source_is_required(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == EXIT_INPUT
    assert "state source" in err


def test_conflicting_state_sources_are_rejected(capsys):
    code, _, err = run(capsys, "bounds", "--qubit-p1", "0.5", "--state", "x.json")
    assert code == EXIT_INPUT


def test_unknown_subcommand_exits_one(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_INPUT


def test_missing_state_file_exits_one(capsys):
    code, _, err = run(capsys, "bounds", "--state", "/nonexistent/state.json")
    assert code == EXIT_INPUT
    assert "error" in err


def test_qutrit_flags_build_a_state(capsys):
    code, out, _ = run(
        capsys, "moments", "--qutrit-mean", "0.5", "--qutrit-sigma", "0.3333333333333333"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(0.5, abs=1e-12)


def test_evolve_writes_deterministic_csv(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run(
            capsys, "evolve", "--qubit-p1", "0.5", "--steps", "50", "-o", str(path)
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()
    header = first.read_text().split("\n")[0]
    assert header == "times,overlap_magnitude,mt_curve,ml_curve,ml_dual_curve"


def test_evolve_json_format(capsys):
    code, out, _ = run(
        capsys, "evolve", "--qubit-p1", "0.2", "--steps", "16", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["metadata"]["regime"] == "ML"


def test_ortho_subcommand_reports_the_balanced_zero(capsys):
    code, out, _ = run(capsys, "ortho", "--qubit-p1", "0.5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["t_perp"] == pytest.approx(math.pi, abs=1e-9)


def test_ortho_subcommand_reports_absence(capsys):
    code, out, _ = run(capsys, "ortho", "--qubit-p1", "0.2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["t_perp"] is None


def run_traced(capsys, *argv):
    """run() plus the peak of memory allocated during the call, in bytes."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--t-max", "nan", "t_max"),
        ("--t-max", "inf", "t_max"),
        ("--t-max", "1e12", "t_max"),
        ("--tol", "nan", "tol"),
    ],
)
def test_ortho_rejects_an_unusable_search(capsys, flag, value, name):
    (code, out, err), peak = run_traced(
        capsys, "ortho", "--qubit-p1", "0.5", flag, value
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(rf"\b{name}\b", err)
    # a 1e12 horizon is 6e12 grid points; it must be refused, not allocated
    assert peak < 1_000_000


@pytest.mark.parametrize("factor", ["nan", "inf", "0", "49999.950000000004", "1e12", "1e308"])
def test_falsify_rejects_an_unusable_horizon(tmp_path, capsys, monkeypatch, factor):
    out_path = tmp_path / "report.json"

    def no_sampling(*args):
        raise AssertionError("a state was sampled")

    # the factor is refused before any state is sampled, with no warning
    monkeypatch.setattr(verify, "_sample_range", no_sampling)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (code, out, err), peak = run_traced(
            capsys,
            "falsify",
            "--samples", "1",
            "--t-max-factor", factor,
            "-o", str(out_path),
        )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        "qslkit: error: t_max_factor must be a finite real in (0, 49999.95], "
        f"got {float(factor)}\n"
    )
    # no state's envelope scan runs, nor the 2e13-point grid of the finder
    assert peak < 2_000_000
    assert not out_path.exists()


@pytest.mark.parametrize("argv, points", [([], 1000), (["--time-steps", "2"], 3)])
def test_falsify_refuses_a_horizon_of_subnormal_steps(capsys, argv, points):
    # At 1e-321 every step of the envelope grid (1000 points, or 2) and of
    # the finder's grid (3 points) is subnormal, so no check would look
    # past t = 0.  Index 0 of seed 5 is not the first of its chunk's rows
    # (see test_falsify_names_the_first_refused_state_in_index_order), and
    # its horizon is the one named.
    index, levels, energies, _ = verify._sample_range(SweepConfig(seed=5), 0, 20)
    r = index.tolist().index(0)
    assert r > 0
    t_max = 1e-321 * (math.pi / (energies[r, levels[r] - 1] - energies[r, 0]))
    code, out, err = run(
        capsys, "falsify", "--samples", "20", "--seed", "5", "--t-max-factor", "1e-321", *argv
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"qslkit: error: t_max={t_max} needs a scan step of {t_max / (points - 1)}, "
        "below the least normal float 2.2250738585072014e-308\n"
    )
    code, out, err = run(capsys, "falsify", "--samples", "5", "--t-max-factor", "1e-10", *argv)
    assert code == EXIT_OK
    assert err == ""


@pytest.mark.parametrize("workers", ["65", "1000000000000"])
def test_falsify_refuses_too_many_workers_before_starting_any(
    capsys, monkeypatch, workers
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    (code, out, err), peak = run_traced(
        capsys, "falsify", "--samples", "1", "--workers", workers
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bworkers\b", err)
    # 1e12 workers would split the samples with an 8 TB array
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-1"], ["--seed", "-18446744073709551616"]])
def test_falsify_refuses_a_negative_seed(capsys, argv):
    code, out, err = run(capsys, "falsify", "--samples", "5", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bseed\b", err)


def test_importing_the_package_starts_no_process_machinery():
    # ProcessPoolExecutor is imported only by a sweep with workers > 1.
    src = os.path.dirname(os.path.dirname(os.path.abspath(qslkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qslkit, qslkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('concurrent.futures.process', 'multiprocessing'))))",
        ],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


@pytest.mark.parametrize("value", ["2001", "1000000000"])
def test_fig1_rejects_a_resolution_beyond_the_cap(capsys, value):
    (code, out, err), peak = run_traced(capsys, "fig1", "--resolution", value)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bresolution\b", err)
    # a 1e9 resolution is 1e18 cells; it must be refused, not allocated
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--mean", "0.2", "--sigma", "nan"], "sigma"),
        (["--mean", "nan", "--sigma", "0.1"], "mean"),
        (["--mean", "0.5", "--sigma", "0.1", "--emax", "inf"], "emax"),
        (["--mean", "0.5", "--sigma", "0.1", "--e0=-inf"], "e0"),
    ],
)
def test_regime_rejects_moments_that_are_not_finite(capsys, argv, name):
    code, out, err = run(capsys, "regime", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(rf"\b{name} must be finite\b", err)


@pytest.mark.parametrize(
    "argv, width",
    [
        (["--mean", "5e-201", "--sigma", "3e-201", "--e0", "0", "--emax", "1e-200"], "1e-200"),
        (["--mean", "1e-320", "--sigma", "5e-321", "--e0", "0", "--emax", "2e-320"], "2e-320"),
    ],
)
def test_regime_refuses_a_band_whose_square_underflows(capsys, argv, width):
    # The first point scaled by 1e200 is MT; the ceiling
    # sqrt((mean - e0)(emax - mean)) would underflow to 0 and call it FORBIDDEN.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "regime", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"qslkit: error: bandwidth emax - e0 = {width} is too small: its square underflows\n"
    )


@pytest.mark.parametrize(
    "argv, width",
    [
        (["--mean", "5e199", "--sigma", "6e199", "--e0", "0", "--emax", "1e200"], "1e+200"),
        (["--mean", "1e308", "--sigma", "1e308", "--e0", "-1e308", "--emax", "1.7e308"], "inf"),
    ],
)
def test_regime_refuses_a_band_whose_square_overflows(capsys, argv, width):
    # The first point scaled by 1e-200 is FORBIDDEN; the ceiling
    # sqrt((mean - e0)(emax - mean)) would overflow to inf and pass it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "regime", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"qslkit: error: bandwidth emax - e0 = {width} is too large: its square overflows\n"
    )


@pytest.mark.parametrize("value", ["1", "0", "-3", "1000001", "1000000000000"])
def test_falsify_rejects_a_time_grid_outside_its_range(capsys, value):
    (code, out, err), peak = run_traced(
        capsys, "falsify", "--samples", "1", "--time-steps", value
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\btime_steps\b", err)
    # refused before the sweep samples a state or allocates the grid
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--qubit-p1", "0.5"],
        ["fig2", "--scenario", "a"],
        ["fig3", "--scenario", "b"],
    ],
)
@pytest.mark.parametrize("value", ["1", "1000001", "1000000000000"])
def test_trace_commands_reject_a_grid_outside_its_range(capsys, argv, value):
    (code, out, err), peak = run_traced(capsys, *argv, "--steps", value)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bsteps\b", err)
    assert peak < 1_000_000


def _write_levels(tmp_path, levels_json):
    path = tmp_path / "state.json"
    path.write_text('{"levels": [' + levels_json + "]}")
    return str(path)


@pytest.mark.parametrize("command", ["bounds", "moments", "regime", "ortho", "evolve"])
def test_state_commands_reject_an_overflowing_bandwidth(tmp_path, capsys, command):
    path = _write_levels(
        tmp_path,
        '{"energy": -1e308, "population": 0.5}, {"energy": 1e308, "population": 0.5}',
    )
    code, out, err = run(capsys, command, "--state", path)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert "bandwidth" in err


@pytest.mark.parametrize("command", ["bounds", "moments", "regime", "ortho", "evolve"])
def test_state_commands_refuse_populations_whose_sum_overflows(tmp_path, capsys, command):
    path = _write_levels(
        tmp_path,
        '{"energy": 0.0, "population": 1e308}, {"energy": 1.0, "population": 1e308}',
    )
    code, out, err = run(capsys, command, "--state", path)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "qslkit: error: populations must sum to 1 within 1e-09, got inf\n"


@pytest.mark.parametrize("field", ["energy", "population"])
@pytest.mark.parametrize("value", ['"0.5"', "true", "null"])
def test_state_file_values_must_be_numbers(tmp_path, capsys, field, value):
    row = {"energy": "1.0", "population": "0.5"}
    row[field] = value
    path = _write_levels(
        tmp_path,
        '{"energy": 0.0, "population": 0.5}, '
        f'{{"energy": {row["energy"]}, "population": {row["population"]}}}',
    )
    code, out, err = run(capsys, "bounds", "--state", path)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(rf"\blevel 1\b.*'{field}'", err)


def test_fig1_csv_has_one_row_per_cell(capsys):
    code, out, _ = run(capsys, "fig1", "--resolution", "8")
    assert code == EXIT_OK
    assert len(out.rstrip("\n").split("\n")) == 1 + 64


def test_fig2_rejects_unknown_scenarios(capsys):
    assert run(capsys, "fig2", "--scenario", "q")[0] == EXIT_INPUT


def test_fig3_emits_csv(capsys):
    code, out, _ = run(capsys, "fig3", "--scenario", "b", "--steps", "8")
    assert code == EXIT_OK
    assert out.startswith("times,")


def test_falsify_small_run_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "falsify", "--samples", "50", "--seed", "5", "-o", str(out_path)
    )
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["samples"] == 50
    assert report["violations"] == []


def test_falsify_accepts_a_level_range(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "falsify",
        "--samples", "10",
        "--levels", "2:3",
        "--seed", "7",
        "-o", str(out_path),
    )
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["samples"] == 10
    assert report["violations"] == []


def test_falsify_rejects_a_malformed_level_range(capsys):
    code, _, err = run(capsys, "falsify", "--levels", "eight")
    assert code == EXIT_INPUT
    assert "MIN:MAX" in err


@pytest.mark.parametrize("levels", ["1:1025", "2:" + str(10**15), "1:" + str(10**400)])
def test_falsify_refuses_a_level_count_beyond_the_cap(capsys, levels):
    (code, out, err), peak = run_traced(
        capsys, "falsify", "--samples", "1", "--levels", levels
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\blevels\b", err)
    # refused before a state of 10^15 levels is sampled
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "flag, name", [("--slack-tolerance", "slack_tolerance"), ("--ortho-tol", "ortho_tol")]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_falsify_refuses_an_unusable_tolerance(capsys, flag, name, value):
    # a nan tolerance silently switched its check off; single-level
    # states, which the finder never sees, must not slip past either
    (code, out, err), peak = run_traced(
        capsys, "falsify", "--samples", "10", "--levels", "1:1", f"{flag}={value}"
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(rf"\b{name}\b", err)
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, name",
    [
        (["falsify", "--levels", "1:1", "--ortho-tol", "-1e-9"], "ortho_tol"),
        (["falsify", "--levels", "1:1", "--slack-tolerance", "-inf"], "slack_tolerance"),
        (["falsify", "--ortho-tol", "-nan", "--levels", "1:1"], "ortho_tol"),
        (["ortho", "--qubit-p1", "0.5", "--tol", "-1e-9"], "tol"),
        (["ortho", "--qubit-p1", "0.5", "--t-max", "-1E+3"], "t_max"),
        # abbreviations argparse itself accepts
        (["falsify", "--levels", "1:1", "--ortho", "-1e-9"], "ortho_tol"),
        (["falsify", "--levels", "1:1", "--sl", "-inf"], "slack_tolerance"),
        (["ortho", "--qubit-p1", "0.5", "--t-m", "-1e-3"], "t_max"),
    ],
)
def test_a_negative_float_after_a_space_reaches_the_value_check(capsys, argv, name):
    # argparse's own pattern reads -1e-9 as an option; the flag's own
    # check must see it
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert "expected one argument" not in err
    assert re.search(rf"\b{name}\b", err)


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (["falsify", "--samples", "-1e3"], EXIT_INPUT, "--samples"),
        (["bounds", "--qubit-p1", "0.2", "--p", "-1e-9", "2"], EXIT_INPUT, "lp order"),
        # a negative number is a value, so it can name the output file
        (["moments", "--qubit-p1", "0.2", "-o", "-1e3"], EXIT_OK, None),
    ],
)
def test_a_negative_number_in_exponent_form_is_a_value(
    tmp_path, monkeypatch, capsys, argv, code, needle
):
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, *argv)
    assert status == code
    if code == EXIT_INPUT:
        assert needle in err
        assert "expected one argument" not in err
    else:
        assert out == ""
        assert (tmp_path / "-1e3").read_bytes() == run(capsys, *argv[:-2])[1].encode()


def test_command_line_defaults_are_the_library_defaults(monkeypatch, capsys):
    built, real_sweep = [], cli.falsification_sweep

    def sweep(config):
        built.append(config)
        return real_sweep(replace(config, samples=1))

    monkeypatch.setattr(cli, "falsification_sweep", sweep)
    assert run(capsys, "falsify")[0] == EXIT_OK
    assert built == [SweepConfig()]
    for command in ("bounds", "moments"):
        args = cli.build_parser().parse_args([command, "--qubit-p1", "0.2"])
        assert args.p == DEFAULT_P_GRID


@pytest.mark.parametrize(
    "argv",
    [
        ["falsify", "--samples", "2", "--emax", "-1e-3"],
        ["falsify", "--samples", "2", "--emax", "-inf"],
        # every level of the band [0, 1e-320] would merge into one, and
        # the sweep would check nothing
        ["falsify", "--samples", "2", "--emax", "1e-320"],
        ["moments", "--qubit-p1", "0.3", "--emax", "1e-320"],
        ["moments", "--qutrit-mean", "0.5", "--qutrit-sigma", "0.3", "--emax", "1e-320"],
        ["bounds", "--qubit-p1", "0.3", "--emax", "1e-13"],
    ],
)
def test_a_band_top_that_cannot_hold_distinct_levels_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bemax\b", err)


@pytest.mark.parametrize(
    "emax, message",
    [
        (
            "1e200",
            "state bandwidth emax - e0 = 7.542783123300174e+199 is too large: "
            "its square overflows",
        ),
        ("inf", "emax must be a positive finite real, got inf"),
        (
            "1e-300",
            "emax=1e-300 puts levels at 0.0 and 1e-300, closer than "
            "MERGE_TOL * (1 + |E|) with MERGE_TOL=1e-12: they would merge",
        ),
    ],
)
def test_falsify_names_the_first_refused_state_in_index_order(capsys, emax, message):
    # At --emax 1e200 every state of two or more levels is refused.  Index
    # 0 has 8 levels and index 1 has 2, so a sweep that refused states
    # level count by level count would name index 1's band.
    index, levels, _, _ = verify._sample_range(SweepConfig(seed=5), 0, 20)
    level_count = dict(zip(index.tolist(), levels.tolist()))
    assert level_count[0] == 8 and level_count[1] == 2
    code, out, err = run(capsys, "falsify", "--samples", "20", "--seed", "5", "--emax", emax)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"qslkit: error: {message}\n"


def test_falsify_exits_two_when_the_tolerance_is_impossible(tmp_path, capsys):
    # a tolerance below the documented linear-model error must trip
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "falsify",
        "--samples", "50",
        "--seed", "5",
        "--slack-tolerance", "1e-12",
        "-o", str(out_path),
    )
    assert code == EXIT_VIOLATION
    report = json.loads(out_path.read_text())
    assert report["violations"]
    assert all(v["check"] == "envelope" for v in report["violations"])


def test_xi_check_passes_and_reports_rows(capsys):
    code, out, _ = run(capsys, "xi-check")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 20
    assert payload["delta_max"] < 5e-4


def test_module_entry_point_runs_xi_check():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qslkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-m", "qslkit.cli", "xi-check"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == EXIT_OK
    assert result.stderr == b""
    _, _, digest = _pins({"xi-check"})[0].values
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_falsify_pins_the_worst_slack_of_a_seeded_run(capsys):
    code, out, _ = run(capsys, "falsify", "--samples", "1000", "--seed", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["violations"] == []
    assert report["worst_slack_rad"] == pytest.approx(
        -0.0005889664021090368, abs=1e-12
    )


def _pins(commands):
    """The lines of tests/pins.txt whose argv runs one of the commands, as
    pytest params (argv, exit code, digest), each under its test id."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.txt")
    with open(path, encoding="utf-8") as table:
        rows = [line.split() for line in table if line.strip() and not line.startswith("#")]
    return [
        pytest.param(argv, int(status), digest, id=name)
        for name, status, digest, *argv in rows
        if argv[0] in commands
    ]


def _pinned_bytes(capsys, tmp_path, argv):
    """(exit code, stderr, sha256 of stdout or of the file -o OUT writes),
    run in process with RuntimeWarning as an error."""
    out_file = tmp_path / "pinned.out"
    argv = [str(out_file) if arg == "OUT" else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    if "-o" in argv:
        assert out == ""
        out = out_file.read_text(encoding="utf-8")
    return code, err, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, status, digest", _pins({"falsify"}))
def test_falsify_report_bytes_are_pinned(capsys, tmp_path, argv, status, digest):
    assert _pinned_bytes(capsys, tmp_path, argv) == (status, "", digest)


@pytest.mark.parametrize("argv, status, digest", _pins({"moments", "bounds", "regime"}))
def test_state_report_bytes_are_pinned(capsys, tmp_path, argv, status, digest):
    assert status == EXIT_OK
    assert _pinned_bytes(capsys, tmp_path, argv) == (status, "", digest)


@pytest.mark.parametrize(
    "argv, status, digest", _pins({"fig1", "fig2", "fig3", "evolve", "ortho", "xi-check"})
)
def test_command_line_bytes_are_pinned(capsys, tmp_path, argv, status, digest):
    assert _pinned_bytes(capsys, tmp_path, argv) == (status, "", digest)


def test_the_sweep_benchmarks_traffic_keeps_its_bytes(capsys):
    # 40 requests of the sweep benchmark's command line, on the seeds it
    # draws for run seed 2026: one digest over their reports, in order.
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for _ in range(40):
        seed = str(int(rng.integers(0, 2**31 - 1)))
        code, out, err = run(
            capsys, "falsify", "--samples", "50", "--seed", seed, "--levels", "2:8",
            "--time-steps", "1000", "--t-max-factor", "20", "--workers", "1",
        )
        assert (code, err) == (EXIT_OK, "")
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == "930a30afdd15e1a4495dc14c72ef3a35c2a4a343f7eab3010074e0a19bcaf776"


@pytest.mark.parametrize(
    "argv",
    [
        # At a band of 1e150 the rounding of sigma and of its ceiling is
        # near 1e134; an absolute 1e-12 allowance gave 45 false violations.
        ["--samples", "1000", "--emax", "1e150"],
        # A qubit with 9.9e-8 on its top level, index 19 of this sweep (see
        # the test below): its ceiling is off by more than 1e-12 of it plus
        # 1e-14 of the energy scale allows, and its spread meets the ceiling
        # only to 2e-9 of it, short of popoviciu's saturation.
        ["--samples", "50", "--seed", "4448", "--levels", "2:2"],
    ],
)
def test_falsify_holds_the_spread_ceiling_to_its_rounding(capsys, argv):
    code, out, _ = run(capsys, "falsify", *argv)
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []


def test_falsify_holds_the_spread_ceiling_of_a_lopsided_qubit_to_its_rounding(
    capsys, monkeypatch
):
    # The sweep of seed 4448 at --levels 2:2 draws such a qubit at index 19
    _, levels, _, populations = verify._sample_range(
        verify.SweepConfig(samples=50, level_min=2, level_max=2, seed=4448), 19, 20
    )
    assert levels[0] == 2 and populations[0, 1] < 1e-7
    # A qubit with 1.1e-7 on its top level, once drawn by a sweep: its
    # ceiling is off by 7e-14 at a band of 0.32, more than 1e-12 of it plus
    # 1e-14 of the energy scale allows.  The sweep checks it as its one state.
    state = validate_state(
        [(0.3600577733902831, 0.9999998872850516), (0.6787899430500038, 1.1271494835613999e-07)]
    )
    assert state.populations[1] == 1.1271494835613999e-07

    def sampled(config, lo, hi):
        return np.array([lo]), np.array([2]), state.energies[None], state.populations[None]

    monkeypatch.setattr(verify, "_sample_range", sampled)
    code, out, _ = run(capsys, "falsify", "--samples", "1", "--levels", "2:2")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []


def _readme_command_lines():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as handle:
        lines = [line.partition("#")[0].split() for line in handle]
    return [line[1:] for line in lines if line[:1] == ["qslkit"]]


def _subcommand_parsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_a_subcommand_parser_reads_as_the_full_tree(capsys):
    full = cli.build_parser()
    assert run(capsys, "--help")[1] == full.format_help()
    for name, command in _subcommand_parsers(full).items():
        alone = cli.build_parser(name)
        assert list(_subcommand_parsers(alone)) == [name]
        # errors print the top-level usage
        assert alone.format_usage() == full.format_usage()
        assert run(capsys, name, "--help")[1] == command.format_help()
    argvs = _readme_command_lines()
    assert len(argvs) >= 10
    for argv in argvs:
        alone = cli.build_parser(argv[0])
        assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv)), argv


def test_a_kept_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    # a usage error, --help, a valid falsify, then the usage error again
    sequence = [
        ["falsify", "--levels", "eight"],
        ["falsify", "--help"],
        ["falsify", "--samples", "2", "--time-steps", "50"],
        ["falsify", "--levels", "eight"],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_INPUT]
    built, real_build = [], cli.build_parser

    def counted(command=None):
        built.append(command)
        return real_build(command)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in sequence] == fresh
    assert built == ["falsify"]


# Values no flag may choke on: non-numbers, non-finite and overflowing
# numbers, a subnormal, a negative number in exponent form, signed zeros,
# integers far past every cap and the empty string.  The ordinary values let some draws get past parsing.
_HOSTILE = (
    "nan", "-nan", "inf", "-inf", "-infinity", "1e308", "-1e308", "1e-320", "-1e-320",
    "-1e-9", "-0", "-0.0", str(2**63), str(10**400), "-" + str(10**400), "",
)
_ORDINARY = ("0", "1", "0.3", "0.5", "a", "json", "1:3")


def _subcommand_flags():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: sorted(
            flag
            for action in command._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for name, command in sub.choices.items()
    }


_FLAGS = _subcommand_flags()


_QUBIT = ["--qubit-p1", "0.3"]
_QUTRIT = ["--qutrit-mean", "0.5", "--qutrit-sigma", "0.3"]

# A valid start for each subcommand, so that one drawn value is often the
# only thing wrong with a command line.  falsify's start keeps each draw
# to a few short scans; drawn flags still override it.
_STARTS = {
    "moments": [[], _QUBIT, _QUTRIT],
    "bounds": [[], _QUBIT, _QUTRIT],
    "regime": [[], _QUBIT, ["--mean", "0.2", "--sigma", "0.3"]],
    "evolve": [[], _QUBIT, _QUTRIT],
    "ortho": [[], _QUBIT, _QUTRIT],
    "fig2": [[], ["--scenario", "b"]],
    "fig3": [[], ["--scenario", "c"]],
    "falsify": [["--samples", "2", "--time-steps", "50"]],
}


@st.composite
def _argvs(draw):
    """A command line: a subcommand with drawn flags and values, or junk."""
    values = st.sampled_from(_HOSTILE + _ORDINARY)
    if draw(st.integers(0, 9)) == 0:
        junk = draw(st.lists(st.sampled_from(sorted(_FLAGS)) | values, max_size=3))
        if junk[:1] == ["falsify"]:
            junk += _STARTS["falsify"][0]  # bare falsify is a 10^4-state sweep
        return junk
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command] + draw(st.sampled_from(_STARTS.get(command, [[]])))
    for flag, value in draw(
        st.lists(st.tuples(st.sampled_from(_FLAGS[command]), values), max_size=3)
    ):
        argv += [flag, value]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(_FLAGS[command])))  # a flag with no value
    return argv


class _Sink:
    """A stdout that keeps only the length of what is written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def _run_in(directory, argv):
    """run_cli(argv) with directory as the working directory.

    Returns the exit code, the stdout sink and the stderr text.
    """
    out, err = _Sink(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    return code, out, err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_any_command_line_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as directory:
        tracemalloc.start()
        try:
            code, out, err = _run_in(directory, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION), (argv, err)
    assert "Traceback" not in err, argv
    if code == EXIT_INPUT:
        assert out.size == 0, argv
    # the heaviest default, fig1 at resolution 400, peaks near 3 MB as CSV
    # and 5 MB as JSON
    assert peak < 16_000_000, (argv, peak)
