import argparse
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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qslkit
from qslkit import cli, verify
from qslkit.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, run_cli
from qslkit.states import save_state, validate_state


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


@pytest.mark.parametrize("factor", ["nan", "inf", "1e12"])
def test_falsify_rejects_an_unusable_horizon(tmp_path, capsys, factor):
    out_path = tmp_path / "report.json"
    (code, out, err), peak = run_traced(
        capsys,
        "falsify",
        "--samples", "1",
        "--t-max-factor", factor,
        "-o", str(out_path),
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert "t_max" in err
    # the first state's 1000-step envelope scan runs before the finder
    # refuses the 2e13-point grid
    assert peak < 4_000_000
    assert not out_path.exists()


@pytest.mark.parametrize("workers", ["65", "1000000000000"])
def test_falsify_refuses_too_many_workers_before_starting_any(
    capsys, monkeypatch, workers
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    (code, out, err), peak = run_traced(
        capsys, "falsify", "--samples", "1", "--workers", workers
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"\bworkers\b", err)
    # 1e12 workers would split the samples with an 8 TB array
    assert peak < 1_000_000


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
    # argparse reads -1e-9 as an option; the flag's own check must see it
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert "expected one argument" not in err
    assert re.search(rf"\b{name}\b", err)


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
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "d8236705b895fb7b02772298bed1de6b943e643d94e20b9e681371787ad8c6cf"
    )


def test_falsify_pins_the_worst_slack_of_a_seeded_run(capsys):
    code, out, _ = run(capsys, "falsify", "--samples", "1000", "--seed", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["violations"] == []
    assert report["worst_slack_rad"] == pytest.approx(
        -0.00057674005125440964, abs=1e-12
    )


@pytest.mark.parametrize(
    "argv, status, digest",
    [
        (
            ["--samples", "1000", "--seed", "5"],
            EXIT_OK,
            "1b8d1c0b5a0a6190d9959cfc5e16ceeabd0275a176e033c30d33946e8564a84c",
        ),
        (
            # single-level states included
            ["--samples", "3000", "--seed", "42", "--levels", "1:8"],
            EXIT_OK,
            "346c932819a47a7f4e5322dd467c3935a139bdf8e2044eea632f5f1d4ed35526",
        ),
        (
            # 291 envelope violations, in index order
            ["--samples", "2000", "--seed", "9", "--slack-tolerance", "1e-6"],
            EXIT_VIOLATION,
            "03d008080637db132f212adb72bbf2bb063eb066724005f4b991085ebc1596af",
        ),
        # Mixes whose refinements find zeros, the one outcome the finder's
        # chord certificate must never skip: 919 ortho_* violations here
        (
            ["--samples", "3000", "--ortho-tol", "0.2"],
            EXIT_VIOLATION,
            "7c82bda1904be1cfab3e94f573bd933a668a3ecb286879e9270ccecc3a7a9bec",
        ),
        (
            ["--samples", "3000", "--ortho-tol", "0.05", "--t-max-factor", "3"],
            EXIT_VIOLATION,
            "d3b4d1c085d267c39eeb3d5a4c2c2321ce4207f08c4ae74e1153b4de66ba51af",
        ),
        (
            ["--samples", "3000", "--ortho-tol", "0.6", "--levels", "2:3"],
            EXIT_VIOLATION,
            "92fb0d92e7be01f849fca564ed16d0a17b85cf7ddeb10ecda9353af186876bb8",
        ),
        (
            # the command line of the sweep benchmark
            [
                "--samples", "50", "--seed", "1", "--levels", "2:8", "--time-steps", "1000",
                "--t-max-factor", "20", "--workers", "1",
            ],
            EXIT_OK,
            "511e4d99fe0863e765d2f39d240047a6b631a70d171982eb369b064568aa0b41",
        ),
    ],
)
def test_falsify_report_bytes_are_pinned(capsys, argv, status, digest):
    code, out, err = run(capsys, "falsify", *argv)
    assert code == status
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        # At a band of 1e150 the rounding of sigma and of its ceiling is
        # near 1e134; an absolute 1e-12 allowance gave 45 false violations.
        ["--samples", "1000", "--emax", "1e150"],
        # A qubit with 1.1e-7 on its top level: its ceiling is off by
        # 7e-14 at a band of 0.32, more than 1e-12 of it plus 1e-14 of
        # the energy scale allows.
        ["--samples", "50", "--seed", "2051603900"],
    ],
)
def test_falsify_holds_the_spread_ceiling_to_its_rounding(capsys, argv):
    code, out, _ = run(capsys, "falsify", *argv)
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


# Values no flag may choke on: non-numbers, non-finite and overflowing
# numbers, a subnormal, a negative number in exponent form, signed zeros,
# integers far past every cap and the empty string.  The ordinary values let some draws get past parsing.
_HOSTILE = (
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-9", "-0", "-0.0",
    str(2**63), str(10**400), "-" + str(10**400), "",
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
