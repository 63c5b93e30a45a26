"""The benchmark's three workloads: inputs, timed calls and output checks.

All three are closed loops with one client in one process: the next
request is sent when the previous one has returned.  Inputs are drawn
from the seed by the benchmark; qslkit sees only the generated argv or
level tables, and every name is looked up on the package at call time so
a traced run sees the same calls.

A workload yields rounds, lists of requests.  The loop in ``run.py``
stops only between rounds, so a ``paper_figures`` run always holds whole
rounds and its command mix does not depend on where the clock ran out.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

import qslkit
import qslkit.cli

SWEEP_STATES = 50
FIG1_RESOLUTION = 400
# sha256 of `qslkit fig1 --resolution 400`.  The labels are discrete, so
# the bytes are stable; a change to them must be explained.
FIG1_SHA256 = "f53b9714fb55d5db29ab3c9f69d81bae72dde888d7c3be52356a9e998169bffc"
# The documented linear-xi defect allows a trace to dip this far below a floor.
FLOOR_TOLERANCE = 1e-3
SLACK_TOLERANCE = 1e-3
TAU_SLACK = 1e-9
T_PERP_TOLERANCE = 1e-6
OVERLAP_TOLERANCE = 1e-12

# Level tables of the fig2 and fig3 scenarios, derived here independently:
# fig2 puts weight p1 on the top of a (0, 1) qubit; fig3 inverts
# (mean, sigma) on levels (0, 1/2, 1).
_F = Fraction
FIGURE_LEVELS = {
    "fig2 a": ((0, _F(1, 2)), (1, _F(1, 2))),
    "fig2 b": ((0, _F(4, 5)), (1, _F(1, 5))),
    "fig2 c": ((0, _F(1, 5)), (1, _F(4, 5))),
    "fig3 a": ((0, _F(7, 9)), (_F(1, 2), _F(1, 9)), (1, _F(1, 9))),
    "fig3 b": ((0, _F(2, 9)), (_F(1, 2), _F(5, 9)), (1, _F(2, 9))),
    "fig3 c": ((0, _F(7, 162)), (_F(1, 2), _F(20, 81)), (1, _F(115, 162))),
}


class CheckFailed(Exception):
    """An output that ran without error but is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    prepare: Optional[Callable[[], None]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what throughput_per_s counts
    units_per_round: int
    trace_rounds_per_s: float  # rounds of a traced run per --seconds
    rounds: Callable[[int, str], Iterator[list]]
    warm_up: Callable[[str], None]


def _cli(argv) -> int:
    return qslkit.cli.run_cli([str(a) for a in argv])


def _require_exit_zero(code) -> None:
    require(code == 0, f"exit code {code}")


# --------------------------------------------------------------------- sweep


def _check_sweep_report(path: str, samples: int):
    def check(code) -> None:
        _require_exit_zero(code)
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        require(report["samples"] == samples, f"samples {report['samples']}")
        require(not report["violations"], f"{len(report['violations'])} violations")
        require(
            report["worst_slack_rad"] >= -SLACK_TOLERANCE,
            f"worst slack {report['worst_slack_rad']}",
        )

    return check


def sweep_argv(seed: int, path: str, samples: int = SWEEP_STATES) -> list:
    return [
        "falsify", "--samples", samples, "--seed", seed, "--levels", "2:8",
        "--time-steps", 1000, "--t-max-factor", 20, "--workers", 1, "-o", path,
    ]


def sweep_rounds(seed: int, out_dir: str):
    rng = np.random.default_rng(seed)
    path = os.path.join(out_dir, "falsify.json")
    while True:
        sweep_seed = int(rng.integers(0, 2**31 - 1))
        argv = sweep_argv(sweep_seed, path)
        yield [
            Request(
                "falsify",
                lambda argv=argv: _cli(argv),
                _check_sweep_report(path, SWEEP_STATES),
            )
        ]


def sweep_warm_up(out_dir: str) -> None:
    _cli(sweep_argv(0, os.path.join(out_dir, "warm.json"), samples=1))


# ------------------------------------------------------------------- queries


def query_state(rng):
    """A state that orthogonalizes, with its exact earliest zero of |f|.

    balanced qubit (o, 1/2), (o+E, 1/2):      t = pi / E
    symmetric trio (0,a), (1,1-2a), (2,a):    t = arccos((2a-1) / 2a)
    equal-weight ladder, n levels, spacing d: t = 2 pi / (n d)
    Every population is at most 1/2.
    """
    family = int(rng.integers(3))
    if family == 0:
        offset = float(rng.uniform(-2.0, 2.0))
        gap = float(rng.uniform(0.25, 4.0))
        return [(offset, 0.5), (offset + gap, 0.5)], math.pi / gap
    if family == 1:
        a = float(rng.uniform(0.26, 0.49))
        return [(0.0, a), (1.0, 1.0 - 2.0 * a), (2.0, a)], math.acos(
            (2.0 * a - 1.0) / (2.0 * a)
        )
    n = int(rng.integers(2, 9))
    spacing = float(rng.uniform(0.25, 4.0))
    return [(k * spacing, 1.0 / n) for k in range(n)], 2.0 * math.pi / (n * spacing)


def query(levels):
    """validate_state -> bound_set -> classify_regime -> orthogonalization time."""
    state = qslkit.validate_state(levels)
    bounds = qslkit.bound_set(state)
    regime = qslkit.classify_regime(qslkit.energy_moments(state))
    t_perp = qslkit.find_orthogonalization_time(state)
    return bounds.tau_qsl, regime.regime, t_perp


def _check_query(exact: float):
    def check(result) -> None:
        tau_qsl, _, t_perp = result
        require(t_perp is not None, "no orthogonalization found")
        require(
            abs(t_perp - exact) <= T_PERP_TOLERANCE,
            f"t_perp {t_perp!r} vs exact {exact!r}",
        )
        require(t_perp >= tau_qsl - TAU_SLACK, f"t_perp {t_perp!r} < tau_qsl {tau_qsl!r}")

    return check


def query_rounds(seed: int, out_dir: str):
    rng = np.random.default_rng(seed)
    while True:
        levels, exact = query_state(rng)
        yield [Request("query", lambda levels=levels: query(levels), _check_query(exact))]


def query_warm_up(out_dir: str) -> None:
    query([(0.0, 0.5), (1.0, 0.5)])


# ------------------------------------------------------------- paper_figures


def overlap_magnitudes(levels, times) -> np.ndarray:
    energies = np.array([float(e) for e, _ in levels])
    weights = np.array([float(w) for _, w in levels])
    return np.abs(np.exp(-1j * np.outer(times, energies)) @ weights)


def _check_trace(path: str, levels):
    def check(code) -> None:
        _require_exit_zero(code)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        require(
            rows[0] == ["times", "overlap_magnitude", "mt_curve", "ml_curve", "ml_dual_curve"],
            f"header {rows[0]}",
        )
        table = np.array(rows[1:], dtype=np.float64)
        times, magnitude = table[:, 0], table[:, 1]
        expected = overlap_magnitudes(levels, times)
        error = float(np.max(np.abs(magnitude - expected)))
        require(error <= OVERLAP_TOLERANCE, f"overlap off by {error}")
        deficit = float(np.min(magnitude - table[:, 2:].max(axis=1)))
        require(deficit >= -FLOOR_TOLERANCE, f"overlap below a floor by {-deficit}")

    return check


def _check_digest(path: str, digest: str):
    def check(code) -> None:
        _require_exit_zero(code)
        with open(path, "rb") as handle:
            actual = hashlib.sha256(handle.read()).hexdigest()
        require(actual == digest, f"sha256 {actual}")

    return check


def _forget_xi_memo() -> None:
    # Every `qslkit xi-check` invocation starts with an empty a(q) memo.
    # The benchmark runs all commands in one process, so it empties the
    # memo to charge each round what a fresh invocation pays.
    memo = getattr(qslkit.verify, "_a_cache", None)
    if isinstance(memo, dict):
        memo.clear()


def figure_rounds(seed: int, out_dir: str):
    # The artifact commands take no random input, so every seed runs the
    # same rounds, in the same order: what a command pays for the garbage
    # an earlier one left depends on that order.
    fig1_path = os.path.join(out_dir, "fig1.csv")
    requests = [
        Request(
            "fig1",
            lambda: _cli(["fig1", "--resolution", FIG1_RESOLUTION, "-o", fig1_path]),
            _check_digest(fig1_path, FIG1_SHA256),
        )
    ]
    for label, levels in FIGURE_LEVELS.items():
        command, scenario = label.split()
        path = os.path.join(out_dir, f"{command}{scenario}.csv")
        argv = [command, "--scenario", scenario, "-o", path]
        requests.append(
            Request(label, lambda argv=argv: _cli(argv), _check_trace(path, levels))
        )
    xi_path = os.path.join(out_dir, "xi.json")
    requests.append(
        Request(
            "xi-check",
            lambda: _cli(["xi-check", "-o", xi_path]),
            _require_exit_zero,
            prepare=_forget_xi_memo,
        )
    )
    while True:
        yield requests


def figure_warm_up(out_dir: str) -> None:
    _cli(["fig2", "--scenario", "a", "-o", os.path.join(out_dir, "warm.csv")])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "states", SWEEP_STATES, 4.0, sweep_rounds, sweep_warm_up),
        Workload("queries", "queries", 1, 300.0, query_rounds, query_warm_up),
        Workload("paper_figures", "rounds", 1, 0.1, figure_rounds, figure_warm_up),
    )
}
