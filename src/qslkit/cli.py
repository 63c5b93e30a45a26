"""Command-line front end.

Every subcommand writes deterministic bytes (17-significant-digit floats,
LF line endings) to stdout or to --output, so runs are diffable.  Exit
codes: 0 on success, 1 on bad input or usage, 2 when a check subcommand
found a violated invariant.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ._jsonfmt import dumps
from .bounds import (
    DEFAULT_P_GRID,
    bound_set,
    classify_point,
    classify_regime,
)
from .figures import (
    fig1_dataset,
    fig2_dataset,
    fig3_dataset,
    grid_csv_chunks,
    grid_to_json,
    trace_dataset,
    trace_to_csv,
    trace_to_json,
)
from .states import (
    energy_moments,
    load_state,
    make_qubit,
    qutrit_from_moments,
)
from .verify import (
    SweepConfig,
    a_of_q,
    falsification_sweep,
    find_orthogonalization_time,
    xi_comparison,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; reserve 2 for violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("state source (choose one)")
    group.add_argument("--state", metavar="PATH", help="state JSON file")
    group.add_argument(
        "--qubit-p1", type=float, metavar="W",
        help="two-level state with weight W on the top level",
    )
    group.add_argument(
        "--qutrit-mean", type=float, metavar="E",
        help="three-level state with this mean energy",
    )
    group.add_argument(
        "--qutrit-sigma", type=float, metavar="S",
        help="three-level state with this energy spread",
    )
    group.add_argument(
        "--qutrit-eta", type=float, default=0.5, metavar="F",
        help="middle level position as a band fraction (default 0.5)",
    )
    group.add_argument(
        "--emax", type=float, default=1.0, metavar="E",
        help="top of the band for constructed states (default 1.0)",
    )


def _resolve_state(args):
    sources = [
        args.state is not None,
        args.qubit_p1 is not None,
        args.qutrit_mean is not None or args.qutrit_sigma is not None,
    ]
    if sum(sources) != 1:
        raise ValueError(
            "choose exactly one state source: --state, --qubit-p1, or "
            "--qutrit-mean with --qutrit-sigma"
        )
    if args.state is not None:
        return load_state(args.state)
    if args.qubit_p1 is not None:
        return make_qubit(args.qubit_p1, args.emax)
    if args.qutrit_mean is None or args.qutrit_sigma is None:
        raise ValueError("--qutrit-mean and --qutrit-sigma are both required")
    return qutrit_from_moments(
        args.qutrit_mean, args.qutrit_sigma, args.qutrit_eta, args.emax
    )


def _emit(text, output: Optional[str]) -> None:
    """Write text, a str or an iterable of str chunks, to stdout or output."""
    chunks = (text,) if isinstance(text, str) else text
    if output is None:
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)


def _p_grid(args):
    if args.p is None:
        return DEFAULT_P_GRID
    return tuple(args.p)


def _cmd_moments(args) -> int:
    state = _resolve_state(args)
    moments = energy_moments(state, _p_grid(args))
    _emit(dumps(moments.to_dict()), args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    state = _resolve_state(args)
    bounds = bound_set(state, _p_grid(args))
    _emit(dumps(bounds.to_dict()), args.output)
    return EXIT_OK


def _cmd_regime(args) -> int:
    direct = args.mean is not None or args.sigma is not None
    if direct:
        if args.mean is None or args.sigma is None:
            raise ValueError("--mean and --sigma are both required")
        report = classify_point(
            args.mean, args.sigma, args.e0, args.emax, with_crossover=True
        )
    else:
        state = _resolve_state(args)
        report = classify_regime(energy_moments(state))
    _emit(dumps(report.to_dict()), args.output)
    return EXIT_OK


def _emit_trace(dataset, args) -> int:
    text = trace_to_json(dataset) if args.format == "json" else trace_to_csv(dataset)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    state = _resolve_state(args)
    return _emit_trace(
        trace_dataset(state, t_end=args.t_end, steps=args.steps), args
    )


def _cmd_ortho(args) -> int:
    state = _resolve_state(args)
    bounds = bound_set(state, p_grid=())
    t_perp = find_orthogonalization_time(state, t_max=args.t_max, tol=args.tol)
    _emit(
        dumps(
            {
                "found": t_perp is not None,
                "t_perp": t_perp,
                "tau_qsl": bounds.tau_qsl,
                "tau_bw": bounds.tau_bw,
                "tol": args.tol,
            }
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_fig1(args) -> int:
    grid = fig1_dataset(resolution=args.resolution)
    # The CSV goes out a row of means at a time, never as one string.
    text = grid_to_json(grid) if args.format == "json" else grid_csv_chunks(grid)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    return _emit_trace(fig2_dataset(args.scenario, steps=args.steps), args)


def _cmd_fig3(args) -> int:
    return _emit_trace(fig3_dataset(args.scenario, steps=args.steps), args)


def _level_range(text: str):
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must look like MIN:MAX, got {text!r}"
        ) from None


def _cmd_falsify(args) -> int:
    config = SweepConfig(
        samples=args.samples,
        level_min=args.levels[0],
        level_max=args.levels[1],
        emax=args.emax,
        seed=args.seed,
        time_steps=args.time_steps,
        t_max_factor=args.t_max_factor,
        slack_tolerance=args.slack_tolerance,
        ortho_tol=args.ortho_tol,
        workers=args.workers,
    )
    report = falsification_sweep(config)
    _emit(dumps(report.to_dict()), args.output)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_xi_check(args) -> int:
    rows = xi_comparison()
    anchor_q = 2.0 / 3.141592653589793
    anchor = a_of_q(anchor_q)
    anchor_ok = (
        abs(anchor.a - anchor_q) <= 1e-9
        and abs(anchor.x_star - 3.141592653589793) <= 1e-9
    )
    deltas = [row[3] for row in rows]
    band_ok = all(-1e-12 <= d < 5e-4 for d in deltas)
    ok = anchor_ok and band_ok
    _emit(
        dumps(
            {
                "rows": [
                    {"x": x, "oracle": tight, "linear": lin, "delta": d}
                    for x, tight, lin, d in rows
                ],
                "delta_max": max(deltas),
                "anchor": anchor.to_dict(),
                "ok": ok,
            }
        ),
        args.output,
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qslkit",
        description="Energy-time speed limits for isolated quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, state=False, fmt=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if state:
            _add_state_arguments(p)
        if fmt is not None:
            p.add_argument(
                "--format", choices=("csv", "json"), default=fmt,
                help=f"output format (default {fmt})",
            )
        p.add_argument("-o", "--output", metavar="PATH", help="write here instead of stdout")
        return p

    p = add("moments", _cmd_moments, "energy moments of a state", state=True)
    p.add_argument("--p", type=float, nargs="*", help="Lp orders (default 1 2 4 10 100)")

    p = add("bounds", _cmd_bounds, "evolution-time bounds of a state", state=True)
    p.add_argument("--p", type=float, nargs="*", help="Lp orders (default 1 2 4 10 100)")

    p = add("regime", _cmd_regime, "which bound governs", state=True)
    p.add_argument("--mean", type=float, help="classify bare moments: mean energy")
    p.add_argument("--sigma", type=float, help="classify bare moments: energy spread")
    p.add_argument("--e0", type=float, default=0.0, help="band bottom (default 0)")

    p = add("evolve", _cmd_evolve, "overlap trace with certified floors", state=True, fmt="csv")
    p.add_argument("--t-end", type=float, help="window end (default from the bounds)")
    p.add_argument("--steps", type=int, default=2000, help="samples (default 2000)")

    p = add("ortho", _cmd_ortho, "earliest orthogonalization time", state=True)
    p.add_argument("--t-max", type=float, help="search horizon (default 20 tau_bw)")
    p.add_argument("--tol", type=float, default=1e-9, help="magnitude tolerance (default 1e-9)")

    p = add("fig1", _cmd_fig1, "regime map over the moment square", fmt="csv")
    p.add_argument("--resolution", type=int, default=400, help="cells per axis (default 400)")

    p = add("fig2", _cmd_fig2, "two-level overlap traces", fmt="csv")
    p.add_argument("--scenario", choices=("a", "b", "c"), required=True)
    p.add_argument("--steps", type=int, default=2000, help="samples (default 2000)")

    p = add("fig3", _cmd_fig3, "three-level overlap traces", fmt="csv")
    p.add_argument("--scenario", choices=("a", "b", "c"), required=True)
    p.add_argument("--steps", type=int, default=2000, help="samples (default 2000)")

    p = add("falsify", _cmd_falsify, "random-state check of every bound")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--levels", type=_level_range, default=(2, 8), metavar="MIN:MAX",
        help="level-count range per sample (default 2:8)",
    )
    p.add_argument("--emax", type=float, default=1.0)
    p.add_argument("--time-steps", type=int, default=1000)
    p.add_argument("--t-max-factor", type=float, default=20.0)
    p.add_argument("--slack-tolerance", type=float, default=1e-3)
    p.add_argument("--ortho-tol", type=float, default=1e-9)
    p.add_argument("--workers", type=int, default=1)

    add("xi-check", _cmd_xi_check, "rebuild the correction factor from scratch")

    return parser


def run_cli(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"qslkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
