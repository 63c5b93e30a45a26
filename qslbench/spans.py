"""Span tracing of qslkit's public functions, installed from outside the package.

Each traced function is replaced, for the duration of a ``traced`` block,
by a wrapper that records one span: name, start, end, the span that was
open when it was called (its parent) and the id of the benchmark
operation it belongs to.  Spans are kept in flat typed arrays, so a
figure round with several hundred thousand spans stays a few megabytes,
and are written out only when the run ends.

A name imported with ``from .x import y`` is a separate reference in the
consuming module, so a function is patched in every qslkit module whose
attribute of that name is the function itself.  The home module's own
attribute is patched too unless ``TRACED`` says otherwise: some home
modules call their own function from inside another traced function, and
tracing those inner calls (160k ``classify_regime`` calls under
``classify_point`` in one ``fig1``) would add cost and tell nothing new.
A function that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

MODULES = (
    "cli",
    "states",
    "bounds",
    "verify",
    "figures",
    "_kernels",
    "_jsonfmt",
)

# A refinement "returns a zero" when its magnitude is below the finder's
# tolerance.  Every finder call the benchmark makes uses the default.
ORTHO_TOL = 1e-9


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_found(counters, args, kwargs, result):
    if result is not None:
        counters["verify.finder_found"] += 1


def _count_accepted(counters, args, kwargs, result):
    if result[1] < ORTHO_TOL:
        counters["verify.refine_accepted"] += 1


def _phase_counter(times_position):
    def count(counters, args, kwargs, result):
        energies = _arg(args, kwargs, 0, "energies")
        times = _arg(args, kwargs, times_position, "times")
        counters["kernels.phase_evals"] += len(times) * len(energies)

    return count


def _count_bytes(counters, args, kwargs, result):
    counters["jsonfmt.bytes_out"] += len(result.encode("utf-8"))


# (home module, function, patch the home module's attribute, counter)
TRACED = (
    ("cli", "run_cli", True, None),
    ("states", "validate_state", True, None),
    ("states", "sample_random_state", True, None),
    ("states", "energy_moments", True, None),
    ("states", "dual_state", True, None),
    ("bounds", "bound_set", True, None),
    ("bounds", "bounds_from_moments", False, None),
    ("bounds", "popoviciu", False, None),
    ("bounds", "classify_point", True, None),
    ("bounds", "classify_regime", False, None),
    ("verify", "falsification_sweep", True, None),
    ("verify", "find_orthogonalization_time", True, _count_found),
    ("verify", "xi_comparison", True, None),
    ("verify", "xi_oracle", True, None),
    ("figures", "fig1_dataset", True, None),
    ("figures", "trace_dataset", True, None),
    ("figures", "grid_to_csv", True, _count_bytes),
    ("figures", "trace_to_csv", True, _count_bytes),
    ("_kernels", "overlap_magnitudes", True, _phase_counter(2)),
    ("_kernels", "envelope_slack_scan", True, _phase_counter(5)),
    ("_kernels", "golden_min_magnitude", True, _count_accepted),
    ("_jsonfmt", "format_float", False, None),
    ("_jsonfmt", "dumps", True, _count_bytes),
)

COUNTERS = (
    "verify.finder_found",
    "verify.refine_accepted",
    "kernels.phase_evals",
    "jsonfmt.bytes_out",
)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.name_index: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current = -1
        self.op_id = -1
        self.absent: list = []

    def intern(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, name: str, func, counter=None):
        """Return a stand-in for func that records a span per call."""
        name_id = self.intern(name)
        clock = self.clock
        names, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self.current
            index = len(starts)
            self.current = index
            names.append(name_id)
            parents.append(parent)
            ops.append(self.op_id)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                self.current = parent
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return wrapper

    def arrays(self):
        """Copies of (name_id, parent, start, end) as numpy arrays."""
        # Copies, so no buffer export keeps the arrays from growing later.
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        """Write every span and counter to an .npz file."""
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            op=np.array(self.op, dtype=np.int64),
            start=start,
            end=end,
            counter_names=np.array(list(self.counters)),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every TRACED function for the block, then restore the originals."""
    top = importlib.import_module("qslkit")
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"qslkit.{name}")
        except ModuleNotFoundError:
            pass
    patched = []
    try:
        for home, func_name, patch_home, counter in TRACED:
            original = getattr(modules.get(home), func_name, None)
            if original is None:
                tracer.absent.append(f"{home}.{func_name}")
                continue
            wrapper = tracer.wrap(f"{home}.{func_name}", original, counter)
            for module in (top, *modules.values()):
                if module is modules[home] and not patch_home:
                    continue
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    patched.append((module, func_name, original))
        yield tracer
    finally:
        for module, func_name, original in reversed(patched):
            setattr(module, func_name, original)


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover."""
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def outermost(parent, member):
    """Mask of member spans with no member span among their ancestors."""
    top = member.copy()
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        top[live] &= ~member[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return top


# Layer groups: the spans each per-layer metric is computed from.
GROUPS = {
    "cli": ("cli.run_cli",),
    "finder": ("verify.find_orthogonalization_time",),
    "xi_oracle": ("verify.xi_oracle",),
    "refine": ("_kernels.golden_min_magnitude",),
    "scan": ("_kernels.envelope_slack_scan",),
    "overlap": ("_kernels.overlap_magnitudes",),
    "validate": ("states.validate_state",),
    "sample": ("states.sample_random_state",),
    "moments": ("states.energy_moments",),
    "dual": ("states.dual_state",),
    "bounds": ("bounds.bound_set", "bounds.bounds_from_moments", "bounds.popoviciu"),
    "classify": ("bounds.classify_point", "bounds.classify_regime"),
    "fig1": ("figures.fig1_dataset",),
    "trace": ("figures.trace_dataset",),
    "csv": ("figures.grid_to_csv", "figures.trace_to_csv"),
    "format": ("_jsonfmt.format_float", "_jsonfmt.dumps"),
}


def group_stats(tracer: Tracer) -> dict:
    """Per group: span count, time inside its outermost spans, self time."""
    name_id, parent, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    duration = end - start
    stats = {}
    for group, members in GROUPS.items():
        ids = [tracer.name_index[m] for m in members if m in tracer.name_index]
        member = np.isin(name_id, ids)
        top = outermost(parent, member)
        stats[group] = {
            "calls": int(member.sum()),
            "s": float(duration[top].sum()),
            "self_s": float(own[member].sum()),
        }
    return stats


def _ratio(numerator, base):
    return numerator / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""
    g = group_stats(tracer)
    c = tracer.counters
    kernel_s = g["scan"]["s"] + g["overlap"]["s"]
    return {
        "verify.finder_calls": g["finder"]["calls"],
        "verify.finder_found": c["verify.finder_found"],
        "verify.finder_found_ratio": _ratio(
            c["verify.finder_found"], g["finder"]["calls"]
        ),
        "verify.finder_s": g["finder"]["s"],
        "verify.finder_self_s": g["finder"]["self_s"],
        "verify.refine_accepted": c["verify.refine_accepted"],
        "verify.refine_accept_ratio": _ratio(
            c["verify.refine_accepted"], g["refine"]["calls"]
        ),
        "verify.xi_oracle_s": g["xi_oracle"]["s"],
        "kernels.refine_calls": g["refine"]["calls"],
        "kernels.refine_s": g["refine"]["s"],
        "kernels.scan_calls": g["scan"]["calls"],
        "kernels.scan_s": g["scan"]["s"],
        "kernels.overlap_calls": g["overlap"]["calls"],
        "kernels.overlap_s": g["overlap"]["s"],
        "kernels.phase_evals": c["kernels.phase_evals"],
        "kernels.phase_evals_per_s": _ratio(c["kernels.phase_evals"], kernel_s),
        "states.validate_calls": g["validate"]["calls"],
        "states.validate_s": g["validate"]["s"],
        "states.sample_s": g["sample"]["s"],
        "states.moments_s": g["moments"]["s"],
        "states.dual_s": g["dual"]["s"],
        "bounds.bounds_s": g["bounds"]["s"],
        "bounds.classify_calls": g["classify"]["calls"],
        "bounds.classify_s": g["classify"]["s"],
        "figures.fig1_s": g["fig1"]["s"],
        "figures.trace_s": g["trace"]["s"],
        "figures.csv_s": g["csv"]["s"],
        "jsonfmt.format_calls": g["format"]["calls"],
        "jsonfmt.format_s": g["format"]["s"],
        "jsonfmt.bytes_out": c["jsonfmt.bytes_out"],
        "cli.self_s": g["cli"]["self_s"],
    }
