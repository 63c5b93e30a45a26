"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest qslbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import qslkit  # noqa: E402
import qslkit.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _first_dense_minimum(levels, exact):
    # Window ends before |f| can return near zero: the next zero of every
    # family lies beyond 1.25 * exact.
    times = np.linspace(0.0, 1.2 * exact, 240_001)
    magnitude = workloads.overlap_magnitudes(levels, times)
    return times[int(np.argmin(magnitude))], float(magnitude.min()), times[1]


@pytest.mark.parametrize("seed", range(12))
def test_exact_orthogonalization_times_match_a_dense_grid(seed):
    levels, exact = workloads.query_state(np.random.default_rng(seed))
    t_min, f_min, step = _first_dense_minimum(levels, exact)
    assert abs(t_min - exact) <= step
    assert f_min < 1e-4


def test_query_families_all_appear_and_pass_their_check():
    rng = np.random.default_rng(0)
    sizes = set()
    for _ in range(60):
        levels, exact = workloads.query_state(rng)
        sizes.add(len(levels))
        workloads._check_query(exact)(workloads.query(levels))
    assert {2, 3}.issubset(sizes) and max(sizes) > 3


def test_query_check_rejects_a_wrong_time():
    levels, exact = [(0.0, 0.5), (2.0, 0.5)], math.pi / 2.0
    result = workloads.query(levels)
    with pytest.raises(workloads.CheckFailed):
        workloads._check_query(exact * 1.001)(result)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_synthetic_nested_trace():
    # a [0, 10] holds b [1, 4] and d [5, 7]; b holds c [2, 3].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    c = tracer.wrap("c", lambda: "c")
    b = tracer.wrap("b", lambda: c() + "b")
    d = tracer.wrap("d", lambda: "d")
    a = tracer.wrap("a", lambda: b() + d() + "a")
    assert a() == "cbda"

    name_id, parent, start, end = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    assert names == ["a", "b", "c", "d"]
    assert parent.tolist() == [-1, 0, 1, 0]
    own = dict(zip(names, spans.self_times(parent, start, end)))
    assert own == {"a": 10 - 3 - 2, "b": 3 - 1, "c": 1, "d": 2}

    member = np.array([name in ("a", "c") for name in names])
    assert spans.outermost(parent, member).tolist() == [True, False, False, False]


def test_traced_calls_return_the_same_results_and_names_are_restored(tmp_path):
    modules = [qslkit] + [getattr(qslkit, name) for name in spans.MODULES]
    before = {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    }
    state = qslkit.make_qubit(0.5, 1.0)
    plain_path, traced_path = tmp_path / "plain.csv", tmp_path / "traced.csv"
    argv = ["fig2", "--scenario", "b", "-o"]
    assert qslkit.cli.run_cli(argv + [str(plain_path)]) == 0
    expected = qslkit.find_orthogonalization_time(state)

    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert qslkit.verify.bound_set is not before[("qslkit.verify", "bound_set")]
        assert qslkit.find_orthogonalization_time(state) == expected
        assert qslkit.cli.run_cli(argv + [str(traced_path)]) == 0

    assert traced_path.read_bytes() == plain_path.read_bytes()
    assert tracer.absent == []
    assert "figures.trace_dataset" in {tracer.names[i] for i in tracer.name_id}
    after = {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    }
    assert after == before
