import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qslkit._jsonfmt import _escape, dumps, format_float, format_list, format_rows


def test_format_float_basics():
    assert format_float(0.0) == "0"
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'


def test_format_float_rejects_nan():
    with pytest.raises(ValueError):
        format_float(math.nan)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trip_is_exact(x):
    text = format_float(x)
    assert float(text) == x


@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.floats(allow_nan=False), min_size=width, max_size=width),
            max_size=150,
        ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, width))
    )
)
def test_format_rows_writes_what_format_float_writes(table):
    expected = "".join(
        ",".join(format_float(v) for v in row) + "\n" for row in table.tolist()
    )
    assert format_rows(table) == expected


def _bulk_values():
    """About 1.06 million finite doubles that stress the digits of format_rows."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    # Values next to the ties of 17-digit rounding, over the whole range.
    mantissas = rng.integers(10**16, 10**17, 100_000).tolist()
    exponents = rng.integers(-340, 300, 100_000).tolist()
    halfway = [float(f"{d}5e{e}") for d, e in zip(mantissas, exponents)]
    # Exact ties (k + 1/4 and k + 3/4 have 18 significant digits from 1e15
    # on) and exact dyadic values far below 1.
    whole = rng.integers(10**15, 2**50, 10_000).astype(np.float64)
    ties = np.concatenate((whole + 0.25, whole + 0.75, (whole + 0.5) * 2.0**-60))
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    edges = np.array(
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-7, 1e16, 1e17]
    )
    values = np.concatenate(
        (
            bits,
            halfway,
            ties,
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            edges,
        )
    )
    values = values[np.isfinite(values)]
    return np.concatenate((values, -values))


def test_format_rows_is_percent_17g_on_a_million_doubles():
    values = _bulk_values()
    assert len(values) >= 10**6
    values = values[: len(values) // 5 * 5]
    lines = format_rows(values.reshape(-1, 5)).split("\n")
    for start in range(0, len(values), 5):
        expected = ",".join(["%.17g" % v for v in values[start : start + 5].tolist()])
        if lines[start // 5] != expected:
            assert lines[start // 5] == expected, values[start : start + 5].tolist()
    assert lines[-1] == ""


def test_format_rows_writes_a_block_with_inf_as_format_float():
    table = np.linspace(-3.0, 7.0, 3000).reshape(-1, 3)
    table[700, 2] = math.inf
    table[701, 0] = -math.inf
    expected = "".join(
        ",".join(format_float(v) for v in row) + "\n" for row in table.tolist()
    )
    assert format_rows(table) == expected


@pytest.mark.parametrize(
    "values", [[], [0.5], np.linspace(-1.0, 1.0, 2001).tolist(), [1.0, math.inf, -0.0]]
)
def test_format_list_writes_the_list_dumps_writes(values):
    array = np.array(values, dtype=np.float64)
    assert dumps({"v": format_list(array)}) == dumps({"v": values})


def test_format_rows_rejects_nan():
    table = np.ones((150, 3))
    table[130, 1] = math.nan
    with pytest.raises(ValueError, match="nan"):
        format_rows(table)


def test_dumps_layout_is_stable():
    obj = {"a": 1, "b": [1.0, 2.5], "c": {"d": None, "e": True}, "f": "x"}
    assert dumps(obj) == dumps(obj)
    parsed = json.loads(dumps(obj))
    assert parsed == {"a": 1, "b": [1, 2.5], "c": {"d": None, "e": True}, "f": "x"}


def test_dumps_is_valid_json_with_infinities_as_strings():
    parsed = json.loads(dumps({"t": math.inf}))
    assert parsed["t"] == "inf"


def test_escape_writes_the_json_escapes():
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    others = ["\x80", "\u00e9", "\u2028", "\ud7ff", "\uffff", "\U0001f600"]
    for char in [chr(c) for c in range(0x80)] + others:
        if char in named:
            want = named[char]
        elif ord(char) < 0x20:
            want = "\\u%04x" % ord(char)
        else:
            want = char
        assert _escape(char) == '"' + want + '"'
        assert _escape("a" + char + "b" + char) == '"a' + want + "b" + want + '"'
        assert json.loads(_escape(char)) == char


def test_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps({1: "x"})


def test_dumps_ends_with_newline():
    assert dumps({}).endswith("\n")
