import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qslkit._jsonfmt import dumps, format_float, format_rows


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


def test_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps({1: "x"})


def test_dumps_ends_with_newline():
    assert dumps({}).endswith("\n")
