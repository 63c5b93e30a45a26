"""Minimal JSON writer with fixed float formatting.

The stock ``json`` module formats floats with ``repr``, which is
shortest-round-trip but not a fixed digit count, and it emits bare
``Infinity`` tokens that are not valid JSON.  Output files here must be
byte-stable and parseable anywhere, so floats are printed with 17
significant digits and infinities become the string ``"inf"``.  The
CSV writers use the same rule, through format_float or format_rows.
"""

from __future__ import annotations

import math


class Verbatim:
    """JSON text that dumps copies unchanged, for values rendered in bulk."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def format_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    if math.isnan(value):
        raise ValueError("nan is not representable in output files")
    return f"{value:.17g}"


# format_rows turns this many rows into Python floats at a time: turning a
# whole 2000-row trace at once held 10 000 floats and 2000 lists alive
# together and raised the peak RSS of a round of the figure commands by
# about 0.7 MB.
_ROWS_PER_BLOCK = 64


def format_rows(table) -> str:
    """CSV lines, one per row of a 2-D float array, as format_float writes each value.

    A finite float prints the same through ``%.17g`` as through
    format_float, so each line takes one %-operation.  A block of rows
    holding nan or inf is written value by value instead, so nan is
    refused and inf quoted exactly as format_float does.
    """
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = []
    for start in range(0, len(table), _ROWS_PER_BLOCK):
        rows = table[start : start + _ROWS_PER_BLOCK].tolist()
        text = "".join([line % tuple(row) for row in rows])
        # Only "nan" and "inf" put an n into %.17g output.
        if "n" in text:
            text = "".join([",".join(map(format_float, row)) + "\n" for row in rows])
        blocks.append(text)
    return "".join(blocks)


def _write(obj, parts: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_escape(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            parts.append(f"{inner}{_escape(key)}: ")
            _write(val, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        scalars = all(
            v is None or isinstance(v, (bool, int, float, str)) for v in obj
        )
        if scalars:
            parts.append("[")
            for i, val in enumerate(obj):
                _write(val, parts, indent, level + 1)
                if i < len(obj) - 1:
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, val in enumerate(obj):
                parts.append(inner)
                _write(val, parts, indent, level + 1)
                parts.append(",\n" if i < len(obj) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, Verbatim):
        parts.append(obj.text)
    else:
        try:
            parts.append(format_float(float(obj)))
        except (TypeError, ValueError):
            raise TypeError(f"unserializable object: {type(obj)!r}")


def _escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dumps(obj, indent: int = 2) -> str:
    parts: list = []
    _write(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)
