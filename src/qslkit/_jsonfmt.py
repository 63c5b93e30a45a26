"""Minimal JSON writer with fixed float formatting.

The stock ``json`` module formats floats with ``repr``, which is
shortest-round-trip but not a fixed digit count, and it emits bare
``Infinity`` tokens that are not valid JSON.  Output files here must be
byte-stable and parseable anywhere, so floats are printed with 17
significant digits and infinities become the string ``"inf"``.
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


def parse_number(value):
    """Invert format_float for values read back from JSON."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


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
