"""Minimal JSON writer with fixed float formatting.

The stock ``json`` module formats floats with ``repr``, which is
shortest-round-trip but not a fixed digit count, and it emits bare
``Infinity`` tokens that are not valid JSON.  Output files here must be
byte-stable and parseable anywhere, so floats are printed with 17
significant digits and infinities become the string ``"inf"``.  The
CSV writers use the same rule, through format_float or format_rows.

format_float is the definition: ``"%.17g"``.  format_rows and
format_list write the same bytes for whole arrays in numpy passes,
because CPython's 17-digit conversion costs about 0.6 us a value.  Their
digits are exact.  For 1e-280 <= |v| <= 1e280 the 17 digits D and the
exponent X are read off y = |v| * 10**(16 - X), formed as a
double-double.  10**(16 - X) is hi + lo from Python ints, both
correctly rounded, so within a relative 2**-106 of it, and Dekker's
product gives |v| * hi exactly.  So y is known to within about 1e-14 while
10**16 <= y < 10**17 (X is moved by one where log10 misses; the test
is on the unrounded y), and rounding it to the nearest integer gives
the correctly rounded D unless the fraction of y lies within 1e-9 of
1/2.  Such a value (an exact tie among them), a value outside that
domain, and +-0 take D and X from ``"%.16e" % |v|``, the same digits.
A block of rows holding nan or inf is written value by value through
format_float, which refuses nan and quotes inf.
"""

from __future__ import annotations

import functools
import math

import numpy as np


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


# Dekker's splitting constant 2**27 + 1 (see _split).
_SPLIT = 134217729.0

# Decimal exponents of 1e-280 <= |v| <= 1e280, the values whose digits
# come from the double-double product: no factor of that product, and no
# partial product, overflows or underflows.
_X_MIN, _X_MAX = -281, 280

# Decimal exponents of the 17-digit rounding of any finite double.
_E_MIN, _E_MAX = -324, 308

# Bytes of one value's row in _format_finite.
_WIDTH = 32


def _split(a):
    """a as hi + lo, each of at most 26 significant bits, exactly."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers() -> np.ndarray:
    """Columns hi_hi, hi_lo, hi, lo of 10**(16 - X), X from _X_MIN to _X_MAX.

    hi is 10**k rounded to a double and lo the rounded rest, both from
    Python ints (int / int rounds correctly); hi_hi + hi_lo is hi split.
    """
    pairs = []
    for x in range(_X_MIN, _X_MAX + 1):
        k = 16 - x
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            den = 10**-k
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        pairs.append((hi, lo))
    hi, lo = np.array(pairs).T
    table = np.stack((*_split(hi), hi, lo), axis=1)
    table.setflags(write=False)
    return table


def _scaled(a, a_split, x):
    """a * 10**(16 - x) as an unnormalized double-double p + l."""
    b_hi, b_lo, b, lo = np.take(_powers(), x - _X_MIN, axis=0).T
    a_hi, a_lo = a_split
    p = a * b
    # Dekker's product: p + err is a * b exactly.
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err + a * lo


def _digits(values):
    """Digits D (int64, 10**16 <= D < 10**17, or 0) and exponents X (int64)
    of the 17-digit rounding of finite values: |v| ~ D * 10**(X - 16)."""
    a = np.abs(values)
    exact = (a >= 1e-280) & (a <= 1e280)
    a = np.where(exact, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    a_split = _split(a)
    p, l = _scaled(a, a_split, x)
    # log10 can miss by one next to a power of ten.  Test the unrounded
    # product: 1e-7 is 9.99...95e-08, whose y rounds up to 10**16.
    below = (p < 1e16) | ((p == 1e16) & (l < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (l >= 0.0))
    if below.any() or above.any():
        x += above
        x -= below
        p, l = _scaled(a, a_split, x)
    # p >= 2**53 is an integer; l - floor(l) is exact, 1.0 for a tiny l < 0.
    whole = np.floor(l)
    frac = l - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits >= 10**17
    digits[carry] = 10**16
    x += carry
    for i in np.flatnonzero(~exact | (np.abs(frac - 0.5) < 1e-9)).tolist():
        text = "%.16e" % abs(values[i])
        digits[i] = int(text[0] + text[2:18])
        x[i] = int(text[19:])
    return digits, x


@functools.cache
def _layout_tables():
    """Read-only tables of _format_finite.

    chars[g], a little-endian uint32, holds the four ASCII digits of
    g < 10**4, and last[g] the index of its last nonzero digit (-_WIDTH
    for 0000).  keep[(first * 24 + end) * 3 + form] picks a row's bytes:
    columns first to end, and for form 1 and 2 the exponent with 2 or 3
    digits, and the separator.  before[point] marks the columns left of
    the point.  suffix[X - _E_MIN], a little-endian uint64, holds "e",
    the sign, 3 exponent digits and a comma.

    They are built from bytes and with the integer operations that
    _format_finite uses: every other numpy kernel a process runs pages
    in more of numpy's library, about 64 kB each.
    """
    rest = np.arange(10**4)
    word = np.full(10**4, 0x30303030)
    last = np.full(10**4, -_WIDTH)
    for i, place in enumerate((1000, 100, 10, 1)):
        digit = rest // place
        rest = rest - digit * place
        word = word + (digit << 8 * i)
        last = np.where(digit > 0, i, last)
    chars = word.astype("<u4")
    exponent = (b"\0" * 5, b"\1\1\0\1\1", b"\1" * 5)
    keep = np.frombuffer(
        b"".join(
            bytes(first <= c <= end for c in range(24)) + exponent[form] + b"\1\0\0"
            for first in range(7)
            for end in range(24)
            for form in range(3)
        ),
        dtype=bool,
    ).reshape(-1, _WIDTH)
    before = np.frombuffer(
        b"".join(b"\xff" * point + b"\0" * (_WIDTH - point) for point in range(24)),
        dtype=np.uint8,
    ).reshape(-1, _WIDTH)
    suffix = np.frombuffer(
        b"".join(b"e%+04d,\0\0" % x for x in range(_E_MIN, _E_MAX + 1)), dtype="<u8"
    )
    chars.setflags(write=False)
    last.setflags(write=False)
    return chars, last, keep, before, suffix


def _format_finite(block) -> str:
    """format_rows' lines of a 2-D block of finite float64 values.

    Each value gets a row of _WIDTH bytes.  Buffer b holds, in columns 0-6,
    zeros and the sign (the leading zeros of 0.000ddd), in columns 7-23
    the digits of D, in 24-28 the exponent and in 29 the separator.  A
    point after column 7 + X (fixed form, -4 <= X < 17) or 7 (exponent
    form) makes the row b[c + 1] left of the point, "." at it and b[c]
    right of it.  keep then drops the leading zeros, the trailing zeros
    after the point, and the exponent in fixed form, as %g does.
    """
    values = block.ravel()
    n = len(values)
    digits, x = _digits(values)
    chars, last_t, keep_t, before_t, suffix_t = _layout_tables()
    # D is d0 followed by four 4-digit groups.
    high = digits // 10**8
    low = digits - high * 10**8
    high4 = high // 10**4
    low4 = low // 10**4
    d0 = high4 // 10**4
    groups = np.empty((4, n), dtype=np.intp)
    groups[0] = high4 - d0 * 10**4
    groups[1] = high - high4 * 10**4
    groups[2] = low4
    groups[3] = low - low4 * 10**4
    b = np.empty((n, _WIDTH), dtype=np.uint8)
    words = b.view("<u4")
    words[:, 0] = 0x30303030
    words[:, 1] = (d0 << 24) + 0x30303030
    words[:, 2:6] = chars[groups.T]
    b.view("<u8")[:, 3] = suffix_t[x - _E_MIN]
    b[block.shape[1] - 1 :: block.shape[1], 29] = ord("\n")
    # Column of the last nonzero digit: d0's, 7, if every group is 0000.
    nonzero = last_t[groups]
    last = 8 + np.maximum(
        np.maximum(np.maximum(nonzero[0], nonzero[1] + 4), -1),
        np.maximum(nonzero[2] + 8, nonzero[3] + 12),
    )
    fixed = (x >= -4) & (x <= 16)
    point = 7 + np.where(fixed, x, 0)
    lead = np.minimum(point, 7)
    rows = np.arange(0, n * _WIDTH, _WIDTH)
    negative = np.signbit(values)
    b.ravel()[rows[negative] + lead[negative] - 1] = ord("-")
    # line[c] = b[c + 1] left of the point, else b[c]: b ^ ((b ^ b_next) & mask).
    flat = b.ravel()
    line = np.zeros_like(flat)
    np.bitwise_xor(flat[:-1], flat[1:], out=line[:-1])
    line &= np.take(before_t, point, axis=0).ravel()
    line ^= flat
    line[rows + point] = ord(".")
    end = np.where(last > point, last, point - 1)
    form = ~fixed * (1 + ((x >= 100) | (x <= -100)))
    keep = np.take(keep_t, ((lead - 1 - negative) * 24 + end) * 3 + form, axis=0)
    return line[keep.ravel()].tobytes().decode("ascii")


# format_rows formats this many rows at a time.  _format_finite holds
# about 0.2 kB of arrays per value, so a 512-row block of a five-column
# trace adds about 0.5 MB to the peak of writing a 2000-row trace (0.9
# MB against the 0.4 MB of its text, by tracemalloc), and 1024 rows add
# 1.2 MB.  Each block also pays for about 80 numpy calls: the six
# fig2/fig3 traces take 1.8 times as long in 128-row blocks.
_ROWS_PER_BLOCK = 512


def format_rows(table) -> str:
    """CSV lines, one per row of a 2-D float array, as format_float writes each value.

    Blocks of finite values are formatted in array passes (see the module
    docstring).  A block of rows holding nan or inf is written value by
    value instead, so nan is refused and inf quoted exactly as
    format_float does.
    """
    table = np.asarray(table, dtype=np.float64)
    blocks = []
    for start in range(0, len(table), _ROWS_PER_BLOCK):
        block = table[start : start + _ROWS_PER_BLOCK]
        if np.isfinite(block).all():
            blocks.append(_format_finite(block))
        else:
            blocks.append(
                "".join([",".join(map(format_float, row)) + "\n" for row in block.tolist()])
            )
    return "".join(blocks)


def format_list(values) -> Verbatim:
    """The JSON list dumps writes for a 1-D float array, formatted as format_rows does."""
    lines = format_rows(np.reshape(values, (-1, 1)))
    return Verbatim("[" + lines[:-1].replace("\n", ", ") + "]")


def _write(obj, parts: list, level: int) -> None:
    pad = "  " * level
    inner = pad + "  "
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
            _write(val, parts, level + 1)
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
                _write(val, parts, level + 1)
                if i < len(obj) - 1:
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, val in enumerate(obj):
                parts.append(inner)
                _write(val, parts, level + 1)
                parts.append(",\n" if i < len(obj) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, Verbatim):
        parts.append(obj.text)
    else:
        try:
            parts.append(format_float(float(obj)))
        except (TypeError, ValueError):
            raise TypeError(f"unserializable object: {type(obj)!r}")


# JSON's escapes of the control characters, the quote and the backslash.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\t"): "\\t", ord("\r"): "\\r"
}


def _escape(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def dumps(obj) -> str:
    parts: list = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)
