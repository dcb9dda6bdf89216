"""Deterministic number formatting for CSV, tables, and reports.

All rendering is locale-independent: '.' decimal separator, no grouping.
A value rounds half away from zero on its shortest decimal repr, the digits
repr() prints: 2.675 renders as 2.68, although the double nearest 2.675
lies just below it. A value that rounds to zero prints unsigned. Raw
doubles belong in JSON output; these helpers exist for the human-facing
and CSV layers only.

format_fixed takes a fast path when it can: f"{x:.{p}f}" rounds the exact
binary value of x, and that gives the same digits as rounding its shortest
repr whenever no rounding boundary lies between the two. The boundaries
are the ties (k + 1/2) / 10**p, and the repr lies within half an ulp of x,
so a boundary can only fall between them when the repr is itself (nearly)
the tie. _float_rounding_agrees checks this; ties such as 2.675 and values
of 2**40 / 10**p and above take the Decimal path, and inf and nan, which
have no digits to round, raise ValueError. A negative value that rounds to
zero formats as its absolute value, the unsigned zero.
"""

from __future__ import annotations

from math import copysign, isfinite

from .timevalue import _check_periods, _check_real

__all__ = ["format_fixed", "format_percent", "align_table"]

MAX_PLACES = 12
_POW10 = tuple(10.0**k for k in range(MAX_PLACES + 1))  # exact doubles up to 10**22
_FIXED_TEMPLATES = tuple(f"%.{k}f" for k in range(MAX_PLACES + 1))  # built once: a nested spec costs more than the check
# the fast path's bounds, computed once: |scaled| below 2**40, and more
# than 1e-3 from every half-integer
_SCALED_LOW, _SCALED_HIGH = -(2.0**40), 2.0**40
_TIE_LOW, _TIE_HIGH = 1e-3 - 0.5, 0.5 - 1e-3
# adding and subtracting 1.5 * 2**52 rounds a double below 2**51 in size to an integer
_RINT = 1.5 * 2.0**52
# a finite double has at most 309 integer digits, and a percent of one 311;
# keep every one plus the decimals
_DECIMAL_DIGITS = 311 + MAX_PLACES


def _float_rounding_agrees(value: float, places: int) -> bool:
    """True when f"{value:.{places}f}" is exactly format_fixed(value, places).

    Let s = value * 10**places, exactly, and r the shortest repr of value.
    For |s| < 2**40 the computed product is within 2**-14 of s (10**places
    itself is exact), and r * 10**places is within 2**-13 of s, as r lies
    within half an ulp of value: at most 2**-53 * |value|, or 2**-1075 for
    a subnormal. The rounding to an integer and the difference below are
    exact. So when the computed product is more than 1e-3 from every
    half-integer, s and r * 10**places lie on the same side of each one:
    correctly rounded float formatting of value and ROUND_HALF_UP on r give
    the same integer. Float formatting keeps the sign of a value that
    rounds to zero ("-0.00"), so a negative value above -1/2 after scaling,
    or -0.0, is not accepted.
    """
    scaled = value * _POW10[places]
    return (
        _SCALED_LOW < scaled < _SCALED_HIGH
        and _TIE_LOW < scaled - (scaled + _RINT - _RINT) < _TIE_HIGH
        and (scaled > 0.0 or scaled <= -0.5 or copysign(1.0, scaled) > 0.0)
    )


def format_fixed(value: float, places: int) -> str:
    """Fixed-point string with the given decimals, ties away from zero."""
    if not (places.__class__ is int and 0 <= places <= MAX_PLACES):
        places = _check_periods(places, "places", 0, MAX_PLACES)
    # _float_rounding_agrees(value, places) inline, its proof in its docstring;
    # the range and tie tests do not depend on the sign of value
    try:
        scaled = value * _POW10[places]
    except TypeError:  # not a number, such as a numeric string: read as float() reads it
        value = _check_real(value, "value")
        scaled = value * _POW10[places]
    if _SCALED_LOW < scaled < _SCALED_HIGH and _TIE_LOW < scaled - (scaled + _RINT - _RINT) < _TIE_HIGH:
        if scaled > 0.0 or scaled <= -0.5 or copysign(1.0, scaled) > 0.0:
            return _FIXED_TEMPLATES[places] % value
        # a negative value that rounds to zero: its absolute value prints
        # the unsigned zero
        return _FIXED_TEMPLATES[places] % -value
    return _format_decimal(_check_real(value, "value"), places)


def _format_decimal(value: float, places: int, scale: int = 0) -> str:
    """value * 10**scale, from the shortest repr of value, rounded half up."""
    from decimal import ROUND_HALF_UP, Context, Decimal  # loaded only when a value needs it

    quantized = Decimal(repr(float(value))).scaleb(scale).quantize(
        Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP, context=Context(prec=_DECIMAL_DIGITS)
    )
    if quantized == 0:
        quantized = abs(quantized)  # avoid "-0.00"
    return f"{quantized:f}"


def format_percent(rate: float, places: int = 2) -> str:
    """Rate fraction as a percentage string: 0.2 -> '20.00%'.

    A finite rate whose percent overflows a double (above ~1.8e306) is
    scaled on its decimal digits instead.
    """
    try:
        percent = rate * 100.0
    except TypeError:  # not a number, such as a numeric string: read as float() reads it
        rate = _check_real(rate, "rate")
        percent = rate * 100.0
    if not isfinite(percent):
        places = _check_periods(places, "places", 0, MAX_PLACES)
        return _format_decimal(_check_real(rate, "rate"), places, scale=2) + "%"
    return format_fixed(percent, places) + "%"


def align_table(rows: list[list[str]]) -> str:
    """Left-aligned columns padded to the widest cell, two-space gutters; ragged rows raise ValueError."""
    columns = list(zip(*rows, strict=True))
    specs = [f"%-{max(map(len, column))}s" for column in columns]
    # with no column at all, each row prints as an empty line
    cells = zip(*columns) if columns else [()] * len(rows)
    if columns and all(last := columns[-1]) and last == tuple(map(str.rstrip, last)):
        # every last cell ends in a non-blank, so rstrip would take only the
        # last column's padding: leave it unpadded instead
        specs[-1] = "%s"
        return "\n".join(map("  ".join(specs).__mod__, cells)) + "\n"
    line = "  ".join(specs)
    return "\n".join([(line % row).rstrip() for row in cells]) + "\n"


def _report_text(rows: list[list[str]], lines=(), csv: bool = False) -> str:
    """A block of cell rows, header first, then one line per trailer: the
    rows aligned as a table, or their cells joined by commas."""
    text = "\n".join(map(",".join, rows)) + "\n" if csv else align_table(rows)
    return text + "".join(f"{line}\n" for line in lines)
