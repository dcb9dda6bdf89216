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
the tie. _float_rounding_agrees checks this; ties such as 2.675, values of
2**40 / 10**p and above, and inf and nan take the Decimal path. A negative
value that rounds to zero formats as its absolute value, the unsigned zero.
"""

from __future__ import annotations

from math import copysign, isfinite, isinf

__all__ = ["format_fixed", "format_percent", "align_table"]

MAX_PLACES = 12
_POW10 = tuple(10.0**k for k in range(MAX_PLACES + 1))  # exact doubles up to 10**22
_FIXED_SPECS = tuple(f".{k}f" for k in range(MAX_PLACES + 1))  # built once: a nested spec costs more than the check
_SCALED_LIMIT = 2.0**40
# adding and subtracting 1.5 * 2**52 rounds a double below 2**51 in size to an integer
_RINT = 1.5 * 2.0**52
_TIE_MARGIN = 1e-3
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
    exact. So when the computed product is more than _TIE_MARGIN from every
    half-integer, s and r * 10**places lie on the same side of each one:
    correctly rounded float formatting of value and ROUND_HALF_UP on r give
    the same integer. Float formatting keeps the sign of a value that
    rounds to zero ("-0.00"), so a negative value above -1/2 after scaling,
    or -0.0, is not accepted.
    """
    scaled = value * _POW10[places]
    return (
        -_SCALED_LIMIT < scaled < _SCALED_LIMIT
        and _TIE_MARGIN - 0.5 < scaled - (scaled + _RINT - _RINT) < 0.5 - _TIE_MARGIN
        and (scaled > 0.0 or scaled <= -0.5 or copysign(1.0, scaled) > 0.0)
    )


def _check_places(places: int) -> None:
    if places < 0 or places > MAX_PLACES:
        raise ValueError(f"places must be in 0..{MAX_PLACES}, got {places!r}")


def format_fixed(value: float, places: int) -> str:
    """Fixed-point string with the given decimals, ties away from zero."""
    _check_places(places)
    if _float_rounding_agrees(value, places):
        return format(value, _FIXED_SPECS[places])
    if _float_rounding_agrees(-value, places):
        # only a negative value that rounds to zero fails the test above and
        # passes this one: its absolute value prints the unsigned zero
        return format(-value, _FIXED_SPECS[places])
    return _format_decimal(value, places)


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
    percent = rate * 100.0
    if isinf(percent) and isfinite(rate):
        _check_places(places)
        return _format_decimal(rate, places, scale=2) + "%"
    return format_fixed(percent, places) + "%"


def align_table(rows: list[list[str]]) -> str:
    """Left-aligned columns padded to the widest cell, two-space gutters."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    line = "  ".join(f"{{:<{width}}}" for width in widths).format
    return "\n".join([line(*row).rstrip() for row in rows]) + "\n"
