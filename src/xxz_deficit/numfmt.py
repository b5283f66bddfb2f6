"""The 9-significant-digit rule of every written number.

CSV cells are ``fmt9`` strings; JSON numbers are ``round9`` floats, the
same digits read back, so both formats of one result agree.  ``repr9``
is the text json.dumps writes for a ``round9`` float.  ``FMT9`` is the
%-format that ``fmt9`` applies, for a writer that formats a whole line
of numbers with one %.
"""

from __future__ import annotations

__all__ = ["FMT9", "fmt9", "repr9", "round9"]

FMT9 = "%.9g"  # the text of format(x, ".9g")


def fmt9(x: float) -> str:
    return FMT9 % float(x)


def round9(x: float) -> float:
    return float(fmt9(x))


def repr9(x: float) -> str:
    """``repr(round9(x))``.  A positional ``fmt9`` text with a point is
    that repr already: its at most 9 digits read back as the float whose
    shortest repr they are, and repr is positional for every exponent
    ``.9g`` writes positionally.  Integers, exponents, -0 and subnormals
    go through the float."""
    text = fmt9(x)
    if "." in text and "e" not in text:
        return text
    return repr(float(text))
