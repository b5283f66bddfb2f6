"""The 9-significant-digit rule of every written number.

CSV cells are ``fmt9`` strings; JSON numbers are ``round9`` floats, the
same digits read back, so both formats of one result agree.
"""

from __future__ import annotations

__all__ = ["fmt9", "round9"]


def fmt9(x: float) -> str:
    return format(float(x), ".9g")


def round9(x: float) -> float:
    return float(fmt9(x))
