"""Entropy after a projective measurement on one spin of the dimer.

Measuring one site along a direction tilted by theta from the z axis
leaves a state whose spectrum has a closed form; the azimuthal direction
drops out because the X matrix has one vanishing antidiagonal pair.  The
entropy of that spectrum as a function of theta is even about both 0 and
pi/2, so its first derivative vanishes identically at the endpoints and
region boundaries are governed by the endpoint curvatures and by branch
crossings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ThermalStates, XThermalState, _xlnx

__all__ = [
    "HALF_PI",
    "DegenerateState",
    "PopulationUnderflow",
    "PostMeasSpectrum",
    "binary_entropy",
    "branch_s0",
    "branch_s_halfpi",
    "entropy_curve",
    "post_meas_entropy",
    "post_meas_spectrum",
    "second_derivative_at_0",
    "second_derivative_at_halfpi",
]

HALF_PI = math.pi / 2.0


class DegenerateState(ValueError):
    """r = 0: the closed-form curvature at theta = pi/2 is 0/0.

    Its limit is -(1 - 4b)^2 from every direction, so S~ still depends
    on theta unless b = 1/4 as well (the maximally mixed state)."""


class PopulationUnderflow(ArithmeticError):
    """A population fell below what floats resolve, so a closed form
    that divides by it or takes its log has no trustworthy value."""


@dataclass(frozen=True)
class PostMeasSpectrum:
    """Eigenvalues of the averaged post-measurement state."""

    A1: float
    A2: float
    A3: float
    A4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.A1, self.A2, self.A3, self.A4)


def _spectrum(s: XThermalState, theta: float) -> tuple[float, float, float, float]:
    c = math.cos(theta)
    sn = math.sin(theta)
    alpha = s.a - s.d
    beta = 1.0 - 4.0 * s.b
    cross = 2.0 * s.v * sn
    rp = math.hypot(alpha + beta * c, cross)
    rm = math.hypot(alpha - beta * c, cross)
    ac = alpha * c
    return (
        0.25 * (1.0 + ac + rp),
        max(0.25 * (1.0 + ac - rp), 0.0),
        0.25 * (1.0 - ac + rm),
        max(0.25 * (1.0 - ac - rm), 0.0),
    )


def post_meas_spectrum(s: XThermalState, theta: float) -> PostMeasSpectrum:
    """Closed-form spectrum after measuring at polar angle theta.

    At theta = 0 the multiset reduces to {a, d, b, b}; at theta = pi/2 it
    is twofold degenerate, {(1+r)/4, (1-r)/4} each twice.  Only v^2
    enters, so the spectrum is blind to the coherence sign.
    """
    return PostMeasSpectrum(*_spectrum(s, theta))


def post_meas_entropy(s: XThermalState, theta: float) -> float:
    """Post-measurement entropy S~(theta) in nats."""
    # unpacked rather than built as a PostMeasSpectrum: refinement calls
    # this about 40 times per bracket
    a1, a2, a3, a4 = _spectrum(s, theta)
    return -(_xlnx(a1) + _xlnx(a2) + _xlnx(a3) + _xlnx(a4))


def entropy_curve(states, thetas) -> np.ndarray:
    """S~ sampled at an array of angles, for one state or for many.

    This is the array form of ``post_meas_spectrum``.  One state gives a
    1-D curve over ``thetas``; a sequence of k states gives a (k, n)
    array whose row i is the curve of ``states[i]``.  Every sample passes
    through the same elementwise operations either way, so a row is
    bitwise the curve its state gives alone.
    """
    one = isinstance(states, XThermalState)
    rows = [states] if one else states
    entries = np.array([(s.a, s.b, s.d, s.v) for s in rows]).reshape(-1, 4)
    a, b, d, v = entries.T[..., None]
    th = np.asarray(thetas, dtype=float)
    c = np.cos(th)
    sn = np.sin(th)
    alpha = a - d
    bc = (1.0 - 4.0 * b) * c
    cross = 2.0 * v * sn
    rp = np.hypot(alpha + bc, cross)
    rm = np.hypot(alpha - bc, cross)
    ac = alpha * c
    up, down = 1.0 + ac, 1.0 - ac
    spec = 0.25 * np.stack([up + rp, up - rp, down + rm, down - rm])
    # levels at or below zero (rounding leaves some at -1e-17) take their
    # log at 1 and so add nothing, as 0 ln 0 = 0
    terms = spec * np.log(np.where(spec > 0.0, spec, 1.0))
    curves = -terms.sum(axis=0)
    return curves[0] if one else curves


def branch_s0(s: XThermalState) -> float:
    """Entropy after measuring along z: the coherence is erased and only
    the populations survive, -a ln a - d ln d - 2 b ln b."""
    return -(_xlnx(s.a) + _xlnx(s.d) + 2.0 * _xlnx(s.b))


def _xlnxs(x: np.ndarray) -> np.ndarray:
    """Array form of ``_xlnx``."""
    return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def branch_s0s(st: ThermalStates) -> np.ndarray:
    """Array form of ``branch_s0``."""
    return -(_xlnxs(st.a) + _xlnxs(st.d) + 2.0 * _xlnxs(st.b))


def binary_entropy(x: float) -> float:
    return -(_xlnx(x) + _xlnx(1.0 - x))


def branch_s_halfpi(s: XThermalState) -> float:
    """Entropy after measuring in the equatorial plane:
    ln 2 + h((1 + r)/2), which lies in [ln 2, ln 4]."""
    x = 0.5 * (1.0 + min(s.r, 1.0))
    return math.log(2.0) + binary_entropy(x)


def branch_s_halfpis(st: ThermalStates) -> np.ndarray:
    """Array form of ``branch_s_halfpi``."""
    x = 0.5 * (1.0 + np.minimum(st.r, 1.0))
    return math.log(2.0) - (_xlnxs(x) + _xlnxs(1.0 - x))


def _log_slope(x: float, y: float) -> float:
    """(ln x - ln y) / (x - y), continued by its limit 1/y at x = y.

    Closeness is judged relative to y, since the populations can be far
    below any absolute tolerance at low T.  For nearby arguments log1p
    keeps the digits that ln x - ln y would cancel; for distant ones the
    ratio x / y is taken directly, because 1 + (x - y) / y rounds away a
    small x (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, on log1p and differences of nearby logarithms).
    """
    dx = x - y
    if dx == 0.0:
        return 1.0 / y
    if abs(dx) < 0.5 * y:
        return math.log1p(dx / y) / dx
    return math.log(x / y) / dx


def _log_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Array form of ``_log_slope``."""
    dx = x - y
    near = np.abs(dx) < 0.5 * y
    ratio = np.where(near, np.log1p(np.where(near, dx / y, 0.0)), np.log(x / y))
    return np.where(dx == 0.0, 1.0 / y, ratio / np.where(dx == 0.0, 1.0, dx))


# Populations below this count as underflowed; above it every quotient of
# two populations stays within float range.
_POP_FLOOR = 1e-300


def second_derivative_at_0(s: XThermalState) -> float:
    """Closed-form curvature of S~ at theta = 0.

    Its zero set is the boundary at which an interior extremum detaches
    from the z endpoint; the difference quotients of logarithms are
    evaluated without cancellation near a = b and b = d, in relative
    terms so that low-T populations far below one stay accurate.
    Raises PopulationUnderflow when a, b or d is below 1e-300 (at low T
    they underflow to 0): a value from floored populations could change
    sign where the true curvature does not.
    """
    a, b, d = s.a, s.b, s.d
    if min(a, b, d) < _POP_FLOOR:
        raise PopulationUnderflow(
            f"population below {_POP_FLOOR:g} (a={a!r}, b={b!r}, d={d!r})"
        )
    ad, bb = a * d, b * b
    if min(ad, bb) >= sys.float_info.min:
        log_ratio = math.log(ad / bb)
    else:  # a product underflows, the quotients do not
        log_ratio = math.log(a / b) + math.log(d / b)
    t_pop = (a - d) * math.log(a / d)
    t_bal = (1.0 - 4.0 * b) * log_ratio
    t_coh = 2.0 * s.v * s.v * (_log_slope(a, b) + _log_slope(b, d))
    return 0.25 * (t_pop + t_bal - t_coh)


def second_derivatives_at_0(st: ThermalStates) -> np.ndarray:
    """Array form of ``second_derivative_at_0``, with the same arithmetic
    per state.  Raises PopulationUnderflow if any state has a, b or d
    below 1e-300."""
    a, b, d, v = st.a, st.b, st.d, st.v
    low = np.minimum(np.minimum(a, b), d) < _POP_FLOOR
    if low.any():
        i = int(np.argmax(low))
        raise PopulationUnderflow(
            f"population below {_POP_FLOOR:g} (a={a[i]!r}, b={b[i]!r}, d={d[i]!r})"
        )
    ad, bb = a * d, b * b
    fits = np.minimum(ad, bb) >= sys.float_info.min
    log_ratio = np.where(
        fits,
        np.log(np.where(fits, ad, 1.0) / np.where(fits, bb, 1.0)),
        np.log(a / b) + np.log(d / b),
    )
    t_pop = (a - d) * np.log(a / d)
    t_bal = (1.0 - 4.0 * b) * log_ratio
    t_coh = 2.0 * v * v * (_log_slopes(a, b) + _log_slopes(b, d))
    return 0.25 * (t_pop + t_bal - t_coh)


def second_derivative_at_halfpi(s: XThermalState) -> float:
    """Closed-form curvature of S~ at theta = pi/2.

    Raises DegenerateState when r = 0, where the closed form is 0/0 (its
    limit is -(1 - 4b)^2; S~ is theta independent only if also b = 1/4).
    r is clamped just below 1 so the log stays finite at the
    floor-temperature limit.
    """
    if s.r <= 1e-12:
        raise DegenerateState(
            "r = 0: the closed form is 0/0 (its limit is -(1 - 4b)^2)"
        )
    r = min(s.r, 1.0 - 1e-12)
    a, b, d, v = s.a, s.b, s.d, s.v
    beta = 1.0 - 4.0 * b
    t_coh = (
        8.0
        * v
        * v
        * ((a - b) * (b - d) + v * v)
        / r**3
        * math.log((1.0 + r) / (1.0 - r))
    )
    t_pop = (
        0.5
        * (a - d) ** 2
        * ((1.0 + beta / r) ** 2 / (1.0 + r) + (1.0 - beta / r) ** 2 / (1.0 - r))
    )
    return t_coh - t_pop


def second_derivatives_at_halfpi(st: ThermalStates) -> np.ndarray:
    """Array form of ``second_derivative_at_halfpi``, with the same
    arithmetic per state.  Raises DegenerateState if any state has
    r <= 1e-12."""
    if (st.r <= 1e-12).any():
        raise DegenerateState(
            "r = 0: the closed form is 0/0 (its limit is -(1 - 4b)^2)"
        )
    r = np.minimum(st.r, 1.0 - 1e-12)
    a, b, d, v = st.a, st.b, st.d, st.v
    beta = 1.0 - 4.0 * b
    t_coh = (
        8.0 * v * v * ((a - b) * (b - d) + v * v) / r**3
        * np.log((1.0 + r) / (1.0 - r))
    )
    t_pop = (
        0.5
        * (a - d) ** 2
        * ((1.0 + beta / r) ** 2 / (1.0 + r) + (1.0 - beta / r) ** 2 / (1.0 - r))
    )
    return t_coh - t_pop
