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

from .model import LN2, ThermalStates, XThermalState, _xlnx

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
    "post_meas_entropy_slope",
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
    # unpacked rather than built as a PostMeasSpectrum: the refine calls
    # this once per extremum of every profile
    a1, a2, a3, a4 = _spectrum(s, theta)
    return -(_xlnx(a1) + _xlnx(a2) + _xlnx(a3) + _xlnx(a4))


def _ln_ratio(x: float, y: float, dx: float) -> float:
    """ln(x / y), given dx = x - y computed without cancellation: by
    log1p for nearby arguments, whose logs would cancel, and directly
    for distant ones, where 1 + dx / y would round a small x away."""
    return math.log1p(dx / y) if abs(dx) < 0.5 * y else math.log(x / y)


def post_meas_entropy_slope(s: XThermalState, theta: float) -> float:
    """Closed-form slope dS~/dtheta in nats per radian.

    With the ``_spectrum`` quantities alpha = a - d, beta = 1 - 4b and
    rho+- = hypot(alpha +- beta cos, 2v sin), the levels are l1, l2 =
    (1 + alpha cos +- rho+)/4 and l3, l4 = (1 - alpha cos +- rho-)/4, and

        S~' = -1/4 [-alpha sin ln(l1 l2) + rho+' ln(l1/l2)
                    + alpha sin ln(l3 l4) + rho-' ln(l3/l4)],

    rho+' = sin (4v^2 cos - beta (alpha + beta cos)) / rho+ and rho-' =
    sin (4v^2 cos + beta (alpha - beta cos)) / rho-.  With g+ = ln(l1/l2)
    / rho+, g- = ln(l3/l4) / rho- and K = 4v^2 - beta^2, the two rho
    terms are sin [cos K (g+ + g-) - alpha beta (g+ - g-)].  They are
    summed in that form where |cos K| <= |alpha beta| / 2, as near pi/2,
    where S~ flattens as an interior extremum merges into the endpoint
    and the two terms cancel to a multiple of cos: g+ - g- and ln(l3 l4 /
    (l1 l2)) are built from differences that are exact multiples of cos,
    so the slope keeps its digits relative to cos.  Elsewhere they are
    summed as written above, which keeps its digits where rho+ or rho-
    is small and g+ or g- large.  The small levels
    l2 and l4 are never formed as differences, which lose every digit at
    low T: 1 +- alpha cos, 4 l1 l2 and 4 l3 l4 are expanded in the
    populations and in 1 -+ cos = 2 sin^2 or 2 cos^2 of theta/2, with no
    cancelling terms.

    Exactly 0 at theta = 0 and 0 up to rounding at pi/2, where S~ is
    even.  A level that is 0 (a pure state) drops out, as 0 ln 0 = 0.
    """
    a, b, d, v = s.a, s.b, s.d, s.v
    c = math.cos(theta)
    sn = math.sin(theta)
    # 1 - cos and 1 + cos without cancellation; with them and a + d + 2b
    # = 1, alpha +- beta cos and 1 +- alpha cos are sums of terms no
    # larger than the result wherever it is small
    omc = 2.0 * math.sin(0.5 * theta) ** 2
    opc = 2.0 * math.cos(0.5 * theta) ** 2
    alpha = a - d
    beta = 1.0 - 4.0 * b
    cross = 2.0 * v * sn
    alpha_p = a * opc - d * omc - 2.0 * b * c  # alpha + beta cos
    alpha_m = a * omc - d * opc + 2.0 * b * c  # alpha - beta cos
    rp = math.hypot(alpha_p, cross)
    rm = math.hypot(alpha_m, cross)
    rs = rp + rm
    if sn == 0.0 or rs == 0.0:
        return 0.0  # even about 0; flat where alpha = v = beta cos = 0
    ac = alpha * c
    l1 = 0.25 * (a * opc + d * omc + 2.0 * b + rp)
    l3 = 0.25 * (a * omc + d * opc + 2.0 * b + rm)
    # 4 l1 l2 and 4 l3 l4, which differ by -4 b alpha cos
    common = sn * sn * (a * d + (b - v) * (b + v))
    n2 = common + b * (d * omc * omc + a * opc * opc)
    n4 = common + b * (d * opc * opc + a * omc * omc)
    l2 = n2 / (4.0 * l1) if l1 > 0.0 else 0.0
    l4 = n4 / (4.0 * l3) if l3 > 0.0 else 0.0
    coh = 4.0 * v * v * c
    wp = coh - beta * alpha_p  # rho+ rho+' / sin
    wm = coh + beta * alpha_m
    if l2 == 0.0 or l4 == 0.0:
        # -sum l_i' ln l_i level by level, without the empty ones; where
        # rho = 0 its two levels are equal and its term drops out
        drp = sn * wp / rp if rp > 0.0 else 0.0
        drm = sn * wm / rm if rm > 0.0 else 0.0
        asn = alpha * sn
        pairs = ((drp - asn, l1), (-drp - asn, l2), (drm + asn, l3), (asn - drm, l4))
        return -0.25 * sum(w * math.log(x) for w, x in pairs if x > 0.0)
    # ln(l1/l2) = log1p(rho+ / (2 l2)), continued by its limit at rho+ = 0
    gp = math.log1p(rp / (2.0 * l2)) / rp if rp > 0.0 else 0.5 / l2
    gm = math.log1p(rm / (2.0 * l4)) / rm if rm > 0.0 else 0.5 / l4
    log_r = _ln_ratio(n4, n2, -4.0 * b * ac)
    ck, ab = c * (4.0 * v * v - beta * beta), alpha * beta
    if abs(ck) > 0.5 * abs(ab):
        rho_terms = wp * gp + wm * gm
    else:
        # g+ - g- = (ln(l1/l2) - ln(l3/l4) - g-+ (rho+ - rho-)) / rho+-,
        # over the larger rho; ln(l1/l2) - ln(l3/l4) = 2 ln(l1/l3) + log_r
        d_rho = 4.0 * ab * c / rs
        d_log = 2.0 * _ln_ratio(l1, l3, 0.5 * ac * (1.0 + 2.0 * beta / rs)) + log_r
        if rp >= rm:
            d_g = (d_log - gm * d_rho) / rp
        else:
            d_g = (d_log - gp * d_rho) / rm
        rho_terms = ck * (gp + gm) - ab * d_g
    return -0.25 * sn * (rho_terms + alpha * log_r)


def entropy_curve(states, thetas) -> np.ndarray:
    """S~ sampled at an array of angles, for one state or for many.

    This is the array form of ``post_meas_spectrum``.  One state gives a
    1-D curve over ``thetas``; a sequence of k states, or a ThermalStates
    of k entries each, gives a (k, n) array whose row i is the curve of
    state i.  Every sample passes
    through the same elementwise operations either way, so a row is
    bitwise the curve its state gives alone.  The four levels are written
    into one (4, k, n) buffer and weighted by their logs in place.
    """
    one = isinstance(states, XThermalState)
    if isinstance(states, ThermalStates):
        a, b, d, v = (x[:, None] for x in states[:4])
    else:
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
    levels = np.empty((4,) + rp.shape)
    np.add(up, rp, out=levels[0])
    np.subtract(up, rp, out=levels[1])
    np.add(down, rm, out=levels[2])
    np.subtract(down, rm, out=levels[3])
    levels *= 0.25
    # levels at or below zero (rounding leaves some at -1e-17) keep a log
    # of 0 and so add nothing, as 0 ln 0 = 0
    logs = np.zeros_like(levels)
    np.log(levels, out=logs, where=levels > 0.0)
    levels *= logs
    curves = -levels.sum(axis=0)
    return curves[0] if one else curves


def branch_s0(s: XThermalState) -> float:
    """Entropy after measuring along z: the coherence is erased and only
    the populations survive, -a ln a - d ln d - 2 b ln b."""
    return _branch_s0(s.a, s.b, s.d)


def _branch_s0(a: float, b: float, d: float) -> float:
    """``branch_s0`` of the populations a, b, d."""
    return -(_xlnx(a) + _xlnx(d) + 2.0 * _xlnx(b))


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
    return _branch_s_halfpi(s.r)


def _branch_s_halfpi(r: float) -> float:
    """``branch_s_halfpi`` of the length r."""
    x = 0.5 * (1.0 + min(r, 1.0))
    return LN2 + binary_entropy(x)


def branch_s_halfpis(st: ThermalStates) -> np.ndarray:
    """Array form of ``branch_s_halfpi``."""
    x = 0.5 * (1.0 + np.minimum(st.r, 1.0))
    return LN2 - (_xlnxs(x) + _xlnxs(1.0 - x))


def _log_slope(x: float, y: float) -> float:
    """(ln x - ln y) / (x - y), continued by its limit 1/y at x = y.

    ln(x / y) is ``_ln_ratio``'s, which judges closeness relative to y,
    since the populations can be far below any absolute tolerance at low
    T: log1p for nearby arguments, the ratio x / y for distant ones
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, on
    log1p and differences of nearby logarithms).
    """
    dx = x - y
    return 1.0 / y if dx == 0.0 else _ln_ratio(x, y, dx) / dx


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
    return _second_derivative_at_0(s.a, s.b, s.d, s.v)


def _second_derivative_at_0(a: float, b: float, d: float, v: float) -> float:
    """``second_derivative_at_0`` of the entries a, b, d, v."""
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
    t_coh = 2.0 * v * v * (_log_slope(a, b) + _log_slope(b, d))
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
    return _second_derivative_at_halfpi(s.a, s.b, s.d, s.v, s.r)


def _second_derivative_at_halfpi(
    a: float, b: float, d: float, v: float, r: float
) -> float:
    """``second_derivative_at_halfpi`` of the entries a, b, d, v and their
    length r."""
    if r <= 1e-12:
        raise DegenerateState(
            "r = 0: the closed form is 0/0 (its limit is -(1 - 4b)^2)"
        )
    r = min(r, 1.0 - 1e-12)
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
