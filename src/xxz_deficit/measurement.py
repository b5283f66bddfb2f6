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

import numpy as np

from .model import LN2, ThermalStates, XThermalState, _xlnx, _xlnxs

__all__ = [
    "HALF_PI",
    "DegenerateState",
    "PopulationUnderflow",
    "branch_s0",
    "branch_s_halfpi",
    "entropy_curve",
    "post_meas_entropy",
    "post_meas_entropy_slope",
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


def _spectrum(s: XThermalState, theta: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum of the state averaged after measuring at polar
    angle theta: {a, d, b, b} at theta = 0, {(1+r)/4, (1-r)/4} each twice
    at pi/2.  Only v^2 enters, so it is blind to the coherence sign."""
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


def post_meas_entropy(s: XThermalState, theta: float) -> float:
    """Post-measurement entropy S~(theta) in nats."""
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


# S~ samples per array pass of ``entropy_curve``: 32 states at the
# default 201 angles, 8 at 801.  A call allocates one set of work arrays
# of this size and reuses it for every pass, so its temporaries do not
# grow with its states: a 40x40 ``optimize_grid`` call, one call per
# block of 256 cells, peaks at 1.08 MB of traced memory, and a 65-state
# ``jumps`` scan line at 801 angles, with its whole (65, 801) sample
# array, at 0.96 MB (1.38 and 1.24 MB when each pass took fresh
# temporaries).  Fresh temporaries cost 43, 106, 213 and 345 minor page
# faults per 201-angle call of 24, 32, 48 and 64 states; the reused
# arrays cost none.  A ``sweep`` round (two 40x40 diagrams and their
# output) took 140 ms at 16 and 126 ms at 32 states per pass, scaled by
# the benchmark's calibration kernel, when each pass was a call.
_PASS_SAMPLES = 32 * 201


def entropy_curve(states, thetas) -> np.ndarray:
    """S~ sampled at an array of angles, for one state or for many.

    This is the array form of ``post_meas_entropy``.  One state gives a
    1-D curve over ``thetas``; a sequence of k states, or a ThermalStates
    of k entries each, gives a (k, n) array whose row i is the curve of
    state i.  The states go in array passes of at most _PASS_SAMPLES
    samples (one state at least), each written into its rows of the
    result by ``_curve_pass`` in one set of work arrays, allocated once
    per call.  Every sample passes through the same elementwise
    operations however the states are grouped, so a row is bitwise the
    curve its state gives alone.  A level at or below zero (rounding
    leaves some at -1e-17) takes the log of 1 and so adds nothing, as
    0 ln 0 = 0.
    """
    return _curves(states, thetas, _rho_hypot)


# The bound delta on |fast - exact| of ``_fast_entropy_curve``, derived
# in its docstring.
_FAST_DELTA = 1e-13


def _fast_entropy_curve(states, thetas) -> np.ndarray:
    """``entropy_curve`` with rho+- = sqrt(x^2 + y^2) in place of
    np.hypot(x, y): about 0.7 of its time, and within _FAST_DELTA = 1e-13
    of it at every sample of every checked state (XThermalState's checks)
    and every theta in [0, pi/2].

    Proof.  Both kernels run the same operations on the same floats but
    for rho+-, so every difference starts there.  Let u = 2^-53 be the
    unit roundoff.
    - rho.  The checks give a + 2b + d = 1 up to 1e-9, entries >= -1e-12
      and v <= b + 1e-12.  With s = a + d, |alpha| <= s, |beta| = |2s -
      1| and 2|v| <= 1 - s, each up to 1e-8, so rho^2 <= (3s - 1)^2 +
      (1 - s)^2 <= 4 for s >= 1/2, rho^2 <= 2 (1 - s)^2 <= 2 below, and
      rho <= 2 (1 + 1e-8).  np.hypot is within one ulp, 2u rho; the sum
      of the two rounded squares is within (1 + u)^2 of x^2 + y^2 and
      the sqrt adds one rounding, so sqrt(x^2 + y^2) is within 2u rho.
      Where a square underflows, it is off by at most 2^-1075, which
      moves rho by at most 1e-161.  So |drho| <= 4u rho + 1e-161 <= 8u
      (1 + 1e-8).
    - Levels.  4l = fl(P +- rho) with the same P = fl(1 +- alpha cos),
      |P| <= 2 (1 + 1e-8), so |d(4l)| <= |drho| + u (|4l| + |4l'|) <=
      16u (1 + 1e-8), and the scaling by 1/4 is exact (up to underflow,
      below 1e-300).  Every level moves by at most L = 4.45e-16.
    - Terms.  A level contributes phi(l) = l ln l where l > 0 and 0 where
      l <= 0.  Over a window of width L <= 1/e, phi moves by at most
      L |ln L| + L (the worst window is [0, L]): 1.62e-14.  numpy's log,
      taken within 4 ulps, and the product round phi(l) by at most
      9u |phi| <= 9u / e in each kernel: 7.4e-16 between the two.  So
      each of the four terms moves by at most 1.70e-14, and their sum by
      6.8e-14.
    - Sum.  The three additions of each kernel round by at most 3u times
      the sum of the |terms|, which is S~ <= ln 4 up to rounding: 9.3e-16
      for the two.
    So |fast - exact| <= epsilon = 6.9e-14.  delta = 1e-13 leaves room
    for the rounding of the differences and spans that a caller compares
    with 2 delta (``optimizer._doubtful``).  The largest difference
    measured is 2.2e-15, at 201 and at 801 angles on 30,720 random
    states down to T = 1e-8, and on five diagrams of 59,600 cells.
    """
    return _curves(states, thetas, _rho_sqrt)


def _rho_hypot(x, y) -> None:
    """rho = hypot(x, y), written into ``x``."""
    np.hypot(x, y, out=x)


def _rho_sqrt(x, y) -> None:
    """rho = sqrt(x^2 + y^2), written into ``x``; ``y`` is overwritten."""
    x *= x
    np.multiply(y, y, out=y)
    x += y
    np.sqrt(x, out=x)


def _curves(states, thetas, rho) -> np.ndarray:
    """``entropy_curve`` with ``rho`` as its rho+- step."""
    one = isinstance(states, XThermalState)
    # the columns alpha = a - d, beta = 1 - 4b and cross = 2v, each state
    # a row; float and array arithmetic round alike
    if isinstance(states, ThermalStates):
        alpha, beta, cross = (x[:, None] for x in (
            states.a - states.d, 1.0 - 4.0 * states.b, 2.0 * states.v,
        ))
    else:
        rows = [states] if one else states
        cols = np.array([(s.a - s.d, 1.0 - 4.0 * s.b, 2.0 * s.v) for s in rows])
        alpha, beta, cross = cols.reshape(-1, 3).T[..., None]
    th = np.asarray(thetas, dtype=float)
    c, sn = np.cos(th), np.sin(th)
    curves = np.empty((len(alpha), len(th)))
    per_pass = max(1, _PASS_SAMPLES // len(th))
    # arrays of two layers of a pass each, so that at _PASS_SAMPLES every
    # one stays below glibc's mmap threshold (128 kB): a larger one would
    # fault its pages in afresh per call
    layers = (2, min(len(alpha), per_pass), len(th))
    work = [np.empty(layers) for _ in range(3)] + [np.empty(layers, dtype=bool)]
    for k in range(0, len(alpha), per_pass):
        cut = slice(k, k + per_pass)
        out = curves[cut]
        if len(out) < layers[1]:  # a short last pass
            work = [x[:, :len(out)] for x in work]
        _curve_pass(alpha[cut], beta[cut], cross[cut], c, sn, out, work, rho)
    return curves[0] if one else curves


def _curve_pass(alpha, beta, cross, c, sn, out, work, rho) -> None:
    """One array pass of ``entropy_curve``: S~ of the states with columns
    alpha = a - d, beta = 1 - 4b and cross = 2v at the angles with cosines
    ``c`` and sines ``sn``, written into ``out``, with rho+- taken by
    ``rho`` (``_rho_hypot`` or ``_rho_sqrt``).  ``work`` holds three
    float arrays and one bool array, each of two layers of ``out``'s
    shape.  The levels l1, l3 and l2, l4 are taken as two pairs of layers,
    and summed as ((l1 ln l1 + l2 ln l2) + l3 ln l3) + l4 ln l4 and
    negated.
    """
    r, plus, minus, positive = work
    np.multiply(beta, c, out=minus[0])  # (1 - 4b) cos
    np.multiply(cross, sn, out=minus[1])  # 2v sin
    np.add(alpha, minus[0], out=r[0])
    np.subtract(alpha, minus[0], out=r[1])
    rho(r, minus[1])  # rho+ and rho-
    np.multiply(alpha, c, out=minus[0])  # alpha cos
    np.add(1.0, minus[0], out=plus[0])
    np.subtract(1.0, minus[0], out=plus[1])
    np.subtract(plus, r, out=minus)  # 4 l2 and 4 l4
    plus += r  # 4 l1 and 4 l3
    logs = r
    for levels in (plus, minus):
        levels *= 0.25
        # a level at or below zero keeps a log of 0, the log of 1
        logs.fill(0.0)
        np.log(levels, out=logs, where=np.greater(levels, 0.0, out=positive))
        levels *= logs
    np.add(plus[0], minus[0], out=out)
    out += plus[1]
    out += minus[1]
    np.negative(out, out=out)


def branch_s0(s: XThermalState) -> float:
    """Entropy after measuring along z: the coherence is erased and only
    the populations survive, -a ln a - d ln d - 2 b ln b."""
    return _branch_s0(s.a, s.b, s.d)


def _branch_s0(a: float, b: float, d: float) -> float:
    """``branch_s0`` of the populations a, b, d."""
    return -(_xlnx(a) + _xlnx(d) + 2.0 * _xlnx(b))


def _binary_entropy(x: float) -> float:
    return -(_xlnx(x) + _xlnx(1.0 - x))


def branch_s_halfpi(s: XThermalState) -> float:
    """Entropy after measuring in the equatorial plane:
    ln 2 + h((1 + r)/2), which lies in [ln 2, ln 4]."""
    return _branch_s_halfpi(s.r)


def _branch_s_halfpi(r: float) -> float:
    """``branch_s_halfpi`` of the length r."""
    x = 0.5 * (1.0 + min(r, 1.0))
    return LN2 + _binary_entropy(x)


def branch_s_halfpis(st: ThermalStates) -> np.ndarray:
    """``_branch_s_halfpi`` of every state of the 1-D ``st``, bit for bit."""
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


# Populations below this count as underflowed; above it every quotient of
# two populations stays within float range.
_POP_FLOOR = 1e-300
# The smallest normal float: a product of two populations below it has
# lost bits.
_FLOAT_MIN = sys.float_info.min


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
    if a < _POP_FLOOR or b < _POP_FLOOR or d < _POP_FLOOR:
        raise PopulationUnderflow(
            f"population below {_POP_FLOOR:g} (a={a!r}, b={b!r}, d={d!r})"
        )
    ad, bb = a * d, b * b
    if ad >= _FLOAT_MIN and bb >= _FLOAT_MIN:
        log_ratio = math.log(ad / bb)
    else:  # a product underflows, the quotients do not
        log_ratio = math.log(a / b) + math.log(d / b)
    t_pop = (a - d) * math.log(a / d)
    t_bal = (1.0 - 4.0 * b) * log_ratio
    t_coh = 2.0 * v * v * (_log_slope(a, b) + _log_slope(b, d))
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
