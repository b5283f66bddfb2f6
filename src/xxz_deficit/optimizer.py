"""Global minimization of the post-measurement entropy over the angle.

S~(theta) is even about both endpoints and in practice has at most two
interior extrema, but nothing here assumes that: a dense scan certifies
extremum brackets from sign changes of the discrete slope, and each
extremum is refined only inside its certified bracket, as the root of
the closed-form slope dS~/dtheta by a bracketed Illinois solve.  The
winning branch (z endpoint, interior angle, or equatorial endpoint)
determines the deficit and the phase label.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .measurement import (
    HALF_PI,
    _branch_s0,
    _branch_s_halfpi,
    branch_s0,
    branch_s_halfpi,
    entropy_curve,
    post_meas_entropy,
    post_meas_entropy_slope,
)
from .model import (
    LN2,
    ModelParams,
    ThermalStates,
    XThermalState,
    _bloch_length,
    _check_entries,
    _entropy_of,
    _gibbs_entries,
    pre_measurement_entropy,
    thermal_state,
)

__all__ = [
    "Branch",
    "DeficitResult",
    "DeficitRow",
    "Shape",
    "ThetaProfile",
    "golden_section_min",
    "optimal_angle_jump",
    "optimize_deficit",
    "optimize_row",
    "scan_profile",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

EQUAL_TOL = 1e-12  # depth comparisons between branches
FLAT_SPAN = 1e-12  # sample range below which the profile counts as flat
SLOPE_NOISE = 5e-14  # discrete slopes below this are rounding noise
# An extremum is refined until a sign change of dS~/dtheta brackets it
# within _EXTREMUM_XTOL, and the slope there is at most _EXTREMUM_FTOL.
_EXTREMUM_XTOL = 1e-12
_EXTREMUM_FTOL = 1e-14
# Refine steps at most.  A halving step comes at least every third step,
# so float resolution ends a refine well before.
_MAX_REFINE = 200

# S~ samples per array pass of ``_sampled_minima`` and ``optimize_row``: 16
# states at the default 201 angles.  The pass's temporaries grow with its
# samples (four spectrum rows per state).  With the sweep's rows taken by
# ``optimize_row``, the two 40x40 diagrams of the benchmark's ``sweep``
# took 94 ms at 8 states per pass, 86 ms at 16 and 117 ms at 40 (a whole
# row; medians of 25 alternating rounds).  Earlier, passes of 64 and 256
# states raised peak memory of the process from 29.8 MB to 31.6 MB and
# 37.8 MB.  On the paper's jump table (801 angles), 16 states per pass
# raised peak memory by 2.8 MB over one state per pass, 4 states by 0.1 MB.
_PASS_SAMPLES = 16 * 201


class Shape(Enum):
    MONOTONE_INCREASING = "MonotoneIncreasing"
    MONOTONE_DECREASING = "MonotoneDecreasing"
    UNIMODAL_MIN = "UnimodalMin"
    UNIMODAL_MAX = "UnimodalMax"
    BIMODAL = "Bimodal"
    FLAT = "Flat"
    OTHER = "Other"


# The shape of a profile that is not flat, by its counts of interior
# minima and maxima; any count not listed is Other.
_SHAPE_OF_COUNTS = {
    (1, 0): Shape.UNIMODAL_MIN,
    (0, 1): Shape.UNIMODAL_MAX,
    (1, 1): Shape.BIMODAL,
}


class Branch(Enum):
    ZERO = "Zero"
    INTERIOR = "Interior"
    HALF_PI = "HalfPi"


def golden_section_min(f, a: float, b: float, tol: float = 1e-10):
    """Locate the minimum of a unimodal f on [a, b] to width tol.

    Returns (x, f(x)).  The caller must supply a bracket certified to
    contain a single minimum.  No profile calls it: extrema are refined
    as roots of the slope (``_refine_extremum``).  It stays because the
    benchmark's tracer in ``perfbench`` wraps it by name.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _illinois(
    f, lo: float, hi: float, ftol: float, flo: float, fhi: float, xtol: float = 1e-7
):
    """Bracketed Illinois solve of a certified sign change, as (x, f(x)).

    ``flo`` = f(lo) and ``fhi`` = f(hi) have opposite signs, and every
    step keeps a scalar sign change inside [lo, hi].  A step is the
    secant through the two ends, the end value kept twice in a row being
    halved first (the Illinois rule, Dowell & Jarratt 1971); it is a
    halving step where an end value is infinite or where the last two
    steps did not halve the bracket.  Once |f| <= ftol, the next point is
    xtol/2 beyond the last one, towards the other end, to close the
    bracket.  Stops when the bracket is at most xtol wide and the last
    |f| at most ftol, or where floats run out, and returns the last point
    evaluated, an end of the final bracket, or a point where f is 0.
    """
    x, fx = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    moved = 0  # the end the last step moved: -1 lo, +1 hi
    probed = False
    widths = [math.inf, math.inf]  # bracket widths before the last two steps
    for _ in range(_MAX_REFINE):
        if hi - lo <= xtol and abs(fx) <= ftol:
            break
        probed = abs(fx) <= ftol and moved != 0 and not probed
        if probed:
            t = lo + 0.5 * xtol if moved < 0 else hi - 0.5 * xtol
        elif math.isinf(flo) or math.isinf(fhi) or hi - lo > 0.5 * widths[0]:
            t = 0.5 * (lo + hi)
        else:
            t = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        widths = [widths[1], hi - lo]
        x = t
        fx = f(x)
        if fx == 0.0:
            break
        if _sign(fx) == _sign(flo):
            lo, flo = x, fx
            if moved < 0:
                fhi *= 0.5
            moved = -1
        else:
            hi, fhi = x, fx
            if moved > 0:
                flo *= 0.5
            moved = 1
    return x, fx


@dataclass(frozen=True)
class ThetaProfile:
    """Sampled shape of S~ on [0, pi/2] with refined interior extrema."""

    thetas: np.ndarray
    entropies: np.ndarray
    shape: Shape
    interior_minima: tuple[tuple[float, float], ...]
    interior_maxima: tuple[tuple[float, float], ...]

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.thetas.tolist(), self.entropies.tolist()))

    @property
    def n_extrema(self) -> int:
        return len(self.interior_minima) + len(self.interior_maxima)

    @property
    def shape_label(self) -> str:
        return _shape_label(self.shape, self.n_extrema)


def _shape_label(shape: Shape, n_extrema: int) -> str:
    return f"Other({n_extrema})" if shape is Shape.OTHER else shape.value


def _angles(n: int) -> np.ndarray:
    if n < 51:
        raise ValueError(f"need at least 51 samples, got {n}")
    return np.linspace(0.0, HALF_PI, n)


def _refine_extremum(
    s: XThermalState, sign: float, lo: float, hi: float
) -> tuple[float, float] | None:
    """The minimum of sign * S~ in the scan cell [lo, hi], as (theta, S~).

    It is the root of f = sign * dS~/dtheta, which is negative at the
    left end of the bracket and positive at the right.  S~' is 0 at 0
    and pi/2 by symmetry, so an end there has no sign, and neither has
    an end where f is 0 or of the wrong sign.  Such an end is replaced
    by halving the bracket towards it until a point has the sign it
    needs; a midpoint with the other sign moves the opposite end.  The
    root of the resulting bracket is solved by ``_illinois`` to 1e-12
    and S~ is evaluated there once.  Returns None where no point has
    the sign (the extremum lies at the endpoint, or the scan cell held
    no sign change of f), and the root is strictly inside (0, pi/2).
    """

    def f(t: float) -> float:
        return sign * post_meas_entropy_slope(s, t)

    flo = f(lo) if lo > 0.0 else 0.0
    fhi = f(hi) if hi < HALF_PI else 0.0
    while not flo < 0.0 < fhi:
        mid = 0.5 * (lo + hi)
        if not (flo < 0.0 or fhi > 0.0) or not lo < mid < hi:
            return None
        fmid = f(mid)
        if fmid == 0.0:
            return mid, post_meas_entropy(s, mid)
        if fmid < 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    x, _ = _illinois(f, lo, hi, _EXTREMUM_FTOL, flo, fhi, xtol=_EXTREMUM_XTOL)
    return x, post_meas_entropy(s, x)


def _slope_turns(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bracket rule for sampled S~ rows ``vals``, as (flat, turn).

    ``flat[k]`` holds where row k spans less than FLAT_SPAN.  ``turn[k,
    i]`` is +2 where the samples i to i + 2 bracket a minimum, -2 where
    they bracket a maximum, and 0 or +-1 elsewhere: slope pair (i, i + 1)
    brackets an extremum when its signs differ, unless both slopes are
    rounding noise or the whole row is flat, and the sign steps from -1
    to +1 across a minimum, from +1 to -1 across a maximum.
    """
    flat = vals.max(axis=1) - vals.min(axis=1) < FLAT_SPAN
    dv = vals[:, 1:] - vals[:, :-1]
    big = np.abs(dv) >= SLOPE_NOISE
    live = (big[:, :-1] | big[:, 1:]) & ~flat[:, None]
    signs = np.sign(dv)
    turn = signs[:, 1:] - signs[:, :-1]
    turn[~live] = 0.0
    return flat, turn


def _sampled_extrema(state_of, thetas: np.ndarray, vals: np.ndarray):
    """Refined interior extrema of sampled S~ rows: ``vals[k]`` holds S~
    of the state ``state_of(k)`` at ``thetas``, and ``state_of`` is
    called only for rows with a bracket.

    Returns (minima, maxima, shapes): for each row, the lists of its
    (theta, S~) minima and maxima in increasing theta, and its Shape.
    Warns on a row outside the unimodal/bimodal family.
    """
    flat, turn = _slope_turns(vals)
    minima: list[list[tuple[float, float]]] = [[] for _ in range(len(vals))]
    maxima: list[list[tuple[float, float]]] = [[] for _ in range(len(vals))]
    for k, i in zip(*np.nonzero(np.abs(turn) == 2.0)):
        # a maximum of S~ is refined as the minimum of -S~
        sign = 1.0 if turn[k, i] > 0.0 else -1.0
        extremum = _refine_extremum(
            state_of(k), sign, float(thetas[i]), float(thetas[i + 2])
        )
        if extremum is not None:
            (minima if sign > 0.0 else maxima)[k].append(extremum)

    # a Python loop over the rows: the profiles of ``scan_profile`` come
    # one at a time, and numpy's cost per call outweighs the loop there
    shapes = []
    for k, is_flat in enumerate(flat.tolist()):
        counts = (len(minima[k]), len(maxima[k]))
        if is_flat:
            shape = Shape.FLAT
        elif counts == (0, 0):
            rising = vals[k, -1] >= vals[k, 0]
            shape = Shape.MONOTONE_INCREASING if rising else Shape.MONOTONE_DECREASING
        else:
            shape = _SHAPE_OF_COUNTS.get(counts, Shape.OTHER)
        if shape is Shape.OTHER:
            warnings.warn(
                f"{sum(counts)} interior extrema found; profile outside the "
                "unimodal/bimodal family",
                stacklevel=4,
            )
        shapes.append(shape)
    return minima, maxima, shapes


def _profiles_from_samples(
    states, thetas: np.ndarray, vals: np.ndarray
) -> list[ThetaProfile]:
    """Profiles of sampled S~ curves: ``vals[k]`` holds S~ of
    ``states[k]`` at ``thetas``.  The slope sign changes of all rows are
    found at once; refinement runs per bracket on the scalar closed form.
    """
    minima, maxima, shapes = _sampled_extrema(states.__getitem__, thetas, vals)
    return [
        ThetaProfile(thetas, row, shape, tuple(mins), tuple(maxs))
        for row, shape, mins, maxs in zip(vals, shapes, minima, maxima)
    ]


def scan_profile(state: XThermalState, n: int = 201) -> ThetaProfile:
    """Uniform scan of S~ plus refinement of its extrema as roots of the
    closed-form slope dS~/dtheta.

    Brackets come from sign changes of the discrete slope, so refinement
    never runs blindly over the whole interval (the profile may be
    bimodal); slope pairs below SLOPE_NOISE are rounding noise and
    bracket nothing.  More than two interior extrema is unexpected and
    flagged.
    """
    thetas = _angles(n)
    vals = entropy_curve(state, thetas)
    return _profiles_from_samples([state], thetas, vals[None, :])[0]


def _sampled_minima(st: ThermalStates, n: int) -> list[list[tuple[float, float]]]:
    """The refined interior minima of S~ of every state of ``st``, at
    ``n`` angles: for state k, the ``interior_minima`` of its
    ``scan_profile`` bit for bit.  S~ is sampled for up to 16 states per
    array pass (fewer above 201 angles, so that a pass holds no more
    samples than 16 states at 201); the batched samples equal the
    one-state samples.  Only minimum brackets are refined, on the scalar
    closed form, no maxima, and no shape is taken.
    The entries are taken as already checked.
    """
    thetas = _angles(n)
    per_pass = max(1, _PASS_SAMPLES // n)
    minima: list[list[tuple[float, float]]] = [[] for _ in range(len(st.a))]
    for start in range(0, len(st.a), per_pass):
        block = ThermalStates(*(x[start:start + per_pass] for x in st))
        _, turn = _slope_turns(entropy_curve(block, thetas))
        for k, i in zip(*np.nonzero(turn == 2.0)):
            s = XThermalState(*(x[k].item() for x in block[:4]))
            minimum = _refine_extremum(s, 1.0, float(thetas[i]), float(thetas[i + 2]))
            if minimum is not None:
                minima[start + k].append(minimum)
    return minima


@dataclass(frozen=True)
class DeficitResult:
    """Branch values, winner, optimal angle and deficit for one point.

    delta_theta is None when no interior minimum exists.  All entropies
    are in nats; deficit_bits divides by ln 2.
    """

    delta0: float
    delta_halfpi: float
    delta_theta: float | None
    branch: Branch
    optimal_theta: float
    deficit: float
    shape: Shape
    shape_label: str

    @property
    def deficit_bits(self) -> float:
        return self.deficit / LN2


_TIE = (
    "interior minimum ties the pi/2 endpoint; boundary type outside the "
    "studied families"
)
_NEGATIVE = "negative deficit {!r}: branch values inconsistent"


def _deficit_from_profile(s: XThermalState, profile: ThetaProfile) -> DeficitResult:
    """Deficit of one state from its profile (see ``optimize_deficit``)."""
    entropy_before = pre_measurement_entropy(s)
    s0 = branch_s0(s)
    s_half = branch_s_halfpi(s)
    interior = (
        min(profile.interior_minima, key=lambda te: te[1])
        if profile.interior_minima
        else None
    )

    best, branch, theta = s0, Branch.ZERO, 0.0
    if s_half < best - EQUAL_TOL:
        best, branch, theta = s_half, Branch.HALF_PI, HALF_PI
    if interior is not None and interior[1] < best - EQUAL_TOL:
        best, branch, theta = interior[1], Branch.INTERIOR, interior[0]

    # a minimum refined right next to pi/2 is the ordinary merge into the
    # endpoint; the exotic case is a tie with a genuinely interior angle
    if (
        interior is not None
        and HALF_PI - interior[0] > 0.05
        and abs(interior[1] - s_half) <= EQUAL_TOL
        and min(interior[1], s_half) < s0 - EQUAL_TOL
    ):
        warnings.warn(_TIE, stacklevel=3)

    deficit = best - entropy_before
    if deficit < 0.0:
        if deficit < -1e-9:
            raise ArithmeticError(_NEGATIVE.format(deficit))
        deficit = 0.0

    return DeficitResult(
        delta0=s0 - entropy_before,
        delta_halfpi=s_half - entropy_before,
        delta_theta=None if interior is None else interior[1] - entropy_before,
        branch=branch,
        optimal_theta=theta,
        deficit=deficit,
        shape=profile.shape,
        shape_label=profile.shape_label,
    )


def optimize_deficit(p: ModelParams, n: int = 201) -> DeficitResult:
    """Deficit at one parameter point: min over the three branches.

    The two endpoint branches are analytic; the interior one comes from
    the deepest refined interior minimum of the scan.  Exact ties at the
    1e-12 level prefer the endpoint branches, z endpoint first.
    """
    s = thermal_state(p)
    return _deficit_from_profile(s, scan_profile(s, n))


class DeficitRow(NamedTuple):
    """``optimize_deficit`` along one row of field values, one entry per
    cell: lists of the winning branches and of the shape labels, and
    arrays of the optimal angles and the deficits."""

    branch: list[str]
    theta: np.ndarray
    deficit: np.ndarray
    shape: list[str]


_BRANCH_LABELS = np.array([b.value for b in Branch], dtype=object)
_ZERO, _INTERIOR, _HALF_PI = range(len(Branch))


def optimize_row(J: float, Jz: float, bs, T: float) -> DeficitRow:
    """``optimize_deficit`` at (J, Jz, B, T) for every B of ``bs``, with
    its default 201 angles.

    Every cell equals the one-point call bit for bit.  The Gibbs entries
    and the three entropies S(rho), S~(0) and S~(pi/2) are computed per
    cell on the same scalar closed forms; S~ is sampled for up to 16
    cells per array pass, as in ``_sampled_minima``; the slope brackets
    and the winning branch are taken on arrays, and an XThermalState is
    built and refined only for a cell with a bracket.
    J, Jz and T are checked as one ModelParams, and B and the entries as
    arrays, with the checks and messages of ModelParams and XThermalState.
    """
    T = ModelParams(J, Jz, 0.0, T).T  # J, Jz and T checked, T clamped
    bs = np.asarray(bs, dtype=float)
    bad = ~np.isfinite(bs)
    if bad.any():
        raise ValueError(f"B must be finite, got {float(bs[bad][0])!r}")
    cells = [_gibbs_entries(J, Jz, b, T) for b in bs.tolist()]
    a, b, d, v = (np.array(x) for x in zip(*cells))
    _check_entries(a, b, d, v)
    rs = [_bloch_length(ca, cd, cv) for ca, _, cd, cv in cells]
    s_before = np.array([_entropy_of(*c) for c in cells])
    s0 = np.array([_branch_s0(ca, cb, cd) for ca, cb, cd, _ in cells])
    s_half = np.array([_branch_s_halfpi(r) for r in rs])

    thetas = _angles(201)
    per_pass = _PASS_SAMPLES // 201
    st = ThermalStates(a, b, d, v, np.array(rs))
    vals = np.concatenate([
        entropy_curve(ThermalStates(*(x[k:k + per_pass] for x in st)), thetas)
        for k in range(0, len(cells), per_pass)
    ])
    minima, maxima, shapes = _sampled_extrema(
        lambda k: XThermalState(*cells[k]), thetas, vals
    )

    # the deepest interior minimum of each cell (the first on a tie)
    s_int = np.full(len(cells), np.inf)
    th_int = np.zeros(len(cells))
    for k, found in enumerate(minima):
        if found:
            th_int[k], s_int[k] = min(found, key=lambda te: te[1])

    code = np.full(len(cells), _ZERO)
    best = s0
    half = s_half < best - EQUAL_TOL
    code[half] = _HALF_PI
    best = np.where(half, s_half, best)
    inner = s_int < best - EQUAL_TOL
    code[inner] = _INTERIOR
    best = np.where(inner, s_int, best)
    theta = np.where(inner, th_int, np.where(half, HALF_PI, 0.0))

    # as in ``_deficit_from_profile``
    tie = (
        (HALF_PI - th_int > 0.05)
        & (np.abs(s_int - s_half) <= EQUAL_TOL)
        & (np.minimum(s_int, s_half) < s0 - EQUAL_TOL)
    )
    for _ in np.flatnonzero(tie):
        warnings.warn(_TIE, stacklevel=2)
    deficit = best - s_before
    bad = deficit < -1e-9
    if bad.any():
        raise ArithmeticError(_NEGATIVE.format(float(deficit[bad][0])))
    deficit[deficit < 0.0] = 0.0

    labels = [
        _shape_label(shape, len(mins) + len(maxs))
        for shape, mins, maxs in zip(shapes, minima, maxima)
    ]
    return DeficitRow(_BRANCH_LABELS[code].tolist(), theta, deficit, labels)


def optimal_angle_jump(
    p_before: ModelParams, p_after: ModelParams, n: int = 201
) -> float:
    """Absolute change of the optimal angle between two nearby points
    straddling a boundary."""
    before = optimize_deficit(p_before, n).optimal_theta
    after = optimize_deficit(p_after, n).optimal_theta
    return abs(after - before)
