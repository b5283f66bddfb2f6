"""Global minimization of the post-measurement entropy over the angle.

S~(theta) is even about both endpoints and in practice has at most two
interior extrema, but nothing here assumes that: a dense scan certifies
extremum brackets from sign changes of the discrete slope, and each
extremum is refined only inside its certified bracket, as the root of
the closed-form slope dS~/dtheta by a bracketed Illinois solve.  One
rule, ``_branch_rule``, picks the winning branch (z endpoint, interior
angle, or equatorial endpoint), and with it the deficit and the phase
label, of a point and of each cell of a grid.
"""

from __future__ import annotations

import math
import sys
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
    _checked_states,
    _entropy_of,
    _gibbs_entries,
    pre_measurement_entropy,
    thermal_state,
)

__all__ = [
    "Branch",
    "DeficitGrid",
    "DeficitResult",
    "Shape",
    "ThetaProfile",
    "golden_section_min",
    "optimal_angle_jump",
    "optimize_deficit",
    "optimize_grid",
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

# S~ samples per array pass of ``_sample_passes``: 16 states at the
# default 201 angles, 4 at 801.  The pass's temporaries grow with its
# samples (four spectrum rows per state).  With the sweep's cells taken
# by ``optimize_grid``, a round of the benchmark's ``sweep`` (two 40x40
# diagrams and their output) took 185 ms at 8 states per pass, 152 ms at
# 16 and 141 ms at 32 (medians of 48 interleaved rounds, scaled by the
# benchmark's calibration kernel); 32 would also double the 801-angle
# pass, which is not measured yet.  Earlier, passes of 64 and 256
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


def _warn(message: str) -> None:
    """Warn at the first caller outside this module: the caller of the
    public function that was called."""
    frame, level = sys._getframe(), 1
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _sample_passes(n: int, thetas: np.ndarray):
    """Yields the array passes over n states sampled at ``thetas``, as
    slices of at most _PASS_SAMPLES samples each (one state at least).
    A state's row of a pass's ``entropy_curve`` is bit for bit the curve
    that state gives alone."""
    per_pass = max(1, _PASS_SAMPLES // len(thetas))
    for k in range(0, n, per_pass):
        yield slice(k, min(k + per_pass, n))


def _refine_brackets(state_of, thetas: np.ndarray, turn: np.ndarray, minima, maxima=None):
    """Refine the extrema bracketed in ``turn`` (``_slope_turns``) on the
    scalar closed form of ``state_of(k)``: row k's (theta, S~) minima
    append to ``minima[k]`` and, unless ``maxima`` is None, its maxima
    to ``maxima[k]``, in increasing theta."""
    brackets = turn == 2.0 if maxima is None else np.abs(turn) == 2.0
    for k, i in zip(*np.nonzero(brackets)):
        # a maximum of S~ is refined as the minimum of -S~
        sign = 1.0 if turn[k, i] > 0.0 else -1.0
        lo, hi = float(thetas[i]), float(thetas[i + 2])
        extremum = _refine_extremum(state_of(k), sign, lo, hi)
        if extremum is not None:
            (minima if sign > 0.0 else maxima)[k].append(extremum)


def _sampled_extrema(state_of, thetas: np.ndarray, vals: np.ndarray):
    """Refined interior extrema of sampled S~ rows: ``vals[k]`` holds S~
    of the state ``state_of(k)`` at ``thetas``.

    Returns (minima, maxima, shapes): for each row, the lists of its
    (theta, S~) minima and maxima in increasing theta, and its Shape.
    Warns on a row outside the unimodal/bimodal family.
    """
    flat, turn = _slope_turns(vals)
    minima: list[list[tuple[float, float]]] = [[] for _ in range(len(vals))]
    maxima: list[list[tuple[float, float]]] = [[] for _ in range(len(vals))]
    _refine_brackets(state_of, thetas, turn, minima, maxima)

    # a Python loop over the rows: the profiles of ``scan_profile`` come
    # one at a time, and numpy's cost per call outweighs the loop there;
    # the end values are compared in one call, as a sweep's pass has 16 rows
    shapes = []
    rising = (vals[:, -1] >= vals[:, 0]).tolist()
    for k, is_flat in enumerate(flat.tolist()):
        counts = (len(minima[k]), len(maxima[k]))
        if is_flat:
            shape = Shape.FLAT
        elif counts == (0, 0):
            shape = Shape.MONOTONE_INCREASING if rising[k] else Shape.MONOTONE_DECREASING
        else:
            shape = _SHAPE_OF_COUNTS.get(counts, Shape.OTHER)
        if shape is Shape.OTHER:
            _warn(
                f"{sum(counts)} interior extrema found; profile outside the "
                "unimodal/bimodal family"
            )
        shapes.append(shape)
    return minima, maxima, shapes


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
    (mins,), (maxs,), (shape,) = _sampled_extrema(lambda k: state, thetas, vals[None, :])
    return ThetaProfile(thetas, vals, shape, tuple(mins), tuple(maxs))


def _sampled_minima(st: ThermalStates, n: int) -> list[list[tuple[float, float]]]:
    """The refined interior minima of S~ of every state of ``st``, at
    ``n`` angles: for state k, the ``interior_minima`` of its
    ``scan_profile`` bit for bit.  Only minimum brackets are refined, no
    maxima, and no shape is taken.  The entries are taken as already
    checked.
    """
    thetas = _angles(n)
    minima: list[list[tuple[float, float]]] = [[] for _ in range(len(st.a))]
    for cut in _sample_passes(len(st.a), thetas):
        rows = entropy_curve(ThermalStates(*(x[cut] for x in st)), thetas)
        _refine_brackets(  # row j is state cut.start + j; minima[cut] shares its lists
            lambda j: XThermalState(*(x[cut.start + j].item() for x in st[:4])),
            thetas, _slope_turns(rows)[1], minima[cut],
        )
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


def _deepest_minimum(minima) -> tuple[float, float] | None:
    """The deepest of a state's interior (theta, S~) minima, the first on
    a tie, or None where it has none."""
    return min(minima, key=lambda te: te[1]) if minima else None


def _branch_rule(
    s_before: float, s0: float, s_half: float, minima
) -> tuple[Branch, float, float, tuple[float, float] | None]:
    """(branch, optimal angle, deficit, deepest minimum) of one state,
    from S(rho), S~(0), S~(pi/2) and its refined interior (theta, S~)
    minima.  Exact ties at the 1e-12 level prefer the endpoint branches,
    z endpoint first.  A deficit below -1e-9 raises; above, it reads 0.
    """
    interior = _deepest_minimum(minima)
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
        _warn(_TIE)

    deficit = best - s_before
    if deficit < 0.0:
        if deficit < -1e-9:
            raise ArithmeticError(_NEGATIVE.format(deficit))
        deficit = 0.0
    return branch, theta, deficit, interior


def optimize_deficit(p: ModelParams, n: int = 201) -> DeficitResult:
    """Deficit at one parameter point: min over the three branches.

    The two endpoint branches are analytic; the interior one comes from
    the deepest refined interior minimum of the scan.  The winner is
    taken by ``_branch_rule``: exact ties at the 1e-12 level prefer the
    endpoint branches, z endpoint first.
    """
    s = thermal_state(p)
    profile = scan_profile(s, n)
    entropy_before = pre_measurement_entropy(s)
    s0, s_half = branch_s0(s), branch_s_halfpi(s)
    branch, theta, deficit, interior = _branch_rule(
        entropy_before, s0, s_half, profile.interior_minima
    )
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


class DeficitGrid(NamedTuple):
    """``optimize_deficit`` on a (T, B) grid, one entry per cell, rows by
    T: lists of rows of the winning branches and of the shape labels, and
    (n_t, n_b) arrays of the optimal angles and the deficits."""

    branch: list[list[str]]
    theta: np.ndarray
    deficit: np.ndarray
    shape: list[list[str]]


def optimize_grid(J: float, Jz: float, ts, bs) -> DeficitGrid:
    """``optimize_deficit`` at (J, Jz, B, T) for every T of ``ts`` and B
    of ``bs``, with its default 201 angles.

    The cells are taken in row-major order, in the array passes of
    ``_sample_passes``, so memory is bounded by one pass.  Every cell
    equals the one-point call bit for bit: the Gibbs entries and the
    three entropies S(rho), S~(0) and S~(pi/2) are computed per cell on
    the same scalar closed forms, the extrema are refined on the same
    scalar slope, and the winner is taken by the same ``_branch_rule``.
    Only the S~ samples and their slope brackets are taken on arrays,
    whose rows equal the one-cell curves; an XThermalState is built only
    for a cell with a bracket.  J, Jz and each T are checked as one
    ModelParams and B as an array, with ModelParams' checks and
    messages, and each cell's entries with XThermalState's
    (``_checked_states``).
    """
    # J, Jz and each T checked, a T below the floor clamped
    ts = [ModelParams(J, Jz, 0.0, t).T for t in np.asarray(ts, dtype=float).tolist()]
    bs = np.asarray(bs, dtype=float)
    bad = ~np.isfinite(bs)
    if bad.any():
        raise ValueError(f"B must be finite, got {float(bs[bad][0])!r}")
    bs, n_b = bs.tolist(), len(bs)
    n = len(ts) * n_b
    branch, shape = [""] * n, [""] * n
    theta, deficit = np.empty(n), np.empty(n)
    thetas = _angles(201)
    for cut in _sample_passes(n, thetas):
        cells = [_gibbs_entries(J, Jz, bs[m % n_b], ts[m // n_b]) for m in range(n)[cut]]
        states = _checked_states(cells)
        s_before = [_entropy_of(*c) for c in cells]
        s0 = [_branch_s0(ca, cb, cd) for ca, cb, cd, _ in cells]
        s_half = [_branch_s_halfpi(r) for r in states.r.tolist()]
        minima, maxima, shapes = _sampled_extrema(
            lambda k: XThermalState(*cells[k]), thetas, entropy_curve(states, thetas)
        )
        # a list, not the map: a tuple grown from an iterator skips the
        # tuple free list, so each pass would leave one more 16-tuple there
        rules = list(map(_branch_rule, s_before, s0, s_half, minima))
        wins, theta[cut], deficit[cut], _ = zip(*rules)
        branch[cut] = [win.value for win in wins]
        shape[cut] = [
            _shape_label(shp, len(mins) + len(maxs))
            for shp, mins, maxs in zip(shapes, minima, maxima)
        ]
    rows = range(0, n, n_b)
    return DeficitGrid(
        [branch[i:i + n_b] for i in rows], theta.reshape(len(ts), n_b),
        deficit.reshape(len(ts), n_b), [shape[i:i + n_b] for i in rows],
    )


def optimal_angle_jump(
    p_before: ModelParams, p_after: ModelParams, n: int = 201
) -> float:
    """Absolute change of the optimal angle between two nearby points
    straddling a boundary."""
    before = optimize_deficit(p_before, n).optimal_theta
    after = optimize_deficit(p_after, n).optimal_theta
    return abs(after - before)
