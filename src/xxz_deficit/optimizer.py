"""Global minimization of the post-measurement entropy over the angle.

S~(theta) is even about both endpoints and in practice has at most two
interior extrema, but nothing here assumes that: a dense scan certifies
extremum brackets from sign changes of the discrete slope, and each
extremum is refined only inside its certified bracket, as the root of
the closed-form slope dS~/dtheta by a bracketed Illinois solve.  One
rule, ``_branch_rule``, picks the winning branch (z endpoint, interior
angle, or equatorial endpoint), and with it the deficit and the phase
label, of a set of states, whose endpoint winners it takes as arrays.
The optimizer has one entry over a set of points, ``_optimize_points``:
``optimize_deficit``, ``optimize_grid``, ``optimal_angle_jump`` and the
classification of a traced boundary are its views.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .measurement import (
    HALF_PI,
    branch_s0s,
    branch_s_halfpis,
    entropy_curve,
    post_meas_entropy,
    post_meas_entropy_slope,
)
from .model import (
    LN2,
    ModelParams,
    ThermalStates,
    XThermalState,
    _entropies_exact,
    _gibbs_entries_exact,
    _states_exact,
    thermal_state,  # noqa: F401 -- called by no path here; perfbench/tracing.py wraps it
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

# Points per block of ``_optimize_points``, a multiple of the 32, 16 and
# 8 states of a 201-, 401- and 801-angle pass of ``entropy_curve``, so
# that a block's one call makes no short pass before its last: ``sweep``
# rounds took 186, 146, 135 and 131 ms with blocks of 16, 64, 256 and
# 1,600 (one per grid), against 162 ms cell by cell; a 200x200 grid
# peaked at 1.9 MB of traced memory in blocks of 256, 7.5 MB in one.
_BLOCK_CELLS = 256


class Shape(Enum):
    MONOTONE_INCREASING = "MonotoneIncreasing"
    MONOTONE_DECREASING = "MonotoneDecreasing"
    UNIMODAL_MIN = "UnimodalMin"
    UNIMODAL_MAX = "UnimodalMax"
    BIMODAL = "Bimodal"
    FLAT = "Flat"
    OTHER = "Other"


class Branch(Enum):
    ZERO = "Zero"
    INTERIOR = "Interior"
    HALF_PI = "HalfPi"


# A block of rows or states carries its shapes and branches as integer
# codes, each the index of its member here, and takes its labels from
# the codes in one lookup.
_SHAPES = tuple(Shape)
_SHAPE_LABELS = np.array([shape.value for shape in _SHAPES], dtype=object)
_RISING, _FALLING, _FLAT, _OTHER = map(_SHAPES.index, (
    Shape.MONOTONE_INCREASING, Shape.MONOTONE_DECREASING, Shape.FLAT, Shape.OTHER,
))
_BRANCHES = (Branch.ZERO, Branch.HALF_PI, Branch.INTERIOR)  # a bool HalfPi is its code
_INTERIOR = _BRANCHES.index(Branch.INTERIOR)
_BRANCH_LABELS = np.array([branch.value for branch in _BRANCHES], dtype=object)

# The shape code of a profile with refined extrema, by its counts of
# interior minima and maxima; any count not listed is Other.
_SHAPE_OF_COUNTS = {
    (1, 0): _SHAPES.index(Shape.UNIMODAL_MIN),
    (0, 1): _SHAPES.index(Shape.UNIMODAL_MAX),
    (1, 1): _SHAPES.index(Shape.BIMODAL),
}


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
    """Sampled shape of S~ on [0, pi/2] with refined interior extrema.
    ``thetas`` is the read-only array of ``_angles``, shared by every
    profile of the same length."""

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


@functools.cache
def _angles(n: int) -> np.ndarray:
    """The n sample angles of [0, pi/2], built once per n and read-only."""
    if n < 51:
        raise ValueError(f"need at least 51 samples, got {n}")
    thetas = np.linspace(0.0, HALF_PI, n)
    thetas.flags.writeable = False
    return thetas


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


def _flat(vals: np.ndarray) -> np.ndarray:
    """Where each sampled S~ row of ``vals`` spans less than FLAT_SPAN."""
    return vals.max(axis=1) - vals.min(axis=1) < FLAT_SPAN


def _brackets(vals: np.ndarray, flat: np.ndarray, maxima: bool) -> list[tuple[int, int, float]]:
    """The bracket rule for sampled S~ rows ``vals``, as (k, i, sign) in row
    order: samples i to i + 2 of row k bracket a minimum (1.0) where the
    slope turns from negative to positive and, if ``maxima``, a maximum
    (-1.0) where it turns back, unless both slopes are below SLOPE_NOISE
    (rounding noise) or the row is flat (``flat``, the rows' ``_flat``),
    tested at turns only."""
    dv = vals[:, 1:] - vals[:, :-1]
    up, down = dv > 0.0, dv < 0.0
    turns = down[:, :-1] & up[:, 1:]
    if maxima:
        turns |= up[:, :-1] & down[:, 1:]
    k, i = np.divmod(np.flatnonzero(turns), turns.shape[1])
    if not len(k):
        return []
    live = np.maximum(np.abs(dv[k, i]), np.abs(dv[k, i + 1])) >= SLOPE_NOISE
    live &= ~flat[k]  # a noisy row may hold hundreds of turns
    sign = np.where(up[k, i + 1], 1.0, -1.0)
    return list(zip(k[live].tolist(), i[live].tolist(), sign[live].tolist()))


def _warn(message: str) -> None:
    """Warn at the first caller outside this module: the caller of the
    public function that was called."""
    frame, level = sys._getframe(), 1
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _refine_brackets(state_of, thetas, vals, flat, minima, maxima=None):
    """Refine the extrema that ``_brackets`` finds in the sampled S~ rows
    ``vals`` (flat where ``flat`` is) on the scalar closed form of
    ``state_of(k)``: row k's (theta, S~) minima go to the list
    ``minima[k]`` and, unless ``maxima`` is None, its maxima to
    ``maxima[k]``, in increasing theta.  The dicts gain a key only for a
    row with a refined extremum, and gain them in row order."""
    for k, i, sign in _brackets(vals, flat, maxima is not None):
        # a maximum of S~ is refined as the minimum of -S~
        lo, hi = float(thetas[i]), float(thetas[i + 2])
        extremum = _refine_extremum(state_of(k), sign, lo, hi)
        if extremum is not None:
            (minima if sign > 0.0 else maxima).setdefault(k, []).append(extremum)


def _sampled_extrema(state_of, thetas: np.ndarray, vals: np.ndarray):
    """Refined interior extrema of sampled S~ rows: ``vals[k]`` holds S~
    of the state ``state_of(k)`` at ``thetas``.

    Returns (minima, maxima, shapes): dicts from each row with refined
    minima, or maxima, to their (theta, S~) list in increasing theta,
    and an array of each row's shape code (see _SHAPES).  Flat and
    monotone rows are told apart as arrays: a flat row brackets no
    extremum.  Only the rows with a refined extremum are taken one by
    one, in row order, and each one outside the unimodal/bimodal family
    warns.
    """
    minima: dict[int, list[tuple[float, float]]] = {}
    maxima: dict[int, list[tuple[float, float]]] = {}
    flat = _flat(vals)
    _refine_brackets(state_of, thetas, vals, flat, minima, maxima)
    shapes = np.where(flat, _FLAT, np.where(vals[:, -1] >= vals[:, 0], _RISING, _FALLING))
    for k in sorted(minima.keys() | maxima.keys()):
        counts = (len(minima.get(k, ())), len(maxima.get(k, ())))
        shapes[k] = _SHAPE_OF_COUNTS.get(counts, _OTHER)
        if shapes[k] == _OTHER:
            _warn(
                f"{sum(counts)} interior extrema found; profile outside the "
                "unimodal/bimodal family"
            )
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
    minima, maxima, (shape,) = _sampled_extrema(lambda k: state, thetas, vals[None, :])
    return ThetaProfile(
        thetas, vals, _SHAPES[shape], tuple(minima.get(0, ())), tuple(maxima.get(0, ()))
    )


def _sampled_minima(st: ThermalStates, n: int) -> list[list[tuple[float, float]]]:
    """The refined interior minima of S~ of every state of ``st``, at
    ``n`` angles: for state k, the ``interior_minima`` of its
    ``scan_profile`` bit for bit.  Only minimum brackets are refined, no
    maxima, and no shape is taken.  The entries are taken as already
    checked.
    """
    thetas = _angles(n)
    vals = entropy_curve(st, thetas)
    minima: dict[int, list[tuple[float, float]]] = {}
    _refine_brackets(
        lambda k: XThermalState(*[x[k].item() for x in st[:4]]),
        thetas, vals, _flat(vals), minima,
    )
    return [minima.get(k, []) for k in range(len(vals))]


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


def _branch_rule(s_before, s0, s_half, minima):
    """(branches, optimal angles, deficits, deepest minima) of n states,
    from arrays of their S(rho), S~(0) and S~(pi/2) and the dict
    ``minima`` from each state with refined interior (theta, S~) minima
    to them, in state order.  The branches are codes (see _BRANCHES), the
    angles and deficits arrays, and the deepest minima a dict over the
    keys of ``minima``.  Exact ties at the 1e-12 level prefer the endpoint
    branches, z endpoint first.  The endpoint winners are taken as
    arrays, and only the states with a minimum one by one.  The states
    warn for their ties in order up to the first whose deficit is below
    -1e-9, which then raises; a deficit above that reads 0.
    """
    half = s_half < s0 - EQUAL_TOL
    best = np.where(half, s_half, s0)
    theta = np.where(half, HALF_PI, 0.0)
    branches = half.astype(np.intp)
    deepest, ties = {}, []
    for k, found in minima.items():
        angle, depth = deepest[k] = _deepest_minimum(found)
        if depth < best[k] - EQUAL_TOL:
            best[k], branches[k], theta[k] = depth, _INTERIOR, angle
        # a minimum refined right next to pi/2 is the ordinary merge into
        # the endpoint; the exotic case is a tie with a genuinely interior
        # angle
        if (
            HALF_PI - angle > 0.05
            and abs(depth - s_half[k]) <= EQUAL_TOL
            and min(depth, s_half[k]) < s0[k] - EQUAL_TOL
        ):
            ties.append(k)

    deficit = best - s_before
    below = deficit < 0.0
    failed = []  # the first state below -1e-9, as (state, deficit)
    if np.count_nonzero(below):
        failed = [(k, deficit[k].item()) for k in np.flatnonzero(deficit < -1e-9)[:1].tolist()]
        deficit[below] = 0.0
    for k in ties:
        if failed and k > failed[0][0]:
            break
        _warn(_TIE)
    if failed:
        raise ArithmeticError(_NEGATIVE.format(failed[0][1]))
    return branches, theta, deficit, deepest


class _Optima(NamedTuple):
    """``_optimize_points``' result, one entry per point: S(rho), S~(0)
    and S~(pi/2) (the rows of ``ends``), the branch and shape codes, the
    angle, the deficit and the shape label; ``depth`` maps each point
    with an interior minimum to the S~ of its deepest."""

    ends: np.ndarray
    branch: np.ndarray
    shape: np.ndarray
    theta: np.ndarray
    deficit: np.ndarray
    depth: dict[int, float]
    label: list[str]


def _optimize_points(J, Jz, bs, ts, n: int = 201) -> _Optima:
    """The optimizer at every point (J, Jz, B, T) of the 1-D arrays ``bs``
    and ``ts``, at ``n`` angles; J and Jz are floats or arrays of one
    entry per point, and the points are taken as ModelParams leaves them.

    The points go in order, in blocks of 256 (_BLOCK_CELLS), enough to
    spread numpy's cost per call and few enough to bound the arrays.  A
    block's entries are checked by ``_states_exact`` and its closed forms
    taken in exact array forms, bit for bit the scalar ones; its S~ is
    sampled by one ``entropy_curve`` call, its brackets and shapes taken
    by one ``_sampled_extrema`` call and its winners by one
    ``_branch_rule`` call.  So warnings come block by block: a failing
    point raises first, then the block warns for its Other shapes, then
    for its ties up to its first negative deficit, which raises.
    """
    J, Jz, bs, ts = np.broadcast_arrays(J, Jz, bs, ts)
    size = len(ts)
    out = _Optima(
        np.empty((3, size)), np.empty(size, np.intp), np.empty(size, np.intp),
        np.empty(size), np.empty(size), {}, [""] * size,
    )
    thetas = _angles(n)
    for start in range(0, size, _BLOCK_CELLS):
        block = slice(start, start + _BLOCK_CELLS)
        st = _states_exact(*_gibbs_entries_exact(J[block], Jz[block], bs[block], ts[block]))
        ends = (_entropies_exact(st), branch_s0s(st), branch_s_halfpis(st))
        out.ends[:, block] = ends
        minima, maxima, shapes = _sampled_extrema(
            lambda k: XThermalState(*[x[k].item() for x in st[:4]]),
            thetas, entropy_curve(st, thetas),
        )
        out.branch[block], out.theta[block], out.deficit[block], deepest = _branch_rule(
            *ends, minima
        )
        out.depth.update((start + k, depth) for k, (_, depth) in deepest.items())
        out.shape[block] = shapes
        out.label[block] = _SHAPE_LABELS[shapes].tolist()
        for k in np.flatnonzero(shapes == _OTHER).tolist():
            n_extrema = len(minima.get(k, ())) + len(maxima.get(k, ()))
            out.label[start + k] = _shape_label(Shape.OTHER, n_extrema)
    return out


def optimize_deficit(p: ModelParams, n: int = 201) -> DeficitResult:
    """Deficit at one parameter point: min over the three branches, the
    one-point view of ``_optimize_points``.

    The two endpoint branches are analytic; the interior one comes from
    the deepest refined interior minimum of the scan.  The winner is
    taken by ``_branch_rule``: exact ties at the 1e-12 level prefer the
    endpoint branches, z endpoint first.
    """
    o = _optimize_points(p.J, p.Jz, np.array([p.B], float), np.array([p.T], float), n)
    before, s0, s_half = o.ends[:, 0].tolist()
    depth = o.depth.get(0)
    return DeficitResult(
        delta0=s0 - before,
        delta_halfpi=s_half - before,
        delta_theta=None if depth is None else depth - before,
        branch=_BRANCHES[o.branch.item()],
        optimal_theta=o.theta.item(),
        deficit=o.deficit.item(),
        shape=_SHAPES[o.shape.item()],
        shape_label=o.label[0],
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
    of ``bs``, with its default 201 angles: ``_optimize_points`` over the
    cells in row-major order.  J, Jz and each T are checked as one
    ModelParams and B as an array, with their owners' messages.
    """
    # J, Jz and each T checked, a T below the floor clamped
    ts = np.array([ModelParams(J, Jz, 0.0, t).T for t in np.asarray(ts, float).tolist()])
    bs = np.asarray(bs, dtype=float)
    bad = ~np.isfinite(bs)
    if bad.any():
        raise ValueError(f"B must be finite, got {float(bs[bad][0])!r}")
    n_t, n_b = len(ts), len(bs)
    cells = _optimize_points(J, Jz, np.tile(bs, n_t), np.repeat(ts, n_b))
    branch = _BRANCH_LABELS[cells.branch].tolist()
    rows = range(0, n_t * n_b, n_b)
    return DeficitGrid(
        [branch[i:i + n_b] for i in rows], cells.theta.reshape(n_t, n_b),
        cells.deficit.reshape(n_t, n_b), [cells.label[i:i + n_b] for i in rows],
    )


def optimal_angle_jump(
    p_before: ModelParams, p_after: ModelParams, n: int = 201
) -> float:
    """Absolute change of the optimal angle between two nearby points
    straddling a boundary, both taken in one ``_optimize_points`` call."""
    points = np.array([[p.J, p.Jz, p.B, p.T] for p in (p_before, p_after)], float)
    before, after = _optimize_points(*points.T, n).theta.tolist()
    return abs(after - before)
