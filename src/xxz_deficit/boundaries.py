"""Boundary curves between deficit regions on the (T, B) plane.

Four families of conditions:

* ``zero``       curvature of S~ at theta = 0 vanishes,
* ``halfpi``     curvature of S~ at theta = pi/2 vanishes,
* ``equal``      the two endpoint entropies coincide,
* ``zeroprime``  the deepest interior minimum crosses the zero branch.

All are scalar root problems along a scan line, a ``_Line`` value: the
couplings J and Jz, the scanned coordinate, the value of the other one
and the S~ sample count of its ``zeroprime`` residual; it owns the (T, B)
pair of each of its points and their Gibbs entries.  The public
functions build one from their ModelParams template, a march station or
a triple-point check from its coordinate, so no solve builds
ModelParams.  A scalar residual is evaluated on plain
floats (``_residual_at``): the scanned coordinate passes ModelParams'
checks, the Gibbs entries XThermalState's, and each closed form is
computed by its float owner, so no solve builds an XThermalState per
point.  ``zeroprime`` reads only the interior minima of S~, so only
those are refined, and an XThermalState is built only for such a refine.

A solve first evaluates the residual at 65 points of its bracket in one
array pass, of which only the signs are kept.  The closed forms' array
values carry numpy's rounding, not math's, so the values near zero and
the ends of every sign change are checked against the scalar closed
forms; if one differs in sign, the line is scanned again point by point.
Exactly one sign-change cell is then refined on the scalar closed forms
by a bracketed Illinois (modified regula falsi) solve, from the end
values the scan holds, until a sign change brackets the root within
1e-7.  An exact zero on the scan counts as a root only between
neighbours of opposite sign; anywhere else it may be terms cancelling in
rounding, and the solve reports an unresolved residual.

A ``zeroprime`` root is solved as the 2x2 system {S~'(theta) = 0,
S~(theta) = S~(0)} in (theta, x), x the solved coordinate
(``_crossing_newton``): Newton in theta on the closed-form slope S~',
warm-started from the last angle, inside a secant in x.  It costs two
full residuals where the Illinois refine costs about eight, and its root
is kept only with two certificates, each a full residual at x -+ 1e-7:
the sign certificate (both finite, of opposite signs) and the scan
certificate (the angle is the minimum those scans find deepest).  A
scanned ``zeroprime`` cell is solved so, seeded from the cell, and so is
every march station of a ``zeroprime`` curve after the first, seeded
from the root before it and the linear predictor.  A refused Newton
solve falls back to the path above unchanged: the Illinois refine of the
cell, or the station's seeded search.

Curves are traced by marching one coordinate, one station per step of a
generator (``_march``) that ``trace_boundary`` runs to the end; a curve
that does not cover its span says why (``BoundaryCurve.stop_reason``).
A triple point is bracketed where the first pair of curves, in the given
order, whose solutions cross does so, at every march value of either
curve that both span.  The ``triple`` command traces a pair that marches
up only until that crossing (``_trace_to_crossing``), and a curve no
pair reaches not at all.  The point is the common root of the pair's two
residuals, by Newton in (T, B) from where the two curves' chords cross
in the cell (``_triple_newton``), kept only where both residuals change
sign across T -+ 1e-7 and B lies in the cell; where refused, there is
no point.  Every march station (a ``zeroprime`` station once its Newton
solve is refused) and every check of a triple point is one seeded
search (``_solve_near``).  It first tries a bracket of +-1e-3 around a
predicted root (the linear extrapolation of a curve's last two roots, or
the point checked), refined with no scan where its two ends have finite
residuals of opposite sign (``_straddles``).  Otherwise it scans
brackets of 1, 2 and 4 times its width around the seed and, where a
bracket holds several roots, keeps the one nearest the seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .measurement import (
    HALF_PI,
    DegenerateState,
    PopulationUnderflow,
    _branch_s0,
    _branch_s_halfpi,
    _second_derivative_at_0,
    _second_derivative_at_halfpi,
    branch_s0s,
    branch_s_halfpis,
    post_meas_entropy,
    post_meas_entropy_slope,
    second_derivatives_at_0,
    second_derivatives_at_halfpi,
)
from .model import (
    T_FLOOR,
    ModelParams,
    ThermalStates,
    XThermalState,
    _bloch_length,
    _check_coordinate,
    _check_state,
    _gibbs_entries,
    _gibbs_entries_exact,
    _states_exact,
    thermal_states,
)
from .numfmt import fmt9
from .optimizer import (
    _EXTREMUM_XTOL,
    _deepest_minimum,
    _illinois,
    _optimize_points,
    _sampled_minima,
    _sign,
)

# thermal_state, scan_profile, optimize_deficit and the curvatures of an
# XThermalState stay names of this module, though no solve or
# classification here calls them: perfbench/tracing.py wraps them here
from .measurement import second_derivative_at_0, second_derivative_at_halfpi  # noqa: F401
from .model import thermal_state  # noqa: F401
from .optimizer import optimize_deficit, scan_profile  # noqa: F401

__all__ = [
    "AmbiguousBracket",
    "BoundaryCurve",
    "BoundaryKind",
    "NoRoot",
    "NoTriplePoint",
    "TriplePoint",
    "UnresolvedResidual",
    "boundary_residual",
    "curve_to_csv",
    "find_triple_point",
    "solve_boundary_on_line",
    "trace_boundary",
    "xx_boundary_residual",
]


class BoundaryKind(Enum):
    ZERO = "zero"
    HALF_PI = "halfpi"
    EQUAL_ENDPOINTS = "equal"
    ZERO_PRIME = "zeroprime"


class NoRoot(Exception):
    """The residual does not change sign over the bracket."""


class NoTriplePoint(NoRoot):
    """``find_triple_point`` has no point; the message names the case."""


class UnresolvedResidual(NoRoot):
    """The residual has no value at some point of the bracket (its
    populations underflowed, or its closed form is 0/0 there), so no
    root is certified."""


class AmbiguousBracket(Exception):
    """Several sign changes at scan resolution; the caller must split.

    ``cells`` holds the (lo, hi) subintervals that each bracket a root.
    """

    def __init__(self, cells: list[tuple[float, float]]):
        self.cells = cells
        super().__init__(f"{len(cells)} sign changes in bracket")


# Residual magnitude targets at the returned root.
_RESIDUAL_TOL = {
    BoundaryKind.ZERO: 1e-8,
    BoundaryKind.HALF_PI: 1e-8,
    BoundaryKind.EQUAL_ENDPOINTS: 1e-8,
    BoundaryKind.ZERO_PRIME: 1e-10,
}

# Every solve scans its bracket at _SCAN_POINTS residuals and refines the
# one sign-change cell down to _XTOL; a ``zeroprime`` residual samples S~
# at _N_SCAN angles unless its line asks for more.
_SCAN_POINTS = 65
_XTOL = 1e-7
# A closed form's array value within _SIGN_GUARD of zero is checked
# against the scalar closed form.  The two paths differ by a few ulps of
# the residual's terms (the kernel tests bound it); for ``zero`` and
# ``equal`` those terms stay below about 1,400 while populations stay
# above 1e-300.
_SIGN_GUARD = 1e-9
_N_SCAN = 401
# The lowest temperature a solve brackets, probes or classifies at: twice
# the floor, so that ModelParams clamps none of their points (with a
# warning).  Only ``_Line.lowest`` reads it.
_T_LOWEST = 2.0 * T_FLOOR
# Half-widths of the first seeded bracket: a march station around the
# previous root, and a triple-point check around the point.
_TRACE_WIDTH = 0.08
_TRIPLE_WIDTH = 0.05
# Half-width of the bracket tried first around a predicted root.  It is
# narrower than one cell of the +-_TRACE_WIDTH scan (0.0025), so it holds
# two roots only where that scan could not resolve them either.
_PREDICT_WIDTH = 1e-3
# Every curve must pass within _TRIPLE_VERIFY_TOL in T of a triple point.
_TRIPLE_VERIFY_TOL = 1e-4
# Offset in the solved coordinate at which the two sides of a traced
# root are classified.
_PHASE_DELTA = 1e-3
# The Newton solve of a ``zeroprime`` root (``_crossing_newton``) takes at
# most _NEWTON_STEPS steps in theta at each point and as many secant steps
# in the solved coordinate.  It stops in theta at a step of at most
# _EXTREMUM_XTOL (as the extremum refine) and in the solved coordinate at
# one of at most _NEWTON_XTOL; S~'' is the central difference of S~' over
# +-_THETA_STEP.  Its root is accepted where its angle lies within
# _THETA_MATCH of the span of the deepest interior minima of the full
# residual on its two sides.  The Newton solve of a triple point
# (``_triple_newton``) takes as many steps in (T, B), stops at a step of
# at most _NEWTON_XTOL in both, and differences its Jacobian over _XTOL.
_NEWTON_STEPS = 12
_NEWTON_XTOL = 1e-12
_THETA_STEP = 1e-6
_THETA_MATCH = 1e-6


class _Line(NamedTuple):
    """One scan line of the (T, B) plane: the couplings J and Jz, the
    scanned coordinate ``coord`` ("T" or "B"), the value ``fixed`` of the
    other one, and the number of angles at which its ``zeroprime``
    residual samples S~.  ``fixed`` is taken as valid, as ModelParams
    leaves it; ``residual`` and ``_crossing_line`` check each scanned
    value."""

    J: float
    Jz: float
    coord: str
    fixed: float
    n_scan: int = _N_SCAN

    @property
    def lowest(self) -> float:
        """The lowest value of ``coord`` any solve evaluates at: _T_LOWEST
        for T, none for B."""
        return _T_LOWEST if self.coord == "T" else -math.inf

    def point(self, x):
        """The (T, B) pair of the point ``x`` (a float or an array)."""
        return (x, self.fixed) if self.coord == "T" else (self.fixed, x)

    def entries(self, x: float) -> tuple[float, float, float, float]:
        """The Gibbs entries (a, b, d, v) at the valid point ``x``."""
        t, b = self.point(x)
        return _gibbs_entries(self.J, self.Jz, b, t)

    def states(self, xs: list[float]) -> ThermalStates:
        """The states at the valid points ``xs``, in one exact pass: each
        equals XThermalState of ``entries(x)`` bit for bit, and the first
        state that fails XThermalState's checks raises its message."""
        t, b = np.broadcast_arrays(*self.point(np.array(xs, dtype=float)))
        return _states_exact(*_gibbs_entries_exact(self.J, self.Jz, b, t))

    def residual(self, kind: BoundaryKind):
        """The ``kind`` residual along the line as a function of x: one
        scalar ``_residual_at`` per point, whose x passes ModelParams'
        checks (a T below the floor is clamped, with a warning that names
        the function's caller)."""

        J, Jz, coord, _, n_scan = self
        point = self.point

        def f(x: float) -> float:
            t, b = point(_check_coordinate(coord, x))
            return _residual_at(kind, J, Jz, b, t, n_scan)

        return f


def boundary_residual(
    kind: BoundaryKind, p: ModelParams, n_scan: int = _N_SCAN
) -> float:
    """Signed defining residual of a boundary family at one point.

    For ``zeroprime`` the residual is S~(0) minus the deepest interior
    minimum of S~ scanned at ``n_scan`` angles.  Where no interior
    minimum exists the sign is continued from the endpoint comparison:
    -inf on the side where the zero branch wins, +inf on the side where
    the interior minimum has merged into the pi/2 endpoint (its limiting
    value lies below the zero branch there).  Where underflow (``zero``)
    or a 0/0 closed form at r = 0 (``halfpi``) leaves the residual without
    a value it raises UnresolvedResidual, a NoRoot, so a solve there fails
    like one without a sign change.  The residual is ``_residual_at`` of
    ``p``'s fields, on plain floats.
    """
    return _residual_at(kind, p.J, p.Jz, p.B, p.T, n_scan)


def _residual_at(
    kind: BoundaryKind, J: float, Jz: float, B: float, T: float, n_scan: int = _N_SCAN
) -> float:
    """``boundary_residual`` at (J, Jz, B, T), with no ModelParams and no
    XThermalState: the Gibbs entries are plain floats that pass
    XThermalState's checks, and each closed form is its float owner
    (``zeroprime`` builds an XThermalState only to refine a minimum).
    The coordinates are taken as ModelParams leaves them (finite, T at or
    above T_FLOOR).  Every value equals the object route's bit for bit.
    """
    entries = _gibbs_entries(J, Jz, B, T)
    if kind is BoundaryKind.ZERO_PRIME:
        return _crossing_gaps(_states_exact(*np.array(entries)[:, None]), n_scan)[0][0]
    a, b, d, v = entries
    _check_state(a, b, d, v)
    try:
        if kind is BoundaryKind.ZERO:
            return _second_derivative_at_0(a, b, d, v)
        if kind is BoundaryKind.HALF_PI:
            return _second_derivative_at_halfpi(a, b, d, v, _bloch_length(a, d, v))
    except (PopulationUnderflow, DegenerateState) as err:
        raise UnresolvedResidual(f"{kind.value} at T={T!r}, B={B!r}: {err}") from err
    return _branch_s0(a, b, d) - _branch_s_halfpi(_bloch_length(a, d, v))


def _crossing_gaps(states: ThermalStates, n_scan: int) -> list[tuple[float, float | None]]:
    """The ``zeroprime`` residual of each of the checked ``states``, from
    its S~ scanned at ``n_scan`` angles, with the angle of its deepest
    interior minimum (None where it has none); S~ is sampled for several
    states per array pass."""
    minima = _sampled_minima(states, n_scan)
    ends = zip(branch_s0s(states).tolist(), branch_s_halfpis(states).tolist())
    return [
        (_crossing_gap(s0, s_half, found), _deepest_minimum(found)[0] if found else None)
        for (s0, s_half), found in zip(ends, minima)
    ]


def _crossing_gap(s0: float, s_half: float, minima) -> float:
    """The ``zeroprime`` residual of a state from its endpoint entropies
    S~(0) and S~(pi/2) and its interior (theta, S~) minima."""
    deepest = _deepest_minimum(minima)
    if deepest is None:
        return -math.inf if s0 <= s_half else math.inf
    return s0 - deepest[1]


def _line_values(kind: BoundaryKind, line: _Line, xs: list[float]) -> np.ndarray:
    """The ``zero``, ``halfpi`` or ``equal`` residual at the points ``xs``
    of ``line``, in one pass of its array kernel; the values carry numpy's
    rounding rather than math's.  The same errors as
    ``boundary_residual``'s are raised, and ValueError for ``zeroprime``,
    which has no closed form (see ``_crossing_line``).  The points of
    ``xs`` are taken as valid coordinates, T at or above T_FLOOR.
    """
    t, b = line.point(np.array(xs))
    st = thermal_states(line.J, line.Jz, b, t)
    try:
        if kind is BoundaryKind.ZERO:
            return second_derivatives_at_0(st)
        if kind is BoundaryKind.HALF_PI:
            return second_derivatives_at_halfpi(st)
    except (PopulationUnderflow, DegenerateState) as err:
        (t0, b0), (t1, b1) = line.point(xs[0]), line.point(xs[-1])
        raise UnresolvedResidual(
            f"{kind.value} from T={t0!r}, B={b0!r} to T={t1!r}, B={b1!r}: {err}"
        ) from err
    if kind is BoundaryKind.EQUAL_ENDPOINTS:
        return branch_s0s(st) - branch_s_halfpis(st)
    raise ValueError(f"no closed-form line kernel for {kind.value}")


def _crossing_line(line: _Line, xs: list[float]) -> tuple[np.ndarray, list[float | None]]:
    """The ``zeroprime`` residual at the points ``xs`` of ``line``, and
    the angle of the deepest interior minimum at each (None where there
    is none), from the states of all points in one exact pass; each point
    passes ModelParams' checks first, in the order of ``xs``."""
    states = line.states([_check_coordinate(line.coord, x, 1) for x in xs])
    gaps, thetas = zip(*_crossing_gaps(states, line.n_scan))
    return np.array(gaps), list(thetas)


def _scan_line(kind: BoundaryKind, line: _Line, xs: list[float]) -> np.ndarray:
    """A closed-form residual at the points ``xs`` of one line, for
    ``_scan_cells``.  The values come from one array pass.  Every value
    within _SIGN_GUARD of zero and both ends of every change of sign are
    evaluated again with the scalar ``boundary_residual`` and take its
    value; should any of them differ in sign, the whole line is scanned
    again point by point.  The cells handed to the refine, their end
    values and the exact zeros are thus the scalar closed forms'.
    """
    values = _line_values(kind, line, xs)
    doubtful = np.abs(values) <= _SIGN_GUARD
    change = np.sign(values[:-1]) != np.sign(values[1:])
    doubtful[:-1] |= change
    doubtful[1:] |= change
    f = line.residual(kind)
    idx = np.flatnonzero(doubtful)
    scalar = [f(xs[i]) for i in idx]
    if any(_sign(v) != _sign(values[i]) for i, v in zip(idx, scalar)):
        return np.array([f(x) for x in xs])
    values[idx] = scalar
    return values


def _scan_cells(xs: list[float], values: np.ndarray):
    """Sign-change cells of a residual scanned at ``xs``, and an exact root.

    Only the signs of ``values`` are read.  A cell whose both ends are
    infinite has no certified crossing in between (it marks a direct
    branch swap) and is skipped.  An exact 0.0 is a root only where both
    of its scan neighbours have opposite nonzero signs; the first such
    point is returned as the exact root, else None.  Any other exact 0.0
    (at an end of the scan, or between neighbours of one sign) may be
    terms that cancelled in rounding, so a scan that holds one and no
    sign-change cell raises UnresolvedResidual.
    """
    sign = np.sign(values)
    finite = np.isfinite(values)
    flips = (sign[:-1] * sign[1:] < 0.0) & (finite[:-1] | finite[1:])
    cells = [(xs[i], xs[i + 1]) for i in np.flatnonzero(flips)]
    zeros = sign == 0.0
    certified = np.flatnonzero(zeros[1:-1] & (sign[:-2] * sign[2:] < 0.0)) + 1
    exact = xs[certified[0]] if certified.size else None
    if not cells and exact is None and zeros.any():
        raise UnresolvedResidual(
            f"residual exactly 0 at {xs[int(np.argmax(zeros))]!r} without a"
            " sign change around it"
        )
    return cells, exact


def _refine_cell(
    kind: BoundaryKind, line: _Line, lo: float, hi: float, flo: float, fhi: float
):
    """Refine one certified cell [lo, hi] of the ``kind`` residual along
    ``line``, whose end values are flo and fhi, and verify the result is
    a genuine zero.

    Returns the root and the residual there.  A sign flip across a jump
    of the residual is not a zero: the extended interior-crossing
    residual jumps where the minimum merges into an endpoint.  The
    residual must actually become small somewhere in a narrow window
    around the returned root (the window matters where a newborn minimum
    is too shallow for the scan right at the root): at the root, or at a
    probe root -+ 1e-7, 1e-5 or 1e-4 at or above ``line.lowest``.
    """
    f = line.residual(kind)
    ftol = _RESIDUAL_TOL[kind]
    root, residual = _illinois(f, lo, hi, ftol, flo, fhi, xtol=_XTOL)
    limit = max(1e-6, 1e3 * ftol)

    def small(value: float) -> bool:
        return math.isfinite(value) and abs(value) <= limit

    if small(residual) or any(
        small(f(root + offset))
        for offset in (-_XTOL, _XTOL, -1e-5, 1e-5, -1e-4, 1e-4)
        if root + offset >= line.lowest
    ):
        return root, residual
    raise NoRoot("residual jump, no zero crossing")


def _straddles(lo: float, hi: float) -> bool:
    """The sign certificate of a root between two residuals: both finite,
    of opposite signs."""
    return math.isfinite(lo) and math.isfinite(hi) and _sign(lo) * _sign(hi) < 0


def _crossing_newton(
    line: _Line, x0: float, theta0: float, lo: float, hi: float
) -> tuple[float, float, float] | None:
    """The ``zeroprime`` root in [lo, hi] on ``line`` by Newton in
    (theta, x), as (x*, residual, theta*), or None.

    It solves {S~'(theta) = 0, S~(theta) - S~(0) = 0}.  At each x, theta*
    is Newton's root of the closed-form slope S~', started from the last
    theta* (``theta0`` first), with S~'' the central difference of S~'.
    Across x, a secant on g(x) = S~(0) - S~(theta*(x)) starts from x0 and
    x0 +- 1e-7, towards the middle of [lo, hi].  The result is accepted
    only where every iterate lies in [lo, hi], where the full residual
    (``_crossing_gaps``, the values of ``_residual_at``) is finite at x* -
    1e-7 and x* + 1e-7 with opposite signs (the sign certificate), and
    where theta* lies within 1e-6 of the span of the deepest interior
    minima of those two scans (the scan certificate: theta* is the
    minimum the scans find deepest; it moves between the two, by 4.7e-6
    at B = 2 on J = -1, Jz = -1.5).  Any other outcome gives None: a
    theta step that finds S~'' <= 0 or leaves (0, pi/2), or either loop
    not converging within 12 steps.  The residual returned is g(x*).
    """
    lo = max(lo, line.lowest + _XTOL)
    if not lo <= x0 <= hi:
        return None

    def gap(x: float, theta: float) -> tuple[float, float] | None:
        """(g(x), theta*(x)) from ``theta``, or None."""
        s = XThermalState(*line.entries(x))
        for _ in range(_NEWTON_STEPS):
            up = post_meas_entropy_slope(s, theta + _THETA_STEP)
            down = post_meas_entropy_slope(s, theta - _THETA_STEP)
            curvature = (up - down) / (2.0 * _THETA_STEP)
            if not curvature > 0.0:
                return None  # no minimum here
            step = post_meas_entropy_slope(s, theta) / curvature
            theta -= step
            if not 0.0 < theta < HALF_PI:
                return None
            if abs(step) <= _EXTREMUM_XTOL:
                return _branch_s0(s.a, s.b, s.d) - post_meas_entropy(s, theta), theta
        return None

    first = gap(x0, theta0)
    if first is None:
        return None
    (ga, theta), xa = first, x0
    xb = x0 + math.copysign(_XTOL, 0.5 * (lo + hi) - x0)
    for _ in range(_NEWTON_STEPS):
        last = gap(xb, theta) if lo <= xb <= hi else None
        if last is None:
            return None
        gb, theta = last
        if gb == 0.0 or abs(xb - xa) <= _NEWTON_XTOL:
            break
        if gb == ga:
            return None
        xa, ga, xb = xb, gb, xb - gb * (xb - xa) / (gb - ga)
    else:
        return None
    sides = line.states([xb - _XTOL, xb + _XTOL])
    (g_lo, th_lo), (g_hi, th_hi) = _crossing_gaps(sides, line.n_scan)
    if not _straddles(g_lo, g_hi):
        return None
    if not min(th_lo, th_hi) - _THETA_MATCH <= theta <= max(th_lo, th_hi) + _THETA_MATCH:
        return None
    return xb, gb, theta


def _check_bracket(bracket: tuple[float, float]) -> None:
    if not all(math.isfinite(x) for x in bracket):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")


def _solve_line(
    kind: BoundaryKind, line: _Line, lo: float, hi: float, seed: float | None = None
) -> tuple[float, float, float | None]:
    """Root of the scanned coordinate in [lo, hi] on ``line``, the
    residual there and, for a ``zeroprime`` root solved by Newton, the
    angle of its interior minimum (else None).  The ``_Line`` holds all
    the solve reads besides ``kind``: the couplings, the held coordinate
    and, for ``zeroprime``, the S~ sample count.

    The bracket (from ``line.lowest`` up) is scanned at 65 points
    (``_scan_line``; for ``zeroprime`` ``_crossing_line``, which also
    gives each point's angle) and its one sign-change cell solved from
    what the scan holds.  A ``zeroprime`` cell goes to
    ``_crossing_newton``, its root confined to the cell, seeded where the
    secant through the cell's end values is 0, at the angle interpolated
    there between the deepest minima of its ends (or, where one end has
    no interior minimum, from the other end).  Where that is refused, and
    for the other kinds, the cell is refined (``_refine_cell``) from its
    scalar end values.  Where the scan finds several cells it raises
    AmbiguousBracket, or with a ``seed`` solves the cell nearest it.  A
    bracket wholly below ``line.lowest`` fails before any scan: with
    ModelParams' ValueError for its lower end where that is negative,
    else with NoRoot.
    """
    if hi < line.lowest:
        if lo < 0.0:
            _check_coordinate(line.coord, lo)
        raise NoRoot(f"{kind.value}: [{lo}, {hi}] lies below {line.coord}={line.lowest}")
    lo = max(lo, line.lowest)
    xs = np.linspace(lo, hi, _SCAN_POINTS).tolist()
    if kind is BoundaryKind.ZERO_PRIME:
        values, thetas = _crossing_line(line, xs)
    else:
        values = _scan_line(kind, line, xs)
    cells, exact = _scan_cells(xs, values)
    if len(cells) > 1:
        if seed is None:
            raise AmbiguousBracket(cells)
        cells = [min(cells, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed))]
    if cells:
        ((a, b),) = cells
        i = xs.index(a)
        ga, gb = values[i].item(), values[i + 1].item()
        if kind is BoundaryKind.ZERO_PRIME:
            if math.isfinite(ga) and math.isfinite(gb):
                w = ga / (ga - gb)  # where the secant of the cell is 0
                x0, theta0 = a + w * (b - a), thetas[i] + w * (thetas[i + 1] - thetas[i])
            else:  # one end has no interior minimum
                x0, theta0 = (a, thetas[i]) if math.isfinite(ga) else (b, thetas[i + 1])
            root = _crossing_newton(line, x0, theta0, a, b)
            if root is not None:
                return root
        return (*_refine_cell(kind, line, a, b, ga, gb), None)
    if exact is not None:
        return exact, 0.0, None
    raise NoRoot(f"{kind.value}: no sign change in [{lo}, {hi}]")


def solve_boundary_on_line(
    kind: BoundaryKind,
    p_template: ModelParams,
    fixed: str,
    bracket: tuple[float, float],
    *,
    n_scan: int = _N_SCAN,
) -> tuple[float, float]:
    """Root of a boundary condition along one scan line.

    ``fixed`` names the coordinate ("T" or "B") held at its template
    value; the other coordinate runs over ``bracket``.  The residual is
    evaluated at 65 points of the bracket in one array pass and only
    their signs are read, those near zero or at a sign change checked
    against the scalar ``boundary_residual``.  Raises NoRoot if the
    residual never changes sign, UnresolvedResidual (a NoRoot) if the
    scan holds an exact zero that no sign change certifies,
    AmbiguousBracket if the sign changes more than once at scan
    resolution, ValueError if an end of the bracket is not finite.  A T
    bracket wholly below the lowest solvable T (2e-8) raises before any
    scan: ModelParams' ValueError for a negative lower end, else NoRoot.
    Returns the root as a (T, B) pair: the one sign-change cell is
    refined on the scalar ``boundary_residual`` by a bracketed Illinois
    solve until it is at most 1e-7 wide, so the root carries a scalar
    sign change within 1e-7.  A ``zeroprime`` cell is first solved by
    Newton in (theta, x) from the cell (``_crossing_newton``); that root
    is kept only where the full residual is finite with opposite signs at
    the root -+ 1e-7 and the root's angle is the deepest interior minimum
    of those two scans, and the Illinois refine runs where it is refused.
    """
    if fixed not in ("T", "B"):
        raise ValueError(f"fixed must be 'T' or 'B', got {fixed!r}")
    _check_bracket(bracket)
    line = _Line(
        p_template.J, p_template.Jz, "B" if fixed == "T" else "T",
        getattr(p_template, fixed), n_scan,
    )
    root, _, _ = _solve_line(kind, line, min(bracket), max(bracket))
    # the root lies in the bracket, above the floor: it needs no clamping
    return line.point(root)


def _solve_near(
    kind: BoundaryKind, line: _Line, seed: float, width: float, guess: float | None = None
) -> tuple[float, float, float | None] | None:
    """Root of the scanned coordinate of the ``_Line`` ``line`` nearest
    ``seed``, its residual and its angle as ``_solve_line`` gives them,
    or None.

    With a ``guess`` within ``width`` of the seed, the bracket guess +-
    _PREDICT_WIDTH comes first, with no scan: its two ends must have
    finite scalar residuals of opposite sign, and the refined root must
    pass ``_refine_cell``'s test.  Then come the scanned brackets seed +-
    width, 2 width and 4 width, and the first root found is returned.
    Where such a bracket holds several sign changes, the cell nearest the
    seed is refined: the seed lies on the sheet wanted, and the other
    roots belong to another sheet of the same family.
    """
    if guess is not None and abs(guess - seed) <= width:
        lo, hi = guess - _PREDICT_WIDTH, guess + _PREDICT_WIDTH
        if lo >= line.lowest:
            f = line.residual(kind)
            try:
                flo, fhi = f(lo), f(hi)
                if _straddles(flo, fhi):
                    return (*_refine_cell(kind, line, lo, hi, flo, fhi), None)
            except NoRoot:
                pass
    for w in (width, 2.0 * width, 4.0 * width):
        try:
            return _solve_line(kind, line, seed - w, seed + w, seed=seed)
        except NoRoot:
            continue
    return None


@dataclass
class BoundaryCurve:
    """One traced boundary: ordered (T, B) points plus per-point
    diagnostics.  ``physical`` records whether the phase label actually
    changes across each point.  ``stop_reason`` says why the march ended
    as it did: "span covered", "first root past span start" (the points
    start late and run to the end), "first root not found" (no points) or
    "no root at min step" (the march stopped short of the end);
    ``complete`` whether the points cover the whole requested span, from
    its start to its end.  ``newton_refused`` counts the march stations
    of a ``zeroprime`` curve whose Newton solve was refused, so that they
    ran the seeded search instead; it is not written to the CSV."""

    kind: BoundaryKind
    J: float
    Jz: float
    march: str
    points: list[tuple[float, float]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    physical: list[bool] = field(default_factory=list)
    stop_reason: str = "span covered"
    newton_refused: int = field(default=0, init=False)

    @property
    def complete(self) -> bool:
        return self.stop_reason == "span covered"

    def solved_values(self) -> list[float]:
        idx = 0 if self.march == "B" else 1
        return [pt[idx] for pt in self.points]

    def marched_values(self) -> list[float]:
        idx = 1 if self.march == "B" else 0
        return [pt[idx] for pt in self.points]


def _phase_changes(curve: BoundaryCurve) -> list[bool]:
    """For each point of ``curve``, whether the winning branch differs on
    its two sides, at -+ _PHASE_DELTA in the solved coordinate (the lower
    side no lower than ``_Line.lowest``): every side of every point in one
    ``_optimize_points`` call at _N_SCAN angles."""
    coord = "T" if curve.march == "B" else "B"
    sides = []
    for x, fixed in zip(curve.solved_values(), curve.marched_values()):
        line = _Line(curve.J, curve.Jz, coord, fixed)
        sides += [line.point(max(x - _PHASE_DELTA, line.lowest)), line.point(x + _PHASE_DELTA)]
    t, b = np.array(sides, dtype=float).reshape(-1, 2).T
    branch = _optimize_points(curve.J, curve.Jz, b, t, _N_SCAN).branch
    return (branch[0::2] != branch[1::2]).tolist()


def trace_boundary(
    kind: BoundaryKind,
    p_template: ModelParams,
    march: str,
    start: float,
    stop: float,
    step: float,
    *,
    first_bracket: tuple[float, float] = (0.02, 3.0),
    classify: bool = True,
) -> BoundaryCurve:
    """March one coordinate, solving the boundary at every station.

    Only the couplings J and Jz of ``p_template`` are read: ``march``
    runs from ``start`` to ``stop``, and the other coordinate is solved.
    The first root comes from ``first_bracket``.  A ``zeroprime`` station
    after the first is solved by Newton in (theta, x) first
    (``_crossing_newton``): the secant in the solved coordinate x starts
    from the linear extrapolation of the two roots before it (from the
    root before, at the second station), Newton in theta from the angle of
    the last Newton root, and the root must lie within 0.08 of the root
    before.  It is kept only where the full residual is finite with
    opposite signs at the root -+ 1e-7 and its angle is the deepest
    interior minimum of those two scans; each station where it is refused
    counts in ``newton_refused`` and is solved as a station of the other
    kinds.  From the third station on, the root is predicted by linear
    extrapolation of the two roots before it and first sought in a
    bracket of +-1e-3 around the prediction, with no scan: both ends must
    have finite residuals of opposite sign, and the prediction must lie
    within 0.08 of the previous root.  Otherwise, and at the second
    station, the station solves near the previous root, in brackets of
    +-0.08, 0.16 and 0.32 around it.  Where such a bracket holds several
    roots, the one nearest the previous root is kept, so the march stays
    on its sheet.  On a failed station the march step is halved (curves
    bend sharply near triple points), down to step/64; when the root
    persists in not being found the curve is terminated and returned
    partial, its ``stop_reason`` saying why.  Every root carries a scalar
    sign change within 1e-7.  With ``classify`` each point records
    whether the winning branch differs at +-1e-3 in the solved
    coordinate, all points in one call after the march.  A T range with
    an end below 0 raises ModelParams' ValueError before anything is
    solved; a station below the floor is clamped to it, with a warning
    that names the caller.  The stations are those of ``_march``, run to
    the end; the ``triple`` command runs them only until a pair of curves
    crosses (``_trace_to_crossing``).
    """
    trace = _march(kind, p_template, march, start, stop, step, first_bracket)
    for _ in trace.stations:
        pass
    if classify:
        trace.curve.physical = _phase_changes(trace.curve)
    return trace.curve


class _Trace(NamedTuple):
    """A boundary traced lazily: ``curve`` holds the points solved so far,
    each step of ``stations`` appends one and yields its marched value,
    and ``up`` says whether the march runs towards larger values."""

    curve: BoundaryCurve
    stations: Iterator[float]
    up: bool


def _march(
    kind: BoundaryKind, p_template: ModelParams, march: str, start: float, stop: float,
    step: float, first_bracket: tuple[float, float],
) -> _Trace:
    """``trace_boundary``'s march, one station per step of the returned
    ``stations``, so a caller may stop it early; the curve then holds the
    first points of the full trace, bit for bit, each ``physical`` True
    (unclassified).  The arguments are checked here, before any station
    is solved, the step to move the range's larger end by its 1/64."""
    if march not in ("T", "B"):
        raise ValueError(f"march must be 'T' or 'B', got {march!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{march} range must be finite, got {start!r}:{stop!r}")
    if march == "T" and min(start, stop) < 0.0:  # ModelParams' error, start first
        _check_coordinate("T", start if start < 0.0 else stop)
    _check_bracket(first_bracket)
    solve_coord = "B" if march == "T" else "T"
    station = functools.partial(_Line, p_template.J, p_template.Jz, solve_coord)
    direction = 1.0 if stop >= start else -1.0
    nominal = abs(step)
    if not nominal > 0.0:
        raise ValueError(f"step must be nonzero and not nan, got {step!r}")
    min_step = nominal / 64.0
    end = max(start, stop, key=abs)
    if end + min_step == end:  # the march could not move from a station
        raise ValueError(f"step {step!r} is too small to move {march}={end!r}")

    curve = BoundaryCurve(kind=kind, J=p_template.J, Jz=p_template.Jz, march=march)

    def emit(line: _Line, root: tuple[float, float, float | None]) -> float:
        """Record the root (solved coordinate, residual, angle) on ``line``;
        returns its solved coordinate, the next seed."""
        curve.points.append(line.point(root[0]))
        curve.residuals.append(root[1])
        curve.physical.append(True)
        return root[0]

    def stations() -> Iterator[float]:
        # each station checks its marched value (a clamp warning names the
        # caller of trace_boundary, which runs this generator); locate the
        # first root, walking forward if the curve starts mid-range
        x = start
        seed: float | None = None
        theta: float | None = None  # zeroprime: the angle of the last Newton root
        while (stop - x) * direction >= -1e-12:
            line = station(_check_coordinate(march, x, 3))
            try:
                root = _solve_line(kind, line, min(first_bracket), max(first_bracket))
            except (NoRoot, AmbiguousBracket):
                x += nominal * direction
                continue
            seed, theta = emit(line, root), root[2]
            break
        if seed is None:
            curve.stop_reason = "first root not found"
            return
        if x != start:  # the curve misses the start of the span
            curve.stop_reason = "first root past span start"
        yield x

        before: tuple[float, float] | None = None  # (marched, solved) of the root before
        cur_step = nominal
        while (stop - x) * direction > 1e-12:
            target = x + cur_step * direction
            if (target - stop) * direction > 0.0:
                target = stop
            line = station(_check_coordinate(march, target, 3))
            guess = None
            if before is not None:
                guess = seed + (seed - before[1]) * (target - x) / (x - before[0])
            root = None
            if theta is not None:
                root = _crossing_newton(
                    line, seed if guess is None else guess, theta,
                    seed - _TRACE_WIDTH, seed + _TRACE_WIDTH,
                )
                if root is None:
                    curve.newton_refused += 1
            if root is None:
                root = _solve_near(kind, line, seed, _TRACE_WIDTH, guess)
            if root is None:
                if cur_step > min_step:
                    cur_step = max(cur_step / 2.0, min_step)
                    continue
                curve.stop_reason = "no root at min step"
                return
            before = (x, seed)
            seed = emit(line, root)
            theta = root[2] if root[2] is not None else theta
            x = target
            cur_step = min(2.0 * cur_step, nominal)
            yield x

    return _Trace(curve, stations(), direction > 0.0)


def _last_b(curve: BoundaryCurve) -> float:
    """The B of the newest point of a curve marched along B (-inf before
    its first)."""
    return curve.points[-1][1] if curve.points else -math.inf


def _solved_at(curve: BoundaryCurve, b: float) -> float:
    """The solved T of a curve marched up along B, on the chord between
    its points around ``b``, which lies in its span."""
    pts = curve.points
    j = len(pts) - 1
    while pts[j][1] > b:
        j -= 1
    t0, b0 = pts[j]
    if b0 == b:
        return t0
    t1, b1 = pts[j + 1]
    return t0 + (t1 - t0) * (b - b0) / (b1 - b0)


def _trace_to_crossing(one: _Trace, other: _Trace) -> bool:
    """Extend two lazy traces along B as far as ``find_triple_point``
    needs them, and tell whether their solved T change order
    (``_first_crossing``).

    Where both march up, the one behind (the lower newest B, ``one`` on a
    tie) solves its next station, until the newest B that both curves
    span sees the order of their T change and ``_first_crossing``
    confirms it, or the one behind has ended.  Otherwise (only
    ``zeroprime`` marches down) both are traced to the end.  Each curve
    thus holds the first points of its full trace, on which
    ``_first_crossing`` finds the cell it finds on the full traces.
    """
    c1, c2 = one.curve, other.curve
    if not (one.up and other.up):
        for trace in (one, other):
            for _ in trace.stations:
                pass
        return _first_crossing(c1, c2) is not None
    pair, ended = (one, other), [False, False]
    top, top_sign = -math.inf, 0  # the newest common B checked, and its sign of T1 - T2
    while True:
        i = 0 if _last_b(c1) <= _last_b(c2) else 1
        if ended[i]:
            return _first_crossing(c1, c2) is not None
        if next(pair[i].stations, None) is None:
            ended[i] = True
            continue
        if not (c1.points and c2.points):
            continue
        b = min(_last_b(c1), _last_b(c2))
        if b <= top or b < max(c1.points[0][1], c2.points[0][1]):
            continue
        sign = _sign(_solved_at(c1, b) - _solved_at(c2, b))
        if sign * top_sign < 0 and _first_crossing(c1, c2) is not None:
            return True
        top, top_sign = b, sign


@dataclass(frozen=True)
class TriplePoint:
    """Meeting point of boundary curves on the (T, B) plane."""

    T: float
    B: float
    meeting_kinds: frozenset[BoundaryKind]


def _by_march(curve: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's marched and solved values, sorted by the marched one."""
    xs = np.asarray(curve.marched_values())
    order = np.argsort(xs)
    return xs[order], np.asarray(curve.solved_values())[order]


def _first_crossing(c1: BoundaryCurve, c2: BoundaryCurve):
    """The first march cell where the solved T of c1 and c2 change order,
    as (lo, hi, T1(lo), T2(lo), T1(hi), T2(hi)), or None."""
    if len(c1.points) < 2 or len(c2.points) < 2:
        return None  # nothing to interpolate
    (b1, s1), (b2, s2) = _by_march(c1), _by_march(c2)
    # both grids merged: a value of both comes twice with equal differences,
    # so it brackets nothing (np.union1d would drop it but imports numpy.ma)
    bs = np.sort(np.concatenate((b1, b2)))
    bs = bs[(bs >= max(b1[0], b2[0])) & (bs <= min(b1[-1], b2[-1]))]
    t1, t2 = np.interp(bs, b1, s1), np.interp(bs, b2, s2)
    d = t1 - t2
    flips = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
    if not flips.size:
        return None
    i, j = flips[0], flips[0] + 1
    return tuple(float(x) for x in (bs[i], bs[j], t1[i], t2[i], t1[j], t2[j]))


def find_triple_point(curves: list[BoundaryCurve]) -> TriplePoint:
    """Mutual intersection of boundary curves marched along B.

    The crossing is taken from the first pair of curves, in the given
    order (first with second, first with third, ..., second with third,
    ...), whose solved T difference changes sign; a curve that ends at
    the point (the interior-crossing family does) crosses no other.  It
    is bracketed at every march value of either curve that both curves
    span, each curve's solved T linearly interpolated there, so the two
    curves need not share a march grid.  The point is the common root of
    the pair's two residuals, solved by Newton in (T, B) from where the
    chords of the two curves cross in that cell (``_triple_newton``).
    The root is kept only where it lies in the cell and both residuals
    are finite with opposite signs at T -+ 1e-7.  Every provided curve
    must then pass within 1e-4 in T of the point, each sought first in a
    bracket of +-1e-3 around it with no scan; curves that terminate at
    the point are extrapolated from just beside it.  Raises
    NoTriplePoint naming the case where no pair of curves crosses, where
    Newton's root is refused (a residual has no value, the Jacobian is
    singular, 12 steps do not converge, or the root fails its
    certificate) and where a curve misses the point.
    """
    if len(curves) < 2:
        raise ValueError("need at least two curves")
    if any(c.march != "B" for c in curves):
        raise ValueError("triple-point search expects curves marched along B")
    base = curves[0]
    if any((c.J, c.Jz) != (base.J, base.Jz) for c in curves[1:]):
        raise ValueError("curves belong to different coupling sets")

    for c1, c2 in itertools.combinations(curves, 2):
        crossing = _first_crossing(c1, c2)
        if crossing is not None:
            break
    else:
        raise NoTriplePoint("no pair of curves crosses")
    root = _triple_newton((c1.kind, c2.kind), base.J, base.Jz, *crossing)
    if root is None:
        raise NoTriplePoint(f"Newton refused the {c1.kind.value}/{c2.kind.value} crossing")
    t_star, b_star = root
    line = _Line(base.J, base.Jz, "T", b_star)

    meeting = set()
    for curve in curves:
        dist = _curve_distance(curve.kind, line, t_star)
        if dist is None or dist > _TRIPLE_VERIFY_TOL:
            raise NoTriplePoint(f"the {curve.kind.value} curve misses the point")
        meeting.add(curve.kind)
    return TriplePoint(T=t_star, B=b_star, meeting_kinds=frozenset(meeting))


def _triple_newton(
    kinds: tuple[BoundaryKind, BoundaryKind], J: float, Jz: float,
    lo_b: float, hi_b: float, t1_lo: float, t2_lo: float, t1_hi: float, t2_hi: float,
) -> tuple[float, float] | None:
    """The common root (T*, B*) of the residuals r1, r2 of ``kinds`` at
    couplings J, Jz, by Newton in (T, B), or None.

    The two curves' solved T are T1 and T2 at the ends lo_b and hi_b of
    the crossing cell; Newton starts where their chords cross.  Each step
    takes the Jacobian as a forward difference of ``_residual_at`` over
    1e-7 in T and in B, and the loop stops at a step of at most 1e-12 in
    both.  The root is kept only where B* lies in [lo_b, hi_b] and r1 and
    r2 are each finite with opposite signs at T* -+ 1e-7, B* (the sign
    certificate).  Any other outcome gives None: a residual without a
    value or not finite, a T below the lowest solvable one, a singular
    Jacobian, or no convergence within 12 steps.
    """
    w = (t1_lo - t2_lo) / ((t1_lo - t2_lo) - (t1_hi - t2_hi))
    t, b = t1_lo + w * (t1_hi - t1_lo), lo_b + w * (hi_b - lo_b)
    lowest = _Line(J, Jz, "T", b).lowest + _XTOL  # T -+ _XTOL stays solvable

    def residuals(t: float, b: float) -> tuple[float, float]:
        return _residual_at(kinds[0], J, Jz, b, t), _residual_at(kinds[1], J, Jz, b, t)

    try:
        for _ in range(_NEWTON_STEPS):
            if not (lowest <= t < math.inf and math.isfinite(b)):
                return None
            (r1, r2), (r1t, r2t), (r1b, r2b) = (
                residuals(t, b), residuals(t + _XTOL, b), residuals(t, b + _XTOL)
            )
            a, c = (r1t - r1) / _XTOL, (r1b - r1) / _XTOL
            e, f = (r2t - r2) / _XTOL, (r2b - r2) / _XTOL
            det = a * f - c * e
            if not (math.isfinite(det) and det != 0.0):
                return None
            dt, db = (r1 * f - r2 * c) / det, (a * r2 - e * r1) / det
            if not (math.isfinite(dt) and math.isfinite(db)):
                return None
            t, b = t - dt, b - db
            if abs(dt) <= _NEWTON_XTOL and abs(db) <= _NEWTON_XTOL:
                break
        else:
            return None
        if not (lo_b <= b <= hi_b and t >= lowest):
            return None
        below, above = residuals(t - _XTOL, b), residuals(t + _XTOL, b)
    except NoRoot:
        return None
    return (t, b) if all(_straddles(lo, hi) for lo, hi in zip(below, above)) else None


def _curve_distance(kind: BoundaryKind, line: _Line, t_star: float) -> float | None:
    """Distance in T from the point ``t_star`` of the T line ``line`` to a
    boundary's solution sheet.

    Solves on the line directly, in the bracket t_star +- 1e-3 with no
    scan first; if the curve terminates there, probes small B offsets on
    both sides and extrapolates linearly back.
    """
    here = _solve_near(kind, line, t_star, _TRIPLE_WIDTH, guess=t_star)
    if here is not None:
        return abs(here[0] - t_star)
    for sign in (+1.0, -1.0):
        probes = []
        for off in (2e-4, 1e-3):
            beside = line._replace(fixed=line.fixed + sign * off)
            found = _solve_near(kind, beside, t_star, _TRIPLE_WIDTH)
            if found is not None:
                probes.append((sign * off, found[0]))
        if len(probes) == 2:
            (o1, t1), (o2, t2) = probes
            t_extrap = t1 + (t2 - t1) * (0.0 - o1) / (o2 - o1)
            return abs(t_extrap - t_star)
        if len(probes) == 1:
            return math.hypot(probes[0][0], probes[0][1] - t_star)
    return None


def xx_boundary_residual(p: ModelParams) -> float:
    """Residual of the closed transcendental condition for the zero-angle
    boundary of the XX dimer (Jz = 0); it vanishes on the line B = |J|.

    With a = |J|/T, u = B/T, x = e^u, y = cosh a, z = e^-u and L(p, q) =
    ln(p/q)/(p - q), the condition reads

        R = sinh^2 a [L(x, y) + L(y, z)] - 2u sinh u + 4 delta ln y,

    delta = cosh u - y.  L(x, y) + L(y, z) = (2u sinh u + 2 delta ln y)/D
    with D = (x - y)(y - z), and sinh^2 a - D = -2 y delta, so

        R = 2 delta [3 ln y - y L(x, y) - y L(y, z)].

    With phi(rho) = rho / expm1(rho) (1 at rho = 0), y L(x, y) = phi(u -
    ln y) and y L(y, z) = phi(-u - ln y).  delta is taken as 2 sinh((u +
    a)/2) sinh((u - a)/2), so R is exactly 0 where u = a, and ln y as
    log1p(2 sinh^2(a/2)).  No term is 0/0, also where x = y (D = 0).
    Where a term leaves float range (|J|/T above about 710), math raises
    OverflowError.
    """
    if abs(p.Jz) > 1e-12:
        raise ValueError("the closed-form condition requires Jz = 0")
    a, u = abs(p.J) / p.T, p.B / p.T
    ln_y = math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
    delta = 2.0 * math.sinh(0.5 * (u + a)) * math.sinh(0.5 * (u - a))

    def phi(rho: float) -> float:
        return rho / math.expm1(rho) if rho != 0.0 else 1.0

    return 2.0 * delta * (3.0 * ln_y - phi(u - ln_y) - phi(-u - ln_y))


def curve_to_csv(curve: BoundaryCurve, norm: float = 1.0) -> str:
    """CSV dump of a traced curve; T and B are divided by ``norm``."""
    lines = [
        f"# kind={curve.kind.value} J={fmt9(curve.J)} Jz={fmt9(curve.Jz)}"
        f" march={curve.march} norm={fmt9(norm)} complete={int(curve.complete)}",
        "kind,T,B,residual,is_physical",
    ]
    for (t, b), res, phys in zip(curve.points, curve.residuals, curve.physical):
        lines.append(
            f"{curve.kind.value},{fmt9(t / norm)},{fmt9(b / norm)},"
            f"{fmt9(res)},{int(phys)}"
        )
    return "\n".join(lines) + "\n"
