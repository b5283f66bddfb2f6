"""Boundary curves between deficit regions on the (T, B) plane.

Four families of conditions:

* ``zero``       curvature of S~ at theta = 0 vanishes,
* ``halfpi``     curvature of S~ at theta = pi/2 vanishes,
* ``equal``      the two endpoint entropies coincide,
* ``zeroprime``  the deepest interior minimum crosses the zero branch.

All are scalar root problems along a scan line.  A scalar residual is
evaluated on plain floats (``_residual_at``): the scanned coordinate
passes ModelParams' checks, the Gibbs entries XThermalState's, and each
closed form is computed by its float owner, so no solve builds a
ModelParams or an XThermalState per point.  ``zeroprime`` reads only the
interior minima of S~, so only those are refined, and an XThermalState
is built only for such a refine.

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

Curves are traced by marching one coordinate; a curve that does not
cover its span says why (``BoundaryCurve.stop_reason``).  A triple point
is bracketed where the first pair of curves, in the given order, whose
solutions cross does so, at every march value of either curve that both
span, and then bisected in B.  Every march station and every triple
re-solve is one seeded search (``_solve_near``).  It first tries a
bracket of +-1e-3 around a predicted root (the linear extrapolation of a
curve's last two roots, or the last solution), refined with no scan
where its two ends have finite residuals of opposite sign.  Otherwise it
scans brackets of 1, 2 and 4 times its width around the seed and, where
a bracket holds several roots, keeps the one nearest the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .measurement import (
    DegenerateState,
    PopulationUnderflow,
    _branch_s0,
    _branch_s_halfpi,
    _second_derivative_at_0,
    _second_derivative_at_halfpi,
    branch_s0s,
    branch_s_halfpis,
    second_derivatives_at_0,
    second_derivatives_at_halfpi,
)
from .model import (
    T_FLOOR,
    ModelParams,
    ThermalStates,
    _bloch_length,
    _check_coordinate,
    _check_state,
    _gibbs_entries,
    thermal_states,
)
from .numfmt import fmt9
from .optimizer import _illinois, _sampled_minima, _sign, optimize_deficit

# thermal_state, scan_profile and the curvatures of an XThermalState stay
# names of this module, though no solve here calls them:
# perfbench/tracing.py wraps them here
from .measurement import second_derivative_at_0, second_derivative_at_halfpi  # noqa: F401
from .model import thermal_state  # noqa: F401
from .optimizer import scan_profile  # noqa: F401

__all__ = [
    "AmbiguousBracket",
    "BoundaryCurve",
    "BoundaryKind",
    "NoRoot",
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
# at _N_SCAN angles unless the caller asks for more.
_SCAN_POINTS = 65
_XTOL = 1e-7
# A closed form's array value within _SIGN_GUARD of zero is checked
# against the scalar closed form.  The two paths differ by a few ulps of
# the residual's terms (the kernel tests bound it); for ``zero`` and
# ``equal`` those terms stay below about 1,400 while populations stay
# above 1e-300.
_SIGN_GUARD = 1e-9
_N_SCAN = 401
# Half-widths of the first seeded bracket: a march station around the
# previous root, and a triple-point re-solve around the last solution.
_TRACE_WIDTH = 0.08
_TRIPLE_WIDTH = 0.05
# Half-width of the bracket tried first around a predicted root.  It is
# narrower than one cell of the +-_TRACE_WIDTH scan (0.0025), so it holds
# two roots only where that scan could not resolve them either.
_PREDICT_WIDTH = 1e-3
# The triple-point bisection stops at this width in B; every curve must
# pass within _TRIPLE_VERIFY_TOL in T of the point.
_TRIPLE_XTOL = 1e-6
_TRIPLE_VERIFY_TOL = 1e-4
# Offset in the solved coordinate at which the two sides of a traced
# root are classified.
_PHASE_DELTA = 1e-3


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
    a, b, d, v = entries = _gibbs_entries(J, Jz, B, T)
    _check_state(a, b, d, v)
    try:
        if kind is BoundaryKind.ZERO:
            return _second_derivative_at_0(a, b, d, v)
        if kind is BoundaryKind.HALF_PI:
            return _second_derivative_at_halfpi(a, b, d, v, _bloch_length(a, d, v))
    except (PopulationUnderflow, DegenerateState) as err:
        raise UnresolvedResidual(f"{kind.value} at T={T!r}, B={B!r}: {err}") from err
    if kind is BoundaryKind.EQUAL_ENDPOINTS:
        return _branch_s0(a, b, d) - _branch_s_halfpi(_bloch_length(a, d, v))
    return _crossing_gaps([entries], n_scan)[0]


def _crossing_gaps(
    cells: list[tuple[float, float, float, float]], n_scan: int
) -> list[float]:
    """The ``zeroprime`` residual of each state of ``cells``, given by its
    checked Gibbs entries (a, b, d, v), from its S~ scanned at ``n_scan``
    angles; S~ is sampled for several states per array pass."""
    a, b, d, v = (np.array(x) for x in zip(*cells))
    rs = [_bloch_length(ca, cd, cv) for ca, _, cd, cv in cells]
    minima = _sampled_minima(ThermalStates(a, b, d, v, np.array(rs)), n_scan)
    return [
        _crossing_gap(_branch_s0(ca, cb, cd), _branch_s_halfpi(r), found)
        for (ca, cb, cd, _), r, found in zip(cells, rs, minima)
    ]


def _crossing_gap(s0: float, s_half: float, minima) -> float:
    """The ``zeroprime`` residual of a state from its endpoint entropies
    S~(0) and S~(pi/2) and its interior (theta, S~) minima."""
    if not minima:
        return -math.inf if s0 <= s_half else math.inf
    return s0 - min(e for _, e in minima)


def _at(p: ModelParams, coord: str, x: float) -> ModelParams:
    """``p`` with its ``coord`` ("T" or "B") set to x."""
    if coord == "T":
        return ModelParams(p.J, p.Jz, p.B, x)
    return ModelParams(p.J, p.Jz, x, p.T)


def _line_residual(
    kind: BoundaryKind, p_template: ModelParams, scan_coord: str, n_scan: int
):
    """The residual along one scan line, as a function of ``scan_coord``:
    one scalar ``_residual_at`` per point, whose coordinate passes
    ModelParams' checks."""
    J, Jz, B, T = p_template.J, p_template.Jz, p_template.B, p_template.T
    if scan_coord == "T":
        def f(x: float) -> float:
            return _residual_at(kind, J, Jz, B, _check_coordinate("T", x), n_scan)
    else:
        def f(x: float) -> float:
            return _residual_at(kind, J, Jz, _check_coordinate("B", x), T, n_scan)

    return f


def _line_values(
    kind: BoundaryKind, p: ModelParams, scan_coord: str, xs: list[float], n_scan: int
) -> np.ndarray:
    """The residual at the points ``xs`` of one scan line, in one pass.

    The closed forms go through their array kernels, which take the
    coordinates as arrays, xs for ``scan_coord`` and ``p``'s value for
    the other; their values carry numpy's rounding rather than math's.
    ``zeroprime`` takes the scalar Gibbs entries of every point and
    samples S~ for several points per pass (``_crossing_gaps``), so its
    values equal ``boundary_residual``'s bit for bit; each of its points
    passes ModelParams' checks first, in the order of ``xs``.  The same
    errors as ``boundary_residual``'s are raised.  The closed forms take
    the points of ``xs`` as valid coordinates, T at or above T_FLOOR.
    """
    if kind is BoundaryKind.ZERO_PRIME:
        points = [_point(p, scan_coord, _check_coordinate(scan_coord, x, 1)) for x in xs]
        cells = [_gibbs_entries(p.J, p.Jz, b, t) for t, b in points]
        for cell in cells:
            _check_state(*cell)
        return np.array(_crossing_gaps(cells, n_scan))
    line = np.array(xs)
    b, t = (p.B, line) if scan_coord == "T" else (line, p.T)
    st = thermal_states(p.J, p.Jz, b, t)
    try:
        if kind is BoundaryKind.ZERO:
            return second_derivatives_at_0(st)
        if kind is BoundaryKind.HALF_PI:
            return second_derivatives_at_halfpi(st)
    except (PopulationUnderflow, DegenerateState) as err:
        first, last = _at(p, scan_coord, xs[0]), _at(p, scan_coord, xs[-1])
        raise UnresolvedResidual(
            f"{kind.value} from T={first.T!r}, B={first.B!r}"
            f" to T={last.T!r}, B={last.B!r}: {err}"
        ) from err
    return branch_s0s(st) - branch_s_halfpis(st)


def _scan_line(
    kind: BoundaryKind,
    p_template: ModelParams,
    scan_coord: str,
    xs: list[float],
    n_scan: int,
) -> np.ndarray:
    """The residual at the points ``xs`` of one line, for ``_scan_cells``.

    The values come from one array pass.  For the closed forms, every
    value within _SIGN_GUARD of zero and both ends of every change of
    sign are evaluated again with the scalar ``boundary_residual`` and
    take its value; should any of them differ in sign, the whole line is
    scanned again point by point.  The cells handed to the refine, their
    end values and the exact zeros are thus the scalar closed forms'.
    """
    values = _line_values(kind, p_template, scan_coord, xs, n_scan)
    if kind is not BoundaryKind.ZERO_PRIME:
        doubtful = np.abs(values) <= _SIGN_GUARD
        change = np.sign(values[:-1]) != np.sign(values[1:])
        doubtful[:-1] |= change
        doubtful[1:] |= change
        f = _line_residual(kind, p_template, scan_coord, n_scan)
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


def _refine_cell(f, lo: float, hi: float, flo: float, fhi: float, ftol: float):
    """Refine one certified cell and verify the result is a genuine zero.

    Returns the root and the residual there.  A sign flip across a jump
    of the residual is not a zero: the extended interior-crossing
    residual jumps where the minimum merges into an endpoint.  The
    residual must actually become small somewhere in a narrow window
    around the returned root (the window matters where a newborn minimum
    is too shallow for the scan right at the root).
    """
    root, residual = _illinois(f, lo, hi, ftol, flo, fhi, xtol=_XTOL)
    limit = max(1e-6, 1e3 * ftol)

    def small(value: float) -> bool:
        return math.isfinite(value) and abs(value) <= limit

    if small(residual) or any(
        small(f(root + offset)) for offset in (-_XTOL, _XTOL, -1e-5, 1e-5, -1e-4, 1e-4)
    ):
        return root, residual
    raise NoRoot("residual jump, no zero crossing")


def _check_bracket(bracket: tuple[float, float]) -> None:
    if not all(math.isfinite(x) for x in bracket):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")


def _solve_line(
    kind: BoundaryKind,
    p_template: ModelParams,
    scan_coord: str,
    lo: float,
    hi: float,
    n_scan: int = _N_SCAN,
    seed: float | None = None,
) -> tuple[float, float]:
    """Root of ``scan_coord`` in [lo, hi] on one line, and the residual there.

    The bracket is scanned at 65 points (``_scan_line``) and its one
    sign-change cell refined (``_refine_cell``) from the scalar end values
    the scan holds.  Where the scan finds several cells it raises
    AmbiguousBracket, or with a ``seed`` refines the cell nearest it.
    """
    if scan_coord == "T":
        lo = max(lo, 2.0 * T_FLOOR)
    xs = np.linspace(lo, hi, _SCAN_POINTS).tolist()
    values = _scan_line(kind, p_template, scan_coord, xs, n_scan)
    cells, exact = _scan_cells(xs, values)
    if len(cells) > 1:
        if seed is None:
            raise AmbiguousBracket(cells)
        cells = [min(cells, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed))]
    if cells:
        ((a, b),) = cells
        ends = dict(zip(xs, values.tolist()))
        f = _line_residual(kind, p_template, scan_coord, n_scan)
        return _refine_cell(f, a, b, ends[a], ends[b], _RESIDUAL_TOL[kind])
    if exact is not None:
        return exact, 0.0
    raise NoRoot(f"{kind.value}: no sign change in [{lo}, {hi}]")


def _point(p_template: ModelParams, scan_coord: str, x: float) -> tuple[float, float]:
    """The (T, B) pair of the point ``x`` on the line of ``scan_coord``."""
    return (x, p_template.B) if scan_coord == "T" else (p_template.T, x)


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
    resolution, ValueError if an end of the bracket is not finite.
    Returns the root as a (T, B) pair: the one sign-change cell is
    refined on the scalar ``boundary_residual`` by a bracketed Illinois
    solve until it is at most 1e-7 wide, so the root carries a scalar
    sign change within 1e-7.
    """
    if fixed not in ("T", "B"):
        raise ValueError(f"fixed must be 'T' or 'B', got {fixed!r}")
    _check_bracket(bracket)
    scan_coord = "B" if fixed == "T" else "T"
    root, _ = _solve_line(
        kind, p_template, scan_coord, min(bracket), max(bracket), n_scan
    )
    # the root lies in the bracket, above the floor: it needs no clamping
    return _point(p_template, scan_coord, root)


def _solve_near(
    kind: BoundaryKind,
    p_template: ModelParams,
    scan_coord: str,
    seed: float,
    width: float,
    guess: float | None = None,
) -> tuple[float, float] | None:
    """Root of ``scan_coord`` nearest ``seed`` and its residual, or None.

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
        if scan_coord != "T" or lo >= 2.0 * T_FLOOR:
            f = _line_residual(kind, p_template, scan_coord, _N_SCAN)
            try:
                flo, fhi = f(lo), f(hi)
                if math.isfinite(flo) and math.isfinite(fhi) and _sign(flo) * _sign(fhi) < 0:
                    return _refine_cell(f, lo, hi, flo, fhi, _RESIDUAL_TOL[kind])
            except NoRoot:
                pass
    for w in (width, 2.0 * width, 4.0 * width):
        try:
            return _solve_line(kind, p_template, scan_coord, seed - w, seed + w, seed=seed)
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
    its start to its end."""

    kind: BoundaryKind
    J: float
    Jz: float
    march: str
    points: list[tuple[float, float]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    physical: list[bool] = field(default_factory=list)
    stop_reason: str = "span covered"

    @property
    def complete(self) -> bool:
        return self.stop_reason == "span covered"

    def solved_values(self) -> list[float]:
        idx = 0 if self.march == "B" else 1
        return [pt[idx] for pt in self.points]

    def marched_values(self) -> list[float]:
        idx = 1 if self.march == "B" else 0
        return [pt[idx] for pt in self.points]


def _phase_changes(p_root: ModelParams, solve_coord: str) -> bool:
    """True when the winning branch differs on the two sides of a root."""
    lo_val = getattr(p_root, solve_coord) - _PHASE_DELTA
    if solve_coord == "T":
        lo_val = max(lo_val, 2.0 * T_FLOOR)
    hi_val = getattr(p_root, solve_coord) + _PHASE_DELTA
    below = optimize_deficit(_at(p_root, solve_coord, lo_val), _N_SCAN).branch
    above = optimize_deficit(_at(p_root, solve_coord, hi_val), _N_SCAN).branch
    return below is not above


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

    The first root comes from ``first_bracket``.  From the third station
    on, the root is predicted by linear extrapolation of the two roots
    before it and first sought in a bracket of +-1e-3 around the
    prediction, with no scan: both ends must have finite residuals of
    opposite sign, and the prediction must lie within 0.08 of the
    previous root.  Otherwise, and at the second station, the station
    solves near the previous root, in brackets of +-0.08, 0.16 and 0.32
    around it.  Where such a bracket holds several roots, the one nearest
    the previous root is kept, so the march stays on its sheet.  On a
    failed station the march step is halved (curves bend sharply near
    triple points), down to step/64; when the root persists in not being
    found the curve is terminated and returned partial, its
    ``stop_reason`` saying why.  Every root is
    refined until a scalar sign change brackets it within 1e-7.  With
    ``classify`` each point records whether the winning branch differs at
    +-1e-3 in the solved coordinate.
    """
    if march not in ("T", "B"):
        raise ValueError(f"march must be 'T' or 'B', got {march!r}")
    _check_bracket(first_bracket)
    solve_coord = "B" if march == "T" else "T"
    direction = 1.0 if stop >= start else -1.0
    nominal = abs(step)
    if nominal <= 0.0:
        raise ValueError("step must be nonzero")
    min_step = nominal / 64.0

    curve = BoundaryCurve(kind=kind, J=p_template.J, Jz=p_template.Jz, march=march)

    def emit(p: ModelParams, root: tuple[float, float]) -> float:
        """Record the root (solved coordinate, residual) on the line of
        ``p``; returns its solved coordinate, the next seed."""
        tb = _point(p, solve_coord, root[0])
        curve.points.append(tb)
        curve.residuals.append(root[1])
        curve.physical.append(
            _phase_changes(_at(p, solve_coord, root[0]), solve_coord) if classify else True
        )
        return root[0]

    def marched(x: float) -> ModelParams:
        return _at(p_template, march, x)

    # locate the first root, walking forward if the curve starts mid-range
    x = start
    seed: float | None = None
    while (stop - x) * direction >= -1e-12:
        p = marched(x)
        try:
            root = _solve_line(kind, p, solve_coord, min(first_bracket), max(first_bracket))
        except (NoRoot, AmbiguousBracket):
            x += nominal * direction
            continue
        seed = emit(p, root)
        break
    if seed is None:
        curve.stop_reason = "first root not found"
        return curve
    if x != start:  # the curve misses the start of the span
        curve.stop_reason = "first root past span start"

    before: tuple[float, float] | None = None  # (marched, solved) of the root before
    cur_step = nominal
    while (stop - x) * direction > 1e-12:
        target = x + cur_step * direction
        if (target - stop) * direction > 0.0:
            target = stop
        p = marched(target)
        guess = None
        if before is not None:
            guess = seed + (seed - before[1]) * (target - x) / (x - before[0])
        root = _solve_near(kind, p, solve_coord, seed, _TRACE_WIDTH, guess)
        if root is None:
            if cur_step > min_step:
                cur_step = max(cur_step / 2.0, min_step)
                continue
            curve.stop_reason = "no root at min step"
            break
        before = (x, seed)
        seed = emit(p, root)
        x = target
        cur_step = min(2.0 * cur_step, nominal)

    return curve


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
    as (lo, hi, T1(lo), T2(lo)), or None."""
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
    i = flips[0]
    return float(bs[i]), float(bs[i + 1]), float(t1[i]), float(t2[i])


def find_triple_point(curves: list[BoundaryCurve]) -> TriplePoint | None:
    """Mutual intersection of boundary curves marched along B.

    The crossing is taken from the first pair of curves, in the given
    order (first with second, first with third, ..., second with third,
    ...), whose solved T difference changes sign; a curve that ends at
    the point (the interior-crossing family does) crosses no other.  It
    is bracketed at every march value of either curve that both curves
    span, each curve's solved T linearly interpolated there, so the two
    curves need not share a march grid.  A bisection on the difference
    of their solved T then runs down to 1e-6 in B.  At each bisection
    point both curves are re-solved by one seeded search around their
    last solution: first a bracket of +-1e-3 in T with no scan, then the
    scanned brackets +-0.05, 0.1 and 0.2; either way a scalar sign change
    brackets each solution within 1e-7.  Every provided curve must then
    pass within 1e-4 in T of the point; curves that terminate at the
    point are extrapolated from just beside it.  Returns None where the
    curves do not meet.
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
        return None
    lo_b, hi_b, t1, t2 = crossing

    def diff(b: float, seed1: float, seed2: float) -> tuple[float, float] | None:
        """Both curves' solved T at B = b, each sought near its seed."""
        p = ModelParams(base.J, base.Jz, B=b, T=seed1)
        r1 = _solve_near(c1.kind, p, "T", seed1, _TRIPLE_WIDTH, guess=seed1)
        r2 = _solve_near(c2.kind, p, "T", seed2, _TRIPLE_WIDTH, guess=seed2)
        return None if r1 is None or r2 is None else (r1[0], r2[0])

    roots = diff(lo_b, t1, t2)
    if roots is None:
        return None
    d_lo = roots[0] - roots[1]
    for _ in range(80):
        mid = 0.5 * (lo_b + hi_b)
        if mid == lo_b or mid == hi_b:
            break
        roots = diff(mid, *roots)
        if roots is None:
            return None
        d_mid = roots[0] - roots[1]
        if _sign(d_mid) == _sign(d_lo):
            lo_b, d_lo = mid, d_mid
        else:
            hi_b = mid
        if hi_b - lo_b <= _TRIPLE_XTOL:
            break
    p_star = ModelParams(
        base.J, base.Jz, B=0.5 * (lo_b + hi_b), T=0.5 * (roots[0] + roots[1])
    )

    meeting = set()
    for curve in curves:
        dist = _curve_distance(curve.kind, p_star)
        if dist is None or dist > _TRIPLE_VERIFY_TOL:
            return None
        meeting.add(curve.kind)
    return TriplePoint(T=p_star.T, B=p_star.B, meeting_kinds=frozenset(meeting))


def _curve_distance(kind: BoundaryKind, p_star: ModelParams) -> float | None:
    """Distance from the (T, B) point of ``p_star`` to a boundary's
    solution sheet.

    Solves at its B directly; if the curve terminates there, probes small
    B offsets on both sides and extrapolates linearly back.
    """
    t_star = p_star.T
    here = _solve_near(kind, p_star, "T", t_star, _TRIPLE_WIDTH)
    if here is not None:
        return abs(here[0] - t_star)
    for sign in (+1.0, -1.0):
        probes = []
        for off in (2e-4, 1e-3):
            p_off = _at(p_star, "B", p_star.B + sign * off)
            found = _solve_near(kind, p_off, "T", t_star, _TRIPLE_WIDTH)
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

    The two sides nearly cancel on that line, so the arithmetic runs in
    extended precision to keep the residual meaningful at the 1e-10
    scale.
    """
    if abs(p.Jz) > 1e-12:
        raise ValueError("the closed-form condition requires Jz = 0")
    one = np.longdouble(1.0)
    t = np.longdouble(p.T)
    j = np.abs(np.longdouble(p.J))
    u = np.longdouble(p.B) / t
    x = np.exp(u)
    y = np.cosh(j / t)
    z = np.exp(-u)
    s = np.sinh(j / t)

    def log_slope(num, den):
        if abs(num - den) < np.longdouble(1e-18) * max(abs(num), one):
            return one / den
        return np.log(num / den) / (num - den)

    lhs = s * s * (log_slope(x, y) + log_slope(y, z))
    rhs = 2.0 * u * np.sinh(u) - 4.0 * (np.cosh(u) - y) * np.log(y)
    return float(lhs - rhs)


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
