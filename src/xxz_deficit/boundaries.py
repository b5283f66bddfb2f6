"""Boundary curves between deficit regions on the (T, B) plane.

Four families of conditions:

* ``zero``       curvature of S~ at theta = 0 vanishes,
* ``halfpi``     curvature of S~ at theta = pi/2 vanishes,
* ``equal``      the two endpoint entropies coincide,
* ``zeroprime``  the deepest interior minimum crosses the zero branch.

All are scalar root problems along a scan line, solved by bracketed
bisection: the bracket is first scanned at 65 points for sign changes,
then exactly one cell is bisected to 1e-7.  Curves are traced by
marching one coordinate and seeding each bracket from the previous root;
triple points come from bisecting the difference of two curves'
solutions.  Both seeded searches share one solve (``_solve_near``): it
widens the bracket around the seed twice by 2x and, where a bracket
holds several roots, keeps the one nearest the seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .measurement import (
    PopulationUnderflow,
    branch_s0,
    branch_s_halfpi,
    second_derivative_at_0,
    second_derivative_at_halfpi,
)
from .model import ModelParams, temperature_floor, thermal_state
from .numfmt import fmt9
from .optimizer import optimize_deficit, scan_profile

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
    """The residual cannot be resolved in floats at some point of the
    bracket (its populations underflowed), so no root is certified."""


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

# Every solve scans its bracket at _SCAN_POINTS residuals and bisects the
# one sign-change cell down to _XTOL; a ``zeroprime`` residual samples S~
# at _N_SCAN angles unless the caller asks for more.
_SCAN_POINTS = 65
_XTOL = 1e-7
_N_SCAN = 401
# Half-widths of the first seeded bracket: a march station around the
# previous root, and a triple-point re-solve around the last solution.
_TRACE_WIDTH = 0.08
_TRIPLE_WIDTH = 0.05
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
    minimum.  Where no interior minimum exists the sign is continued from
    the endpoint comparison: -inf on the side where the zero branch wins,
    +inf on the side where the interior minimum has merged into the pi/2
    endpoint (its limiting value lies below the zero branch there).
    Where underflow leaves the residual without a value it raises
    UnresolvedResidual, a NoRoot, so a solve there fails like one
    without a sign change.
    """
    s = thermal_state(p)
    if kind is BoundaryKind.ZERO:
        try:
            return second_derivative_at_0(s)
        except PopulationUnderflow as err:
            raise UnresolvedResidual(f"zero at T={p.T!r}, B={p.B!r}: {err}") from err
    if kind is BoundaryKind.HALF_PI:
        return second_derivative_at_halfpi(s)
    if kind is BoundaryKind.EQUAL_ENDPOINTS:
        return branch_s0(s) - branch_s_halfpi(s)
    profile = scan_profile(s, n_scan)
    if not profile.interior_minima:
        return -math.inf if branch_s0(s) <= branch_s_halfpi(s) else math.inf
    return branch_s0(s) - min(e for _, e in profile.interior_minima)


def _with_coord(p: ModelParams, coord: str, x: float) -> ModelParams:
    return dataclasses.replace(p, **{coord: x})


def _line_residual(
    kind: BoundaryKind, p_template: ModelParams, scan_coord: str, n_scan: int
):
    """The residual along one scan line, as a function of ``scan_coord``."""

    def f(x: float) -> float:
        return boundary_residual(kind, _with_coord(p_template, scan_coord, x), n_scan)

    return f


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _scan_cells(f, lo: float, hi: float, points: int):
    """Sign-change cells of f on [lo, hi]; exact zeros become roots.

    A cell whose both endpoints are infinite has no certified crossing in
    between (it marks a direct branch swap) and is skipped.
    """
    xs = [float(x) for x in np.linspace(lo, hi, points)]
    cells = []
    exact = None
    prev_x = xs[0]
    prev_f = f(prev_x)
    if prev_f == 0.0:
        exact = prev_x
    for x in xs[1:]:
        fx = f(x)
        if fx == 0.0 and exact is None:
            exact = x
        elif _sign(fx) * _sign(prev_f) < 0 and (
            math.isfinite(fx) or math.isfinite(prev_f)
        ):
            cells.append((prev_x, x))
        prev_x, prev_f = x, fx
    return cells, exact


def _bisect(f, lo: float, hi: float, ftol: float, max_iter: int = 200):
    """Plain bisection on a certified sign change, refined until both the
    interval and the residual targets are met (or floats run out)."""
    flo = f(lo)
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if _sign(fm) == _sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= _XTOL and abs(fm) <= ftol:
            break
    return 0.5 * (lo + hi)


def _refine_cell(f, cell, ftol: float) -> float:
    """Bisect one certified cell and verify the result is a genuine zero.

    A sign flip across a jump of the residual is not a zero: the extended
    interior-crossing residual jumps where the minimum merges into an
    endpoint.  The residual must actually become small somewhere in a
    narrow window around the returned root (the window matters where a
    newborn minimum is too shallow for the scan right at the root).
    """
    root = _bisect(f, cell[0], cell[1], ftol)
    limit = max(1e-6, 1e3 * ftol)
    for offset in (0.0, -_XTOL, _XTOL, -1e-5, 1e-5, -1e-4, 1e-4):
        value = f(root + offset)
        if math.isfinite(value) and abs(value) <= limit:
            return root
    raise NoRoot("residual jump, no zero crossing")


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
    value; the other coordinate runs over ``bracket``, scanned at 65
    points.  Raises NoRoot if the residual never changes sign,
    AmbiguousBracket if it does so more than once at scan resolution.
    Returns the root as a (T, B) pair with the scanned interval narrowed
    to 1e-7.
    """
    if fixed not in ("T", "B"):
        raise ValueError(f"fixed must be 'T' or 'B', got {fixed!r}")
    scan_coord = "B" if fixed == "T" else "T"
    lo, hi = min(bracket), max(bracket)
    if scan_coord == "T":
        lo = max(lo, 2.0 * temperature_floor())

    f = _line_residual(kind, p_template, scan_coord, n_scan)
    cells, exact = _scan_cells(f, lo, hi, _SCAN_POINTS)
    if exact is not None and not cells:
        root = exact
    else:
        if not cells:
            raise NoRoot(f"{kind.value}: no sign change in [{lo}, {hi}]")
        if len(cells) > 1:
            raise AmbiguousBracket(cells)
        root = _refine_cell(f, cells[0], _RESIDUAL_TOL[kind])
    p = _with_coord(p_template, scan_coord, root)
    return (p.T, p.B)


def _solve_near(
    kind: BoundaryKind,
    p_template: ModelParams,
    fixed: str,
    seed: float,
    width: float,
) -> tuple[float, float] | None:
    """Root nearest ``seed`` along one scan line, as a (T, B) pair, or None.

    Tries the brackets seed +- width, 2 width and 4 width and returns the
    first root found.  Where a bracket holds several sign changes, the
    cell nearest the seed is refined: the seed lies on the sheet wanted,
    and the other roots belong to another sheet of the same family.
    """
    scan_coord = "B" if fixed == "T" else "T"
    for w in (width, 2.0 * width, 4.0 * width):
        try:
            return solve_boundary_on_line(kind, p_template, fixed, (seed - w, seed + w))
        except NoRoot:
            continue
        except AmbiguousBracket as err:
            cell = min(err.cells, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed))
            f = _line_residual(kind, p_template, scan_coord, _N_SCAN)
            try:
                root = _refine_cell(f, cell, _RESIDUAL_TOL[kind])
            except NoRoot:
                continue
            p = _with_coord(p_template, scan_coord, root)
            return (p.T, p.B)
    return None


@dataclass
class BoundaryCurve:
    """One traced boundary: ordered (T, B) points plus per-point
    diagnostics.  ``physical`` records whether the phase label actually
    changes across each point; ``complete`` whether the points cover the
    whole requested span, from its start to its end."""

    kind: BoundaryKind
    J: float
    Jz: float
    march: str
    points: list[tuple[float, float]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    physical: list[bool] = field(default_factory=list)
    requested_span: tuple[float, float] = (0.0, 0.0)
    complete: bool = True

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
        lo_val = max(lo_val, 2.0 * temperature_floor())
    hi_val = getattr(p_root, solve_coord) + _PHASE_DELTA
    below = optimize_deficit(_with_coord(p_root, solve_coord, lo_val), _N_SCAN).branch
    above = optimize_deficit(_with_coord(p_root, solve_coord, hi_val), _N_SCAN).branch
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

    The first root comes from ``first_bracket``; afterwards each station
    solves near the previous root, in brackets of +-0.08, 0.16 and 0.32
    around it.  Where a bracket holds several roots, the one nearest the
    previous root is kept, so the march stays on its sheet.  On a failed
    station the march step is halved (curves bend sharply near triple
    points), down to step/64; when the root persists in not being found
    the curve is terminated and returned partial.  Every root is bisected
    to 1e-7.  With ``classify`` each point records whether the winning
    branch differs at +-1e-3 in the solved coordinate.
    """
    if march not in ("T", "B"):
        raise ValueError(f"march must be 'T' or 'B', got {march!r}")
    solve_coord = "B" if march == "T" else "T"
    direction = 1.0 if stop >= start else -1.0
    nominal = abs(step)
    if nominal <= 0.0:
        raise ValueError("step must be nonzero")
    min_step = nominal / 64.0

    curve = BoundaryCurve(
        kind=kind,
        J=p_template.J,
        Jz=p_template.Jz,
        march=march,
        requested_span=(start, stop),
    )

    def emit(tb: tuple[float, float]) -> float:
        """Record one root; returns its solved coordinate, the next seed."""
        p_root = ModelParams(p_template.J, p_template.Jz, B=tb[1], T=tb[0])
        curve.points.append(tb)
        curve.residuals.append(boundary_residual(kind, p_root))
        curve.physical.append(_phase_changes(p_root, solve_coord) if classify else True)
        return tb[0] if solve_coord == "T" else tb[1]

    # locate the first root, walking forward if the curve starts mid-range
    x = start
    seed: float | None = None
    while (stop - x) * direction >= -1e-12:
        try:
            tb = solve_boundary_on_line(
                kind, _with_coord(p_template, march, x), march, first_bracket
            )
        except (NoRoot, AmbiguousBracket):
            x += nominal * direction
            continue
        seed = emit(tb)
        break
    if seed is None:
        curve.complete = False
        return curve
    if x != start:  # the curve misses the start of the span
        curve.complete = False

    cur_step = nominal
    while (stop - x) * direction > 1e-12:
        target = x + cur_step * direction
        if (target - stop) * direction > 0.0:
            target = stop
        root = _solve_near(
            kind, _with_coord(p_template, march, target), march, seed, _TRACE_WIDTH
        )
        if root is None:
            if cur_step > min_step:
                cur_step = max(cur_step / 2.0, min_step)
                continue
            curve.complete = False
            break
        seed = emit(root)
        x = target
        cur_step = min(2.0 * cur_step, nominal)

    return curve


@dataclass(frozen=True)
class TriplePoint:
    """Meeting point of boundary curves on the (T, B) plane."""

    T: float
    B: float
    meeting_kinds: frozenset[BoundaryKind]


def _interp_solution(curve: BoundaryCurve, marched: float) -> float | None:
    """Linear interpolation of the curve's solved coordinate."""
    xs = curve.marched_values()
    ys = curve.solved_values()
    if len(xs) < 2:
        return None
    order = np.argsort(xs)
    xs_a = np.asarray(xs)[order]
    ys_a = np.asarray(ys)[order]
    if not (xs_a[0] - 1e-9 <= marched <= xs_a[-1] + 1e-9):
        return None
    return float(np.interp(marched, xs_a, ys_a))


def find_triple_point(curves: list[BoundaryCurve]) -> TriplePoint | None:
    """Mutual intersection of boundary curves marched along B.

    The first two curves define the crossing: their solved T as a
    function of B is re-solved near the last solution (brackets of
    +-0.05, 0.1 and 0.2 in T) during a bisection on the difference, down
    to 1e-6 in B.  Every provided curve must then pass within 1e-4 in T
    of the point; curves that terminate at the point (the
    interior-crossing family does) are extrapolated from just beside it.
    """
    if len(curves) < 2:
        raise ValueError("need at least two curves")
    if any(c.march != "B" for c in curves):
        raise ValueError("triple-point search expects curves marched along B")
    base = curves[0]
    if any((c.J, c.Jz) != (base.J, base.Jz) for c in curves[1:]):
        raise ValueError("curves belong to different coupling sets")

    c1, c2 = curves[0], curves[1]
    bs = sorted(set(c1.marched_values()) & set(c2.marched_values()))
    if len(bs) < 2:
        lo = max(min(c1.marched_values()), min(c2.marched_values()))
        hi = min(max(c1.marched_values()), max(c2.marched_values()))
        if hi <= lo:
            return None
        bs = list(np.linspace(lo, hi, 25))

    def diff(b: float, seed1: float, seed2: float):
        p = ModelParams(base.J, base.Jz, B=b, T=seed1)
        r1 = _solve_near(c1.kind, p, "B", seed1, _TRIPLE_WIDTH)
        r2 = _solve_near(c2.kind, p, "B", seed2, _TRIPLE_WIDTH)
        if r1 is None or r2 is None:
            return None, seed1, seed2
        return r1[0] - r2[0], r1[0], r2[0]

    # bracket the crossing on the common march grid
    bracket = None
    prev = None
    for b in bs:
        t1 = _interp_solution(c1, b)
        t2 = _interp_solution(c2, b)
        if t1 is None or t2 is None:
            continue
        d = t1 - t2
        if prev is not None and _sign(d) * _sign(prev[1]) < 0:
            bracket = (prev[0], b, prev[2], prev[3])
            break
        prev = (b, d, t1, t2)
    if bracket is None:
        return None

    lo_b, hi_b, seed1, seed2 = bracket
    d_lo, seed1, seed2 = diff(lo_b, seed1, seed2)
    if d_lo is None:
        return None
    t1_mid, t2_mid = seed1, seed2
    for _ in range(80):
        mid = 0.5 * (lo_b + hi_b)
        if mid == lo_b or mid == hi_b:
            break
        d_mid, t1_mid, t2_mid = diff(mid, seed1, seed2)
        if d_mid is None:
            return None
        if _sign(d_mid) == _sign(d_lo):
            lo_b, d_lo = mid, d_mid
        else:
            hi_b = mid
        seed1, seed2 = t1_mid, t2_mid
        if hi_b - lo_b <= _TRIPLE_XTOL:
            break
    b_star = 0.5 * (lo_b + hi_b)
    t_star = 0.5 * (t1_mid + t2_mid)

    meeting = set()
    p_star = ModelParams(base.J, base.Jz, B=b_star, T=t_star)
    for curve in curves:
        dist = _curve_distance(curve.kind, p_star, t_star, b_star)
        if dist is None or dist > _TRIPLE_VERIFY_TOL:
            return None
        meeting.add(curve.kind)
    return TriplePoint(T=t_star, B=b_star, meeting_kinds=frozenset(meeting))


def _curve_distance(
    kind: BoundaryKind,
    p_star: ModelParams,
    t_star: float,
    b_star: float,
) -> float | None:
    """Distance from (t_star, b_star) to a boundary's solution sheet.

    Solves at B = b_star directly; if the curve terminates there, probes
    small B offsets on both sides and extrapolates linearly back.
    """
    here = _solve_near(kind, p_star, "B", t_star, _TRIPLE_WIDTH)
    if here is not None:
        return abs(here[0] - t_star)
    for sign in (+1.0, -1.0):
        probes = []
        for off in (2e-4, 1e-3):
            p_off = _with_coord(p_star, "B", b_star + sign * off)
            found = _solve_near(kind, p_off, "B", t_star, _TRIPLE_WIDTH)
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
