"""Boundary curves between deficit regions on the (T, B) plane.

Four families of conditions:

* ``zero``       curvature of S~ at theta = 0 vanishes,
* ``halfpi``     curvature of S~ at theta = pi/2 vanishes,
* ``equal``      the two endpoint entropies coincide,
* ``zeroprime``  the deepest interior minimum crosses the zero branch.

All are scalar root problems along a scan line, solved by bracketed
bisection: the bracket is first scanned for sign changes, then exactly
one cell is refined.  Curves are traced by marching one coordinate and
seeding each bracket from the previous root; triple points come from
bisecting the difference of two curves' solutions.
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


def boundary_residual(kind: BoundaryKind, p: ModelParams, n_scan: int = 401) -> float:
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


def _bisect(f, lo: float, hi: float, xtol: float, ftol: float, max_iter: int = 200):
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
        if hi - lo <= xtol and abs(fm) <= ftol:
            break
    return 0.5 * (lo + hi)


def _refine_cell(f, cell, xtol: float, ftol: float) -> float:
    """Bisect one certified cell and verify the result is a genuine zero.

    A sign flip across a jump of the residual is not a zero: the extended
    interior-crossing residual jumps where the minimum merges into an
    endpoint.  The residual must actually become small somewhere in a
    narrow window around the returned root (the window matters where a
    newborn minimum is too shallow for the scan right at the root).
    """
    root = _bisect(f, cell[0], cell[1], xtol, ftol)
    limit = max(1e-6, 1e3 * ftol)
    for offset in (0.0, -xtol, xtol, -1e-5, 1e-5, -1e-4, 1e-4):
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
    xtol: float = 1e-7,
    scan_points: int = 65,
    n_scan: int = 401,
) -> tuple[float, float]:
    """Root of a boundary condition along one scan line.

    ``fixed`` names the coordinate ("T" or "B") held at its template
    value; the other coordinate runs over ``bracket``.  Raises NoRoot if
    the residual never changes sign, AmbiguousBracket if it does so more
    than once at scan resolution.  Returns the root as a (T, B) pair with
    the scanned interval narrowed to ``xtol``.
    """
    if fixed not in ("T", "B"):
        raise ValueError(f"fixed must be 'T' or 'B', got {fixed!r}")
    scan_coord = "B" if fixed == "T" else "T"
    lo, hi = min(bracket), max(bracket)
    if scan_coord == "T":
        lo = max(lo, 2.0 * temperature_floor())

    def f(x: float) -> float:
        return boundary_residual(kind, _with_coord(p_template, scan_coord, x), n_scan)

    cells, exact = _scan_cells(f, lo, hi, scan_points)
    if exact is not None and not cells:
        root = exact
    else:
        if not cells:
            raise NoRoot(f"{kind.value}: no sign change in [{lo}, {hi}]")
        if len(cells) > 1:
            raise AmbiguousBracket(cells)
        root = _refine_cell(f, cells[0], xtol, _RESIDUAL_TOL[kind])
    p = _with_coord(p_template, scan_coord, root)
    return (p.T, p.B)


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


def _phase_changes(
    p_root: ModelParams, solve_coord: str, delta: float, n: int
) -> bool:
    """True when the winning branch differs on the two sides of a root."""
    lo_val = getattr(p_root, solve_coord) - delta
    if solve_coord == "T":
        lo_val = max(lo_val, 2.0 * temperature_floor())
    below = optimize_deficit(_with_coord(p_root, solve_coord, lo_val), n).branch
    above = optimize_deficit(
        _with_coord(p_root, solve_coord, getattr(p_root, solve_coord) + delta), n
    ).branch
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
    bracket_width: float = 0.08,
    xtol: float = 1e-7,
    scan_points: int = 65,
    n_scan: int = 401,
    classify: bool = True,
    phase_delta: float = 1e-3,
) -> BoundaryCurve:
    """March one coordinate, solving the boundary at every station.

    The first root comes from ``first_bracket``; afterwards each bracket
    is seeded around the previous root.  On a failed station the march
    step is halved (curves bend sharply near triple points) and the
    bracket widened; when the root persists in not being found the curve
    is terminated and returned partial.
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

    def attempt(x: float, seed: float | None, width: float):
        p_here = _with_coord(p_template, march, x)
        if seed is None:
            bracket = first_bracket
        else:
            bracket = (seed - width, seed + width)
        try:
            return solve_boundary_on_line(
                kind, p_here, march, bracket,
                xtol=xtol, scan_points=scan_points, n_scan=n_scan,
            )
        except AmbiguousBracket as err:
            if seed is None:
                raise
            # keep the sheet closest to the previous root
            def f(val: float) -> float:
                return boundary_residual(
                    kind, _with_coord(p_here, solve_coord, val), n_scan
                )
            cell = min(err.cells, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed))
            root = _refine_cell(f, cell, xtol, _RESIDUAL_TOL[kind])
            p = _with_coord(p_here, solve_coord, root)
            return (p.T, p.B)

    def emit(x: float, tb: tuple[float, float]) -> None:
        p_root = ModelParams(p_template.J, p_template.Jz, B=tb[1], T=tb[0])
        curve.points.append(tb)
        curve.residuals.append(boundary_residual(kind, p_root, n_scan))
        if classify:
            curve.physical.append(
                _phase_changes(p_root, solve_coord, phase_delta, n_scan)
            )
        else:
            curve.physical.append(True)

    # locate the first root, walking forward if the curve starts mid-range
    x = start
    seed: float | None = None
    while (stop - x) * direction >= -1e-12:
        try:
            tb = attempt(x, None, 0.0)
        except (NoRoot, AmbiguousBracket):
            x += nominal * direction
            continue
        emit(x, tb)
        seed = tb[0] if solve_coord == "T" else tb[1]
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
        root = None
        for width in (bracket_width, 2.0 * bracket_width, 4.0 * bracket_width):
            try:
                root = attempt(target, seed, width)
                break
            except NoRoot:
                continue
        if root is None:
            if cur_step > min_step:
                cur_step = max(cur_step / 2.0, min_step)
                continue
            curve.complete = False
            break
        emit(target, root)
        seed = root[0] if solve_coord == "T" else root[1]
        x = target
        cur_step = min(2.0 * cur_step, nominal)

    return curve


@dataclass(frozen=True)
class TriplePoint:
    """Meeting point of boundary curves on the (T, B) plane."""

    T: float
    B: float
    meeting_kinds: frozenset[BoundaryKind]


def _solution_near(
    kind: BoundaryKind,
    p_template: ModelParams,
    fixed: str,
    seed: float,
    width: float = 0.05,
    n_scan: int = 401,
) -> float | None:
    """Solved coordinate of a boundary near a seed, or None."""
    for w in (width, 2.0 * width, 4.0 * width):
        try:
            t, b = solve_boundary_on_line(
                kind, p_template, fixed, (seed - w, seed + w), n_scan=n_scan
            )
        except NoRoot:
            continue
        except AmbiguousBracket as err:
            def f(val: float) -> float:
                coord = "B" if fixed == "T" else "T"
                return boundary_residual(
                    kind, _with_coord(p_template, coord, val), n_scan
                )
            cell = min(err.cells, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed))
            try:
                return _refine_cell(f, cell, 1e-7, _RESIDUAL_TOL[kind])
            except NoRoot:
                continue
        return t if fixed == "B" else b
    return None


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


def find_triple_point(
    curves: list[BoundaryCurve],
    *,
    xtol: float = 1e-6,
    verify_tol: float = 1e-4,
    n_scan: int = 401,
) -> TriplePoint | None:
    """Mutual intersection of boundary curves marched along B.

    The first two curves define the crossing: their solved T as a
    function of B is re-solved during a bisection on the difference.
    Every provided curve must then pass within ``verify_tol`` of the
    point; curves that terminate at the point (the interior-crossing
    family does) are extrapolated from just beside it.
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
        t1 = _solution_near(c1.kind, p, "B", seed1, n_scan=n_scan)
        t2 = _solution_near(c2.kind, p, "B", seed2, n_scan=n_scan)
        if t1 is None or t2 is None:
            return None, seed1, seed2
        return t1 - t2, t1, t2

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
        if hi_b - lo_b <= xtol:
            break
    b_star = 0.5 * (lo_b + hi_b)
    t_star = 0.5 * (t1_mid + t2_mid)

    meeting = set()
    p_star = ModelParams(base.J, base.Jz, B=b_star, T=t_star)
    for curve in curves:
        dist = _curve_distance(curve.kind, p_star, t_star, b_star, n_scan)
        if dist is None or dist > verify_tol:
            return None
        meeting.add(curve.kind)
    return TriplePoint(T=t_star, B=b_star, meeting_kinds=frozenset(meeting))


def _curve_distance(
    kind: BoundaryKind,
    p_star: ModelParams,
    t_star: float,
    b_star: float,
    n_scan: int,
) -> float | None:
    """Distance from (t_star, b_star) to a boundary's solution sheet.

    Solves at B = b_star directly; if the curve terminates there, probes
    small B offsets on both sides and extrapolates linearly back.
    """
    t_here = _solution_near(kind, p_star, "B", t_star, n_scan=n_scan)
    if t_here is not None:
        return abs(t_here - t_star)
    for sign in (+1.0, -1.0):
        probes = []
        for off in (2e-4, 1e-3):
            p_off = dataclasses.replace(p_star, B=b_star + sign * off)
            t_off = _solution_near(kind, p_off, "B", t_star, n_scan=n_scan)
            if t_off is not None:
                probes.append((sign * off, t_off))
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


def _fmt(x: float) -> str:
    return format(x, ".9g")


def curve_to_csv(curve: BoundaryCurve, norm: float = 1.0) -> str:
    """CSV dump of a traced curve; T and B are divided by ``norm``."""
    lines = [
        f"# kind={curve.kind.value} J={_fmt(curve.J)} Jz={_fmt(curve.Jz)}"
        f" march={curve.march} norm={_fmt(norm)} complete={int(curve.complete)}",
        "kind,T,B,residual,is_physical",
    ]
    for (t, b), res, phys in zip(curve.points, curve.residuals, curve.physical):
        lines.append(
            f"{curve.kind.value},{_fmt(t / norm)},{_fmt(b / norm)},"
            f"{_fmt(res)},{int(phys)}"
        )
    return "\n".join(lines) + "\n"
