"""Phase diagrams: grid sweeps, level lines, machine-readable output.

A sweep evaluates the deficit optimizer at every cell center of a
(T, B) grid and records the winning branch, optimal angle, deficit and
profile shape.  It hands one grid row at a time to
``optimize_deficits``, which samples S~ for many cells in one array
pass and sets the pass size itself; every cell still gets exactly the
result of a one-point ``optimize_deficit``.  A diagram holds the
grid's own T and B; the caller picks the report unit, |J| or |Jz|, and
hands it to the writers, which divide T and B by it.  Output ordering is
fixed by (T row, B column) and numbers are serialized with 9
significant digits, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import LN2, T_FLOOR, ModelParams
from .numfmt import fmt9, round9
# optimize_deficit, the one-cell form of the sweep, stays a name of this
# module: perfbench/tracing.py wraps it here
from .optimizer import optimize_deficit, optimize_deficits  # noqa: F401

__all__ = [
    "GridSpec",
    "PhaseDiagram",
    "diagram_to_csv",
    "diagram_to_json",
    "contours_to_csv",
    "level_lines",
    "sweep",
]

@dataclass(frozen=True)
class GridSpec:
    """Rectangular (T, B) grid; cells are evaluated at their centers."""

    t_min: float
    t_max: float
    b_min: float
    b_max: float
    n_t: int
    n_b: int

    def __post_init__(self) -> None:
        if self.n_t < 2 or self.n_b < 2:
            raise ValueError("grid needs at least 2 cells per axis")
        if not (self.t_max > self.t_min and self.b_max > self.b_min):
            raise ValueError("empty grid range")
        if self.t_min <= T_FLOOR:
            raise ValueError("T range must lie above the temperature floor")

    def t_centers(self) -> np.ndarray:
        step = (self.t_max - self.t_min) / self.n_t
        return self.t_min + step * (np.arange(self.n_t) + 0.5)

    def b_centers(self) -> np.ndarray:
        step = (self.b_max - self.b_min) / self.n_b
        return self.b_min + step * (np.arange(self.n_b) + 0.5)


@dataclass
class PhaseDiagram:
    """Classified grid: winning branch, optimal angle, deficit and profile
    shape of every cell."""

    grid: GridSpec
    J: float
    Jz: float
    branch: list[list[str]]
    theta: np.ndarray
    deficit: np.ndarray
    shape_tags: list[list[str]]


def sweep(J: float, Jz: float, grid: GridSpec) -> PhaseDiagram:
    """Classify every cell of the grid.

    The cells are taken one grid row at a time, so memory stays bounded
    by the row length; S~ is sampled at the optimizer's default 201
    angles.  T and B stay in the grid's own units.
    """
    n_t, n_b = grid.n_t, grid.n_b
    ts = grid.t_centers().tolist()
    bs = grid.b_centers().tolist()
    branch = [[""] * n_b for _ in range(n_t)]
    shapes = [[""] * n_b for _ in range(n_t)]
    theta = np.empty((n_t, n_b))
    deficit = np.empty((n_t, n_b))
    for i, t in enumerate(ts):
        row = optimize_deficits([ModelParams(J, Jz, b, t) for b in bs])
        for j, res in enumerate(row):
            branch[i][j] = res.branch.value
            theta[i, j] = res.optimal_theta
            deficit[i, j] = res.deficit
            shapes[i][j] = res.shape_label
    return PhaseDiagram(
        grid=grid,
        J=J,
        Jz=Jz,
        branch=branch,
        theta=theta,
        deficit=deficit,
        shape_tags=shapes,
    )


def diagram_to_csv(d: PhaseDiagram, norm_unit: str, norm_value: float) -> str:
    """CSV dump of a diagram; T and B are divided by |norm_unit| = norm_value."""
    g = d.grid
    lines = [
        f"# J={fmt9(d.J)} Jz={fmt9(d.Jz)} norm_unit={norm_unit}"
        f" norm_value={fmt9(norm_value)}",
        f"# T_range=[{fmt9(g.t_min)},{fmt9(g.t_max)}]"
        f" B_range=[{fmt9(g.b_min)},{fmt9(g.b_max)}] n_t={g.n_t} n_b={g.n_b}",
        "T,B,branch,theta_opt,deficit_nats,deficit_bits",
    ]
    ts = g.t_centers() / norm_value
    bs = g.b_centers() / norm_value
    for i in range(g.n_t):
        for j in range(g.n_b):
            dn = d.deficit[i, j]
            lines.append(
                f"{fmt9(ts[i])},{fmt9(bs[j])},{d.branch[i][j]},"
                f"{fmt9(d.theta[i, j])},{fmt9(dn)},{fmt9(dn / LN2)}"
            )
    return "\n".join(lines) + "\n"


def diagram_to_json(d: PhaseDiagram, norm_unit: str, norm_value: float) -> str:
    """JSON dump of a diagram, with T and B as in ``diagram_to_csv``."""
    g = d.grid
    ts = g.t_centers() / norm_value
    bs = g.b_centers() / norm_value
    cells = []
    for i in range(g.n_t):
        for j in range(g.n_b):
            dn = float(d.deficit[i, j])
            cells.append(
                {
                    "T": round9(ts[i]),
                    "B": round9(bs[j]),
                    "branch": d.branch[i][j],
                    "theta_opt": round9(d.theta[i, j]),
                    "deficit_nats": round9(dn),
                    "deficit_bits": round9(dn / LN2),
                    "shape": d.shape_tags[i][j],
                }
            )
    doc = {
        "params": {"J": d.J, "Jz": d.Jz},
        "norm": {"unit": norm_unit, "value": round9(norm_value)},
        "grid": {
            "T_range": [g.t_min, g.t_max],
            "B_range": [g.b_min, g.b_max],
            "n_t": g.n_t,
            "n_b": g.n_b,
        },
        "cells": cells,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _edge_point(pa, pb, va, vb, level):
    frac = (level - va) / (vb - va)
    return (pa[0] + frac * (pb[0] - pa[0]), pa[1] + frac * (pb[1] - pa[1]))


def _cell_segments(ts, bs, z, i, j, level):
    """Contour segments of one grid cell (marching squares).

    Corners are indexed counterclockwise from (i, j); crossing points on
    the four edges are paired according to the corner pattern, with the
    saddle cases disambiguated by the cell-center average.
    """
    corners = [
        ((ts[i], bs[j]), z[i, j]),
        ((ts[i + 1], bs[j]), z[i + 1, j]),
        ((ts[i + 1], bs[j + 1]), z[i + 1, j + 1]),
        ((ts[i], bs[j + 1]), z[i, j + 1]),
    ]
    inside = [v >= level for _, v in corners]
    if all(inside) or not any(inside):
        return []
    crossings = {}
    for e in range(4):
        (pa, va), (pb, vb) = corners[e], corners[(e + 1) % 4]
        if inside[e] != inside[(e + 1) % 4]:
            crossings[e] = _edge_point(pa, pb, va, vb, level)
    edges = sorted(crossings)
    if len(edges) == 2:
        return [(crossings[edges[0]], crossings[edges[1]])]
    center_inside = (sum(v for _, v in corners) / 4.0) >= level
    if center_inside == inside[0]:
        pairs = [(0, 1), (2, 3)]
    else:
        pairs = [(3, 0), (1, 2)]
    return [(crossings[a], crossings[b]) for a, b in pairs]


def _chain_segments(segments):
    """Join raw segments into polylines by matching endpoints."""

    def key(pt):
        return (round(pt[0], 10), round(pt[1], 10))

    adjacency: dict = {}
    for idx, (p1, p2) in enumerate(segments):
        adjacency.setdefault(key(p1), []).append((idx, p2))
        adjacency.setdefault(key(p2), []).append((idx, p1))

    used = [False] * len(segments)
    polylines = []
    for idx, (p1, p2) in enumerate(segments):
        if used[idx]:
            continue
        used[idx] = True
        chain = [p1, p2]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                nxt = None
                for sid, other in adjacency.get(key(tip), []):
                    if not used[sid]:
                        nxt = (sid, other)
                        break
                if nxt is None:
                    break
                used[nxt[0]] = True
                if grow_end:
                    chain.append(nxt[1])
                else:
                    chain.insert(0, nxt[1])
        polylines.append(chain)
    return polylines


def level_lines(d: PhaseDiagram, levels) -> list[tuple[float, list]]:
    """Iso-contours of the deficit field, one polyline list per level."""
    ts = d.grid.t_centers()
    bs = d.grid.b_centers()
    z = d.deficit
    out = []
    for level in levels:
        if not 0.0 <= level <= LN2 + 1e-12:
            raise ValueError(f"level {level!r} outside [0, ln 2]")
        segments = []
        for i in range(len(ts) - 1):
            for j in range(len(bs) - 1):
                segments.extend(_cell_segments(ts, bs, z, i, j, level))
        out.append((float(level), _chain_segments(segments)))
    return out


def contours_to_csv(contours, norm: float = 1.0) -> str:
    lines = ["level,polyline,T,B"]
    for level, polylines in contours:
        for pid, chain in enumerate(polylines):
            for t, b in chain:
                lines.append(
                    f"{fmt9(level)},{pid},{fmt9(t / norm)},{fmt9(b / norm)}"
                )
    return "\n".join(lines) + "\n"
