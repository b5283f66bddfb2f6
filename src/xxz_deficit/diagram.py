"""Phase diagrams: grid sweeps, level lines, machine-readable output.

A sweep evaluates the deficit optimizer at every cell center of a
(T, B) grid and records the winning branch, optimal angle, deficit and
profile shape.  It hands the whole grid to one
``optimizer.optimize_grid`` call, which takes the cells' closed forms,
S~, its brackets, shapes and winners in array blocks of 256, sampling
S~ in passes of 32 cells.  That call is a view of the optimizer's one
entry over a set of points, as a one-point ``optimize_deficit`` is, so
every cell gets exactly the result of that call.
A diagram holds the grid's own T and B; the caller picks the report
unit, |J| or |Jz|, and hands it to the writers, which divide T and B by
it.  Output ordering is fixed by (T row, B column) and
numbers are serialized with 9 significant digits, so identical
configurations produce byte-identical files; the JSON writer formats
the cells directly, in the layout of ``json.dumps(doc, sort_keys=True,
indent=1)``, each number as ``numfmt.repr9`` writes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import LN2, T_FLOOR
from .numfmt import FMT9, fmt9, repr9, round9
# optimize_deficit, which no sweep calls, stays a name of this module:
# perfbench/tracing.py wraps it here
from .optimizer import optimize_deficit, optimize_grid  # noqa: F401

__all__ = [
    "GridSpec",
    "PhaseDiagram",
    "check_levels",
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
        for name, lo, hi in (
            ("T", self.t_min, self.t_max), ("B", self.b_min, self.b_max)
        ):
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
                raise ValueError(
                    f"{name} range must be finite and of finite width,"
                    f" got {lo!r}:{hi!r}"
                )
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

    The cells are taken in blocks of 256 by one ``optimize_grid`` call,
    each block's S~ sampled by one fast sampler call in array passes of
    32 cells that reuse one set of work arrays, and its doubtful rows by
    one exact call (``optimizer._sampled_rows``), so memory
    stays bounded by one block and one pass; S~ is sampled at the
    optimizer's default 201 angles.  T and B stay in the grid's own
    units.
    """
    cells = optimize_grid(J, Jz, grid.t_centers(), grid.b_centers())
    return PhaseDiagram(grid, J, Jz, cells.branch, cells.theta, cells.deficit, cells.shape)


# One cell line of ``diagram_to_csv`` after its T and B texts and branch:
# theta, the deficit in nats and in bits, each as ``fmt9`` writes it.
_CSV_CELL = f"%s,%s,%s,{FMT9},{FMT9},{FMT9}"


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
    b_text = [fmt9(b) for b in (g.b_centers() / norm_value).tolist()]
    for t, branches, thetas, deficits in zip(
        ts.tolist(), d.branch, d.theta.tolist(), d.deficit.tolist()
    ):
        t_text = fmt9(t)
        for b, branch, th, dn in zip(b_text, branches, thetas, deficits):
            lines.append(_CSV_CELL % (t_text, b, branch, th, dn, dn / LN2))
    return "\n".join(lines) + "\n"


# One cell of ``diagram_to_json``, laid out as json.dumps(doc,
# sort_keys=True, indent=1) lays it out: keys in sorted order, floats as
# float.__repr__ writes them.
_JSON_CELL = (
    '  {{\n   "B": {},\n   "T": {},\n   "branch": "{}",\n'
    '   "deficit_bits": {},\n   "deficit_nats": {},\n   "shape": "{}",\n'
    '   "theta_opt": {}\n  }}'
)


def diagram_to_json(d: PhaseDiagram, norm_unit: str, norm_value: float) -> str:
    """JSON dump of a diagram, with T and B as in ``diagram_to_csv``.

    The text is that of json.dumps(doc, sort_keys=True, indent=1): the
    header goes through json.dumps, the cells are formatted from a fixed
    template.  A value that is not finite raises ValueError, since JSON
    has no number for it.
    """
    g = d.grid
    with np.errstate(over="ignore"):
        ts = g.t_centers() / norm_value
        bs = g.b_centers() / norm_value
        bits = d.deficit / LN2
    for x in (ts, bs, d.theta, d.deficit, bits):
        if not np.isfinite(x).all():
            raise ValueError("a diagram value is not finite; JSON has no number for it")
    head = json.dumps(
        {
            "params": {"J": d.J, "Jz": d.Jz},
            "norm": {"unit": norm_unit, "value": round9(norm_value)},
            "grid": {
                "T_range": [g.t_min, g.t_max],
                "B_range": [g.b_min, g.b_max],
                "n_t": g.n_t,
                "n_b": g.n_b,
            },
        },
        sort_keys=True,
        indent=1,
        allow_nan=False,
    )
    b_text = [repr9(b) for b in bs.tolist()]
    cells = []
    for i, t in enumerate(ts.tolist()):
        t_text = repr9(t)
        for b, branch, bit, dn, shape, th in zip(
            b_text, d.branch[i], bits[i].tolist(), d.deficit[i].tolist(),
            d.shape_tags[i], d.theta[i].tolist(),
        ):
            cells.append(_JSON_CELL.format(
                b, t_text, branch, repr9(bit), repr9(dn), shape, repr9(th),
            ))
    # head opens with '{\n "grid"'; the cells go in front of that key
    return '{\n "cells": [\n' + ",\n".join(cells) + "\n ],\n" + head[2:] + "\n"


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
    """Join raw segments into polylines by matching endpoints, each keyed
    by its coordinates rounded to 10 decimals (``np.round``, as
    ``round`` rounds a numpy float)."""
    ends = np.round(np.asarray(segments, dtype=float).reshape(-1, 2, 2), 10).tolist()
    keys = [(tuple(k1), tuple(k2)) for k1, k2 in ends]
    adjacency: dict = {}
    for idx, (k1, k2) in enumerate(keys):
        adjacency.setdefault(k1, []).append((idx, 1))  # the far end is end 1
        adjacency.setdefault(k2, []).append((idx, 0))

    used = [False] * len(segments)
    polylines = []
    for idx, (p1, p2) in enumerate(segments):
        if used[idx]:
            continue
        used[idx] = True
        chain = [p1, p2]
        for grow_end, tip in ((True, keys[idx][1]), (False, keys[idx][0])):
            while True:
                nxt = next(((sid, end) for sid, end in adjacency[tip] if not used[sid]), None)
                if nxt is None:
                    break
                sid, end = nxt
                used[sid] = True
                tip = keys[sid][end]
                if grow_end:
                    chain.append(segments[sid][end])
                else:
                    chain.insert(0, segments[sid][end])
        polylines.append(chain)
    return polylines


def check_levels(levels) -> None:
    """Raise ValueError unless every deficit level lies in [0, ln 2]."""
    for level in levels:
        if not 0.0 <= level <= LN2 + 1e-12:
            raise ValueError(f"level {level!r} outside [0, ln 2]")


def level_lines(d: PhaseDiagram, levels) -> list[tuple[float, list]]:
    """Iso-contours of the deficit field, one polyline list per level."""
    check_levels(levels)
    ts = d.grid.t_centers()
    bs = d.grid.b_centers()
    z = d.deficit
    out = []
    for level in levels:
        # only a cell whose corners straddle the level has segments; the
        # cells are visited in row-major order, as a loop over all would
        inside = z >= level
        corners = inside[:-1, :-1], inside[1:, :-1], inside[1:, 1:], inside[:-1, 1:]
        every = corners[0] & corners[1] & corners[2] & corners[3]
        some = corners[0] | corners[1] | corners[2] | corners[3]
        segments = []
        for i, j in zip(*np.nonzero(some & ~every)):
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
