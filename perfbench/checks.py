"""Output checks made apart from the program.

Every check reads a file the command line wrote and recomputes what the
file claims from references the program does not use on its own paths:

* the dense 4x4 route of ``xxz_deficit.oracle`` (Gibbs matrix from the
  Hamiltonian, projective measurement, numeric diagonalisation), minimised
  over a dense angle grid that is zoomed in around each grid minimum;
* 60-digit mpmath curvatures of S~ evaluated from the Gibbs weights, as
  in ``tests/test_measurement.py``;
* the paper's landmark values.

A failed check raises ``CheckFailed`` with a message naming the value.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

from xxz_deficit.model import ModelParams
from xxz_deficit.oracle import dense_thermal_state, projector_pair, von_neumann_entropy

LN2 = math.log(2.0)
HALF_PI = math.pi / 2.0

DEFICIT_TOL = 1e-6  # sampled cells against the oracle, nats
STRADDLE = 1e-5  # boundary points: residual sign change across +- this
TRIPLE_STRADDLE = 1e-4  # triple points: sign change across T +- this
PAPER_TRIPLE_TOL = 1e-3
JUMP_TOL = 1e-3  # jumps against the brute-force oracle scan
CROSSING_TOL = 1e-8  # S~(0) minus deepest interior minimum at a crossing, nats
PHASE_DELTA = 1e-3  # offset the program's classification uses
BRANCH_TIE = 1e-12  # branch ties prefer the endpoints, z endpoint first
CELLS_PER_BRANCH = 8  # oracle sample size per branch label
# the largest deficit a file may hold: ln 2 + 1e-12 at the 9 significant
# digits the program writes (ln 2 itself rounds up to 0.693147181)
LN2_WRITTEN = float(format(LN2 + 1e-12, ".9g"))

# Paper values: triple points (T, B) and the jump table rows (B, T, jump);
# acceptance test 04 allows 1e-3 on T and 2e-3 on the jump.
PAPER_JUMPS = {1.7: (0.64533, 1.30773), 1.8: (0.64193, 0.86605),
               1.9: (0.63329, 0.64026), 2.0: (0.61883, 0.48104)}
PAPER_JUMP_T_TOL = 1e-3
PAPER_JUMP_TOL = 2e-3


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- oracle

class OracleProfile:
    """S~(theta) of the dense Gibbs matrix at one (J, Jz, B, T)."""

    def __init__(self, J: float, Jz: float, B: float, T: float):
        self.rho = dense_thermal_state(ModelParams(J, Jz, B, T)).matrix
        self.entropy_before = von_neumann_entropy(self.rho)

    def entropies(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        kraus = np.zeros((len(thetas), 2, 4, 4), dtype=complex)
        for n, theta in enumerate(thetas):
            for k, proj in enumerate(projector_pair(float(theta), 0.0)):
                kraus[n, k, :2, :2] = proj  # kron(I2, proj), measured spin 2
                kraus[n, k, 2:, 2:] = proj
        avg = np.einsum("nkij,jl,nkml->nim", kraus, self.rho, kraus.conj())
        evals = np.clip(np.linalg.eigvalsh(avg), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(evals > 0.0, evals * np.log(evals), 0.0)
        return -terms.sum(axis=1)

    def endpoints(self) -> tuple[float, float]:
        s0, s_half = self.entropies([0.0, HALF_PI])
        return float(s0), float(s_half)

    def interior_minima(self, n: int = 401) -> list[tuple[float, float]]:
        """Local minima strictly inside (0, pi/2), each zoomed to ~1e-10 in
        theta.  Minima within two grid steps of an endpoint or shallower
        than 1e-11 against their grid neighbours are rounding ripples."""
        grid = np.linspace(0.0, HALF_PI, n)
        vals = self.entropies(grid)
        step = grid[1] - grid[0]
        out = []
        for i in range(2, n - 2):
            left, mid, right = vals[i - 1], vals[i], vals[i + 1]
            if mid <= left and mid < right and min(left, right) - mid > 1e-11:
                out.append(self._zoom(grid[i], step))
        return out

    def _zoom(self, theta: float, half_width: float) -> tuple[float, float]:
        value = float(self.entropies([theta])[0])
        while half_width > 1e-10:
            grid = np.linspace(theta - half_width, theta + half_width, 21)
            vals = self.entropies(grid)
            k = int(vals.argmin())
            theta, value = float(grid[k]), float(vals[k])
            half_width /= 8.0
        return theta, value

    def optimum(self) -> tuple[str, float, float]:
        """(branch, theta, S~) of the deepest branch, ties to endpoints."""
        s0, s_half = self.endpoints()
        best = ("Zero", 0.0, s0)
        if s_half < best[2] - BRANCH_TIE:
            best = ("HalfPi", HALF_PI, s_half)
        for theta, value in self.interior_minima():
            if value < best[2] - BRANCH_TIE:
                best = ("Interior", theta, value)
        return best

    def deficit(self) -> float:
        return max(self.optimum()[2] - self.entropy_before, 0.0)


def equal_residual(J, Jz, B, T) -> float:
    """S~(0) - S~(pi/2) from the dense oracle."""
    s0, s_half = OracleProfile(J, Jz, B, T).endpoints()
    return s0 - s_half


def mp_curvature(J, Jz, B, T, at_halfpi: bool, dps: int = 60):
    """S~'' at theta = 0 or pi/2 by mpmath.diff, with S~ evaluated at
    ``dps`` digits from the Gibbs weights."""
    with mpmath.workdps(dps):
        t, j, jz, b = (mpmath.mpf(x) for x in (T, abs(J), Jz, B))
        g = [(jz / 2 + b) / t, (jz / 2 - b) / t, (j - jz / 2) / t, (-j - jz / 2) / t]
        top = max(g)
        w = [mpmath.exp(x - top) for x in g]
        a, d, l3, l4 = (x / sum(w) for x in w)
        alpha = a - d
        beta = 1 - 2 * (l3 + l4)
        v = (l3 - l4) / 2

        def entropy(theta):
            c = mpmath.cos(theta)
            cross = 2 * v * mpmath.sin(theta)
            rp = mpmath.sqrt((alpha + beta * c) ** 2 + cross**2)
            rm = mpmath.sqrt((alpha - beta * c) ** 2 + cross**2)
            spec = ((1 + alpha * c + rp) / 4, (1 + alpha * c - rp) / 4,
                    (1 - alpha * c + rm) / 4, (1 - alpha * c - rm) / 4)
            return -sum(x * mpmath.log(x) for x in spec if x > 0)

        return mpmath.diff(entropy, mpmath.pi / 2 if at_halfpi else 0, 2)


def residual(kind: str, J, Jz, B, T):
    if kind == "equal":
        return equal_residual(J, Jz, B, T)
    if kind in ("zero", "halfpi"):
        return mp_curvature(J, Jz, B, T, at_halfpi=kind == "halfpi")
    raise ValueError(f"no independent residual for {kind!r}")


def changes_sign(kind, J, Jz, B, T, coord: str, delta: float) -> bool:
    """True when the independent residual changes sign across coord +- delta."""
    def at(x):
        return residual(kind, J, Jz, x, T) if coord == "B" else residual(kind, J, Jz, B, x)

    here = B if coord == "B" else T
    lo, hi = at(here - delta), at(here + delta)
    return (lo < 0 < hi) or (hi < 0 < lo)


# ---------------------------------------------------------------- parsing

def _header_fields(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.lstrip("# ").split() if "=" in item)


def read_csv(text: str) -> tuple[list[str], list[dict]]:
    """Comment lines and rows of a CSV the command line wrote."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(io.StringIO("\n".join(body))))


# ---------------------------------------------------------------- diagrams

def grid_centers(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / n
    return [lo + step * (k + 0.5) for k in range(n)]


def oracle_sample(cells: list[dict], rng) -> list[int]:
    """Rows checked against the oracle: up to CELLS_PER_BRANCH of each
    branch label, drawn with the seeded generator."""
    by_branch: dict[str, list[int]] = {}
    for k, cell in enumerate(cells):
        by_branch.setdefault(cell["branch"], []).append(k)
    picks = []
    for branch in sorted(by_branch):
        rows = by_branch[branch]
        chosen = rng.choice(len(rows), size=min(CELLS_PER_BRANCH, len(rows)), replace=False)
        picks.extend(sorted(rows[p] for p in chosen))
    return picks


def check_diagram(cells: list[dict], spec: dict, rng, levels_text: str | None = None) -> None:
    """Sweep output: row count, grid centers, deficit range, bits column,
    branch against theta, an oracle sample and the level lines."""
    J, Jz, norm = spec["J"], spec["Jz"], spec["norm"]
    n_t, n_b = spec["n_t"], spec["n_b"]
    require(len(cells) == n_t * n_b, f"{len(cells)} rows for a {n_t}x{n_b} grid")
    ts = grid_centers(*spec["T_range"], n_t)
    bs = grid_centers(*spec["B_range"], n_b)
    for k, cell in enumerate(cells):
        i, j = divmod(k, n_b)
        t, b = float(cell["T"]), float(cell["B"])
        require(math.isclose(t * norm, ts[i], rel_tol=1e-8) and math.isclose(
            b * norm, bs[j], rel_tol=1e-8, abs_tol=1e-12), f"row {k}: ({t}, {b}) is not cell ({i}, {j})")
        nats, bits = float(cell["deficit_nats"]), float(cell["deficit_bits"])
        require(-1e-12 <= nats <= LN2_WRITTEN, f"row {k}: deficit {nats} outside [0, ln 2]")
        require(math.isclose(bits, nats / LN2, rel_tol=1e-8, abs_tol=1e-12),
                f"row {k}: bits {bits} != nats {nats} / ln 2")
        theta, branch = float(cell["theta_opt"]), cell["branch"]
        if branch == "Zero":
            ok = theta == 0.0
        elif branch == "HalfPi":
            ok = abs(theta - HALF_PI) <= 1e-8
        elif branch == "Interior":
            ok = 1e-8 < theta < HALF_PI - 1e-8
        else:
            ok = False
        require(ok, f"row {k}: branch {branch} with theta {theta}")

    for k in oracle_sample(cells, rng):
        i, j = divmod(k, n_b)
        want = OracleProfile(J, Jz, bs[j], ts[i]).deficit()
        got = float(cells[k]["deficit_nats"])
        require(abs(got - want) <= DEFICIT_TOL,
                f"row {k} ({cells[k]['branch']}): deficit {got} against oracle {want}")

    if levels_text is not None:
        z = np.array([float(c["deficit_nats"]) for c in cells]).reshape(n_t, n_b)
        check_level_lines(levels_text, spec["levels"], np.array(ts) / norm,
                          np.array(bs) / norm, z)


def check_level_lines(text: str, levels, ts, bs, z) -> None:
    """Every vertex sits on a grid edge whose end cells straddle the level,
    at the linear interpolation of the level between them; every edge that
    clearly straddles a level carries a vertex."""
    _, rows = read_csv(text)
    got_levels = {float(r["level"]) for r in rows}
    require(got_levels <= set(levels), f"unexpected levels {sorted(got_levels)}")
    on_edges = {lv: set() for lv in levels}
    for r in rows:
        level, t, b = float(r["level"]), float(r["T"]), float(r["B"])
        edge = _edge_of(t, b, ts, bs)
        require(edge is not None, f"level {level}: vertex ({t}, {b}) is on no grid edge")
        (i1, j1), (i2, j2), frac = edge
        z1, z2 = z[i1, j1], z[i2, j2]
        require(min(z1, z2) <= level + 1e-9 and max(z1, z2) >= level - 1e-9 and z1 != z2,
                f"level {level}: cells {z1}, {z2} around ({t}, {b}) do not straddle it")
        want = (level - z1) / (z2 - z1)
        require(abs(frac - want) <= 1e-7 + 2e-9 / abs(z2 - z1),
                f"level {level}: vertex ({t}, {b}) at {frac} of its edge, interpolation {want}")
        on_edges[level].add(((i1, j1), (i2, j2)))
    for level in levels:
        want = set()
        for i in range(len(ts)):
            for j in range(len(bs)):
                for i2, j2 in ((i + 1, j), (i, j + 1)):
                    if i2 < len(ts) and j2 < len(bs):
                        lo, hi = sorted((z[i, j], z[i2, j2]))
                        if lo < level - 1e-9 and hi > level + 1e-9:
                            want.add(((i, j), (i2, j2)))
        missing = want - on_edges[level]
        require(not missing, f"level {level}: {len(missing)} straddling edges without a vertex")


def _edge_of(t, b, ts, bs):
    """((i1, j1), (i2, j2), fraction) of the grid edge holding (t, b)."""
    tol_t = 1e-8 * max(1.0, abs(t))
    tol_b = 1e-8 * max(1.0, abs(b))
    i = int(np.argmin(np.abs(ts - t)))
    if abs(ts[i] - t) <= tol_t:
        j = int(np.searchsorted(bs, b)) - 1
        if 0 <= j < len(bs) - 1:
            return (i, j), (i, j + 1), (b - bs[j]) / (bs[j + 1] - bs[j])
    j = int(np.argmin(np.abs(bs - b)))
    if abs(bs[j] - b) <= tol_b:
        i = int(np.searchsorted(ts, t)) - 1
        if 0 <= i < len(ts) - 1:
            return (i, j), (i + 1, j), (t - ts[i]) / (ts[i + 1] - ts[i])
    return None


def check_diagram_json(text: str, spec: dict, rng, levels_text=None) -> None:
    doc = json.loads(text)
    grid = doc["grid"]
    require((grid["n_t"], grid["n_b"]) == (spec["n_t"], spec["n_b"]), f"grid {grid}")
    check_diagram(doc["cells"], spec, rng, levels_text)


def check_diagram_csv(text: str, spec: dict, rng) -> None:
    check_diagram(read_csv(text)[1], spec, rng)


# ---------------------------------------------------------------- boundaries

def check_curve(text: str, spec: dict) -> list[tuple[float, float, bool]]:
    """Header, coverage of the requested span, and the independent residual
    changing sign across every point.  Returns (T, B, is_physical) rows."""
    comments, rows = read_csv(text)
    head = _header_fields(comments[0])
    kind, march = spec["kind"], spec["march"]
    require(head.get("kind") == kind and head.get("march") == march, f"header {comments[0]}")
    require(head.get("complete") == "1", "curve reported incomplete")
    require(rows, "no points")
    norm = float(head["norm"])
    pts = [(float(r["T"]) * norm, float(r["B"]) * norm, r["is_physical"] == "1") for r in rows]
    start, stop, step = spec["span"]
    marched = [p[1] if march == "B" else p[0] for p in pts]
    require(abs(marched[0] - start) <= 1e-9 and abs(marched[-1] - stop) <= 1e-9,
            f"curve covers {marched[0]}..{marched[-1]}, asked {start}..{stop}")
    direction = 1.0 if stop >= start else -1.0
    gaps = [(b - a) * direction for a, b in zip(marched, marched[1:])]
    require(all(0.0 < g <= step + 1e-9 for g in gaps), "march steps out of order or too long")
    J, Jz = spec["J"], spec["Jz"]
    for t, b, _ in pts:
        if "B_equals" in spec:
            require(abs(b - spec["B_equals"]) <= 1e-6, f"XX-limit point B={b}, want {spec['B_equals']}")
        if kind == "zeroprime":
            check_crossing(J, Jz, b, t)
        else:
            coord = "T" if march == "B" else "B"
            require(changes_sign(kind, J, Jz, b, t, coord, STRADDLE),
                    f"{kind} residual keeps its sign across ({t}, {b}) +- {STRADDLE} in {coord}")
    return pts


def check_physical_flags(pts, spec) -> None:
    """is_physical must say whether the oracle's winning branch differs at
    T -+ the classification offset (curves marched along B)."""
    J, Jz = spec["J"], spec["Jz"]
    for t, b, flag in pts:
        below = OracleProfile(J, Jz, b, t - PHASE_DELTA).optimum()[0]
        above = OracleProfile(J, Jz, b, t + PHASE_DELTA).optimum()[0]
        require(flag == (below != above),
                f"({t}, {b}): is_physical={int(flag)} but oracle branches {below}/{above}")


def check_triple(text: str, spec: dict) -> None:
    doc = json.loads(text)
    require(doc["kinds"] == ["equal", "halfpi"], f"meeting kinds {doc['kinds']}")
    norm = spec["norm"]
    t, b = doc["T"] * norm, doc["B"] * norm
    J, Jz = spec["J"], spec["Jz"]
    for kind in ("equal", "halfpi"):
        require(changes_sign(kind, J, Jz, b, t, "T", TRIPLE_STRADDLE),
                f"{kind} residual keeps its sign across T={t} +- {TRIPLE_STRADDLE} at B={b}")
    want_t, want_b = spec["paper"]
    require(abs(doc["T"] - want_t) <= PAPER_TRIPLE_TOL and abs(doc["B"] - want_b) <= PAPER_TRIPLE_TOL,
            f"triple point ({doc['T']}, {doc['B']}) against the paper's ({want_t}, {want_b})")


# ---------------------------------------------------------------- crossings

def check_crossing(J, Jz, B, T) -> None:
    """At an interior crossing S~(0) equals the deepest interior minimum."""
    prof = OracleProfile(J, Jz, B, T)
    minima = prof.interior_minima()
    require(minima, f"({T}, {B}): the oracle profile has no interior minimum")
    deepest = min(v for _, v in minima)
    s0 = prof.endpoints()[0]
    require(abs(s0 - deepest) <= CROSSING_TOL,
            f"({T}, {B}): S~(0) - deepest interior minimum = {s0 - deepest:.3e}")


def check_jumps(text: str, spec: dict) -> None:
    comments, rows = read_csv(text)
    head = _header_fields(comments[0])
    eps, norm = float(head["eps"]), spec["norm"]
    J, Jz = spec["J"], spec["Jz"]
    require([float(r["B"]) for r in rows] == spec["B_list"], "rows do not follow --B-list")
    for r in rows:
        require(r["T"] != "" and r["jump"] != "", f"B={r['B']}: no crossing solved")
        b, t, jump = float(r["B"]) * norm, float(r["T"]) * norm, float(r["jump"])
        check_crossing(J, Jz, b, t)
        before = OracleProfile(J, Jz, b, t + eps).optimum()[1]
        after = OracleProfile(J, Jz, b, t - eps).optimum()[1]
        require(abs(jump - abs(after - before)) <= JUMP_TOL,
                f"B={b}: jump {jump} against the oracle's {abs(after - before)}")
        want_t, want_jump = PAPER_JUMPS[float(r["B"])]
        require(abs(float(r["T"]) - want_t) < PAPER_JUMP_T_TOL and abs(jump - want_jump) < PAPER_JUMP_TOL,
                f"B={b}: row ({r['T']}, {jump}) against the paper's ({want_t}, {want_jump})")
