"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not tuned elsewhere.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import xxz_deficit
from xxz_deficit.boundaries import (
    BoundaryKind,
    find_triple_point,
    solve_boundary_on_line,
    trace_boundary,
    xx_boundary_residual,
)
from xxz_deficit.cli import main as cli_main
from xxz_deficit.diagram import GridSpec, sweep
from xxz_deficit.measurement import _spectrum, entropy_curve
from xxz_deficit.model import ModelParams, pre_measurement_entropy, thermal_state
from xxz_deficit.optimizer import Branch, optimal_angle_jump, optimize_deficit
from xxz_deficit.oracle import dense_post_measurement, dense_thermal_state

from conftest import random_params
from finite_differences import endpoint_first_derivatives
from reference_forms import fidelity, thermodynamic_entropy

LN2 = math.log(2.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p = random_params(rng)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        numeric = np.sort(
            dense_post_measurement(dense_thermal_state(p), theta, phi).state.spectrum()
        )
        analytic = np.sort(_spectrum(thermal_state(p), theta))
        worst = max(worst, float(np.abs(numeric - analytic).max()))
    elapsed = time.perf_counter() - start
    _report(
        1, "oracle equivalence", worst < 1e-10 and elapsed < 5.0,
        f"worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_02_endpoint_first_derivative_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d0, d1 = endpoint_first_derivatives(thermal_state(random_params(rng)))
        worst = max(worst, abs(d0), abs(d1))
    _report(2, "endpoint slope identities", worst < 1e-6, f"worst={worst:.2e}")


def test_03_landmark_roots():
    start = time.perf_counter()
    template = ModelParams(-1.0, -1.0, 1.4, 1.0)
    t_zero, _ = solve_boundary_on_line(BoundaryKind.ZERO, template, "B", (0.5, 1.0))
    t_equal, _ = solve_boundary_on_line(
        BoundaryKind.EQUAL_ENDPOINTS, template, "B", (0.5, 1.0)
    )
    t_half, _ = solve_boundary_on_line(BoundaryKind.HALF_PI, template, "B", (0.5, 0.7))
    curve = trace_boundary(
        BoundaryKind.ZERO, template, "B", 0.5, 1e-4, 0.05,
        classify=False, first_bracket=(0.7, 1.1),
    )
    t_asym = curve.points[-1][0]
    elapsed = time.perf_counter() - start
    ok = (
        abs(t_zero - 0.742967) < 1e-3
        and abs(t_equal - 0.684237) < 1e-3
        and abs(t_half - 0.6275) < 1e-3
        and curve.complete
        and abs(t_asym - 0.91758) < 1e-3
        and elapsed < 10.0
    )
    _report(
        3, "landmark roots", ok,
        f"zero={t_zero:.6f} equal={t_equal:.6f} halfpi={t_half:.6f} "
        f"asym={t_asym:.6f} elapsed={elapsed:.2f}s",
    )


def test_04_jump_table_and_triple_point():
    rows = [
        (1.7, 0.64533, 1.30773),
        (1.8, 0.64193, 0.86605),
        (1.9, 0.63329, 0.64026),
        (2.0, 0.61883, 0.48104),
    ]
    details = []
    ok = True
    for b, want_t, want_jump in rows:
        template = ModelParams(-1.0, -1.5, b, 0.6)
        t_half, _ = solve_boundary_on_line(
            BoundaryKind.HALF_PI, template, "B", (0.4, 0.9)
        )
        t_cross, _ = solve_boundary_on_line(
            BoundaryKind.ZERO_PRIME, template, "B",
            (t_half + 1e-4, t_half + 0.2), n_scan=801,
        )
        jump = optimal_angle_jump(
            ModelParams(-1.0, -1.5, b, t_cross + 1e-5),
            ModelParams(-1.0, -1.5, b, t_cross - 1e-5),
            n=801,
        )
        ok = ok and abs(t_cross - want_t) < 1e-3 and abs(jump - want_jump) < 2e-3
        details.append(f"B={b}: T={t_cross:.5f} jump={jump:.5f}")

    template = ModelParams(-1.0, -1.5, 1.7, 0.6)
    c_eq = trace_boundary(
        BoundaryKind.EQUAL_ENDPOINTS, template, "B", 1.4, 2.0, 0.02,
        classify=False, first_bracket=(0.4, 0.9),
    )
    c_hp = trace_boundary(
        BoundaryKind.HALF_PI, template, "B", 1.4, 2.0, 0.02,
        classify=False, first_bracket=(0.4, 0.9),
    )
    point = find_triple_point([c_eq, c_hp])
    ok = ok and point is not None
    if point is not None:
        jump = optimal_angle_jump(
            ModelParams(-1.0, -1.5, point.B, point.T + 1e-5),
            ModelParams(-1.0, -1.5, point.B, point.T - 1e-5),
            n=801,
        )
        ok = (
            ok
            and abs(point.T - 0.6454108) < 1e-3
            and abs(point.B - 1.6851637) < 1e-3
            and abs(jump - 1.570782) < 2e-3
        )
        details.append(f"triple=({point.T:.6f},{point.B:.6f}) jump={jump:.5f}")
    _report(4, "jump table and triple point", ok, "; ".join(details))


def test_05_triple_points_normalized_on_jz():
    cases = [
        (0.5, 0.313637, 1.12742, (1.0, 1.35)),
        (0.2, 0.1244107, 1.055204, (0.98, 1.15)),
    ]
    ok = True
    details = []
    for j, want_t, want_b, (b_lo, b_hi) in cases:
        template = ModelParams(j, -1.0, b_lo, 0.3)
        c_eq = trace_boundary(
            BoundaryKind.EQUAL_ENDPOINTS, template, "B", b_lo, b_hi, 0.01,
            classify=False, first_bracket=(0.02, 0.8),
        )
        c_hp = trace_boundary(
            BoundaryKind.HALF_PI, template, "B", b_lo, b_hi, 0.01,
            classify=False, first_bracket=(0.02, 0.8),
        )
        point = find_triple_point([c_eq, c_hp])
        good = (
            point is not None
            and abs(point.T - want_t) < 1e-3
            and abs(point.B - want_b) < 1e-3
        )
        ok = ok and good
        details.append(
            f"|J|/|Jz|={j}: "
            + ("none" if point is None else f"({point.T:.6f},{point.B:.6f})")
        )
    _report(5, "triple points on |Jz| scale", ok, "; ".join(details))


def test_06_xx_limit():
    residuals = [
        abs(xx_boundary_residual(ModelParams(1.0, 0.0, 1.0, t)))
        for t in (0.1, 0.3, 0.7, 1.5)
    ]
    line = trace_boundary(
        BoundaryKind.ZERO, ModelParams(1.0, 0.0, 1.0, 0.5), "T",
        0.05, 2.0, 0.15, classify=False, first_bracket=(0.3, 1.7),
    )
    line_err = max(abs(b - 1.0) for _, b in line.points)
    dip = trace_boundary(
        BoundaryKind.HALF_PI, ModelParams(1.0, 0.0, 1.0, 0.5), "T",
        0.35, 0.46, 0.002, classify=False, first_bracket=(0.3, 1.2),
    )
    bs = np.array([pt[1] for pt in dip.points])
    ts = np.array([pt[0] for pt in dip.points])
    k = int(bs.argmin())
    ok = (
        max(residuals) < 1e-10
        and line.complete
        and line_err <= 1e-6
        and abs(ts[k] - 0.404) < 2e-3
        and abs(bs[k] - 0.7716) < 2e-3
    )
    _report(
        6, "xx limit", ok,
        f"max_residual={max(residuals):.2e} line_err={line_err:.2e} "
        f"dip=({ts[k]:.4f},{bs[k]:.4f})",
    )


def test_07_fidelity_landmarks():
    f1 = fidelity(
        thermal_state(ModelParams(1.0, -1.0, 1.8323, 0.5444)),
        thermal_state(ModelParams(1.0, -1.0, 1.6164, 0.4765)),
    )
    f2 = fidelity(
        thermal_state(ModelParams(1.0, 0.0, 0.7716, 0.404)),
        thermal_state(ModelParams(1.0, 0.0, 1.0, 0.404)),
    )
    ok = abs(f1 - 0.985645) < 1e-4 and abs(f2 - 0.97994) < 1e-4
    _report(7, "fidelity landmarks", ok, f"F1={f1:.6f} F2={f2:.6f}")


def test_08_phase_census():
    grid = GridSpec(0.05, 2.0, 0.0001, 3.0, 50, 50)
    diagram = sweep(1.0, 1.5, grid)
    labels = {label for row in diagram.branch for label in row}
    all_zero = labels == {"Zero"}

    path = [
        optimize_deficit(ModelParams(-1.0, -1.0, 1.4, t)).branch
        for t in (1.0, 0.72, 0.4)
    ]
    sequence_ok = path == [Branch.ZERO, Branch.INTERIOR, Branch.HALF_PI]

    template = ModelParams(-1.0, -1.5, 1.2, 0.6)
    t_swap, _ = solve_boundary_on_line(
        BoundaryKind.EQUAL_ENDPOINTS, template, "B", (0.4, 0.7)
    )
    above = optimize_deficit(ModelParams(-1.0, -1.5, 1.2, t_swap + 1e-4)).branch
    below = optimize_deficit(ModelParams(-1.0, -1.5, 1.2, t_swap - 1e-4)).branch
    jump = optimal_angle_jump(
        ModelParams(-1.0, -1.5, 1.2, t_swap + 1e-5),
        ModelParams(-1.0, -1.5, 1.2, t_swap - 1e-5),
    )
    swap_ok = (
        abs(t_swap - 0.54836) < 1e-3
        and above is Branch.ZERO
        and below is Branch.HALF_PI
        and abs(jump - math.pi / 2.0) < 2e-3
    )
    ok = all_zero and sequence_ok and swap_ok
    _report(
        8, "phase census", ok,
        f"labels={sorted(labels)} path={[b.value for b in path]} "
        f"t_swap={t_swap:.5f} jump={jump:.6f}",
    )


def test_09_global_properties():
    rng = np.random.default_rng(9)
    thetas = np.linspace(0.0, math.pi / 2.0, 101)
    ok = True
    worst_gap = 0.0
    worst_entropy = 0.0
    worst_flip = 0.0
    for _ in range(150):
        p = random_params(rng)
        res = optimize_deficit(p)
        ok = ok and 0.0 <= res.deficit <= LN2 + 1e-12
        state = thermal_state(p)
        base = pre_measurement_entropy(state)
        gap = float((entropy_curve(state, thetas) - base).min())
        worst_gap = min(worst_gap, gap)
        worst_entropy = max(worst_entropy, abs(base - thermodynamic_entropy(p)))
        flipped = optimize_deficit(ModelParams(-p.J, p.Jz, p.B, p.T))
        worst_flip = max(worst_flip, abs(res.deficit - flipped.deficit))
    ok = ok and worst_gap >= -1e-12 and worst_entropy < 1e-10 and worst_flip <= 1e-12
    _report(
        9, "global properties", ok,
        f"min_gap={worst_gap:.2e} entropy_diff={worst_entropy:.2e} "
        f"J_flip={worst_flip:.2e}",
    )


def test_10_sweep_determinism(tmp_path, capsys):
    args = [
        "diagram", "--J", "-1", "--Jz", "-1",
        "--T-range", "0.2:1.2", "--B-range", "0.2:2.2", "--grid", "16x12",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_c = tmp_path / "c.csv"
    rc_a = cli_main(args + ["--workers", "1", "--out", str(path_a)])
    rc_b = cli_main(args + ["--workers", "3", "--out", str(path_b)])
    capsys.readouterr()
    # the same command in a fresh process: no state carries over between
    # ``cli_main`` calls in one process
    src = os.path.dirname(os.path.dirname(xxz_deficit.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "xxz_deficit.cli", *args, "--workers", "1",
         "--out", str(path_c)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    identical = path_a.read_bytes() == path_b.read_bytes() == path_c.read_bytes()
    _report(
        10, "sweep determinism",
        rc_a == 0 and rc_b == 0 and fresh.returncode == 0 and identical,
        f"bytes={path_a.stat().st_size} fresh_stderr={fresh.stderr!r}",
    )
