import dataclasses
import math

import numpy as np
import pytest

from xxz_deficit import boundaries
from xxz_deficit.boundaries import (
    AmbiguousBracket,
    BoundaryCurve,
    BoundaryKind,
    NoRoot,
    UnresolvedResidual,
    _scan_cells,
    _scan_line,
    boundary_residual,
    curve_to_csv,
    find_triple_point,
    solve_boundary_on_line,
    trace_boundary,
    xx_boundary_residual,
)
from xxz_deficit.measurement import second_derivative_at_0
from xxz_deficit.model import ModelParams, thermal_state

from finite_differences import fd_second_derivative_at_0, fd_second_derivative_at_halfpi


class TestSolveOnLine:
    @pytest.mark.parametrize(
        "kind,want,bracket",
        [
            (BoundaryKind.ZERO, 0.742967, (0.5, 1.0)),
            (BoundaryKind.EQUAL_ENDPOINTS, 0.684237, (0.5, 1.0)),
            (BoundaryKind.HALF_PI, 0.6275, (0.5, 0.7)),
        ],
    )
    def test_landmark_roots(self, kind, want, bracket):
        p = ModelParams(-1.0, -1.0, 1.4, 1.0)
        t, b = solve_boundary_on_line(kind, p, "B", bracket)
        assert b == 1.4
        assert t == pytest.approx(want, abs=1e-4)
        assert abs(boundary_residual(kind, ModelParams(-1, -1, 1.4, t))) <= 1e-8

    def test_no_root_raises(self):
        with pytest.raises(NoRoot):
            solve_boundary_on_line(
                BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B", (0.9, 1.2)
            )

    def test_ambiguous_bracket_raises_with_cells(self):
        with pytest.raises(AmbiguousBracket) as err:
            solve_boundary_on_line(
                BoundaryKind.HALF_PI, ModelParams(-1, -1.5, 1.4, 0.5), "B", (0.02, 3.0)
            )
        assert len(err.value.cells) >= 2

    def test_solving_in_field_direction(self):
        # the XX boundary sits exactly at B = |J| at any temperature
        p = ModelParams(1.0, 0.0, 1.0, 0.7)
        t, b = solve_boundary_on_line(BoundaryKind.ZERO, p, "T", (0.5, 1.5))
        assert t == 0.7
        assert b == pytest.approx(1.0, abs=1e-6)

    def test_interior_crossing_root(self):
        p = ModelParams(-1.0, -1.5, 1.9, 0.6)
        t, _ = solve_boundary_on_line(
            BoundaryKind.ZERO_PRIME, p, "B", (0.597, 0.8), n_scan=801
        )
        assert t == pytest.approx(0.63329, abs=1e-4)

    def test_interior_crossing_coincides_with_zero_boundary_when_continuous(self):
        p = ModelParams(-1.0, -1.0, 1.4, 1.0)
        t29, _ = solve_boundary_on_line(BoundaryKind.ZERO, p, "B", (0.5, 1.0))
        t33, _ = solve_boundary_on_line(
            BoundaryKind.ZERO_PRIME, p, "B", (0.65, 0.8), n_scan=2001
        )
        assert abs(t29 - t33) < 1e-5


class TestRootsConfirmedByFiniteDifferences:
    def test_zero_boundary_roots(self):
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 0.8, 0.1, classify=False,
        )
        for t, b in curve.points:
            lo = fd_second_derivative_at_0(thermal_state(ModelParams(-1, -1, b, t - 5e-5)))
            hi = fd_second_derivative_at_0(thermal_state(ModelParams(-1, -1, b, t + 5e-5)))
            assert (lo < 0.0) != (hi < 0.0)

    def test_halfpi_boundary_roots(self):
        curve = trace_boundary(
            BoundaryKind.HALF_PI, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1.0, 0.1, classify=False, first_bracket=(0.4, 0.9),
        )
        for t, b in curve.points:
            lo = fd_second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1, b, t - 5e-5))
            )
            hi = fd_second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1, b, t + 5e-5))
            )
            assert (lo < 0.0) != (hi < 0.0)


def _reference_scan(kind, p, coord, lo, hi, n_scan=401):
    """The scan point by point: one scalar boundary_residual per point,
    signs compared pair by pair."""
    xs = [float(x) for x in np.linspace(lo, hi, 65)]
    vals = [
        boundary_residual(kind, dataclasses.replace(p, **{coord: x}), n_scan)
        for x in xs
    ]
    sign = [(v > 0.0) - (v < 0.0) for v in vals]
    cells = [
        (xs[i], xs[i + 1])
        for i in range(64)
        if sign[i] * sign[i + 1] < 0
        and (math.isfinite(vals[i]) or math.isfinite(vals[i + 1]))
    ]
    exact = next(
        (xs[i] for i in range(1, 64) if vals[i] == 0.0 and sign[i - 1] * sign[i + 1] < 0),
        None,
    )
    if not cells and exact is None and 0.0 in vals:
        raise UnresolvedResidual("exact zero without a sign change")
    return cells, exact


def _array_scan(kind, p, coord, lo, hi, n_scan=401):
    return _scan_line(kind, p, coord, np.linspace(lo, hi, 65).tolist(), n_scan)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (NoRoot, ValueError) as err:
        return type(err)


class TestArrayScan:
    def test_cells_equal_the_point_by_point_scan(self):
        # every tenth line is zeroprime, whose scan is bitwise the scalar
        # one by construction; half the lines lie in T in [1e-3, 0.1],
        # where exact zeros and underflow occur
        rng = np.random.default_rng(11)
        closed = [BoundaryKind.ZERO, BoundaryKind.HALF_PI, BoundaryKind.EQUAL_ENDPOINTS]
        seen = set()
        for i in range(900):
            kind = BoundaryKind.ZERO_PRIME if i % 10 == 9 else closed[i % 3]
            t_min, t_max = (1e-3, 0.1) if i % 2 else (0.03, 2.5)
            J, Jz = rng.uniform(-2.0, 2.0, 2)
            if rng.random() < 0.5:
                coord, ends = "T", rng.uniform(t_min, t_max, 2)
                p = ModelParams(J, Jz, rng.uniform(0.0, 3.0), 0.5)
            else:
                coord, ends = "B", rng.uniform(0.0, 3.0, 2)
                p = ModelParams(J, Jz, 0.5, rng.uniform(t_min, t_max))
            lo, hi = sorted(ends)
            want = _outcome(_reference_scan, kind, p, coord, lo, hi)
            got = _outcome(_array_scan, kind, p, coord, lo, hi)
            assert got == want, (kind, p, coord, lo, hi)
            if isinstance(want, tuple):
                seen.add((kind, min(len(want[0]), 2), want[1] is not None))
            else:
                seen.add((kind, want))
        # the draws reach every outcome the scan has
        assert (BoundaryKind.ZERO_PRIME, 1, False) in seen
        for kind in closed:
            assert (kind, 1, False) in seen
        assert any(key[1:] == (2, False) for key in seen)
        assert (BoundaryKind.ZERO, UnresolvedResidual) in seen
        assert (BoundaryKind.EQUAL_ENDPOINTS, UnresolvedResidual) in seen
        assert any(key[-1] is True for key in seen)

    def test_noise_band_line_equals_the_point_by_point_scan(self):
        # halfpi residuals of about 1e-15 change sign between neighbouring
        # scan points here
        p = ModelParams(-1.19, -1.659, 0.517, 0.5)
        want = _reference_scan(BoundaryKind.HALF_PI, p, "T", 0.06, 0.064)
        assert len(want[0]) == 2
        assert _array_scan(BoundaryKind.HALF_PI, p, "T", 0.06, 0.064) == want

    @pytest.mark.parametrize(
        "J, Jz, B, lo, hi",
        [
            (-1.19, -1.659, 0.517, 0.06, 0.064),  # every value near zero
            (-1.0, -1.0, 1.2, 0.3, 1.5),  # one sign change, values far from zero
        ],
    )
    def test_wrong_array_signs_are_mended_by_the_scalar_residual(
        self, monkeypatch, J, Jz, B, lo, hi
    ):
        # the array pass is made to return a wrong sign at the first sign
        # change and at every value below 1e-9; the scan must still
        # equal the point-by-point one
        kind = BoundaryKind.HALF_PI
        p = ModelParams(J, Jz, B, 0.5)
        want = _reference_scan(kind, p, "T", lo, hi)
        assert want[0]
        line_values = boundaries._line_values

        def wrong_signs(*args):
            values = line_values(*args)
            first = int(np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0])
            values[first + 1] *= -1.0
            values[np.abs(values) <= 1e-9] *= -1.0
            return values

        monkeypatch.setattr(boundaries, "_line_values", wrong_signs)
        assert _array_scan(kind, p, "T", lo, hi) == want

    def test_low_temperature_zero_line_is_unresolved_on_both_paths(self):
        p = ModelParams(-1, -1, 1.0, 0.5)
        for scan in (_reference_scan, _array_scan):
            with pytest.raises(UnresolvedResidual):
                scan(BoundaryKind.ZERO, p, "T", 0.0025, 0.5)

    def test_exact_zero_is_a_root_only_between_opposite_signs(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert _scan_cells(xs, np.array([-1.0, 0.0, 2.0, 3.0])) == ([], 1.0)
        for values in ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0, 3.0], [-1.0, 0.0, 0.0, 3.0]):
            with pytest.raises(UnresolvedResidual):
                _scan_cells(xs, np.array(values))
        # a sign-change cell takes precedence over an uncertified zero
        assert _scan_cells(xs, np.array([0.0, 1.0, -2.0, -3.0])) == ([(1.0, 2.0)], None)
        # a cell between two infinities certifies no crossing
        assert _scan_cells(xs, np.array([-1.0, math.inf, -math.inf, 1.0])) == (
            [(0.0, 1.0), (2.0, 3.0)], None
        )


class TestUnresolvedResidual:
    def test_underflowed_zero_residual_is_a_typed_failure(self):
        p = ModelParams(-1, -1, 1.0, 0.0025)
        with pytest.raises(UnresolvedResidual):
            boundary_residual(BoundaryKind.ZERO, p)
        with pytest.raises(NoRoot):
            solve_boundary_on_line(BoundaryKind.ZERO, p, "T", (0.5, 1.5))

    def test_degenerate_halfpi_residual_is_a_typed_failure(self):
        # at J = 0 and B = 0 the state has r = 0, where the halfpi closed
        # form is 0/0; at B = 0.5 r falls below 1e-12 just under T = 0.02
        with pytest.raises(UnresolvedResidual):
            boundary_residual(BoundaryKind.HALF_PI, ModelParams(0, -1, 0.0, 0.5))
        with pytest.raises(UnresolvedResidual):
            solve_boundary_on_line(
                BoundaryKind.HALF_PI, ModelParams(0, -1, 0.5, 0.5), "B", (0.01, 1.0)
            )


class TestTraceBoundary:
    def test_late_first_root_marks_the_curve_partial(self):
        curve = trace_boundary(
            BoundaryKind.HALF_PI, ModelParams(-1, -1, 0.0, 0.5), "B",
            0.0, 1.0, 0.1, classify=False, first_bracket=(0.4, 0.9),
        )
        assert not curve.complete
        assert curve.marched_values()[0] == pytest.approx(0.4)
        assert curve.marched_values()[-1] == pytest.approx(1.0)

    def test_march_reaches_the_low_field_asymptote(self):
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1e-4, 0.05, classify=False,
        )
        assert curve.complete
        assert curve.points[-1][1] == pytest.approx(1e-4)
        assert curve.points[-1][0] == pytest.approx(0.91758, abs=1e-3)

    def test_residuals_bounded_along_curve(self):
        curve = trace_boundary(
            BoundaryKind.EQUAL_ENDPOINTS, ModelParams(-1, -1.5, 1.4, 0.5), "B",
            1.4, 2.0, 0.05, classify=False, first_bracket=(0.4, 0.9),
        )
        assert curve.complete
        assert max(abs(r) for r in curve.residuals) <= 1e-8

    def test_march_keeps_the_sheet_nearest_the_previous_root(self):
        # the upper halfpi sheet folds near B = 1.0088; at its last
        # stations the seeded bracket also holds the lower sheet's root
        p = ModelParams(1.683, 0.386, B=1.396, T=0.5)
        curve = trace_boundary(
            BoundaryKind.HALF_PI, p, "B", 1.396, 0.796, 0.02,
            first_bracket=(0.15, 2.0), classify=False,
        )
        assert not curve.complete
        assert curve.marched_values()[-1] == pytest.approx(1.0088, abs=1e-3)
        ts = curve.solved_values()
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert max(abs(r) for r in curve.residuals) <= 1e-8
        last = ModelParams(1.683, 0.386, B=curve.marched_values()[-1], T=0.5)
        with pytest.raises(AmbiguousBracket):
            solve_boundary_on_line(
                BoundaryKind.HALF_PI, last, "B", (ts[-2] - 0.08, ts[-2] + 0.08)
            )

    def test_partial_curve_when_root_vanishes(self):
        curve = trace_boundary(
            BoundaryKind.ZERO_PRIME, ModelParams(-1, -1.5, 2.0, 0.6), "B",
            2.0, 1.5, 0.02, classify=False, first_bracket=(0.55, 0.75),
        )
        assert not curve.complete
        # terminates at the triple point where the crossing family ends
        assert min(curve.marched_values()) == pytest.approx(1.6851637, abs=5e-3)

    def test_physical_flags_distinguish_real_boundaries(self):
        # the zero-curvature line separates phases here
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1.2, 0.1,
        )
        assert all(curve.physical)
        # the equal-endpoints line lies inside the interior region here
        dotted = trace_boundary(
            BoundaryKind.EQUAL_ENDPOINTS, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1.2, 0.1,
        )
        assert not any(dotted.physical)

    def test_csv_round_trip(self):
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1.3, 0.05,
        )
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# kind=zero")
        assert lines[1] == "kind,T,B,residual,is_physical"
        first = lines[2].split(",")
        assert first[0] == "zero"
        assert float(first[1]) == pytest.approx(0.742967, abs=1e-4)
        assert first[4] in ("0", "1")


class TestTriplePoints:
    def test_strongly_ising_like_case(self):
        tmpl = ModelParams(-1.0, -1.5, 1.7, 0.6)
        c_eq = trace_boundary(
            BoundaryKind.EQUAL_ENDPOINTS, tmpl, "B", 1.4, 2.0, 0.02,
            classify=False, first_bracket=(0.4, 0.9),
        )
        c_hp = trace_boundary(
            BoundaryKind.HALF_PI, tmpl, "B", 1.4, 2.0, 0.02,
            classify=False, first_bracket=(0.4, 0.9),
        )
        c_zp = trace_boundary(
            BoundaryKind.ZERO_PRIME, tmpl, "B", 2.0, 1.6, 0.02,
            classify=False, first_bracket=(0.55, 0.75),
        )
        point = find_triple_point([c_eq, c_hp, c_zp])
        assert point is not None
        assert point.T == pytest.approx(0.6454108, abs=1e-3)
        assert point.B == pytest.approx(1.6851637, abs=1e-3)
        assert point.meeting_kinds == frozenset(
            {BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALF_PI, BoundaryKind.ZERO_PRIME}
        )

    def test_weak_transverse_coupling_normalized_on_jz(self):
        tmpl = ModelParams(0.5, -1.0, 1.1, 0.3)
        c_eq = trace_boundary(
            BoundaryKind.EQUAL_ENDPOINTS, tmpl, "B", 1.0, 1.35, 0.01,
            classify=False, first_bracket=(0.02, 0.8),
        )
        c_hp = trace_boundary(
            BoundaryKind.HALF_PI, tmpl, "B", 1.0, 1.35, 0.01,
            classify=False, first_bracket=(0.02, 0.8),
        )
        point = find_triple_point([c_eq, c_hp])
        assert point is not None
        assert point.T == pytest.approx(0.313637, abs=1e-3)
        assert point.B == pytest.approx(1.12742, abs=1e-3)

    def test_disjoint_curves_give_none(self):
        tmpl = ModelParams(-1.0, -1.0, 1.4, 1.0)
        c_zero = trace_boundary(
            BoundaryKind.ZERO, tmpl, "B", 1.3, 1.5, 0.05, classify=False,
        )
        c_hp = trace_boundary(
            BoundaryKind.HALF_PI, tmpl, "B", 1.3, 1.5, 0.05,
            classify=False, first_bracket=(0.4, 0.9),
        )
        assert find_triple_point([c_zero, c_hp]) is None

    def test_curves_without_points_give_none(self):
        empty = [
            BoundaryCurve(kind=kind, J=-1.0, Jz=-1.5, march="B")
            for kind in (BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALF_PI)
        ]
        assert find_triple_point(empty) is None

    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            find_triple_point([])


class TestXXLimit:
    def test_identity_on_the_line_b_equals_j(self):
        for t in (0.1, 0.3, 0.7, 1.5):
            assert abs(xx_boundary_residual(ModelParams(1.0, 0.0, 1.0, t))) < 1e-10

    def test_requires_vanishing_longitudinal_coupling(self):
        with pytest.raises(ValueError):
            xx_boundary_residual(ModelParams(1.0, 0.5, 1.0, 0.7))

    def test_off_the_line_sign_tracks_the_curvature(self):
        # the residual is a negative multiple of the endpoint curvature,
        # so their zero sets agree while their signs are opposite
        r = xx_boundary_residual(ModelParams(1.0, 0.0, 1.2, 0.7))
        sdd = second_derivative_at_0(thermal_state(ModelParams(1.0, 0.0, 1.2, 0.7)))
        assert r != 0.0
        assert (r < 0.0) and (sdd > 0.0)
        for b in (0.8, 0.9, 1.1, 1.3):
            res = xx_boundary_residual(ModelParams(1.0, 0.0, b, 0.7))
            cur = second_derivative_at_0(thermal_state(ModelParams(1.0, 0.0, b, 0.7)))
            assert (res < 0.0) == (cur > 0.0)

    def test_traced_boundary_is_the_straight_line(self):
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(1.0, 0.0, 1.0, 0.5), "T",
            0.05, 2.0, 0.15, classify=False, first_bracket=(0.3, 1.7),
        )
        assert curve.complete
        for _, b in curve.points:
            assert abs(b - 1.0) <= 1e-6

    def test_halfpi_curve_interior_minimum(self):
        curve = trace_boundary(
            BoundaryKind.HALF_PI, ModelParams(1.0, 0.0, 1.0, 0.5), "T",
            0.35, 0.46, 0.002, classify=False, first_bracket=(0.3, 1.2),
        )
        bs = np.array([pt[1] for pt in curve.points])
        ts = np.array([pt[0] for pt in curve.points])
        k = bs.argmin()
        assert ts[k] == pytest.approx(0.404, abs=2e-3)
        assert bs[k] == pytest.approx(0.7716, abs=2e-3)
