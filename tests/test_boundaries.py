import math

import numpy as np
import pytest

from xxz_deficit.boundaries import (
    AmbiguousBracket,
    BoundaryKind,
    NoRoot,
    UnresolvedResidual,
    boundary_residual,
    curve_to_csv,
    find_triple_point,
    solve_boundary_on_line,
    trace_boundary,
    xx_boundary_residual,
)
from xxz_deficit.measurement import (
    fd_second_derivative_at_0,
    fd_second_derivative_at_halfpi,
    second_derivative_at_0,
)
from xxz_deficit.model import ModelParams, thermal_state


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


class TestUnresolvedResidual:
    def test_underflowed_zero_residual_is_a_typed_failure(self):
        p = ModelParams(-1, -1, 1.0, 0.0025)
        with pytest.raises(UnresolvedResidual):
            boundary_residual(BoundaryKind.ZERO, p)
        with pytest.raises(NoRoot):
            solve_boundary_on_line(BoundaryKind.ZERO, p, "T", (0.5, 1.5))


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
