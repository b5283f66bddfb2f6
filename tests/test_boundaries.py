import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from xxz_deficit import boundaries
from xxz_deficit.boundaries import (
    AmbiguousBracket,
    BoundaryCurve,
    BoundaryKind,
    NoRoot,
    NoTriplePoint,
    UnresolvedResidual,
    _illinois,
    _scan_cells,
    _scan_line,
    boundary_residual,
    curve_to_csv,
    find_triple_point,
    solve_boundary_on_line,
    trace_boundary,
    trace_for_triple,
    xx_boundary_residual,
)
from xxz_deficit import optimizer
from xxz_deficit.cli import main
from xxz_deficit.measurement import (
    DegenerateState,
    PopulationUnderflow,
    branch_s0,
    branch_s_halfpi,
    second_derivative_at_0,
    second_derivative_at_halfpi,
)
from xxz_deficit.model import T_FLOOR, ModelParams, XThermalState, thermal_state
from xxz_deficit.optimizer import Shape, scan_profile

from finite_differences import fd_second_derivative_at_0, fd_second_derivative_at_halfpi
from scalar_reference import scalar_optimize


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

    def test_fixed_must_name_a_coordinate(self):
        with pytest.raises(ValueError, match="fixed must be 'T' or 'B'"):
            solve_boundary_on_line(
                BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "X", (0.5, 1.0)
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


def _line(p, coord, n_scan=401):
    """The scan line of ``coord`` through the point ``p``."""
    return boundaries._Line(p.J, p.Jz, coord, p.B if coord == "T" else p.T, n_scan)


def _array_scan(kind, p, coord, lo, hi, n_scan=401):
    xs = np.linspace(lo, hi, 65).tolist()
    if kind is BoundaryKind.ZERO_PRIME:
        return _scan_cells(xs, boundaries._crossing_line(_line(p, coord, n_scan), xs)[0])
    return _scan_cells(xs, _scan_line(kind, _line(p, coord), xs))


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

    def test_zeroprime_line_has_no_closed_form(self):
        # zeroprime line values come only from _crossing_line
        p = ModelParams(-1.0, -1.5, 1.9, 0.5)
        with pytest.raises(ValueError, match="zeroprime"):
            _scan_line(BoundaryKind.ZERO_PRIME, _line(p, "T"), [0.5, 0.6, 0.7])

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


def _object_residual(kind, p, n_scan=401):
    """A boundary residual through the objects: ``thermal_state``, the
    curvatures of an XThermalState, and the minima of a full
    ``scan_profile``."""
    s = thermal_state(p)
    if kind is BoundaryKind.ZERO:
        return second_derivative_at_0(s)
    if kind is BoundaryKind.HALF_PI:
        return second_derivative_at_halfpi(s)
    if kind is BoundaryKind.EQUAL_ENDPOINTS:
        return branch_s0(s) - branch_s_halfpi(s)
    minima = scan_profile(s, n_scan).interior_minima
    return boundaries._crossing_gap(branch_s0(s), branch_s_halfpi(s), minima)


def _draws():
    """(J, Jz, B, T) over the box, around the bimodal landmark, at low T
    and in strong fields."""
    rng = np.random.default_rng(1911)
    box = [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 3), rng.uniform(0.01, 2))
        for _ in range(300)
    ]
    bimodal = [
        (-1.0, -1.5, rng.uniform(1.8, 2.0), rng.uniform(0.6, 0.66)) for _ in range(30)
    ]
    low_t = [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 3), 10 ** rng.uniform(-4, -2))
        for _ in range(30)
    ]
    strong = [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(3, 60), rng.uniform(0.01, 2))
        for _ in range(30)
    ]
    return box + bimodal + low_t + strong


class TestFloatResidual:
    """``_residual_at`` works on plain floats; every value and error
    equals the object route's."""

    def test_bit_identical_to_the_object_route(self):
        seen = set()
        for J, Jz, B, T in _draws():
            p = ModelParams(J, Jz, B, T)
            for kind in (BoundaryKind.ZERO, BoundaryKind.HALF_PI, BoundaryKind.EQUAL_ENDPOINTS):
                try:
                    want = _object_residual(kind, p)
                except (PopulationUnderflow, DegenerateState) as err:
                    with pytest.raises(UnresolvedResidual) as got:
                        boundaries._residual_at(kind, J, Jz, B, T)
                    assert str(got.value) == f"{kind.value} at T={T!r}, B={B!r}: {err}"
                    assert type(got.value.__cause__) is type(err)
                    seen.add(type(err).__name__)
                    continue
                got = boundaries._residual_at(kind, J, Jz, B, T)
                assert float.hex(got) == float.hex(want), (kind, J, Jz, B, T)
                assert float.hex(boundary_residual(kind, p)) == float.hex(want)
            for n in (401, 801):
                want = _object_residual(BoundaryKind.ZERO_PRIME, p, n)
                got = boundaries._residual_at(BoundaryKind.ZERO_PRIME, J, Jz, B, T, n)
                assert float.hex(got) == float.hex(want), (J, Jz, B, T, n)
                shape = scan_profile(thermal_state(p), n).shape
                seen.add(str(got) if math.isinf(got) else shape.value)
        assert {"inf", "-inf", "Bimodal", "UnimodalMin", "PopulationUnderflow"} <= seen

    def test_line_values_equal_the_scalar_zeroprime_residual(self):
        p = ModelParams(-1.0, -1.5, 1.9, 0.5)
        xs = np.linspace(0.55, 0.7, 65).tolist()
        values = boundaries._crossing_line(_line(p, "T"), xs)[0]
        for x, v in zip(xs, values.tolist()):
            want = _object_residual(BoundaryKind.ZERO_PRIME, ModelParams(-1.0, -1.5, 1.9, x))
            assert float.hex(v) == float.hex(want)

    def test_underflow_keeps_its_message(self):
        with pytest.raises(UnresolvedResidual) as got:
            boundaries._residual_at(BoundaryKind.ZERO, -1.0, -1.0, 1.0, 0.0025)
        assert str(got.value).startswith("zero at T=0.0025, B=1.0: population below 1e-300 (a=")
        assert isinstance(got.value.__cause__, PopulationUnderflow)

    def test_degenerate_state_keeps_its_message(self):
        # J = B = 0: a = d and v = 0, so r = 0
        with pytest.raises(UnresolvedResidual) as got:
            boundaries._residual_at(BoundaryKind.HALF_PI, 0.0, -1.0, 0.0, 0.5)
        assert str(got.value) == (
            "halfpi at T=0.5, B=0.0: r = 0: the closed form is 0/0 (its limit is"
            " -(1 - 4b)^2)"
        )
        assert isinstance(got.value.__cause__, DegenerateState)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "coord,x",
        [("T", -0.1), ("T", math.nan), ("T", math.inf), ("B", math.inf), ("B", -math.inf),
         ("B", math.nan)],
    )
    def test_bad_coordinate_gives_the_model_error(self, kind, coord, x):
        p = ModelParams(-1.0, -1.0, 1.4, 0.7)
        with pytest.raises(ValueError) as want:
            dataclasses.replace(p, **{coord: x})
        f = _line(p, coord).residual(kind)
        with pytest.raises(ValueError) as got:
            f(x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_temperature_below_the_floor_is_clamped_with_the_warning(self, kind):
        p = ModelParams(-1.0, -1.0, 0.5, 0.7)
        f = _line(p, "T").residual(kind)
        with pytest.warns(UserWarning) as want:
            q = ModelParams(-1.0, -1.0, 0.5, 5e-9)
        assert q.T == T_FLOOR
        with pytest.warns(UserWarning) as got:
            try:
                value = f(5e-9)
            except UnresolvedResidual as err:
                value = str(err)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert [w.filename for w in got] == [w.filename for w in want] == [__file__]
        try:
            floor = boundaries._residual_at(kind, -1.0, -1.0, 0.5, T_FLOOR)
        except UnresolvedResidual as err:
            floor = str(err)
        assert value == floor

    def test_zeroprime_solve_below_zero_names_the_bracket_end(self):
        # no scan runs: the error is ModelParams' for the lower end
        p = ModelParams(-1.0, -1.0, 1.4, 0.7)
        with pytest.raises(ValueError) as want:
            ModelParams(-1.0, -1.0, 1.4, -1.0)
        with pytest.raises(ValueError) as got:
            solve_boundary_on_line(BoundaryKind.ZERO_PRIME, p, "B", (-1.0, -0.5))
        assert str(got.value) == str(want.value)
        assert str(got.value) == "temperature must be positive, got -1.0"

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "bracket,error,message",
        [
            ((-1.0, -0.5), ValueError, "temperature must be positive, got -1.0"),
            ((-0.5, -1.0), ValueError, "temperature must be positive, got -1.0"),
            ((-1.0, 1e-9), ValueError, "temperature must be positive, got -1.0"),
            ((0.0, 1e-9), NoRoot, None),
            # a scan takes its points as valid: a bracket end that is not
            # finite fails before the scan, as it did when each point was
            # checked
            ((math.nan, 0.9), ValueError, "bracket ends must be finite, got (nan, 0.9)"),
            ((0.4, math.inf), ValueError, "bracket ends must be finite, got (0.4, inf)"),
            ((-math.inf, 0.9), ValueError, "bracket ends must be finite, got (-inf, 0.9)"),
        ],
    )
    def test_bracket_below_the_lowest_temperature_fails_before_any_scan(
        self, monkeypatch, kind, bracket, error, message
    ):
        # below 2 * T_FLOOR nothing is solvable: the solve fails at once,
        # the same way for all four kinds, and clamps no point (a warning
        # would fail the test)
        evaluated = []
        for name in ("_residual_at", "_line_values", "_crossing_gaps"):
            monkeypatch.setattr(boundaries, name, lambda *args: evaluated.append(args))
        with pytest.raises(error) as got:
            solve_boundary_on_line(kind, ModelParams(-1.0, -1.0, 1.4, 0.7), "B", bracket)
        if message is None:
            assert type(got.value) is NoRoot
        else:
            assert str(got.value) == message
        assert evaluated == []

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("fixed", ["T", "B"])
    def test_a_bracket_of_infinite_width_fails_before_any_scan(self, monkeypatch, kind, fixed):
        # each end is finite, but the scan points overflow: numpy warned and
        # the states failed ("Gibbs weights must be finite"), or no root
        evaluated = []
        for name in ("_residual_at", "_line_values", "_crossing_gaps"):
            monkeypatch.setattr(boundaries, name, lambda *args: evaluated.append(args))
        with pytest.raises(ValueError) as got:
            solve_boundary_on_line(kind, ModelParams(-1.0, -1.5, 1.0, 0.6), fixed, (-1e308, 1e308))
        assert str(got.value) == "bracket must be of finite width, got (-1e+308, 1e+308)"
        assert evaluated == []

    @pytest.mark.parametrize("coord", ["T", "B"])
    def test_line_states_equal_the_scalar_states(self, coord):
        # one exact pass per line: the scalar entries' XThermalState, r
        # included, bit for bit
        rng = np.random.default_rng(23)
        for J, Jz, B, T in _draws()[::10]:
            line = _line(ModelParams(J, Jz, B, T), coord)
            x = T if coord == "T" else B
            xs = (x * rng.uniform(0.5, 1.5, 9)).tolist()
            st = line.states(xs)
            for k, x in enumerate(xs):
                want = XThermalState(*line.entries(x))
                got = [float(getattr(st, f)[k]).hex() for f in "abdvr"]
                assert got == [float(getattr(want, f)).hex() for f in "abdvr"]


def _residual_outcome(fn, *args):
    """What ``fn(*args)`` does: its value by hex or its error's type and
    message, and the message, file and category of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = float.hex(fn(*args))
        except (NoRoot, ValueError) as err:
            outcome = (type(err), str(err))
    return outcome, [(str(w.message), w.filename, w.category) for w in caught]


class TestLineResidual:
    """``_Line.residual`` checks x with one comparison and calls
    ``_residual_at`` with the fixed coordinate bound once; every value,
    error and warning equals ``boundary_residual``'s on ModelParams."""

    @pytest.mark.parametrize(
        "kind",
        [BoundaryKind.ZERO, BoundaryKind.HALF_PI, BoundaryKind.EQUAL_ENDPOINTS],
        ids=lambda k: k.value,
    )
    @pytest.mark.parametrize("coord", ["T", "B"])
    def test_equals_the_residual_of_model_params(self, kind, coord):
        rng = np.random.default_rng(27)
        n = 2000
        J, Jz = rng.uniform(-2.0, 2.0, (2, n))
        B = rng.uniform(-3.0, 3.0, n)
        B[:200] = rng.uniform(3.0, 60.0, 200)
        T = 10.0 ** rng.uniform(-4.0, 1.0, n)
        T[200:250] = T_FLOOR
        B[250:300] = 0.0
        J[280:350] = 0.0  # with B = 0 up to 300: r = 0
        seen = set()
        for point in zip(J.tolist(), Jz.tolist(), B.tolist(), T.tolist()):
            p = ModelParams(*point)
            line = _line(p, coord)
            f = line.residual(kind)
            got = _residual_outcome(f, p.T if coord == "T" else p.B)
            assert got == _residual_outcome(boundary_residual, kind, p), point
            seen.add(type(got[0]).__name__)
        # values, and the unresolved residuals of zero (populations below
        # 1e-300) and halfpi (r = 0); equal has a value everywhere
        assert seen == ({"str"} if kind is BoundaryKind.EQUAL_ENDPOINTS else {"str", "tuple"})

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "coord,x",
        [("T", math.nan), ("T", math.inf), ("T", -math.inf), ("T", -0.5), ("T", -0.0),
         ("T", 0.0), ("T", 5e-9), ("T", math.nextafter(T_FLOOR, 0.0)), ("T", T_FLOOR),
         ("B", math.nan), ("B", math.inf), ("B", -math.inf)],
    )
    def test_raises_and_warns_as_the_residual_of_model_params(self, kind, coord, x):
        fields = dict(J=-1.0, Jz=-1.0, B=0.5, T=0.7)
        got = _residual_outcome(_line(ModelParams(**fields), coord).residual(kind), x)
        want = _residual_outcome(
            lambda: boundary_residual(kind, ModelParams(**{**fields, coord: x}))
        )
        assert got == want
        if math.isfinite(x) and 0.0 <= x < T_FLOOR:
            ((message, filename, _),) = got[1]
            assert message.endswith("below the floor; clamped to 1e-08")
            assert filename == __file__  # the caller of the line's residual
        elif not (math.isfinite(x) and x >= 0.0):
            assert got[0][0] is ValueError and got[1] == []

    @pytest.mark.parametrize(
        "kind,J,B,T",
        [(BoundaryKind.ZERO, -1.0, 1.0, 0.0025), (BoundaryKind.HALF_PI, 0.0, 0.0, 0.5)],
        ids=["population-underflow", "degenerate-state"],
    )
    @pytest.mark.parametrize("coord", ["T", "B"])
    def test_an_unresolved_residual_keeps_its_message(self, kind, J, B, T, coord):
        p = ModelParams(J, -1.0, B, T)
        got = _residual_outcome(_line(p, coord).residual(kind), p.T if coord == "T" else p.B)
        assert got == _residual_outcome(boundary_residual, kind, p)
        (error, message), caught = got
        assert error is UnresolvedResidual and caught == []
        assert message.startswith(f"{kind.value} at T={T!r}, B={B!r}: ")


class TestNoStatePerPoint:
    """Counts that do not depend on the machine."""

    @pytest.mark.parametrize(
        "kind,bracket",
        [
            (BoundaryKind.ZERO, (0.5, 1.0)),
            (BoundaryKind.EQUAL_ENDPOINTS, (0.5, 1.0)),
            (BoundaryKind.HALF_PI, (0.5, 0.7)),
        ],
    )
    def test_closed_form_line_solve_builds_no_thermal_state(self, monkeypatch, kind, bracket):
        built = []
        check = XThermalState.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(XThermalState, "__post_init__", counted)
        p = ModelParams(-1.0, -1.0, 1.4, 1.0)
        t, _ = solve_boundary_on_line(kind, p, "B", bracket)
        assert built == []
        thermal_state(ModelParams(-1.0, -1.0, 1.4, t))
        assert len(built) == 1  # the count sees a state when one is built

    def test_zeroprime_refines_only_minima(self, monkeypatch):
        p = ModelParams(-1.0, -1.5, 1.9, 0.628)
        assert scan_profile(thermal_state(p), 401).shape is Shape.BIMODAL
        signs = []
        refine = optimizer._refine_extremum

        def counted(s, sign, lo, hi):
            signs.append(sign)
            return refine(s, sign, lo, hi)

        monkeypatch.setattr(optimizer, "_refine_extremum", counted)
        value = boundary_residual(BoundaryKind.ZERO_PRIME, p)
        assert signs == [1.0]
        signs.clear()
        xs = np.linspace(0.6, 0.66, 65).tolist()
        boundaries._crossing_line(_line(p, "T"), xs)[0]
        assert signs and set(signs) == {1.0}
        monkeypatch.undo()
        assert float.hex(value) == float.hex(_object_residual(BoundaryKind.ZERO_PRIME, p))


    def test_triple_traces_only_to_the_crossing(self, monkeypatch):
        # the two curves stop at the cell where they cross (16 stations
        # each of 31), and the point costs one Newton solve: tracing the
        # whole span and bisecting took 62 stations and 569 residuals
        calls = []
        residual = boundaries._residual_at

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(boundaries, "_residual_at", counted)
        curves, point = _triple_run((-1.0, -1.5), (1.4, 2.0, 0.02), (0.05, 1.2), "equal,halfpi")
        assert point is not None
        assert sum(len(c.points) for c in curves) <= 32
        assert len(calls) <= 225


def _refine(f, lo, hi, ftol=1e-8):
    """``_illinois`` on f over [lo, hi], with the points it evaluated."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return _illinois(g, lo, hi, ftol, f(lo), f(hi)), points


def _certified(f, x):
    """A sign change of f across x +- 1e-7 (an exact zero counts)."""
    return f(x) == 0.0 or (f(x - 1e-7) < 0.0) != (f(x + 1e-7) < 0.0)


class TestIllinoisRefine:
    ROOT = 0.3141592653589793

    def test_halving_steps_while_an_end_is_infinite(self):
        # the zeroprime residual is -inf or +inf where no interior minimum exists
        def f(x):
            return -math.inf if x < 0.9 else x - 0.95

        (x, fx), points = _refine(f, 0.0, 1.0)
        assert points[:4] == [0.5, 0.75, 0.875, 0.9375]
        assert abs(fx) <= 1e-8 and _certified(f, x)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: 1e4 * (x - TestIllinoisRefine.ROOT),  # steep
            lambda x: 1e-3 * (x - TestIllinoisRefine.ROOT),  # nearly flat
            lambda x: 1e-2 * (x - TestIllinoisRefine.ROOT) ** 3
            + 1e-5 * (x - TestIllinoisRefine.ROOT),  # flat, curved
            lambda x: math.tanh(50.0 * (x - TestIllinoisRefine.ROOT)),
            lambda x: math.exp(20.0 * x) - math.exp(20.0 * TestIllinoisRefine.ROOT),
        ],
        ids=["steep", "flat", "flat-cubic", "tanh", "exp"],
    )
    def test_meets_the_stop_rule_inside_the_bracket(self, f):
        (x, fx), points = _refine(f, 0.0, 1.0)
        assert all(0.0 < p < 1.0 for p in points)
        assert fx == f(x)
        assert abs(fx) <= 1e-8
        assert _certified(f, x)
        assert len(points) <= 40

    def test_a_jump_is_closed_to_float_resolution_in_the_bracket(self):
        def f(x):
            return -1.0 if x < self.ROOT else 1.0

        (x, fx), points = _refine(f, 0.0, 1.0)
        assert all(0.0 < p < 1.0 for p in points)
        assert abs(x - self.ROOT) <= math.ulp(self.ROOT) and abs(fx) == 1.0
        assert _certified(f, x)


# The three J = Jz = -1 traces of the benchmark's ``boundaries`` workload
_WORKLOAD_TRACES = [
    (BoundaryKind.ZERO, (0.5, 1.2)),
    (BoundaryKind.EQUAL_ENDPOINTS, (0.5, 1.0)),
    (BoundaryKind.HALF_PI, (0.4, 0.9)),
]


def _workload_trace(kind, bracket):
    return trace_boundary(
        kind, ModelParams(-1.0, -1.0, 0.5, 0.5), "B", 0.5, 1.9, 0.01,
        first_bracket=bracket, classify=False,
    )


class TestContinuation:
    @pytest.mark.parametrize("kind,bracket", _WORKLOAD_TRACES, ids=lambda v: str(v))
    def test_every_root_carries_a_scalar_sign_change(self, kind, bracket):
        curve = _workload_trace(kind, bracket)
        assert curve.complete and len(curve.points) == 141
        for t, b in curve.points:
            def f(x):
                return boundary_residual(kind, ModelParams(-1.0, -1.0, b, x))

            assert _certified(f, t), (kind, t, b)

    def test_predicted_bracket_is_used_only_on_a_sign_change(self, monkeypatch):
        # J = Jz = -1, B = 1.4: the zero root lies at T = 0.742967
        p = ModelParams(-1.0, -1.0, 1.4, 1.0)
        calls, scans = [], []

        def counted(kind, J, Jz, B, T, n_scan=401):
            calls.append(T)
            return residual(kind, J, Jz, B, T, n_scan)

        def no_scan(kind, line, lo, hi, seed=None):
            scans.append((lo, hi))
            raise NoRoot("scan")

        residual = boundaries._residual_at
        monkeypatch.setattr(boundaries, "_residual_at", counted)
        monkeypatch.setattr(boundaries, "_solve_line", no_scan)
        near = boundaries._solve_near
        # 0.70 +- 1e-3 holds no root: both ends read, nothing refined, and
        # the search goes on to the scans around the seed
        assert near(BoundaryKind.ZERO, _line(p, "T"), 0.72, 0.08, guess=0.70) is None
        assert calls == [0.70 - 1e-3, 0.70 + 1e-3]
        assert scans == [(0.72 - w, 0.72 + w) for w in (0.08, 2 * 0.08, 4 * 0.08)]
        # a guess farther than the width from the seed is not tried
        calls.clear()
        scans.clear()
        assert near(BoundaryKind.ZERO, _line(p, "T"), 0.64, 0.08, guess=0.7425) is None
        assert calls == [] and len(scans) == 3
        # a sign change in guess +- 1e-3 is refined with no scan
        scans.clear()
        t, written, angle = near(BoundaryKind.ZERO, _line(p, "T"), 0.72, 0.08, guess=0.7425)
        assert scans == [] and angle is None
        assert calls[:2] == [0.7425 - 1e-3, 0.7425 + 1e-3]
        # the refine reads its residuals through the same owner
        assert len(calls) > 2 and t in calls
        monkeypatch.undo()
        assert t == pytest.approx(0.742967, abs=1e-5)
        assert abs(written) <= 1e-8
        assert _certified(
            lambda x: boundary_residual(BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, x)), t
        )

    def test_each_residual_is_evaluated_once_and_few_per_station(self, monkeypatch):
        calls = []

        def counted(kind, J, Jz, B, T, n_scan=401):
            calls.append((kind, T, B, n_scan))
            return residual(kind, J, Jz, B, T, n_scan)

        residual = boundaries._residual_at
        monkeypatch.setattr(boundaries, "_residual_at", counted)
        curve = _workload_trace(BoundaryKind.HALF_PI, (0.4, 0.9))
        assert len(curve.points) == 141
        # each written root and residual come from scalar residuals
        assert len(calls) >= len(curve.points)
        # a 15-step bisection of each scanned cell takes about 20.5 per station
        assert len(calls) <= 10 * len(curve.points)
        # scan ends go into the refine, and the refine's root value is the
        # one written
        assert len(set(calls)) == len(calls)
        monkeypatch.undo()
        for (t, b), written in zip(curve.points, curve.residuals):
            assert written == boundary_residual(BoundaryKind.HALF_PI, ModelParams(-1, -1, b, t))


# The benchmark's ``crossings`` workload at J = -1, Jz = -1.5: its
# ``zeroprime`` trace and jump table, and the three-kind triple point
_ZEROPRIME_TRACE_ARGV = (
    "boundary", "--J", "-1", "--Jz", "-1.5", "--kind", "zeroprime", "--march", "B",
    "--B-range", "2.0:1.7:0.02", "--bracket-lo", "0.6", "--bracket-hi", "0.7",
)
_JUMPS_ARGV = ("jumps", "--J", "-1", "--Jz", "-1.5", "--B-list", "1.7,1.8,1.9,2.0")
_TRIPLE_ARGV = (
    "triple", "--J", "-1", "--Jz", "-1.5", "--kinds", "equal,halfpi,zeroprime",
    "--B-range", "1.4:2.0:0.02", "--bracket-lo", "0.4", "--bracket-hi", "0.9",
)
# what the three commands wrote before the Newton solve, when every
# ``zeroprime`` root was refined by the Illinois solve; the triple point is
# the Newton root in (T, B), whatever solves the ``zeroprime`` roots
_ILLINOIS_OUTPUTS = {
    "trace": """\
# kind=zeroprime J=-1 Jz=-1.5 march=B norm=1 complete=1
kind,T,B,residual,is_physical
zeroprime,0.618831368,2,-1.33226763e-15,1
zeroprime,0.622231027,1.98,0,1
zeroprime,0.625368064,1.96,-2.22044605e-16,1
zeroprime,0.628251651,1.94,4.4408921e-16,1
zeroprime,0.63088996,1.92,-2.22044605e-16,1
zeroprime,0.633290282,1.9,4.4408921e-16,1
zeroprime,0.635459117,1.88,-4.4408921e-16,1
zeroprime,0.637402259,1.86,-4.4408921e-16,1
zeroprime,0.639124866,1.84,2.22044605e-16,1
zeroprime,0.640631512,1.82,0,1
zeroprime,0.641926242,1.8,4.4408921e-16,1
zeroprime,0.643012614,1.78,0,1
zeroprime,0.643893732,1.76,0,1
zeroprime,0.644572278,1.74,0,1
zeroprime,0.64505054,1.72,0,1
zeroprime,0.64533043,1.7,0,1
""",
    "jumps": """\
# J=-1 Jz=-1.5 norm=J eps=1e-05
B,T,jump
1.7,0.64533043,1.30867248
1.8,0.641926242,0.86640205
1.9,0.633290282,0.640523787
2,0.618831368,0.481272776
""",
    "triple": """\
T,B,kinds
0.64541083,1.68516373,equal|halfpi|zeroprime
""",
}


def _crossing_outputs(tmp_path) -> dict[str, str]:
    """The files the three commands write."""
    texts = {}
    for name, argv in (("trace", _ZEROPRIME_TRACE_ARGV), ("jumps", _JUMPS_ARGV),
                       ("triple", _TRIPLE_ARGV)):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        texts[name] = out.read_text()
    return texts


def _zeroprime_trace():
    return trace_boundary(
        BoundaryKind.ZERO_PRIME, ModelParams(-1.0, -1.5, 2.0, 0.6), "B", 2.0, 1.7, 0.02,
        first_bracket=(0.6, 0.7), classify=False,
    )


class TestNewtonCrossing:
    def test_refused_newton_falls_back_to_the_illinois_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(boundaries, "_crossing_newton", lambda *args: None)
        assert _crossing_outputs(tmp_path) == _ILLINOIS_OUTPUTS

    def test_newton_roots_write_the_illinois_bytes_but_residuals(self, tmp_path):
        texts = _crossing_outputs(tmp_path)
        assert texts["jumps"] == _ILLINOIS_OUTPUTS["jumps"]
        assert texts["triple"] == _ILLINOIS_OUTPUTS["triple"]
        got = [line.split(",") for line in texts["trace"].splitlines()]
        want = [line.split(",") for line in _ILLINOIS_OUTPUTS["trace"].splitlines()]
        assert len(got) == len(want) == 18
        assert got[:2] == want[:2]
        for row, old in zip(got[2:], want[2:]):
            # kind, T, B and is_physical hold; the residual is g(x*) of the
            # Newton solve, which moves at the 1e-15 level
            assert row[:3] + row[4:] == old[:3] + old[4:]
            assert abs(float(row[3]) - float(old[3])) <= 2e-15

    def test_full_residuals_per_command(self, monkeypatch, tmp_path):
        # one full zeroprime residual per state handed to _crossing_gaps:
        # 65 for a scanned line, 2 for the certificates of a Newton root
        sizes = []
        gaps = boundaries._crossing_gaps

        def counted(states, n_scan):
            sizes.append(len(states.a))
            return gaps(states, n_scan)

        monkeypatch.setattr(boundaries, "_crossing_gaps", counted)
        assert main([*_JUMPS_ARGV, "--out", str(tmp_path / "jumps")]) == 0
        jumps = list(sizes)
        sizes.clear()
        curve = _zeroprime_trace()
        trace = list(sizes)
        # jumps: a 65-point scan per row, then the two certificates of its
        # Newton root (the Illinois refines read 33 residuals: 293 in all)
        assert jumps.count(65) == 4 and sum(jumps) == 268
        assert sum(n for n in jumps if n != 65) <= 2 * 4
        # the trace: the first station's scan, then two certificates per
        # station (two scans and 122 residuals before: 252 in all)
        assert curve.complete and len(curve.points) == 16
        assert curve.newton_refused == 0
        assert trace.count(65) == 1 and sum(trace) == 97
        assert sum(n for n in trace if n != 65) <= 2 * len(curve.points)

    @pytest.mark.parametrize(
        "spoil,kept",
        [
            (lambda g, th: (g, th), True),  # the certificates as they are
            (lambda g, th: (abs(g), th), False),  # one sign on both sides
            (lambda g, th: (math.inf if g > 0 else g, th), False),  # an infinite side
            (lambda g, th: (g, th + 1e-5), False),  # the scans' minimum elsewhere
        ],
        ids=["kept", "same-sign", "infinite", "other-minimum"],
    )
    def test_a_root_is_kept_only_with_both_certificates(self, monkeypatch, spoil, kept):
        p = ModelParams(-1.0, -1.5, 1.9, 0.6)
        calls = []
        gaps = boundaries._crossing_gaps

        def spoiled(states, n_scan):
            calls.append(len(states.a))
            return [spoil(g, th) for g, th in gaps(states, n_scan)]

        monkeypatch.setattr(boundaries, "_crossing_gaps", spoiled)
        root = boundaries._crossing_newton(_line(p, "T"), 0.634, 0.64, 0.6, 0.7)
        assert calls == [2]  # one pass for both sides
        if kept:
            x, residual, theta = root
            assert x == pytest.approx(0.633290282, abs=1e-9)
            assert abs(residual) <= 1e-15 and theta == pytest.approx(0.640255, abs=1e-6)
        else:
            assert root is None

    def test_a_root_outside_the_window_is_refused(self):
        p = ModelParams(-1.0, -1.5, 1.9, 0.6)
        line = _line(p, "T")
        assert boundaries._crossing_newton(line, 0.634, 0.64, 0.6, 0.7) is not None
        # the root 0.63329 lies below the window; the start lies outside another
        assert boundaries._crossing_newton(line, 0.634, 0.64, 0.6335, 0.7) is None
        assert boundaries._crossing_newton(line, 0.634, 0.64, 0.6, 0.633) is None


def _reference_physical(curve: BoundaryCurve) -> list[bool]:
    """The ``physical`` flags of ``curve`` taken station by station, as
    the march took them before: the branches of two scalar one-point
    optimizations at 401 angles, at -+1e-3 in the solved coordinate, a
    solved T's lower side no lower than twice the floor."""
    flags = []
    for t, b in curve.points:
        if curve.march == "B":
            sides = [(b, max(t - 1e-3, 2.0 * T_FLOOR)), (b, t + 1e-3)]
        else:
            sides = [(b - 1e-3, t), (b + 1e-3, t)]
        lo, hi = (
            scalar_optimize(ModelParams(curve.J, curve.Jz, bb, tt), 401).branch
            for bb, tt in sides
        )
        flags.append(lo is not hi)
    return flags


def _never_optimized(*args):
    raise AssertionError("the optimizer was called")


class TestClassification:
    @pytest.mark.parametrize(
        "kind,J,Jz,march,span,bracket,flags",
        [
            # the crossings workload's zeroprime trace
            (BoundaryKind.ZERO_PRIME, -1.0, -1.5, "B", (2.0, 1.7, 0.02), (0.6, 0.7), "1" * 16),
            # a T march, whose solved coordinate is B
            (BoundaryKind.HALF_PI, -1.0, -1.5, "T", (0.3, 0.7, 0.02), (1.4, 2.0), "1111110000"),
            # a root at T = 1.4e-4 (the march then stops), whose lower side
            # is clamped to twice the floor
            (BoundaryKind.HALF_PI, -1.0, -1.5, "B", (2.4999, 2.499, 1e-4), (2e-5, 0.02), "1"),
        ],
        ids=["zeroprime-B", "halfpi-T", "halfpi-B-clamped"],
    )
    def test_a_trace_is_classified_in_one_call_as_station_by_station(
        self, monkeypatch, kind, J, Jz, march, span, bracket, flags
    ):
        sizes = []
        entry = optimizer._optimize_points

        def counted(J, Jz, bs, ts, n=201):
            sizes.append((len(bs), n))
            return entry(J, Jz, bs, ts, n)

        for module in (optimizer, boundaries):
            monkeypatch.setattr(module, "_optimize_points", counted)
        curve = trace_boundary(kind, ModelParams(J, Jz, 1.0, 1.0), march, *span,
                               first_bracket=bracket)
        monkeypatch.undo()
        assert sizes == [(2 * len(curve.points), 401)]
        assert "".join("1" if f else "0" for f in curve.physical) == flags
        assert curve.physical == _reference_physical(curve)
        if flags == "1":
            assert curve.points[0][0] - 1e-3 < boundaries._T_LOWEST

    def test_an_unclassified_trace_makes_no_optimizer_call(self, monkeypatch):
        for module in (optimizer, boundaries):
            monkeypatch.setattr(module, "_optimize_points", _never_optimized)
        curve = trace_boundary(
            BoundaryKind.ZERO_PRIME, ModelParams(-1.0, -1.5, 1.0, 1.0), "B", 2.0, 1.7, 0.02,
            first_bracket=(0.6, 0.7), classify=False,
        )
        assert curve.physical == [True] * 16


class TestTraceBoundary:
    @pytest.mark.parametrize(
        "march,step,message",
        [
            ("X", 0.05, "march must be 'T' or 'B'"),
            ("B", 0.0, "step must be nonzero"),
            ("B", math.nan, "step must be nonzero and not nan, got nan"),
            # its 1/64 is lost in rounding at the range's larger end, 1.4
            ("B", 1e-17, "step 1e-17 is too small to move B=1.4"),
            ("T", -1e-300, "step -1e-300 is too small to move T=1.4"),
        ],
    )
    def test_bad_march_or_step_is_an_error(self, march, step, message):
        with pytest.raises(ValueError, match=message):
            trace_boundary(
                BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), march,
                1.4, 1.2, step, classify=False,
            )

    @pytest.mark.parametrize(
        "start,stop", [(math.nan, 1.2), (1.4, math.nan), (-math.inf, 1.2), (1.4, math.inf)]
    )
    def test_non_finite_march_range_is_an_error(self, start, stop):
        with pytest.raises(ValueError, match="B range must be finite"):
            trace_boundary(
                BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
                start, stop, 0.05, classify=False,
            )

    @pytest.mark.parametrize("start,stop", [(0.1, -0.05), (-0.05, 0.1), (-0.05, -0.1)])
    def test_march_below_zero_temperature_is_an_error_before_any_solve(
        self, monkeypatch, start, stop
    ):
        evaluated = []
        for name in ("_residual_at", "_line_values", "_crossing_gaps"):
            monkeypatch.setattr(boundaries, name, lambda *args: evaluated.append(args))
        with pytest.raises(ValueError) as got:
            trace_boundary(
                BoundaryKind.ZERO, ModelParams(1.0, 0.0, 1.0, 0.5), "T", start, stop, 0.05,
                first_bracket=(0.3, 1.7), classify=False,
            )
        first = start if start < 0.0 else stop  # a negative start is named as before
        assert str(got.value) == f"temperature must be positive, got {first!r}"
        assert evaluated == []

    def test_clamp_warning_of_a_station_names_the_caller(self):
        # the first station, T = 0, is clamped to the floor; the warning
        # names this line, not a line of the program
        with pytest.warns(UserWarning, match="T=0 is below the floor") as got:
            curve = trace_boundary(
                BoundaryKind.HALF_PI, ModelParams(-1.0, -1.0, 1.0, 1.0), "T", 0.0, 0.5, 0.05,
                first_bracket=(0.5, 1.9), classify=False,
            )
        assert [w.filename for w in got] == [__file__]
        assert curve.stop_reason == "first root past span start"
        assert curve.marched_values()[-1] == pytest.approx(0.5)

    def test_stations_and_triple_points_build_no_model_params(self, monkeypatch):
        # each station and triple-point check is a line of plain floats; only
        # the templates, built before the count, are ModelParams
        built = []
        check = ModelParams.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        landmark = ModelParams(-1.0, -1.0, 1.0, 1.0)
        pair = ModelParams(-1.0, -1.5, 1.7, 0.6)
        monkeypatch.setattr(ModelParams, "__post_init__", counted)
        curve = trace_boundary(
            BoundaryKind.HALF_PI, landmark, "B", 0.5, 1.9, 0.01,
            first_bracket=(0.4, 0.9), classify=False,
        )
        assert curve.complete and len(curve.points) == 141
        c_eq, c_hp = (
            trace_boundary(kind, pair, "B", 1.4, 2.0, 0.02, first_bracket=(0.4, 0.9),
                           classify=False)
            for kind in (BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALF_PI)
        )
        point = find_triple_point([c_eq, c_hp])
        assert point.B == pytest.approx(1.68516373, abs=1e-7)
        assert built == []
        ModelParams(-1.0, -1.0, 1.0, 1.0)
        assert len(built) == 1  # the count sees a ModelParams when one is built

    @pytest.mark.parametrize(
        "kind,march,span,bracket",
        [
            (BoundaryKind.ZERO, "B", (1.4, 1.2, 0.05), (0.3, 1.5)),
            (BoundaryKind.ZERO_PRIME, "B", (2.0, 1.9, 0.02), (0.6, 0.7)),
            (BoundaryKind.HALF_PI, "T", (0.3, 0.5, 0.05), (0.5, 1.5)),
        ],
    )
    def test_only_the_couplings_of_the_template_are_read(self, kind, march, span, bracket):
        texts = {
            curve_to_csv(trace_boundary(
                kind, ModelParams(-1.0, -1.5, b, t), march, *span, first_bracket=bracket
            ))
            for b, t in ((1e-4, 0.1), (2.7, 3.3))
        }
        assert len(texts) == 1

    def test_late_first_root_marks_the_curve_partial(self):
        curve = trace_boundary(
            BoundaryKind.HALF_PI, ModelParams(-1, -1, 0.0, 0.5), "B",
            0.0, 1.0, 0.1, classify=False, first_bracket=(0.4, 0.9),
        )
        assert not curve.complete
        assert curve.stop_reason == "first root past span start"
        assert curve.marched_values()[0] == pytest.approx(0.4)
        assert curve.marched_values()[-1] == pytest.approx(1.0)

    def test_curve_without_a_root_says_so(self):
        # at J = 0 the halfpi closed form is 0/0 at B = 0 and has no root
        # in the default bracket further up
        curve = trace_boundary(
            BoundaryKind.HALF_PI, ModelParams(0.0, -1.0, 0.0, 0.5), "B", 0.0, 1.0, 0.1
        )
        assert curve.points == [] and not curve.complete
        assert curve.stop_reason == "first root not found"

    def test_march_stopping_at_the_min_step_says_so(self):
        # T falls steeply towards the B = 2 level crossing
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.9, 0.5), "B", 1.9, 2.1, 0.01,
            first_bracket=(0.3, 1.5), classify=False,
        )
        assert not curve.complete
        assert curve.stop_reason == "no root at min step"
        assert curve.marched_values()[-1] == 1.99984375

    def test_march_reaches_the_low_field_asymptote(self):
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-1, -1, 1.4, 1.0), "B",
            1.4, 1e-4, 0.05, classify=False,
        )
        assert curve.complete and curve.stop_reason == "span covered"
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
        assert not curve.complete and curve.stop_reason == "no root at min step"
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
        # below it the Newton solve finds no certified root, and the
        # stations fall back to the seeded search
        assert curve.newton_refused > 0

    def test_refused_newton_station_falls_back_to_the_seeded_search(self, monkeypatch):
        # at every station after the first, Newton in theta from the last
        # angle finds no minimum, and the seeded search finds the root on
        # the 0.02 grid; without it the march would halve its step
        found = []
        near = boundaries._solve_near

        def recorded(*args, **kwargs):
            root = near(*args, **kwargs)
            found.append(root is not None)
            return root

        monkeypatch.setattr(boundaries, "_solve_near", recorded)
        curve = trace_boundary(
            BoundaryKind.ZERO_PRIME, ModelParams(-1, -2, 1.0, 0.46), "T",
            0.46, 0.30, 0.02, first_bracket=(2.0, 3.5), classify=False,
        )
        assert curve.complete
        assert curve.newton_refused == 8
        assert found == [True] * 8
        assert curve.marched_values() == pytest.approx([0.46 - 0.02 * i for i in range(9)])
        assert max(abs(r) for r in curve.residuals) <= 1e-10

    def test_no_residual_below_the_lowest_temperature(self, monkeypatch):
        # the march stops on a root near T = 6.1e-5, whose refine probes at
        # root - 1e-5 and root - 1e-4 would lie below the floor (the latter
        # below T = 0); they are skipped
        temps = []
        residual = boundaries._residual_at

        def recorded(kind, J, Jz, B, T, n_scan=401):
            temps.append(T)
            return residual(kind, J, Jz, B, T, n_scan)

        monkeypatch.setattr(boundaries, "_residual_at", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = trace_boundary(
                BoundaryKind.ZERO_PRIME, ModelParams(-0.79, 0.14, 1.0, 1.0), "B",
                1.1, 0.26, 0.01, first_bracket=(0.02, 1.2), classify=False,
            )
        assert curve.stop_reason == "no root at min step"
        assert len(curve.points) == 9
        assert min(temps) < 1e-4
        assert min(temps) >= 2.0 * T_FLOOR

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

    def test_disjoint_curves_have_no_crossing(self):
        tmpl = ModelParams(-1.0, -1.0, 1.4, 1.0)
        c_zero = trace_boundary(
            BoundaryKind.ZERO, tmpl, "B", 1.3, 1.5, 0.05, classify=False,
        )
        c_hp = trace_boundary(
            BoundaryKind.HALF_PI, tmpl, "B", 1.3, 1.5, 0.05,
            classify=False, first_bracket=(0.4, 0.9),
        )
        with pytest.raises(NoTriplePoint, match="^no pair of curves crosses$"):
            find_triple_point([c_zero, c_hp])

    def test_curves_without_points_have_no_crossing(self):
        empty = [
            BoundaryCurve(kind=kind, J=-1.0, Jz=-1.5, march="B")
            for kind in (BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALF_PI)
        ]
        with pytest.raises(NoTriplePoint, match="^no pair of curves crosses$"):
            find_triple_point(empty)

    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            find_triple_point([])

    @pytest.mark.parametrize(
        "second,message",
        [
            (dict(J=-1.0, Jz=-1.5, march="T"), "marched along B"),
            (dict(J=-1.0, Jz=-1.0, march="B"), "different coupling sets"),
        ],
    )
    def test_curves_that_cannot_meet_are_an_error(self, second, message):
        first = BoundaryCurve(BoundaryKind.EQUAL_ENDPOINTS, -1.0, -1.5, "B")
        other = BoundaryCurve(BoundaryKind.HALF_PI, **second)
        with pytest.raises(ValueError, match=message):
            find_triple_point([first, other])

    def test_curves_on_offset_grids_meet_at_the_common_grid_point(self):
        # marched from 1.40 and 1.41 in steps of 0.02, the two curves share
        # only the end of the span; on one common grid they meet at this point
        tmpl = ModelParams(-1.0, -1.5, 1.7, 0.6)
        c_eq, c_hp = (
            trace_boundary(
                kind, tmpl, "B", start, 2.0, 0.02,
                classify=False, first_bracket=(0.4, 0.9),
            )
            for kind, start in (
                (BoundaryKind.EQUAL_ENDPOINTS, 1.40), (BoundaryKind.HALF_PI, 1.41)
            )
        )
        assert set(c_eq.marched_values()) & set(c_hp.marched_values()) == {2.0}
        point = find_triple_point([c_eq, c_hp])
        assert type(point.T) is float and type(point.B) is float
        assert abs(point.T - _MPMATH_TRIPLE[0]) <= 1e-10
        assert abs(point.B - _MPMATH_TRIPLE[1]) <= 1e-10


# The benchmark's three triple points (couplings, --B-range, bracket) and
# the J = -1, Jz = -1.5 point of three --kinds orders, as ``triple`` runs
# them
_TRIPLES = [
    ((-1.0, -1.5), (1.4, 2.0, 0.02), (0.4, 0.9), "equal,halfpi"),
    ((0.5, -1.0), (1.0, 1.35, 0.01), (0.02, 0.8), "equal,halfpi"),
    ((0.2, -1.0), (0.98, 1.15, 0.01), (0.02, 0.8), "equal,halfpi"),
] + [
    ((-1.0, -1.5), (1.6, 1.8, 0.02), (0.4, 0.9), kinds)
    for kinds in ("equal,halfpi,zeroprime", "zeroprime,equal,halfpi",
                  "halfpi,zeroprime,equal")
]
# The 50-digit solution of {S~(0) = S~(pi/2), S~''(pi/2) = 0} at J = -1,
# Jz = -1.5 (tests/test_mpmath_reference.py)
_MPMATH_TRIPLE = (0.64541082950214116, 1.6851637260603228)


def _triple_run(couplings, span, bracket, kinds):
    """The curves ``trace_for_triple`` traces for ``triple``, and their point."""
    curves = trace_for_triple(
        [BoundaryKind(name) for name in kinds.split(",")], ModelParams(*couplings, 1.0, 1.0),
        *span, first_bracket=bracket,
    )
    return curves, find_triple_point(curves)


def _pair(kinds):
    """The crossing pair of a ``_TRIPLES`` case, as "first/second": its
    equal and halfpi curves in the order given (zeroprime crosses neither)."""
    return "/".join(k for k in kinds.split(",") if k != "zeroprime")


def _full_curves(couplings, span, bracket, kinds):
    lo, hi, step = span
    return [
        trace_boundary(
            BoundaryKind(name), ModelParams(*couplings, 1.0, 1.0), "B",
            *((hi, lo) if name == "zeroprime" else (lo, hi)), step,
            first_bracket=bracket, classify=False,
        )
        for name in kinds.split(",")
    ]


class TestLazyTriple:
    """``triple`` traces each pair of curves only until it crosses, and
    solves the point by Newton in (T, B)."""

    @pytest.mark.parametrize("case", _TRIPLES, ids=lambda c: f"{c[0]}-{c[3]}")
    def test_lazy_curves_are_prefixes_and_give_the_point_of_the_full_ones(
        self, case
    ):
        couplings, span, bracket, kinds = case
        lazy, point = _triple_run(couplings, span, bracket, kinds)
        full = _full_curves(couplings, span, bracket, kinds)
        for short, whole in zip(lazy, full):
            n = len(short.points)
            assert short.points == whole.points[:n]
            assert [float.hex(r) for r in short.residuals] == [
                float.hex(r) for r in whole.residuals[:n]
            ]
        # zeroprime first: its pairs march in opposite directions, so all
        # three curves are traced to the end
        assert sum(len(c.points) for c in lazy) <= sum(len(c.points) for c in full)
        want = find_triple_point(full)
        assert (float.hex(point.T), float.hex(point.B)) == (
            float.hex(want.T), float.hex(want.B)
        )
        assert point.meeting_kinds == want.meeting_kinds

    @pytest.mark.parametrize("case", _TRIPLES, ids=lambda c: f"{c[0]}-{c[3]}")
    def test_a_refused_newton_solve_gives_no_point(self, monkeypatch, case):
        # no step allowed: Newton does not converge, and nothing else
        # solves the point
        couplings, span, bracket, kinds = case
        monkeypatch.setattr(boundaries, "_NEWTON_STEPS", 0)
        with pytest.raises(NoTriplePoint, match=f"^Newton refused the {_pair(kinds)} crossing$"):
            find_triple_point(_full_curves(couplings, span, bracket, kinds))

    @pytest.mark.parametrize("case", _TRIPLES, ids=lambda c: f"{c[0]}-{c[3]}")
    def test_a_spoiled_certificate_refuses_the_root(self, monkeypatch, case):
        couplings, span, bracket, kinds = case
        curves = _full_curves(couplings, span, bracket, kinds)
        root = find_triple_point(curves)
        residual = boundaries._residual_at

        def spoiled(kind, J, Jz, B, T, n_scan=401):
            value = residual(kind, J, Jz, B, T, n_scan)
            hit = kind is BoundaryKind.HALF_PI and (B, T) == (root.B, root.T + 1e-7)
            return -value if hit else value

        monkeypatch.setattr(boundaries, "_residual_at", spoiled)
        with pytest.raises(NoTriplePoint, match=f"^Newton refused the {_pair(kinds)} crossing$"):
            find_triple_point(curves)

    @pytest.mark.parametrize("case", _TRIPLES[3:4], ids=lambda c: f"{c[0]}-{c[3]}")
    def test_a_curve_that_misses_the_point_is_named(self, monkeypatch, case):
        # with no tolerance, the first curve checked misses the point: the
        # zeroprime curve, the first outside the pair whose crossing Newton
        # certified (equal and halfpi, which are not solved again)
        couplings, span, bracket, kinds = case
        curves = _full_curves(couplings, span, bracket, kinds)
        monkeypatch.setattr(boundaries, "_TRIPLE_VERIFY_TOL", -1.0)
        with pytest.raises(NoTriplePoint, match="^the zeroprime curve misses the point$"):
            find_triple_point(curves)

    def test_a_refused_newton_solve_ends_the_search(self, monkeypatch, capsys):
        # equal and halfpi cross in a cell where Newton's root is refused
        # (on steps of 0.01 and 0.05 it is accepted); nothing is solved
        # after it, and triple exits 2
        calls = []

        def recorded(name, solve):
            def call(*args, **kwargs):
                calls.append((name, solve(*args, **kwargs)))
                return calls[-1][1]

            return call

        for name in ("_triple_newton", "_solve_near"):
            monkeypatch.setattr(boundaries, name, recorded(name, getattr(boundaries, name)))
        argv = ["triple", "--J", "0.37", "--Jz", "-2.5", "--B-range", "0.3:4.0:0.02",
                "--bracket-lo", "0.02", "--bracket-hi", "1.5", "--out", os.devnull]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "no triple point inside the scanned range: "
            "Newton refused the equal/halfpi crossing\n"
        )
        assert [c for c in calls if c[0] == "_triple_newton"] == [("_triple_newton", None)]
        assert calls[-1] == ("_triple_newton", None)

    def test_solved_at_interpolates_on_the_chord_around_b(self):
        curve = BoundaryCurve(BoundaryKind.HALF_PI, -1.0, -1.0, "B",
                              points=[(0.5, 1.0), (0.6, 1.02), (0.7, 1.03)])
        assert boundaries._solved_at(curve, 1.025) == pytest.approx(0.65, abs=1e-14)
        assert [boundaries._solved_at(curve, b) for b in (1.0, 1.02, 1.03)] == [0.5, 0.6, 0.7]

    def test_curve_distance_on_the_line_or_none(self):
        # the halfpi root on B = 1.4 lies at T = 0.6275005: found in the
        # bracket +-1e-3 around the point, or in the scanned +-0.05; the
        # zero curve is nowhere near T = 0.2, on the line or beside it
        line = boundaries._Line(-1.0, -1.0, "T", 1.4)
        distance = boundaries._curve_distance
        assert distance(BoundaryKind.HALF_PI, line, 0.6275) == pytest.approx(5.09e-7, abs=1e-9)
        assert distance(BoundaryKind.HALF_PI, line, 0.6475) == pytest.approx(0.0199995, abs=1e-7)
        assert distance(BoundaryKind.ZERO, line, 0.2) is None

    def test_curve_distance_from_one_probe_beside_the_line(self, monkeypatch):
        # only the probe at B + 2e-4 finds the curve: the distance is to
        # that root in the (B, T) plane
        def near(kind, line, seed, width, guess=None):
            return (0.63, 0.0, None) if line.fixed == 1.4 + 2e-4 else None

        monkeypatch.setattr(boundaries, "_solve_near", near)
        line = boundaries._Line(-1.0, -1.0, "T", 1.4)
        assert boundaries._curve_distance(BoundaryKind.HALF_PI, line, 0.6275) == math.hypot(
            2e-4, 0.63 - 0.6275
        )

    def test_newton_refuses_a_root_outside_the_cell_or_a_singular_jacobian(self):
        couplings, span, bracket, kinds = _TRIPLES[0]
        c_eq, c_hp = _full_curves(couplings, span, bracket, kinds)
        crossing = boundaries._first_crossing(c_eq, c_hp)
        newton = boundaries._triple_newton
        pair = (BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALF_PI)
        t, b = newton(pair, *couplings, *crossing)
        assert crossing[0] <= b <= crossing[1]
        assert abs(t - _MPMATH_TRIPLE[0]) <= 1e-10 and abs(b - _MPMATH_TRIPLE[1]) <= 1e-10
        lo, hi, *ts = crossing
        assert newton(pair, *couplings, lo + 0.02, hi + 0.02, *ts) is None
        assert newton(pair[:1] * 2, *couplings, *crossing) is None


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
