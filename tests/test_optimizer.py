import itertools
import math

import numpy as np
import pytest

from xxz_deficit import optimizer
from xxz_deficit.boundaries import BoundaryKind, solve_boundary_on_line
from xxz_deficit.diagram import GridSpec, sweep
from xxz_deficit.measurement import (
    HALF_PI,
    branch_s_halfpi,
    entropy_curve,
    post_meas_entropy,
    post_meas_entropy_slope,
)
from xxz_deficit.model import (
    ModelParams,
    ThermalStates,
    XThermalState,
    pre_measurement_entropy,
    thermal_state,
)
from xxz_deficit.optimizer import (
    SLOPE_NOISE,
    Branch,
    Shape,
    _refine_extremum,
    golden_section_min,
    optimal_angle_jump,
    optimize_deficit,
    optimize_grid,
    scan_profile,
)
from xxz_deficit.oracle import (
    dense_post_measurement,
    dense_thermal_state,
    von_neumann_entropy,
)

from conftest import random_params

LN2 = math.log(2.0)


def _loop_extrema(state, n):
    """Refined extrema from a plain loop over slope pairs: the reference
    for the array bracket search."""
    thetas = np.linspace(0.0, HALF_PI, n)
    dv = np.diff(entropy_curve(state, thetas))
    minima, maxima = [], []
    for i in range(len(dv) - 1):
        left, right = dv[i], dv[i + 1]
        if max(abs(left), abs(right)) < SLOPE_NOISE:
            continue
        if left < 0.0 < right:
            sign, found = 1.0, minima
        elif left > 0.0 > right:
            sign, found = -1.0, maxima
        else:
            continue
        extremum = _refine_extremum(state, sign, float(thetas[i]), float(thetas[i + 2]))
        if extremum is not None:
            found.append(extremum)
    return tuple(minima), tuple(maxima)


class TestGoldenSection:
    def test_quadratic(self):
        x, y = golden_section_min(lambda t: (t - 1.3) ** 2, 0.0, 2.0, tol=1e-10)
        assert x == pytest.approx(1.3, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_tiny_bracket(self):
        x, _ = golden_section_min(lambda t: t * t, 0.5, 0.5 + 1e-12)
        assert 0.5 <= x <= 0.5 + 1e-12


class TestScanProfile:
    def test_requires_enough_samples(self, rng):
        with pytest.raises(ValueError):
            scan_profile(thermal_state(random_params(rng)), n=50)

    @pytest.mark.parametrize(
        "jz,b,t,shape",
        [
            (-1.0, 1.4, 1.0, Shape.MONOTONE_INCREASING),
            (-1.0, 1.4, 0.72, Shape.UNIMODAL_MIN),
            (-1.0, 1.4, 0.4, Shape.MONOTONE_DECREASING),
            (-1.5, 1.9, 0.628, Shape.BIMODAL),
        ],
    )
    def test_landmark_shapes(self, jz, b, t, shape):
        profile = scan_profile(thermal_state(ModelParams(-1.0, jz, b, t)))
        assert profile.shape is shape

    def test_flat_profile(self):
        # S~ is theta independent only at the maximally mixed state
        profile = scan_profile(thermal_state(ModelParams(0.0, 0.0, 0.0, 0.9)))
        assert profile.shape is Shape.FLAT
        assert profile.n_extrema == 0
        assert profile.entropies.max() - profile.entropies.min() == 0.0
        # a = d and v = 0 give r = 0, but 1 - 4b != 0 keeps S~ rising
        p = ModelParams(0.0, 0.4, 0.0, 0.9)
        profile = scan_profile(thermal_state(p))
        assert profile.shape is Shape.MONOTONE_INCREASING
        rho = dense_thermal_state(p)
        for k, theta in ((0, 0.0), (-1, HALF_PI)):
            oracle = von_neumann_entropy(
                dense_post_measurement(rho, theta, 0.0).state.matrix
            )
            assert profile.entropies[k] == pytest.approx(oracle, abs=1e-12)

    def test_bimodal_bookkeeping(self):
        profile = scan_profile(thermal_state(ModelParams(-1.0, -1.5, 1.9, 0.628)))
        assert len(profile.interior_minima) == 1
        assert len(profile.interior_maxima) == 1
        (t_max, e_max), (t_min, e_min) = (
            profile.interior_maxima[0],
            profile.interior_minima[0],
        )
        assert 0.0 < t_max < t_min < HALF_PI
        assert e_max > e_min

    def test_extrema_strictly_interior(self, rng):
        for _ in range(30):
            profile = scan_profile(thermal_state(random_params(rng)))
            for theta, _ in profile.interior_minima + profile.interior_maxima:
                assert 0.0 < theta < HALF_PI

    @pytest.mark.parametrize("n", [201, 401])
    def test_bracket_search_equals_the_slope_loop(self, rng, n):
        points = [random_params(rng, t_min=0.03) for _ in range(60)]
        points += [ModelParams(-1.0, -1.5, 1.9, t) for t in (0.6, 0.628, 0.64)]
        for p in points:
            state = thermal_state(p)
            profile = scan_profile(state, n)
            if profile.shape is Shape.FLAT:
                continue
            minima, maxima = _loop_extrema(state, n)
            assert profile.interior_minima == minima
            assert profile.interior_maxima == maxima

    def test_refinement_matches_dense_scan(self):
        state = thermal_state(ModelParams(-1.0, -1.0, 1.4, 0.72))
        profile = scan_profile(state)
        assert len(profile.interior_minima) == 1
        theta_ref, val_ref = profile.interior_minima[0]
        dense = np.linspace(0.0, HALF_PI, 200001)
        vals = entropy_curve(state, dense)
        k = vals.argmin()
        assert theta_ref == pytest.approx(dense[k], abs=1e-4)
        assert val_ref <= vals[k] + 1e-14


class TestRefineExtremum:
    def test_slope_calls_per_refined_bracket(self, monkeypatch):
        """Each extremum of a 40x40 J=-1, Jz=-1.5 sweep takes a median of
        at most 10 slope evaluations, at most 20, and one S~ evaluation
        (a golden section took 40 S~ evaluations per bracket)."""
        counts = {"slope": 0, "entropy": 0}
        per_bracket = []
        slope, entropy = optimizer.post_meas_entropy_slope, optimizer.post_meas_entropy
        refine = optimizer._refine_extremum

        def counted(name, f):
            def g(*args):
                counts[name] += 1
                return f(*args)
            return g

        def counted_refine(*args):
            before = dict(counts)
            found = refine(*args)
            per_bracket.append(
                (counts["slope"] - before["slope"], counts["entropy"] - before["entropy"])
            )
            return found

        monkeypatch.setattr(optimizer, "post_meas_entropy_slope", counted("slope", slope))
        monkeypatch.setattr(optimizer, "post_meas_entropy", counted("entropy", entropy))
        monkeypatch.setattr(optimizer, "_refine_extremum", counted_refine)
        sweep(-1.0, -1.5, GridSpec(0.02, 2.0, 0.0, 3.0, 40, 40))
        slopes = [n for n, _ in per_bracket]
        assert len(slopes) >= 40
        assert np.median(slopes) <= 10
        assert max(slopes) <= 20
        assert {n for _, n in per_bracket} == {1}

    def test_the_golden_section_is_not_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("golden_section_min called")

        monkeypatch.setattr(optimizer, "golden_section_min", refuse)
        profile = scan_profile(thermal_state(ModelParams(-1.0, -1.5, 1.9, 0.628)))
        assert profile.shape is Shape.BIMODAL

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(-1.0, -1.0, 0.8925, 0.81695),  # minimum in the last cell
            ModelParams(0.30147763457890076, -0.8621340817282923,
                        0.8635800081665811, 0.1387017784297373),  # maximum in the first
        ],
    )
    def test_the_slope_is_never_read_at_an_endpoint(self, monkeypatch, p):
        # S~' is 0 at 0 and rounding noise at pi/2: its sign there says
        # nothing about the extremum beside it
        slope = optimizer.post_meas_entropy_slope

        def interior_only(s, theta):
            assert 0.0 < theta < HALF_PI, theta
            return slope(s, theta)

        monkeypatch.setattr(optimizer, "post_meas_entropy_slope", interior_only)
        assert scan_profile(thermal_state(p)).n_extrema == 1

    def test_an_extremum_at_the_endpoint_is_not_interior(self):
        # S~ falls all the way to its minimum at pi/2: no point of the last
        # cell has the rising slope that an interior minimum needs
        state = thermal_state(ModelParams(-1.0, -1.0, 1.4, 0.4))
        thetas = np.linspace(0.0, HALF_PI, 201)
        assert _refine_extremum(state, 1.0, float(thetas[-3]), HALF_PI) is None
        assert _refine_extremum(state, 1.0, 0.0, HALF_PI) is None

    def test_the_root_is_bracketed_to_1e_12(self):
        # 13 extrema on this grid of both paper diagrams, 2 of them maxima
        found = 0
        for jz, b, t in itertools.product(
            (-1.0, -1.5), np.linspace(0.5, 2.2, 8), np.linspace(0.3, 1.0, 8)
        ):
            state = thermal_state(ModelParams(-1.0, jz, b, t))
            profile = scan_profile(state)
            for sign, extrema in (
                (1.0, profile.interior_minima), (-1.0, profile.interior_maxima)
            ):
                for theta, value in extrema:
                    found += 1
                    assert value == post_meas_entropy(state, theta)
                    left = sign * post_meas_entropy_slope(state, theta - 1e-12)
                    right = sign * post_meas_entropy_slope(state, theta + 1e-12)
                    assert left <= 1e-14 and right >= -1e-14
        assert found == 13


class TestOptimizeGrid:
    def test_every_cell_equals_a_one_point_call(self, rng):
        # random couplings and temperatures, plus grids through the
        # bimodal landmark (B = 1.9, T = 0.628) and two with flat cells:
        # the maximally mixed state at B = 0, and T = 1e6
        grids = [
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.03, 3.0, 3))
            for _ in range(6)
        ]
        grids += [
            (J, Jz, np.concatenate([[t], rng.uniform(0.03, 3.0, 2)]))
            for J, Jz, t in ((-1.0, -1.5, 0.628), (0.0, 0.0, 0.9), (1.2, -0.3, 1e6))
        ]
        shapes = set()
        for J, Jz, ts in grids:
            # 3 rows of 22 cells: five array passes, the last one partial,
            # and passes that span two rows
            bs = np.concatenate([rng.uniform(-3.0, 3.0, 20), [0.0, 1.9]])
            grid = optimize_grid(J, Jz, ts, bs)
            assert grid.theta.shape == grid.deficit.shape == (3, 22)
            assert [len(row) for row in grid.branch + grid.shape] == [22] * 6
            for (i, t), (j, b) in itertools.product(enumerate(ts), enumerate(bs)):
                res = optimize_deficit(ModelParams(J, Jz, b, t))
                assert grid.branch[i][j] == res.branch.value
                assert grid.shape[i][j] == res.shape_label
                assert float(grid.theta[i, j]).hex() == float(res.optimal_theta).hex()
                assert float(grid.deficit[i, j]).hex() == float(res.deficit).hex()
                shapes.add(res.shape_label)
        assert {"Bimodal", "Flat", "UnimodalMax"} <= shapes

    def test_a_grid_is_sampled_in_passes_of_16_cells(self, monkeypatch):
        sizes = []
        curve = optimizer.entropy_curve

        def counted(states, thetas):
            sizes.append(len(states.a))
            return curve(states, thetas)

        monkeypatch.setattr(optimizer, "entropy_curve", counted)
        optimize_grid(-1.0, -1.0, [0.3, 0.7, 1.1], np.linspace(0.0, 3.0, 22))
        assert sizes == [16, 16, 16, 16, 2]

    @staticmethod
    def _patch_curve(monkeypatch, curve):
        """S~ samples replaced by ``curve(thetas)`` for every state."""

        def fake(states, thetas):
            row = curve(np.asarray(thetas))
            if isinstance(states, XThermalState):
                return row
            k = len(states.a) if isinstance(states, ThermalStates) else len(states)
            return np.tile(row, (k, 1))

        monkeypatch.setattr(optimizer, "entropy_curve", fake)

    def test_other_shape_warns_as_in_a_one_point_call(self, monkeypatch):
        # cos 8 theta: three interior extrema, each reported at the
        # middle of its scan cell
        self._patch_curve(monkeypatch, lambda th: np.cos(8.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum", lambda s, sign, lo, hi: (0.5 * (lo + hi), 9.0)
        )
        with pytest.warns(UserWarning, match="3 interior extrema"):
            grid = optimize_grid(-1.0, -1.0, [0.72], [1.4, 0.7])
        with pytest.warns(UserWarning, match="3 interior extrema"):
            res = optimize_deficit(ModelParams(-1.0, -1.0, 1.4, 0.72))
        assert res.shape_label == "Other(3)"
        assert grid.shape == [["Other(3)", "Other(3)"]]
        assert grid.branch[0][0] == res.branch.value

    @pytest.mark.parametrize("depth,outcome", [
        # an interior minimum at the depth of the pi/2 endpoint, or
        # deeper by less than EQUAL_TOL: a tie, won by the endpoint
        (lambda s: branch_s_halfpi(s), "tie"),
        (lambda s: branch_s_halfpi(s) - 0.5 * optimizer.EQUAL_TOL, "tie"),
        # one below S(rho): a negative deficit
        (lambda s: pre_measurement_entropy(s) - 1e-6, "negative"),
    ])
    def test_tie_and_negative_deficit_as_in_a_one_point_call(
        self, monkeypatch, depth, outcome
    ):
        # J = Jz = -1, B = 1.4, T = 0.4 is won by the pi/2 endpoint; its S~
        # is replaced by cos 4 theta, which has one interior minimum
        self._patch_curve(monkeypatch, lambda th: np.cos(4.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum",
            lambda s, sign, lo, hi: (1.0, depth(s)) if sign > 0.0 else None,
        )
        p = ModelParams(-1.0, -1.0, 1.4, 0.4)
        if outcome == "tie":
            with pytest.warns(UserWarning, match="ties the pi/2 endpoint"):
                grid = optimize_grid(p.J, p.Jz, [p.T], [p.B])
            with pytest.warns(UserWarning, match="ties the pi/2 endpoint"):
                res = optimize_deficit(p)
            assert res.branch is Branch.HALF_PI
            assert (grid.branch[0][0], grid.theta[0, 0], grid.deficit[0, 0]) == (
                res.branch.value, res.optimal_theta, res.deficit
            )
        else:
            with pytest.raises(ArithmeticError, match="negative deficit"):
                optimize_grid(p.J, p.Jz, [p.T], [p.B])
            with pytest.raises(ArithmeticError, match="negative deficit"):
                optimize_deficit(p)

    @pytest.mark.parametrize("J,Jz,ts,bs,message", [
        (math.nan, -1.0, [0.5], [1.0], "J must be finite"),
        (-1.0, math.inf, [0.5], [1.0], "Jz must be finite"),
        (-1.0, -1.0, [0.5], [1.0, math.inf], "B must be finite, got inf"),
        (-1.0, -1.0, [0.5], [math.nan], "B must be finite, got nan"),
        (-1.0, -1.0, [math.inf], [1.0], "T must be finite"),
        (-1.0, -1.0, [0.5, -0.5], [1.0], "temperature must be positive"),
        # a Gibbs weight beyond float range: the entries are not finite
        (-1.0, -1.0, [1e-8], [1e303], "a must be finite"),
    ])
    def test_inputs_are_checked_as_in_a_one_point_call(self, J, Jz, ts, bs, message):
        with pytest.raises(ValueError, match=message):
            optimize_grid(J, Jz, ts, bs)
        with pytest.raises(ValueError, match=message):
            optimize_deficit(ModelParams(J, Jz, bs[-1], ts[-1]))

    def test_temperature_below_the_floor_is_clamped_with_a_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            grid = optimize_grid(-1.0, -1.0, [1e-9], [1.0])
        with pytest.warns(UserWarning, match="clamped"):
            res = optimize_deficit(ModelParams(-1.0, -1.0, 1.0, 1e-9))
        assert (grid.branch[0][0], grid.deficit[0, 0]) == (res.branch.value, res.deficit)

    # Each call sits on one line, so the line that calls the public
    # function is the lambda's first line.
    @pytest.mark.parametrize("call", [
        lambda p: scan_profile(thermal_state(p)),
        lambda p: optimize_deficit(p),
        lambda p: optimize_grid(p.J, p.Jz, [p.T], [p.B, 0.7]),
        lambda p: optimal_angle_jump(p, p),
    ], ids=["scan_profile", "optimize_deficit", "optimize_grid", "optimal_angle_jump"])
    def test_other_shape_warning_names_the_caller(self, monkeypatch, call):
        self._patch_curve(monkeypatch, lambda th: np.cos(8.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum", lambda s, sign, lo, hi: (0.5 * (lo + hi), 9.0)
        )
        with pytest.warns(UserWarning, match="3 interior extrema") as record:
            call(ModelParams(-1.0, -1.0, 1.4, 0.72))
        where = {(w.filename, w.lineno) for w in record}
        assert where == {(__file__, call.__code__.co_firstlineno)}

    @pytest.mark.parametrize("call", [
        lambda p: optimize_deficit(p),
        lambda p: optimize_grid(p.J, p.Jz, [p.T], [p.B]),
    ], ids=["optimize_deficit", "optimize_grid"])
    def test_tie_warning_names_the_caller(self, monkeypatch, call):
        self._patch_curve(monkeypatch, lambda th: np.cos(4.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum",
            lambda s, sign, lo, hi: (1.0, branch_s_halfpi(s)) if sign > 0.0 else None,
        )
        with pytest.warns(UserWarning, match="ties the pi/2 endpoint") as record:
            call(ModelParams(-1.0, -1.0, 1.4, 0.4))
        where = {(w.filename, w.lineno) for w in record}
        assert where == {(__file__, call.__code__.co_firstlineno)}


class TestOptimizeDeficit:
    def test_branch_sequence_along_the_probe_path(self):
        want = [(1.0, Branch.ZERO), (0.72, Branch.INTERIOR), (0.4, Branch.HALF_PI)]
        for t, branch in want:
            res = optimize_deficit(ModelParams(-1.0, -1.0, 1.4, t))
            assert res.branch is branch

    def test_ferromagnetic_longitudinal_dominance_is_all_zero(self, rng):
        for _ in range(40):
            t = rng.uniform(0.05, 2.0)
            b = rng.uniform(0.0, 3.0)
            res = optimize_deficit(ModelParams(1.0, 1.5, b, t))
            assert res.branch is Branch.ZERO

    def test_one_bit_at_the_origin(self):
        res = optimize_deficit(ModelParams(1.0, -1.0, 0.01, 0.01))
        assert res.deficit == pytest.approx(LN2, abs=1e-9)

    def test_matches_brute_force_scan(self, rng):
        thetas = np.linspace(0.0, HALF_PI, 10001)
        for _ in range(40):
            p = random_params(rng, t_max=3.0)
            s = thermal_state(p)
            brute = entropy_curve(s, thetas).min() - pre_measurement_entropy(s)
            res = optimize_deficit(p)
            assert res.deficit == pytest.approx(max(brute, 0.0), abs=1e-8)

    def test_deficit_bounds(self, rng):
        for _ in range(100):
            res = optimize_deficit(random_params(rng))
            assert 0.0 <= res.deficit <= LN2 + 1e-12

    def test_interior_reported_only_when_strictly_better(self, rng):
        for _ in range(60):
            res = optimize_deficit(random_params(rng))
            if res.branch is Branch.INTERIOR:
                assert res.delta_theta is not None
                assert res.delta_theta < res.delta0 - 1e-12
                assert res.delta_theta < res.delta_halfpi - 1e-12
                assert 0.0 < res.optimal_theta < HALF_PI

    def test_ising_limit_prefers_zero_branch(self, rng):
        for _ in range(20):
            p = random_params(rng)
            res = optimize_deficit(ModelParams(0.0, p.Jz, p.B, p.T))
            assert res.branch is Branch.ZERO
            assert res.deficit == pytest.approx(0.0, abs=1e-12)

    def test_flat_profile_reports_zero_branch(self):
        res = optimize_deficit(ModelParams(0.0, 0.0, 0.0, 0.9))
        assert res.shape is Shape.FLAT
        assert res.branch is Branch.ZERO
        assert res.optimal_theta == 0.0
        assert res.deficit == 0.0

    def test_deficit_bits_conversion(self, rng):
        res = optimize_deficit(random_params(rng))
        assert res.deficit_bits == pytest.approx(res.deficit / LN2, rel=1e-15)


class TestOptimalAngleJump:
    def test_table_row_across_the_interior_crossing(self):
        # straddling the crossing at B = 1.9 for the strongly Ising-like
        # case; the tabulated jump is the limit of a vanishing straddle,
        # so the crossing is solved rather than taken from the rounded table
        template = ModelParams(-1.0, -1.5, 1.9, 0.6)
        t_half, _ = solve_boundary_on_line(
            BoundaryKind.HALF_PI, template, "B", (0.4, 0.9)
        )
        t_cross, _ = solve_boundary_on_line(
            BoundaryKind.ZERO_PRIME, template, "B",
            (t_half + 1e-4, t_half + 0.2), n_scan=801,
        )
        jump = optimal_angle_jump(
            ModelParams(-1.0, -1.5, 1.9, t_cross + 1e-6),
            ModelParams(-1.0, -1.5, 1.9, t_cross - 1e-6),
        )
        assert jump == pytest.approx(0.64026, abs=1e-4)

    def test_right_angle_jump_at_the_triple_point(self):
        jump = optimal_angle_jump(
            ModelParams(-1.0, -1.5, 1.6851637, 0.6454108 + 1e-4),
            ModelParams(-1.0, -1.5, 1.6851637, 0.6454108 - 1e-4),
        )
        assert jump == pytest.approx(1.570782, abs=1e-3)

    def test_continuous_transition_jump_shrinks_with_window(self):
        t_c = 0.742967
        jumps = []
        for eps in (1e-3, 1e-4, 1e-5):
            jumps.append(
                optimal_angle_jump(
                    ModelParams(-1.0, -1.0, 1.4, t_c + eps),
                    ModelParams(-1.0, -1.0, 1.4, t_c - eps),
                    n=1001,
                )
            )
        assert jumps[0] > jumps[1] > jumps[2]
        assert jumps[2] < 0.01
