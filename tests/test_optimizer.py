import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxz_deficit import measurement, optimizer
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
    _gibbs_entries_exact,
    _states_exact,
    pre_measurement_entropy,
    thermal_state,
)
from xxz_deficit.optimizer import (
    FLAT_SPAN,
    SLOPE_NOISE,
    Branch,
    DeficitResult,
    Shape,
    _angles,
    _brackets,
    _doubtful,
    _refine_extremum,
    _rows,
    _sampled_extrema,
    _sampled_rows,
    golden_section_min,
    optimal_angle_jump,
    optimize_deficit,
    scan_profile,
)
from xxz_deficit.oracle import (
    dense_post_measurement,
    dense_thermal_state,
    von_neumann_entropy,
)

from conftest import gibbs_points, gibbs_states, random_params
from scalar_reference import hex_fields, scalar_branch_rule, scalar_optimize

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


def _reference_brackets(vals, maxima):
    """The bracket rule as the two full-size passes took it before it
    found its turns first: ``_slope_turns``, then the ``turn == 2`` (or
    ``abs(turn) == 2``) scan of ``_refine_brackets``."""
    flat = vals.max(axis=1) - vals.min(axis=1) < FLAT_SPAN
    dv = vals[:, 1:] - vals[:, :-1]
    big = np.abs(dv) >= SLOPE_NOISE
    live = (big[:, :-1] | big[:, 1:]) & ~flat[:, None]
    signs = np.sign(dv)
    turn = signs[:, 1:] - signs[:, :-1]
    turn[~live] = 0.0
    brackets = np.abs(turn) == 2.0 if maxima else turn == 2.0
    return [
        (int(k), int(i), 1.0 if turn[k, i] > 0.0 else -1.0)
        for k, i in zip(*np.nonzero(brackets))
    ]


class TestBracketRule:
    @staticmethod
    def _rows(rng):
        n = 201
        yield entropy_curve(
            [thermal_state(random_params(rng, t_min=0.03)) for _ in range(16)],
            np.linspace(0.0, HALF_PI, n),
        )
        for scale in (1.0, 1e-13, SLOPE_NOISE, 1e-15):
            yield scale * rng.standard_normal((16, n))
        # exact plateaus: repeated samples, so slopes of exactly 0
        yield np.round(rng.standard_normal((16, n)), 1)
        yield np.repeat(rng.standard_normal((16, 41)), 5, axis=1)[:, :n]
        # samples from {0, +-s/2, +-s, +-2s}: every slope is exactly a
        # multiple of s / 2, so many sit at exactly +-SLOPE_NOISE
        s = SLOPE_NOISE
        yield rng.choice([0.0, 0.5 * s, -0.5 * s, s, -s, 2.0 * s, -2.0 * s], (16, n))
        # spans of exactly FLAT_SPAN (not flat) and one ulp below (flat)
        for top in (FLAT_SPAN, np.nextafter(FLAT_SPAN, 0.0)):
            yield top * rng.integers(0, 2, (16, n))
        # one profile at a time, as scan_profile takes it, and short rows
        yield rng.standard_normal((1, n))
        yield rng.standard_normal((40, 5))

    def test_brackets_equal_the_two_pass_rule(self, rng):
        kinds = set()
        for vals in self._rows(rng):
            for maxima in (True, False):
                got = _brackets(_rows(vals), maxima)
                assert got == _reference_brackets(vals, maxima)
                kinds.update(sign for _, _, sign in got)
        assert kinds == {1.0, -1.0}

    def test_a_row_without_a_sample_to_compare_has_no_bracket(self):
        vals = np.array([[0.0, 1.0, np.nan, 1.0, 0.0, 1.0]])
        got = _brackets(_rows(vals), True)
        assert got == _reference_brackets(vals, True) == [(0, 3, 1.0)]

    def test_noise_and_flat_rows_bracket_nothing(self):
        s = SLOPE_NOISE
        noise = np.tile([0.0, 0.5 * s, 0.0], (2, 67))
        flat = np.tile([0.0, 0.5 * FLAT_SPAN], (2, 100))
        assert _brackets(_rows(noise), True) == _brackets(_rows(flat), True) == []
        # a turn is live where either of its slopes reaches SLOPE_NOISE
        rows = np.array(
            [[0.0, s, 0.5 * s, 1.0], [0.0, -0.5 * s, 0.5 * s, -1.0], [0.0, 0.5 * s, 0.0, 1.0]]
        )
        assert _brackets(_rows(rows), True) == [
            (0, 0, -1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -1.0), (2, 1, 1.0)
        ]
        assert _brackets(_rows(rows), False) == [(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]


def _decided(rows):
    """What the decisions of ``_sampled_extrema`` read of sampled rows:
    the brackets, the flat rows and, where not flat, whether S~ ends at
    or above where it starts."""
    flat = rows.span < FLAT_SPAN
    rising = rows.vals[:, -1] >= rows.vals[:, 0]
    return _brackets(rows, True), flat.tolist(), (rising & ~flat).tolist()


class TestFastSampler:
    @staticmethod
    def _row(steps):
        return np.concatenate([[0.0], np.cumsum(steps)])

    def test_doubtful_rows(self):
        d = 2.0 * measurement._FAST_DELTA
        ramp = np.linspace(0.0, 1.0, 201)
        tent = 1.0 - np.abs(2.0 * ramp - 1.0)
        small = SLOPE_NOISE + d
        steps = np.full(200, 0.005)
        cases = {
            # far from every threshold
            "ramp": (ramp, False),
            "tent, ends 3d apart": (tent + 3.0 * d * ramp, False),
            "a slope of 1.1 (SLOPE_NOISE + d)": (self._row(np.r_[steps[:-1], 1.1 * small]), False),
            # surely flat: its slopes and ends decide nothing
            "flat, tiny slopes": (0.5 * FLAT_SPAN * ramp, False),
            # within d of a threshold
            "span of FLAT_SPAN": (FLAT_SPAN * ramp, True),
            "span of FLAT_SPAN + d": ((FLAT_SPAN + d) * ramp, True),
            "span of FLAT_SPAN - d": ((FLAT_SPAN - d) * ramp, True),
            "tent, equal ends": (tent, True),
            "tent, ends 0.9d apart": (tent + 0.9 * d * ramp, True),
            "a slope of 0.9 (SLOPE_NOISE + d)": (self._row(np.r_[steps[:-1], 0.9 * small]), True),
            "a slope of 0": (self._row(np.r_[steps[:-1], 0.0]), True),
        }
        rows = _rows(np.array([vals for vals, _ in cases.values()]))
        got = dict(zip(cases, _doubtful(rows).tolist()))
        assert got == {name: want for name, (_, want) in cases.items()}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(gibbs_points, min_size=1, max_size=64), st.sampled_from([201, 401, 801]))
    def test_every_decision_is_that_of_the_exact_samples(self, points, n):
        many = gibbs_states(points)
        thetas = _angles(n)
        assert _decided(_sampled_rows(many, thetas)) == _decided(_rows(entropy_curve(many, thetas)))

    def test_the_cell_the_fast_samples_flip_is_resampled_and_keeps_its_shape(self):
        # the J=-1, Jz=-1.5 diagram on T 0.005:0.3, B 0:4 at 80x80, cell
        # T=0.09903125, B=0.575: S~ turns down after sample 109 with a
        # slope of 4.96e-14 before it, rounding noise, but of 5.02e-14 on
        # the fast samples alone, where the turn is live, brackets a
        # maximum and the cell reads UnimodalMax
        grid = GridSpec(0.005, 0.3, 0.0, 4.0, 80, 80)
        t, b = grid.t_centers()[25], grid.b_centers()[11]
        many = _states_exact(*_gibbs_entries_exact(-1.0, -1.5, np.array([b]), np.array([t])))
        state = thermal_state(ModelParams(-1.0, -1.5, b, t))
        thetas = _angles(201)
        fast = _rows(measurement._fast_entropy_curve(many, thetas))
        shape = _sampled_extrema(lambda k: state, thetas, fast)[2].item()
        assert optimizer._SHAPES[shape] is Shape.UNIMODAL_MAX
        assert _doubtful(fast).tolist() == [True]
        exact = entropy_curve(state, thetas)
        assert np.array_equal(_sampled_rows(many, thetas).vals[0].view(np.int64), exact.view(np.int64))
        assert scan_profile(state).shape is Shape.MONOTONE_INCREASING
        assert _cells(-1.0, -1.5, [t], [b]).label == ["MonotoneIncreasing"]


class TestAngles:
    def test_one_read_only_array_per_sample_count(self):
        thetas = _angles(201)
        assert _angles(201) is thetas
        assert thetas[0] == 0.0 and thetas[-1] == HALF_PI and len(thetas) == 201
        with pytest.raises(ValueError, match="read-only"):
            thetas[3] = 1.0
        assert _angles(801) is not thetas and len(_angles(801)) == 801

    def test_too_few_samples_fail_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="need at least 51 samples, got 50"):
                _angles(50)


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_slope_of_zero_at_a_halving_midpoint_is_the_root(self, monkeypatch, sign):
        # the bracket [0, 0.2] has no sign at 0, and halving it towards 0
        # reads a slope of exactly 0 at 0.1: that midpoint is the extremum,
        # with S~ evaluated there once, and nothing else is read
        state = thermal_state(ModelParams(-1.0, -1.5, 1.9, 0.628))
        read = []

        def slope(s, theta):
            read.append(theta)
            return sign * (theta - 0.1)

        monkeypatch.setattr(optimizer, "post_meas_entropy_slope", slope)
        assert _refine_extremum(state, sign, 0.0, 0.2) == (0.1, post_meas_entropy(state, 0.1))
        assert read == [0.2, 0.1]

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


def _ulp(x: float, steps: int) -> float:
    """x moved by ``steps`` ulps, up for positive steps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


class TestBranchRule:
    """``_branch_rule`` on n states equals the one-state rule state by
    state: winners, angles and deficits by hex, warnings in order."""

    TOL = optimizer.EQUAL_TOL

    @staticmethod
    def _outcome(call):
        """(result, warning messages, raised message) of ``call()``."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result, raised = call(), None
            except ArithmeticError as err:
                result, raised = None, str(err)
        return result, [str(w.message) for w in caught], raised

    def _assert_equal_to_scalar(self, cases):
        """The array rule on ``cases`` of (S(rho), S~(0), S~(pi/2),
        minima) equals the scalar rule taken case by case."""
        want_warnings, rows, want_raised = [], [], None
        for case in cases:
            row, caught, raised = self._outcome(lambda: scalar_branch_rule(*case))
            want_warnings += caught
            if raised is not None:
                want_raised = raised
                break
            rows.append(row)
        s_before, s0, s_half, minima = zip(*cases)
        got, caught, raised = self._outcome(lambda: optimizer._branch_rule(
            np.array(s_before), np.array(s0), np.array(s_half),
            {k: list(found) for k, found in enumerate(minima) if found},
        ))
        assert caught == want_warnings and raised == want_raised
        if raised is not None:
            return
        branches, theta, deficit, deepest = got
        assert [optimizer._BRANCHES[b] for b in branches.tolist()] == [r[0] for r in rows]
        assert [x.hex() for x in theta.tolist()] == [float(r[1]).hex() for r in rows]
        assert [x.hex() for x in deficit.tolist()] == [r[2].hex() for r in rows]
        assert [deepest.get(k) for k in range(len(rows))] == [r[3] for r in rows]

    def test_edges_of_the_tolerances(self):
        tol, s0 = self.TOL, 1.25
        cut = s0 - tol
        cases = [
            # S~(pi/2) at S~(0) - EQUAL_TOL and one ulp either side
            (0.5, s0, _ulp(cut, -1), []),
            (0.5, s0, cut, []),
            (0.5, s0, _ulp(cut, 1), []),
            # an interior minimum at the tolerance below the best endpoint,
            # and one ulp either side
            (0.5, s0, 2.0, [(0.7, _ulp(cut, -1))]),
            (0.5, s0, 2.0, [(0.7, cut)]),
            (0.5, s0, 2.0, [(0.7, _ulp(cut, 1))]),
            # two equally deep minima: the first wins
            (0.5, s0, 2.0, [(0.3, 1.0), (0.9, 1.0)]),
            (0.5, s0, 2.0, [(0.9, 1.0), (0.3, 1.0), (0.5, 1.0 + tol)]),
            # deficits of -0.0 and -1e-10 read 0, and -1e-9 does not raise
            (0.0, -0.0, 0.5, []),
            (1.0 + 1e-10, 1.0, 2.0, []),
            (1e-9, 0.0, 0.5, []),
            # ties of an interior minimum with the pi/2 endpoint: at the
            # tolerance either side, and one next to pi/2 that is no tie
            (0.5, s0, 1.0, [(0.8, 1.0)]),
            (0.5, s0, 1.0, [(0.8, 1.0 + tol)]),
            (0.5, s0, 1.0, [(0.8, 1.0 - tol)]),
            (0.5, s0, 1.0, [(HALF_PI - 0.04, 1.0)]),
            # a tie where the pi/2 endpoint loses to S~(0) is no tie
            (0.5, 1.0, 1.0, [(0.8, 1.0)]),
        ]
        self._assert_equal_to_scalar(cases)
        _, _, deficit, _ = optimizer._branch_rule(
            np.array([0.0, 1.0 + 1e-10]), np.array([-0.0, 1.0]), np.array([0.5, 2.0]), {}
        )
        assert deficit.tolist() == [0.0, 0.0]

    def test_a_deficit_just_below_the_floor_raises_as_one_state(self):
        below = _ulp(1e-9, 1)  # a deficit of -1e-9 - 1 ulp
        cases = [(0.5, 1.25, 1.0, [(0.8, 1.0)]), (0.0, 0.0, 1.0, []),
                 (below, 0.0, 0.5, [(0.8, 0.0)]), (0.5, 1.25, 1.0, [(0.8, 1.0)])]
        self._assert_equal_to_scalar(cases)
        with pytest.raises(ArithmeticError) as err:
            optimizer._branch_rule(*map(np.array, ([below], [0.0], [0.5])), {})
        assert str(err.value) == optimizer._NEGATIVE.format(-below)

    def test_random_states_near_every_tolerance(self, rng):
        tol = self.TOL
        cases = []
        for _ in range(3000):
            # every value at least S(rho), so that no state raises
            s_before = rng.uniform(0.0, 1.0)
            s0 = s_before + float(rng.choice([0.0, 1e-13, rng.uniform(0.0, 1.0)]))
            s_half = s0 + float(rng.choice([-tol, tol, 0.0, rng.uniform(-0.5, 0.5)]))
            s_half = max(s_half + float(rng.choice([0.0, 1e-13, -1e-13])), s_before)
            minima = []
            for _ in range(rng.integers(0, 3)):
                step = float(rng.choice([-tol, 0.0, tol, rng.uniform(-0.1, 0.1)]))
                depth = min(s0, s_half) + step
                angle = float(rng.choice([0.6, HALF_PI - 0.01, rng.uniform(0.0, HALF_PI)]))
                minima.append((angle, max(depth, s_before)))
            cases.append((s_before, s0, s_half, minima))
        self._assert_equal_to_scalar(cases)
        assert {case[3] != [] for case in cases} == {True, False}


def _cells(J, Jz, ts, bs):
    """``_optimize_points`` at every (T, B) of ``ts`` by ``bs``, the cells
    in row-major order, as ``sweep`` lays out a grid's cells."""
    return optimizer._optimize_points(J, Jz, np.tile(bs, len(ts)), np.repeat(ts, len(bs)))


class TestOptimizePoints:
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
            # 3 rows of 22 cells: three array passes, the last one partial,
            # and passes that span two rows
            bs = np.concatenate([rng.uniform(-3.0, 3.0, 20), [0.0, 1.9]])
            shapes |= self._equals_one_point_calls(J, Jz, ts, bs)
        assert {"Bimodal", "Flat", "UnimodalMax"} <= shapes

    def test_a_grid_of_two_blocks_equals_one_point_calls(self):
        # 17x17 = 289 cells: one block of 256 and one of 33, each sampled
        # into one array and bracketed, shaped and ruled in one call
        shapes = self._equals_one_point_calls(
            -1.0, -1.5, np.linspace(0.05, 2.0, 17), np.linspace(0.0, 3.0, 17)
        )
        assert {"Bimodal", "Flat", "UnimodalMax"} <= shapes

    @staticmethod
    def _equals_one_point_calls(J, Jz, ts, bs):
        """Asserts that every cell of the grid is its one-point optimizer
        by hex, as the scalar closed forms compose it, and returns the
        cells' shape labels."""
        cells = _cells(J, Jz, ts, bs)
        size = len(ts) * len(bs)
        assert cells.theta.shape == cells.deficit.shape == cells.branch.shape == (size,)
        assert len(cells.label) == size
        shapes = set()
        for k, (t, b) in enumerate(itertools.product(ts, bs)):
            res = scalar_optimize(ModelParams(J, Jz, b, t))
            assert optimizer._BRANCHES[cells.branch[k]] is res.branch
            assert optimizer._SHAPES[cells.shape[k]] is res.shape
            assert cells.label[k] == res.shape_label
            assert float(cells.theta[k]).hex() == float(res.optimal_theta).hex()
            assert float(cells.deficit[k]).hex() == float(res.deficit).hex()
            shapes.add(res.shape_label)
        return shapes

    @staticmethod
    def _count_passes(monkeypatch):
        """The states of every call of each sampler and of every array
        pass of its kernel, as a dict of four lists that fill as they are
        made: "fast" and "exact" calls (``_fast_entropy_curve`` and the
        re-sampling ``entropy_curve``), and their "fast passes" and
        "exact passes"."""
        seen = {"fast": [], "exact": [], "fast passes": [], "exact passes": []}
        kernel = measurement._curve_pass

        def counted(name, curve):
            def counted_curve(states, thetas):
                seen[name].append(len(states.a))
                return curve(states, thetas)
            return counted_curve

        def counted_pass(alpha, *args):
            fast = args[-1] is measurement._rho_sqrt
            seen["fast passes" if fast else "exact passes"].append(len(alpha))
            return kernel(alpha, *args)

        monkeypatch.setattr(optimizer, "entropy_curve", counted("exact", optimizer.entropy_curve))
        monkeypatch.setattr(
            optimizer, "_fast_entropy_curve", counted("fast", optimizer._fast_entropy_curve)
        )
        monkeypatch.setattr(measurement, "_curve_pass", counted_pass)
        return seen

    def test_a_grid_is_sampled_in_passes_of_32_cells(self, monkeypatch):
        # 66 cells: one fast sampler call for their one block, in array
        # passes of 32, 32 and 2 cells; no row is doubtful
        seen = self._count_passes(monkeypatch)
        _cells(-1.0, -1.0, [0.3, 0.7, 1.1], np.linspace(0.0, 3.0, 22))
        assert seen == {"fast": [66], "exact": [], "fast passes": [32, 32, 2], "exact passes": []}

    def test_a_grid_takes_one_curve_call_per_block(self, monkeypatch):
        # and one exact call for the doubtful rows of a block that has
        # any: two rows of the first block here
        seen = self._count_passes(monkeypatch)
        _cells(-1.0, -1.5, np.linspace(0.05, 2.0, 17), np.linspace(0.0, 3.0, 17))
        assert seen["fast"] == [256, 33] and seen["fast passes"] == [32] * 9 + [1]
        assert seen["exact"] == seen["exact passes"] == [2]

    def test_the_brackets_are_taken_once_per_block(self, monkeypatch):
        rules = []
        brackets = optimizer._brackets

        def counted(rows, maxima):
            rules.append(len(rows.vals))
            return brackets(rows, maxima)

        monkeypatch.setattr(optimizer, "_brackets", counted)
        _cells(-1.0, -1.5, np.linspace(0.05, 2.0, 17), np.linspace(0.0, 3.0, 17))
        assert rules == [256, 33]

    def test_sampled_minima_take_the_brackets_once(self, monkeypatch):
        # 20 states at 801 angles: one fast call in passes of 8, 8 and 4
        # states, no row doubtful, one bracket call, and every state's
        # minima those of its own scan_profile
        bs, ts = np.linspace(1.7, 2.1, 20), np.linspace(0.55, 0.7, 20)
        st = optimizer._states_exact(*optimizer._gibbs_entries_exact(-1.0, -1.5, bs, ts))
        rules = []
        brackets = optimizer._brackets

        def counted_brackets(rows, maxima):
            rules.append(len(rows.vals))
            return brackets(rows, maxima)

        seen = self._count_passes(monkeypatch)
        monkeypatch.setattr(optimizer, "_brackets", counted_brackets)
        minima = optimizer._sampled_minima(st, 801)
        assert seen == {"fast": [20], "exact": [], "fast passes": [8, 8, 4], "exact passes": []}
        assert rules == [20]
        monkeypatch.undo()
        found = 0
        for b, t, got in zip(bs.tolist(), ts.tolist(), minima):
            want = scan_profile(thermal_state(ModelParams(-1.0, -1.5, b, t)), 801)
            assert [(x.hex(), y.hex()) for x, y in got] == [
                (x.hex(), y.hex()) for x, y in want.interior_minima
            ]
            found += len(got)
        assert found > 0

    @staticmethod
    def _traced_peak(call):
        """The peak traced memory of ``call()``, run once before to fill
        the caches."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_40x40_grid_peaks_below_1_5_mb(self):
        # one block of S~ samples (256 x 201), the temporaries of its
        # brackets and the work arrays of one 32-cell pass: about 1.2 MB
        # traced
        grid = GridSpec(0.02, 2.0, 0.0, 3.0, 40, 40)
        assert self._traced_peak(lambda: sweep(-1.0, -1.5, grid)) < 1.5 * 2**20

    def test_a_65_state_scan_line_at_801_angles_peaks_below_1_5_mb(self):
        # the (65, 801) S~ samples of a ``jumps`` scan line, the
        # temporaries of its brackets and the work arrays of one 8-state
        # pass: about 1.1 MB traced
        bs, ts = np.linspace(1.6, 2.1, 65), np.linspace(0.4, 0.8, 65)
        st = optimizer._states_exact(*optimizer._gibbs_entries_exact(-1.0, -1.5, bs, ts))
        assert self._traced_peak(lambda: optimizer._sampled_minima(st, 801)) < 1.5 * 2**20

    @staticmethod
    def _patch_curve(monkeypatch, curve):
        """S~ samples replaced by ``curve(thetas)`` for every state, in
        both samplers."""

        def fake(states, thetas):
            row = curve(np.asarray(thetas))
            if isinstance(states, XThermalState):
                return row
            k = len(states.a) if isinstance(states, ThermalStates) else len(states)
            return np.tile(row, (k, 1))

        for sampler in ("entropy_curve", "_fast_entropy_curve"):
            monkeypatch.setattr(optimizer, sampler, fake)

    def test_other_shape_warns_as_in_a_one_point_call(self, monkeypatch):
        # cos 8 theta: three interior extrema, each reported at the
        # middle of its scan cell
        self._patch_curve(monkeypatch, lambda th: np.cos(8.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum", lambda s, sign, lo, hi: (0.5 * (lo + hi), 9.0)
        )
        with pytest.warns(UserWarning, match="3 interior extrema"):
            cells = _cells(-1.0, -1.0, [0.72], [1.4, 0.7])
        with pytest.warns(UserWarning, match="3 interior extrema"):
            res = optimize_deficit(ModelParams(-1.0, -1.0, 1.4, 0.72))
        assert res.shape_label == "Other(3)"
        assert cells.label == ["Other(3)", "Other(3)"]
        assert optimizer._BRANCHES[cells.branch[0]] is res.branch

    def test_a_block_warns_its_other_shapes_before_its_ties(self, monkeypatch):
        # every cell is Other(2) (the two minima of cos 8 theta) and ties
        # the pi/2 endpoint (J = Jz = -1, B = 1.4, T = 0.4, won there):
        # 300 cells are a block of 256 and one of 44, and each block warns
        # for the shapes of all its rows, then for their ties
        self._patch_curve(monkeypatch, lambda th: np.cos(8.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum",
            lambda s, sign, lo, hi: (1.0, branch_s_halfpi(s)) if sign > 0.0 else None,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells = _cells(-1.0, -1.0, [0.4] * 3, np.full(100, 1.4))
        other = "2 interior extrema found; profile outside the unimodal/bimodal family"
        tie = optimizer._TIE
        assert [str(w.message) for w in caught] == (
            [other] * 256 + [tie] * 256 + [other] * 44 + [tie] * 44
        )
        assert set(cells.label) == {"Other(2)"} and len(cells.label) == 300
        assert {optimizer._BRANCHES[k] for k in cells.branch.tolist()} == {Branch.HALF_PI}

    def test_a_block_warns_its_ties_up_to_its_first_failing_cell(self, monkeypatch):
        # five cells of one block, each with one interior minimum (cos 4
        # theta): two that tie the pi/2 endpoint, two below S(rho), then
        # a tie; the ties of the first two cells warn, in cell order, and
        # the first cell below S(rho) raises with its own deficit
        ts = [0.4, 0.41, 0.42, 0.43, 0.44]
        offsets = iter([None, None, 1e-6, 2e-6, None])

        def depth(s):
            offset = next(offsets)
            if offset is None:
                return branch_s_halfpi(s)
            return pre_measurement_entropy(s) - offset

        self._patch_curve(monkeypatch, lambda th: np.cos(4.0 * th))
        monkeypatch.setattr(
            optimizer, "_refine_extremum",
            lambda s, sign, lo, hi: (1.0, depth(s)) if sign > 0.0 else None,
        )
        s = thermal_state(ModelParams(-1.0, -1.0, 1.4, ts[2]))
        deficit = (pre_measurement_entropy(s) - 1e-6) - pre_measurement_entropy(s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ArithmeticError) as err:
                _cells(-1.0, -1.0, ts, [1.4])
        assert [str(w.message) for w in caught] == [optimizer._TIE] * 2
        assert str(err.value) == optimizer._NEGATIVE.format(deficit)

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
                cells = _cells(p.J, p.Jz, [p.T], [p.B])
            with pytest.warns(UserWarning, match="ties the pi/2 endpoint"):
                res = optimize_deficit(p)
            assert res.branch is Branch.HALF_PI
            assert (optimizer._BRANCHES[cells.branch[0]], cells.theta[0], cells.deficit[0]) == (
                res.branch, res.optimal_theta, res.deficit
            )
        else:
            with pytest.raises(ArithmeticError, match="negative deficit"):
                _cells(p.J, p.Jz, [p.T], [p.B])
            with pytest.raises(ArithmeticError, match="negative deficit"):
                optimize_deficit(p)

    @pytest.mark.parametrize("J,Jz,B,T,message", [
        (math.nan, -1.0, 1.0, 0.5, "J must be finite"),
        (-1.0, math.inf, 1.0, 0.5, "Jz must be finite"),
        (-1.0, -1.0, math.inf, 0.5, "B must be finite, got inf"),
        (-1.0, -1.0, math.nan, 0.5, "B must be finite, got nan"),
        (-1.0, -1.0, 1.0, math.inf, "T must be finite"),
        (-1.0, -1.0, 1.0, -0.5, "temperature must be positive"),
        # a Gibbs weight beyond float range: the entries are not finite
        (-1.0, -1.0, 1e303, 1e-8, "a must be finite"),
    ])
    def test_inputs_are_checked_as_in_a_one_point_call(self, J, Jz, B, T, message):
        with pytest.raises(ValueError, match=message):
            optimize_deficit(ModelParams(J, Jz, B, T))

    def test_entries_beyond_float_range_raise_before_any_block_is_sampled(self, monkeypatch):
        # the second point's Gibbs weight is beyond float range
        monkeypatch.setattr(optimizer, "_sampled_rows", None)
        with pytest.raises(ValueError, match="a must be finite"):
            _cells(-1.0, -1.0, [1e-8], [1.0, 1e303])

    def test_temperature_below_the_floor_is_clamped_with_a_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            res = optimize_deficit(ModelParams(-1.0, -1.0, 1.0, 1e-9))
        assert res == optimize_deficit(ModelParams(-1.0, -1.0, 1.0, 1e-8))

    # Each call sits on one line, so the line that calls the public
    # function is the lambda's first line.
    @pytest.mark.parametrize("call", [
        lambda p: scan_profile(thermal_state(p)),
        lambda p: optimize_deficit(p),
        lambda p: sweep(p.J, p.Jz, GridSpec(p.T, p.T + 0.1, p.B, p.B + 0.1, 2, 2)),
        lambda p: optimal_angle_jump(p, p),
    ], ids=["scan_profile", "optimize_deficit", "sweep", "optimal_angle_jump"])
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
        lambda p: sweep(p.J, p.Jz, GridSpec(p.T, p.T + 0.1, p.B, p.B + 0.1, 2, 2)),
    ], ids=["optimize_deficit", "sweep"])
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


def _reference_points(rng, k):
    """``k`` points for the bitwise comparisons: the landmarks (the
    Bimodal point, an interior winner, flat states at B = 0 and T = 1e6,
    a point at T = 1e-6) and random points, T from 0.01 to 5."""
    landmarks = [ModelParams(-1.0, -1.5, 1.9, 0.628), ModelParams(-1.0, -1.0, 1.4, 0.72),
                 ModelParams(0.0, 0.0, 0.0, 0.9), ModelParams(1.2, -0.3, 0.5, 1e6),
                 ModelParams(-1.0, -1.0, 1.0, 1e-6)]
    return landmarks + [random_params(rng, t_min=0.01) for _ in range(k - len(landmarks))]


class TestOptimizeDeficit:
    @pytest.mark.parametrize("n", [201, 401, 801])
    def test_every_field_equals_the_scalar_composition(self, rng, n):
        # 1,350 points per angle count, 4,050 in all: the one-point call
        # and one call of the entry over all the points, each with its own
        # couplings, in six blocks, equal the scalar closed forms by hex
        points = _reference_points(rng, 1350)
        want = [hex_fields(scalar_optimize(p, n)) for p in points]
        assert [hex_fields(optimize_deficit(p, n)) for p in points] == want
        J, Jz, B, T = np.array([[p.J, p.Jz, p.B, p.T] for p in points]).T
        o = optimizer._optimize_points(J, Jz, B, T, n)
        depths = [o.depth.get(k) for k in range(len(points))]
        got = [
            (s0 - before, s_half - before, None if depth is None else depth - before,
             optimizer._BRANCHES[branch], theta, deficit, optimizer._SHAPES[shape], label)
            for (before, s0, s_half), branch, shape, theta, deficit, depth, label in zip(
                o.ends.T.tolist(), o.branch.tolist(), o.shape.tolist(), o.theta.tolist(),
                o.deficit.tolist(), depths, o.label,
            )
        ]
        assert [hex_fields(DeficitResult(*fields)) for fields in got] == want
        assert {w[3] for w in want} == set(Branch)

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
    @pytest.mark.parametrize("n", [201, 801])
    def test_two_couplings_equal_the_scalar_composition(self, n):
        # both points in one call of the entry, each with its own couplings
        before = ModelParams(-1.0, -1.5, 1.9, 0.628)
        after = ModelParams(-1.0, -1.0, 1.4, 0.72)
        thetas = [scalar_optimize(p, n).optimal_theta for p in (before, after)]
        assert optimal_angle_jump(before, after, n).hex() == abs(thetas[1] - thetas[0]).hex()
        assert 0.0 < thetas[1] < HALF_PI

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
