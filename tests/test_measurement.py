import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxz_deficit import measurement
from xxz_deficit.measurement import (
    _PASS_SAMPLES,
    HALF_PI,
    DegenerateState,
    PopulationUnderflow,
    _branch_s0,
    branch_s0,
    branch_s_halfpi,
    branch_s_halfpis,
    entropy_curve,
    post_meas_entropy,
    _spectrum,
    post_meas_entropy_slope,
    second_derivative_at_0,
    second_derivative_at_halfpi,
    second_derivatives_at_halfpi,
)
from xxz_deficit.model import (
    ModelParams,
    ThermalStates,
    XThermalState,
    _mapped,
    pre_measurement_entropy,
    thermal_state,
    thermal_states,
)
from xxz_deficit.oracle import dense_post_measurement, dense_thermal_state

from conftest import gibbs_points, gibbs_states, random_params
from finite_differences import (
    endpoint_first_derivatives,
    fd_second_derivative_at_0,
    fd_second_derivative_at_halfpi,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

params_st = st.builds(
    ModelParams,
    J=st.floats(-2.0, 2.0),
    Jz=st.floats(-2.0, 2.0),
    B=st.floats(-3.0, 3.0),
    T=st.floats(0.05, 5.0),
)
theta_st = st.floats(0.0, HALF_PI)


def _mp_second_derivative_at_0(p, dps=60):
    """S~''(0) by mpmath.diff, with S~ evaluated at dps digits from the
    Gibbs weights; an arbitrary-precision reference for the closed form."""
    with mpmath.workdps(dps):
        t, j, jz, b_field = (mpmath.mpf(x) for x in (p.T, abs(p.J), p.Jz, p.B))
        g = [(jz / 2 + b_field) / t, (jz / 2 - b_field) / t,
             (j - jz / 2) / t, (-j - jz / 2) / t]
        w = [mpmath.exp(x - max(g)) for x in g]
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

        return float(mpmath.diff(entropy, 0, 2))


def _bisect(f, lo, hi, n=80):
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPostMeasSpectrum:
    def test_zero_angle_reduces_to_populations(self, rng):
        for _ in range(20):
            s = thermal_state(random_params(rng))
            got = sorted(_spectrum(s, 0.0))
            want = sorted((s.a, s.d, s.b, s.b))
            assert np.allclose(got, want, atol=1e-15)

    def test_halfpi_is_twofold_degenerate(self, rng):
        for _ in range(20):
            s = thermal_state(random_params(rng))
            got = sorted(_spectrum(s, HALF_PI))
            want = sorted(((1 - s.r) / 4, (1 - s.r) / 4, (1 + s.r) / 4, (1 + s.r) / 4))
            assert np.allclose(got, want, atol=1e-12)

    def test_matches_oracle_any_azimuth(self, rng):
        for _ in range(100):
            p = random_params(rng)
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out = dense_post_measurement(dense_thermal_state(p), theta, phi)
            num = np.sort(out.state.spectrum())
            ana = np.sort(_spectrum(thermal_state(p), theta))
            assert np.abs(num - ana).max() < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(params_st, theta_st)
    def test_probabilities(self, p, theta):
        spec = _spectrum(thermal_state(p), theta)
        assert all(x >= 0.0 for x in spec)
        assert sum(spec) == pytest.approx(1.0, abs=1e-12)


class TestPostMeasEntropy:
    @settings(max_examples=80, deadline=None)
    @given(params_st)
    def test_endpoint_reductions(self, p):
        s = thermal_state(p)
        assert post_meas_entropy(s, 0.0) == pytest.approx(branch_s0(s), abs=1e-12)
        assert post_meas_entropy(s, HALF_PI) == pytest.approx(
            branch_s_halfpi(s), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(params_st, theta_st)
    def test_measurement_never_lowers_entropy(self, p, theta):
        s = thermal_state(p)
        assert post_meas_entropy(s, theta) >= pre_measurement_entropy(s) - 1e-12

    def test_endpoint_entropies_cross_on_the_equal_line(self):
        s = thermal_state(ModelParams(-1.0, -1.0, 1.4, 0.684237))
        assert post_meas_entropy(s, 0.0) == pytest.approx(
            post_meas_entropy(s, HALF_PI), abs=1e-4
        )

    def test_curve_matches_scalar(self, rng):
        s = thermal_state(random_params(rng))
        thetas = np.linspace(0.0, HALF_PI, 17)
        curve = entropy_curve(s, thetas)
        scalar = [post_meas_entropy(s, t) for t in thetas]
        assert np.abs(curve - scalar).max() < 1e-14

    def test_rows_of_many_states_equal_their_single_curves(self, rng):
        states = [thermal_state(random_params(rng, t_min=0.03)) for _ in range(40)]
        thetas = np.linspace(0.0, HALF_PI, 201)
        curves = entropy_curve(states, thetas)
        assert curves.shape == (40, 201)
        for row, s in zip(curves, states):
            assert np.array_equal(row, entropy_curve(s, thetas))


def _stack_where_levels(many, thetas):
    """The four post-measurement levels of the states ``many`` at
    ``thetas``, stacked as the earlier ``entropy_curve`` stacked them."""
    a, b, d, v = (x[:, None] for x in many[:4])
    c, sn = np.cos(thetas), np.sin(thetas)
    alpha = a - d
    bc = (1.0 - 4.0 * b) * c
    cross = 2.0 * v * sn
    rp = np.hypot(alpha + bc, cross)
    rm = np.hypot(alpha - bc, cross)
    ac = alpha * c
    up, down = 1.0 + ac, 1.0 - ac
    return 0.25 * np.stack([up + rp, up - rp, down + rm, down - rm])


def _stack_where_curves(many, thetas):
    """S~ by the stack/where formula of the earlier ``entropy_curve``:
    the reference for the bits of every sample."""
    spec = _stack_where_levels(many, thetas)
    terms = spec * np.log(np.where(spec > 0.0, spec, 1.0))
    return -terms.sum(axis=0)


def _mixed_states(rng, k: int) -> ThermalStates:
    """k random states with T log-uniform down to 0.003, then k at T =
    0.003 in a strong field: nearly pure, with levels that round to
    -1e-17."""
    ts = np.concatenate([np.exp(rng.uniform(np.log(0.003), np.log(3.0), k)), np.full(k, 0.003)])
    bs = np.concatenate([rng.uniform(0.0, 4.0, k), rng.uniform(2.0, 4.0, k)])
    return thermal_states(rng.uniform(-2.0, 2.0, 2 * k), rng.uniform(-3.0, 2.0, 2 * k), bs, ts)


def _hex_equal(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestEntropyCurveBits:
    @pytest.mark.parametrize("n", [201, 401, 801])
    def test_every_sample_keeps_the_bits_of_the_stack_where_formula(self, rng, n):
        k = 40
        many = _mixed_states(rng, k)
        thetas = np.linspace(0.0, HALF_PI, n)
        assert (_stack_where_levels(many, thetas) < 0.0).any()
        want = _stack_where_curves(many, thetas).view(np.int64)
        assert np.array_equal(entropy_curve(many, thetas).view(np.int64), want)
        states = [XThermalState(*(x[i].item() for x in many[:4])) for i in range(2 * k)]
        assert np.array_equal(entropy_curve(states, thetas).view(np.int64), want)
        for i, s in enumerate(states):
            assert np.array_equal(entropy_curve(s, thetas).view(np.int64), want[i])


class TestEntropyCurvePasses:
    """``entropy_curve`` reuses one set of work arrays for all passes of
    a call; every sample keeps the bits of the stack/where formula."""

    @staticmethod
    def _first(many: ThermalStates, k: int) -> ThermalStates:
        return ThermalStates(*(x[:k] for x in many))

    @pytest.mark.parametrize("n", [201, 401, 801])
    @pytest.mark.parametrize("k", [33, 65])
    def test_a_partial_last_pass_keeps_the_bits(self, rng, k, n):
        # 33 and 65 states leave one state for the last pass at every n;
        # about half of them are nearly pure, with negative levels
        many = self._first(_mixed_states(rng, (k + 1) // 2), k)
        assert k % (_PASS_SAMPLES // n) == 1
        thetas = np.linspace(0.0, HALF_PI, n)
        assert (_stack_where_levels(many, thetas) < 0.0).any()
        assert _hex_equal(entropy_curve(many, thetas), _stack_where_curves(many, thetas))

    def test_a_call_after_a_larger_call_keeps_the_bits(self, rng):
        many = _mixed_states(rng, 40)
        thetas = np.linspace(0.0, HALF_PI, 201)
        entropy_curve(many, thetas)
        few = self._first(many, 33)
        assert _hex_equal(entropy_curve(few, thetas), _stack_where_curves(few, thetas))

    def test_one_state_after_many_keeps_the_bits(self, rng):
        many = _mixed_states(rng, 40)
        thetas = np.linspace(0.0, HALF_PI, 801)
        want = _stack_where_curves(many, thetas)
        assert _hex_equal(entropy_curve(many, thetas), want)
        for i in (0, 41, 79):
            s = XThermalState(*(x[i].item() for x in many[:4]))
            assert _hex_equal(entropy_curve(s, thetas), want[i])

    @pytest.mark.parametrize("curve,rho", [
        (entropy_curve, measurement._rho_hypot),
        (measurement._fast_entropy_curve, measurement._rho_sqrt),
    ])
    def test_the_pass_size_bounds_the_work_arrays(self, monkeypatch, rng, curve, rho):
        # 65 states at 201 angles: passes of 32, 32 and 1 state, each
        # with work arrays of two layers of its own rows, none above 128 kB,
        # and with the rho step of the sampler
        seen = []
        kernel = measurement._curve_pass

        def counted(alpha, beta, cross, c, sn, out, work, step):
            seen.append((len(alpha), out.shape, {x.shape for x in work}, step))
            assert max(x.nbytes for x in work) <= 128 * 1024
            return kernel(alpha, beta, cross, c, sn, out, work, step)

        monkeypatch.setattr(measurement, "_curve_pass", counted)
        many = _mixed_states(rng, 40)
        curve(self._first(many, 65), np.linspace(0.0, HALF_PI, 201))
        assert seen == [(k, (k, 201), {(2, k, 201)}, rho) for k in (32, 32, 1)]


# Entries of checked states that need no Gibbs weights: b and d from 0
# down to 1e-300 (nearly pure at a = 1), up to 1/4, any v in [0, b], and
# a and d swapped or not.
_small = st.one_of(
    st.just(0.0), st.integers(-300, -1).map(lambda e: 10.0**e), st.floats(0.0, 0.25)
)
_entries = st.tuples(_small, _small, st.floats(0.0, 1.0), st.booleans())


def _entry_state(b: float, d: float, share: float, swap: bool) -> XThermalState:
    a = 1.0 - 2.0 * b - d
    return XThermalState(d, b, a, share * b) if swap else XThermalState(a, b, d, share * b)


class TestFastEntropyCurve:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(gibbs_points, min_size=1, max_size=40),
        st.lists(_entries, max_size=10),
        st.sampled_from([201, 401, 801]),
    )
    def test_samples_lie_within_delta_of_entropy_curve(self, points, entries, n):
        many = gibbs_states(points)
        states = [XThermalState(*(x[i].item() for x in many[:4])) for i in range(len(points))]
        states += [_entry_state(*e) for e in entries]
        thetas = np.linspace(0.0, HALF_PI, n)
        fast = measurement._fast_entropy_curve(states, thetas)
        assert np.abs(fast - entropy_curve(states, thetas)).max() <= measurement._FAST_DELTA

    def test_a_row_is_bitwise_the_curve_of_its_state_alone(self, rng):
        many = _mixed_states(rng, 40)
        thetas = np.linspace(0.0, HALF_PI, 201)
        rows = measurement._fast_entropy_curve(many, thetas)
        for i in (0, 33, 79):
            s = XThermalState(*(x[i].item() for x in many[:4]))
            assert _hex_equal(measurement._fast_entropy_curve(s, thetas), rows[i])


class TestPostMeasEntropySlope:
    def test_matches_central_differences(self, rng):
        for _ in range(60):
            s = thermal_state(random_params(rng, t_min=0.1))
            theta = rng.uniform(0.01, HALF_PI - 0.01)
            h = 1e-5
            fd = (post_meas_entropy(s, theta + h) - post_meas_entropy(s, theta - h)) / (2 * h)
            assert post_meas_entropy_slope(s, theta) == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(params_st)
    def test_vanishes_at_both_endpoints(self, p):
        s = thermal_state(p)
        assert post_meas_entropy_slope(s, 0.0) == 0.0
        assert abs(post_meas_entropy_slope(s, HALF_PI)) <= 1e-15

    @pytest.mark.parametrize("theta", [1e-200, 0.3, 1.0, HALF_PI - 1e-9])
    def test_pure_and_flat_states(self, theta):
        # |00> and |11> give S~ = h((1 + cos)/2), whose slope is
        # sin/2 ln((1 + cos)/(1 - cos)) = -sin ln tan(theta/2); a Bell
        # state and the maximally mixed state give a flat S~
        want = -math.sin(theta) * math.log(math.tan(theta / 2))
        for s in (XThermalState(1.0, 0.0, 0.0, 0.0), XThermalState(0.0, 0.0, 1.0, 0.0)):
            assert post_meas_entropy_slope(s, theta) == pytest.approx(
                want, rel=1e-12, abs=1e-15
            )
        for s in (XThermalState(0.0, 0.5, 0.0, 0.5), XThermalState(0.25, 0.25, 0.25, 0.0)):
            assert post_meas_entropy_slope(s, theta) == 0.0


class TestBranches:
    def test_no_coherence_makes_z_measurement_free(self, rng):
        for _ in range(20):
            p = random_params(rng)
            s = thermal_state(ModelParams(0.0, p.Jz, p.B, p.T))
            assert branch_s0(s) == pytest.approx(pre_measurement_entropy(s), abs=1e-12)

    def test_maximally_mixed(self):
        s = XThermalState(a=0.25, b=0.25, d=0.25, v=0.0)
        assert branch_s0(s) == pytest.approx(LN4, abs=1e-15)
        assert branch_s_halfpi(s) == pytest.approx(LN4, abs=1e-15)

    def test_halfpi_branch_range_and_pure_limit(self, rng):
        s = XThermalState(a=0.5, b=0.25, d=0.0, v=0.25)  # r close to 1
        assert branch_s_halfpi(s) >= LN2 - 1e-12
        for _ in range(30):
            s = thermal_state(random_params(rng))
            assert LN2 - 1e-12 <= branch_s_halfpi(s) <= LN4 + 1e-12

    def test_klein_inequality(self, rng):
        for _ in range(50):
            s = thermal_state(random_params(rng))
            assert branch_s0(s) >= pre_measurement_entropy(s) - 1e-12


class TestEndpointDerivatives:
    def test_vanish_on_random_draws(self, rng):
        worst = 0.0
        for _ in range(100):
            d0, d1 = endpoint_first_derivatives(thermal_state(random_params(rng)))
            worst = max(worst, abs(d0), abs(d1))
        assert worst < 1e-6

    def test_flat_profile_zero_slope(self):
        # a = d and v = 0, so r = 0; S~ still varies (1 - 4b != 0), but
        # both endpoint slopes vanish as they do for every state
        s = thermal_state(ModelParams(0.0, 0.5, 0.0, 0.8))
        d0, d1 = endpoint_first_derivatives(s)
        assert abs(d0) < 1e-12 and abs(d1) < 1e-12


class TestSecondDerivativeAtZero:
    def test_matches_finite_difference(self, rng):
        # moderate temperatures: the h = 1e-4 stencil is well converged
        for _ in range(100):
            s = thermal_state(random_params(rng, t_min=0.3, t_max=3.0))
            closed = second_derivative_at_0(s)
            fd = fd_second_derivative_at_0(s)
            assert closed == pytest.approx(fd, abs=2e-5, rel=1e-3)

    def test_matches_finite_difference_at_sharp_low_temperatures(self, rng):
        # features near theta = 0 get so narrow that no float stencil
        # converges (h = 1e-6 is off by up to 17%); the reference is a
        # 60-digit mpmath derivative instead
        for _ in range(60):
            p = random_params(rng, t_min=0.05, t_max=0.3)
            closed = second_derivative_at_0(thermal_state(p))
            assert closed == pytest.approx(
                _mp_second_derivative_at_0(p), abs=1e-9, rel=1e-9
            )

    def test_sign_at_populations_far_below_one(self):
        # b ~ 1e-10 and d ~ 1e-22: an absolute closeness test on the
        # populations once flipped the sign here (-36.65 against +11.306)
        p = ModelParams(-0.7567, 0.4366, 2.6785, 0.1076)
        closed = second_derivative_at_0(thermal_state(p))
        assert closed > 0.0
        assert closed == pytest.approx(_mp_second_derivative_at_0(p), abs=1e-9)

    def test_underflowed_population_is_unresolved(self):
        # d underflows to 0 here; a value from floored populations could
        # change sign where the true curvature does not
        s = thermal_state(ModelParams(-1, -1, 1.0, 0.0025))
        assert s.d == 0.0
        with pytest.raises(PopulationUnderflow):
            second_derivative_at_0(s)

    @pytest.mark.parametrize(
        "a,b,d,v",
        [
            (1.0, 1e-200, 1e-150, 0.0),  # b * b underflows
            (1e-160, 0.5, 1e-160, 0.4),  # a * d is subnormal
        ],
    )
    def test_population_products_below_float_range(self, a, b, d, v):
        closed = second_derivative_at_0(XThermalState(a=a, b=b, d=d, v=v))
        with mpmath.workdps(50):
            a_, b_, d_, v_ = (mpmath.mpf(x) for x in (a, b, d, v))

            def slope(x, y):
                return (mpmath.log(x) - mpmath.log(y)) / (x - y)

            ref = (
                (a_ - d_) * mpmath.log(a_ / d_)
                + (1 - 4 * b_) * mpmath.log(a_ * d_ / b_**2)
                - 2 * v_**2 * (slope(a_, b_) + slope(b_, d_))
            ) / 4
        assert closed == pytest.approx(float(ref), rel=1e-12)

    def test_difference_quotient_limits(self):
        # a and b nearly equal: the log1p branch of the slope must stay smooth
        s = XThermalState(a=0.3, b=0.3 + 3e-10, d=0.1 - 6e-10, v=0.05)
        closed = second_derivative_at_0(s)
        fd = fd_second_derivative_at_0(s)
        assert closed == pytest.approx(fd, abs=1e-5, rel=1e-3)

    def test_root_bracket_at_the_zero_boundary(self):
        def f(t):
            return second_derivative_at_0(thermal_state(ModelParams(-1, -1, 1.4, t)))

        assert f(0.742) < 0.0 < f(0.744)
        assert _bisect(f, 0.5, 1.0) == pytest.approx(0.742967, abs=1e-5)

    def test_zero_set_agrees_with_finite_difference(self):
        def closed(t):
            return second_derivative_at_0(thermal_state(ModelParams(-1, -1, 1.4, t)))

        def fd(t):
            return fd_second_derivative_at_0(thermal_state(ModelParams(-1, -1, 1.4, t)))

        assert abs(_bisect(closed, 0.6, 0.9) - _bisect(fd, 0.6, 0.9)) < 1e-6


class TestSecondDerivativeAtHalfPi:
    def test_matches_finite_difference(self, rng):
        for _ in range(100):
            s = thermal_state(random_params(rng, t_max=3.0))
            closed = second_derivative_at_halfpi(s)
            fd = fd_second_derivative_at_halfpi(s)
            assert closed == pytest.approx(fd, abs=2e-3, rel=5e-3)

    def test_degenerate_state_raises(self):
        s = thermal_state(ModelParams(0.0, 0.5, 0.0, 0.8))
        with pytest.raises(DegenerateState):
            second_derivative_at_halfpi(s)

    def test_root_bracket_interior_minimum_reaches_halfpi(self):
        def f(t):
            return second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1.5, 1.9, t))
            )

        assert _bisect(f, 0.55, 0.63) == pytest.approx(0.59669, abs=1e-4)

    def test_root_bracket_on_the_monotone_path(self):
        def f(t):
            return second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1, 1.4, t))
            )

        assert (f(0.627) < 0.0) != (f(0.628) < 0.0)
        assert _bisect(f, 0.5, 0.7) == pytest.approx(0.6275, abs=1e-4)

    def test_zero_set_agrees_with_finite_difference(self):
        def closed(t):
            return second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1, 1.4, t))
            )

        def fd(t):
            return fd_second_derivative_at_halfpi(
                thermal_state(ModelParams(-1, -1, 1.4, t))
            )

        assert abs(_bisect(closed, 0.5, 0.7) - _bisect(fd, 0.5, 0.7)) < 1e-6


class TestThetaSymmetry:
    def test_even_about_both_endpoints(self, rng):
        s = thermal_state(random_params(rng))
        for x in (1e-3, 0.1, 0.3):
            assert post_meas_entropy(s, x) == pytest.approx(
                post_meas_entropy(s, -x), abs=1e-13
            )
            assert post_meas_entropy(s, HALF_PI - x) == pytest.approx(
                post_meas_entropy(s, HALF_PI + x), abs=1e-13
            )


def _halfpi_scale(s):
    """|t_coh| + |t_pop| of second_derivative_at_halfpi."""
    a, b, d, v = s.a, s.b, s.d, s.v
    r = min(s.r, 1.0 - 1e-12)
    beta = 1.0 - 4.0 * b
    t_coh = 8.0 * v * v * ((a - b) * (b - d) + v * v) / r**3 * math.log((1 + r) / (1 - r))
    t_pop = 0.5 * (a - d) ** 2 * ((1 + beta / r) ** 2 / (1 + r) + (1 - beta / r) ** 2 / (1 - r))
    return abs(t_coh) + abs(t_pop)


# The zero curvature has no array form: the line scan maps its scalar
# owner over the states.
_KERNELS = {
    "halfpi": (second_derivatives_at_halfpi, second_derivative_at_halfpi, _halfpi_scale),
    "equal": (
        lambda st: _mapped(_branch_s0, st.a, st.b, st.d) - branch_s_halfpis(st),
        lambda s: branch_s0(s) - branch_s_halfpi(s),
        lambda s: abs(branch_s0(s)) + abs(branch_s_halfpi(s)),
    ),
}


class TestArrayKernels:
    """Each residual kernel over arrays against its scalar twin."""

    @staticmethod
    def _draws(rng, n=1000):
        J = rng.uniform(-2.0, 2.0, n)
        Jz = rng.uniform(-2.0, 2.0, n)
        B = rng.uniform(0.0, 3.0, n)
        T = rng.uniform(0.03, 2.5, n)
        states = [thermal_state(ModelParams(*x)) for x in zip(J, Jz, B, T)]
        return (J, Jz, B, T), states

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_same_entries_agree_to_ulps_of_the_terms(self, rng, name):
        many, one, scale = _KERNELS[name]
        _, states = self._draws(rng)
        st = ThermalStates(
            *(np.array([getattr(s, e) for s in states]) for e in "abdvr")
        )
        got = many(st)
        want = np.array([one(s) for s in states])
        eps = np.finfo(float).eps
        bound = 4 * eps * np.array([scale(s) for s in states])
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.array_equal(got == 0.0, want == 0.0)

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_array_states_give_the_scalar_signs(self, rng, name):
        # thermal_states differs from thermal_state in the last bits;
        # the signs and the exact zeros must not
        many, one, _ = _KERNELS[name]
        points, states = self._draws(rng)
        got = many(thermal_states(*points))
        want = np.array([one(s) for s in states])
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_underflowed_population_raises(self):
        with pytest.raises(PopulationUnderflow):
            second_derivative_at_0(thermal_state(ModelParams(-1, -1, 1.0, 0.0025)))

    def test_degenerate_state_raises_on_both_paths(self):
        ts = np.array([0.8, 0.9])
        with pytest.raises(DegenerateState):
            second_derivatives_at_halfpi(thermal_states(0.0, 0.5, 0.0, ts))
        with pytest.raises(DegenerateState):
            second_derivative_at_halfpi(thermal_state(ModelParams(0.0, 0.5, 0.0, 0.8)))
