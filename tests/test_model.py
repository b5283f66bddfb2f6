import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxz_deficit.model import (
    T_FLOOR,
    ModelParams,
    XThermalState,
    _check_state,
    _gibbs_entries,
    _log_weights,
    bures_distance,
    energy_levels,
    fidelity,
    partition_function,
    pre_measurement_entropy,
    thermal_spectrum,
    thermal_state,
    thermal_states,
    thermodynamic_entropy,
)
from xxz_deficit.oracle import dense_thermal_state

from conftest import random_params

LN4 = math.log(4.0)

params_st = st.builds(
    ModelParams,
    J=st.floats(-2.0, 2.0),
    Jz=st.floats(-2.0, 2.0),
    B=st.floats(-3.0, 3.0),
    T=st.floats(0.05, 5.0),
)


class TestModelParams:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(1.0, 1.0, 0.0, -0.1)

    def test_rejects_non_finite(self):
        for name in ("J", "Jz", "B", "T"):
            for bad in (math.nan, math.inf, -math.inf):
                fields = dict(J=1.0, Jz=0.0, B=0.5, T=1.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    ModelParams(**fields)

    def test_zero_temperature_clamps_to_floor(self):
        assert T_FLOOR == 1e-8
        for t in (0.0, 0.5 * T_FLOOR):
            with pytest.warns(UserWarning, match="clamped to 1e-08"):
                p = ModelParams(1.0, 0.0, 0.5, t)
            assert p.T == T_FLOOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ModelParams(1.0, 0.0, 0.5, T_FLOOR).T == T_FLOOR

    def test_clamp_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            ModelParams(1.0, 0.0, 0.5, 0.0)
        assert [w.filename for w in record] == [__file__]
        assert str(record[0].message) == "T=0 is below the floor; clamped to 1e-08"


class TestEnergyLevels:
    def test_all_couplings_zero(self):
        assert energy_levels(ModelParams(0.0, 0.0, 0.0, 1.0)).as_tuple() == (
            0.0, 0.0, 0.0, 0.0,
        )

    def test_direct_substitution(self):
        assert energy_levels(ModelParams(1.0, 2.0, 3.0, 1.0)).as_tuple() == (
            2.0, -4.0, 2.0, 0.0,
        )

    def test_level_crossings_ising_like(self):
        # field-lowered doublet level crosses the two J-split levels
        for b_cross, other in ((0.5, "e4"), (2.5, "e3")):
            lv = energy_levels(ModelParams(-1.0, -1.5, b_cross, 1.0))
            assert lv.e2 == pytest.approx(getattr(lv, other), abs=1e-14)

    def test_pair_sums(self, rng):
        for _ in range(50):
            p = random_params(rng)
            lv = energy_levels(p)
            assert lv.e1 + lv.e2 == pytest.approx(-p.Jz, abs=1e-12)
            assert lv.e3 + lv.e4 == pytest.approx(p.Jz, abs=1e-12)


class TestPartitionFunction:
    def test_infinite_temperature_limit(self):
        assert partition_function(ModelParams(1.0, -1.0, 2.0, 1e9)) == pytest.approx(
            4.0, abs=1e-6
        )

    def test_matches_direct_boltzmann_sum(self):
        p = ModelParams(1.0, -1.0, 1.4, 1.0)
        direct = sum(math.exp(-e / p.T) for e in energy_levels(p).as_tuple())
        assert partition_function(p) == pytest.approx(direct, rel=1e-13)

    def test_coupling_and_field_sign_symmetry(self, rng):
        for _ in range(100):
            p = random_params(rng)
            z = partition_function(p)
            flip_j = ModelParams(-p.J, p.Jz, p.B, p.T)
            flip_b = ModelParams(p.J, p.Jz, -p.B, p.T)
            assert abs(z - partition_function(flip_j)) <= 1e-12 * z
            assert abs(z - partition_function(flip_b)) <= 1e-12 * z


class TestThermalState:
    def test_zero_field_equalizes_populations(self):
        s = thermal_state(ModelParams(1.0, -0.5, 0.0, 0.7))
        assert s.a == pytest.approx(s.d, abs=1e-15)

    def test_zero_transverse_coupling_kills_coherence(self):
        s = thermal_state(ModelParams(0.0, -0.5, 1.0, 0.7))
        assert s.v == 0.0

    def test_matches_dense_gibbs_matrix(self, rng):
        for _ in range(100):
            p = random_params(rng)
            s = thermal_state(p)
            m = dense_thermal_state(p).matrix
            assert abs(m[0, 0].real - s.a) < 1e-12
            assert abs(m[1, 1].real - s.b) < 1e-12
            assert abs(m[2, 2].real - s.b) < 1e-12
            assert abs(m[3, 3].real - s.d) < 1e-12
            assert abs(abs(m[1, 2]) - s.v) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(params_st)
    def test_trace_and_positivity(self, p):
        s = thermal_state(p)
        assert s.a + 2.0 * s.b + s.d == pytest.approx(1.0, abs=1e-12)
        assert min(s.a, s.b, s.d) >= 0.0
        assert s.v >= 0.0
        assert s.b - s.v >= -1e-15
        assert 0.0 <= s.r <= 1.0 + 1e-12

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            XThermalState(a=0.5, b=0.3, d=0.5, v=0.0)
        with pytest.raises(ValueError):
            XThermalState(a=0.4, b=0.1, d=0.4, v=0.2)

    @pytest.mark.parametrize(
        "entries,message",
        [
            ((math.nan, 0.25, 0.5, 0.0), "a must be finite, got nan"),
            ((0.25, math.inf, 0.5, 0.0), "b must be finite, got inf"),
            ((0.25, 0.25, 1.5, 0.0), "d=1.5 outside [0, 1]"),
            ((0.5, 0.25, 0.0, -0.1), "v=-0.1 outside [0, 1]"),
            ((0.5, 0.3, 0.5, 0.0), "populations must sum to one, got 1.6"),
            ((0.4, 0.1, 0.4, 0.2), "coherence exceeds the antiparallel population"),
        ],
    )
    def test_entry_checks_have_one_owner(self, entries, message):
        for check in (XThermalState, _check_state):
            with pytest.raises(ValueError) as err:
                check(*entries)
            assert str(err.value) == message


def _gibbs_entries_reference(J, Jz, B, T):
    """``_gibbs_entries`` with its weights taken by a generator."""
    g = _log_weights(J, Jz, B, T)
    m = max(g)
    w1, w2, w3, w4 = (math.exp(x - m) for x in g)
    z = w1 + w2 + w3 + w4
    l1, l2, l3, l4 = w1 / z, w2 / z, w3 / z, w4 / z
    return (l1, 0.5 * (l3 + l4), l2, max(0.5 * (l3 - l4), 0.0))


def test_gibbs_entries_equal_the_generator_form(rng):
    n = 5000
    J, Jz = rng.uniform(-2.0, 2.0, (2, n))
    B = rng.uniform(-3.0, 3.0, n)
    T = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), n))
    B[:50] = 0.0
    J[50:100] = 0.0
    T[100:150] = T_FLOOR
    for args in zip(J.tolist(), Jz.tolist(), B.tolist(), T.tolist()):
        got = [float.hex(x) for x in _gibbs_entries(*args)]
        assert got == [float.hex(x) for x in _gibbs_entries_reference(*args)], args


class TestThermalStates:
    def test_entries_match_thermal_state(self, rng):
        # numpy's exp differs from math's in the last bit; v and r are
        # differences of entries, so they are held to ulps of the entries
        n = 1000
        J, Jz = rng.uniform(-2.0, 2.0, (2, n))
        B, T = rng.uniform(0.0, 3.0, n), rng.uniform(0.03, 2.5, n)
        st = thermal_states(J, Jz, B, T)
        eps = np.finfo(float).eps
        for i in range(len(T)):
            s = thermal_state(ModelParams(J[i], Jz[i], B[i], T[i]))
            for name in ("a", "b", "d"):
                assert abs(getattr(st, name)[i] - getattr(s, name)) <= 4 * eps * getattr(s, name)
            assert abs(st.v[i] - s.v) <= 4 * eps * s.b
            assert abs(st.r[i] - s.r) <= 8 * eps * (s.a + 2.0 * s.b + s.d)

    def test_non_finite_weights_rejected(self):
        # B / T overflows, as it does for thermal_state, which rejects the
        # NaN entries that follow
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            thermal_states(1.0, 0.0, np.array([1.0, 1e305]), 1e-8)
        with pytest.raises(ValueError):
            thermal_state(ModelParams(1.0, 0.0, 1e305, 1e-8))


class TestThermalSpectrum:
    def test_no_coherence_gives_degenerate_doublet(self):
        spec = thermal_spectrum(thermal_state(ModelParams(0.0, 1.0, 0.5, 0.8)))
        assert spec.l3 == pytest.approx(spec.l4, abs=1e-15)

    def test_matches_numeric_eigenvalues(self, rng):
        for _ in range(100):
            p = random_params(rng)
            ana = np.sort(thermal_spectrum(thermal_state(p)).as_tuple())
            num = np.sort(dense_thermal_state(p).spectrum())
            assert np.abs(ana - num).max() < 1e-10

    def test_ground_bell_state_dominates_at_low_temperature(self):
        spec = thermal_spectrum(thermal_state(ModelParams(1.0, 0.0, 0.0, 0.01)))
        ordered = sorted(spec.as_tuple(), reverse=True)
        assert ordered[0] == pytest.approx(1.0, abs=1e-12)
        assert spec.l3 == ordered[0]  # the b+v coherent combination wins


class TestEntropy:
    def test_infinite_temperature_is_maximally_mixed(self):
        s = thermal_state(ModelParams(1.0, -1.0, 0.7, 1e9))
        assert pre_measurement_entropy(s) == pytest.approx(LN4, abs=1e-6)

    def test_nondegenerate_ground_state_is_pure(self):
        s = thermal_state(ModelParams(1.0, 0.5, 2.5, 0.01))
        assert pre_measurement_entropy(s) == pytest.approx(0.0, abs=1e-8)

    def test_spectral_equals_thermodynamic_form(self, rng):
        for _ in range(200):
            p = random_params(rng)
            spectral = pre_measurement_entropy(thermal_state(p))
            assert abs(spectral - thermodynamic_entropy(p)) < 1e-10


class TestFidelity:
    def test_identical_spectra(self, rng):
        spec = thermal_spectrum(thermal_state(random_params(rng)))
        assert fidelity(spec, spec) == pytest.approx(1.0, abs=1e-14)

    def test_variable_angle_region_width_ising_like(self):
        s1 = thermal_spectrum(thermal_state(ModelParams(1.0, -1.0, 1.8323, 0.5444)))
        s2 = thermal_spectrum(thermal_state(ModelParams(1.0, -1.0, 1.6164, 0.4765)))
        assert fidelity(s1, s2) == pytest.approx(0.985645, abs=1e-4)

    def test_variable_angle_region_width_xx(self):
        s1 = thermal_spectrum(thermal_state(ModelParams(1.0, 0.0, 0.7716, 0.404)))
        s2 = thermal_spectrum(thermal_state(ModelParams(1.0, 0.0, 1.0, 0.404)))
        assert fidelity(s1, s2) == pytest.approx(0.97994, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(params_st, params_st)
    def test_bounds(self, p1, p2):
        f = fidelity(
            thermal_spectrum(thermal_state(p1)), thermal_spectrum(thermal_state(p2))
        )
        assert 0.0 <= f <= 1.0


class TestBures:
    def test_endpoints(self):
        assert bures_distance(1.0) == 0.0
        assert bures_distance(0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_landmark_value(self):
        assert bures_distance(0.985645) == pytest.approx(0.12002870330512572, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bures_distance(1.5)
