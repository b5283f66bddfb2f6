import itertools
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
    _entropies_exact,
    _entropy_of,
    _gibbs_entries,
    _gibbs_entries_exact,
    _log_weights,
    _spectrum_of,
    _states_exact,
    energy_levels,
    pre_measurement_entropy,
    thermal_state,
    thermal_states,
)
from xxz_deficit.measurement import (
    _branch_s0,
    _branch_s_halfpi,
    branch_s_halfpis,
)
from xxz_deficit import model
from xxz_deficit.oracle import dense_thermal_state

from conftest import random_params
from reference_forms import bures_distance, fidelity, thermodynamic_entropy

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
    def test_matches_direct_boltzmann_sum(self, rng):
        # the Gibbs entries normalize by the sum of exp of the log weights,
        # which are -E/T of the four levels exactly (J of either sign)
        for p in [ModelParams(1.0, -1.0, 1.4, 1.0), ModelParams(-1.0, -1.0, 1.4, 1.0)] + [
            random_params(rng) for _ in range(100)
        ]:
            minus_e = [-e / p.T for e in energy_levels(p).as_tuple()]
            assert sorted(_log_weights(p.J, p.Jz, p.B, p.T)) == sorted(minus_e)


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


def _check_state_by_checks(a, b, d, v):
    """``_check_state`` as its checks one by one, with no comparison chain
    in front: the reference the chain must accept and reject as."""
    for name, value in (("a", a), ("b", b), ("d", d), ("v", v)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ValueError(f"{name}={value!r} outside [0, 1]")
    trace = a + 2.0 * b + d
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to one, got {trace!r}")
    if b - v < -1e-12:
        raise ValueError("coherence exceeds the antiparallel population")


def _outcome(check, entries):
    """None where ``check`` accepts ``entries``, else its message."""
    try:
        check(*entries)
    except ValueError as err:
        return str(err)
    return None


class _CountedMath:
    """The math module, counting its ``isfinite`` calls: in ``_check_state``
    those run only on the check-by-check path."""

    def __init__(self):
        self.isfinite_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def isfinite(self, x):
        self.isfinite_calls += 1
        return math.isfinite(x)


def _chain_outcome(monkeypatch, entries):
    """``_check_state``'s outcome on ``entries``, and whether it ran its
    checks one by one."""
    counted = _CountedMath()
    with monkeypatch.context() as m:
        m.setattr(model, "math", counted)
        outcome = _outcome(_check_state, entries)
    return outcome, counted.isfinite_calls > 0


def _ulps_around(x, k=3):
    """x and the k floats on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# Each bound of _check_state, as (entry index, value at the bound, the
# other entries, whether the ulps around it hold both an accepted and a
# rejected state): a, b, d, v at -1e-12 and at 1 + 1e-12, a at the trace
# 1 -+ 1e-9, and v at b - v = -1e-12.  A b or v near 1 makes the trace
# near 2, so those states are rejected on both sides, by two messages.
_STATE_BOUNDS = [
    (0, -1e-12, (0.0, 0.25, 0.5, 0.0), True),
    (1, -1e-12, (0.5, 0.0, 0.5, 0.0), True),
    (2, -1e-12, (0.5, 0.25, 0.0, 0.0), True),
    (3, -1e-12, (0.25, 0.25, 0.25, 0.0), True),
    (0, 1.0 + 1e-12, (0.0, 0.0, 0.0, 0.0), True),
    (1, 1.0 + 1e-12, (0.0, 0.0, 0.0, 0.0), False),
    (2, 1.0 + 1e-12, (0.0, 0.0, 0.0, 0.0), True),
    (3, 1.0 + 1e-12, (0.0, 1.0, 0.0, 0.0), False),
    (0, 0.25 + 1e-9, (0.25, 0.25, 0.25, 0.1), True),
    (0, 0.25 - 1e-9, (0.25, 0.25, 0.25, 0.1), True),
    (3, 0.25 + 1e-12, (0.25, 0.25, 0.25, 0.0), True),
]


@pytest.mark.parametrize("index,bound,others,crosses", _STATE_BOUNDS)
def test_the_state_chain_accepts_and_rejects_as_the_checks_at_each_bound(
    monkeypatch, index, bound, others, crosses
):
    # a state the checks accept passes the chain alone; one they reject
    # fails it and takes their message
    outcomes = []
    for x in _ulps_around(bound):
        entries = list(others)
        entries[index] = x
        want = _outcome(_check_state_by_checks, entries)
        assert _chain_outcome(monkeypatch, entries) == (want, want is not None), entries
        outcomes.append(want)
    if crosses:
        assert None in outcomes and set(outcomes) != {None}
    else:
        assert None not in outcomes
        assert {"outside" in o for o in outcomes} == {True, False}


@pytest.mark.parametrize("index", range(4), ids="abdv")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_state_chain_rejects_non_finite_entries_as_the_checks(
    monkeypatch, index, value
):
    entries = [0.25, 0.25, 0.25, 0.1]
    assert _chain_outcome(monkeypatch, entries) == (None, False)
    entries[index] = value
    want = _outcome(_check_state_by_checks, entries)
    assert want == f"{'abdv'[index]} must be finite, got {value!r}"
    assert _chain_outcome(monkeypatch, entries) == (want, True)


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


def _hexes(values) -> list[str]:
    return [float.hex(float(x)) for x in values]


class TestExactArrayForms:
    """Each exact array form equals its scalar owner bit for bit."""

    @staticmethod
    def _points(rng, n=4000):
        J, Jz = rng.uniform(-2.0, 2.0, (2, n))
        B = rng.uniform(-4.0, 4.0, n)
        T = np.exp(rng.uniform(np.log(T_FLOOR), np.log(10.0), n))
        B[:100], B[100:120] = 0.0, -0.0
        J[120:220], J[220:240] = 0.0, -0.0  # v = 0
        T[240:340] = T_FLOOR
        # nearly pure states: d / a = exp(-2B/T) from 1e-20 to 1e-26
        B[340:440] = 1.5
        T[340:440] = 3.0 / np.log(10.0) / np.linspace(20.0, 26.0, 100)
        return J, Jz, B, T

    def test_gibbs_entries_equal_the_float_form(self, rng):
        J, Jz, B, T = self._points(rng)
        # |B| / T beyond float range: entries that are not finite, quietly
        B[-20:], T[-20:] = 1e303 * np.sign(B[-20:]), T_FLOOR
        got = np.stack(_gibbs_entries_exact(J, Jz, B, T), axis=1)
        for i, args in enumerate(zip(J.tolist(), Jz.tolist(), B.tolist(), T.tolist())):
            assert _hexes(got[i]) == _hexes(_gibbs_entries(*args)), args
        assert np.isnan(got[-20:, 0]).all()

    def test_states_and_entropies_equal_the_float_forms(self, rng):
        J, Jz, B, T = self._points(rng)
        st = _states_exact(*_gibbs_entries_exact(J, Jz, B, T))
        s_before, s0, s_half = (
            _entropies_exact(st), model._mapped(_branch_s0, *st[:3]),
            branch_s_halfpis(st),
        )
        for i, args in enumerate(zip(J.tolist(), Jz.tolist(), B.tolist(), T.tolist())):
            s = XThermalState(*_gibbs_entries(*args))
            assert _hexes(x[i] for x in st) == _hexes((s.a, s.b, s.d, s.v, s.r)), args
            assert _hexes((s_before[i], s0[i], s_half[i])) == _hexes((
                _entropy_of(s.a, s.b, s.d, s.v), _branch_s0(s.a, s.b, s.d),
                _branch_s_halfpi(s.r),
            )), args
        # the grid holds what the exact forms are for: entries that numpy's
        # exp rounds differently, and populations that underflow to 0
        assert (thermal_states(J, Jz, B, T).a != st.a).any()
        assert (np.minimum(st.a, st.d) == 0.0).any()
        assert (np.minimum(st.a, st.d)[340:440] < 1e-19).all()

    def test_an_overflowing_weight_fails_as_in_a_one_point_call(self):
        B = np.array([1.0, 2.0, 1e303, -1e303])
        T = np.array([0.5, 0.5, T_FLOOR, T_FLOOR])
        with pytest.raises(ValueError) as err:
            _states_exact(*_gibbs_entries_exact(-1.0, -1.0, B, T))
        with pytest.raises(ValueError) as one:
            thermal_state(ModelParams(-1.0, -1.0, 1e303, T_FLOOR))
        assert str(err.value) == str(one.value) == "a must be finite, got nan"

    @pytest.mark.parametrize("later", [3, 6])
    def test_the_first_failing_cell_raises_its_scalar_message(self, later):
        # hand-made failures of every check, each first at cell 2, each
        # later at cell ``later``: the message is the one of cell 2
        bad = [
            (math.nan, 0.25, 0.5, 0.0),
            (0.25, math.inf, 0.5, 0.0),
            (0.25, 0.25, 1.5, 0.0),
            (0.5, 0.25, 0.0, -0.1),
            (0.5, 0.3, 0.5, 0.0),
            (0.4, 0.1, 0.4, 0.2),
            # just beyond a tolerance
            (1.0 + 3e-12, 0.0, 0.0, 0.0),
            (0.5, 0.25, 0.0, -3e-12),
            (0.5, 0.25 - 6e-10, 0.0, 0.0),
            (0.25, 0.25, 0.25, 0.25 + 3e-12),
        ]
        good = (0.4, 0.15, 0.3, 0.1)
        for first, other in itertools.permutations(bad, 2):
            cells = [good] * 8
            cells[2], cells[later] = first, other
            with pytest.raises(ValueError) as err:
                _states_exact(*np.array(cells).T)
            with pytest.raises(ValueError) as one:
                _check_state(*first)
            assert str(err.value) == str(one.value)
        # cells at the edge of every tolerance pass, as they do one by one
        edges = [
            good,
            (1.0 + 1e-12, 0.0, -1e-12, 0.0),
            (0.5, 0.25 - 4e-10, 0.0, 0.0),
            (0.25, 0.25, 0.25, 0.25 + 5e-13),
            (0.0, 0.5, -0.0, 0.5),
        ]
        for cell in edges:
            _check_state(*cell)
        _states_exact(*np.array(edges).T)


def _thermal_spectrum(p):
    """The eigenvalues (a, d, b+v, b-v) of the Gibbs state at ``p``."""
    s = thermal_state(p)
    return _spectrum_of(s.a, s.b, s.d, s.v)


class TestThermalSpectrum:
    def test_no_coherence_gives_degenerate_doublet(self):
        spec = _thermal_spectrum(ModelParams(0.0, 1.0, 0.5, 0.8))
        assert spec[2] == pytest.approx(spec[3], abs=1e-15)

    def test_matches_numeric_eigenvalues(self, rng):
        for _ in range(100):
            p = random_params(rng)
            ana = np.sort(_thermal_spectrum(p))
            num = np.sort(dense_thermal_state(p).spectrum())
            assert np.abs(ana - num).max() < 1e-10

    def test_ground_bell_state_dominates_at_low_temperature(self):
        spec = _thermal_spectrum(ModelParams(1.0, 0.0, 0.0, 0.01))
        ordered = sorted(spec, reverse=True)
        assert ordered[0] == pytest.approx(1.0, abs=1e-12)
        assert spec[2] == ordered[0]  # the b+v coherent combination wins


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
        s = thermal_state(random_params(rng))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_variable_angle_region_width_ising_like(self):
        s1 = thermal_state(ModelParams(1.0, -1.0, 1.8323, 0.5444))
        s2 = thermal_state(ModelParams(1.0, -1.0, 1.6164, 0.4765))
        assert fidelity(s1, s2) == pytest.approx(0.985645, abs=1e-4)

    def test_variable_angle_region_width_xx(self):
        s1 = thermal_state(ModelParams(1.0, 0.0, 0.7716, 0.404))
        s2 = thermal_state(ModelParams(1.0, 0.0, 1.0, 0.404))
        assert fidelity(s1, s2) == pytest.approx(0.97994, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(params_st, params_st)
    def test_bounds(self, p1, p2):
        assert 0.0 <= fidelity(thermal_state(p1), thermal_state(p2)) <= 1.0


class TestBures:
    def test_endpoints(self):
        assert bures_distance(1.0) == 0.0
        assert bures_distance(0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_landmark_value(self):
        assert bures_distance(0.985645) == pytest.approx(0.12002870330512572, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bures_distance(1.5)
