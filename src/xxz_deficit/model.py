"""Thermal states of a two-qubit XXZ dimer in a uniform magnetic field.

Two spin-1/2 sites coupled by a transverse exchange J and a longitudinal
exchange Jz, placed in a field B along z, equilibrate to a Gibbs state
whose matrix is X shaped: populations (a, b, b, d) on the diagonal and a
single coherence v between the antiparallel basis states.  Everything in
this module is an explicit closed form in (J, Jz, B, T); the `oracle`
module provides the matrix route used to cross-check it.

All physics is even in both J and B.  The sign of J is gauged away by a
local rotation, so the coherence is stored as v >= 0 and carries |J|.
Entropies are in nats throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "T_FLOOR",
    "EnergyLevels",
    "ModelParams",
    "ThermalSpectrum",
    "XThermalState",
    "bures_distance",
    "energy_levels",
    "fidelity",
    "log_partition_function",
    "partition_function",
    "pre_measurement_entropy",
    "thermal_spectrum",
    "thermal_state",
    "thermodynamic_entropy",
]

# Lowest accepted temperature; smaller requests are clamped to it.  The
# Gibbs weights are singular at T = 0, so the zero-temperature limit is
# probed by evaluating at the floor.
T_FLOOR = 1e-8

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Couplings and bath parameters, all in one common energy unit.

    J is the transverse (xx + yy) exchange, Jz the longitudinal one, B the
    uniform field, T the temperature.  All four must be finite and T
    nonnegative; values below T_FLOOR are clamped to it with a warning.
    """

    J: float
    Jz: float
    B: float
    T: float

    def __post_init__(self) -> None:
        for name in ("J", "Jz", "B"):
            _check_coordinate(name, getattr(self, name))
        # the warning names the caller of ModelParams(...)
        object.__setattr__(self, "T", _check_coordinate("T", self.T, stacklevel=3))


def _check_coordinate(name: str, value: float, stacklevel: int = 2) -> float:
    """``value`` as ModelParams accepts it for its field ``name`` ("J",
    "Jz", "B" or "T"): finite, and for T nonnegative, a T below T_FLOOR
    clamped to it with a warning.  ``stacklevel`` counts from the caller
    as in ``warnings.warn`` (1 names the caller's line).  Raises
    ValueError with ModelParams' messages."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name == "T" and value < T_FLOOR:
        if value < 0.0:
            raise ValueError(f"temperature must be positive, got {value!r}")
        warnings.warn(
            f"T={value:g} is below the floor; clamped to {T_FLOOR:g}",
            stacklevel=stacklevel + 1,
        )
        return T_FLOOR
    return value


@dataclass(frozen=True)
class EnergyLevels:
    """Eigenenergies: e1/e2 from the field-split parallel doublet, e3/e4
    from the J-split antiparallel pair.  e1 + e2 = -Jz, e3 + e4 = Jz."""

    e1: float
    e2: float
    e3: float
    e4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e1, self.e2, self.e3, self.e4)


def energy_levels(p: ModelParams) -> EnergyLevels:
    return EnergyLevels(
        e1=-0.5 * p.Jz + p.B,
        e2=-0.5 * p.Jz - p.B,
        e3=0.5 * p.Jz + p.J,
        e4=0.5 * p.Jz - p.J,
    )


def _log_weights(J, Jz, B, T) -> tuple[float, float, float, float]:
    """Log Boltzmann weights in the spectral order (a, d, b+v, b-v)."""
    return (
        (0.5 * Jz + B) / T,
        (0.5 * Jz - B) / T,
        (-0.5 * Jz + abs(J)) / T,
        (-0.5 * Jz - abs(J)) / T,
    )


def log_partition_function(p: ModelParams) -> float:
    g = _log_weights(p.J, p.Jz, p.B, p.T)
    m = max(g)
    return m + math.log(sum(math.exp(x - m) for x in g))


def partition_function(p: ModelParams) -> float:
    """Sum of the four Boltzmann weights.

    Evaluated through its logarithm so no intermediate factor overflows
    even at very small T; the value itself may still be inf once it
    exceeds float range.
    """
    return math.exp(log_partition_function(p))


@dataclass(frozen=True)
class XThermalState:
    """Independent entries of the thermal density matrix.

    a and d are the parallel-spin populations, b the shared antiparallel
    population, v >= 0 the single coherence.  r = sqrt((a-d)^2 + 4 v^2)
    is the Bloch-like length controlling the transverse measurement
    branch; it is derived, not supplied.
    """

    a: float
    b: float
    d: float
    v: float
    r: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        _check_state(self.a, self.b, self.d, self.v)
        object.__setattr__(self, "r", _bloch_length(self.a, self.d, self.v))


def _check_state(a: float, b: float, d: float, v: float) -> None:
    """XThermalState's checks of the entries a, b, d, v: each finite and
    in [0, 1] up to 1e-12, a + 2b + d = 1 up to 1e-9 and v <= b up to
    1e-12.  Raises ValueError naming the first check that fails."""
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


def _bloch_length(a: float, d: float, v: float) -> float:
    """r = sqrt((a - d)^2 + 4 v^2) of the entries a, d, v."""
    return math.hypot(a - d, 2.0 * v)


def _check_entries(a: np.ndarray, b: np.ndarray, d: np.ndarray, v: np.ndarray) -> None:
    """XThermalState's checks on arrays of entries, one state per index."""
    for name, x in (("a", a), ("b", b), ("d", d), ("v", v)):
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {float(x[bad][0])!r}")
        bad = (x < -1e-12) | (x > 1.0 + 1e-12)
        if bad.any():
            raise ValueError(f"{name}={float(x[bad][0])!r} outside [0, 1]")
    trace = a + 2.0 * b + d
    bad = np.abs(trace - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"populations must sum to one, got {float(trace[bad][0])!r}")
    if (b - v < -1e-12).any():
        raise ValueError("coherence exceeds the antiparallel population")


def _gibbs_entries(J, Jz, B, T) -> tuple[float, float, float, float]:
    """The entries (a, b, d, v) of ``thermal_state`` as plain floats, for
    callers that need no XThermalState; T is taken as already checked."""
    g1, g2, g3, g4 = _log_weights(J, Jz, B, T)
    m = max(g1, g2, g3, g4)
    w1 = math.exp(g1 - m)
    w2 = math.exp(g2 - m)
    w3 = math.exp(g3 - m)
    w4 = math.exp(g4 - m)
    z = w1 + w2 + w3 + w4
    l1, l2, l3, l4 = w1 / z, w2 / z, w3 / z, w4 / z
    return (l1, 0.5 * (l3 + l4), l2, max(0.5 * (l3 - l4), 0.0))


def thermal_state(p: ModelParams) -> XThermalState:
    """Gibbs state entries a, b, d, v at the given couplings and bath."""
    return XThermalState(*_gibbs_entries(p.J, p.Jz, p.B, p.T))


class ThermalStates(NamedTuple):
    """Gibbs entries of many states, one array per entry: the array form
    of XThermalState, r included."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    v: np.ndarray
    r: np.ndarray


def thermal_states(J, Jz, B, T) -> ThermalStates:
    """``thermal_state`` at every point of the broadcast arrays J, Jz, B, T.

    The arguments are taken as already validated (finite, T at or above
    the floor), as ModelParams leaves them.  The operations are those of
    ``thermal_state``, but numpy's exp differs from math's in the last
    bit, so the entries agree with the scalar ones to a few ulps, not
    bit for bit.
    """
    t = np.asarray(T, dtype=float)
    aj = np.abs(J)
    g = (
        (0.5 * Jz + B) / t,
        (0.5 * Jz - B) / t,
        (-0.5 * Jz + aj) / t,
        (-0.5 * Jz - aj) / t,
    )
    m = np.maximum(np.maximum(g[0], g[1]), np.maximum(g[2], g[3]))
    w = [np.exp(x - m) for x in g]
    z = w[0] + w[1] + w[2] + w[3]
    if not np.isfinite(z).all():
        raise ValueError("Gibbs weights must be finite")
    a, d, up, down = (x / z for x in w)
    v = np.maximum(0.5 * (up - down), 0.0)
    return ThermalStates(
        a=a, b=0.5 * (up + down), d=d, v=v, r=np.hypot(a - d, 2.0 * v)
    )


@dataclass(frozen=True)
class ThermalSpectrum:
    """Eigenvalues of the thermal state in the fixed order
    (a, d, b+v, b-v)."""

    l1: float
    l2: float
    l3: float
    l4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.l1, self.l2, self.l3, self.l4)


def _spectrum_of(a: float, b: float, d: float, v: float) -> tuple[float, ...]:
    return (a, d, b + v, max(b - v, 0.0))


def thermal_spectrum(s: XThermalState) -> ThermalSpectrum:
    return ThermalSpectrum(*_spectrum_of(s.a, s.b, s.d, s.v))


def _xlnx(x: float) -> float:
    """x ln x with the entropy convention 0 ln 0 = 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def _entropy_of(a: float, b: float, d: float, v: float) -> float:
    """``pre_measurement_entropy`` of the entries a, b, d, v."""
    l1, l2, l3, l4 = _spectrum_of(a, b, d, v)
    return -(_xlnx(l1) + _xlnx(l2) + _xlnx(l3) + _xlnx(l4))


def pre_measurement_entropy(s: XThermalState) -> float:
    """Von Neumann entropy of the thermal state, in nats."""
    return _entropy_of(s.a, s.b, s.d, s.v)


def thermodynamic_entropy(p: ModelParams) -> float:
    """Entropy from the free-energy derivative -dF/dT, in nats.

    Written directly in terms of the Boltzmann weights (with the signed
    J, not |J|), so it is an independent route that double-checks
    pre_measurement_entropy.
    """
    lz = log_partition_function(p)
    t = p.T
    x1 = (p.B + 0.5 * p.Jz) / t
    x2 = -(p.B - 0.5 * p.Jz) / t
    x3 = (p.J - 0.5 * p.Jz) / t
    x4 = -(p.J + 0.5 * p.Jz) / t
    mean = sum(x * math.exp(x - lz) for x in (x1, x2, x3, x4))
    return lz - mean


def fidelity(s1: ThermalSpectrum, s2: ThermalSpectrum) -> float:
    """Overlap of two thermal states from the same coupling family.

    States of this family commute (shared eigenbasis), so the fidelity
    reduces to the classical one over spectra paired index by index.
    """
    acc = sum(
        math.sqrt(max(x, 0.0) * max(y, 0.0))
        for x, y in zip(s1.as_tuple(), s2.as_tuple())
    )
    return min(acc * acc, 1.0)


def bures_distance(f: float) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) induced by the fidelity."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in [0, 1], got {f!r}")
    f = min(max(f, 0.0), 1.0)
    return math.sqrt(2.0 * (1.0 - math.sqrt(f)))
