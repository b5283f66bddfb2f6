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
import os
import warnings
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_T_FLOOR",
    "T_FLOOR_ENV",
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
    "temperature_floor",
    "thermal_spectrum",
    "thermal_state",
    "thermodynamic_entropy",
]

T_FLOOR_ENV = "QWD_T_FLOOR"
DEFAULT_T_FLOOR = 1e-8

LN2 = math.log(2.0)


def temperature_floor() -> float:
    """Lowest accepted temperature; smaller requests are clamped to it.

    The Gibbs weights are singular at T = 0, so the zero-temperature limit
    is probed by evaluating at the floor.  Override via the QWD_T_FLOOR
    environment variable.
    """
    return float(os.environ.get(T_FLOOR_ENV, DEFAULT_T_FLOOR))


@dataclass(frozen=True)
class ModelParams:
    """Couplings and bath parameters, all in one common energy unit.

    J is the transverse (xx + yy) exchange, Jz the longitudinal one, B the
    uniform field, T the temperature.  T must be positive; values below
    the configured floor are clamped with a warning.
    """

    J: float
    Jz: float
    B: float
    T: float

    def __post_init__(self) -> None:
        for name in ("J", "Jz", "B", "T"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.T < 0.0:
            raise ValueError(f"temperature must be positive, got {self.T!r}")
        floor = temperature_floor()
        if self.T < floor:
            warnings.warn(
                f"T={self.T:g} is below the floor; clamped to {floor:g}",
                stacklevel=2,
            )
            object.__setattr__(self, "T", floor)


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


def _log_weights(p: ModelParams) -> tuple[float, float, float, float]:
    """Log Boltzmann weights in the spectral order (a, d, b+v, b-v)."""
    t = p.T
    return (
        (0.5 * p.Jz + p.B) / t,
        (0.5 * p.Jz - p.B) / t,
        (-0.5 * p.Jz + abs(p.J)) / t,
        (-0.5 * p.Jz - abs(p.J)) / t,
    )


def log_partition_function(p: ModelParams) -> float:
    g = _log_weights(p)
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
        for name in ("a", "b", "d", "v"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        trace = self.a + 2.0 * self.b + self.d
        if abs(trace - 1.0) > 1e-9:
            raise ValueError(f"populations must sum to one, got {trace!r}")
        if self.b - self.v < -1e-12:
            raise ValueError("coherence exceeds the antiparallel population")
        object.__setattr__(self, "r", math.hypot(self.a - self.d, 2.0 * self.v))


def thermal_state(p: ModelParams) -> XThermalState:
    """Gibbs state entries a, b, d, v at the given couplings and bath."""
    g = _log_weights(p)
    m = max(g)
    w = [math.exp(x - m) for x in g]
    z = sum(w)
    lam = [x / z for x in w]
    return XThermalState(
        a=lam[0],
        b=0.5 * (lam[2] + lam[3]),
        d=lam[1],
        v=max(0.5 * (lam[2] - lam[3]), 0.0),
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


def thermal_spectrum(s: XThermalState) -> ThermalSpectrum:
    return ThermalSpectrum(s.a, s.d, s.b + s.v, max(s.b - s.v, 0.0))


def _xlnx(x: float) -> float:
    """x ln x with the entropy convention 0 ln 0 = 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def pre_measurement_entropy(s: XThermalState) -> float:
    """Von Neumann entropy of the thermal state, in nats."""
    return -sum(_xlnx(x) for x in thermal_spectrum(s).as_tuple())


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
