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
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "T_FLOOR",
    "EnergyLevels",
    "ModelParams",
    "XThermalState",
    "energy_levels",
    "pre_measurement_entropy",
    "thermal_state",
]

# Lowest accepted temperature; smaller requests are clamped to it.  The
# Gibbs weights are singular at T = 0, so the zero-temperature limit is
# probed by evaluating at the floor.
T_FLOOR = 1e-8

LN2 = math.log(2.0)

# The package whose modules ``_warn`` steps over, ``cli`` excepted.
_PACKAGE = __name__.partition(".")[0]


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
        object.__setattr__(self, "T", _check_coordinate("T", self.T))


def _check_coordinate(name: str, value: float) -> float:
    """``value`` as ModelParams accepts it for its field ``name`` ("J",
    "Jz", "B" or "T"): finite, and for T nonnegative, a T below T_FLOOR
    clamped to it with a warning, placed by ``_warn``.  Raises ValueError
    with ModelParams' messages."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name == "T" and value < T_FLOOR:
        if value < 0.0:
            raise ValueError(f"temperature must be positive, got {value!r}")
        _warn(f"T={value:g} is below the floor; clamped to {T_FLOOR:g}")
        return T_FLOOR
    return value


def _warn(message: str) -> None:
    """Warn at the first frame outside the computing modules, which are
    every module of this package but ``cli``: the line that called into
    them, a line of the user's code or of a command.  Every warning of
    the package comes from here."""
    frame, level = sys._getframe(1), 2
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.partition(".")[0] != _PACKAGE or module == f"{_PACKAGE}.cli":
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


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
    1e-12.  Raises ValueError naming the first check that fails.

    Valid entries pass one chain of comparisons, which NaN and +-inf
    fail; only entries that fail it run the checks one by one, and those
    own the messages."""
    if (
        -1e-12 <= a <= 1.0 + 1e-12
        and -1e-12 <= b <= 1.0 + 1e-12
        and -1e-12 <= d <= 1.0 + 1e-12
        and -1e-12 <= v <= 1.0 + 1e-12
        and abs(a + 2.0 * b + d - 1.0) <= 1e-9
        and b - v >= -1e-12
    ):
        return
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


def _mapped(fn, *xs: np.ndarray) -> np.ndarray:
    """The math function ``fn`` at every element of the 1-D arrays ``xs``:
    math's values, which numpy's exp, log and hypot miss in the last bit."""
    return np.fromiter(map(fn, *[x.tolist() for x in xs]), float, len(xs[0]))


def _gibbs_entries_exact(J, Jz, B, T) -> tuple[np.ndarray, ...]:
    """``_gibbs_entries`` at every point of the 1-D arrays B and T, bit for bit."""
    with np.errstate(all="ignore"):  # silent where a weight overflows, as math is
        g = _log_weights(J, Jz, B, T)
        m = np.maximum(np.maximum(g[0], g[1]), np.maximum(g[2], g[3]))
        w1, w2, w3, w4 = (_mapped(math.exp, x - m) for x in g)
    z = w1 + w2 + w3 + w4
    l1, l2, l3, l4 = w1 / z, w2 / z, w3 / z, w4 / z
    return (l1, 0.5 * (l3 + l4), l2, np.maximum(0.5 * (l3 - l4), 0.0))


def _states_exact(a, b, d, v) -> ThermalStates:
    """XThermalState at every element of the 1-D arrays a, b, d, v, bit for
    bit: elements that fail a check on the arrays are checked again by
    ``_check_state`` in order, so the first raises; r is ``_bloch_length``'s."""
    bad = (np.abs(a + 2.0 * b + d - 1.0) > 1e-9) | (b - v < -1e-12)
    for x in (a, b, d, v):  # not finite, or out of range
        bad |= ~((-1e-12 <= x) & (x <= 1.0 + 1e-12))
    for i in np.flatnonzero(bad).tolist():
        _check_state(a[i].item(), b[i].item(), d[i].item(), v[i].item())
    return ThermalStates(a, b, d, v, _mapped(math.hypot, a - d, 2.0 * v))


def thermal_states(J, Jz, B, T) -> ThermalStates:
    """``thermal_state`` at every point of the broadcast arrays J, Jz, B, T.

    The arguments are taken as already validated (finite, T at or above
    the floor), as ModelParams leaves them.  The log weights are
    ``_log_weights``' on the arrays and the other operations those of
    ``thermal_state``, but numpy's exp differs from math's in the last
    bit, so the entries agree with the scalar ones to a few ulps, not
    bit for bit.
    """
    g = _log_weights(J, Jz, B, np.asarray(T, dtype=float))
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


def _spectrum_of(a: float, b: float, d: float, v: float) -> tuple[float, ...]:
    """Eigenvalues of the thermal state with entries a, b, d, v, in the
    fixed order (a, d, b+v, b-v)."""
    return (a, d, b + v, max(b - v, 0.0))


def _xlnx(x: float) -> float:
    """x ln x with the entropy convention 0 ln 0 = 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def _entropy_of(a: float, b: float, d: float, v: float) -> float:
    """``pre_measurement_entropy`` of the entries a, b, d, v."""
    l1, l2, l3, l4 = _spectrum_of(a, b, d, v)
    return -(_xlnx(l1) + _xlnx(l2) + _xlnx(l3) + _xlnx(l4))


def _xlnxs(x: np.ndarray) -> np.ndarray:
    """``_xlnx`` at every element of the 1-D array x, bit for bit."""
    pos = x > 0.0
    return np.where(pos, x * _mapped(math.log, np.where(pos, x, 1.0)), 0.0)


def _entropies_exact(st: ThermalStates) -> np.ndarray:
    """``_entropy_of`` of every state of ``st``, bit for bit."""
    xs = (st.a, st.d, st.b + st.v, np.maximum(st.b - st.v, 0.0))
    l1, l2, l3, l4 = map(_xlnxs, xs)
    return -(l1 + l2 + l3 + l4)


def pre_measurement_entropy(s: XThermalState) -> float:
    """Von Neumann entropy of the thermal state, in nats."""
    return _entropy_of(s.a, s.b, s.d, s.v)
