"""Closed forms the package does not compute, kept as test references: the
fidelity and Bures distance of two thermal states (acceptance test 07),
and the entropy from the free energy, -dF/dT, an independent route to
``pre_measurement_entropy``."""

import math

from xxz_deficit.model import _spectrum_of


def fidelity(s1, s2) -> float:
    """Fidelity of the XThermalStates s1 and s2 of one coupling family.

    States of this family commute (shared eigenbasis), so the fidelity
    reduces to the classical one over spectra paired index by index.
    """
    acc = sum(
        math.sqrt(max(x, 0.0) * max(y, 0.0))
        for x, y in zip(_spectrum_of(s1.a, s1.b, s1.d, s1.v),
                        _spectrum_of(s2.a, s2.b, s2.d, s2.v))
    )
    return min(acc * acc, 1.0)


def bures_distance(f: float) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) induced by the fidelity."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in [0, 1], got {f!r}")
    f = min(max(f, 0.0), 1.0)
    return math.sqrt(2.0 * (1.0 - math.sqrt(f)))


def thermodynamic_entropy(p) -> float:
    """Entropy of the ModelParams ``p`` from -dF/dT, in nats: ln Z minus
    the mean of the log Boltzmann weights, written with the signed J (the
    package takes |J|), so it shares no code with the spectral form."""
    t = p.T
    xs = (
        (p.B + 0.5 * p.Jz) / t,
        -(p.B - 0.5 * p.Jz) / t,
        (p.J - 0.5 * p.Jz) / t,
        -(p.J + 0.5 * p.Jz) / t,
    )
    m = max(xs)
    lz = m + math.log(sum(math.exp(x - m) for x in xs))
    return lz - sum(x * math.exp(x - lz) for x in xs)
