"""Closed forms the package does not compute, kept as test references: the
fidelity and Bures distance of two thermal states (acceptance test 07),
the entropy from the free energy, -dF/dT, an independent route to
``pre_measurement_entropy``, and the closed zero-angle condition of the
XX dimer (acceptance test 06)."""

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


def xx_boundary_residual(p) -> float:
    """Residual of the closed transcendental condition for the zero-angle
    boundary of the XX dimer (Jz = 0); it vanishes on the line B = |J|.

    With a = |J|/T, u = B/T, x = e^u, y = cosh a, z = e^-u and L(p, q) =
    ln(p/q)/(p - q), the condition reads

        R = sinh^2 a [L(x, y) + L(y, z)] - 2u sinh u + 4 delta ln y,

    delta = cosh u - y.  L(x, y) + L(y, z) = (2u sinh u + 2 delta ln y)/D
    with D = (x - y)(y - z), and sinh^2 a - D = -2 y delta, so

        R = 2 delta [3 ln y - y L(x, y) - y L(y, z)].

    With phi(rho) = rho / expm1(rho) (1 at rho = 0), y L(x, y) = phi(u -
    ln y) and y L(y, z) = phi(-u - ln y).  delta is taken as 2 sinh((u +
    a)/2) sinh((u - a)/2), so R is exactly 0 where u = a, and ln y as
    log1p(2 sinh^2(a/2)).  No term is 0/0, also where x = y (D = 0).
    Where a term leaves float range (|J|/T above about 710), math raises
    OverflowError.
    """
    if abs(p.Jz) > 1e-12:
        raise ValueError("the closed-form condition requires Jz = 0")
    a, u = abs(p.J) / p.T, p.B / p.T
    ln_y = math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
    delta = 2.0 * math.sinh(0.5 * (u + a)) * math.sinh(0.5 * (u - a))

    def phi(rho: float) -> float:
        return rho / math.expm1(rho) if rho != 0.0 else 1.0

    return 2.0 * delta * (3.0 * ln_y - phi(u - ln_y) - phi(-u - ln_y))
