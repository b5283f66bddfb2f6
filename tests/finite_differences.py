"""Finite-difference estimates of S~'s endpoint derivatives: independent
references for the closed-form curvatures and for the vanishing slopes."""

from xxz_deficit.measurement import HALF_PI, post_meas_entropy
from xxz_deficit.model import XThermalState


def endpoint_first_derivatives(
    s: XThermalState, h: float = 1e-5
) -> tuple[float, float]:
    """One-sided slope estimates of S~ at theta = 0 and pi/2.

    Both vanish identically for every state.  Uses a three-point
    parabolic fit.
    """
    f0 = post_meas_entropy(s, 0.0)
    d0 = (
        -3.0 * f0 + 4.0 * post_meas_entropy(s, h) - post_meas_entropy(s, 2.0 * h)
    ) / (2.0 * h)
    f1 = post_meas_entropy(s, HALF_PI)
    d1 = (
        3.0 * f1
        - 4.0 * post_meas_entropy(s, HALF_PI - h)
        + post_meas_entropy(s, HALF_PI - 2.0 * h)
    ) / (2.0 * h)
    return d0, d1


def fd_second_derivative_at_0(s: XThermalState, h: float = 1e-4) -> float:
    """Finite-difference curvature at theta = 0, exploiting evenness."""
    return 2.0 * (post_meas_entropy(s, h) - post_meas_entropy(s, 0.0)) / (h * h)


def fd_second_derivative_at_halfpi(s: XThermalState, h: float = 1e-4) -> float:
    """Finite-difference curvature at theta = pi/2, exploiting evenness."""
    return (
        2.0
        * (post_meas_entropy(s, HALF_PI - h) - post_meas_entropy(s, HALF_PI))
        / (h * h)
    )
