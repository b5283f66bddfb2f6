"""One-way quantum work deficit of the two-qubit XXZ dimer.

Closed-form thermal states, post-measurement entropy branches, boundary
curves on the temperature-field plane, and full phase-diagram sweeps.
"""

from .model import (
    T_FLOOR,
    EnergyLevels,
    ModelParams,
    XThermalState,
    energy_levels,
    pre_measurement_entropy,
    thermal_state,
)
from .measurement import (
    DegenerateState,
    branch_s0,
    branch_s_halfpi,
    entropy_curve,
    post_meas_entropy,
    second_derivative_at_0,
    second_derivative_at_halfpi,
)
from .optimizer import (
    Branch,
    DeficitResult,
    Shape,
    ThetaProfile,
    optimal_angle_jump,
    optimize_deficit,
    scan_profile,
)

__all__ = [
    "T_FLOOR",
    "Branch",
    "DeficitResult",
    "DegenerateState",
    "EnergyLevels",
    "ModelParams",
    "Shape",
    "ThetaProfile",
    "XThermalState",
    "branch_s0",
    "branch_s_halfpi",
    "energy_levels",
    "entropy_curve",
    "optimal_angle_jump",
    "optimize_deficit",
    "post_meas_entropy",
    "pre_measurement_entropy",
    "scan_profile",
    "second_derivative_at_0",
    "second_derivative_at_halfpi",
    "thermal_state",
]

__version__ = "0.1.0"
