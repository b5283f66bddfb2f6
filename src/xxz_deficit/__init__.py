"""One-way quantum work deficit of the two-qubit XXZ dimer.

Closed-form thermal states, post-measurement entropy branches, boundary
curves on the temperature-field plane, and full phase-diagram sweeps.
"""

from .model import (
    T_FLOOR,
    EnergyLevels,
    ModelParams,
    ThermalSpectrum,
    XThermalState,
    bures_distance,
    energy_levels,
    fidelity,
    log_partition_function,
    partition_function,
    pre_measurement_entropy,
    thermal_spectrum,
    thermal_state,
    thermodynamic_entropy,
)
from .measurement import (
    DegenerateState,
    PostMeasSpectrum,
    branch_s0,
    branch_s_halfpi,
    entropy_curve,
    post_meas_entropy,
    post_meas_spectrum,
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
    "PostMeasSpectrum",
    "Shape",
    "ThermalSpectrum",
    "ThetaProfile",
    "XThermalState",
    "branch_s0",
    "branch_s_halfpi",
    "bures_distance",
    "energy_levels",
    "entropy_curve",
    "fidelity",
    "log_partition_function",
    "optimal_angle_jump",
    "optimize_deficit",
    "partition_function",
    "post_meas_entropy",
    "post_meas_spectrum",
    "pre_measurement_entropy",
    "scan_profile",
    "second_derivative_at_0",
    "second_derivative_at_halfpi",
    "thermal_spectrum",
    "thermal_state",
    "thermodynamic_entropy",
]

__version__ = "0.1.0"
