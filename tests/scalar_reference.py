"""The one-point optimizer as a composition of the scalar closed forms:
the reference that the optimizer's array entry must equal bit for bit.

A point's state is ``thermal_state``, its profile ``scan_profile``, its
endpoint entropies ``branch_s0``, ``branch_s_halfpi`` and
``pre_measurement_entropy``, and its winner ``scalar_branch_rule``, the
one-state rule as it was before the rule took arrays.
"""

import warnings

from xxz_deficit import optimizer
from xxz_deficit.measurement import HALF_PI, branch_s0, branch_s_halfpi
from xxz_deficit.model import ModelParams, pre_measurement_entropy, thermal_state
from xxz_deficit.optimizer import Branch, DeficitResult, scan_profile


def scalar_branch_rule(s_before, s0, s_half, minima):
    """(branch, angle, deficit, deepest minimum) of one state, with the
    tie warning and the negative-deficit error of ``optimizer._branch_rule``."""
    interior = min(minima, key=lambda te: te[1]) if minima else None
    best, branch, theta = s0, Branch.ZERO, 0.0
    if s_half < best - optimizer.EQUAL_TOL:
        best, branch, theta = s_half, Branch.HALF_PI, HALF_PI
    if interior is not None and interior[1] < best - optimizer.EQUAL_TOL:
        best, branch, theta = interior[1], Branch.INTERIOR, interior[0]
    if (
        interior is not None
        and HALF_PI - interior[0] > 0.05
        and abs(interior[1] - s_half) <= optimizer.EQUAL_TOL
        and min(interior[1], s_half) < s0 - optimizer.EQUAL_TOL
    ):
        warnings.warn(optimizer._TIE)
    deficit = best - s_before
    if deficit < 0.0:
        if deficit < -1e-9:
            raise ArithmeticError(optimizer._NEGATIVE.format(deficit))
        deficit = 0.0
    return branch, theta, deficit, interior


def scalar_optimize(p: ModelParams, n: int = 201) -> DeficitResult:
    """``optimize_deficit(p, n)`` from the scalar closed forms."""
    s = thermal_state(p)
    profile = scan_profile(s, n)
    before = pre_measurement_entropy(s)
    s0, s_half = branch_s0(s), branch_s_halfpi(s)
    branch, theta, deficit, interior = scalar_branch_rule(
        before, s0, s_half, profile.interior_minima
    )
    return DeficitResult(
        delta0=s0 - before,
        delta_halfpi=s_half - before,
        delta_theta=None if interior is None else interior[1] - before,
        branch=branch,
        optimal_theta=float(theta),
        deficit=deficit,
        shape=profile.shape,
        shape_label=profile.shape_label,
    )


def hex_fields(res: DeficitResult) -> tuple:
    """Every field of ``res``, each float as its hex text."""
    return tuple(
        x.hex() if isinstance(x, float) else x
        for x in (res.delta0, res.delta_halfpi, res.delta_theta, res.branch,
                  res.optimal_theta, res.deficit, res.shape, res.shape_label)
    )
