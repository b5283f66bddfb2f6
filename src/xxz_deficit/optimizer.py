"""Global minimization of the post-measurement entropy over the angle.

S~(theta) is even about both endpoints and in practice has at most two
interior extrema, but nothing here assumes that: a dense scan certifies
extremum brackets from sign changes of the discrete slope, and
golden-section refinement runs only inside a certified bracket.  The
winning branch (z endpoint, interior angle, or equatorial endpoint)
determines the deficit and the phase label.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .measurement import (
    HALF_PI,
    branch_s0,
    branch_s_halfpi,
    entropy_curve,
    post_meas_entropy,
)
from .model import ModelParams, XThermalState, pre_measurement_entropy, thermal_state

__all__ = [
    "Branch",
    "DeficitResult",
    "Shape",
    "ThetaProfile",
    "golden_section_min",
    "optimal_angle_jump",
    "optimize_deficit",
    "optimize_deficits",
    "scan_profile",
    "scan_profiles",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

EQUAL_TOL = 1e-12  # depth comparisons between branches
FLAT_SPAN = 1e-12  # sample range below which the profile counts as flat
SLOPE_NOISE = 5e-14  # discrete slopes below this are rounding noise
REFINE_TOL = 1e-10  # golden-section width of a refined interior extremum

# S~ samples per array pass of ``scan_profiles``: 16 states at the
# default 201 angles.  The pass's temporaries grow with its samples (four
# spectrum rows per state).  On a 40x40 sweep, passes of 32 or 64 states
# ran no faster than 16, while peak memory of the process rose from
# 29.8 MB to 31.6 MB at 64 and 37.8 MB at 256.  On the paper's jump
# table (801 angles), 16 states per pass raised peak memory by 2.8 MB
# over one state per pass, 4 states by 0.1 MB.
_PASS_SAMPLES = 16 * 201


class Shape(Enum):
    MONOTONE_INCREASING = "MonotoneIncreasing"
    MONOTONE_DECREASING = "MonotoneDecreasing"
    UNIMODAL_MIN = "UnimodalMin"
    UNIMODAL_MAX = "UnimodalMax"
    BIMODAL = "Bimodal"
    FLAT = "Flat"
    OTHER = "Other"


class Branch(Enum):
    ZERO = "Zero"
    INTERIOR = "Interior"
    HALF_PI = "HalfPi"


def golden_section_min(f, a: float, b: float, tol: float = 1e-10):
    """Locate the minimum of a unimodal f on [a, b] to width tol.

    Returns (x, f(x)).  The caller must supply a bracket certified to
    contain a single minimum.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


@dataclass(frozen=True)
class ThetaProfile:
    """Sampled shape of S~ on [0, pi/2] with refined interior extrema."""

    thetas: np.ndarray
    entropies: np.ndarray
    shape: Shape
    interior_minima: tuple[tuple[float, float], ...]
    interior_maxima: tuple[tuple[float, float], ...]

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.thetas.tolist(), self.entropies.tolist()))

    @property
    def n_extrema(self) -> int:
        return len(self.interior_minima) + len(self.interior_maxima)

    @property
    def shape_label(self) -> str:
        if self.shape is Shape.OTHER:
            return f"Other({self.n_extrema})"
        return self.shape.value


def _angles(n: int) -> np.ndarray:
    if n < 51:
        raise ValueError(f"need at least 51 samples, got {n}")
    return np.linspace(0.0, HALF_PI, n)


def _profiles_from_samples(
    states, thetas: np.ndarray, vals: np.ndarray
) -> list[ThetaProfile]:
    """Profiles of sampled S~ curves: ``vals[k]`` holds S~ of
    ``states[k]`` at ``thetas``.  The slope sign changes of all rows are
    found at once; refinement runs per bracket on the scalar closed form.
    """
    flat = vals.max(axis=1) - vals.min(axis=1) < FLAT_SPAN
    dv = np.diff(vals, axis=1)
    # slope pair (i, i + 1) brackets an extremum when its signs differ,
    # unless both slopes are rounding noise or the whole row is flat
    big = np.abs(dv) >= SLOPE_NOISE
    live = (big[:, :-1] | big[:, 1:]) & ~flat[:, None]
    down, up = dv < 0.0, dv > 0.0
    minima: list[list[tuple[float, float]]] = [[] for _ in states]
    maxima: list[list[tuple[float, float]]] = [[] for _ in states]

    for k, i in zip(*np.nonzero(live & down[:, :-1] & up[:, 1:])):
        x, y = golden_section_min(
            lambda t, s=states[k]: post_meas_entropy(s, t),
            thetas[i], thetas[i + 2], REFINE_TOL,
        )
        if 0.0 < x < HALF_PI:
            minima[k].append((x, y))
    for k, i in zip(*np.nonzero(live & up[:, :-1] & down[:, 1:])):
        x, ny = golden_section_min(
            lambda t, s=states[k]: -post_meas_entropy(s, t),
            thetas[i], thetas[i + 2], REFINE_TOL,
        )
        if 0.0 < x < HALF_PI:
            maxima[k].append((x, -ny))

    profiles = []
    for k, row in enumerate(vals):
        counts = (len(minima[k]), len(maxima[k]))
        if flat[k]:
            shape = Shape.FLAT
        elif counts == (0, 0):
            shape = (
                Shape.MONOTONE_INCREASING
                if row[-1] >= row[0]
                else Shape.MONOTONE_DECREASING
            )
        elif counts == (1, 0):
            shape = Shape.UNIMODAL_MIN
        elif counts == (0, 1):
            shape = Shape.UNIMODAL_MAX
        elif counts == (1, 1):
            shape = Shape.BIMODAL
        else:
            shape = Shape.OTHER
            warnings.warn(
                f"{sum(counts)} interior extrema found; profile outside the "
                "unimodal/bimodal family",
                stacklevel=3,
            )
        profiles.append(
            ThetaProfile(thetas, row, shape, tuple(minima[k]), tuple(maxima[k]))
        )
    return profiles


def scan_profile(state: XThermalState, n: int = 201) -> ThetaProfile:
    """Uniform scan of S~ plus golden-section refinement of its extrema.

    Brackets come from sign changes of the discrete slope, so refinement
    never runs blindly over the whole interval (the profile may be
    bimodal); slope pairs below SLOPE_NOISE are rounding noise and
    bracket nothing.  More than two interior extrema is unexpected and
    flagged.
    """
    thetas = _angles(n)
    vals = entropy_curve(state, thetas)
    return _profiles_from_samples([state], thetas, vals[None, :])[0]


def scan_profiles(states, n: int = 201) -> list[ThetaProfile]:
    """``scan_profile`` of every state, sampling S~ for up to 16 states
    per array pass (fewer above 201 angles, so that a pass holds no more
    samples than 16 states at 201).  Each profile equals the one-state
    call bit for bit: the batched samples equal the one-state samples,
    and the refinement stays scalar."""
    thetas = _angles(n)
    per_pass = max(1, _PASS_SAMPLES // n)
    profiles = []
    for start in range(0, len(states), per_pass):
        block = states[start:start + per_pass]
        profiles += _profiles_from_samples(block, thetas, entropy_curve(block, thetas))
    return profiles


@dataclass(frozen=True)
class DeficitResult:
    """Branch values, winner, optimal angle and deficit for one point.

    delta_theta is None when no interior minimum exists.  All entropies
    are in nats; deficit_bits divides by ln 2.
    """

    delta0: float
    delta_halfpi: float
    delta_theta: float | None
    branch: Branch
    optimal_theta: float
    deficit: float
    shape: Shape
    shape_label: str

    @property
    def deficit_bits(self) -> float:
        return self.deficit / math.log(2.0)


def _deficit_from_profile(s: XThermalState, profile: ThetaProfile) -> DeficitResult:
    """Deficit of one state from its profile (see ``optimize_deficit``)."""
    entropy_before = pre_measurement_entropy(s)
    s0 = branch_s0(s)
    s_half = branch_s_halfpi(s)
    interior = (
        min(profile.interior_minima, key=lambda te: te[1])
        if profile.interior_minima
        else None
    )

    best, branch, theta = s0, Branch.ZERO, 0.0
    if s_half < best - EQUAL_TOL:
        best, branch, theta = s_half, Branch.HALF_PI, HALF_PI
    if interior is not None and interior[1] < best - EQUAL_TOL:
        best, branch, theta = interior[1], Branch.INTERIOR, interior[0]

    # a minimum refined right next to pi/2 is the ordinary merge into the
    # endpoint; the exotic case is a tie with a genuinely interior angle
    if (
        interior is not None
        and HALF_PI - interior[0] > 0.05
        and abs(interior[1] - s_half) <= EQUAL_TOL
        and min(interior[1], s_half) < s0 - EQUAL_TOL
    ):
        warnings.warn(
            "interior minimum ties the pi/2 endpoint; boundary type outside "
            "the studied families",
            stacklevel=3,
        )

    deficit = best - entropy_before
    if deficit < 0.0:
        if deficit < -1e-9:
            raise ArithmeticError(
                f"negative deficit {deficit!r}: branch values inconsistent"
            )
        deficit = 0.0

    return DeficitResult(
        delta0=s0 - entropy_before,
        delta_halfpi=s_half - entropy_before,
        delta_theta=None if interior is None else interior[1] - entropy_before,
        branch=branch,
        optimal_theta=theta,
        deficit=deficit,
        shape=profile.shape,
        shape_label=profile.shape_label,
    )


def optimize_deficit(p: ModelParams, n: int = 201) -> DeficitResult:
    """Deficit at one parameter point: min over the three branches.

    The two endpoint branches are analytic; the interior one comes from
    the deepest refined interior minimum of the scan.  Exact ties at the
    1e-12 level prefer the endpoint branches, z endpoint first.
    """
    s = thermal_state(p)
    return _deficit_from_profile(s, scan_profile(s, n))


def optimize_deficits(points, n: int = 201) -> list[DeficitResult]:
    """``optimize_deficit`` at each point, with the S~ scans sampled
    through ``scan_profiles``.

    Each result equals the one-point call bit for bit: the Gibbs states
    and endpoint branches stay scalar, and so do the profiles.
    """
    states = [thermal_state(p) for p in points]
    profiles = scan_profiles(states, n)
    return [_deficit_from_profile(s, prof) for s, prof in zip(states, profiles)]


def optimal_angle_jump(
    p_before: ModelParams, p_after: ModelParams, n: int = 201
) -> float:
    """Absolute change of the optimal angle between two nearby points
    straddling a boundary."""
    before = optimize_deficit(p_before, n).optimal_theta
    after = optimize_deficit(p_after, n).optimal_theta
    return abs(after - before)
