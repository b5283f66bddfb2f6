"""The scalar closed forms against the same formulas at 50 digits.

The reference takes the Gibbs weights of the very floats handed to the
program and evaluates every closed form in mpmath, so what is measured is
the program's own rounding.  That rounding is led by the log weights
g = E/T: an error of one ulp in g moves exp(g) by |g| ulps, so each
tolerance is stated in units of eps (1 + G), G the largest |g| of the
point.  Over 18,000 random draws of this box the largest error seen was
2.1 of these units, for the populations and the entropies alike.

The slope dS~/dtheta is held against mpmath's numerical derivative of
the 50-digit S~, in the same units.  The refined interior angles are
held against the 50-digit root of that derivative.

The two curvatures are left out: near T = 0.03 their closed forms still
take the wrong sign at a few points (ROADMAP item 3), and no error bound
for them exists yet.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xxz_deficit.measurement import (
    HALF_PI,
    branch_s0,
    branch_s_halfpi,
    post_meas_entropy,
    post_meas_entropy_slope,
)
from xxz_deficit.model import ModelParams, thermal_state
from xxz_deficit.optimizer import Branch, Shape, optimize_deficit, scan_profile

EPS = 2.0**-52
# units of eps (1 + G) that each quantity may be off by
UNITS = 8.0

params_st = st.builds(
    ModelParams,
    J=st.floats(-2.0, 2.0),
    Jz=st.floats(-2.0, 2.0),
    B=st.floats(0.0, 3.0),
    T=st.floats(0.03, 2.5),
)


def _xlnx(x):
    return x * mpmath.log(x) if x > 0 else mpmath.mpf(0)


def _gibbs(p):
    """a, b, d, v at 50 digits from the Gibbs weights of the floats in p,
    and G, the largest |log weight|."""
    t, j, jz, b_field = (mpmath.mpf(x) for x in (p.T, abs(p.J), p.Jz, p.B))
    g = [(jz / 2 + b_field) / t, (jz / 2 - b_field) / t,
         (j - jz / 2) / t, (-j - jz / 2) / t]
    w = [mpmath.exp(x - max(g)) for x in g]
    a, d, up, down = (x / sum(w) for x in w)
    return a, (up + down) / 2, d, (up - down) / 2, float(max(abs(x) for x in g))


def _entropy(a, b, d, v):
    """S~ as a function of theta, in the working precision of the call."""
    alpha, beta = a - d, 1 - 4 * b

    def s_tilde(theta):
        c, cross = mpmath.cos(theta), 2 * v * mpmath.sin(theta)
        rp = mpmath.sqrt((alpha + beta * c) ** 2 + cross**2)
        rm = mpmath.sqrt((alpha - beta * c) ** 2 + cross**2)
        spectrum = ((1 + alpha * c + rp) / 4, (1 + alpha * c - rp) / 4,
                    (1 - alpha * c + rm) / 4, (1 - alpha * c - rm) / 4)
        return -sum(_xlnx(y) for y in spectrum)

    return s_tilde


def _reference(p, theta):
    """a, b, d, v, r, S~(theta), S~'(theta), S~(0) and S~(pi/2) at 50
    digits, and G."""
    with mpmath.workdps(50):
        a, b, d, v, big_g = _gibbs(p)
        r = mpmath.sqrt((a - d) ** 2 + 4 * v**2)
        s_tilde = _entropy(a, b, d, v)
        x = (1 + r) / 2
        ref = dict(
            a=a, b=b, d=d, v=v, r=r,
            s_theta=s_tilde(mpmath.mpf(theta)),
            slope=mpmath.diff(s_tilde, mpmath.mpf(theta)),
            s0=-(_xlnx(a) + _xlnx(d) + 2 * _xlnx(b)),
            s_halfpi=mpmath.log(2) - _xlnx(x) - _xlnx(1 - x),
        )
        return ref, big_g


@settings(max_examples=200, deadline=None)
@given(params_st, st.floats(0.0, HALF_PI))
# near-pure states where alpha - beta cos, formed as a difference, loses
# every digit, and one with a small coherence where rho- is small and the
# cos-split form of the slope cancels
@example(ModelParams(0.0, 0.0, 3.0, 0.0625), 1e-10)
@example(ModelParams(0.0, 0.0, 1.0, 0.03125), 1.192092896e-07)
@example(ModelParams(0.001, 1.0, 2.0, 0.03125), 1.2e-07)
def test_closed_forms_match_50_digit_gibbs_weights(p, theta):
    s = thermal_state(p)
    ref, big_g = _reference(p, theta)
    tol = UNITS * EPS * (1.0 + big_g)

    def err(name, value):
        with mpmath.workdps(50):
            return float(abs(mpmath.mpf(value) - ref[name]))

    # populations: relative
    for name in ("a", "b", "d"):
        assert err(name, getattr(s, name)) <= tol * float(ref[name]), name
    # v is a difference of two weights, so its error is measured against b
    assert err("v", s.v) <= tol * float(ref["b"])
    # r and the entropies: absolute
    assert err("r", s.r) <= tol
    assert err("s_theta", post_meas_entropy(s, theta)) <= tol
    assert err("slope", post_meas_entropy_slope(s, theta)) <= tol
    assert err("s0", branch_s0(s)) <= tol
    assert err("s_halfpi", branch_s_halfpi(s)) <= tol


def _root_error(p, theta):
    """|theta - theta*| and |S~''(theta*)|, theta* the 50-digit root of
    dS~/dtheta nearest theta."""
    with mpmath.workdps(50):
        s_tilde = _entropy(*_gibbs(p)[:4])
        root = mpmath.findroot(lambda t: mpmath.diff(s_tilde, t), mpmath.mpf(theta))
        return float(abs(root - theta)), float(abs(mpmath.diff(s_tilde, root, 2)))


def test_interior_angle_is_the_root_of_the_slope():
    """On 40 Interior draws of J, Jz in [-2, 2], B in [0, 3], T in
    [0.1, 2], the optimal angle is the 50-digit root of dS~/dtheta to
    1e-12, or to 2 eps / |S~''| where S~ is flatter than 4.4e-4 there:
    a slope that is right to eps moves its root by up to eps / |S~''|
    (over 600 such draws, one angle was off by more than 1e-12, by
    1.6e-12, where |S~''| = 1.2e-4).  A golden section on S~
    values finds the angle only to about the square root of eps (up to
    3.5e-7 on such draws)."""
    rng = np.random.default_rng(1911)
    checked = 0
    while checked < 40:
        p = ModelParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                        rng.uniform(0.0, 3.0), rng.uniform(0.1, 2.0))
        res = optimize_deficit(p)
        if res.branch is not Branch.INTERIOR:
            continue
        checked += 1
        err, curvature = _root_error(p, res.optimal_theta)
        assert err <= max(1e-12, 2.0 * EPS / curvature), p


@pytest.mark.parametrize(
    "p,branch,shape,theta",
    [
        # an interior minimum 0.007 below pi/2 and only 2.5e-12 deeper than
        # S~(pi/2), in the last scan cell: a cell of the 200x200 J=Jz=-1
        # diagram over T in [0.02, 2], B in [0, 3]
        (ModelParams(-1.0, -1.0, 0.8925, 0.81695), Branch.INTERIOR,
         Shape.UNIMODAL_MIN, 1.5638578163574008),
        # a maximum at 0.0072, in the first scan cell
        (ModelParams(0.30147763457890076, -0.8621340817282923,
                     0.8635800081665811, 0.1387017784297373), Branch.HALF_PI,
         Shape.UNIMODAL_MAX, 0.0072214020129036884),
    ],
)
def test_extremum_in_an_endpoint_cell(p, branch, shape, theta):
    """S~' is 0 at 0 and pi/2, so the end of the first and the last scan
    cell carries no sign; the extremum next to it is still found, to
    1e-11 (a flat minimum: S~'' = 4.2e-7 at the first)."""
    profile = scan_profile(thermal_state(p))
    assert profile.shape is shape
    (found, _), = profile.interior_minima + profile.interior_maxima
    assert abs(found - theta) <= 1e-11
    assert _root_error(p, found)[0] <= 1e-11
    assert optimize_deficit(p).branch is branch
