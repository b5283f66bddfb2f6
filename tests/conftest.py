import numpy as np
import pytest
from hypothesis import strategies as st

from xxz_deficit.model import T_FLOOR, ModelParams, _gibbs_entries_exact, _states_exact


def random_params(rng, t_min=0.05, t_max=5.0):
    return ModelParams(
        J=rng.uniform(-2.0, 2.0),
        Jz=rng.uniform(-2.0, 2.0),
        B=rng.uniform(-3.0, 3.0),
        T=rng.uniform(t_min, t_max),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_coupling = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))

# (J, Jz, B, T) points that ModelParams accepts, with J = 0, B = 0 and T at
# the floor among them, and T log-uniform down to the floor, where the
# states are nearly pure
gibbs_points = st.tuples(
    _coupling,
    _coupling,
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    st.one_of(st.just(T_FLOOR), st.floats(-8.0, 0.7).map(lambda e: 10.0**e)),
)


def gibbs_states(points):
    """The checked ThermalStates of a list of ``gibbs_points``."""
    J, Jz, B, T = np.array(points, dtype=float).reshape(-1, 4).T
    return _states_exact(*_gibbs_entries_exact(J, Jz, B, T))
