from hypothesis import strategies as st
import pytest

from selfbackhaul.model import params_from_db


REFERENCE_DB = dict(
    n_t=200, n_r=100, m_bh_t=6, m_bh_r=12, d=10, u=10, k_d2d=0, k_an=0,
    noise_dbm=-90, l_ue_db=80, l_ud_db=70, l_bh_db=80,
    p_an_dbm=30, p_ue_dbm=25, p_bh_dbm=40, si_cancellation_db=120,
    rho_min=0.15, rho_max=0.30,
)

# same cell shrunk to Monte-Carlo-friendly array sizes
SMALL_DB = dict(REFERENCE_DB, n_t=40, n_r=16, m_bh_t=2, m_bh_r=4, d=4, u=4)


@pytest.fixture
def reference_db():
    return dict(REFERENCE_DB)


@pytest.fixture
def reference_params():
    return params_from_db(REFERENCE_DB)


@pytest.fixture
def small_params():
    return params_from_db(SMALL_DB)


def make_params(**overrides):
    return params_from_db({**REFERENCE_DB, **overrides})


@st.composite
def valid_params(draw):
    """A random cell valid for every scheme: any SI, 1-6 backhaul streams
    and 0-3 intra-cell pairs, relayed or direct."""
    m_bh_t = draw(st.integers(1, 6))
    pairs = draw(st.sampled_from(["k_an", "k_d2d"]))
    return make_params(
        si_cancellation_db=draw(st.floats(60.0, 140.0)),
        m_bh_t=m_bh_t, m_bh_r=2 * m_bh_t, **{pairs: draw(st.integers(0, 3))})
