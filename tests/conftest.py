import os
from pathlib import Path

from hypothesis import strategies as st
import pytest

from selfbackhaul.cli import MONTE_CARLO_SIZES
from selfbackhaul.model import load_params_db, params_from_db
from selfbackhaul.sweep import preset_path


REFERENCE_DB = load_params_db(preset_path("default"))

# the cell validate-zf checks: the reference cell at Monte-Carlo sizes
SMALL_DB = dict(REFERENCE_DB, **MONTE_CARLO_SIZES)


@pytest.fixture
def reference_db():
    return dict(REFERENCE_DB)


@pytest.fixture
def reference_params():
    return params_from_db(REFERENCE_DB)


@pytest.fixture
def small_params():
    return params_from_db(SMALL_DB)


def src_env():
    """The environment of a child interpreter that imports this checkout's
    ``src/`` first."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))


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
