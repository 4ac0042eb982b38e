"""Parameter construction, unit conversion and structural validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfbackhaul import zfval
from selfbackhaul.model import (SLOTS, ConfigError, PowerAllocation, Scheme,
                                StructuralError, links, load_params,
                                params_from_db, params_to_db,
                                parse_config_text, require_valid, validate)

from conftest import REFERENCE_DB, make_params


def test_noise_dbm_conversion(reference_params):
    assert reference_params.sigma_n2 == pytest.approx(1e-9, rel=1e-12)


def test_reference_conversions(reference_params):
    p = reference_params
    assert p.l_ue == pytest.approx(1e-8, rel=1e-12)
    assert p.l_ud == pytest.approx(1e-7, rel=1e-12)
    assert p.p_an_max == pytest.approx(1000.0, rel=1e-12)
    assert p.alpha == pytest.approx(1e-12, rel=1e-12)
    assert p.p_bh_d_max == pytest.approx(10000.0, rel=1e-12)
    assert p.l_bh == pytest.approx(1e-8, rel=1e-12)
    assert (p.rho_min, p.rho_max) == (0.15, 0.30)


def test_ue_power_conversion(reference_params):
    # 10^(25/10) evaluated at 50 digits
    assert reference_params.p_ue_max == pytest.approx(
        316.22776601683793, rel=1e-14)


def test_counts_copied_verbatim(reference_params):
    p = reference_params
    assert (p.n_t, p.n_r, p.m_bh_t, p.m_bh_r) == (200, 100, 6, 12)
    assert (p.d, p.u, p.k_d2d, p.k_an) == (10, 10, 0, 0)


@pytest.mark.parametrize("key", sorted(REFERENCE_DB))
def test_missing_key_rejected(key, reference_db):
    del reference_db[key]
    with pytest.raises(ConfigError, match=key):
        params_from_db(reference_db)


def test_non_finite_value_rejected(reference_db):
    for key, value, message in [
            ("l_ue_db", float("nan"), "l_ue_db must be finite, got nan"),
            ("l_ue_db", "abc", "l_ue_db must be a number, got 'abc'"),
            ("rho_min", "x", "rho_min must be a number, got 'x'"),
            # linear values that overflow a float
            ("p_an_dbm", 5000, "p_an_dbm is out of range, got 5000"),
            ("l_ue_db", -5000, "l_ue_db is out of range, got -5000"),
            ("noise_dbm", 10 ** 400, "noise_dbm is out of range, got 1000"),
            # and that underflow to 0
            ("p_an_dbm", -5000, "p_an_dbm is out of range, got -5000"),
            ("l_ue_db", 5000, "l_ue_db is out of range, got 5000"),
            ("si_cancellation_db", 4000,
             "si_cancellation_db is out of range, got 4000"),
            # a count the kernel's float coefficients cannot hold
            ("n_t", 10 ** 400, "n_t is out of range, got 1000")]:
        with pytest.raises(ConfigError, match=message):
            params_from_db(dict(reference_db, **{key: value}))


def test_negative_count_rejected(reference_db):
    reference_db["d"] = -1
    with pytest.raises(ConfigError, match="d must be"):
        params_from_db(reference_db)


def test_fractional_count_rejected(reference_db):
    reference_db["n_t"] = 200.5
    with pytest.raises(ConfigError, match="n_t"):
        params_from_db(reference_db)


# each dB key's field and sign, written out apart from the model's table:
# +1 for a power in dBm, -1 for a loss of a linear gain
_DB_FIELDS = {"noise_dbm": ("sigma_n2", 1), "l_ue_db": ("l_ue", -1),
              "l_ud_db": ("l_ud", -1), "l_bh_db": ("l_bh", -1),
              "p_an_dbm": ("p_an_max", 1), "p_ue_dbm": ("p_ue_max", 1),
              "p_bh_dbm": ("p_bh_d_max", 1),
              "si_cancellation_db": ("alpha", -1)}


@settings(derandomize=True, deadline=None)
@given(st.fixed_dictionaries({key: st.floats(-1000.0, 1000.0)
                              for key in _DB_FIELDS}))
def test_db_scale_bit_for_bit(values):
    params = params_from_db({**REFERENCE_DB, **values})
    back = params_to_db(params)
    for key, (field, sign) in _DB_FIELDS.items():
        linear = getattr(params, field)
        if sign > 0:
            assert linear == 10.0 ** (values[key] / 10.0), key
            assert back[key] == 10.0 * math.log10(linear), key
        else:
            assert linear == 10.0 ** (-values[key] / 10.0), key
            assert back[key] == -10.0 * math.log10(linear), key


def test_db_round_trip(reference_db):
    back = params_to_db(params_from_db(reference_db))
    for key, value in reference_db.items():
        assert back[key] == pytest.approx(value, rel=1e-9, abs=1e-9), key


@pytest.mark.parametrize("scheme", list(Scheme))
def test_reference_cell_valid_for_all_schemes(scheme, reference_params):
    assert validate(reference_params, scheme) == []


def test_fd_transmit_dof_violation():
    params = make_params(n_t=100, n_r=100)
    violations = validate(params, Scheme.FULL_DUPLEX)
    assert any("FD transmit DoF" in v for v in violations)
    # 100 - 10 - 6 - 100 < 0 while HD still has DoF
    assert not any("transmit" in v
                   for v in validate(params, Scheme.HALF_DUPLEX))


def test_pair_count_violation():
    params = make_params(k_d2d=6, k_an=5)
    violations = validate(params, Scheme.FULL_DUPLEX)
    assert any("k_d2d + k_an > d" in v for v in violations)
    assert any("k_d2d + k_an > u" in v for v in violations)


def test_rl_dof_violations():
    params = make_params(n_r=9, m_bh_r=12, u=10)
    violations = validate(params, Scheme.HYBRID_RELAY)
    assert any("RL UL receive DoF" in v for v in violations)
    assert any("RL backhaul receive DoF" in v for v in violations)


def test_validate_is_pure(reference_params):
    first = validate(reference_params, Scheme.FULL_DUPLEX)
    second = validate(reference_params, Scheme.FULL_DUPLEX)
    assert first == second == []
    bad = make_params(rho_min=0.5, rho_max=0.2)
    assert (validate(bad, Scheme.HALF_DUPLEX)
            == validate(bad, Scheme.HALF_DUPLEX))


def test_validate_returns_a_new_list():
    bad = make_params(rho_min=0.5, rho_max=0.2)
    first = validate(bad, Scheme.HALF_DUPLEX)
    first.append("edited by the caller")
    second = validate(bad, Scheme.HALF_DUPLEX)
    assert second is not first
    assert second == first[:-1] and len(second) == 1


@pytest.mark.parametrize("scheme", list(Scheme))
def test_require_valid_returns_the_links_record(scheme, reference_params):
    assert (require_valid(reference_params, scheme)
            is links(scheme, reference_params))
    bad = make_params(n_t=10, rho_min=0.5, rho_max=0.2)
    with pytest.raises(StructuralError) as raised:
        require_valid(bad, scheme)
    assert raised.value.violations == validate(bad, scheme)


def test_field_violations_in_report_order(reference_params):
    bad = replace(reference_params, n_t=0, k_an=-1, l_ue=2.0, l_ud=0.0,
                  l_bh=math.nan, alpha=1.5, sigma_n2=0.0, p_an_max=0.0,
                  p_ue_max=-1.0, p_bh_d_max=math.inf)
    assert [v for v in validate(bad, Scheme.HALF_DUPLEX)
            if "DoF" not in v] == [
        "n_t must be >= 1, got 0",
        "k_an must be >= 0, got -1",
        "l_ue must be a linear gain in (0, 1], got 2.0",
        "l_ud must be a linear gain in (0, 1], got 0.0",
        "l_bh must be a linear gain in (0, 1], got nan",
        "alpha must be a linear gain in (0, 1], got 1.5",
        "sigma_n2 must be > 0, got 0.0",
        "p_an_max must be > 0, got 0.0",
        "p_ue_max must be > 0, got -1.0",
        "p_bh_d_max must be > 0, got inf"]


def test_gain_bounds_checked():
    params = make_params(l_ue_db=-3)   # gain above 1
    assert any("l_ue" in v for v in validate(params, Scheme.FULL_DUPLEX))


def test_config_file_round_trip(tmp_path, reference_db):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in reference_db.items()),
                   encoding="utf-8")
    params = load_params(cfg)
    assert params == params_from_db(reference_db)


def test_config_file_comments_and_unknown_keys(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("# comment\nn_t = 200  # inline\nbogus = 3\n",
                   encoding="utf-8")
    with pytest.raises(ConfigError, match="bogus"):
        load_params(cfg)


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_parse_config_requires_assignment():
    with pytest.raises(ConfigError, match="name = value"):
        parse_config_text("just a line\n")


def test_scheme_parse():
    assert Scheme.parse("FD") is Scheme.FULL_DUPLEX
    assert Scheme.parse(" rl ") is Scheme.HYBRID_RELAY
    with pytest.raises(ConfigError):
        Scheme.parse("tdd")


def test_scheme_is_exhaustive(reference_params):
    assert {s.value for s in Scheme} == {"fd", "hd", "rl"}
    assert set(SLOTS) == set(Scheme)
    assert [s for s in Scheme if not links(s, reference_params).time_split
            ] == [Scheme.FULL_DUPLEX]


def _oracle_dof_violations(p, scheme):
    """Each scheme's DoF rules, written out on their own."""
    if scheme is Scheme.FULL_DUPLEX:
        rules = [("FD transmit DoF", "n_t - d - m_bh_t - n_r",
                  p.n_t - p.d - p.m_bh_t - p.n_r),
                 ("FD receive DoF", "n_r - u - m_bh_r",
                  p.n_r - p.u - p.m_bh_r)]
    elif scheme is Scheme.HALF_DUPLEX:
        rules = [("HD transmit DoF", "n_t - d + k_d2d - m_bh_t",
                  p.n_t - p.d + p.k_d2d - p.m_bh_t),
                 ("HD receive DoF", "n_r - u - m_bh_r",
                  p.n_r - p.u - p.m_bh_r)]
    else:
        rules = [("RL DL transmit DoF", "n_t - d + k_d2d - n_r",
                  p.n_t - p.d + p.k_d2d - p.n_r),
                 ("RL backhaul transmit DoF", "n_t - m_bh_t - k_d2d - n_r",
                  p.n_t - p.m_bh_t - p.k_d2d - p.n_r),
                 ("RL UL receive DoF", "n_r - u", p.n_r - p.u),
                 ("RL backhaul receive DoF", "n_r - m_bh_r",
                  p.n_r - p.m_bh_r)]
    return [f"{name} <= 0 ({formula} = {dof})"
            for name, formula, dof in rules if dof <= 0]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_dof_checks_equal_per_scheme_rules(scheme):
    rng = np.random.default_rng(768)
    failing = 0
    for _ in range(400):
        d, u = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        k_d2d = int(rng.integers(0, min(d, u) + 1))
        params = make_params(
            n_t=int(rng.integers(1, 161)), n_r=int(rng.integers(1, 81)),
            m_bh_t=int(rng.integers(0, 13)), m_bh_r=int(rng.integers(0, 25)),
            d=d, u=u, k_d2d=k_d2d,
            k_an=int(rng.integers(0, min(d, u) - k_d2d + 1)))
        expected = _oracle_dof_violations(params, scheme)
        failing += bool(expected)
        assert [v for v in validate(params, scheme) if "DoF" in v] == expected
        # the Monte-Carlo reference zero-forces exactly the valid cells:
        # each of its stacks has fewer rows than antennas
        streams, stacks = zfval._link_stacks(scheme, params,
                                             PowerAllocation(0, 0, 0, 0))
        assert (not expected) == all(
            sum(streams[link][0] for link, _ in denoms)
            + sum(count for count, _ in null_rows) < n
            for n, denoms, null_rows in stacks)
    assert 0 < failing < 400
