"""Constraint vector evaluation and reporting."""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st
import pytest

from selfbackhaul import _kernels
from selfbackhaul.feasibility import constraints
from selfbackhaul.model import PowerAllocation, Scheme, links
from selfbackhaul.rates import rates

from conftest import make_params, valid_params


def alloc(p_d=0.0, p_u=0.0, p_bh_d=0.0, p_bh_u=0.0, p_u_d2d=0.0, eta=0.5):
    return PowerAllocation(p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta)


def test_an_budget_overrun(reference_params):
    report = constraints(Scheme.FULL_DUPLEX, reference_params,
                         alloc(p_d=600.0, p_bh_u=401.0))
    assert report.value("pwr_an") == pytest.approx(1.0, rel=1e-12)
    assert not report.feasible
    assert report.max_violation >= 1.0


def test_rl_time_disjoint_budget(reference_params):
    report = constraints(Scheme.HYBRID_RELAY, reference_params,
                         alloc(p_d=900.0, p_bh_u=950.0))
    assert report.value("pwr_an") == pytest.approx(-50.0, rel=1e-12)


def test_hd_backhaul_ul_sign_against_independent_oracle(reference_params):
    # HD, eta=0.5, p_d = p_bh_u = 500, p_u at the UE budget, p_bh_d = 1e4;
    # both closed forms evaluated independently with mpmath at 50 digits:
    #   C_u     = 89.56078199966733, C_u^BH = 51.67896373120598
    a = alloc(p_d=500.0, p_u=reference_params.p_ue_max, p_bh_d=10000.0,
              p_bh_u=500.0, eta=0.5)
    report = constraints(Scheme.HALF_DUPLEX, reference_params, a)
    expected = 89.56078199966733 - 51.67896373120598
    assert report.value("bh_ul") == pytest.approx(expected, rel=1e-12)
    assert report.value("bh_ul") > 0 and not report.feasible
    # the DL direction has slack at this point (oracle: 82.45 vs 115.86)
    assert report.value("bh_dl") == pytest.approx(
        82.44680961050855 - 115.86049447264217, rel=1e-12)


@settings(derandomize=True, deadline=None)
@given(valid_params())
@example(make_params())
def test_zero_power_point_feasible_for_any_eta(params):
    # the point `optimize` falls back to when no start ends feasible
    for scheme in Scheme:
        for eta in (0.0, 0.37, 1.0):
            report = constraints(scheme, params, alloc(eta=eta))
            assert report.feasible, (scheme, eta)
            assert report.value("bh_dl") == 0.0
            assert report.value("bh_ul") == 0.0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_bh_dl_relaxes_with_bn_power(scheme, reference_params):
    previous = None
    for p_bh_d in (0.0, 10.0, 100.0, 1000.0, 10000.0):
        value = constraints(scheme, reference_params,
                            alloc(p_d=400.0, p_u=5.0, p_bh_d=p_bh_d,
                                  p_bh_u=100.0)).value("bh_dl")
        if previous is not None:
            assert value <= previous + 1e-12
        previous = value


@st.composite
def _cells_and_allocations(draw):
    """A random valid cell and scheme, and an allocation in its boxes with
    each power log-uniform over the 12 decades below its cap."""
    params = draw(valid_params())

    def power(cap):
        return cap * 10.0 ** draw(st.floats(-12.0, 0.0))

    alloc = PowerAllocation(
        power(params.p_an_max), power(params.p_ue_max),
        power(params.p_bh_d_max), power(params.p_an_max),
        power(params.p_ue_max) if params.k_d2d else 0.0,
        draw(st.floats(0.0, 1.0)))
    return draw(st.sampled_from(list(Scheme))), params, alloc


@settings(derandomize=True, deadline=None)
@given(_cells_and_allocations())
@example((Scheme.FULL_DUPLEX, make_params(),
          alloc(p_d=500.0, p_u=0.007, p_bh_d=100.0, p_bh_u=0.1)))
def test_bn_power_at_its_cap_only_loosens_bh_dl(case):
    # any feasible point stays feasible, at the same rates, with the BN
    # at its cap: p_bh_d holds no decision
    scheme, params, a = case
    top = replace(a, p_bh_d=params.p_bh_d_max)
    kernel = links(scheme, params).kernel
    before = _kernels.rate_parts(kernel, *a.as_tuple())
    after = _kernels.rate_parts(kernel, *top.as_tuple())
    # c_d, c_u, c_d2d, relay_dl, relay_ul and c_bh_u; then c_bh_d
    assert before[:5] + before[6:] == after[:5] + after[6:]
    assert after[5] >= before[5]
    report = constraints(scheme, params, a)
    if report.feasible:
        assert constraints(scheme, params, top).feasible


def test_label_order_reference_cell(reference_params):
    report = constraints(Scheme.HALF_DUPLEX, reference_params, alloc())
    assert report.labels() == ["bh_dl", "bh_ul", "pwr_an", "pwr_ue_ul",
                               "pwr_bn", "rho_lo", "rho_hi",
                               "eta_lo", "eta_hi"]
    again = constraints(Scheme.HALF_DUPLEX, reference_params, alloc())
    assert again.labels() == report.labels()


def test_fd_omits_eta_rows(reference_params):
    report = constraints(Scheme.FULL_DUPLEX, reference_params, alloc())
    labels = report.labels()
    assert "eta_lo" not in labels and "eta_hi" not in labels
    with pytest.raises(KeyError, match="eta_lo"):
        report.value("eta_lo")


def test_d2d_power_row_only_with_pairs():
    without = constraints(Scheme.FULL_DUPLEX, make_params(), alloc())
    assert "pwr_ue_d2d" not in without.labels()
    with_pairs = constraints(Scheme.FULL_DUPLEX, make_params(k_d2d=2),
                             alloc(p_u_d2d=400.0))
    assert with_pairs.value("pwr_ue_d2d") == pytest.approx(
        400.0 - 316.22776601683793, rel=1e-12)


def test_rho_rows_dropped_when_all_users_intra_cell():
    params = make_params(k_d2d=4, k_an=6)   # d = u = 10 fully intra-cell
    report = constraints(Scheme.HALF_DUPLEX, params,
                         alloc(p_d=10.0, p_u=10.0, p_u_d2d=10.0))
    assert "rho_lo" not in report.labels()
    assert "rho_hi" not in report.labels()


def test_rho_values_match_rates(reference_params):
    a = alloc(p_d=700.0, p_u=2.0, p_bh_d=5000.0, p_bh_u=300.0, eta=0.6)
    rb = rates(Scheme.HYBRID_RELAY, reference_params, a)
    report = constraints(Scheme.HYBRID_RELAY, reference_params, a)
    assert report.value("rho_lo") == pytest.approx(
        reference_params.rho_min * rb.c_d - rb.c_u, rel=1e-12)
    assert report.value("rho_hi") == pytest.approx(
        rb.c_u - reference_params.rho_max * rb.c_d, rel=1e-12)


def test_feasible_iff_max_violation_within_tol(reference_params):
    # only the AN budget is (barely) active at this point
    a = alloc(p_d=0.0, p_bh_u=1000.0 + 5e-7)
    report = constraints(Scheme.FULL_DUPLEX, reference_params, a, tol=1e-6)
    assert report.feasible and report.max_violation == pytest.approx(5e-7)
    tight = constraints(Scheme.FULL_DUPLEX, reference_params, a, tol=1e-8)
    assert not tight.feasible
