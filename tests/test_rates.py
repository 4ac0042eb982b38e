"""Closed-form SINR and rate checks.

Expected values marked "oracle" were computed independently with mpmath at
50 digits from the scheme closed forms.
"""

import math
import types
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from selfbackhaul import _kernels
from selfbackhaul.model import (ALWAYS, ETA, ONE_MINUS_ETA, SLOTS,
                                PowerAllocation, Scheme, StructuralError,
                                _overlap, links, validate)
from selfbackhaul.rates import SinrSet, rate_components, rates, sinr_set

from conftest import make_params


def alloc(p_d=0.0, p_u=0.0, p_bh_d=0.0, p_bh_u=0.0, p_u_d2d=0.0, eta=0.5):
    return PowerAllocation(p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta)


def test_hd_dl_sinr_reference(reference_params):
    # (200-10-6) * 1e-8 * 1000 / (10 * 1e-9), oracle 1.84e5
    s = sinr_set(Scheme.HALF_DUPLEX, reference_params, alloc(p_d=1000.0))
    assert s.sinr_d == pytest.approx(1.84e5, rel=1e-12)


def test_fd_ul_sinr_reference(reference_params):
    # 78 * 1e-8 * 10^2.5 / (1e-9 + 1e-12 * 1000), oracle below
    a = alloc(p_d=600.0, p_u=reference_params.p_ue_max, p_bh_u=400.0)
    s = sinr_set(Scheme.FULL_DUPLEX, reference_params, a)
    assert s.sinr_u == pytest.approx(123328.82874656679, rel=1e-12)


def test_fd_backhaul_sinrs_reference(reference_params):
    a = alloc(p_d=600.0, p_u=reference_params.p_ue_max, p_bh_d=10000.0,
              p_bh_u=400.0)
    s = sinr_set(Scheme.FULL_DUPLEX, reference_params, a)
    # oracle: 1e-8*78*1e4 / (12*(1e-9 + 1e-12*1000)) and 1e-8*84*400/(6e-9)
    assert s.sinr_bh_d == pytest.approx(325000.0, rel=1e-12)
    assert s.sinr_bh_u == pytest.approx(56000.0, rel=1e-12)


def test_zero_powers_zero_sinrs(reference_params):
    for scheme in Scheme:
        s = sinr_set(scheme, reference_params, alloc())
        assert s == type(s)(0.0, 0.0, 0.0, 0.0, 0.0)


def test_d2d_sinr_single_pair():
    params = make_params(k_d2d=1)
    a = alloc(p_u=50.0, p_u_d2d=100.0)
    s = sinr_set(Scheme.FULL_DUPLEX, params, a)
    # oracle: 1 / (0 + 1e-9/(1e-7*100) + 50/100) = 1/0.5001
    assert s.sinr_d2d == pytest.approx(1.9996000799840032, rel=1e-12)


def test_d2d_sinr_zero_power_convention():
    params = make_params(k_d2d=2)
    s = sinr_set(Scheme.FULL_DUPLEX, params, alloc(p_u=50.0, p_u_d2d=0.0))
    assert s.sinr_d2d == 0.0


def test_hd_dl_rate_reference(reference_params):
    # 0.5 * 10 * log2(1 + 1.84e5), oracle at 50 digits
    rb = rates(Scheme.HALF_DUPLEX, reference_params, alloc(p_d=1000.0))
    assert rb.c_d == pytest.approx(87.44677040715856, rel=1e-12)
    assert rb.c_u == 0.0
    assert rb.c_s == rb.c_d


def test_fd_no_intra_cell_traffic(reference_params):
    rb = rates(Scheme.FULL_DUPLEX, reference_params,
               alloc(p_d=500.0, p_u=10.0, p_bh_d=100.0, p_bh_u=100.0))
    assert rb.c_ic == 0.0
    assert rb.c_s == pytest.approx(rb.c_d + rb.c_u, rel=0, abs=0)


def test_fd_ignores_eta(reference_params):
    results = [rates(Scheme.FULL_DUPLEX, reference_params,
                     alloc(p_d=400.0, p_u=5.0, p_bh_d=50.0, p_bh_u=20.0,
                           eta=eta))
               for eta in (0.0, 0.3, 1.0)]
    for rb in results[1:]:
        assert (rb.c_d, rb.c_u, rb.c_ic, rb.c_bh_d, rb.c_bh_u) == (
            results[0].c_d, results[0].c_u, results[0].c_ic,
            results[0].c_bh_d, results[0].c_bh_u)


def test_hd_ignores_alpha():
    a = alloc(p_d=400.0, p_u=5.0, p_bh_d=50.0, p_bh_u=20.0, eta=0.4)
    results = [rates(Scheme.HALF_DUPLEX, make_params(si_cancellation_db=db), a)
               for db in (60, 120)]
    assert results[0].c_s == results[1].c_s
    assert results[0].c_bh_d == results[1].c_bh_d


def test_hd_ignores_ue_coupling_without_d2d():
    a = alloc(p_d=400.0, p_u=5.0, p_bh_d=50.0, p_bh_u=20.0, eta=0.4)
    r1 = rates(Scheme.HALF_DUPLEX, make_params(l_ud_db=70), a)
    r2 = rates(Scheme.HALF_DUPLEX, make_params(l_ud_db=110), a)
    assert r1.c_d == r2.c_d and r1.c_u == r2.c_u


def test_fd_ul_rate_monotone_in_alpha_and_p_d(reference_params):
    a = alloc(p_d=500.0, p_u=100.0, p_bh_u=100.0)
    c_u = [rates(Scheme.FULL_DUPLEX, make_params(si_cancellation_db=db), a).c_u
           for db in (60, 80, 100, 120)]
    assert all(x <= y for x, y in zip(c_u, c_u[1:]))  # decreasing alpha
    c_u_pd = [rates(Scheme.FULL_DUPLEX, make_params(si_cancellation_db=80),
                    alloc(p_d=p_d, p_u=100.0, p_bh_u=100.0)).c_u
              for p_d in (0.0, 10.0, 100.0, 1000.0)]
    assert all(x >= y for x, y in zip(c_u_pd, c_u_pd[1:]))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_components_monotone_in_own_power(scheme, reference_params):
    grid = [0.0, 1e-3, 1.0, 50.0, 300.0]
    base = dict(p_d=200.0, p_u=50.0, p_bh_d=100.0, p_bh_u=100.0, eta=0.5)
    for field, component in (("p_d", "c_d"), ("p_u", "c_u"),
                             ("p_bh_d", "c_bh_d"), ("p_bh_u", "c_bh_u")):
        values = []
        for value in grid:
            rb = rates(scheme, reference_params,
                       alloc(**{**base, field: value}))
            values.append(getattr(rb, component))
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:])), field


@pytest.mark.parametrize("scheme",
                         [Scheme.HALF_DUPLEX, Scheme.HYBRID_RELAY])
def test_time_split_linearity(scheme, reference_params):
    base = dict(p_d=300.0, p_u=20.0, p_bh_d=400.0, p_bh_u=50.0)
    at_one = rates(scheme, reference_params, alloc(**base, eta=1.0))
    at_zero = rates(scheme, reference_params, alloc(**base, eta=0.0))
    for eta in (0.25, 0.5, 0.8):
        rb = rates(scheme, reference_params, alloc(**base, eta=eta))
        assert rb.c_d == pytest.approx(eta * at_one.c_d, rel=1e-12)
        assert rb.c_u == pytest.approx((1 - eta) * at_zero.c_u, rel=1e-12)


def test_random_points_well_formed():
    rng = np.random.default_rng(1234)
    schemes = list(Scheme)
    for trial in range(250):
        params = make_params(
            k_d2d=int(rng.integers(0, 4)), k_an=int(rng.integers(0, 4)),
            si_cancellation_db=float(rng.uniform(40, 140)),
            l_ud_db=float(rng.uniform(50, 110)))
        scheme = schemes[trial % 3]
        a = alloc(p_d=float(rng.uniform(0, 1000)),
                  p_u=float(rng.uniform(0, 316)),
                  p_bh_d=float(rng.uniform(0, 1e4)),
                  p_bh_u=float(rng.uniform(0, 1000)),
                  p_u_d2d=float(rng.uniform(0, 316)) if params.k_d2d else 0.0,
                  eta=float(rng.uniform(0, 1)))
        rb = rates(scheme, params, a)
        values = (rb.c_d, rb.c_u, rb.c_ic, rb.c_s, rb.c_bh_d, rb.c_bh_u)
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert rb.c_s == rb.c_d + rb.c_u + rb.c_ic
        s = sinr_set(scheme, params, a)
        assert all(v >= 0.0 for v in
                   (s.sinr_d, s.sinr_u, s.sinr_d2d, s.sinr_bh_d, s.sinr_bh_u))
        if params.k_d2d + params.k_an == 0:
            assert rb.c_ic == 0.0


def test_relay_min_term():
    params = make_params(k_an=2)
    a = alloc(p_d=500.0, p_u=1.0, p_bh_d=100.0, p_bh_u=10.0, eta=0.7)
    c_d, c_u, c_d2d, relay_dl, relay_ul, _, _ = rate_components(
        Scheme.HALF_DUPLEX, params, a)
    rb = rates(Scheme.HALF_DUPLEX, params, a)
    assert c_d2d == 0.0
    assert rb.c_ic == pytest.approx(2 * min(relay_dl, relay_ul), rel=1e-14)


def test_negative_power_rejected(reference_params):
    with pytest.raises(ValueError, match="p_d"):
        rates(Scheme.FULL_DUPLEX, reference_params, alloc(p_d=-1.0))
    with pytest.raises(ValueError, match="eta"):
        rates(Scheme.HALF_DUPLEX, reference_params, alloc(eta=1.5))


def test_structural_violation_propagates():
    params = make_params(n_t=100, n_r=100)
    with pytest.raises(StructuralError, match="FD transmit DoF"):
        rates(Scheme.FULL_DUPLEX, params, alloc(p_d=1.0))


# -- the closed forms pinned against a per-scheme oracle -------------------


def _oracle_sinrs(scheme, p, a):
    """Per-stream SINRs (dl, ul, d2d, bh_dl, bh_ul), each scheme's closed
    forms written out on their own, in the kernel's operation order."""
    n_t, n_r, m_bh_t, m_bh_r = p.n_t, p.n_r, p.m_bh_t, p.m_bh_r
    d, u, k_d2d = p.d, p.u, p.k_d2d
    s2, l_ue, l_ud, l_bh, alpha = (p.sigma_n2, p.l_ue, p.l_ud, p.l_bh,
                                   p.alpha)
    p_d, p_u, p_bh_d, p_bh_u, p_u_d2d = a.as_tuple()[:5]
    d_str = d - k_d2d
    sinr_d = sinr_u = sinr_d2d = sinr_bh_d = sinr_bh_u = 0.0
    if k_d2d > 0 and p_u_d2d > 0.0:
        sinr_d2d = 1.0 / ((k_d2d - 1) + s2 / (l_ud * p_u_d2d)
                          + p_u / p_u_d2d)
    if scheme is Scheme.FULL_DUPLEX:
        dof_t = n_t - d - m_bh_t - n_r
        dof_r = n_r - u - m_bh_r
        si = alpha * (p_d + p_bh_u)
        if d_str > 0 and p_d > 0.0:
            iui = l_ud * (u - k_d2d) * p_u + l_ud * k_d2d * p_u_d2d
            sinr_d = l_ue * dof_t * p_d / (d_str * (s2 + iui))
        if p_u > 0.0:
            sinr_u = l_ue * dof_r * p_u / (s2 + si)
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = l_bh * dof_r * p_bh_d / (m_bh_r * (s2 + si))
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = l_bh * dof_t * p_bh_u / (m_bh_t * s2)
    elif scheme is Scheme.HALF_DUPLEX:
        dof_t = n_t - d + k_d2d - m_bh_t
        dof_r = n_r - u - m_bh_r
        if d_str > 0 and p_d > 0.0:
            sinr_d = dof_t * l_ue * p_d / (d_str * s2)
        if p_u > 0.0:
            sinr_u = dof_r * l_ue * p_u / s2
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = dof_r * l_bh * p_bh_d / (m_bh_r * s2)
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = dof_t * l_bh * p_bh_u / (m_bh_t * s2)
    else:
        if d_str > 0 and p_d > 0.0:
            sinr_d = (n_t - d + k_d2d - n_r) * l_ue * p_d / (d_str * s2)
        if p_u > 0.0:
            sinr_u = (n_r - u) * l_ue * p_u / (s2 + alpha * p_bh_u)
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = ((n_r - m_bh_r) * l_bh * p_bh_d
                         / (m_bh_r * (s2 + alpha * p_d)))
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = ((n_t - m_bh_t - k_d2d - n_r) * l_bh * p_bh_u
                         / (m_bh_t * s2))
    return sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u


def _oracle_parts(scheme, p, a):
    """(c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u) from the
    oracle SINRs and each scheme's slot weights."""
    sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u = _oracle_sinrs(
        scheme, p, a)
    eta = a.eta
    if scheme is Scheme.FULL_DUPLEX:
        w_d = w_u = w_bh_d = w_bh_u = 1.0
    elif scheme is Scheme.HALF_DUPLEX:
        w_d, w_u, w_bh_d, w_bh_u = eta, 1.0 - eta, 1.0 - eta, eta
    else:
        w_d, w_u, w_bh_d, w_bh_u = eta, 1.0 - eta, eta, 1.0 - eta
    r_d = math.log2(1.0 + sinr_d)
    r_u = math.log2(1.0 + sinr_u)
    return (w_d * (p.d - p.k_d2d - p.k_an) * r_d,
            w_u * (p.u - p.k_d2d - p.k_an) * r_u,
            w_u * p.k_d2d * math.log2(1.0 + sinr_d2d),
            w_d * r_d,
            w_u * r_u,
            w_bh_d * p.m_bh_r * math.log2(1.0 + sinr_bh_d),
            w_bh_u * p.m_bh_t * math.log2(1.0 + sinr_bh_u))


def _random_cell(rng):
    d, u = int(rng.integers(1, 13)), int(rng.integers(1, 13))
    k_d2d = int(rng.integers(0, min(d, u) + 1))
    k_an = int(rng.integers(0, min(d, u) - k_d2d + 1))
    return make_params(
        n_t=int(rng.integers(20, 241)), n_r=int(rng.integers(8, 121)),
        m_bh_t=int(rng.integers(0, 9)), m_bh_r=int(rng.integers(0, 13)),
        d=d, u=u, k_d2d=k_d2d, k_an=k_an,
        noise_dbm=float(rng.uniform(-100, -80)),
        l_ue_db=float(rng.uniform(60, 100)),
        l_ud_db=float(rng.uniform(50, 110)),
        l_bh_db=float(rng.uniform(60, 100)),
        si_cancellation_db=float(rng.uniform(40, 140)))


def _random_alloc(rng, params):
    """Powers up to the budgets, each zero with probability 1/4; eta
    sometimes on an end of [0, 1]."""
    def power(cap):
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(0, cap))
    eta = float(rng.choice([0.0, 1.0, rng.uniform(0, 1), rng.uniform(0, 1)]))
    return PowerAllocation(
        p_d=power(params.p_an_max), p_u=power(params.p_ue_max),
        p_bh_d=power(params.p_bh_d_max), p_bh_u=power(params.p_an_max),
        p_u_d2d=power(params.p_ue_max) if params.k_d2d else 0.0, eta=eta)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_kernel_equals_per_scheme_closed_forms(scheme):
    rng = np.random.default_rng(2016)
    seen = {"k_d2d": 0, "k_an": 0, "m_bh_t=0": 0, "m_bh_r=0": 0}
    cells = 0
    while cells < 150:
        params = _random_cell(rng)
        if validate(params, scheme):
            continue
        cells += 1
        seen["k_d2d"] += params.k_d2d > 0
        seen["k_an"] += params.k_an > 0
        seen["m_bh_t=0"] += params.m_bh_t == 0
        seen["m_bh_r=0"] += params.m_bh_r == 0
        for _ in range(8):
            a = _random_alloc(rng, params)
            assert sinr_set(scheme, params, a) == SinrSet(
                *_oracle_sinrs(scheme, params, a))
            parts = rate_components(scheme, params, a)
            assert parts == _oracle_parts(scheme, params, a)
    assert all(count > 0 for count in seen.values()), seen


@st.composite
def _cells_and_allocs(draw, schemes=tuple(Scheme)):
    """A seeded random cell valid for one of ``schemes``, and an
    allocation on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheme = draw(st.sampled_from(schemes))
    params = _random_cell(rng)
    while validate(params, scheme):
        params = _random_cell(rng)
    return scheme, params, _random_alloc(rng, params)


@settings(derandomize=True, deadline=None)
@given(_cells_and_allocs())
def test_sum_rate_is_sum_of_user_rates(case):
    scheme, params, a = case
    rb = rates(scheme, params, a)
    assert rb.c_s == rb.c_d + rb.c_u + rb.c_ic


_RATE_FIELDS = ("c_d", "c_u", "c_ic", "c_s", "c_bh_d", "c_bh_u")


@settings(derandomize=True, deadline=None)
@given(_cells_and_allocs([Scheme.HALF_DUPLEX]), st.floats(1e-15, 1.0))
def test_hd_rates_independent_of_alpha(case, alpha):
    _, params, a = case
    first = rates(Scheme.HALF_DUPLEX, params, a)
    second = rates(Scheme.HALF_DUPLEX, replace(params, alpha=alpha), a)
    assert [getattr(first, f) for f in _RATE_FIELDS] == [
        getattr(second, f) for f in _RATE_FIELDS]


# -- the partials kernel ----------------------------------------------------


_POWERS = ("p_d", "p_u", "p_bh_d", "p_bh_u", "p_u_d2d")


def _sympy_partials(kernel, log_powers, eta):
    """The partials of `rate_parts` with respect to the log10 powers and
    ``eta``, by sympy on the kernel's own expressions, at 30 digits."""
    xs = sympy.symbols("x0:5", real=True)
    e = sympy.Symbol("eta", real=True)
    symbolic_math = types.SimpleNamespace(log2=lambda v: sympy.log(v, 2))
    with mock.patch.object(_kernels, "math", symbolic_math):
        parts = _kernels.rate_parts(kernel, *[10 ** x for x in xs], e)
    point = {**dict(zip(xs, log_powers)), e: eta}
    return [[float(sympy.diff(part, v).evalf(30, subs=point))
             for v in (*xs, e)] for part in parts]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_partials_equal_sympy(scheme):
    # two direct and one relayed pair, and SI strong enough to matter
    params = make_params(k_d2d=2, k_an=1, si_cancellation_db=90)
    kernel = links(scheme, params).kernel
    for log_powers, eta in (((2.1, 1.0, 3.0, 1.5, 0.5), 0.3),
                            ((-1.0, 2.4, 0.5, 2.9, -3.0), 0.8),
                            ((2.9, -6.0, 3.9, -2.0, 2.0), 0.5)):
        jac = _kernels.rate_jac(
            kernel, *[10.0 ** x for x in log_powers], eta)
        oracle = _sympy_partials(kernel, log_powers, eta)
        for got, want in zip(jac, oracle):
            assert list(got) == pytest.approx(want, rel=1e-12, abs=1e-12)


# The sign table: which power is each rate's own, which powers interfere
# with it and where (the links whose slots must overlap, see
# `model._overlap`), and the link whose slot its time weight follows.
# Every other partial is exactly zero.
_DL, _UL, _BH_IN, _BH_OUT = range(4)
_SIGN_TABLE = {
    # rate: (own power, ((interferer, (link, link)), ...), slot link)
    "c_d": ("p_d", (("p_u", (_DL, _UL)), ("p_u_d2d", (_DL, _UL))), _DL),
    "c_u": ("p_u", (("p_d", (_UL, _DL)), ("p_bh_u", (_UL, _BH_OUT))), _UL),
    "c_d2d": ("p_u_d2d", (("p_u", (_UL, _UL)),), _UL),
    "relay_dl": ("p_d", (("p_u", (_DL, _UL)), ("p_u_d2d", (_DL, _UL))), _DL),
    "relay_ul": ("p_u", (("p_d", (_UL, _DL)), ("p_bh_u", (_UL, _BH_OUT))),
                 _UL),
    "c_bh_d": ("p_bh_d", (("p_d", (_BH_IN, _DL)),
                          ("p_bh_u", (_BH_IN, _BH_OUT))), _BH_IN),
    "c_bh_u": ("p_bh_u", (), _BH_OUT),
}


@settings(derandomize=True, deadline=None)
@given(_cells_and_allocs())
def test_partials_follow_the_sign_table(case):
    # a rate rises with its own power and falls with each interferer,
    # which reaches it only when the two links share a slot; eta raises it
    # in the eta slot, lowers it in the 1 - eta slot and leaves it alone
    # when it is always on
    scheme, params, a = case
    jac = _kernels.rate_jac(links(scheme, params).kernel, *a.as_tuple())
    slots = SLOTS[scheme]
    for (own, interferers, link), row in zip(_SIGN_TABLE.values(), jac):
        partial = dict(zip(_POWERS, row[:5]))
        assert partial.pop(own) >= 0.0
        for power, (one, other) in interferers:
            value = partial.pop(power)
            if _overlap(slots[one], slots[other]):
                assert value <= 0.0
            else:
                assert value == 0.0
        assert all(value == 0.0 for value in partial.values())
        d_eta = row[5]
        assert {ALWAYS: d_eta == 0.0, ETA: d_eta >= 0.0,
                ONE_MINUS_ETA: d_eta <= 0.0}[slots[link]]
