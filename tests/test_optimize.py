"""Multi-start optimizer behavior: determinism, orderings, baselines."""

from dataclasses import replace
import importlib.machinery
import importlib.util
import math
import os
from pathlib import Path
import re
import subprocess
import sys
from unittest import mock
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.optimize import minimize
import scipy.optimize._slsqplib

from selfbackhaul import _kernels
from selfbackhaul.feasibility import ConstraintReport, constraints
from selfbackhaul.model import PowerAllocation, Scheme, links, params_from_db
from selfbackhaul.optimizer import (OptimizerOptions, _Problem, baseline,
                                   optimize, repair_start)
from selfbackhaul.rates import rates
from selfbackhaul.sweep import load_sweep_spec, preset_path
import selfbackhaul.optimizer as optimizer_mod

from conftest import make_params, valid_params

FAST = dict(n_starts=10, rng_seed=42)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(n_starts=0).check()
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        OptimizerOptions(rng_seed=-1).check()


def test_best_point_feasible_and_dominant(reference_params):
    result = optimize(Scheme.HYBRID_RELAY, reference_params,
                      OptimizerOptions(**FAST))
    assert result.best_report.feasible
    finite = [s.objective for s in result.starts
              if s.feasible and np.isfinite(s.objective)]
    assert result.best_rates.c_s >= max(finite)
    # the reported best re-evaluates exactly through the rate engine
    again = rates(Scheme.HYBRID_RELAY, reference_params, result.best_alloc)
    assert again.c_s == result.best_rates.c_s


def test_determinism_same_seed(reference_params):
    a = optimize(Scheme.HALF_DUPLEX, reference_params,
                 OptimizerOptions(**FAST))
    b = optimize(Scheme.HALF_DUPLEX, reference_params,
                 OptimizerOptions(**FAST))
    assert a.best_rates.c_s == b.best_rates.c_s
    assert a.best_alloc == b.best_alloc
    assert np.array_equal([s.objective for s in a.starts],
                          [s.objective for s in b.starts], equal_nan=True)


def test_hd_optimum_independent_of_si_cancellation():
    opts = OptimizerOptions(**FAST)
    lo = optimize(Scheme.HALF_DUPLEX, make_params(si_cancellation_db=60),
                  opts)
    hi = optimize(Scheme.HALF_DUPLEX, make_params(si_cancellation_db=120),
                  opts)
    assert lo.best_rates.c_s == pytest.approx(
        hi.best_rates.c_s, abs=2 * optimizer_mod._OBJECTIVE_TOL)


def test_scheme_ordering_at_poor_si_cancellation():
    opts = OptimizerOptions(**FAST)
    params = make_params(si_cancellation_db=60)
    fd = optimize(Scheme.FULL_DUPLEX, params, opts).best_rates.c_s
    hd = optimize(Scheme.HALF_DUPLEX, params, opts).best_rates.c_s
    assert fd < hd


def test_scheme_ordering_at_strong_si_cancellation():
    opts = OptimizerOptions(**FAST)
    params = make_params(si_cancellation_db=130)
    fd = optimize(Scheme.FULL_DUPLEX, params, opts).best_rates.c_s
    hd = optimize(Scheme.HALF_DUPLEX, params, opts).best_rates.c_s
    rl = optimize(Scheme.HYBRID_RELAY, params, opts).best_rates.c_s
    assert fd > rl and fd > hd


@pytest.mark.parametrize("scheme", list(Scheme))
def test_optimized_dominates_baseline(scheme, reference_params):
    opts = OptimizerOptions(**FAST)
    best = optimize(scheme, reference_params, opts).best_rates.c_s
    rb, _report = baseline(scheme, reference_params)
    assert best >= rb.c_s - 1e-6


def test_fd_baseline_nearly_dead_downlink(reference_params):
    rb, report = baseline(Scheme.FULL_DUPLEX, reference_params)
    assert rb.c_d < 2.0                      # IUI-choked downlink
    assert rb.c_s < 5.0
    optimized = optimize(Scheme.FULL_DUPLEX, reference_params,
                         OptimizerOptions(**FAST)).best_rates.c_s
    assert optimized > 30 * rb.c_s
    assert not report.feasible               # raw point violates constraints


def test_baseline_allocation_convention(reference_params):
    rb, _ = baseline(Scheme.HALF_DUPLEX, reference_params)
    a = rb.alloc
    assert a.p_d == a.p_bh_u == reference_params.p_an_max / 2
    assert a.p_u == reference_params.p_ue_max
    assert a.p_bh_d == reference_params.p_bh_d_max
    assert a.eta == 0.5 and a.p_u_d2d == 0.0
    rl, _ = baseline(Scheme.HYBRID_RELAY, reference_params)
    assert rl.alloc.p_d == rl.alloc.p_bh_u == reference_params.p_an_max


def test_baseline_d2d_power_only_with_pairs():
    rb, _ = baseline(Scheme.FULL_DUPLEX, make_params(k_d2d=2))
    assert rb.alloc.p_u_d2d == pytest.approx(316.22776601683793, rel=1e-12)


def test_rl_baseline_ul_insensitive_to_vanishing_si():
    # at the reference point the delivered UL rate is capped by the
    # alpha-free outgoing backhaul and the rho band, so the SI level
    # cannot move it (raw-rate gap would be 5.5e-2 relative)
    at_design = baseline(Scheme.HYBRID_RELAY,
                         make_params(si_cancellation_db=120))[0]
    at_limit = baseline(Scheme.HYBRID_RELAY,
                        make_params(si_cancellation_db=300))[0]
    assert abs(at_design.c_u - at_limit.c_u) / at_limit.c_u < 1e-3


def test_baseline_respects_rate_ratio_band(reference_params):
    for scheme in Scheme:
        rb, _ = baseline(scheme, reference_params)
        assert rb.c_u <= reference_params.rho_max * rb.c_d + 1e-12
        assert rb.c_u >= reference_params.rho_min * rb.c_d - 1e-12
        assert rb.c_s == rb.c_d + rb.c_u + rb.c_ic


@pytest.mark.parametrize("scheme",
                         [Scheme.FULL_DUPLEX, Scheme.HYBRID_RELAY])
def test_optimum_monotone_in_si_cancellation(scheme):
    opts = OptimizerOptions(**FAST)
    values = [optimize(scheme, make_params(si_cancellation_db=db),
                       opts).best_rates.c_s
              for db in (80, 100, 120)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1 - 1e-3)


def _direct_min_form_maximum(scheme, params, seeds):
    """Independent derivative-free check: COBYLA on the raw min objective."""
    caps = np.array([params.p_an_max, params.p_ue_max, params.p_bh_d_max,
                     params.p_an_max])

    def unpack(x):
        p = 10.0 ** np.clip(x[:4], -8, np.log10(caps))
        eta = float(np.clip(x[4], 0.0, 1.0))
        return PowerAllocation(p[0], p[1], p[2], p[3], 0.0, eta)

    def neg_obj(x):
        return -rates(scheme, params, unpack(x)).c_s

    def cons(x):
        report = constraints(scheme, params, unpack(x))
        return -np.array([v for _, v in report.values])

    best = -np.inf
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = np.concatenate([rng.uniform(-1, np.log10(caps)),
                             [rng.uniform(0.2, 0.8)]])
        res = minimize(neg_obj, x0, method="COBYLA",
                       constraints=[{"type": "ineq", "fun": cons}],
                       options={"maxiter": 4000, "rhobeg": 0.5,
                                "tol": 1e-10})
        alloc = unpack(res.x)
        if constraints(scheme, params, alloc).feasible:
            best = max(best, rates(scheme, params, alloc).c_s)
    return best


@pytest.mark.parametrize("scheme,k_an", [
    (Scheme.HYBRID_RELAY, 1), (Scheme.HYBRID_RELAY, 3),
    (Scheme.HYBRID_RELAY, 5), (Scheme.FULL_DUPLEX, 2),
], ids=["1", "3", "5", "fd-2"])
def test_epigraph_matches_direct_min_form(scheme, k_an):
    params = make_params(k_an=k_an, m_bh_t=2, m_bh_r=4)
    epi = optimize(scheme, params, OptimizerOptions(n_starts=16, rng_seed=7))
    direct = _direct_min_form_maximum(scheme, params, seeds=range(40))
    assert epi.best_rates.c_s == pytest.approx(direct, rel=1e-3)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("cell", [{}, {"k_d2d": 1}, {"k_an": 1}],
                         ids=["reference", "direct-pair", "relayed-pair"])
def test_optimizer_drops_no_constraint(scheme, cell):
    # every reported constraint is either enforced by the variable boxes or
    # handed to SLSQP, in report order, as the exact negated report value
    # (the AN budget row scaled by its cap); the epigraph rows come last
    params = make_params(**cell)
    problem = _Problem(scheme, params)
    boxed = {"pwr_ue_ul", "pwr_ue_d2d", "pwr_bn", "eta_lo", "eta_hi"}
    if scheme is Scheme.HYBRID_RELAY:
        boxed.add("pwr_an")
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(problem.lo, problem.hi)
        report = constraints(scheme, params, problem.to_alloc(x))
        expected = []
        for label, value in report.values:
            if label in boxed:
                assert value <= report.tol, label
            elif label == "pwr_an":
                expected.append(-value / params.p_an_max)
            else:
                expected.append(-value)
        g = problem.constraint_vec(x)
        assert g.size == len(expected) + (2 if params.k_an else 0)
        assert list(g[:len(expected)]) == expected


@st.composite
def _valid_cells(draw):
    """A random valid cell and scheme."""
    params = draw(valid_params())
    return draw(st.sampled_from(list(Scheme))), params


@st.composite
def _cells_and_points(draw):
    """A random valid cell and scheme, with a random point in its boxes."""
    scheme, params = draw(_valid_cells())
    problem = _Problem(scheme, params)
    x = np.array([draw(st.floats(lo, hi))
                  for lo, hi in zip(problem.lo, problem.hi)])
    return scheme, params, x


def _central_differences(problem, x):
    """(gradient, Jacobian) of ``problem.eval_point`` by central
    differences with the relative step 1e-6."""
    grad, cols = [], []
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        (f_up, g_up), (f_down, g_down) = (problem.eval_point(up),
                                          problem.eval_point(down))
        grad.append((f_up - f_down) / (2.0 * h))
        cols.append((g_up - g_down) / (2.0 * h))
    return np.array(grad), np.array(cols).T


# Central differences with a 1e-6 step err by about h**2 |f'''| plus
# 1e-16 |f| / h.  On 1500 cells drawn as below, the largest error was
# 1.4e-8 of max(1, |derivative|).
_CENTRAL_DIFFERENCE_TOL = 1e-7


@settings(derandomize=True, deadline=None)
@given(_cells_and_points())
def test_derivatives_match_central_differences_on_random_cells(
        cell_and_point):
    scheme, params, x = cell_and_point
    problem = _Problem(scheme, params)
    grad, jac = problem.derivatives(x)
    fd_grad, fd_jac = _central_differences(problem, x)
    assert grad.shape == fd_grad.shape and jac.shape == fd_jac.shape
    np.testing.assert_allclose(grad, fd_grad, rtol=_CENTRAL_DIFFERENCE_TOL,
                               atol=_CENTRAL_DIFFERENCE_TOL)
    np.testing.assert_allclose(jac, fd_jac, rtol=_CENTRAL_DIFFERENCE_TOL,
                               atol=_CENTRAL_DIFFERENCE_TOL)


def _random_points(scheme, params, count):
    problem = _Problem(scheme, params)
    rng = np.random.default_rng(5)
    return [rng.uniform(problem.lo, problem.hi) for _ in range(count)]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("cell", [{}, {"k_d2d": 1}, {"k_an": 1}],
                         ids=["reference", "direct-pair", "relayed-pair"])
def test_derivative_pass_is_one_fused_kernel_call(monkeypatch, scheme, cell):
    # SLSQP asks for the gradient, then the Jacobian, at each iterate: the
    # pair costs one `rate_jac` call and no `rate_parts` call, a repeat
    # nothing
    calls = []
    for name in ("rate_parts", "rate_jac"):
        def counted(*args, _name=name, _real=getattr(_kernels, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(_kernels, name, counted)
    params = make_params(**cell)
    problem = _Problem(scheme, params)
    for x in _random_points(scheme, params, 5):
        del calls[:]
        grad = problem.objective_grad(x)
        jac = problem.constraint_jac(x)
        assert calls == ["rate_jac"]
        assert problem.objective_grad(x) is grad
        assert problem.constraint_jac(x) is jac
        assert calls == ["rate_jac"]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("cell", [{}, {"k_d2d": 1}, {"k_an": 1}],
                         ids=["reference", "direct-pair", "relayed-pair"])
def test_gradient_and_jacobian_are_separate_arrays(scheme, cell):
    # SLSQP (scipy 1.17.1) sends most starts to the iteration limit when
    # the gradient is a view into an array that also holds the Jacobian
    params = make_params(**cell)
    problem = _Problem(scheme, params)
    for x in _random_points(scheme, params, 3):
        grad = problem.objective_grad(x)
        jac = problem.constraint_jac(x)
        assert grad.flags.owndata and jac.flags.owndata
        assert not np.shares_memory(grad, jac)


def _scipy_slsqp(problem, x0):
    """``scipy.optimize.minimize(method="SLSQP")`` on ``problem`` with the
    settings of `optimizer.minimize`, the reference it must reproduce."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="Values in x were outside bounds")
        return minimize(
            problem.objective, x0, jac=problem.objective_grad,
            method="SLSQP", bounds=list(zip(problem.lo, problem.hi)),
            constraints=[{"type": "ineq", "fun": problem.constraint_vec,
                          "jac": problem.constraint_jac}],
            options={"maxiter": optimizer_mod._MAX_ITERATIONS,
                     "ftol": optimizer_mod._OBJECTIVE_TOL})


_FIG4A_65_DB = dict(load_sweep_spec(preset_path("fig4a")).base_db,
                    si_cancellation_db=65)


@pytest.mark.parametrize("scheme,db,seed", [
    (Scheme.FULL_DUPLEX, {}, 42),
    (Scheme.HALF_DUPLEX, {}, 42),
    (Scheme.HYBRID_RELAY, {}, 42),
    (Scheme.HYBRID_RELAY, {"k_an": 2, "m_bh_t": 2, "m_bh_r": 4}, 7),
    (Scheme.FULL_DUPLEX, {"k_an": 1}, 42),
    (Scheme.HALF_DUPLEX, {"k_d2d": 2}, 42),
    (Scheme.FULL_DUPLEX, {"si_cancellation_db": 70}, 1),
    (Scheme.FULL_DUPLEX, _FIG4A_65_DB, 3),
], ids=["fd", "hd", "rl", "rl-relayed-pairs", "fd-relayed-pair",
        "hd-direct-pairs", "fd-70-dB", "fd-fig4a-65-dB"])
def test_own_slsqp_loop_matches_scipy_minimize(monkeypatch, scheme, db, seed):
    # `optimizer.minimize` calls a private scipy routine: it must take the
    # steps scipy's own SLSQP wrapper takes, from every start `optimize`
    # makes
    params = make_params(**db)
    ours = optimizer_mod.minimize
    results = []

    def both(fun, x0, **kwargs):
        problem = fun.__self__
        expected = _scipy_slsqp(problem, x0.copy())
        res = ours(fun, x0, **kwargs)
        assert np.array_equal(res.x, expected.x)
        assert (res.nit, res.status, res.success, res.message) == (
            expected.nit, expected.status, expected.success,
            expected.message)
        results.append(res)
        return res

    monkeypatch.setattr(optimizer_mod, "minimize", both)
    result = optimize(scheme, params, OptimizerOptions(n_starts=8,
                                                       rng_seed=seed))
    assert len(results) == len(result.starts)
    if db is _FIG4A_65_DB:
        # the first start stops with status 8 on an infeasible point
        assert results[0].status == 8 and not result.starts[0].feasible


def test_slsqp_is_loaded_from_scipys_own_extension():
    # the routine the oracle test above compares against is the same file
    assert os.path.samefile(optimizer_mod._load_slsqplib().__spec__.origin,
                            scipy.optimize._slsqplib.__file__)


def test_missing_slsqp_extension_names_the_folder_searched(monkeypatch,
                                                          tmp_path):
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
    with pytest.raises(ImportError,
                       match=re.escape(str(tmp_path / "optimize"))):
        optimizer_mod._load_slsqplib()


_IMPORT_GRAPH = """\
import sys
import selfbackhaul.cli
from selfbackhaul import Scheme
from selfbackhaul.model import load_params_db, params_from_db
from selfbackhaul.optimizer import optimize
from selfbackhaul.sweep import preset_path
params = params_from_db(load_params_db(preset_path("default")))
assert optimize(Scheme.FULL_DUPLEX, params).converged_count > 0
print(sorted(name for name in sys.modules
             if name in ("scipy.optimize", "concurrent.futures.process")))
"""


def test_cli_and_optimize_load_neither_scipy_optimize_nor_the_pool():
    # SLSQP's extension is loaded alone and the pool only by a parallel
    # sweep; `scipy.optimize` alone costs most of a command's start-up
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"


def _replace_bisection(shrinks):
    """The bisection on `PowerAllocation` objects that repair ran before it
    bisected a tuple: each trial is built by `dataclasses.replace` and
    passes `check()`.  Appends each shrunk field to ``shrinks``."""
    def shrink_power(alloc, field_name, violation_fn):
        shrinks.append(field_name)
        base = getattr(alloc, field_name)
        if base <= 0.0:
            return alloc
        lo, hi = 0.0, 1.0
        for _ in range(optimizer_mod._BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            trial = replace(alloc, **{field_name: mid * base})
            trial.check()
            if violation_fn(trial.as_tuple()) > -optimizer_mod._REPAIR_MARGIN:
                hi = mid
            else:
                lo = mid
        return replace(alloc, **{field_name: lo * base})
    return shrink_power


def _one_pass_repair(scheme, params, raw, tol, shrinks):
    """Repair as one pass over a `constraints()` report at the clipped
    start, bisecting on `PowerAllocation` objects and on report values."""
    caps = dict(p_d=params.p_an_max, p_u=params.p_ue_max,
                p_bh_d=params.p_bh_d_max, p_bh_u=params.p_an_max,
                p_u_d2d=params.p_ue_max)
    alloc = replace(raw, eta=min(max(raw.eta, 0.0), 1.0),
                    **{name: min(getattr(raw, name), cap)
                       for name, cap in caps.items()})
    if links(scheme, params).shared_budget:
        total = alloc.p_d + alloc.p_bh_u
        if total > params.p_an_max:
            f = params.p_an_max / total
            alloc = replace(alloc, p_d=alloc.p_d * f, p_bh_u=alloc.p_bh_u * f)
    shrink = _replace_bisection(shrinks)
    for label, value in constraints(scheme, params, alloc, tol).values:
        field = {"bh_dl": "p_d", "rho_lo": "p_d",
                 "bh_ul": "p_u", "rho_hi": "p_u"}.get(label)
        if field is not None and value > tol:
            alloc = shrink(alloc, field, lambda a, label=label: constraints(
                scheme, params, PowerAllocation(*a)).value(label))
    return alloc, caps


def _check_repair_against_oracle(scheme, params):
    """`repair_start` on 50 drawn starts, every other one pushed outside
    the boxes, equals `_one_pass_repair`, which decides each row and each
    bisection step on `constraints()` report values."""
    problem = _Problem(scheme, params)
    shrinks = []
    for index in range(50):
        raw = optimizer_mod._draw_start(
            problem, np.random.default_rng([42, index]))
        if index % 2:
            # every other start lies outside the boxes, to exercise clips
            raw = replace(raw, p_d=10 * raw.p_d, p_u=10 * raw.p_u,
                          p_bh_d=10 * raw.p_bh_d, p_bh_u=10 * raw.p_bh_u,
                          eta=2 * raw.eta - 0.5)
        alloc = repair_start(scheme, params, raw)
        expected, caps = _one_pass_repair(scheme, params, raw, 1e-6, shrinks)
        assert alloc == expected
        alloc.check()
        for name, cap in caps.items():
            assert getattr(alloc, name) <= min(getattr(raw, name), cap), name
    # the starts exercise the bisection on both powers repair shrinks
    assert set(shrinks) == {"p_d", "p_u"}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_repair_is_one_pass_over_the_clipped_start(scheme, reference_params):
    _check_repair_against_oracle(scheme, reference_params)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("cell", [{}, {"k_d2d": 1}, {"k_an": 1}],
                         ids=["reference", "direct-pair", "relayed-pair"])
def test_repair_row_equals_report_value(scheme, cell):
    # the oracle's rows are report values, so an equal result means each
    # row repair evaluates equals the report's value at every decision
    _check_repair_against_oracle(
        scheme, make_params(si_cancellation_db=70, **cell))


@pytest.mark.parametrize("name,value", [
    *((name, value) for name in ("p_d", "p_u", "p_bh_d", "p_bh_u", "p_u_d2d")
      for value in (-1e-3, math.nan)),
    ("eta", math.nan)])
def test_repair_rejects_a_negative_or_nan_entry(name, value,
                                                reference_params):
    # above-cap powers and an out-of-range eta are clipped instead
    start = replace(PowerAllocation(1.0, 1.0, 1.0, 1.0), **{name: value})
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {value}$"):
        repair_start(Scheme.HALF_DUPLEX, reference_params, start)


def test_reports_carry_plain_python_types(reference_params, monkeypatch):
    # all 50 starts run, some of which end infeasible
    monkeypatch.setattr(optimizer_mod, "_PATIENCE", 50)
    result = optimize(Scheme.FULL_DUPLEX, reference_params,
                      OptimizerOptions(rng_seed=1))
    assert not all(s.feasible for s in result.starts)
    assert all(type(s.feasible) is bool for s in result.starts)
    assert type(result.best_report.feasible) is bool
    assert type(result.best_report.max_violation) is float
    # the optimum and the objectives too, for a scheme that carries eta
    hd = optimize(Scheme.HALF_DUPLEX, reference_params,
                  OptimizerOptions(n_starts=5))
    for res in (result, hd):
        assert all(type(value) is float for value in res.best_alloc.as_tuple())
        assert type(res.best_rates.c_s) is float
        assert all(type(s.objective) is float for s in res.starts)


def test_single_intra_cell_pair_costs_a_little_either_way():
    # one pair counts once toward the sum-rate instead of twice, and the
    # two routings deliver nearly the same optimum
    opts = OptimizerOptions(**FAST)
    none = optimize(Scheme.HYBRID_RELAY, make_params(), opts).best_rates.c_s
    via_an = optimize(Scheme.HYBRID_RELAY, make_params(k_an=1),
                      opts).best_rates.c_s
    direct = optimize(Scheme.HYBRID_RELAY, make_params(k_d2d=1),
                      opts).best_rates.c_s
    assert via_an < none and direct < none
    assert abs(via_an - direct) / none < 0.05


def test_intra_cell_load_helps_only_under_scarce_backhaul():
    # relayed pairs add backhaul-free rate when the backhaul bottlenecks
    # the cell, and displace doubly-counted traffic once it does not
    opts = OptimizerOptions(**FAST)

    def rl_best(m, k_an):
        params = make_params(m_bh_t=m, m_bh_r=2 * m, k_an=k_an)
        return optimize(Scheme.HYBRID_RELAY, params, opts).best_rates.c_s

    assert rl_best(2, 3) > rl_best(2, 0)
    assert rl_best(4, 3) < rl_best(4, 0)


_OFF = PowerAllocation(0.0, 0.0, 0.0, 0.0)


def _assert_zero_power_optimum(result, scheme, params):
    assert not any(s.feasible for s in result.starts)
    assert result.best_alloc == _OFF and result.converged_count == 0
    assert result.best_rates == rates(scheme, params, _OFF)
    assert result.best_rates.c_s == 0.0
    assert result.best_report == constraints(scheme, params, _OFF)
    assert result.best_report.feasible


@pytest.fixture
def nothing_feasible(monkeypatch):
    """Every point with a power on reports infeasible, so no start ends
    feasible: no SLSQP end point has a power at zero."""
    infeasible = ConstraintReport(values=(("bh_dl", 1.0),), max_violation=1.0,
                                  feasible=False, tol=1e-6)
    real = optimizer_mod.constraints

    def infeasible_unless_off(scheme, params, alloc, *args):
        if alloc != _OFF:
            return infeasible
        return real(scheme, params, alloc, *args)

    monkeypatch.setattr(optimizer_mod, "constraints", infeasible_unless_off)


def test_no_feasible_start_returns_the_zero_power_point(nothing_feasible,
                                                        reference_params):
    result = optimize(Scheme.FULL_DUPLEX, reference_params,
                      OptimizerOptions(n_starts=3))
    _assert_zero_power_optimum(result, Scheme.FULL_DUPLEX, reference_params)
    assert len(result.starts) == 3
    assert all(s.iterations > 0 for s in result.starts)


def test_fig4a_point_where_the_one_start_ends_infeasible():
    # fig4a at 65 dB: full duplex's only start at seed 3 stops with SLSQP
    # status 8 on an infeasible point
    db = load_sweep_spec(preset_path("fig4a")).base_db
    params = params_from_db(dict(db, si_cancellation_db=65))
    result = optimize(Scheme.FULL_DUPLEX, params,
                      OptimizerOptions(n_starts=1, rng_seed=3))
    _assert_zero_power_optimum(result, Scheme.FULL_DUPLEX, params)
    assert result.starts[0].iterations > 0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_valid_cells(), st.integers(0, 2 ** 32 - 1))
def test_every_start_reaches_slsqp_and_the_optimum_checks_out(cell, seed):
    scheme, params = cell
    result = optimize(scheme, params,
                      OptimizerOptions(n_starts=3, rng_seed=seed))
    report = constraints(scheme, params, result.best_alloc)
    assert report.feasible and result.best_report == report
    assert result.best_rates == rates(scheme, params, result.best_alloc)
    assert len(result.starts) == 3
    assert not any(s.status.startswith("discarded") for s in result.starts)


def _patience_stop(objectives, patience):
    """How many starts a run with ``_PATIENCE = patience`` makes, from the
    objectives of the run of every start (nan for an infeasible start).

    A record is a feasible start that raises the best of the starts before
    it by more than 1e-6 relative, or the first feasible start.  The run
    stops ``patience`` starts after a record that no later record follows
    within them, and otherwise runs every start.
    """
    records = []
    best = None
    for index, value in enumerate(objectives):
        if math.isnan(value):
            continue
        if best is None or value - best > 1e-6 * best:
            records.append(index)
        best = value if best is None else max(best, value)
    for r, later in zip(records, records[1:] + [math.inf]):
        if later > r + patience:
            return min(r + patience + 1, len(objectives))
    return len(objectives)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(_valid_cells(), st.integers(0, 2 ** 32 - 1))
def test_patience_run_is_the_prefix_the_rule_picks(cell, seed):
    scheme, params = cell
    opts = OptimizerOptions(n_starts=12, rng_seed=seed)
    with mock.patch.object(optimizer_mod, "_PATIENCE", 12):
        full = optimize(scheme, params, opts)
    with mock.patch.object(optimizer_mod, "_PATIENCE", 2):
        run = optimize(scheme, params, opts)
    assert len(full.starts) == 12
    n = len(run.starts)
    # nan objectives compare unequal, their reprs equal
    assert repr(run.starts) == repr(full.starts[:n])
    assert n == _patience_stop([s.objective for s in full.starts], 2)
    feasible = [s.objective for s in run.starts if s.feasible]
    assert run.best_rates.c_s == max(feasible, default=0.0)
    assert run.converged_count == sum(s.converged and s.feasible
                                      for s in run.starts)


def test_leading_infeasible_starts_spend_no_patience(nothing_feasible,
                                                     reference_params,
                                                     monkeypatch):
    # with no feasible start the patience count never begins
    monkeypatch.setattr(optimizer_mod, "_PATIENCE", 2)
    result = optimize(Scheme.FULL_DUPLEX, reference_params,
                      OptimizerOptions(n_starts=8))
    assert len(result.starts) == 8
    _assert_zero_power_optimum(result, Scheme.FULL_DUPLEX, reference_params)
