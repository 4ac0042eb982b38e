"""Multi-start constrained maximization of the per-scheme sum-rate.

Each start draws transmit powers log-uniformly across the feasible decades,
repairs obvious constraint violations in one pass by shrinking the
offending powers, and then runs an SLSQP solve on box-bounded variables
(powers in log10 space).  Every start reaches SLSQP, whether or not its
repaired point is feasible.  The constraints are the rows of
`feasibility.slack_rows` that the variable boxes do not enforce, so the
solver and the feasibility report share one encoding.  The nonsmooth
``min`` term contributed by AN-relayed pairs is handled through an
epigraph auxiliary variable ``t``.  The variables are stated once, in the
table `_Problem.variables` of point arguments and boxes.
The objective and the rows are stated once, in `_Problem._outputs`: a
point's values are `_outputs` at the kernel's rates.  `_outputs` is
affine in the rates and the point arguments, so the exact objective
gradient and constraint Jacobian are one `_kernels.rate_jac` call at the
iterate through maps read off `_outputs` once per instance.
Repair runs on one list of the allocation's values: it checks the clipped
start, takes the violated rows from one kernel call and bisects the power
behind each in place, one kernel call per step.
Repair and the feasibility of every start use `feasibility.DEFAULT_TOL`.

`minimize` drives SLSQP's C routine (scipy's private
``_slsqplib.slsqp``) directly, in the steps scipy's
``minimize(method="SLSQP")`` takes for these problems, so it ends on the
same point after the same iterations with the same status.  With exact
derivatives, scipy's Python wrapper around that routine (a memo check,
copies and conversions on every callback, bound and constraint
standardization on every start) costs more than the routine itself;
`minimize` leaves it out.  The tests run the two side by side, so a
scipy release that changes the routine fails them instead of moving the
results.  The extension is loaded on its own from scipy's ``optimize``
folder when this module is imported: importing it as
``scipy.optimize._slsqplib`` would first run ``scipy/optimize/__init__.py``,
which loads scipy.linalg, linprog and some 560 other modules, most of a
command's start-up time and about 40 MB of resident memory, none of it
used here.

Starts run until five of them in a row (``_PATIENCE``), counted once some
start has ended feasible, fail to raise the best sum-rate by more than 1e-6
relative, or until ``n_starts`` have run.  Each start draws from its own
stream, ``default_rng([seed, index])``, so the starts that run are
exactly a prefix of the ``n_starts`` starts a run without the stopping rule
would make.
The best feasible local maximum over the starts that ran is returned
together with per-start diagnostics; when no start ends feasible, the
zero-power point, which is feasible in every valid cell, is returned
instead.  Results are deterministic for a fixed seed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from . import _kernels
from .feasibility import (DEFAULT_TOL, ConstraintReport, constraints,
                          rho_applicable, slack_rows)
from .model import PowerAllocation, Scheme, SystemParams, require_valid
from .rates import RateBreakdown, rates

_P_START_FLOOR_MW = 1e-3    # lower edge of the log-uniform start range
_LOG_FLOOR = -8.0           # log10 mW lower bound standing in for "off"
_BISECT_ITERS = 40
_REPAIR_MARGIN = 1e-3       # slack (bits/s/Hz) left below repaired boundaries
_MAX_ITERATIONS = 150       # SLSQP iterations per start
_OBJECTIVE_TOL = 1e-9       # SLSQP ftol
_SLSQP_ITERATION_LIMIT = 9  # scipy SLSQP exit status for maxiter reached
_RISE_RTOL = 1e-6           # relative rise of the best that resets patience
_PATIENCE = 5               # starts in a row with no such rise before stopping
# Shrinking the power at the index on the right (`as_tuple` order: p_d,
# p_u) drives the row's violation to zero monotonically (the cross terms
# only help).
_SHRINK_INDEX = {"bh_dl": 0, "rho_lo": 0, "bh_ul": 1, "rho_hi": 1}
_N_PARTS = 7                # `_kernels.rate_parts` outputs
# A point's arguments: `PowerAllocation.as_tuple` order, then the epigraph
# level t.  One that is no variable keeps its value here: no D2D power
# without direct pairs, an even split under fd, no t without relayed pairs.
_FIXED = (0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
_ETA, _T = 5, 6
_LN10 = math.log(10.0)


@dataclass
class OptimizerOptions:
    n_starts: int = 50      # the cap on the starts run
    rng_seed: int = 42
    # Not a setting: every run judges feasibility at `DEFAULT_TOL`.  The
    # name stays because the benchmark's results gate reads it.
    feasibility_tol: ClassVar[float] = DEFAULT_TOL

    def check(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class StartSummary:
    index: int
    objective: float        # nan when the start produced no feasible point
    feasible: bool
    converged: bool
    iterations: int
    status: str


@dataclass
class OptResult:
    scheme: Scheme
    best_alloc: PowerAllocation
    best_rates: RateBreakdown
    best_report: ConstraintReport
    starts: list = field(default_factory=list)
    converged_count: int = 0


def _caps(params: SystemParams):
    """The power caps, in `PowerAllocation.as_tuple` order."""
    return (params.p_an_max, params.p_ue_max, params.p_bh_d_max,
            params.p_an_max, params.p_ue_max)


class _Problem:
    """Variable layout, scaling and point evaluation for one instance.

    Transmit powers are optimized in log10 space: the budgets span many
    decades and the useful operating points (interference-limited links)
    often sit at sub-mW powers where a linear parametrization has no
    gradient resolution.  The log floor of 1e-8 mW (-80 dBm) is far below
    any power that moves a rate, so it stands in for "off".
    """

    def __init__(self, scheme: Scheme, params: SystemParams):
        self.params = params
        scheme_links = require_valid(params, scheme)
        self.kernel = scheme_links.kernel

        # The boxes below enforce the power caps and the time split, and
        # the AN budget too when p_d and p_bh_u are never on at once.
        boxed = {"pwr_ue_ul", "pwr_ue_d2d", "pwr_bn", "eta_lo", "eta_hi"}
        if not scheme_links.shared_budget:
            boxed.add("pwr_an")
        self._rows = [_scaled(slack, params.p_an_max) if label == "pwr_an"
                      else slack
                      for label, slack in slack_rows(scheme, params)
                      if label not in boxed]

        # The layout, read by everything else: (point argument, lower
        # bound, upper bound) of each variable in vector order.  The powers
        # come first, in log10, the D2D one only with direct pairs; then
        # eta when some link is not always on, then t when pairs are relayed.
        self.variables = [(i, _LOG_FLOOR, np.log10(cap))
                          for i, cap in enumerate(_caps(params))
                          if i != 4 or params.k_d2d]
        if scheme_links.time_split:
            self.variables.append((_ETA, 0.0, 1.0))
        if params.k_an:
            # loose upper bound on the per-pair relay rate
            self.variables.append((_T, 0.0, np.log2(
                1.0 + params.l_ue * params.n_t * params.p_an_max
                / params.sigma_n2)))
        _, self.lo, self.hi = (np.array(side) for side in zip(*self.variables))
        self._args = [arg for arg, _, _ in self.variables]
        self._n_log = sum(arg < _ETA for arg in self._args)   # log10 powers
        self._rate_map, self._select, self._point_map = self._jac_maps()

        self._memo_key = None
        self._memo_val = None
        self._memo_point = None
        self._deriv_key = None
        self._deriv_val = None

    # -- variable vector <-> point ---------------------------------------

    def _point(self, x, key):
        """The point arguments at ``x``; ``key`` is ``x.tolist()``."""
        n = self._n_log
        e = list(_FIXED)
        for arg, value in zip(self._args, (10.0 ** x[:n]).tolist() + key[n:]):
            e[arg] = value
        return e

    def to_alloc(self, x) -> PowerAllocation:
        return PowerAllocation(*self._point(x, x.tolist())[:_T])

    def from_alloc(self, alloc: PowerAllocation):
        """The variable vector of ``alloc``; the epigraph level starts at
        the smaller relay rate, the most the rows allow there."""
        e = [*alloc.as_tuple(), 0.0]
        if _T in self._args:
            e[_T] = min(_kernels.rate_parts(self.kernel, *e[:_T])[3:5])
        x = np.array([e[arg] for arg in self._args])
        n = self._n_log
        x[:n] = np.log10(np.maximum(x[:n], 10.0 ** _LOG_FLOOR))
        return x

    # -- evaluation -----------------------------------------------------

    def _outputs(self, parts, e):
        """(negated objective, rows): the SLSQP problem at the kernel's
        ``parts`` and the point arguments ``e``.

        The rows are the handed-over `slack_rows` rows, then the two
        epigraph rows ``relay - t`` if ``t`` is a variable; each is ``>= 0``
        when it holds.
        """
        c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u = parts
        obj = c_d + c_u + c_d2d
        c = (c_d, c_u, c_bh_d, c_bh_u)
        g = [slack(c, e) for slack in self._rows]
        if _T in self._args:
            t = e[_T]
            obj += self.params.k_an * t
            g.append(relay_dl - t)
            g.append(relay_ul - t)
        return -obj, g

    def eval_point(self, x):
        """(negated objective, constraint slack vector >= 0 when feasible).

        The kernel and the rows run on Python floats, whose arithmetic is
        the same IEEE double arithmetic as np.float64's, only cheaper.
        """
        # list equality is np.array_equal's elementwise test on a 1-D
        # array, at a fraction of its cost on this per-call path
        key = x.tolist()
        if key == self._memo_key:
            return self._memo_val
        e = self._point(x, key)
        obj, g = self._outputs(_kernels.rate_parts(self.kernel, *e[:_T]), e)
        value = (obj, np.asarray(g))
        self._memo_key = key
        self._memo_val = value
        self._memo_point = e
        return value

    def _jac_maps(self):
        """(rate map, selection, point map): the fixed maps from the
        kernel's partials and the point arguments to the derivatives.

        `_outputs` is affine in the kernel's parts and the point arguments
        ``e``, so each output's derivative is its part coefficients times
        the kernel's partials at the variables' columns, plus its argument
        coefficients times ``de/dx``.  Every coefficient is read off
        `_outputs` on unit vectors, so the problem is stated once.
        """
        def outputs(parts=(0.0,) * _N_PARTS, e=(0.0,) * len(_FIXED)):
            obj, g = self._outputs(parts, e)
            return np.array([obj, *g])
        base = outputs()
        rate_map = np.array([outputs(parts=unit) - base
                             for unit in np.eye(_N_PARTS).tolist()]).T
        point_map = np.array([outputs(e=unit) - base
                              for unit in np.eye(len(_FIXED)).tolist()]).T
        # the kernel's partials are in `as_tuple` order, with none for t
        select = np.eye(len(_FIXED))[:_T, self._args]
        return rate_map, select, point_map[:, self._args]

    def derivatives(self, x):
        """(objective gradient, constraint Jacobian), exact, from one
        `_kernels.rate_jac` call.

        The kernel's partials are taken with respect to the log10 powers,
        the optimizer's own variables; the point arguments' terms get
        ``d p / d log10 p = p ln 10``.  SLSQP asks for the gradient and
        the Jacobian at the same iterate, mostly where it last asked for
        the values, so the pair is kept for the last point asked for.  The
        two are separate arrays: SLSQP goes wrong when handed views into one.
        """
        key = x.tolist()
        if key == self._deriv_key:
            return self._deriv_val
        e = self._memo_point if key == self._memo_key else self._point(x, key)
        jac = _kernels.rate_jac(self.kernel, *e[:_T])
        de_dx = [e[arg] * _LN10 if arg < _ETA else 1.0 for arg in self._args]
        out = ((self._rate_map @ np.array(jac)) @ self._select
               + self._point_map * de_dx)
        value = (out[0].copy(), out[1:].copy())
        self._deriv_key = key
        self._deriv_val = value
        return value

    def objective(self, x):
        return self.eval_point(x)[0]

    def constraint_vec(self, x):
        return self.eval_point(x)[1]

    def objective_grad(self, x):
        return self.derivatives(x)[0]

    def constraint_jac(self, x):
        return self.derivatives(x)[1]


def _scaled(slack, scale):
    """The AN budget row in units of the budget, the order of the rates."""
    return lambda c, a: slack(c, a) / scale


# -- SLSQP, its C routine called directly ---------------------------------


def _load_slsqplib():
    """scipy's ``_slsqplib`` extension, loaded alone from scipy's
    ``optimize`` folder: scipy's package code does not run, and the module
    is not entered in ``sys.modules``."""
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    folders = [os.path.join(root, "optimize") for root in roots or ()]
    spec = importlib.machinery.PathFinder.find_spec("_slsqplib", folders)
    if spec is None:
        raise ImportError(f"SLSQP extension _slsqplib not found in {folders}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


slsqp = _load_slsqplib().slsqp

# SLSQP's exit modes, worded as scipy words them
_EXIT_MODES = {0: "Optimization terminated successfully",
               2: "More equality constraints than independent variables",
               3: "More than 3*n iterations in LSQ subproblem",
               4: "Inequality constraints incompatible",
               5: "Singular matrix E in LSQ subproblem",
               6: "Singular matrix C in LSQ subproblem",
               7: "Rank-deficient equality constraint subproblem HFTI",
               8: "Positive directional derivative for linesearch",
               9: "Iteration limit reached"}


class SlsqpResult(NamedTuple):
    x: np.ndarray
    nit: int
    status: int     # SLSQP's exit mode
    success: bool
    message: str


def minimize(fun, x0, jac, bounds, constraints) -> SlsqpResult:
    """Minimize ``fun`` from ``x0`` with SLSQP (Kraft 1988) by calling
    its C routine directly.

    ``bounds`` is the pair of arrays ``(lo, hi)``; ``constraints`` is
    ``[{"type": "ineq", "fun": ..., "jac": ...}]``, one block of at least
    one row ``fun(x) >= 0``.  These are the steps of scipy 1.17.1's
    ``minimize(method="SLSQP")`` for callable derivatives, finite bounds,
    no equality rows, ``maxiter=_MAX_ITERATIONS`` and
    ``ftol=_OBJECTIVE_TOL``: ``x0`` is clipped to the boxes, the iterates
    are not.  The callbacks get the solver's own ``x`` and must not keep
    or change it.
    """
    lo, hi = bounds
    (con,) = constraints
    cons_fun, cons_jac = con["fun"], con["jac"]
    x = np.clip(x0, lo, hi)
    fx, g = fun(x), jac(x)
    d = np.array(cons_fun(x), dtype=float)
    m, n = d.size, x.size
    C = np.zeros((m, n), order="F")
    C[:] = cons_jac(x)
    state = {"acc": _OBJECTIVE_TOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0,
             "h1": 0.0, "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0,
             "t0": 0.0, "tol": 10.0 * _OBJECTIVE_TOL, "exact": 0,
             "inconsistent": 0, "reset": 0, "iter": 0,
             "itermax": _MAX_ITERATIONS, "line": 0, "m": m, "meq": 0,
             "mode": 0, "n": n}
    # scipy's worst-case workspace with no equality rows; the multipliers
    # and indices cover the rows, both bounds and an augmented problem
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n
                      + 35 * n + 28)
    mult = np.zeros(m + 2 * n + 2)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    while True:
        slsqp(state, fx, g, C, d, x, mult, lo, hi, buffer, indices)
        mode = state["mode"]
        if mode == 1:       # objective and constraints at the new x
            fx = fun(x)
            d[:] = cons_fun(x)
        elif mode == -1:    # gradient and Jacobian at the new x
            g = jac(x)
            C[:] = cons_jac(x)
        else:
            return SlsqpResult(x, state["iter"], mode, mode == 0,
                               _EXIT_MODES[mode])


# -- start generation and repair ---------------------------------------


def _draw_start(problem: _Problem, rng) -> PowerAllocation:
    """A random start: each power log-uniform between the start floor and
    its cap (at the cap when the cap is below the floor), ``eta``
    uniform; `_Problem.from_alloc` sets ``t``."""
    e = list(_FIXED)
    for arg, lo, hi in problem.variables:
        if arg < _ETA:
            e[arg] = 10.0 ** rng.uniform(
                min(np.log10(_P_START_FLOOR_MW), hi), hi)
        elif arg == _ETA:
            e[arg] = rng.uniform(lo, hi)
    return PowerAllocation(*e[:_T])


def repair_start(scheme: Scheme, params: SystemParams,
                 alloc: PowerAllocation) -> PowerAllocation:
    """Pull a random start toward the feasible set in one pass.

    Repair runs on the allocation's values as one list ``a`` in `as_tuple`
    order.  The powers and ``eta`` are clipped to their boxes and must then
    pass `PowerAllocation.check`, so a negative or NaN power, or a NaN
    ``eta``, raises a ValueError naming it; the AN power pair is rescaled
    onto its budget when the two share it.  One kernel
    call at that point finds the rate rows (backhaul capacity, rate-ratio
    bounds) violated by more than `DEFAULT_TOL`; in `slack_rows` order, the
    power behind each is then bisected toward zero, one kernel call per
    step, until its row holds with ``_REPAIR_MARGIN`` to spare.
    The schemes couple the links through interference, so a later shrink
    may move a row an earlier one cleared; the margin absorbs small moves,
    the start is returned either way, and SLSQP takes it from there.
    """
    scheme_links = require_valid(params, scheme)
    a = [min(p, cap) for p, cap in zip(alloc.as_tuple(), _caps(params))]
    a.append(min(max(alloc.eta, 0.0), 1.0))
    PowerAllocation(*a).check()
    if scheme_links.shared_budget:
        total = a[0] + a[3]
        if total > params.p_an_max:
            f = params.p_an_max / total
            a[0] *= f
            a[3] *= f

    kernel = scheme_links.kernel
    c_d, c_u, _, _, _, c_bh_d, c_bh_u = _kernels.rate_parts(kernel, *a)
    c = (c_d, c_u, c_bh_d, c_bh_u)
    violated = [(_SHRINK_INDEX[label], slack)
                for label, slack in slack_rows(scheme, params)
                if label in _SHRINK_INDEX and -slack(c, a) > DEFAULT_TOL]
    for i, slack in violated:
        base = a[i]
        if base <= 0.0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            a[i] = mid * base
            c_d, c_u, _, _, _, c_bh_d, c_bh_u = _kernels.rate_parts(kernel, *a)
            if slack((c_d, c_u, c_bh_d, c_bh_u), a) < _REPAIR_MARGIN:
                hi = mid
            else:
                lo = mid
        a[i] = lo * base
    return PowerAllocation(*a)


# -- public entry points -------------------------------------------------


def optimize(scheme: Scheme, params: SystemParams,
             opts: OptimizerOptions | None = None) -> OptResult:
    """Maximize the scheme sum-rate over transmit powers (and eta).

    Runs independent SLSQP solves from randomized, repaired starting
    points and returns the best feasible result.  It stops before the next
    start once ``_PATIENCE`` (5) starts in a row have not raised the best
    ``c_s`` by more than 1e-6 relative; an infeasible start counts toward
    that only after some start has ended feasible.  At most
    ``opts.n_starts`` starts run; ``len(result.starts)`` is the number
    that ran.  When
    no start ends on a feasible point, the result is the zero-power point
    (feasible in every valid cell), its rates and its report, with a
    ``converged_count`` of 0; the per-start records show what happened.
    """
    opts = opts or OptimizerOptions()
    opts.check()
    problem = _Problem(scheme, params)   # StructuralError on an invalid cell
    starts = []
    best = None  # (rates, report) of the best feasible start
    stale = 0    # starts since the best last rose by more than _RISE_RTOL

    for index in range(opts.n_starts):
        if stale >= _PATIENCE:
            break
        rng = np.random.default_rng([opts.rng_seed, index])
        raw = _draw_start(problem, rng)
        x0 = problem.from_alloc(repair_start(scheme, params, raw))
        res = minimize(
            problem.objective, x0, jac=problem.objective_grad,
            bounds=(problem.lo, problem.hi),
            constraints=[{"type": "ineq", "fun": problem.constraint_vec,
                          "jac": problem.constraint_jac}])
        x = np.clip(res.x, problem.lo, problem.hi)
        alloc = problem.to_alloc(x)
        report = constraints(scheme, params, alloc)
        # a start that ran out of iterations does not count; any other
        # final point counts if it independently checks out as feasible
        # (solver stalls routinely end exactly on the constrained optimum)
        feasible = report.feasible and res.status != _SLSQP_ITERATION_LIMIT
        objective = float("nan")
        rose = False
        if feasible:
            rb = rates(scheme, params, alloc)
            objective = rb.c_s
            if best is None or objective > best[0].c_s:
                rose = (best is None or objective - best[0].c_s
                        > _RISE_RTOL * best[0].c_s)
                best = (rb, report)
        if best is not None:
            stale = 0 if rose else stale + 1
        converged = bool(res.success)
        starts.append(StartSummary(index, objective, feasible, converged,
                                   int(res.nit), str(res.message)))

    converged_count = sum(1 for s in starts if s.converged and s.feasible)
    if best is None:
        off = PowerAllocation(0.0, 0.0, 0.0, 0.0)
        best = (rates(scheme, params, off),
                constraints(scheme, params, off))

    best_rates, best_report = best
    return OptResult(scheme=scheme, best_alloc=best_rates.alloc,
                     best_rates=best_rates, best_report=best_report,
                     starts=starts, converged_count=converged_count)


def baseline(scheme: Scheme, params: SystemParams):
    """Unoptimized reference: maximum transmit powers and an even split.

    The AN splits its budget evenly between DL and outgoing backhaul when
    the two share it, else runs each at the full budget.  The max-power
    point generally violates the service constraints, so the reported
    user rates are what the cell can actually deliver there: each
    direction is clamped to its backhaul capacity (``min(C_x, C_x^BH)``)
    and the pair is then projected
    into the UL/DL rate-ratio band (excess UL rate is dropped; excess DL
    rate is dropped when the UL side cannot sustain the minimum ratio).
    The returned breakdown carries the clamped components; the report
    carries the raw constraint values at the evaluated point.
    """
    p = list(_caps(params))
    if require_valid(params, scheme).shared_budget:
        p[0] = p[3] = 0.5 * params.p_an_max
    if params.k_d2d == 0:
        p[4] = 0.0
    alloc = PowerAllocation(*p, eta=0.5)
    raw = rates(scheme, params, alloc)
    c_d = min(raw.c_d, raw.c_bh_d)
    c_u = min(raw.c_u, raw.c_bh_u)
    if rho_applicable(params):
        if c_u > params.rho_max * c_d:
            c_u = params.rho_max * c_d
        elif c_u < params.rho_min * c_d:
            c_d = c_u / params.rho_min
    clamped = RateBreakdown(c_d=c_d, c_u=c_u, c_ic=raw.c_ic,
                            c_s=c_d + c_u + raw.c_ic,
                            c_bh_d=raw.c_bh_d, c_bh_u=raw.c_bh_u,
                            scheme=scheme, alloc=alloc)
    report = constraints(scheme, params, alloc)
    return clamped, report
