"""The constraint set of the sum-rate maximization, written once.

`slack_rows` lists every constraint of one (scheme, params) instance as a
labelled slack, ``>= 0`` when the constraint holds.  The optimizer hands
SLSQP the rows its variable boxes do not enforce; `constraints` reports
the negated slack of every row, so a report value is ``<= 0`` when
satisfied and a report is feasible when the largest value does not exceed
the tolerance.  Labels are emitted in a fixed order:

    bh_dl, bh_ul, pwr_an, pwr_ue_ul, pwr_ue_d2d, pwr_bn,
    rho_lo, rho_hi, eta_lo, eta_hi

Constraints that do not apply to a configuration are omitted: the D2D
power cap when there are no direct pairs, the rate-ratio pair when either
link carries no out-of-cell users, and the eta bounds when `model.links`
finds no time split; it also says whether ``p_d + p_bh_u`` or the larger
of the two must fit the AN budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import PowerAllocation, Scheme, SystemParams, links
from .rates import rates

DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintReport:
    values: tuple          # ordered (label, value) pairs, feasible iff <= tol
    max_violation: float
    feasible: bool
    tol: float

    def value(self, label: str) -> float:
        for name, val in self.values:
            if name == label:
                return val
        raise KeyError(label)

    def labels(self):
        return [name for name, _ in self.values]


def rho_applicable(params: SystemParams) -> bool:
    """True when both links carry out-of-cell users, so the UL/DL
    rate-ratio band applies."""
    return (params.d - params.k_d2d - params.k_an > 0
            and params.u - params.k_d2d - params.k_an > 0)


@lru_cache(maxsize=64)
def slack_rows(scheme: Scheme, params: SystemParams) -> tuple:
    """``(label, slack)`` for every constraint of the instance, in order.

    ``slack(c, a)`` takes the rates ``c = (c_d, c_u, c_bh_d, c_bh_u)`` and
    the allocation ``a = (p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta)`` and is
    ``>= 0`` when the constraint holds.  The rows depend only on the
    instance, so they are built once per instance rather than on each of
    the many evaluations that repair and the solver make.
    """
    scheme_links = links(scheme, params)
    p_an, p_ue, p_bn = params.p_an_max, params.p_ue_max, params.p_bh_d_max
    rows = [("bh_dl", lambda c, a: c[2] - c[0]),
            ("bh_ul", lambda c, a: c[3] - c[1])]
    if scheme_links.shared_budget:
        rows.append(("pwr_an", lambda c, a: p_an - a[0] - a[3]))
    else:
        rows.append(("pwr_an", lambda c, a: p_an - max(a[0], a[3])))
    rows.append(("pwr_ue_ul", lambda c, a: p_ue - a[1]))
    if params.k_d2d > 0:
        rows.append(("pwr_ue_d2d", lambda c, a: p_ue - a[4]))
    rows.append(("pwr_bn", lambda c, a: p_bn - a[2]))
    if rho_applicable(params):
        rho_min, rho_max = params.rho_min, params.rho_max
        rows.append(("rho_lo", lambda c, a: c[1] - rho_min * c[0]))
        rows.append(("rho_hi", lambda c, a: rho_max * c[0] - c[1]))
    if scheme_links.time_split:
        rows.append(("eta_lo", lambda c, a: a[5]))
        rows.append(("eta_hi", lambda c, a: 1.0 - a[5]))
    return tuple(rows)


def constraints(scheme: Scheme, params: SystemParams, alloc: PowerAllocation,
                tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Evaluate the full constraint vector for one allocation."""
    rb = rates(scheme, params, alloc)
    c = (rb.c_d, rb.c_u, rb.c_bh_d, rb.c_bh_u)
    a = alloc.as_tuple()
    entries = tuple([(label, -slack(c, a))
                     for label, slack in slack_rows(scheme, params)])
    max_violation = float(max(value for _, value in entries))
    return ConstraintReport(values=entries,
                            max_violation=max_violation,
                            feasible=bool(max_violation <= tol),
                            tol=tol)
