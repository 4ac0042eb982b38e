"""Request catalogues of the three workloads and the checks on their results.

A *request* is the unit the closed loop in ``run.py`` sends to the library
and times: one (SI value, scheme) cell for ``si-sweep``, one two-point
``run_sweep(jobs=2)`` batch for ``pairs-sweep-j2``, one ``zfval`` check
call for ``zf-montecarlo``.  Every request is drawn from a finite
catalogue whose results, for both library seeds, are committed in
``fingerprint.json``; the benchmark seed only chooses among them, so any
seed can be checked.

The library receives only the generated specs, cells and check
arguments; nothing here reaches into private library state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from selfbackhaul import zfval
from selfbackhaul.feasibility import constraints
from selfbackhaul.model import PowerAllocation, Scheme, params_from_db
from selfbackhaul.sweep import (CSV_HEADER, emit_csv, load_sweep_spec,
                                preset_path, run_sweep)

WORKLOADS = ("si-sweep", "pairs-sweep-j2", "zf-montecarlo")

# Library seeds (optimizer starts, Monte-Carlo draws): the packaged
# presets' own seed, and a hold-out seed that ``run.py --holdout`` selects
# so that a claim tuned on the first can be re-checked on the second.
PRESET_SEED = 42
HOLDOUT_SEED = 7
LIBRARY_SEEDS = (PRESET_SEED, HOLDOUT_SEED)

# A returned c_s may fall below its reference by this share of the
# reference before the cell counts as failed: the 1e-6 tolerance the
# acceptance suite uses for baseline dominance and SI invariance.
C_S_REL_TOL = 1e-6

# A Monte-Carlo check must reproduce its committed empirical value to
# this relative precision (the draws are seeded; only BLAS rounding
# differs between machines).
ZF_REL_TOL = 1e-9

SI_PRESET = "fig4a"
PAIRS_PRESETS = ("fig5a", "fig5a_d2d")
PAIRS_JOBS = 2
SI_STRATUM = 3          # SI values per stratum: 81 values -> 27 strata
SI_STRATUM_STRIDE = 10  # visits the 27 strata in an interleaved order

# The 40-antenna validation cell of the acceptance tests.
SMALL_DB = dict(n_t=40, n_r=16, m_bh_t=2, m_bh_r=4, d=4, u=4, k_d2d=0,
                k_an=0, noise_dbm=-90, l_ue_db=80, l_ud_db=70, l_bh_db=80,
                p_an_dbm=30, p_ue_dbm=25, p_bh_dbm=40,
                si_cancellation_db=120, rho_min=0.15, rho_max=0.30)

# (name, kind, array scale or Wishart shape, trials).  Batched chunked
# draws (colnorm, wishart, sinr) sit beside per-draw zf_precoder calls
# (exact); scales 1, 2 and 4 multiply every count of SMALL_DB.  Trials
# keep each check between 0.03 and 1.2 s on a 2-CPU Xeon.
ZF_CHECKS = (
    ("colnorm_x1", "colnorm", 1, 4096),
    ("exact_x1", "exact", 1, 100),
    ("wishart_40_20", "wishart", (40, 20), 4096),
    ("sinr_hd_x1", "sinr_hd", 1, 4096),
    ("sinr_rl_x1", "sinr_rl", 1, 1024),
    ("colnorm_x2", "colnorm", 2, 1024),
    ("exact_x2", "exact", 2, 100),
    ("sinr_hd_x2", "sinr_hd", 2, 2048),
    ("wishart_200_16", "wishart", (200, 16), 4096),
    ("sinr_rl_x2", "sinr_rl", 2, 1024),
    ("colnorm_x4", "colnorm", 4, 512),
    ("exact_x4", "exact", 4, 50),
    ("sinr_hd_x4", "sinr_hd", 4, 1024),
)

# Acceptance tolerances of the acceptance suite (criteria 6-8).
COLNORM_TOL = 0.02
EXACT_TOL = 1e-10
WISHART_TOL = 0.01
SINR_HD_DL_TOL = 0.05


@dataclass(frozen=True)
class Request:
    """One unit of closed-loop work and the cells or checks it yields."""

    label: str
    kind: str            # "sweep" or "zf"
    work: int            # cells (sweeps) or channel draws (zf)
    spec: object = None  # SweepSpec for sweeps
    jobs: int = 1
    preset: str = ""
    check: tuple = ()    # one ZF_CHECKS entry for zf


# -- catalogues ------------------------------------------------------------


def seeded_spec(preset: str, lib_seed: int):
    spec = load_sweep_spec(preset_path(preset))
    return replace(spec, options=replace(spec.options, rng_seed=lib_seed))


def si_requests(seed: int, lib_seed: int) -> list:
    """One cell per (stratum, scheme), strata interleaved along the axis.

    Each 3 dB stratum contributes one SI value picked by the seed, so
    every seed covers both crossovers and the costly low-SI cells in the
    same proportion, and any prefix of the order spans the whole axis.
    """
    rng = np.random.default_rng(seed)
    spec = seeded_spec(SI_PRESET, lib_seed)
    strata = [spec.axis[i:i + SI_STRATUM]
              for i in range(0, len(spec.axis), SI_STRATUM)]
    picks = [float(stratum[rng.integers(len(stratum))]) for stratum in strata]
    start = int(rng.integers(len(strata)))
    order = [(start + i * SI_STRATUM_STRIDE) % len(strata)
             for i in range(len(strata))]
    requests = []
    for index in order:
        for k in rng.permutation(len(spec.schemes)):
            scheme = spec.schemes[k]
            cell = replace(spec, axis=[picks[index]], schemes=[scheme])
            requests.append(Request(
                label=f"{SI_PRESET}/{picks[index]:g}/{scheme.value}",
                kind="sweep", work=1, spec=cell, preset=SI_PRESET))
    return requests


def pairs_requests(seed: int, lib_seed: int) -> list:
    """Two grid points per batch, one for each pool worker.

    A batch pairs k with k + 5 pairs; batches alternate relayed (fig5a)
    and direct (fig5a_d2d) routing, so any prefix holds both in equal
    number, and ten batches cover both presets' grids.  The seed orders
    the batches within each routing.
    """
    rng = np.random.default_rng(seed)
    specs = {name: seeded_spec(name, lib_seed) for name in PAIRS_PRESETS}
    half = len(specs[PAIRS_PRESETS[0]].axis) // 2
    orders = {name: rng.permutation(half) for name in PAIRS_PRESETS}
    requests = []
    for i in range(half):
        for name in PAIRS_PRESETS:
            spec, k = specs[name], int(orders[name][i])
            batch = replace(spec, axis=[spec.axis[k], spec.axis[k + half]])
            requests.append(Request(
                label=f"{name}/{batch.axis[0]},{batch.axis[1]}",
                kind="sweep", work=len(batch.axis) * len(spec.schemes),
                spec=batch, jobs=PAIRS_JOBS, preset=name))
    return requests


def zf_requests(seed: int, lib_seed: int) -> list:
    """The catalogue in its fixed order; only the library seed varies it,
    because each draw seed needs its own committed reference values."""
    return [Request(label=entry[0], kind="zf", work=zf_draws(entry),
                    check=entry + (lib_seed,))
            for entry in ZF_CHECKS]


def requests_for(workload: str, seed: int, lib_seed: int) -> list:
    return {"si-sweep": si_requests, "pairs-sweep-j2": pairs_requests,
            "zf-montecarlo": zf_requests}[workload](seed, lib_seed)


# -- the zfval checks ------------------------------------------------------


def _scaled_params(scale: int):
    db = dict(SMALL_DB)
    for key in ("n_t", "n_r", "m_bh_t", "m_bh_r", "d", "u"):
        db[key] = SMALL_DB[key] * scale
    return params_from_db(db)


# Criterion 8 allocation (DL only) for HD; the validate-zf allocation,
# every link on, for the relay.
_HD_ALLOC = PowerAllocation(p_d=1000.0, p_u=0.0, p_bh_d=0.0, p_bh_u=0.0)
_RL_ALLOC = PowerAllocation(p_d=1000.0, p_u=100.0, p_bh_d=500.0,
                            p_bh_u=200.0)
_SINR_STACKS = {"sinr_hd": 2, "sinr_rl": 4}   # ZF stacks drawn per trial


def zf_draws(entry) -> int:
    """Channel realizations one check draws (computed from its shape)."""
    _, kind, _, trials = entry[:4]
    return trials * _SINR_STACKS.get(kind, 1)


def run_zf_check(entry) -> list:
    """Run one catalogue check; returns its CheckResults."""
    _, kind, size, trials, lib_seed = entry
    if kind == "colnorm":
        return [zfval.column_norm_check(40 * size, 4 * size, 16 * size,
                                        trials, lib_seed)]
    if kind == "exact":
        return zfval.exactness_check(40 * size, 4 * size, 16 * size,
                                     trials, lib_seed)
    if kind == "wishart":
        return [zfval.wishart_trace_check(size[0], size[1], trials,
                                          lib_seed)]
    scheme, alloc = ((Scheme.HALF_DUPLEX, _HD_ALLOC) if kind == "sinr_hd"
                     else (Scheme.HYBRID_RELAY, _RL_ALLOC))
    return zfval.empirical_sinr_check(_scaled_params(size), scheme, alloc,
                                      trials, lib_seed)


def _zf_acceptance(kind: str, result) -> bool:
    if kind == "colnorm":
        return abs(result.empirical - 1.0) <= COLNORM_TOL
    if kind == "exact":
        return result.empirical <= EXACT_TOL
    if kind == "wishart":
        return result.rel_error < WISHART_TOL
    if kind == "sinr_hd" and result.label == "dl":
        return result.rel_error < SINR_HD_DL_TOL
    return True   # no acceptance tolerance; the reference value decides


def zf_key(entry, label: str) -> str:
    return f"{entry[0]}|{label}"


def check_zf(entry, results, reference: dict) -> list:
    """(None, message) per problem with one check's results.

    The exactness metrics are solver round-off, checked only against
    their acceptance bound; every other value must match its reference.
    """
    kind = entry[1]
    problems = []
    for result in results:
        key = zf_key(entry, result.label)
        if not _zf_acceptance(kind, result):
            problems.append((None, f"{key}: outside acceptance tolerance "
                                   f"({result.empirical!r})"))
        if kind == "exact":
            continue
        ref = reference.get(key)
        if ref is None:
            problems.append((None, f"{key}: no reference value"))
        elif not math.isclose(result.empirical, ref, rel_tol=ZF_REL_TOL,
                              abs_tol=0.0):
            problems.append((None, f"{key}: {result.empirical!r} moved "
                                   f"off reference {ref!r}"))
    return problems


# -- the sweep cells -------------------------------------------------------


def cell_key(preset: str, row) -> str:
    return f"{cell_id(preset, row)}|{'opt' if row.optimized else 'base'}"


def cell_id(preset: str, row) -> str:
    """The (grid point, scheme) cell a row belongs to."""
    return f"{preset}|{row.axis:g}|{row.scheme}"


def run_sweep_request(request: Request, csv_path) -> list:
    """run_sweep plus emit_csv, the path `selfbackhaul sweep` takes."""
    rows = run_sweep(request.spec, jobs=request.jobs)
    emit_csv(rows, csv_path)
    return rows


def check_sweep(request: Request, rows, reference: dict, csv_text) -> list:
    """(cell id, message) per problem with one sweep request's rows; the
    cell id is None for a problem of the whole request."""
    spec = request.spec
    problems = []
    expected = {(float(v), s.value, opt) for v in spec.axis
                for s in spec.schemes
                for opt in ([False, True] if spec.include_baseline
                            else [True])}
    got = {(row.axis, row.scheme, row.optimized) for row in rows}
    if got != expected:
        problems.append((None, f"{request.label}: rows {sorted(got)} "
                               f"!= expected {sorted(expected)}"))
    lines = csv_text.splitlines()
    if lines[:1] != [CSV_HEADER] or len(lines) != len(rows) + 1:
        problems.append((None, f"{request.label}: CSV has {len(lines)} "
                               f"lines for {len(rows)} rows"))
    for row in rows:
        cell, key = cell_id(request.preset, row), cell_key(request.preset, row)
        ref = reference.get(key)
        if ref is None:
            problems.append((cell, f"{key}: no reference value"))
            continue
        if not row.c_s >= ref - C_S_REL_TOL * abs(ref):
            problems.append((cell, f"{key}: c_s {row.c_s!r} below "
                                   f"reference {ref!r}"))
        if row.optimized:
            report = _feasibility(spec, row)
            if not report.feasible:
                problems.append((cell, f"{key}: returned point infeasible "
                                       f"(max violation "
                                       f"{report.max_violation:.3e})"))
    return problems


def _point_params(spec, value):
    """Cell parameters of one grid point of the two sweep kinds used."""
    db = dict(spec.base_db)
    if spec.kind == "si_cancellation":
        db["si_cancellation_db"] = value
    else:
        relayed = spec.routing == "via_an"
        db["k_an"], db["k_d2d"] = (int(value), 0) if relayed else (0, int(value))
    return params_from_db(db)


def _feasibility(spec, row):
    """Independent ``constraints()`` report on a row's returned point."""
    alloc = PowerAllocation(p_d=row.p_d_mw, p_u=row.p_u_mw,
                            p_bh_d=row.p_bh_d_mw, p_bh_u=row.p_bh_u_mw,
                            p_u_d2d=row.p_u_d2d_mw, eta=row.eta)
    return constraints(Scheme(row.scheme), _point_params(spec, row.axis),
                       alloc, spec.options.feasibility_tol)


def cells_of(request: Request) -> int:
    """Cells a request counts toward attempted/failed (zf: 1 check)."""
    return request.work if request.kind == "sweep" else 1


def failed_cells(request: Request, problems) -> int:
    """Cells of one request that failed, given its (cell, message) list."""
    cells = {cell for cell, _ in problems}
    if None in cells:
        return cells_of(request)
    return len(cells)
