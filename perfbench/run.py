#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the selfbackhaul pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {si-sweep,pairs-sweep-j2,zf-montecarlo,all}
                             --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the error ratio and the environment.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs a fixed request list untraced and then traced, and reports the
per-layer metrics, the self time of every layer and the tracing overhead.
Each run also writes ``perfbench/.out/result-<workload>-trace<0|1>.json``
(environment, per-request latencies, failures); a traced run writes its
spans and per-boundary totals to ``perfbench/.out/spans-<workload>.jsonl``.
``--workload all`` runs each workload in turn.  ``--fingerprint FILE``
replaces the committed reference results (the benchmark's tests plant a
wrong value this way).

Workloads
---------
Each is a closed loop with one client: the next request is sent when the
previous one returns.  The seed picks the inputs from a catalogue whose
results are all in ``fingerprint.json``.  The library runs with seed 42,
the presets' own; ``--holdout`` runs it with the hold-out seed 7, whose
results are committed too, so that a claim made on 42 can be re-checked
on a seed not used while writing it.  (The seed is not mixed into the
default runs: seed 7 makes 15-30% more work on both sweeps.)

si-sweep
    The ``fig4a`` preset (reference cell, ``k_an = 0``, baselines on),
    one request per (SI value, scheme) cell through ``run_sweep`` and
    ``emit_csv``.  The 81-value SI axis is thinned to one seeded value
    per 3 dB stratum, 27 x 3 = 81 cells, visited in an interleaved order.
    Why: it is the paper's headline figure and passes both scheme
    crossovers (88 and 120 dB); it poses 4-5 variable problems without an
    epigraph term; time goes to SLSQP finite-difference derivatives and to
    repair, which dominates the low-SI full-duplex cells; ``zfval`` is idle.
pairs-sweep-j2
    The ``fig5a`` and ``fig5a_d2d`` presets (0-9 relayed or direct pairs,
    2 backhaul streams) through ``run_sweep(jobs=2)``, the user-facing
    ``--jobs 2``.  One request is a batch of two grid points (k and k + 5
    pairs, one per worker, all three schemes); ten batches, alternating
    the routings, cover both grids.  Why: the epigraph variable and the
    D2D power make 6-7 variable problems, where derivatives cost most
    (1 + 4 dim evaluations per iteration); the relay ``min`` term uses the
    optimizer differently from si-sweep, so a gain for ``k_an = 0``
    problems that costs relayed pairs shows here; it is the only workload
    that goes through the process pool.
zf-montecarlo
    The ``zfval`` checks, one request per check: column norm, exactness
    and HD empirical SINR on the 40-antenna acceptance cell and its x2 and
    x4 scalings, relay empirical SINR at x1 and x2, and the Wishart trace
    at 40 and 200 antennas.  Why: batched chunked draws sit beside
    per-draw ``zf_precoder`` calls, and small arrays beside large ones, so
    a chunking change that helps one and costs the other shows; only
    numpy linear algebra runs, so an optimizer change predicts no change
    here and a ``zfval`` change predicts none on the sweeps.

End-to-end metrics (``--trace 0``, every workload)
--------------------------------------------------
``setup_s``         median of 5 fresh interpreters importing the library,
                    building the request list (which loads the presets)
                    and, on pairs-sweep-j2, starting and stopping a
                    2-worker pool.
``work_per_s``      cells per second on the sweeps (``cells_per_s``),
                    channel realizations per second on zf-montecarlo
                    (``draws_per_s``): work of the requests that passed
                    every check over the summed request time.
``request_ms_p50``  median request latency: one cell, one two-point
``request_ms_p90``  batch, one check.  A 35 s run holds 60-75 cells
                    (so about 7 samples lie beyond p90; 35 s keeps 70
                    runs of all three workloads under an hour),
                    17-20 batches or 75-86 checks; the count is
                    printed with the result.
``peak_rss_mb``     peak resident set of the process doing the work (on
                    pairs-sweep-j2 the larger of it and the pool workers).

Failed cells or checks over attempted ones are the error ratio, printed
and carried by ``failed``/``attempted``; it is not a bounded metric,
because it is 0 whenever the program is right.  A cell fails if it
raises, if its returned point fails an independent ``constraints()``
check, or if its ``c_s`` falls more than 1e-6 of the reference below it;
a check fails if it leaves its acceptance tolerance (criteria 6-8) or
moves more than 1e-9 off its reference.  A failure never stops the run.

Per-layer metrics (``--trace 1``) and what they should move
-----------------------------------------------------------
=============  ==================================  =======================
layer          metrics                             should move
=============  ==================================  =======================
sweep          sweep.run_sweep.ms, sweep.self_ms,  setup_s and work_per_s
               sweep.cells, sweep.emit_csv.ms,     on pairs-sweep-j2;
               sweep.csv_bytes,                    nothing on
               sweep.worker_cpu_s,                 zf-montecarlo
               sweep.pool_utilization
model          model.params_from_db.calls/.ms,     setup_s and
               model.validate.calls/.ms,           request_ms_p50 on
               model.self_ms                       si-sweep (small)
optimizer      optimizer.optimize.calls/.ms,       request_ms_p90 on
               optimizer.self_ms,                  si-sweep (repair rules
               optimizer.baseline.ms,              the low-SI FD cells);
               optimizer.repair_start.calls/.ms,   work_per_s on both
               optimizer.starts[_discarded,        sweeps
               _feasible, _converged],
               optimizer.feasible_ratio,
               optimizer.support_ratio
slsqp          slsqp.calls/.ms/.self_ms,           work_per_s and
               slsqp.callback_self_ms,             request_ms_p50, most
               slsqp.iterations,                   on pairs-sweep-j2;
               slsqp.{fun,cons,grad,jac}.calls/ms  nothing on
               slsqp.status_8, slsqp.status_9,     zf-montecarlo
               slsqp.success_ratio
rates,         rates.rates.calls/.ms,              request_ms_p90 on
feasibility    feasibility.constraints.calls/.ms,  si-sweep, via repair
               rates.self_ms, feasibility.self_ms
kernels        kernels.rate_parts.calls/.ms,       work_per_s on both
               kernels.self_ms,                    sweeps
               kernels.evals_per_iteration
zfval, linalg  zfval.<check>.ms, zfval.draws,      work_per_s and
               zfval.self_ms, zfval.computed_bytes peak_rss_mb on
               (computed: draws x rows x antennas  zf-montecarlo;
               x 16 B), linalg.{eigvalsh,inv,      nothing on the sweeps
               solve}.ms, linalg.calls,
               linalg.self_ms
=============  ==================================  =======================

``slsqp.self_ms`` is SLSQP's own time: the ``minimize`` span minus its
callbacks; ``slsqp.callback_self_ms`` is the optimizer code those
callbacks run (finite differences, point evaluation) minus the kernel.
``kernels.evals_per_iteration`` is rate-kernel calls inside ``minimize``
over SLSQP iterations.  The traced pass of pairs-sweep-j2 runs serially
to keep its spans in one process; ``sweep.worker_cpu_s`` and
``sweep.pool_utilization`` (worker CPU over jobs x wall) come from the
untraced pass, which for pairs-sweep-j2 uses the pool.
``trace.coverage`` is the summed self time of the library layers over the
traced wall time; a traced run is correct only if it is at least 0.95.
``overhead.<metric>`` is the traced minus the untraced value of each
end-to-end metric on the same request list (``overhead.setup_s`` is the
time to install the wrappers).

Traced per-call costs against the ROADMAP seed table
----------------------------------------------------
From ``--trace 1 --seconds 35 --seed 4`` on a 2-CPU Xeon (26 si-sweep
cells; 18 pairs-sweep-j2 cells), traced time over calls:

=======================  ====================  ==========================
layer                    ROADMAP (RL, 1 pair)  traced here
=======================  ====================  ==========================
``rate_parts``           2.9 us                3.8 us
``objective_grad``       ~0.19 ms              0.16 ms si, 0.20 ms pairs
``constraint_jac``       ~0.21 ms              0.17 ms si, 0.22 ms pairs
``repair_start``         ~2 ms per start       3.5 ms si, 3.6 ms pairs
``optimize()``           0.4-0.7 s             0.64 s si, 0.72 s pairs
evals per iteration      ~27                   18.5 si, 22.5 pairs
=======================  ====================  ==========================

No gap reaches 2x.  The kernel and repair figures run high because each
traced evaluation crosses four wrapped boundaries (constraints, rates,
validate, kernel), a few tenths of a microsecond each on a 10-15 us
evaluation, and because si-sweep includes the low-SI cells where starts
run all 12 repair passes before being discarded (60 of 1300 starts);
repair is 27% of ``optimize()`` here against the ROADMAP's ~20%.  Fewer
evaluations per iteration follow from fewer variables: 1 + 4 dim is 17-21
for the 4-5 variable si-sweep problems and 25 for six variables, less the
repeats ``eval_point`` serves from its one-entry memo.  ``validate`` runs
on every ``rates()`` call: 163k calls, 3% of the optimizer's time.
"""

from __future__ import annotations

import _paths  # noqa: F401  (src/ on sys.path, BLAS threads pinned)

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / ".out"
FINGERPRINT = HERE / "fingerprint.json"
SETUP_REPEATS = 5
MIN_COVERAGE = 0.95

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "sweep.run_sweep.ms": "ms", "sweep.self_ms": "ms",
    "sweep.cells": "count", "sweep.emit_csv.ms": "ms",
    "sweep.csv_bytes": "B", "sweep.worker_cpu_s": "s",
    "sweep.pool_utilization": "ratio",
    "model.params_from_db.calls": "count", "model.params_from_db.ms": "ms",
    "model.validate.calls": "count", "model.validate.ms": "ms",
    "model.self_ms": "ms",
    "optimizer.optimize.calls": "count", "optimizer.optimize.ms": "ms",
    "optimizer.self_ms": "ms", "optimizer.baseline.ms": "ms",
    "optimizer.repair_start.calls": "count",
    "optimizer.repair_start.ms": "ms", "optimizer.starts": "count",
    "optimizer.starts_discarded": "count",
    "optimizer.starts_feasible": "count",
    "optimizer.starts_converged": "count",
    "optimizer.feasible_ratio": "ratio", "optimizer.support_ratio": "ratio",
    "slsqp.calls": "count", "slsqp.ms": "ms", "slsqp.self_ms": "ms",
    "slsqp.callback_self_ms": "ms", "slsqp.iterations": "count",
    "slsqp.fun.calls": "count", "slsqp.fun.ms": "ms",
    "slsqp.cons.calls": "count", "slsqp.cons.ms": "ms",
    "slsqp.grad.calls": "count", "slsqp.grad.ms": "ms",
    "slsqp.jac.calls": "count", "slsqp.jac.ms": "ms",
    "slsqp.status_8": "count", "slsqp.status_9": "count",
    "slsqp.success_ratio": "ratio",
    "rates.rates.calls": "count", "rates.rates.ms": "ms",
    "rates.self_ms": "ms",
    "feasibility.constraints.calls": "count",
    "feasibility.constraints.ms": "ms", "feasibility.self_ms": "ms",
    "kernels.rate_parts.calls": "count", "kernels.rate_parts.ms": "ms",
    "kernels.self_ms": "ms", "kernels.evals_per_iteration": "count",
    "zfval.column_norm_check.ms": "ms", "zfval.wishart_trace_check.ms": "ms",
    "zfval.exactness_check.ms": "ms", "zfval.empirical_sinr_check.ms": "ms",
    "zfval.draws": "count", "zfval.self_ms": "ms",
    "zfval.computed_bytes": "B",
    "linalg.eigvalsh.ms": "ms", "linalg.inv.ms": "ms",
    "linalg.solve.ms": "ms", "linalg.calls": "count", "linalg.self_ms": "ms",
    "bench.self_ms": "ms", "trace.wall_ms": "ms", "trace.coverage": "ratio",
    "trace.requests": "count",
    "overhead.setup_s": "s", "overhead.work_per_s": "1/s",
    "overhead.request_ms_p50": "ms", "overhead.request_ms_p90": "ms",
    "overhead.peak_rss_mb": "MB",
}

# Seconds one request of the traced protocol costs over all its passes
# (untraced, traced and, on pairs-sweep-j2, the pooled pass), measured on
# a 2-CPU Xeon; sizes the fixed request list of a traced run.
TRACED_REQUEST_S = {"si-sweep": 1.3, "pairs-sweep-j2": 10.0,
                    "zf-montecarlo": 1.0}

# Fresh-interpreter set-up of a workload, timed inside the child: import
# the library, build the request list (loading the presets) and, for the
# pooled workload, start and stop the worker pool once.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.requests_for(sys.argv[3], 0, workloads.PRESET_SEED)
if sys.argv[3] == "pairs-sweep-j2":
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workloads.PAIRS_JOBS) as pool:
        list(pool.map(abs, range(workloads.PAIRS_JOBS)))
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", type=Path, default=FINGERPRINT)
    parser.add_argument("--holdout", action="store_true",
                        help=f"run the library with the hold-out seed "
                             f"{wl.HOLDOUT_SEED} instead of {wl.PRESET_SEED}")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment(workload: str, load_before) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    jobs = wl.PAIRS_JOBS if workload == "pairs-sweep-j2" else 1
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "worker_processes": jobs,
        "thread_policy": (
            f"{'/'.join(_paths.BLAS_ENV)}={_paths.BLAS_THREADS} set before "
            f"numpy is imported and inherited by pool workers: {jobs} "
            f"worker process(es) x {threads} BLAS thread(s) = "
            f"{jobs * (threads or 1)} <= nproc {nproc}: "
            f"{jobs * (threads or 1) <= (nproc or 1)}"),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


# -- set-up ------------------------------------------------------------------


def measure_setup(workload: str) -> list:
    """Set-up times (s) of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(_paths.SRC), str(HERE),
             workload], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- the closed loop ---------------------------------------------------------


class Outcome:
    __slots__ = ("request", "seconds", "output", "csv_text", "error",
                 "problems")

    def __init__(self, request, seconds, output, csv_text, error):
        self.request = request
        self.seconds = seconds
        self.output = output
        self.csv_text = csv_text
        self.error = error
        self.problems = []


def _execute(request, csv_path):
    if request.kind == "zf":
        return wl.run_zf_check(request.check), None
    rows = wl.run_sweep_request(request, csv_path)
    return rows, csv_path.read_text(encoding="utf-8")


def closed_loop(requests, csv_path, *, seconds=None, count=None,
                tracer=None) -> tuple:
    """Send requests one after another until ``seconds`` pass or
    ``count`` have been sent; returns (outcomes, wall seconds)."""
    outcomes = []
    start = perf_counter()
    index = 0
    while (index < count if count is not None
           else perf_counter() - start < seconds):
        request = requests[index % len(requests)]
        index += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                output, csv_text = _execute(request, csv_path)
            else:
                output, csv_text = tracer.call("bench.request", _execute,
                                               request, csv_path)
            error = None
        except Exception:  # a failed request is counted, never fatal
            output, csv_text, error = None, None, traceback.format_exc()
        outcomes.append(Outcome(request, perf_counter() - t0, output,
                                csv_text, error))
    return outcomes, perf_counter() - start


def check_outcomes(outcomes, reference) -> None:
    """Fill ``problems`` of every outcome (runs outside any timing)."""
    for out in outcomes:
        request = out.request
        if out.error is not None:
            out.problems = [(None, f"{request.label}: raised\n{out.error}")]
        elif request.kind == "zf":
            out.problems = wl.check_zf(request.check, out.output,
                                       reference["zf"])
        else:
            out.problems = wl.check_sweep(request, out.output,
                                          reference["cells"], out.csv_text)


def _quantiles(values):
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def loop_metrics(outcomes) -> dict:
    latencies = [out.seconds for out in outcomes]
    good_work = sum(out.request.work for out in outcomes if not out.problems)
    p50, p90 = _quantiles(latencies)
    return {"work_per_s": good_work / sum(latencies),
            "request_ms_p50": 1e3 * p50, "request_ms_p90": 1e3 * p90,
            "requests": len(outcomes)}


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- untraced and traced runs ------------------------------------------------


def untraced_run(workload, requests, seconds, reference) -> dict:
    csv_path = OUT_DIR / f"{workload}.csv"
    outcomes, _ = closed_loop(requests, csv_path, seconds=seconds)
    pooled = workload == "pairs-sweep-j2"
    rss = peak_rss_mb(with_children=pooled)
    check_outcomes(outcomes, reference)
    metrics = loop_metrics(outcomes)
    metrics["peak_rss_mb"] = rss
    return {"outcomes": outcomes, "metrics": metrics}


def _usage_pass(workload, requests, csv_path):
    """Untraced pass that also reads the sweep workers' CPU time."""
    pooled = workload == "pairs-sweep-j2"
    who = resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF
    cpu0 = _cpu_seconds(who)
    outcomes, wall = closed_loop(requests, csv_path, count=len(requests))
    cpu = _cpu_seconds(who) - cpu0
    jobs = wl.PAIRS_JOBS if pooled else 1
    sweeping = workload != "zf-montecarlo"
    return outcomes, {"sweep.worker_cpu_s": cpu if sweeping else 0.0,
                      "sweep.pool_utilization":
                          cpu / (jobs * wall) if sweeping else 0.0}


def traced_run(workload, requests, seconds, reference) -> dict:
    count = max(1, int(seconds / TRACED_REQUEST_S[workload]))
    fixed = [requests[i % len(requests)] for i in range(count)]
    csv_path = OUT_DIR / f"{workload}.csv"
    outcomes, usage = _usage_pass(workload, fixed, csv_path)
    if workload == "pairs-sweep-j2":
        # the comparison pass runs serially, like the traced one
        fixed = [replace(r, jobs=1) for r in fixed]
        plain, _ = closed_loop(fixed, csv_path, count=count)
        outcomes += plain
    else:
        plain = outcomes
    rss_plain = peak_rss_mb(with_children=False)

    t0 = perf_counter()
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        install_s = perf_counter() - t0
        traced, wall = closed_loop(fixed, csv_path, count=count,
                                   tracer=tracer)
    rss_traced = peak_rss_mb(with_children=False)
    outcomes += traced
    check_outcomes(outcomes, reference)

    metrics = layer_metrics(tracer, wall, traced)
    metrics.update(usage)
    before, after = loop_metrics(plain), loop_metrics(traced)
    for name in ("work_per_s", "request_ms_p50", "request_ms_p90"):
        metrics[f"overhead.{name}"] = after[name] - before[name]
    metrics["overhead.setup_s"] = install_s
    metrics["overhead.peak_rss_mb"] = rss_traced - rss_plain
    _write_spans(workload, tracer)
    return {"outcomes": outcomes, "metrics": metrics,
            "coverage_ok": metrics["trace.coverage"] >= MIN_COVERAGE}


def layer_metrics(t: tr.Tracer, wall: float, traced) -> dict:
    c, k = t.calls, t.counts
    m = {
        "sweep.run_sweep.ms": t.ms("sweep.run_sweep"),
        "sweep.self_ms": t.layer_self_ms("sweep"),
        "sweep.cells": sum(o.request.work for o in traced
                           if o.request.kind == "sweep"),
        "sweep.emit_csv.ms": t.ms("sweep.emit_csv"),
        "sweep.csv_bytes": sum(len(o.csv_text.encode()) for o in traced
                               if o.csv_text),
        "model.params_from_db.calls": c["model.params_from_db"],
        "model.params_from_db.ms": t.ms("model.params_from_db"),
        "model.validate.calls": c["model.validate"],
        "model.validate.ms": t.ms("model.validate"),
        "model.self_ms": t.layer_self_ms("model"),
        "optimizer.optimize.calls": c["optimizer.optimize"],
        "optimizer.optimize.ms": t.ms("optimizer.optimize"),
        "optimizer.self_ms": t.layer_self_ms("optimizer"),
        "optimizer.baseline.ms": t.ms("optimizer.baseline"),
        "optimizer.repair_start.calls": c["optimizer.repair_start"],
        "optimizer.repair_start.ms": t.ms("optimizer.repair_start"),
        "slsqp.calls": c["slsqp.minimize"],
        "slsqp.ms": t.ms("slsqp.minimize"),
        "slsqp.self_ms": t.layer_self_ms("slsqp"),
        "slsqp.callback_self_ms": t.layer_self_ms("slsqp.callback"),
        "slsqp.iterations": k["slsqp.iterations"],
        "slsqp.status_8": k["slsqp.status_8"],
        "slsqp.status_9": k["slsqp.status_9"],
        "slsqp.success_ratio": _ratio(k["slsqp.success"],
                                      c["slsqp.minimize"]),
        "rates.rates.calls": c["rates.rates"],
        "rates.rates.ms": t.ms("rates.rates"),
        "rates.self_ms": t.layer_self_ms("rates"),
        "feasibility.constraints.calls": c["feasibility.constraints"],
        "feasibility.constraints.ms": t.ms("feasibility.constraints"),
        "feasibility.self_ms": t.layer_self_ms("feasibility"),
        "kernels.rate_parts.calls": c["kernels.rate_parts"],
        "kernels.rate_parts.ms": t.ms("kernels.rate_parts"),
        "kernels.self_ms": t.layer_self_ms("kernels"),
        "kernels.evals_per_iteration": _ratio(
            k["kernels.rate_parts.in_slsqp"], k["slsqp.iterations"]),
        "zfval.draws": k["zfval.draws"],
        "zfval.self_ms": t.layer_self_ms("zfval"),
        "zfval.computed_bytes": k["zfval.computed_bytes"],
        "linalg.calls": sum(c[n] for n in tr.LAYERS["linalg"]),
        "linalg.self_ms": t.layer_self_ms("linalg"),
        "bench.self_ms": t.layer_self_ms("bench"),
        "trace.wall_ms": 1e3 * wall,
        "trace.requests": len(traced),
    }
    for name in ("fun", "cons", "grad", "jac"):
        m[f"slsqp.{name}.calls"] = c[f"slsqp.{name}"]
        m[f"slsqp.{name}.ms"] = t.ms(f"slsqp.{name}")
    for name in tr.LAYERS["zfval"][:4] + tr.LAYERS["linalg"]:
        m[f"{name}.ms"] = t.ms(name)
    for name in ("starts", "starts_discarded", "starts_feasible",
                 "starts_converged"):
        m[f"optimizer.{name}"] = k[f"optimizer.{name}"]
    m["optimizer.feasible_ratio"] = _ratio(k["optimizer.starts_feasible"],
                                           k["optimizer.starts"])
    m["optimizer.support_ratio"] = _ratio(k["optimizer.starts_support"],
                                          k["optimizer.starts_feasible"])
    library = sum(t.layer_self_ms(layer) for layer in tr.LAYERS
                  if layer != "bench")
    m["trace.coverage"] = library / (1e3 * wall)
    return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _write_spans(workload, tracer) -> None:
    path = OUT_DIR / f"spans-{workload}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "boundaries": {name: {"calls": tracer.calls[name],
                                  "total_ns": tracer.total_ns[name],
                                  "self_ns": tracer.self_ns[name]}
                           for name in sorted(tracer.calls)},
            "counts": dict(sorted(tracer.counts.items()))}) + "\n")
        for span_id, parent, name, start, duration in tracer.spans:
            handle.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "duration_ns": duration}) + "\n")


# -- entry points ------------------------------------------------------------


def load_reference(path: Path, lib_seed: int) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {"cells": data["cells"][str(lib_seed)],
            "zf": data["zf"][str(lib_seed)]}


def run_one(args) -> int:
    load_before = os.getloadavg()
    steal_before = steal_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    lib_seed = wl.HOLDOUT_SEED if args.holdout else wl.PRESET_SEED
    reference = load_reference(args.fingerprint, lib_seed)
    requests = wl.requests_for(args.workload, args.seed, lib_seed)
    run = (traced_run if args.trace else untraced_run)(
        args.workload, requests, args.seconds, reference)
    setup = measure_setup(args.workload)

    outcomes = run["outcomes"]
    attempted = sum(wl.cells_of(o.request) for o in outcomes)
    failed = sum(wl.failed_cells(o.request, o.problems) for o in outcomes)
    problems = [message for o in outcomes for _, message in o.problems]
    if args.trace:
        names = PER_LAYER
        values = run["metrics"]
        if not run["coverage_ok"]:
            problems.append(f"trace.coverage {values['trace.coverage']:.3f} "
                            f"< {MIN_COVERAGE}")
    else:
        names = END_TO_END
        values = dict(run["metrics"], setup_s=statistics.median(setup))
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items()}
    correct = not problems

    env = environment(args.workload, load_before)
    env["steal_s"] = steal_seconds() - steal_before
    detail = {"workload": args.workload, "seed": args.seed,
              "library_seed": lib_seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_s_samples": setup,
              "requests": len(outcomes), "error_ratio": failed / attempted,
              "latency_s": [[o.request.label, o.seconds] for o in outcomes],
              "problems": problems, "metrics": metrics}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} "
          f"(library seed {detail['library_seed']}), {len(outcomes)} "
          f"requests, error_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--fingerprint",
             str(args.fingerprint)] + (["--holdout"] if args.holdout else []),
            capture_output=True, text=True, timeout=900, check=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
