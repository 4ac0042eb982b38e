"""What the benchmark relies on in the library.

`perfbench/tracer.py` times each layer by swapping module attributes
(`model.validate`, `optimizer.repair_start`, `zfval._complex_rows`, ...)
for wrappers, and `perfbench/workloads.py` checks every result against
the committed `perfbench/fingerprint.json`.  A refactor that drops or
renames a hooked attribute, or moves an optimized result, breaks the
benchmark; these tests make it fail the library's own suite too.
"""

import importlib
import json
from pathlib import Path

from selfbackhaul import Scheme, model, optimizer, sweep

from conftest import make_params

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    validate = model.validate
    with tracer.instrument(tracer.Tracer()) as traced:
        assert sweep.validate(make_params(), Scheme.HALF_DUPLEX) == []
    assert traced.calls["model.validate"] == 1
    assert model.validate is validate and sweep.validate is validate


def test_optimize_runs_every_start_through_the_hooked_slsqp(monkeypatch):
    # the tracer times SLSQP by swapping `optimizer.minimize`, so
    # `optimize` must look `minimize` up when it calls it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    with tracer.instrument(tracer.Tracer()) as traced:
        result = optimizer.optimize(Scheme.FULL_DUPLEX, make_params())
    assert traced.calls["slsqp.minimize"] == len(result.starts)
    for name in ("slsqp.fun", "slsqp.cons", "slsqp.grad", "slsqp.jac"):
        assert traced.calls[name] > 0, name


def test_first_sweep_requests_pass_the_results_gate(monkeypatch, tmp_path):
    # three si-sweep cells and one pairs-sweep-j2 batch (two pool workers)
    # of bench seed 1, checked as the benchmark checks them: each c_s
    # against the fingerprint at library seed 42, each optimized point by
    # an independent `constraints()` report at the options' tolerance
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    fingerprint = json.loads(
        (PERFBENCH / "fingerprint.json").read_text(encoding="utf-8"))
    reference = fingerprint["cells"][str(wl.PRESET_SEED)]
    requests = (wl.si_requests(1, wl.PRESET_SEED)[:3]
                + wl.pairs_requests(1, wl.PRESET_SEED)[:1])
    assert [r.jobs for r in requests] == [1, 1, 1, wl.PAIRS_JOBS]
    csv_path = tmp_path / "request.csv"
    for request in requests:
        rows = wl.run_sweep_request(request, csv_path)
        csv_text = csv_path.read_text(encoding="utf-8")
        assert wl.check_sweep(request, rows, reference, csv_text) == [], (
            request.label)
