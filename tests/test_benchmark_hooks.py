"""The library attributes that the benchmark's layer tracer patches.

`perfbench/tracer.py` times each layer by swapping module attributes
(`model.validate`, `optimizer.repair_start`, `zfval._complex_rows`, ...)
for wrappers.  A refactor that drops or renames one of them breaks the
traced benchmark; this test makes it fail the library's own suite too.
"""

import importlib
from pathlib import Path

from selfbackhaul import Scheme, model, sweep

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
