#!/usr/bin/env python3
"""Regenerate ``fingerprint.json``, the reference results the benchmark checks.

For each library seed (42, the presets' own, and 7, the hold-out) it runs
the full grids the benchmark samples from (``fig4a``, ``fig5a``,
``fig5a_d2d``) and every ``zfval`` check of the zf catalogue, and stores
the best ``c_s`` of every row and every check value.  Run it only on a
commit whose results are the reference:

    python3 perfbench/make_fingerprint.py
"""

import json
import sys
import time
from pathlib import Path

import _paths  # noqa: F401  (puts the checkout's src/ on sys.path)
import workloads as wl
from selfbackhaul.sweep import run_sweep

FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"


def main() -> int:
    out = {"c_s_rel_tol": wl.C_S_REL_TOL, "zf_rel_tol": wl.ZF_REL_TOL,
           "cells": {}, "zf": {}}
    for lib_seed in wl.LIBRARY_SEEDS:
        cells = {}
        for preset in (wl.SI_PRESET,) + wl.PAIRS_PRESETS:
            start = time.perf_counter()
            spec = wl.seeded_spec(preset, lib_seed)
            for row in run_sweep(spec, jobs=wl.PAIRS_JOBS):
                cells[wl.cell_key(preset, row)] = row.c_s
            print(f"seed {lib_seed} {preset}: "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        checks = {}
        for entry in wl.ZF_CHECKS:
            full = entry + (lib_seed,)
            for result in wl.run_zf_check(full):
                checks[wl.zf_key(full, result.label)] = result.empirical
        out["cells"][str(lib_seed)] = cells
        out["zf"][str(lib_seed)] = checks
    FINGERPRINT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {FINGERPRINT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
