"""Tests of the benchmark itself (not collected by the library's suite).

Run:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts made at layer boundaries; a traced run must repeat them exactly.
COUNT_METRICS = (
    "sweep.cells", "model.params_from_db.calls", "model.validate.calls",
    "optimizer.optimize.calls", "optimizer.repair_start.calls",
    "optimizer.starts", "optimizer.starts_discarded",
    "optimizer.starts_feasible", "optimizer.starts_converged",
    "slsqp.calls", "slsqp.iterations", "slsqp.fun.calls",
    "slsqp.cons.calls", "slsqp.grad.calls", "slsqp.jac.calls",
    "slsqp.status_8", "slsqp.status_9", "rates.rates.calls",
    "feasibility.constraints.calls", "kernels.rate_parts.calls",
    "zfval.draws", "zfval.computed_bytes", "linalg.calls",
)


def bench(*args, cwd=ROOT, check=True):
    done = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if check:
        assert done.returncode == 0, done.stderr
    return done


def result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    seconds = run.TRACED_REQUEST_S[workload]   # one traced request
    runs = [result(bench("--workload", workload, "--seed", 3,
                         "--seconds", seconds, "--trace", 1))
            for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
    first, second = ({name: res["metrics"][name]["value"]
                      for name in COUNT_METRICS} for res in runs)
    assert first == second
    if workload == "zf-montecarlo":
        # the draw count computed from each check's shape matches the
        # draws the traced run counted
        requests = wl.requests_for(workload, 3, wl.PRESET_SEED)
        assert first["zfval.draws"] == requests[0].work
    else:
        assert first["slsqp.iterations"] > 0
        assert first["kernels.rate_parts.calls"] > 0


def _planted(tmp_path, workload, seed):
    data = json.loads(run.FINGERPRINT.read_text(encoding="utf-8"))
    first = wl.requests_for(workload, seed, wl.PRESET_SEED)[0]
    seed_key = str(wl.PRESET_SEED)
    if workload == "zf-montecarlo":
        key = wl.zf_key(first.check, "precoder_column_norm")
        data["zf"][seed_key][key] *= 1.001
    else:
        spec = first.spec
        key = (f"{first.preset}|{float(spec.axis[0]):g}|"
               f"{spec.schemes[0].value}|opt")
        data["cells"][seed_key][key] += 0.01
    path = tmp_path / "fingerprint.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_planted_wrong_reference_counts_as_failure(tmp_path, workload):
    path = _planted(tmp_path, workload, seed=5)
    res = result(bench("--workload", workload, "--seed", 5, "--seconds", 0.1,
                       "--fingerprint", path))
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_holdout_seed_matches_its_reference():
    for workload in wl.WORKLOADS:
        res = result(bench("--workload", workload, "--seed", 2,
                           "--seconds", 0.1, "--holdout"))
        assert res["correct"] and res["failed"] == 0, workload


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_untraced_result_line():
    res = result(bench("--workload", "si-sweep", "--seed", 1,
                       "--seconds", 0.1))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = bench("--workload", "si-sweep", "--seed", 1, "--seconds", 1,
                 cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
