"""Sweep harness, CSV contract and the command-line interface."""

import math
import re

import pytest

from selfbackhaul import cli, sweep
from selfbackhaul.model import ConfigError, Scheme, params_from_db
from selfbackhaul.optimizer import OptimizerOptions, optimize
from selfbackhaul.rates import rates
from selfbackhaul.model import PowerAllocation
from selfbackhaul.sweep import (CSV_HEADER, SweepRow, SweepSpec, emit_csv,
                                load_sweep_spec, preset_path, run_sweep)

from conftest import REFERENCE_DB

FAST = OptimizerOptions(n_starts=6, rng_seed=42)


def small_spec(**kwargs):
    defaults = dict(kind="si_cancellation", axis=[80.0, 120.0],
                    base_db=dict(REFERENCE_DB), schemes=[Scheme.HALF_DUPLEX],
                    include_baseline=True, options=FAST)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ConfigError, match="kind"):
        small_spec(kind="nope").check()
    with pytest.raises(ConfigError, match="axis must be non-empty"):
        small_spec(axis=[]).check()
    with pytest.raises(ConfigError, match="unknown routing 'relay'"):
        small_spec(routing="relay").check()
    with pytest.raises(ConfigError, match="at least one scheme"):
        small_spec(schemes=[]).check()
    with pytest.raises(ConfigError, match="increasing"):
        small_spec(axis=[80.0, 80.0]).check()
    with pytest.raises(ConfigError, match="min"):
        small_spec(kind="intra_cell_pairs", axis=[0, 11]).check()
    with pytest.raises(ConfigError, match="missing configuration keys: n_r"):
        small_spec(kind="intra_cell_pairs", axis=[0, 1],
                   base_db={"n_t": 200}).check()
    # a spec built in code gets the whole-number rule a spec file gets
    with pytest.raises(ConfigError, match="axis must be an integer, got 2.5"):
        small_spec(kind="backhaul_streams", axis=[2.5]).check()
    with pytest.raises(ConfigError, match="axis_param"):
        small_spec(kind="custom_grid").check()
    # an axis_param would be ignored by every other kind
    with pytest.raises(ConfigError,
                       match="axis_param applies to custom_grid only, "
                             "not 'si_cancellation'"):
        small_spec(axis_param="n_t").check()
    # a repeated scheme would write its rows twice
    with pytest.raises(ConfigError, match="scheme 'hd' is listed twice"):
        small_spec(schemes=[Scheme.HALF_DUPLEX, Scheme.FULL_DUPLEX,
                            Scheme.HALF_DUPLEX]).check()
    with pytest.raises(ValueError, match="rng_seed"):
        small_spec(options=OptimizerOptions(rng_seed=-3)).check()


def test_single_row_csv(tmp_path):
    row = SweepRow(axis=120.0, scheme="hd", optimized=True, clamped=False,
                   c_d=99.5, c_u=29.9, c_ic=0.0, c_s=129.4, c_bh_d=99.5,
                   c_bh_u=29.9, p_d_mw=998.0, p_u_mw=0.157, p_bh_d_mw=1e4,
                   p_bh_u_mw=1.39, p_u_d2d_mw=0.0, eta=0.57, converged=5)
    out = tmp_path / "one.csv"
    emit_csv([row], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("120,hd,true,false,99.5,29.9,0,129.4,")


def test_csv_significant_digits(tmp_path):
    row = SweepRow(axis=1.0, scheme="fd", optimized=True, clamped=False,
                   c_d=123.456789123456, c_u=0.0, c_ic=0.0,
                   c_s=123.456789123456, c_bh_d=0.0, c_bh_u=0.0,
                   p_d_mw=0.000123456789123, p_u_mw=0.0, p_bh_d_mw=0.0,
                   p_bh_u_mw=0.0, p_u_d2d_mw=0.0, eta=0.5, converged=1)
    out = tmp_path / "digits.csv"
    emit_csv([row], out)
    line = out.read_text(encoding="utf-8").splitlines()[1]
    assert "123.456789" in line            # 9 significant digits
    assert "0.000123456789" in line


def test_emit_csv_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv")


@pytest.fixture(scope="module")
def tiny_sweep_rows():
    spec = small_spec(schemes=[Scheme.FULL_DUPLEX, Scheme.HALF_DUPLEX])
    return spec, run_sweep(spec)


def test_sweep_row_inventory(tiny_sweep_rows):
    spec, rows = tiny_sweep_rows
    assert len(rows) == len(spec.axis) * 2 * 2   # schemes x (baseline, opt)
    keys = [(r.axis, r.scheme, r.optimized) for r in rows]
    assert keys == sorted(keys)


def test_fd_rows_keep_convention_eta(tiny_sweep_rows):
    _, rows = tiny_sweep_rows
    for row in rows:
        if row.scheme == "fd":
            assert row.eta == 0.5


def test_sweep_determinism_byte_identical(tmp_path, tiny_sweep_rows):
    spec, rows = tiny_sweep_rows
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(rows, first)
    emit_csv(run_sweep(small_spec(
        schemes=[Scheme.FULL_DUPLEX, Scheme.HALF_DUPLEX])), second)
    assert first.read_bytes() == second.read_bytes()


def test_rows_reevaluate_through_rate_engine(tiny_sweep_rows):
    spec, rows = tiny_sweep_rows
    for row in rows:
        db = dict(REFERENCE_DB, si_cancellation_db=row.axis)
        params = params_from_db(db)
        alloc = PowerAllocation(row.p_d_mw, row.p_u_mw, row.p_bh_d_mw,
                                row.p_bh_u_mw, row.p_u_d2d_mw, row.eta)
        rb = rates(Scheme.parse(row.scheme), params, alloc)
        if row.optimized:
            assert row.c_s == rb.c_s and row.c_d == rb.c_d
        else:
            assert row.c_d <= rb.c_d + 1e-12
            assert row.c_u <= rb.c_u + 1e-12
            assert row.clamped == (row.c_d < rb.c_d or row.c_u < rb.c_u)


def test_skip_marker_rows(tmp_path):
    # n_r = 200 kills the FD transmit DoF at the second grid point
    spec = small_spec(kind="custom_grid", axis=[100, 200],
                      axis_param="n_r", schemes=[Scheme.FULL_DUPLEX])
    rows = run_sweep(spec)
    skipped = [r for r in rows if r.axis == 200]
    assert len(skipped) == 2
    for row in skipped:
        assert row.converged == -1 and math.isnan(row.c_s)
    assert all(r.converged >= 0 for r in rows if r.axis == 100)
    # in the CSV every rate and power of a skipped row reads nan
    out = tmp_path / "skip.csv"
    emit_csv(rows, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines[1:] if line.startswith("200,")]
    assert len(cells) == 2
    for row in cells:
        assert row[4:-1] == ["nan"] * 12 and row[-1] == "-1"


@pytest.mark.parametrize("jobs,workers", [(64, 3), (3, 3), (2, 2)])
def test_parallel_sweep_starts_at_most_one_worker_per_point(
        jobs, workers, monkeypatch):
    # the pool forks all its workers at once, so none is really started:
    # a stand-in records the worker count and maps in this process
    import concurrent.futures
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    spec = small_spec(axis=[80.0, 100.0, 120.0], include_baseline=False)
    rows = run_sweep(spec, jobs=jobs)
    assert started == [workers]
    assert rows == run_sweep(spec)


def test_parallel_jobs_match_serial(tiny_sweep_rows):
    spec, rows = tiny_sweep_rows
    parallel = run_sweep(small_spec(
        schemes=[Scheme.FULL_DUPLEX, Scheme.HALF_DUPLEX]), jobs=2)
    assert parallel == rows


def test_backhaul_kind_doubles_receive_streams():
    spec = small_spec(kind="backhaul_streams", axis=[2, 3],
                      schemes=[Scheme.FULL_DUPLEX], include_baseline=False)
    rows = run_sweep(spec)
    # re-evaluation only matches when m_bh_r = 2 m_bh_t was applied
    for row in rows:
        db = dict(REFERENCE_DB, m_bh_t=int(row.axis),
                  m_bh_r=2 * int(row.axis))
        params = params_from_db(db)
        alloc = PowerAllocation(row.p_d_mw, row.p_u_mw, row.p_bh_d_mw,
                                row.p_bh_u_mw, row.p_u_d2d_mw, row.eta)
        assert rates(Scheme.FULL_DUPLEX, params, alloc).c_s == row.c_s


def test_preset_specs_load():
    for name in ("fig4a", "fig4b", "fig5a", "fig5a_d2d", "fig5b",
                 "fig5b_d2d", "fig6a", "fig6b"):
        spec = load_sweep_spec(preset_path(name))
        assert spec.base_db["n_t"] == 200
    fig4a = load_sweep_spec(preset_path("fig4a"))
    assert fig4a.kind == "si_cancellation" and len(fig4a.axis) == 81
    assert fig4a.options.n_starts == 50 and fig4a.options.rng_seed == 42
    fig5a = load_sweep_spec(preset_path("fig5a"))
    assert fig5a.base_db["m_bh_t"] == 2 and fig5a.base_db["m_bh_r"] == 4
    assert fig5a.axis == list(range(10)) and fig5a.routing == "via_an"
    fig6a = load_sweep_spec(preset_path("fig6a"))
    assert fig6a.kind == "backhaul_streams" and fig6a.axis == list(range(1, 13))
    with pytest.raises(ConfigError):
        preset_path("fig9z")


def test_spec_file_overrides_and_errors(tmp_path):
    base = tmp_path / "cell.cfg"
    base.write_text("\n".join(f"{k} = {v}" for k, v in REFERENCE_DB.items()),
                    encoding="utf-8")
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        "kind = si_cancellation\naxis = 100,110\nparams = cell.cfg\n"
        "m_bh_t = 2\nschemes = hd\nn_starts = 4\nseed = 7\n",
        encoding="utf-8")
    spec = load_sweep_spec(spec_file)
    assert spec.base_db["m_bh_t"] == 2 and spec.axis == [100.0, 110.0]
    assert spec.options.n_starts == 4 and spec.options.rng_seed == 7

    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = si_cancellation\naxis = 1,2\nparams = cell.cfg\n"
                   "banana = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="banana"):
        load_sweep_spec(bad)


@pytest.mark.parametrize("kind,axis", [("si_cancellation", "100,110"),
                                       ("intra_cell_pairs", "0,1"),
                                       ("backhaul_streams", "1,2")])
def test_spec_file_rejects_axis_param_outside_custom_grid(tmp_path, kind,
                                                          axis):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(f"kind = {kind}\naxis = {axis}\nparams = {base}\n"
                         "axis_param = n_t\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=f"axis_param applies to custom_grid only, "
                             f"not '{kind}'"):
        load_sweep_spec(spec_file)


@pytest.mark.parametrize("kind,axis", [
    ("si_cancellation", "100,110"), ("backhaul_streams", "1,2"),
    ("custom_grid", "200,210\naxis_param = n_t")],
    ids=["si_cancellation", "backhaul_streams", "custom_grid"])
def test_spec_file_rejects_routing_outside_intra_cell_pairs(tmp_path, kind,
                                                            axis):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(f"kind = {kind}\naxis = {axis}\nparams = {base}\n"
                         "routing = d2d\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=f"routing applies to intra_cell_pairs only, "
                             f"not '{kind}'"):
        load_sweep_spec(spec_file)


@pytest.mark.parametrize("schemes,repeated", [("hd,hd", "hd"),
                                              ("fd,rl,FD", "fd")])
def test_spec_file_rejects_a_repeated_scheme(tmp_path, schemes, repeated):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(f"kind = si_cancellation\naxis = 120\n"
                         f"params = {base}\nschemes = {schemes}\n",
                         encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=f"scheme '{repeated}' is listed twice"):
        load_sweep_spec(spec_file)


@pytest.mark.parametrize("text,message", [
    ("axis = 100,110", "sweep spec needs a 'kind'"),
    ("kind = si_cancellation\nn_t = 200",
     "sweep base params incomplete, missing: ['n_r'"),
    ("kind = backhaul_streams\nparams = cell.cfg",
     "sweep spec needs an 'axis'"),
    ("kind = si_cancellation\nparams = cell.cfg\naxis = 1:2:3:4",
     "bad axis range '1:2:3:4'"),
    ("kind = si_cancellation\nparams = cell.cfg\naxis = 100:110:0",
     "axis step must be > 0"),
    ("kind = si_cancellation\nparams = cell.cfg\naxis = 110:100:-5",
     "axis step must be > 0"),
], ids=["no_kind", "incomplete_params", "no_axis", "four_part_range",
        "zero_step", "negative_step"])
def test_spec_file_errors(tmp_path, text, message):
    _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_sweep_spec(spec_file)


@pytest.mark.parametrize("axis_param,axis,message", [
    ("p_an_dbm", "30,5000", "p_an_dbm is out of range, got 5000.0"),
    ("k_an", "-1,0", "k_an must be >= 0, got -1"),
], ids=["p_an_dbm", "k_an"])
def test_bad_grid_cell_fails_before_any_point_runs(tmp_path, monkeypatch,
                                                   capsys, axis_param, axis,
                                                   message):
    def no_point_may_run(*args, **kwargs):
        raise AssertionError("a grid point was optimized")
    monkeypatch.setattr(sweep, "optimize", no_point_may_run)
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = custom_grid\naxis_param = {axis_param}\naxis = {axis}\n"
        f"params = {base}\nschemes = hd\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_sweep_spec(spec_file)
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--spec", str(spec_file),
                     "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    # a spec built in code is checked the same way by run_sweep
    values = [float(v) for v in axis.split(",")]
    with pytest.raises(ConfigError, match=message):
        run_sweep(small_spec(kind="custom_grid", axis_param=axis_param,
                             axis=values))


@pytest.mark.parametrize("axis,expected", [
    ("0:1:0.6", [0.0, 0.6]),
    ("60:140:3", [60.0 + 3 * i for i in range(27)]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ("60:140:2", [60.0 + 2 * i for i in range(41)]),
])
def test_axis_range_stops_at_stop(tmp_path, axis, expected):
    (tmp_path / "cell.cfg").write_text(
        "\n".join(f"{k} = {v}" for k, v in REFERENCE_DB.items()),
        encoding="utf-8")
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(f"kind = si_cancellation\naxis = {axis}\n"
                         "params = cell.cfg\n", encoding="utf-8")
    assert load_sweep_spec(spec_file).axis == expected


# -- CLI ------------------------------------------------------------------


def _write_reference_config(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in REFERENCE_DB.items()),
                   encoding="utf-8")
    return cfg


def test_cli_optimize(tmp_path, capsys):
    cfg = _write_reference_config(tmp_path)
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg),
                     "--starts", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible=true" in out and "c_s" in out


def test_cli_optimize_counts_the_starts_that_ran(tmp_path, capsys):
    cfg = _write_reference_config(tmp_path)
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg)])
    result = optimize(Scheme.HALF_DUPLEX, params_from_db(REFERENCE_DB))
    ran = len(result.starts)
    assert code == 0 and ran < 50
    assert (f"optimized hd: {result.converged_count}/{ran} starts converged "
            f"({ran} of at most 50 run)") in capsys.readouterr().out


def test_cli_optimize_baseline(tmp_path, capsys):
    cfg = _write_reference_config(tmp_path)
    code = cli.main(["optimize", "--scheme", "fd", "--config", str(cfg),
                     "--baseline"])
    assert code == 0
    assert "baseline fd" in capsys.readouterr().out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("n_t = 200\n", encoding="utf-8")   # everything missing
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_optimize_says_when_no_start_ended_feasible(tmp_path, capsys):
    # the reference cell at 65 dB: full duplex's only start at seed 3 ends
    # infeasible
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in dict(
        REFERENCE_DB, si_cancellation_db=65).items()), encoding="utf-8")
    code = cli.main(["optimize", "--scheme", "fd", "--config", str(cfg),
                     "--seed", "3", "--starts", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "optimized fd: 0/1 starts converged" in out
    assert "no start ended feasible: reporting the zero-power point" in out
    assert "c_s   = 0.000000" in out and "feasible=true" in out


def test_cli_sweep_keeps_going_past_a_point_with_no_feasible_start(
        tmp_path, capsys):
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = si_cancellation\naxis = 62:68:3\n"
        f"params = {preset_path('default')}\nschemes = fd\n"
        "include_baseline = false\nseed = 3\nn_starts = 1\n",
        encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
    # 65 dB: every rate and power at zero, eta at its convention, no start
    # converged
    assert lines[2] == "65,fd,true,false," + "0," * 11 + "0.5,0"
    assert [line.split(",")[-1] != "0" for line in lines[1:]] == [
        True, False, True]


def test_cli_optimize_with_a_cap_below_the_start_floor(tmp_path, capsys):
    # -40 dBm is below the -30 dBm floor of the random starts' range
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in dict(
        REFERENCE_DB, p_ue_dbm=-40).items()), encoding="utf-8")
    code = cli.main(["optimize", "--scheme", "fd", "--config", str(cfg),
                     "--starts", "6"])
    assert code == 0
    assert "feasible=true" in capsys.readouterr().out


def test_sweep_over_a_cap_below_the_start_floor_returns_every_row():
    spec = small_spec(kind="custom_grid", axis=[-40, 25],
                      axis_param="p_ue_dbm", schemes=list(Scheme))
    rows = run_sweep(spec)
    assert sorted((r.axis, r.scheme, r.optimized) for r in rows) == sorted(
        (axis, scheme.value, optimized) for axis in (-40.0, 25.0)
        for scheme in Scheme for optimized in (False, True))
    for row in rows:
        assert row.converged >= 0 and math.isfinite(row.c_s)
        assert row.p_u_mw <= 10 ** (row.axis / 10) * (1 + 1e-12)


def test_cli_sweep_writes_csv(tmp_path, capsys):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = si_cancellation\naxis = 115,120\nparams = {base}\n"
        "schemes = rl\ninclude_baseline = true\nn_starts = 5\n",
        encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 5


def test_cli_sweep_runs_a_preset_by_name(tmp_path, capsys):
    out = tmp_path / "fig6b.csv"
    assert cli.main(["sweep", "--spec", "fig6b", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    # 12 backhaul stream counts, relay scheme only, no baselines
    assert lines[0] == CSV_HEADER and len(lines) == 13
    assert f"wrote 12 rows to {out}" in capsys.readouterr().out


def test_cli_validate_zf(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    code = cli.main(["validate-zf", "--trials", "1000", "--seed", "3",
                     "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("check,empirical,closed_form,rel_error")
    assert "wishart_trace" in text and "sinr_hd_dl" in text
    assert "precoder_column_norm" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_cli_validate_zf_rejects_non_positive_trials(trials, capsys):
    code = cli.main(["validate-zf", "--trials", trials])
    assert code == 1
    assert f"error: need at least 1 trial, got {trials}" in (
        capsys.readouterr().err)


def test_cli_validate_zf_rejects_fewer_than_1000_trials(capsys):
    # the SINR check needs 1000 trials; it runs after the other checks
    code = cli.main(["validate-zf", "--trials", "999", "--seed", "1"])
    assert code == 1
    assert "error: need at least 1000 trials" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_sweep_rejects_non_positive_jobs(tmp_path, jobs, capsys):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = si_cancellation\naxis = 120\nparams = {base}\n"
        "schemes = hd\ninclude_baseline = false\nn_starts = 1\n",
        encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out),
                     "--jobs", jobs])
    assert code == 1
    assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def _write_spec(tmp_path, extra):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = si_cancellation\naxis = 120\nparams = {base}\n"
        f"schemes = hd\nn_starts = 1\n{extra}\n", encoding="utf-8")
    return spec_file


@pytest.mark.parametrize("flag,expected", [
    ("TRUE", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("NO", False), ("Off", False), ("0", False),
])
def test_include_baseline_spellings(tmp_path, flag, expected):
    spec_file = _write_spec(tmp_path, f"include_baseline = {flag}")
    assert load_sweep_spec(spec_file).include_baseline is expected


@pytest.mark.parametrize("flag", ["maybe", "2"])
def test_cli_sweep_rejects_bad_include_baseline(tmp_path, flag, capsys):
    spec_file = _write_spec(tmp_path, f"include_baseline = {flag}")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 1
    assert (f"error: include_baseline must be one of "
            f"true/false/yes/no/on/off/1/0, got '{flag}'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_sweep_rejects_negative_seed(tmp_path, capsys):
    spec_file = _write_spec(tmp_path, "seed = -3")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 1
    assert "error: rng_seed must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("seed = 1.5", "seed must be an integer, got 1.5"),
    ("seed = abc", "seed must be an integer, got 'abc'"),
    ("n_starts = 2.7", "n_starts must be an integer, got 2.7"),
    ("n_starts = 1e400", "n_starts must be an integer, got inf"),
    ("d = 1e400", "d must be an integer, got inf"),
])
def test_cli_sweep_rejects_non_integer_counts(tmp_path, line, message,
                                              capsys):
    # with no axis, the pair sweep's axis is read from d and u
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = intra_cell_pairs\nparams = {base}\nschemes = hd\n"
        f"{line}\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,axis,shown", [
    ("backhaul_streams", "1e400", "'1e400'"),
    ("si_cancellation", "1,abc", "'abc'"),
    ("si_cancellation", "60:1e400", "'1e400'"),
    ("intra_cell_pairs", "nan", "'nan'"),
])
def test_cli_sweep_rejects_bad_axis_values(tmp_path, kind, axis, shown,
                                           capsys):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = {kind}\naxis = {axis}\nparams = {base}\nschemes = hd\n",
        encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 1
    assert (f"error: axis values must be finite numbers, got {shown}"
            in capsys.readouterr().err)
    assert not out.exists()


# a custom grid over a count key is a count axis too
_COUNT_AXIS_PARAM = {"custom_grid": "axis_param = n_t\n"}


@pytest.mark.parametrize("kind,axis,shown", [
    ("backhaul_streams", "2.5", "2.5"),
    ("backhaul_streams", "1.5,2.5", "1.5"),
    ("intra_cell_pairs", "0:3:0.5", "0.5"),
    ("custom_grid", "40.5,60", "40.5"),
])
def test_cli_sweep_rejects_fractional_counts_on_the_axis(tmp_path, kind, axis,
                                                         shown, capsys):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        f"kind = {kind}\naxis = {axis}\nparams = {base}\nschemes = hd\n"
        + _COUNT_AXIS_PARAM.get(kind, ""), encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--spec", str(spec_file), "--out", str(out)])
    assert code == 1
    assert (f"error: axis must be an integer, got {shown}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kind,axis,expected", [
    ("backhaul_streams", "1.0,2,3e0", [1, 2, 3]),
    ("intra_cell_pairs", "0:4:2", [0, 2, 4]),
    ("custom_grid", "40.0,60", [40, 60]),
])
def test_whole_number_axis_values_become_counts(tmp_path, kind, axis,
                                                expected):
    base = _write_reference_config(tmp_path)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(f"kind = {kind}\naxis = {axis}\nparams = {base}\n"
                         + _COUNT_AXIS_PARAM.get(kind, ""), encoding="utf-8")
    values = load_sweep_spec(spec_file).axis
    assert values == expected and all(type(v) is int for v in values)


@pytest.mark.parametrize("value,shown", [("abc", "'abc'"), ("2.5", "2.5"),
                                         ("1e400", "inf")])
def test_cli_optimize_rejects_non_integer_count(tmp_path, value, shown,
                                                capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in dict(
        REFERENCE_DB, n_t=value).items()), encoding="utf-8")
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg)])
    assert code == 1
    assert (f"error: n_t must be an integer, got {shown}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key,value,message", [
    ("l_ue_db", "abc", "l_ue_db must be a number, got 'abc'"),
    ("rho_min", "x", "rho_min must be a number, got 'x'"),
    ("p_an_dbm", "5000", "p_an_dbm is out of range, got 5000"),
    ("n_t", "1" + "0" * 400, "n_t is out of range, got 1000"),
], ids=["l_ue_db", "rho_min", "p_an_dbm", "n_t"])
def test_cli_optimize_names_a_bad_scalar(tmp_path, key, value, message,
                                         capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in dict(
        REFERENCE_DB, **{key: value}).items()), encoding="utf-8")
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_validate_zf_rejects_negative_seed(capsys):
    code = cli.main(["validate-zf", "--trials", "1000", "--seed", "-1"])
    assert code == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_optimize_rejects_negative_seed(tmp_path, capsys):
    cfg = _write_reference_config(tmp_path)
    code = cli.main(["optimize", "--scheme", "hd", "--config", str(cfg),
                     "--seed", "-1"])
    assert code == 1
    assert "error: rng_seed must be >= 0, got -1" in capsys.readouterr().err
