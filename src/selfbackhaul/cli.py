"""Command-line interface.

Subcommands::

    optimize     maximize one scheme's sum-rate for a cell config
    sweep        run a parameter sweep from a spec file, emit CSV
    validate-zf  Monte-Carlo checks of the precoder model, text + CSV

Exit codes: 0 success, 1 configuration/structural error.  When no start
ends feasible, ``optimize`` says so and reports the zero-power point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import (ConfigError, PowerAllocation, Scheme, load_params,
                    load_params_db, params_from_db)
from .optimizer import OptimizerOptions, baseline, optimize
from .sweep import emit_csv, load_sweep_spec, preset_path, run_sweep
from . import zfval


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="selfbackhaul",
        description="Sum-rate analysis of a self-backhauling full-duplex "
                    "access node")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="maximize one scheme's sum-rate")
    p_opt.add_argument("--scheme", required=True,
                       choices=[s.value for s in Scheme])
    p_opt.add_argument("--config", required=True,
                       help="cell parameter file (name = value lines)")
    p_opt.add_argument("--baseline", action="store_true",
                       help="evaluate the max-power baseline instead")
    p_opt.add_argument("--seed", type=int, default=42)
    p_opt.add_argument("--starts", type=int, default=50)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--spec", required=True,
                         help="sweep spec file or packaged preset name "
                              "(fig4a .. fig6b)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers over grid points")

    p_val = sub.add_parser("validate-zf",
                           help="Monte-Carlo precoder model validation")
    p_val.add_argument("--trials", type=int, default=10000)
    p_val.add_argument("--seed", type=int, default=42)
    p_val.add_argument("--out", help="optional CSV of the check results")
    return parser


def _cmd_optimize(args) -> int:
    params = load_params(args.config)
    scheme = Scheme.parse(args.scheme)
    if args.baseline:
        rb, report = baseline(scheme, params)
        print(f"baseline {scheme.value}: clamped rates at maximum powers")
    else:
        opts = OptimizerOptions(n_starts=args.starts, rng_seed=args.seed)
        result = optimize(scheme, params, opts)
        rb, report = result.best_rates, result.best_report
        ran = len(result.starts)
        print(f"optimized {scheme.value}: {result.converged_count}/{ran} "
              f"starts converged ({ran} of at most {opts.n_starts} run)")
        if not any(s.feasible for s in result.starts):
            print("  no start ended feasible: reporting the zero-power point")
    a = rb.alloc
    print(f"  c_s   = {rb.c_s:.6f} bits/s/Hz "
          f"(c_d={rb.c_d:.6f}, c_u={rb.c_u:.6f}, c_ic={rb.c_ic:.6f})")
    print(f"  c_bh  = down {rb.c_bh_d:.6f}, up {rb.c_bh_u:.6f}")
    print(f"  power = p_d={a.p_d:.6g} p_u={a.p_u:.6g} p_bh_d={a.p_bh_d:.6g} "
          f"p_bh_u={a.p_bh_u:.6g} p_u_d2d={a.p_u_d2d:.6g} mW, eta={a.eta:.4f}")
    print(f"  feasible={str(report.feasible).lower()} "
          f"(max violation {report.max_violation:.3e})")
    for label, value in report.values:
        print(f"    {label:>10s} = {value: .6e}")
    return 0


def _cmd_sweep(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        spec_path = preset_path(args.spec)
    spec = load_sweep_spec(spec_path)
    rows = run_sweep(spec, jobs=args.jobs)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# validate-zf checks the reference cell at these array sizes
MONTE_CARLO_SIZES = dict(n_t=40, n_r=16, m_bh_t=2, m_bh_r=4, d=4, u=4)


def _cmd_validate_zf(args) -> int:
    trials, seed = args.trials, args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n_t, d, n_r = (MONTE_CARLO_SIZES[key] for key in ("n_t", "d", "n_r"))
    checks = []
    checks.append(zfval.column_norm_check(n_t, d, n_r, trials, seed))
    checks.extend(zfval.exactness_check(n_t, d, n_r, min(200, trials),
                                        seed + 1))
    checks.append(zfval.wishart_trace_check(40, 20, trials, seed + 2))
    checks.append(zfval.wishart_trace_check(200, 16, trials, seed + 3))

    params = params_from_db(dict(load_params_db(preset_path("default")),
                                 **MONTE_CARLO_SIZES))
    alloc = PowerAllocation(p_d=1000.0, p_u=100.0, p_bh_d=500.0,
                            p_bh_u=200.0)
    for scheme in Scheme:
        for check in zfval.empirical_sinr_check(params, scheme, alloc,
                                                trials, seed + 4):
            checks.append(zfval.CheckResult(
                f"sinr_{scheme.value}_{check.label}", check.empirical,
                check.closed_form, check.rel_error))

    print(f"{'check':<28s} {'empirical':>14s} {'closed form':>14s} "
          f"{'rel error':>10s}")
    for c in checks:
        print(f"{c.label:<28s} {c.empirical:>14.6g} {c.closed_form:>14.6g} "
              f"{c.rel_error:>10.4%}")
    if args.out:
        lines = ["check,empirical,closed_form,rel_error"]
        lines += [f"{c.label},{c.empirical:.9g},{c.closed_form:.9g},"
                  f"{c.rel_error:.9g}" for c in checks]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(checks)} checks to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"cannot write --out {out!r}")
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate_zf(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
