"""Parameter-sweep harness: optimize every scheme along one axis, emit CSV.

A sweep spec picks the swept quantity (SI cancellation in dB, intra-cell
pair count with a routing choice, transmitted backhaul stream count, or an
arbitrary config key), the axis values, the schemes, and the base cell
configuration.  Grid points are independent and may be distributed over a
worker pool; row ordering is deterministic either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .model import (CONFIG_KEYS, COUNT_KEYS, ConfigError, Scheme,
                    load_params_db, parse_config_text, params_from_db,
                    require_integer, validate)
from .optimizer import OptimizerOptions, baseline, optimize
from .rates import rates

KINDS = ("si_cancellation", "intra_cell_pairs", "backhaul_streams",
         "custom_grid")
ROUTINGS = ("d2d", "via_an")

_SWEEP_KEYS = {"kind", "axis", "axis_param", "routing", "schemes",
               "include_baseline", "params", "seed", "n_starts"}
_FLAGS = {"true": True, "false": False, "yes": True, "no": False,
          "on": True, "off": False, "1": True, "0": False}


@dataclass
class SweepSpec:
    kind: str
    axis: list
    base_db: dict
    schemes: list = field(default_factory=lambda: list(Scheme))
    routing: str = "via_an"
    include_baseline: bool = True
    axis_param: str | None = None      # custom_grid only
    options: OptimizerOptions = field(default_factory=OptimizerOptions)

    def check(self):
        self.options.check()
        if self.kind not in KINDS:
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if not self.axis:
            raise ConfigError("sweep axis must be non-empty")
        if self.kind in ("intra_cell_pairs", "backhaul_streams") or (
                self.kind == "custom_grid" and self.axis_param in COUNT_KEYS):
            self.axis = [require_integer("axis", v) for v in self.axis]
        if any(b <= a for a, b in zip(self.axis, self.axis[1:])):
            raise ConfigError("sweep axis must be strictly increasing")
        if self.routing not in ROUTINGS:
            raise ConfigError(f"unknown routing {self.routing!r}")
        if not self.schemes:
            raise ConfigError("at least one scheme required")
        for i, scheme in enumerate(self.schemes):
            if scheme in self.schemes[:i]:
                raise ConfigError(f"scheme {scheme.value!r} is listed twice")
        if self.kind == "custom_grid":
            if self.axis_param not in CONFIG_KEYS:
                raise ConfigError(
                    f"custom_grid needs axis_param from {CONFIG_KEYS}")
        elif self.axis_param is not None:
            raise ConfigError(
                f"axis_param applies to custom_grid only, not {self.kind!r}")
        for value in self.axis:   # a bad cell fails before any point runs
            params_from_db(_point_db(self, value))
        if self.kind == "intra_cell_pairs":
            cap = min(require_integer(key, self.base_db[key])
                      for key in ("d", "u"))
            if max(self.axis) > cap:
                raise ConfigError(
                    f"intra-cell pair count exceeds min(d, u) = {cap}")


@dataclass
class SweepRow:
    axis: float
    scheme: str
    optimized: bool
    clamped: bool
    c_d: float = math.nan
    c_u: float = math.nan
    c_ic: float = math.nan
    c_s: float = math.nan
    c_bh_d: float = math.nan
    c_bh_u: float = math.nan
    p_d_mw: float = math.nan
    p_u_mw: float = math.nan
    p_bh_d_mw: float = math.nan
    p_bh_u_mw: float = math.nan
    p_u_d2d_mw: float = math.nan
    eta: float = math.nan
    converged: int = -1         # -1 marks a skipped (invalid) grid point

    def sort_key(self):
        return (self.axis, self.scheme, self.optimized)


# the CSV columns: a new SweepRow field changes the file format
_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)


def _point_db(spec: SweepSpec, value):
    db = dict(spec.base_db)
    if spec.kind == "si_cancellation":
        db["si_cancellation_db"] = float(value)
    elif spec.kind == "intra_cell_pairs":
        if spec.routing == "d2d":
            db["k_d2d"], db["k_an"] = value, 0
        else:
            db["k_an"], db["k_d2d"] = value, 0
    elif spec.kind == "backhaul_streams":
        db["m_bh_t"], db["m_bh_r"] = value, 2 * value
    else:
        db[spec.axis_param] = value
    return db


def _rows_for_point(spec: SweepSpec, value):
    db = _point_db(spec, value)
    params = params_from_db(db)
    rows = []
    for scheme in spec.schemes:
        variants = ([False] if spec.include_baseline else []) + [True]
        if validate(params, scheme):
            for optimized in variants:
                rows.append(SweepRow(axis=float(value), scheme=scheme.value,
                                     optimized=optimized, clamped=False))
            continue
        if spec.include_baseline:
            rb, _report = baseline(scheme, params)
            raw = rates(scheme, params, rb.alloc)
            rows.append(_row(value, scheme, rb, optimized=False,
                             clamped=(rb.c_d < raw.c_d or rb.c_u < raw.c_u),
                             converged=0))
        result = optimize(scheme, params, replace(spec.options))
        rows.append(_row(value, scheme, result.best_rates, optimized=True,
                         clamped=False, converged=result.converged_count))
    return rows


def _row(value, scheme, rb, optimized, clamped, converged):
    a = rb.alloc
    return SweepRow(axis=float(value), scheme=scheme.value,
                    optimized=optimized, clamped=clamped,
                    c_d=rb.c_d, c_u=rb.c_u, c_ic=rb.c_ic, c_s=rb.c_s,
                    c_bh_d=rb.c_bh_d, c_bh_u=rb.c_bh_u,
                    p_d_mw=a.p_d, p_u_mw=a.p_u, p_bh_d_mw=a.p_bh_d,
                    p_bh_u_mw=a.p_bh_u, p_u_d2d_mw=a.p_u_d2d, eta=a.eta,
                    converged=converged)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """Evaluate the sweep grid; deterministic for fixed optimizer seeds."""
    spec.check()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        # imported here: serial runs never load the pool's modules
        from concurrent.futures import ProcessPoolExecutor
        # the pool forks all its workers at once: at most one per point
        workers = min(jobs, len(spec.axis))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_rows_for_point, [spec] * len(spec.axis),
                                   spec.axis))
    else:
        chunks = [_rows_for_point(spec, value) for value in spec.axis]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=SweepRow.sort_key)
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.9g}"


def emit_csv(rows, path):
    """Write rows as UTF-8 CSV (9 significant digits, stable ordering)."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = [CSV_HEADER]
    for row in sorted(rows, key=SweepRow.sort_key):
        lines.append(",".join(_fmt(getattr(row, name)) for name in _COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- spec files -----------------------------------------------------------


def preset_path(name: str) -> Path:
    """Path of a packaged sweep preset (e.g. ``fig4a``)."""
    candidate = Path(__file__).with_name("configs") / (
        name if name.endswith(".cfg") else f"{name}.cfg")
    if not candidate.is_file():
        raise ConfigError(f"no packaged preset named {name!r}")
    return candidate


def _axis_value(text):
    """One axis value as a float; a ConfigError naming the axis unless it
    is a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"axis values must be finite numbers, got {text!r}")
    return value


def _parse_axis(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad axis range {text!r} (want start:stop[:step])")
        start, stop = _axis_value(parts[0]), _axis_value(parts[1])
        step = _axis_value(parts[2]) if len(parts) == 3 else 1.0
        if step <= 0:
            raise ConfigError("axis step must be > 0")
        span = (stop - start) / step
        if math.isinf(span):
            raise ConfigError(f"axis range {text!r} is too wide")
        # the last point may reach stop by round-off, never pass it
        n = math.floor(span + 1e-9)
        return [min(start + i * step, stop) for i in range(n + 1)]
    return [_axis_value(v) for v in text.split(",") if v.strip()]


def load_sweep_spec(path) -> SweepSpec:
    """Read a sweep spec file (flat ``name = value`` lines).

    Keys other than the sweep controls must be cell-parameter keys and
    override the referenced base configuration.
    """
    path = Path(path)
    raw = parse_config_text(path.read_text(encoding="utf-8"),
                            known_keys=_SWEEP_KEYS | set(CONFIG_KEYS),
                            verbatim={"axis"})
    if "kind" not in raw:
        raise ConfigError("sweep spec needs a 'kind'")

    base_db = {}
    if "params" in raw:
        # an absolute path replaces path.parent
        base_db.update(load_params_db(path.parent / str(raw["params"])))
    for key in CONFIG_KEYS:
        if key in raw:
            base_db[key] = raw[key]
    missing = [k for k in CONFIG_KEYS if k not in base_db]
    if missing:
        raise ConfigError(f"sweep base params incomplete, missing: {missing}")

    kind = str(raw["kind"])
    if "routing" in raw and kind != "intra_cell_pairs":
        raise ConfigError(
            f"routing applies to intra_cell_pairs only, not {kind!r}")
    if "axis" in raw:
        axis = _parse_axis(raw["axis"])
    elif kind == "intra_cell_pairs":
        axis = list(range(0, min(require_integer(key, base_db[key])
                                 for key in ("d", "u"))))
    else:
        raise ConfigError("sweep spec needs an 'axis'")

    schemes = ([Scheme.parse(s) for s in str(raw["schemes"]).split(",")]
               if "schemes" in raw else list(Scheme))
    options = OptimizerOptions()
    if "seed" in raw:
        options.rng_seed = require_integer("seed", raw["seed"])
    if "n_starts" in raw:
        options.n_starts = require_integer("n_starts", raw["n_starts"])

    flag = str(raw.get("include_baseline", "true")).lower()
    if flag not in _FLAGS:
        raise ConfigError(
            f"include_baseline must be one of {'/'.join(_FLAGS)}, "
            f"got {flag!r}")

    spec = SweepSpec(kind=kind, axis=axis, base_db=base_db, schemes=schemes,
                     routing=str(raw.get("routing", "via_an")),
                     include_baseline=_FLAGS[flag],
                     axis_param=raw.get("axis_param"), options=options)
    spec.check()
    return spec
