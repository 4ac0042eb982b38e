"""Cell parameters, power allocations, the scheme slot table and
structural validation.

All quantities are stored in linear units internally (powers in mW, path
gains and SI attenuation as dimensionless gains in (0, 1]).  Configuration
files and the public constructors speak dB/dBm, matching how such systems
are usually specified.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Mapping


class ConfigError(ValueError):
    """Raised for malformed configuration input (missing keys, bad values)."""


class StructuralError(ValueError):
    """Raised when an operation is asked to run on an invalid configuration."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Scheme(str, Enum):
    """Transmission scheme of the access node."""

    FULL_DUPLEX = "fd"
    HALF_DUPLEX = "hd"
    HYBRID_RELAY = "rl"

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown scheme {text!r} (expected fd, hd or rl)")


# Time slots, coded as indices of the time weights (1, eta, 1 - eta).
ALWAYS, ETA, ONE_MINUS_ETA = 0, 1, 2

# The one way the schemes differ: the slot of each AN link (DL, UL,
# incoming backhaul, outgoing backhaul).  UL UEs, D2D ones included, send
# in the UL slot.
SLOTS = {
    Scheme.FULL_DUPLEX: (ALWAYS, ALWAYS, ALWAYS, ALWAYS),
    Scheme.HALF_DUPLEX: (ETA, ONE_MINUS_ETA, ONE_MINUS_ETA, ETA),
    Scheme.HYBRID_RELAY: (ETA, ONE_MINUS_ETA, ETA, ONE_MINUS_ETA),
}


def _overlap(a, b) -> bool:
    """Whether links in slots ``a`` and ``b`` are ever on at once."""
    return a == ALWAYS or b == ALWAYS or a == b


@dataclass(frozen=True)
class SystemParams:
    """Static cell parameters in linear units.

    Counts are antenna/stream/user counts; ``sigma_n2`` and the ``p_*``
    budgets are in mW; ``l_*`` and ``alpha`` are linear gains.
    """

    n_t: int            # AN transmit antennas
    n_r: int            # AN receive antennas
    m_bh_t: int         # transmitted backhaul streams
    m_bh_r: int         # received backhaul streams
    d: int              # DL UEs
    u: int              # UL UEs
    k_d2d: int          # direct intra-cell pairs
    k_an: int           # AN-relayed intra-cell pairs
    sigma_n2: float     # receiver noise floor, mW
    l_ue: float         # AN <-> UE path gain
    l_ud: float         # UL-UE <-> DL-UE path gain
    l_bh: float         # AN <-> BN path gain
    p_an_max: float     # AN total transmit budget, mW
    p_ue_max: float     # per-UE budget, mW
    p_bh_d_max: float   # BN budget, mW
    alpha: float        # residual SI attenuation (linear)
    rho_min: float      # lower UL/DL rate-ratio bound
    rho_max: float      # upper UL/DL rate-ratio bound


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers (mW) plus the TDD time split.

    ``eta`` is meaningful for the half-duplex and hybrid relay schemes only;
    full duplex ignores it (kept at 0.5 by convention).  ``p_u_d2d`` must be
    zero when the cell has no direct intra-cell pairs.
    """

    p_d: float          # AN power toward DL UEs
    p_u: float          # per-UE UL power
    p_bh_d: float       # BN power on the incoming backhaul
    p_bh_u: float       # AN power on the outgoing backhaul
    p_u_d2d: float = 0.0
    eta: float = 0.5

    def as_tuple(self):
        return (self.p_d, self.p_u, self.p_bh_d, self.p_bh_u,
                self.p_u_d2d, self.eta)

    def check(self):
        """Raise ValueError on out-of-domain entries."""
        for name, value in (("p_d", self.p_d), ("p_u", self.p_u),
                            ("p_bh_d", self.p_bh_d), ("p_bh_u", self.p_bh_u),
                            ("p_u_d2d", self.p_u_d2d)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


# Configuration keys, in canonical file order.  Each dB key names its
# field and scale: +1 for a power in dBm, -1 for a loss of a linear gain.
COUNT_KEYS = ("n_t", "n_r", "m_bh_t", "m_bh_r", "d", "u", "k_d2d", "k_an")
_DB_SCALE = {
    "noise_dbm": ("sigma_n2", 1),
    "l_ue_db": ("l_ue", -1),
    "l_ud_db": ("l_ud", -1),
    "l_bh_db": ("l_bh", -1),
    "p_an_dbm": ("p_an_max", 1),
    "p_ue_dbm": ("p_ue_max", 1),
    "p_bh_dbm": ("p_bh_d_max", 1),
    "si_cancellation_db": ("alpha", -1),
}
_RATIO_KEYS = ("rho_min", "rho_max")
CONFIG_KEYS = COUNT_KEYS + tuple(_DB_SCALE) + _RATIO_KEYS


def require_integer(key: str, value) -> int:
    """``value`` as an int; a ConfigError naming ``key`` unless it is a
    whole number (an int, or a finite float with no fractional part)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(
            f"{key} must be an integer, got {value!r}") from None


def params_from_db(raw: Mapping[str, float]) -> SystemParams:
    """Build SystemParams from a dB/dBm-scale key-value map.

    Powers are given in dBm, path losses and SI cancellation in dB
    (positive numbers; 80 dB loss becomes a 1e-8 linear gain), counts and
    the rate-ratio bounds verbatim.
    """
    missing = [k for k in CONFIG_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing configuration keys: {', '.join(missing)}")

    fields = {}
    for key in COUNT_KEYS:
        value = require_integer(key, raw[key])
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
        if value > sys.float_info.max:   # the kernel's coefficients are floats
            raise ConfigError(f"{key} is out of range, got {value}")
        fields[key] = value
    for key in tuple(_DB_SCALE) + _RATIO_KEYS:
        field, sign = _DB_SCALE.get(key, (key, 0))   # ratios verbatim
        try:
            value = float(raw[key])
            fields[field] = 10.0 ** (sign * value / 10.0) if sign else value
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {raw[key]!r}") from None
        except OverflowError:
            raise ConfigError(f"{key} is out of range, got {raw[key]!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if sign and fields[field] < sys.float_info.min:   # subnormal or 0
            raise ConfigError(f"{key} is out of range, got {raw[key]!r}")
    return SystemParams(**fields)


def params_to_db(params: SystemParams) -> dict:
    """Inverse of params_from_db (round-trips within float accuracy)."""
    out = {}
    for key in CONFIG_KEYS:
        field, sign = _DB_SCALE.get(key, (key, 0))
        value = getattr(params, field)
        out[key] = sign * 10.0 * math.log10(value) if sign else value
    return out


def validate(params: SystemParams, scheme: Scheme) -> list:
    """Return every violated structural or DoF invariant (empty = valid)."""
    return list(links(scheme, params).violations)


def require_valid(params: SystemParams, scheme: Scheme) -> Links:
    """The instance's `links` record; StructuralError if it is invalid."""
    record = links(scheme, params)
    if record.violations:
        raise StructuralError(record.violations)
    return record


def _field_violations(p: SystemParams) -> list:
    """The violated invariants of the parameter fields, in report order."""
    v = []
    for key in ("n_t", "n_r", "d", "u"):
        if getattr(p, key) < 1:
            v.append(f"{key} must be >= 1, got {getattr(p, key)}")
    for key in ("m_bh_t", "m_bh_r", "k_d2d", "k_an"):
        if getattr(p, key) < 0:
            v.append(f"{key} must be >= 0, got {getattr(p, key)}")
    if p.k_d2d + p.k_an > p.d:
        v.append(f"k_d2d + k_an > d ({p.k_d2d} + {p.k_an} > {p.d})")
    if p.k_d2d + p.k_an > p.u:
        v.append(f"k_d2d + k_an > u ({p.k_d2d} + {p.k_an} > {p.u})")

    for key in [field for field, sign in _DB_SCALE.values() if sign < 0]:
        g = getattr(p, key)
        if not (0.0 < g <= 1.0) or not math.isfinite(g):
            v.append(f"{key} must be a linear gain in (0, 1], got {g}")
    for key in [field for field, sign in _DB_SCALE.values() if sign > 0]:
        val = getattr(p, key)
        if not (val > 0.0) or not math.isfinite(val):
            v.append(f"{key} must be > 0, got {val}")
    if not (0.0 < p.rho_min <= p.rho_max):
        v.append(f"rho bounds must satisfy 0 < rho_min <= rho_max, "
                 f"got [{p.rho_min}, {p.rho_max}]")
    return v


@dataclass(frozen=True)
class Links:
    """What the slot table implies for one (scheme, params) instance."""

    violations: tuple     # every violated field or DoF invariant
    time_split: bool      # eta is a variable: some link is not always on
    shared_budget: bool   # p_d and p_bh_u are on at once, sharing p_an_max
    kernel: tuple         # coefficients of `_kernels.rate_parts`


def _dof(base, count, terms):
    """(formula, DoF): ``count`` less the rows of each term that is on."""
    terms = [(text, rows) for text, rows, on in terms if on]
    return (base + "".join(f" - {text}" for text, _ in terms),
            count - sum(rows for _, rows in terms))


@lru_cache(maxsize=64)
def links(scheme: Scheme, params: SystemParams) -> Links:
    """Derive the instance's violations, DoFs, interference, time weights
    and AN budget rule from its row of `SLOTS`, once per instance."""
    p = params
    dl, ul, bh_in, bh_out = slots = SLOTS[scheme]

    def transmit(slot):
        # n_t less a row per receiver the AN zero-forces in the slot: DL
        # streams, D2D receivers (DL UEs listening in the UL slot),
        # backhaul streams and, when it receives, its receive antennas
        on_dl, on_ul = _overlap(dl, slot), _overlap(ul, slot)
        return _dof("n_t", p.n_t, [
            ("d", p.d, on_dl and on_ul),
            ("d + k_d2d", p.d - p.k_d2d, on_dl and not on_ul),
            ("m_bh_t", p.m_bh_t, _overlap(bh_out, slot)),
            ("k_d2d", p.k_d2d, on_ul and not on_dl),
            ("n_r", p.n_r, on_ul or _overlap(bh_in, slot))])

    def receive(slot):
        # n_r less a row per stream the AN hears in the slot
        return _dof("n_r", p.n_r, [("u", p.u, _overlap(ul, slot)),
                                   ("m_bh_r", p.m_bh_r, _overlap(bh_in, slot))])

    def checks(side, dof, first, second):
        # two links in one slot have one DoF, checked once
        named = ([(side, first[1])] if first[1] == second[1] else
                 [(f"{link} {side}", slot) for link, slot in (first, second)])
        return [(f"{scheme.value.upper()} {label} DoF", *dof(slot))
                for label, slot in named]

    def an_power(slot):
        # 0/1 flags of the AN transmit powers (p_d, p_bh_u) on in the slot
        return float(_overlap(dl, slot)), float(_overlap(bh_out, slot))

    dof = (transmit(dl)[1], receive(ul)[1], receive(bh_in)[1],
           transmit(bh_out)[1])
    l_ud_dl = p.l_ud if _overlap(dl, ul) else 0.0   # UL UEs reach DL UEs
    dof_checks = (
        checks("transmit", transmit, ("DL", dl), ("backhaul", bh_out))
        + checks("receive", receive, ("UL", ul), ("backhaul", bh_in)))
    return Links(
        violations=tuple(_field_violations(p) + [
            f"{name} <= 0 ({formula} = {value})"
            for name, formula, value in dof_checks if value <= 0]),
        time_split=any(slot != ALWAYS for slot in slots),
        shared_budget=_overlap(dl, bh_out),
        # in the order `_kernels.sinr_tuple` unpacks them
        kernel=(p.k_d2d, p.d - p.k_d2d, p.d - p.k_d2d - p.k_an,
                p.u - p.k_d2d - p.k_an, p.m_bh_r, p.m_bh_t, p.sigma_n2,
                p.l_ud, p.alpha, p.l_ue * dof[0], p.l_ue * dof[1],
                p.l_bh * dof[2], p.l_bh * dof[3], l_ud_dl * (p.u - p.k_d2d),
                l_ud_dl * p.k_d2d, *an_power(ul), *an_power(bh_in), *slots))


def parse_config_text(text: str, *, known_keys=None, verbatim=()) -> dict:
    """Parse flat ``name = value`` lines into a dict.

    Blank lines and ``#`` comments are ignored.  Values that look like
    integers are returned as int, everything else as float (or as a bare
    string when not numeric, which sweep specs use for enum-like fields).
    The values of the keys in ``verbatim`` stay strings, as written.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {line!r}")
        name, _, value = stripped.partition("=")
        name = name.strip().lower()
        value = value.strip()
        if known_keys is not None and name not in known_keys:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in out:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        out[name] = value if name in verbatim else _parse_scalar(value)
    return out


def _parse_scalar(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def load_params_db(path) -> dict:
    """Read a parameter config file into its raw dB-scale map."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"),
                             known_keys=set(CONFIG_KEYS))


def load_params(path) -> SystemParams:
    return params_from_db(load_params_db(path))
