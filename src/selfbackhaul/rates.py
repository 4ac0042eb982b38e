"""Closed-form SINRs and achievable rates for the three schemes.

Rates are spectral efficiencies in bits/s/Hz (Shannon mapping
``log2(1 + SINR)`` per stream, weighted by the stream count and, for the
time-slotted schemes, by the slot fraction).  The backhaul rates are
reported separately and never added into the user-facing sum-rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .model import PowerAllocation, Scheme, SystemParams, require_valid


@dataclass(frozen=True)
class SinrSet:
    """Per-stream linear SINRs for one (scheme, params, allocation) point."""

    sinr_d: float
    sinr_u: float
    sinr_d2d: float
    sinr_bh_d: float
    sinr_bh_u: float


@dataclass(frozen=True)
class RateBreakdown:
    """Per-link rates in bits/s/Hz; ``c_s = c_d + c_u + c_ic`` always."""

    c_d: float
    c_u: float
    c_ic: float
    c_s: float
    c_bh_d: float
    c_bh_u: float
    scheme: Scheme
    alloc: PowerAllocation


def sinr_set(scheme: Scheme, params: SystemParams,
             alloc: PowerAllocation) -> SinrSet:
    """Evaluate the scheme's closed-form per-stream SINRs."""
    kernel = require_valid(params, scheme).kernel
    alloc.check()
    return SinrSet(*_kernels.sinr_tuple(kernel, *alloc.as_tuple()[:5]))


def rates(scheme: Scheme, params: SystemParams,
          alloc: PowerAllocation) -> RateBreakdown:
    """Full rate breakdown for one allocation."""
    kernel = require_valid(params, scheme).kernel
    alloc.check()
    c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u = (
        _kernels.rate_parts(kernel, *alloc.as_tuple()))
    c_ic = c_d2d
    if params.k_an > 0:
        c_ic += params.k_an * min(relay_dl, relay_ul)
    return RateBreakdown(c_d=c_d, c_u=c_u, c_ic=c_ic, c_s=c_d + c_u + c_ic,
                         c_bh_d=c_bh_d, c_bh_u=c_bh_u,
                         scheme=scheme, alloc=alloc)
