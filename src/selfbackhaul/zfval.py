"""Monte-Carlo validation of the zero-forcing precoder model.

Three things are checked against the closed forms used by the rate engine:

* the ZF construction itself is exact per realization (the effective
  channel is diagonal and the AN's own receive antennas sit in nulls);
* the precoder normalization keeps the expected per-stream transmit power
  at its allocated value (mean column norm 1), which rests on the
  inverse-Wishart trace identity ``E[tr((HH^H)^-1)] = m / (n - m)``;
* the large-array per-stream SINR factors: a precoder that holds the
  radiated power per stream exactly at its allocation (unit-norm columns
  per draw) yields an average SINR matching the closed form, with an error
  that shrinks as the arrays grow.

All draws are i.i.d. circularly-symmetric complex Gaussian with per-row
path gains, reproducible for a fixed seed.

A draw is rejected as ill-conditioned when its *gain-normalized* Gram
matrix ``W = D^-1/2 HH^H D^-1/2`` (``D`` the diagonal of row gains) has a
condition number above ``_COND_LIMIT``.  ``W`` is the unit-variance Wishart
draw, so the rule does not depend on how far apart the path gains are: a
stack mixing UE rows at 1e-8 with the AN's own receive rows at 1 is judged
like one at unit gains.  The three batched checks (column norms, Wishart
trace, empirical SINRs) share one chunk loop, ``_screened_sum``, and each
states only its reduction of a chunk's inverse diagonals:
`_complex_rows` draws each chunk of ``_CHUNK`` draws a block of ``_BLOCK``
at a time, and `_inverse_diagonals` forms each block's Gram matrices and
inverses once as it arrives, so only the chunk's scaled real half (50 MiB
for 80 x 160 draws) and one block stay resident.  The loop drops the
ill-conditioned draws and, once the draws are done, fails the check if
more than 1% were rejected; so does the per-draw exactness check.
`_inverse_diagonals` certifies most draws from a norm bound instead of an
eigendecomposition; that changes the work done, not the draws, the
rejections or the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PowerAllocation, Scheme, SystemParams
from .rates import sinr_set

_CHUNK = 512
_BLOCK = 32     # draws per block drawn and screened: bounds the temporaries
_COND_LIMIT = 1e10
_REJECT_FRACTION_LIMIT = 0.01


class IllConditionedError(RuntimeError):
    """Raised when a channel draw is too ill-conditioned to invert."""


@dataclass(frozen=True)
class ChannelDraw:
    """One stacked Rayleigh channel: data rows plus the SI block."""

    h_t: np.ndarray     # (m_t, n_t) channel toward the intended receivers
    h_s: np.ndarray     # (n_r, n_t) channel into the AN's own receivers
    gains: np.ndarray   # (m_t + n_r,) per-row linear path gains


@dataclass(frozen=True)
class PrecoderSample:
    w: np.ndarray       # (n_t, m_t) normalized ZF precoder
    lam: np.ndarray     # (m_t,) normalization factors


@dataclass(frozen=True)
class CheckResult:
    label: str
    empirical: float
    closed_form: float
    rel_error: float


def _complex_rows(rng, count, m, n, gains):
    """Yield (count, m, n) draws with row k variance gains[k], ``_BLOCK``
    draws at a time.

    The stream gives every real part before any imaginary part: the real
    half is drawn and scaled first, and each block is completed as its
    imaginary parts are drawn.  The values, and the generator's end state,
    are those of ``(a + 1j * b) * scale`` over the whole chunk.
    """
    scale = np.sqrt(np.asarray(gains, dtype=float) / 2.0)[None, :, None]
    real = rng.standard_normal((count, m, n))
    real *= scale
    for start in range(0, count, _BLOCK):
        z = real[start:start + _BLOCK].astype(complex)
        np.multiply(rng.standard_normal(z.shape), scale, out=z.imag)
        yield z


def _well_conditioned(gram, gains):
    """Eigenvalue rule on the gain-normalized Gram matrix (one or a stack).

    True where ``W = D^-1/2 gram D^-1/2`` is positive definite with a
    condition number of at most ``_COND_LIMIT``.
    """
    r = np.sqrt(gains)
    eigs = np.linalg.eigvalsh(gram / (r[:, None] * r[None, :]))
    return (eigs[..., 0] > 0.0) & (eigs[..., -1] / eigs[..., 0] <= _COND_LIMIT)


def _inverse_diagonals(h, gains):
    """(ok, real diagonals of (HH^H)^-1 of the ok draws) for one block of
    draws, where ``ok`` is ``_well_conditioned`` of each draw, reached
    mostly without eigenvalues.

    The whole block is inverted at once; LAPACK inverts each matrix of a
    stack on its own, so every diagonal equals that of the draw inverted
    alone.  For a Hermitian matrix ``||W||_inf ||W^-1||_inf``
    bounds ``cond_2(W)`` from above, and with ``r = sqrt(gains)``
    ``||W||_inf = max((|G| @ (1/r)) / r)`` and
    ``||W^-1||_inf = max((|G^-1| @ r) * r)``.  A draw whose bound is at most
    ``_COND_LIMIT / 2`` (the factor covers the inverse's round-off, about
    cond * eps) and whose inverse diagonal is positive is ok; only the
    others go through ``_well_conditioned``.  A block holding an exactly
    singular draw, on which the batched inverse raises, takes that rule for
    every draw.
    """
    gram = h @ h.conj().transpose(0, 2, 1)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        ok = _well_conditioned(gram, gains)
        return ok, np.linalg.inv(gram[ok]).diagonal(axis1=1, axis2=2).real
    diag = inv.diagonal(axis1=1, axis2=2).real
    r = np.sqrt(gains)
    bound = (np.max((np.abs(gram) @ (1.0 / r)) / r, axis=1)
             * np.max((np.abs(inv) @ r) * r, axis=1))
    ok = (bound <= _COND_LIMIT / 2) & np.all(diag > 0.0, axis=1)
    if not ok.all():
        unsure = np.flatnonzero(~ok)
        ok[unsure] = _well_conditioned(gram[unsure], gains)
    return ok, diag[ok]


def _screened_sum(rng, trials, m, n, gains, f):
    """(sum over chunks of ``f(d)``, number of kept draws) for ``trials``
    (m, n) channels drawn in chunks of ``_CHUNK``, where ``d`` holds the
    inverse diagonals of a chunk's well-conditioned draws, each block
    screened by `_inverse_diagonals` as it is drawn; raises if more than
    ``_REJECT_FRACTION_LIMIT`` of the draws were rejected."""
    total = 0.0
    used = 0
    for done in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - done)
        d = np.concatenate([_inverse_diagonals(h, gains)[1]
                            for h in _complex_rows(rng, count, m, n, gains)])
        total += f(d)
        used += len(d)
    _check_rejections(trials - used, trials)
    return total, used


def draw_channel(n_t: int, n_r: int, m_t: int, gains, seed: int) -> ChannelDraw:
    """Draw one stacked channel realization (reproducible for a seed)."""
    _check_dimensions(n_t, n_r, m_t)
    gains = _checked_gains(gains, m_t + n_r)
    rng = np.random.default_rng(seed)
    stacked = next(_complex_rows(rng, 1, m_t + n_r, n_t, gains))[0]
    return ChannelDraw(h_t=stacked[:m_t], h_s=stacked[m_t:], gains=gains)


def zf_precoder(draw: ChannelDraw) -> PrecoderSample:
    """ZF precoder with expectation-based power normalization.

    The SI rows are stacked into the inversion, so the AN's receive
    antennas are zero-forced.  Raises IllConditionedError when the
    gain-normalized Gram matrix of the stack has a condition number above
    1e10 (the caller is expected to redraw).
    """
    m_t, n_t = draw.h_t.shape
    h = np.vstack([draw.h_t, draw.h_s])
    dof = n_t - h.shape[0]
    if dof <= 0:
        raise ValueError("not enough antennas to zero-force this stack")

    gram = h @ h.conj().T
    if not _well_conditioned(gram, draw.gains):
        raise IllConditionedError("channel stack too ill-conditioned")

    w_unnorm = np.linalg.solve(gram, h).conj().T   # H^H (H H^H)^-1
    lam = np.sqrt(draw.gains[:m_t] * dof)
    return PrecoderSample(w=w_unnorm[:, :m_t] * lam[None, :], lam=lam)


def wishart_trace_closed_form(n_t: int, m: int) -> float:
    """E[tr((HH^H)^-1)] for an m x n_t i.i.d. unit complex Gaussian H.

    Finite for n_t > m; the Monte-Carlo check additionally needs
    n_t > m + 1 for the estimator to have finite variance.
    """
    if n_t <= m:
        raise ValueError("need n_t > m")
    return m / (n_t - m)


def wishart_trace_check(n_t: int, m: int, trials: int, seed: int) -> CheckResult:
    """Empirical mean of tr((HH^H)^-1) for i.i.d. unit complex Gaussian H,
    over the well-conditioned draws.

    The closed form is m / (n_t - m).
    """
    _check_dimensions(n_t, 0, m)
    if n_t <= m + 1:
        raise ValueError("need n_t > m + 1")
    _check_trials(trials)
    total, used = _screened_sum(np.random.default_rng(seed), trials, m, n_t,
                                np.ones(m), lambda d: float(np.sum(d)))
    empirical = total / used
    closed = wishart_trace_closed_form(n_t, m)
    return CheckResult("wishart_trace", empirical, closed,
                       abs(empirical - closed) / closed)


def column_norm_check(n_t: int, m_t: int, n_r: int, trials: int, seed: int,
                      gains=None) -> CheckResult:
    """Monte-Carlo mean of ||w_k||^2 for the normalized precoder (target 1)."""
    _check_dimensions(n_t, n_r, m_t)
    rows = m_t + n_r
    gains = _checked_gains(np.ones(rows) if gains is None else gains, rows)
    dof = n_t - rows
    if dof <= 0:
        raise ValueError("not enough antennas to zero-force this stack")
    _check_trials(trials)

    # ||w_k||^2 = lam_k^2 {(HH^H)^-1}_kk with lam_k^2 = L_k * dof
    lam2 = gains[:m_t] * dof
    total, used = _screened_sum(np.random.default_rng(seed), trials, rows,
                                n_t, gains,
                                lambda d: float(np.sum(d[:, :m_t] * lam2)))
    empirical = total / (used * m_t)
    return CheckResult("precoder_column_norm", empirical, 1.0,
                       abs(empirical - 1.0))


def exactness_check(n_t: int, m_t: int, n_r: int, trials: int,
                    seed: int) -> list:
    """Worst-case per-realization diagonalization and SI-null metrics.

    Returns two CheckResults: the largest off-diagonal magnitude of the
    effective channel relative to its diagonal, and the largest
    ``||H_s W||_F / ||H_s||_F`` over the sampled draws (both ~solver
    round-off, checked against 0).
    """
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    worst_offdiag = 0.0
    worst_null = 0.0
    rejected = 0
    gains = np.ones(m_t + n_r)
    for trial in range(trials):
        draw = draw_channel(n_t, n_r, m_t, gains,
                            seed=int(rng.integers(0, 2 ** 63)))
        try:
            sample = zf_precoder(draw)
        except IllConditionedError:
            rejected += 1
            continue
        eff = draw.h_t @ sample.w
        off = eff - np.diag(np.diagonal(eff))
        worst_offdiag = max(worst_offdiag,
                            float(np.max(np.abs(off)) / np.min(sample.lam)))
        null = (np.linalg.norm(draw.h_s @ sample.w)
                / np.linalg.norm(draw.h_s))
        worst_null = max(worst_null, float(null))
    _check_rejections(rejected, trials)
    return [CheckResult("effective_channel_offdiag", worst_offdiag, 0.0,
                        worst_offdiag),
            CheckResult("si_null_leakage", worst_null, 0.0, worst_null)]


# -- empirical SINR validation -------------------------------------------


def _link_stacks(scheme: Scheme, params: SystemParams,
                 alloc: PowerAllocation):
    """(streams, stacks) of the scheme's ZF inversions.

    ``streams[link]`` is the link's (stream count, row gain, per-stream
    power).  Each stack is (antennas, the (link, SINR denominator) pairs
    of its streams in row order, the (count, gain) null rows below them).
    """
    p, a = params, alloc
    d_str = p.d - p.k_d2d
    streams = {
        "dl": (d_str, p.l_ue, a.p_d / d_str if d_str > 0 else 0.0),
        "ul": (p.u, p.l_ue, a.p_u),
        "bh_d": (p.m_bh_r, p.l_bh,
                 a.p_bh_d / p.m_bh_r if p.m_bh_r > 0 else 0.0),
        "bh_u": (p.m_bh_t, p.l_bh,
                 a.p_bh_u / p.m_bh_t if p.m_bh_t > 0 else 0.0)}
    if scheme is Scheme.FULL_DUPLEX:
        iui = p.l_ud * ((p.u - p.k_d2d) * a.p_u + p.k_d2d * a.p_u_d2d)
        si = p.alpha * (a.p_d + a.p_bh_u)
        stacks = [
            (p.n_t, (("dl", p.sigma_n2 + iui), ("bh_u", p.sigma_n2)),
             ((p.k_d2d, p.l_ue), (p.n_r, 1.0))),
            (p.n_r, (("ul", p.sigma_n2 + si), ("bh_d", p.sigma_n2 + si)), ()),
        ]
    elif scheme is Scheme.HALF_DUPLEX:
        stacks = [
            (p.n_t, (("dl", p.sigma_n2), ("bh_u", p.sigma_n2)), ()),
            (p.n_r, (("ul", p.sigma_n2), ("bh_d", p.sigma_n2)), ()),
        ]
    else:
        # hybrid relay: DL with incoming backhaul in one slot, UL with
        # outgoing backhaul (and D2D) in the other
        stacks = [
            (p.n_t, (("dl", p.sigma_n2),), ((p.n_r, 1.0),)),
            (p.n_r, (("bh_d", p.sigma_n2 + p.alpha * a.p_d),), ()),
            (p.n_t, (("bh_u", p.sigma_n2),),
             ((p.k_d2d, p.l_ue), (p.n_r, 1.0))),
            (p.n_r, (("ul", p.sigma_n2 + p.alpha * a.p_bh_u),), ()),
        ]
    return streams, stacks


def _check_dimensions(n_t: int, n_r: int, m_t: int):
    if n_t < 1 or n_r < 0 or m_t < 1:
        raise ValueError("dimensions must be positive")


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")


def _checked_gains(gains, rows: int):
    """``gains`` as a float array, one positive finite gain per row."""
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (rows,):
        raise ValueError(
            f"expected {rows} gains (data rows + SI rows), got {gains.shape}")
    # the condition test divides each row by the square root of its gain
    if not np.all(np.isfinite(gains) & (gains > 0.0)):
        raise ValueError("path gains must be positive and finite")
    return gains


def _check_rejections(rejected: int, trials: int):
    if rejected > _REJECT_FRACTION_LIMIT * trials:
        raise RuntimeError(
            f"rejected {rejected}/{trials} ill-conditioned draws "
            f"(limit {_REJECT_FRACTION_LIMIT:.0%})")


def empirical_sinr_check(params: SystemParams, scheme: Scheme,
                         alloc: PowerAllocation, trials: int,
                         seed: int) -> list:
    """Monte-Carlo per-link SINRs against the closed forms.

    Returns one CheckResult per array link (dl, ul, bh_d, bh_u as
    applicable); links with zero allocated power report 0 exactly.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    closed = sinr_set(scheme, params, alloc)   # validates params and alloc
    closed_map = {"dl": closed.sinr_d, "ul": closed.sinr_u,
                  "bh_d": closed.sinr_bh_d, "bh_u": closed.sinr_bh_u}

    rng = np.random.default_rng(seed)
    streams, stacks = _link_stacks(scheme, params, alloc)
    results = []
    for n, denoms, null_rows in stacks:
        served = [(link, denom) for link, denom in denoms
                  if streams[link][0] > 0]
        if not served:
            continue
        counts, row_gains = zip(*[streams[link][:2] for link, _ in served],
                                *null_rows)
        gains = np.repeat(np.asarray(row_gains, dtype=float), counts)
        # Per draw the precoder columns are renormalized to unit norm, so
        # each stream radiates exactly its allocated power; the received
        # signal power of stream k is then p_k / {(HH^H)^-1}_kk.
        m_data = sum(counts[:len(served)])
        sums, used = _screened_sum(
            rng, trials, gains.size, n, gains,
            lambda d: np.sum(1.0 / d[:, :m_data], axis=0))
        offset = 0
        for link, denom in served:
            count, _, p_stream = streams[link]
            cf = closed_map[link]
            block = sums[offset:offset + count]
            offset += count
            empirical = (p_stream * float(np.mean(block)) / used / denom
                         if p_stream > 0.0 and cf > 0.0 else 0.0)
            results.append(CheckResult(
                link, empirical, cf, abs(empirical - cf) / cf if cf else 0.0))
    return results
