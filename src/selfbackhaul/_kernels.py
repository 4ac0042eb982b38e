"""Scalar hot kernels for the SINR and rate closed forms.

These functions sit in the innermost loop of the multi-start optimizer:
every objective, constraint and derivative evaluation lands here, one
scalar point per call, in plain Python (`math` on floats; no arrays are
built).  One formula set serves every scheme: the array gains,
interference and time weights come in the coefficient tuple ``coef`` that
`model.links` derives from the slot table `model.SLOTS`.  Powers are in
mW, gains dimensionless.
"""

import math


def sinr_tuple(coef, p_d, p_u, p_bh_d, p_bh_u, p_u_d2d):
    """Per-stream linear SINRs (dl, ul, d2d, bh_dl, bh_ul).

    Zero-power streams and empty stream groups yield SINR 0 (continuous
    limit of the closed forms).
    """
    # one full unpack is cheaper than slicing out the fields used here
    (k_d2d, d_str, _, _, m_bh_r, m_bh_t, sigma_n2, l_ud, alpha,
     g_d, g_u, g_bh_d, g_bh_u, i_u, i_d2d,
     si_u_d, si_u_bh, si_bh_d_d, si_bh_d_bh, _, _, _, _) = coef
    sinr_d = sinr_u = sinr_d2d = sinr_bh_d = sinr_bh_u = 0.0
    if k_d2d > 0 and p_u_d2d > 0.0:
        sinr_d2d = 1.0 / ((k_d2d - 1) + sigma_n2 / (l_ud * p_u_d2d)
                          + p_u / p_u_d2d)
    if d_str > 0 and p_d > 0.0:
        sinr_d = (g_d * p_d
                  / (d_str * (sigma_n2 + (i_u * p_u + i_d2d * p_u_d2d))))
    if p_u > 0.0:
        sinr_u = (g_u * p_u
                  / (sigma_n2 + alpha * (si_u_d * p_d + si_u_bh * p_bh_u)))
    if m_bh_r > 0 and p_bh_d > 0.0:
        sinr_bh_d = (g_bh_d * p_bh_d
                     / (m_bh_r * (sigma_n2 + alpha * (si_bh_d_d * p_d
                                                      + si_bh_d_bh * p_bh_u))))
    if m_bh_t > 0 and p_bh_u > 0.0:
        sinr_bh_u = g_bh_u * p_bh_u / (m_bh_t * sigma_n2)

    return sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u


def rate_parts(coef, p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta):
    """Rate components in bits/s/Hz.

    Returns (c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u) where
    relay_dl / relay_ul are the time-weighted per-pair rates whose minimum
    is the rate of each AN-relayed pair (see `rates.rates`).
    """
    sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u = sinr_tuple(
        coef, p_d, p_u, p_bh_d, p_bh_u, p_u_d2d)
    (k_d2d, _, n_d, n_u, m_bh_r, m_bh_t, _, _, _, _, _, _, _, _, _, _, _,
     _, _, s_d, s_u, s_bh_d, s_bh_u) = coef
    w = (1.0, eta, 1.0 - eta)
    w_d = w[s_d]
    w_u = w[s_u]

    r_d = math.log2(1.0 + sinr_d)
    r_u = math.log2(1.0 + sinr_u)

    c_d = w_d * n_d * r_d
    c_u = w_u * n_u * r_u
    c_d2d = w_u * k_d2d * math.log2(1.0 + sinr_d2d)
    relay_dl = w_d * r_d
    relay_ul = w_u * r_u
    c_bh_d = w[s_bh_d] * m_bh_r * math.log2(1.0 + sinr_bh_d)
    c_bh_u = w[s_bh_u] * m_bh_t * math.log2(1.0 + sinr_bh_u)

    return c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u


_LOG2_10 = math.log2(10.0)   # d log2(p) / d log10(p)


def rate_parts_jac(coef, p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta):
    """`rate_parts` and its partials, from one call.

    Returns ``(parts, jac)``: ``parts`` equals `rate_parts` at the same
    point, and ``jac[k]`` holds the partials of ``parts[k]`` with respect
    to ``(log10 p_d, log10 p_u, log10 p_bh_d, log10 p_bh_u, log10 p_u_d2d,
    eta)``.  Each stream's SINR is ``S = a p / D`` with an interference
    denominator ``D = b + sum(c q)``, so ``log2(1 + S)`` moves by
    ``e = log2(10) S / (1 + S)`` per decade of its own power and by
    ``-e c q / D`` per decade of each interferer ``q``.  The time weights
    ``(1, eta, 1 - eta)`` have the ``eta`` derivatives ``(0, 1, -1)``.
    Zero-power streams have SINR 0 and zero partials.
    """
    (k_d2d, d_str, n_d, n_u, m_bh_r, m_bh_t, sigma_n2, l_ud, alpha,
     g_d, g_u, g_bh_d, g_bh_u, i_u, i_d2d,
     si_u_d, si_u_bh, si_bh_d_d, si_bh_d_bh, s_d, s_u, s_bh_d, s_bh_u) = coef
    # per stream: SINR, then the partials of log2(1 + SINR) with respect
    # to the five log10 powers; the SINRs are `sinr_tuple`'s expressions
    sinr_d = sinr_u = sinr_d2d = sinr_bh_d = sinr_bh_u = 0.0
    dr_d = dr_u = dr_d2d = dr_bh_d = dr_bh_u = (0.0, 0.0, 0.0, 0.0, 0.0)
    if k_d2d > 0 and p_u_d2d > 0.0:
        sinr_d2d = 1.0 / ((k_d2d - 1) + sigma_n2 / (l_ud * p_u_d2d)
                          + p_u / p_u_d2d)
        # S = 1 / ((k - 1) + (sigma / l_ud + p_u) / q): the own power q
        # also appears in the denominator
        e = _LOG2_10 * sinr_d2d / (1.0 + sinr_d2d)
        dr_d2d = (0.0, -e * sinr_d2d * p_u / p_u_d2d, 0.0, 0.0,
                  e * (1.0 - (k_d2d - 1) * sinr_d2d))
    if d_str > 0 and p_d > 0.0:
        den = sigma_n2 + (i_u * p_u + i_d2d * p_u_d2d)
        sinr_d = g_d * p_d / (d_str * den)
        e = _LOG2_10 * sinr_d / (1.0 + sinr_d)
        dr_d = (e, -e * i_u * p_u / den, 0.0, 0.0,
                -e * i_d2d * p_u_d2d / den)
    if p_u > 0.0:
        den = sigma_n2 + alpha * (si_u_d * p_d + si_u_bh * p_bh_u)
        sinr_u = g_u * p_u / den
        e = _LOG2_10 * sinr_u / (1.0 + sinr_u)
        dr_u = (-e * alpha * si_u_d * p_d / den, e, 0.0,
                -e * alpha * si_u_bh * p_bh_u / den, 0.0)
    if m_bh_r > 0 and p_bh_d > 0.0:
        den = sigma_n2 + alpha * (si_bh_d_d * p_d + si_bh_d_bh * p_bh_u)
        sinr_bh_d = g_bh_d * p_bh_d / (m_bh_r * den)
        e = _LOG2_10 * sinr_bh_d / (1.0 + sinr_bh_d)
        dr_bh_d = (-e * alpha * si_bh_d_d * p_d / den, 0.0, e,
                   -e * alpha * si_bh_d_bh * p_bh_u / den, 0.0)
    if m_bh_t > 0 and p_bh_u > 0.0:
        sinr_bh_u = g_bh_u * p_bh_u / (m_bh_t * sigma_n2)
        e = _LOG2_10 * sinr_bh_u / (1.0 + sinr_bh_u)
        dr_bh_u = (0.0, 0.0, 0.0, e, 0.0)

    w = (1.0, eta, 1.0 - eta)
    dw = (0.0, 1.0, -1.0)
    w_d = w[s_d]
    w_u = w[s_u]
    r_d = math.log2(1.0 + sinr_d)
    r_u = math.log2(1.0 + sinr_u)
    r_d2d = math.log2(1.0 + sinr_d2d)
    r_bh_d = math.log2(1.0 + sinr_bh_d)
    r_bh_u = math.log2(1.0 + sinr_bh_u)

    def row(slot, count, r, dr):
        # partials of w[slot] * count * r
        scale = w[slot] * count
        return (scale * dr[0], scale * dr[1], scale * dr[2], scale * dr[3],
                scale * dr[4], dw[slot] * count * r)

    parts = (w_d * n_d * r_d, w_u * n_u * r_u, w_u * k_d2d * r_d2d,
             w_d * r_d, w_u * r_u, w[s_bh_d] * m_bh_r * r_bh_d,
             w[s_bh_u] * m_bh_t * r_bh_u)
    jac = (row(s_d, n_d, r_d, dr_d), row(s_u, n_u, r_u, dr_u),
           row(s_u, k_d2d, r_d2d, dr_d2d), row(s_d, 1, r_d, dr_d),
           row(s_u, 1, r_u, dr_u), row(s_bh_d, m_bh_r, r_bh_d, dr_bh_d),
           row(s_bh_u, m_bh_t, r_bh_u, dr_bh_u))
    return parts, jac
