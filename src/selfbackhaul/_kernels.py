"""Scalar hot kernels for the SINR and rate closed forms.

These functions sit in the innermost loop of the multi-start optimizer:
every objective and constraint evaluation lands here, one scalar point
per call, in plain Python (`math` on floats; no arrays are built).  One
formula set serves every scheme: the array gains, interference and time
weights come in the coefficient tuple ``coef`` that `model.links` derives
from the slot table `model.SLOTS`.  Powers are in mW, gains
dimensionless.
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
