"""Scalar hot kernels for the per-scheme SINR and rate closed forms.

These functions sit in the innermost loop of the multi-start optimizer:
every objective and constraint evaluation lands here, one scalar point
per call, in plain Python (`math` on floats; no arrays are built).

All inputs are linear units: powers in mW, gains dimensionless.
Scheme ids: 0 = full duplex, 1 = half duplex, 2 = hybrid relay.
"""

import math

FD, HD, RL = 0, 1, 2


def sinr_tuple(scheme, n_t, n_r, m_bh_t, m_bh_r, d, u, k_d2d, k_an,
               sigma_n2, l_ue, l_ud, l_bh, alpha,
               p_d, p_u, p_bh_d, p_bh_u, p_u_d2d):
    """Per-stream linear SINRs (dl, ul, d2d, bh_dl, bh_ul) for one scheme.

    Zero-power streams and empty stream groups yield SINR 0 (continuous
    limit of the closed forms).
    """
    d_str = d - k_d2d           # DL receivers sharing the AN transmit power
    sinr_d = 0.0
    sinr_u = 0.0
    sinr_d2d = 0.0
    sinr_bh_d = 0.0
    sinr_bh_u = 0.0

    if k_d2d > 0 and p_u_d2d > 0.0:
        sinr_d2d = 1.0 / ((k_d2d - 1) + sigma_n2 / (l_ud * p_u_d2d)
                          + p_u / p_u_d2d)

    if scheme == FD:
        if d_str > 0 and p_d > 0.0:
            iui = l_ud * (u - k_d2d) * p_u + l_ud * k_d2d * p_u_d2d
            sinr_d = (l_ue * (n_t - d - m_bh_t - n_r) * p_d
                      / (d_str * (sigma_n2 + iui)))
        if p_u > 0.0:
            sinr_u = (l_ue * (n_r - u - m_bh_r) * p_u
                      / (sigma_n2 + alpha * (p_d + p_bh_u)))
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = (l_bh * (n_r - u - m_bh_r) * p_bh_d
                         / (m_bh_r * (sigma_n2 + alpha * (p_d + p_bh_u))))
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = (l_bh * (n_t - d - m_bh_t - n_r) * p_bh_u
                         / (m_bh_t * sigma_n2))
    elif scheme == HD:
        if d_str > 0 and p_d > 0.0:
            sinr_d = ((n_t - d + k_d2d - m_bh_t) * l_ue * p_d
                      / (d_str * sigma_n2))
        if p_u > 0.0:
            sinr_u = (n_r - u - m_bh_r) * l_ue * p_u / sigma_n2
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = ((n_r - u - m_bh_r) * l_bh * p_bh_d
                         / (m_bh_r * sigma_n2))
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = ((n_t - d + k_d2d - m_bh_t) * l_bh * p_bh_u
                         / (m_bh_t * sigma_n2))
    else:  # RL
        if d_str > 0 and p_d > 0.0:
            sinr_d = ((n_t - d + k_d2d - n_r) * l_ue * p_d
                      / (d_str * sigma_n2))
        if p_u > 0.0:
            sinr_u = ((n_r - u) * l_ue * p_u
                      / (sigma_n2 + alpha * p_bh_u))
        if m_bh_r > 0 and p_bh_d > 0.0:
            sinr_bh_d = ((n_r - m_bh_r) * l_bh * p_bh_d
                         / (m_bh_r * (sigma_n2 + alpha * p_d)))
        if m_bh_t > 0 and p_bh_u > 0.0:
            sinr_bh_u = ((n_t - m_bh_t - k_d2d - n_r) * l_bh * p_bh_u
                         / (m_bh_t * sigma_n2))

    return sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u


def rate_parts(scheme, n_t, n_r, m_bh_t, m_bh_r, d, u, k_d2d, k_an,
               sigma_n2, l_ue, l_ud, l_bh, alpha,
               p_d, p_u, p_bh_d, p_bh_u, p_u_d2d, eta):
    """Rate components in bits/s/Hz.

    Returns (c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u) where
    relay_dl / relay_ul are the time-weighted per-pair rates whose minimum
    is the rate of each AN-relayed pair (see `rates.rates`).
    """
    sinr_d, sinr_u, sinr_d2d, sinr_bh_d, sinr_bh_u = sinr_tuple(
        scheme, n_t, n_r, m_bh_t, m_bh_r, d, u, k_d2d, k_an,
        sigma_n2, l_ue, l_ud, l_bh, alpha,
        p_d, p_u, p_bh_d, p_bh_u, p_u_d2d)

    if scheme == FD:
        w_d = 1.0
        w_u = 1.0
    else:
        w_d = eta
        w_u = 1.0 - eta

    r_d = math.log2(1.0 + sinr_d)
    r_u = math.log2(1.0 + sinr_u)

    c_d = w_d * (d - k_d2d - k_an) * r_d
    c_u = w_u * (u - k_d2d - k_an) * r_u
    c_d2d = w_u * k_d2d * math.log2(1.0 + sinr_d2d)
    relay_dl = w_d * r_d
    relay_ul = w_u * r_u

    # Backhaul reception shares the DL slot under RL but the UL slot under
    # HD; full duplex runs both continuously.
    if scheme == FD:
        w_bh_d = 1.0
        w_bh_u = 1.0
    elif scheme == HD:
        w_bh_d = 1.0 - eta
        w_bh_u = eta
    else:
        w_bh_d = eta
        w_bh_u = 1.0 - eta

    c_bh_d = w_bh_d * m_bh_r * math.log2(1.0 + sinr_bh_d)
    c_bh_u = w_bh_u * m_bh_t * math.log2(1.0 + sinr_bh_u)

    return c_d, c_u, c_d2d, relay_dl, relay_ul, c_bh_d, c_bh_u

