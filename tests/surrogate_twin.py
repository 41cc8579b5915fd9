"""Frozen-routing numpy twin of the coverage regularizer for gradient checks.

The straight-through backward differentiates a locally smooth function in
which the hard indicator values and the sort permutation are frozen at the
evaluation point while each indicator contributes its band surrogate's
deviation from the center (clip(u, -tau, tau), unit slope on the band).
This module rebuilds that exact function so central finite differences can
validate the implementation's gradients independently. It also holds
`rank_statistic_quotient`, the rank statistic straight from linear density
values, which the scale-invariance checks compare across rescalings.
"""

import numpy as np


def band(u, tau):
    return np.clip(u, -tau, tau)


class RegularizerTwin:
    def __init__(self, lp_star, lp_draws, log_prop, tau=1.0, mode="calibration",
                 loss_form="sorting", levels=(0.25, 0.5, 0.75)):
        self.log_prop = np.asarray(log_prop, dtype=np.float64)
        self.tau = tau
        self.mode = mode
        self.loss_form = loss_form
        self.levels = levels
        # frozen quantities from the center point
        self.shift = np.maximum(lp_star, lp_draws.max(axis=1, keepdims=True))
        self.w_shift = (lp_draws - self.log_prop).max(axis=1, keepdims=True)
        u0 = np.exp(lp_star - self.shift) - np.exp(lp_draws - self.shift)
        self.s_hard = (u0 > 0).astype(np.float64)
        self.s_band0 = band(u0, tau)
        alpha0 = self._alpha(lp_star, lp_draws)
        n = alpha0.size
        self.perm = np.argsort(alpha0, kind="stable")
        # rectifier masks frozen at the center (the backward's subgradient)
        self.sort_gap_mask = (np.arange(1, n + 1) / n - alpha0[self.perm]) > 0
        self.m_hard = {}
        self.m_band0 = {}
        self.direct_gap_mask = {}
        for level in levels:
            v0 = alpha0 - level
            self.m_hard[level] = (v0 > 0).astype(np.float64)
            self.m_band0[level] = band(v0, tau)
            self.direct_gap_mask[level] = (np.mean(1.0 - self.m_hard[level])
                                           - level) > 0

    def _alpha(self, lp_star, lp_draws, use_surrogate=False):
        u = np.exp(lp_star - self.shift) - np.exp(lp_draws - self.shift)
        if use_surrogate:
            s = self.s_hard + band(u, self.tau) - self.s_band0
        else:
            s = (u > 0).astype(np.float64)
        w = np.exp(lp_draws - self.log_prop - self.w_shift)
        return (w * s).sum(axis=1) / w.sum(axis=1)

    def value(self, lp_star, lp_draws):
        alpha = self._alpha(lp_star, lp_draws, use_surrogate=True)
        n = alpha.size
        if self.loss_form == "sorting":
            ordered = alpha[self.perm]
            gap = np.arange(1, n + 1) / n - ordered
            if self.mode == "conservative":
                gap = gap * self.sort_gap_mask
            return float(np.mean(gap ** 2))
        total = 0.0
        for level in self.levels:
            v = alpha - level
            s = self.m_hard[level] + band(v, self.tau) - self.m_band0[level]
            gap = np.mean(1.0 - s) - level
            if self.mode == "conservative":
                gap = gap * self.direct_gap_mask[level]
            total += gap ** 2
        return float(total)


def rank_statistic_quotient(dens_star, dens_draws, prop_dens):
    """Rank statistic straight from linear density values (no shifts).

    The scale-invariance seam: multiplying dens_star and dens_draws by an
    exactly representable factor (a power of two) leaves the result
    bit-identical, because the comparison and the self-normalized quotient
    cancel the factor exactly.
    """
    dens_star = np.asarray(dens_star, dtype=np.float64).reshape(-1, 1)
    dens_draws = np.asarray(dens_draws, dtype=np.float64)
    weights = dens_draws / np.asarray(prop_dens, dtype=np.float64)
    indic = (dens_draws < dens_star).astype(np.float64)
    denom = weights.sum(axis=1)
    numer = (weights * indic).sum(axis=1)
    out = np.zeros_like(denom)
    ok = denom > 0
    out[ok] = numer[ok] / denom[ok]
    return out
