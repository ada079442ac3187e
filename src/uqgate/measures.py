"""Entropy decomposition and expected pairwise divergences over members.

The pairwise measures (EPCE, EPKL, EPJS) average over all M^2 ordered member
pairs including self-pairs; self terms vanish for KL and JS and reduce to
member entropies for cross-entropy, which yields the exact identity
EPKL = EPCE - AU. EPJS still averages over every ordered pair, but computes
each unordered pair once, in sample blocks. Logs share the 1e-12 clamp from
stats, so divergences of disjoint one-hot rows stay large but finite (about
27.6 nats).

Each measure is computed from a tensor's shared :class:`~uqgate.stats.Ensemble`
view; the functions taking a tensor build that view and delegate.
"""

from __future__ import annotations

import numpy as np

from .ept import PredictionTensor
from .gating import Decomposition
from .stats import Ensemble, entropy, member_probs, sample_blocks


def decompose(ens: Ensemble) -> Decomposition:
    """Ungated per-sample TU/AU/EU: entropy of the mean, mean entropy, difference."""
    tu = entropy(ens.stats.mu)
    au = ens.member_entropy.mean(axis=0)
    return Decomposition(tu=tu, au=au, eu=tu - au)


def pairwise_ce(ens: Ensemble) -> np.ndarray:
    """Expected pairwise cross-entropy per sample, in nats.

    CE is bilinear in (p_m, log p_m'), so the ordered-pair average
    factorizes into mean probabilities against mean log-probabilities.
    """
    return -(ens.stats.mu * ens.mean_log_probs).sum(axis=-1)


def pairwise_kl(ens: Ensemble) -> np.ndarray:
    """Expected pairwise KL divergence per sample, in nats: EPCE - AU."""
    return pairwise_ce(ens) - ens.member_entropy.mean(axis=0)


def pairwise_js(ens: Ensemble) -> np.ndarray:
    """Expected pairwise Jensen-Shannon divergence per sample, in nats.

    JS(p, q) = H((p + q) / 2) - (H(p) + H(q)) / 2; bounded by ln 2. The mean
    still covers all M^2 ordered pairs, but each unordered pair's mixture
    entropy (H_ij = H_ji bit for bit: IEEE addition commutes) is computed
    once, over the sample blocks of :func:`~uqgate.stats.sample_blocks` (which
    bound its (M, M, B) and (M, B, C) arrays), and summed in ordered-pair order.
    """
    probs = ens.probs
    m, n, _ = probs.shape
    mix_h_total = np.empty(n)
    for start, stop in sample_blocks(n):
        block = probs[:, start:stop]
        h = np.empty((m, m, block.shape[1]))  # h[i, j] = H((p_i + p_j) / 2)
        for i in range(m):
            h[i, i:] = h[i:, i] = entropy((block[i] + block[i:]) / 2.0)
        total = np.zeros(block.shape[1])
        for per_i in h.sum(axis=1):
            total += per_i
        mix_h_total[start:stop] = total
    mean_mix_h = mix_h_total / (m * m)
    return mean_mix_h - ens.member_entropy.mean(axis=0)


def standard_decomposition(tensor: PredictionTensor) -> Decomposition:
    """Ungated TU/AU/EU of a probs or logits tensor (see :func:`decompose`)."""
    return decompose(Ensemble(member_probs(tensor)))


def epce(tensor: PredictionTensor) -> np.ndarray:
    """EPCE per sample of a probs or logits tensor (see :func:`pairwise_ce`)."""
    return pairwise_ce(Ensemble(member_probs(tensor)))


def epkl(tensor: PredictionTensor) -> np.ndarray:
    """EPKL per sample of a probs or logits tensor (see :func:`pairwise_kl`)."""
    return pairwise_kl(Ensemble(member_probs(tensor)))


def epjs(tensor: PredictionTensor) -> np.ndarray:
    """EPJS per sample of a probs or logits tensor (see :func:`pairwise_js`)."""
    return pairwise_js(Ensemble(member_probs(tensor)))
