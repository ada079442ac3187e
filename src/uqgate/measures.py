"""Entropy decomposition and expected pairwise divergences over members.

The pairwise measures (EPCE, EPKL, EPJS) average over all M^2 ordered member
pairs including self-pairs; self terms vanish for KL and JS and reduce to
member entropies for cross-entropy, which yields the exact identity
EPKL = EPCE - AU. EPJS still averages over every ordered pair, but computes
each unordered pair once, in sample blocks copied class-major (see
:func:`pairwise_js`), with every bit as an entropy over (B, C) rows would give.
Logs share the 1e-12 clamp from stats, so divergences of disjoint one-hot
rows stay large but finite (about 27.6 nats).

Each measure is computed from a tensor's shared :class:`~uqgate.stats.Ensemble`
view; the functions taking a tensor build that view and delegate.
"""

from __future__ import annotations

import numpy as np

from .ept import PredictionTensor
from .gating import Decomposition
from .stats import LOG_CLAMP, Ensemble, class_sum, entropy, member_probs, sample_blocks

# Partner rows per mixture step of pairwise_js. At 20x20000x10: 1 row 0.24 s,
# 2 to 8 rows 0.18-0.19 s, all 19 partners at once 0.20 s.
JS_ROWS = 4


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
    bound its (M, M, B) and (M, C, B) arrays), and summed in ordered-pair order.
    Each block is copied class-major once, so every mixture step is a
    contiguous row op and :func:`~uqgate.stats.class_sum` adds the class terms
    in numpy's own order; self pairs are member entropies, as (p + p) / 2 == p.
    """
    probs = ens.probs
    m, n, c = probs.shape
    member_h = ens.member_entropy
    diagonal = np.arange(m)
    mix_h_total = np.empty(n)
    for start, stop in sample_blocks(n):
        b = stop - start
        rows = np.ascontiguousarray(probs[:, start:stop].transpose(0, 2, 1))  # (M, C, B)
        mix = np.empty((JS_ROWS, c, b))
        terms = np.empty((JS_ROWS, c, b))
        h = np.empty((m, m, b))  # h[i, j] = H((p_i + p_j) / 2)
        h[diagonal, diagonal] = member_h[:, start:stop]
        for i in range(m):
            for lo in range(i + 1, m, JS_ROWS):
                hi = min(lo + JS_ROWS, m)
                mx, tx = mix[:hi - lo], terms[:hi - lo]
                np.add(rows[i], rows[lo:hi], out=mx)
                mx *= 0.5
                np.maximum(mx, LOG_CLAMP, out=tx)
                np.log(tx, out=tx)
                tx *= mx
                h[i, lo:hi] = h[lo:hi, i] = -class_sum(tx)
        total = np.zeros(b)
        for per_i in h.sum(axis=1):
            total += per_i
        mix_h_total[start:stop] = total
    mean_mix_h = mix_h_total / (m * m)
    return mean_mix_h - member_h.mean(axis=0)


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
