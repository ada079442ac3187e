"""Entropy decomposition and expected pairwise divergences over members.

The pairwise measures (EPCE, EPKL, EPJS) average over all M^2 ordered member
pairs including self-pairs; self terms vanish for KL and JS and reduce to
member entropies for cross-entropy, which yields the exact identity
EPKL = EPCE - AU. EPJS computes each unordered pair once, member by member
on a class-major copy of the block, with every bit of the ordered-pair sum
over (B, C) rows and no array that grows with M^2 (see :func:`pairwise_js`).
Every log is stats.clamped_log, whose 1e-12 clamp belongs to stats alone, so
divergences of disjoint one-hot rows stay large but finite (about 27.6 nats).

Each measure is computed from one sample block's shared
:class:`~uqgate.stats.Ensemble` view; the functions taking a tensor map it
over the tensor's blocks with :func:`~uqgate.stats.blockwise`. A block's
named scores, standard and gated TU/AU/EU, EPCE/EPKL/EPJS and GMU, form one
table, :data:`SCORES`, that the CLI's report and ood select from.
"""

from __future__ import annotations

import numpy as np

from . import gating, margin
from .ept import PredictionTensor
from .gating import Decomposition, GateConfig
from .stats import Ensemble, blockwise, clamped_log, class_sum_into, entropy
from .stats import member_probs  # noqa: F401  (kept bound here: perfbench's tracer wraps it)


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
    """Expected pairwise Jensen-Shannon divergence per sample of one block's view, in nats.

    JS(p, q) = H((p + q) / 2) - (H(p) + H(q)) / 2; bounded by ln 2. The mean
    covers all M^2 ordered pairs, with every bit of summing each member i's
    row of H((p_i + p_j) / 2) in partner order. On a classes-first (C, M, B)
    copy, step i adds member i to its partners j > i in contiguous
    (C, M - 1 - i, B) scratch, and :func:`~uqgate.stats.class_sum_into` adds
    the class terms in numpy's order, in place. So each unordered pair is
    computed once (IEEE addition commutes); rows collect their terms j < i
    as steps j make them. numpy adds a one-sample block's row pairwise, so
    there step i takes all M partners. Self pairs are member entropies, as
    (p + p) / 2 == p. Beyond the budget of :func:`~uqgate.stats.ensemble_blocks`
    (the copy and the scratch), it keeps two (M, B) arrays.
    """
    m, b, c = ens.probs.shape
    member_h = ens.member_entropy
    rows = np.ascontiguousarray(ens.probs.transpose(2, 0, 1))  # (C, M, B)
    mix, terms = np.empty(c * m * b), np.empty(c * m * b)
    head = np.zeros((m, b))  # head[i]: the sum of row i's terms j < i
    line = np.empty((m, b))
    lone = b == 1
    mix_h_total = np.zeros(b)
    for i in range(m):
        row = line if lone else line[i:]  # row i: all M terms, or head[i] + H(p_i) first
        new = row if lone else row[1:]
        if k := len(new):
            mx, tx = mix[:c * k * b].reshape(c, k, b), terms[:c * k * b].reshape(c, k, b)
            np.add(rows[:, m - k:], rows[:, i:i + 1], out=mx)
            mx *= 0.5
            clamped_log(mx, out=tx)
            tx *= mx
            np.negative(class_sum_into(tx, out=new), out=new)
            head[m - k:] += new
        if not lone:
            np.add(head[i], member_h[i], out=row[0])
        mix_h_total += row.sum(axis=0)
    return mix_h_total / (m * m) - member_h.mean(axis=0)


def _standard(ens: Ensemble, cfg: GateConfig) -> Decomposition:
    return decompose(ens)


def _gated(ens: Ensemble, cfg: GateConfig) -> Decomposition:
    return gating.decompose_gated(ens, cfg)


# Name -> (function of a block's view and the gate, field of its result or None for
# all of it). Each function looks its measure up when called, so a wrapper bound
# over the measure's name later is the one that runs.
SCORES = {
    **{part: (_standard, part) for part in Decomposition._fields},
    "epce": (lambda ens, cfg: pairwise_ce(ens), None),
    "epkl": (lambda ens, cfg: pairwise_kl(ens), None),
    "epjs": (lambda ens, cfg: pairwise_js(ens), None),
    "gmu": (lambda ens, cfg: margin.gmu_multiclass(ens.stats, eps=cfg.epsilon)[0], None),
    **{f"gated_{part}": (_gated, part) for part in Decomposition._fields},
}


def block_scores(ens: Ensemble, names, cfg: GateConfig) -> list[np.ndarray]:
    """The named :data:`SCORES` of one sample block's view, in the order named.

    Each function of the table runs once, whichever of its parts are named; only
    its per-sample results are kept, until this call returns.
    """
    picked = [SCORES[name] for name in names]
    results = {measure: measure(ens, cfg) for measure in dict.fromkeys(m for m, _ in picked)}
    return [results[m] if part is None else getattr(results[m], part) for m, part in picked]


def standard_decomposition(tensor: PredictionTensor) -> Decomposition:
    """Ungated TU/AU/EU of a probs or logits tensor (see :func:`decompose`)."""
    return Decomposition(*blockwise(tensor, decompose))


def epce(tensor: PredictionTensor) -> np.ndarray:
    """EPCE per sample of a probs or logits tensor (see :func:`pairwise_ce`)."""
    return blockwise(tensor, pairwise_ce)


def epkl(tensor: PredictionTensor) -> np.ndarray:
    """EPKL per sample of a probs or logits tensor (see :func:`pairwise_kl`)."""
    return blockwise(tensor, pairwise_kl)


def epjs(tensor: PredictionTensor) -> np.ndarray:
    """EPJS per sample of a probs or logits tensor (see :func:`pairwise_js`)."""
    return blockwise(tensor, pairwise_js)
