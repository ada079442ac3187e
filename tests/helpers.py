"""Tensor factories and reference implementations shared by the test modules.

They live here, not in conftest.py: perfbench/tests has a conftest module of
its own, and both test trees are collected in one run.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqgate import (
    ABSENT, PRESENT, UNCERTAIN, ClassStats, CoverageRiskCurve, MulticlassDecisions, make_tensor,
)
from uqgate.stats import class_sum_into


def random_probs(rng, members, samples, classes):
    """Random multiclass member rows (Dirichlet, so rows sum to 1)."""
    return rng.dirichlet(np.ones(classes), size=(members, samples))


def probs_tensor(data, task="multiclass", **kwargs):
    return make_tensor(np.asarray(data, dtype=np.float64), kind="probs", task=task, **kwargs)


def logits_tensor(data, **kwargs):
    return make_tensor(np.asarray(data, dtype=np.float64), kind="logits", **kwargs)


def old_softmax(logits, axis=-1):
    """softmax as three whole arrays (shift, exp, quotient): the in-place one's reference."""
    logits = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def old_softmax_tensor(tensor):
    """The whole-tensor softmax that member_probs replaced: the reference for the blocked one."""
    probs = old_softmax(tensor.data.astype(np.float64), axis=-1)
    return make_tensor(probs, kind="probs", task=tensor.manifest.task, precision="binary64",
                       epoch=tensor.manifest.epoch)


def ordered_pair_js(probs):
    """EPJS of (M, N, C) member probabilities over all M^2 ordered pairs, member by member.

    The reference for the unordered-pair, class-major route of measures.pairwise_js:
    every bit must match.
    """
    def entropy_rows(dist):
        return -(dist * np.log(np.clip(dist, 1e-12, None))).sum(axis=-1)

    m, n, _ = probs.shape
    mix_h_total = np.zeros(n)
    for i in range(m):
        mix_h_total += entropy_rows((probs[i][None, :, :] + probs) / 2.0).sum(axis=0)
    return mix_h_total / (m * m) - entropy_rows(probs).mean(axis=0)


class RowMajorNll:
    """calibration._Nll as whole (B, N, C) arrays summed along their last axis.

    The reference for the class-major work blocks of _Nll: the same call
    interface, so calibration._search can drive either, and every loss must
    match bit for bit.
    """

    def __init__(self, logits, labels, pooled=False):
        self.logits = np.asarray(logits, dtype=np.float64)
        samples = self.logits.shape[1]
        self.label = np.ascontiguousarray(self.logits[:, np.arange(samples), labels])
        self.count = 1 if pooled else self.logits.shape[0]

    def __call__(self, temperatures):
        t = np.asarray(temperatures, dtype=np.float64).reshape(-1, 1)
        maxes = self.logits.max(axis=-1) / t
        sums = np.exp(self.logits / t[..., None] - maxes[..., None]).sum(axis=-1)
        picked = np.exp(self.label / t - maxes) / sums
        losses = -np.log(np.clip(picked, 1e-12, None))
        return losses.reshape(self.count, -1).mean(axis=-1)


def class_sum(x):
    """Sum over axis -2 of a class-major (..., C, B) float64 array, one row op per class step.

    The reference wrapper of stats.class_sum_into: ``class_sum(x)`` is bit-identical to
    ``np.ascontiguousarray(x.swapaxes(-1, -2)).sum(-1)``, signed zeros included, and
    ``x`` is left as it was.
    """
    scratch = np.moveaxis(np.asarray(x, dtype=np.float64), -2, 0).copy()
    return class_sum_into(scratch, np.empty(scratch.shape[1:]))


def block_budget(tensor, samples):
    """The stats.BLOCK_VALUES that splits ``tensor`` into blocks of ``samples`` >= 2 samples."""
    members, _, classes = tensor.data.shape
    return samples * members * classes


@st.composite
def class_stats(draw, max_samples=6, max_classes=5):
    """ClassStats whose means and spreads come often from a few values: ties, zero spreads
    and signed zeros are common, and N = 1 and C = 2 are drawn too."""
    n = draw(st.integers(1, max_samples))
    c = draw(st.integers(2, max_classes))
    means = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    spreads = st.one_of(st.sampled_from([0.0, 0.1, 0.5]), st.floats(0.0, 0.5))
    return ClassStats(mu=draw(hnp.arrays(np.float64, (n, c), elements=means)),
                      sigma=draw(hnp.arrays(np.float64, (n, c), elements=spreads)))


# The margin rule as it was before ClassStats.top2 gathered its six columns: an argsort
# of the class means, and gathers from the (N, C) moments at every use. Every bit of
# the rule's results must match these.


def _old_snr(margin, spread, eps):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        snr = margin / (spread + eps)
    return np.where(np.isnan(snr), 0.0, snr)


def argsort_top2(mu):
    """margin.top2 as a stable argsort of the negated means: the reference of its two argmax
    passes. A (C,) row gives two ints, an (N, C) batch two index arrays."""
    mu = np.asarray(mu, dtype=np.float64)
    order = np.argsort(-np.atleast_2d(mu), axis=1, kind="stable")
    i, j = order[:, 0], order[:, 1]
    return (int(i[0]), int(j[0])) if mu.ndim == 1 else (i, j)


def old_decide_multiclass(stats, k, eps=1e-8):
    rows = np.arange(stats.samples)
    i, j = argsort_top2(stats.mu)
    mu, sigma = stats.mu, stats.sigma
    snr = _old_snr(mu[rows, i] - mu[rows, j], sigma[rows, i] + sigma[rows, j], eps)
    fires = (mu[rows, i] - k * sigma[rows, i]) > (mu[rows, j] + k * sigma[rows, j])
    return MulticlassDecisions(top1=i, top2=j, snr=snr, decision=np.where(fires, i, UNCERTAIN))


def old_gmu_multiclass(stats, eps=1e-8):
    decisions = old_decide_multiclass(stats, 1.0, eps)
    gamma = 1.0 - np.exp(-decisions.snr)
    return 1.0 - stats.mu[np.arange(stats.samples), decisions.top1] * gamma, gamma


def old_coverage_risk(stats, labels, k_grid, eps=1e-8):
    """The whole decision rule at every k, as coverage_risk ran it."""
    ks = np.asarray(k_grid, dtype=np.float64)
    coverage = np.empty(ks.shape)
    risk = np.empty(ks.shape)
    for idx, k in enumerate(ks):
        decision = old_decide_multiclass(stats, float(k), eps).decision
        decided = decision != UNCERTAIN
        coverage[idx] = decided.mean()
        risk[idx] = (decision[decided] != labels[decided]).mean() if decided.any() else np.nan
    return CoverageRiskCurve(k=ks, coverage=coverage, risk=risk)


def old_decide_multilabel(mu_label, sigma_label, k, eps=1e-8):
    u = np.asarray(mu_label, dtype=np.float64)
    sigma = np.asarray(sigma_label, dtype=np.float64)
    mu_i = np.maximum(u, 1.0 - u)
    snr = _old_snr(2.0 * mu_i - 1.0, 2.0 * sigma, eps)
    fires = (mu_i - k * sigma) > (1.0 - mu_i) + k * sigma
    return snr, np.where(fires, np.where(u > 0.5, PRESENT, ABSENT), UNCERTAIN)


def old_gmu_multilabel(mu_label, sigma_label, eps=1e-8):
    u = np.asarray(mu_label, dtype=np.float64)
    sigma = np.asarray(sigma_label, dtype=np.float64)
    mu_i = np.maximum(u, 1.0 - u)
    return 1.0 - mu_i * (1.0 - np.exp(-_old_snr(2.0 * mu_i - 1.0, 2.0 * sigma, eps)))
