"""Tensor factories and reference implementations shared by the test modules.

They live here, not in conftest.py: perfbench/tests has a conftest module of
its own, and both test trees are collected in one run.
"""

import numpy as np

from uqgate import make_tensor
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
