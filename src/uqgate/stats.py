"""Ensemble moments, softmax, entropy, and the per-tensor view all measures share.

All moments are accumulated in float64 regardless of the stored precision of
the input tensor: averaging ~100 binary32 member outputs loses about three
digits otherwise. Entropies are natural-log (nats) throughout, which keeps
the decomposition identities exact without conversion factors.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ept import EptValidationError, PredictionTensor, make_tensor

# Clamp applied inside logarithms only: perturbs entropy by < 3e-11 nats per
# class while keeping one-hot rows finite.
LOG_CLAMP = 1e-12

# Samples per block of a blocked evaluation: bounds every (M, B, C) intermediate.
SAMPLE_BLOCK = 1024


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (subtracts the running max)."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite inputs")
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def entropy(dist: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in nats, with the convention 0 * ln 0 = 0.

    Probabilities are clamped to >= 1e-12 inside the log only; negative
    entries are rejected.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.min() < 0:
        raise ValueError(f"negative probability {dist.min()} passed to entropy")
    # One temporary, reused in place for the log and the product.
    terms = np.clip(dist, LOG_CLAMP, None)
    np.log(terms, out=terms)
    terms *= dist
    return -terms.sum(axis=axis)


def class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis -2 of a class-major (..., C, B) float64 array, one row op per class step.

    Adds in exactly numpy's order for a contiguous last axis (its pairwise
    sum), so ``class_sum(x)`` is bit-identical to
    ``np.ascontiguousarray(x.swapaxes(-1, -2)).sum(-1)``, signed zeros included.
    """
    return 0.0 + _pairwise_rows(x)  # numpy's reduce starts from +0.0: -0.0 sums become +0.0


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    # numpy's pairwise_sum: in sequence under 8 terms, 8 unrolled accumulators
    # up to 128, else split at n // 2 rounded down to a multiple of 8.
    n = x.shape[-2]
    if n < 8:
        total = np.zeros(x.shape[:-2] + x.shape[-1:])
        for c in range(n):
            total += x[..., c, :]
        return total
    if n <= 128:
        full = n - n % 8
        acc = x[..., :8, :] if full == 8 else x[..., :8, :] + x[..., 8:16, :]
        for c in range(16, full, 8):
            acc += x[..., c:c + 8, :]
        pairs = acc[..., 0::2, :] + acc[..., 1::2, :]  # r0+r1, r2+r3, r4+r5, r6+r7
        quads = pairs[..., 0::2, :] + pairs[..., 1::2, :]
        total = quads[..., 0, :] + quads[..., 1, :]
        for c in range(full, n):
            total += x[..., c, :]
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_rows(x[..., :half, :]) + _pairwise_rows(x[..., half:, :])


def member_probs(tensor: PredictionTensor, samples: slice = slice(None)) -> np.ndarray:
    """Member probabilities of a probs or logits tensor as a float64 (M, N, C) array.

    This is the one place stored values become probabilities. Logits are
    softmaxed row by row. Stored probabilities are clipped to [0, 1]: the
    container allows a 1e-6 slack on them (binary32 rounding), and analysis
    code works on the clipped values. ``samples`` picks a block of samples;
    only that block is copied.
    """
    values = tensor.data[:, samples].astype(np.float64, copy=False)
    if tensor.manifest.kind == "logits":
        return softmax(values)  # lies in [0, 1] already: nothing to clip
    return np.clip(values, 0.0, 1.0)


def sample_blocks(n: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of consecutive blocks of SAMPLE_BLOCK samples covering n.

    The last block takes a lone leftover sample, so no block has one sample
    unless n = 1: numpy sums a lone sample's member terms pairwise, not in
    order, so such a block would change the last bits of member means.
    """
    bounds = [0, *range(SAMPLE_BLOCK, n - 1, SAMPLE_BLOCK), n]
    return list(zip(bounds, bounds[1:]))


def ensemble_blocks(tensor: PredictionTensor) -> Iterator[tuple[int, int, Ensemble]]:
    """One :class:`Ensemble` view per sample block, with its [start, stop) bounds.

    Every per-sample measure of a block's view is bit-identical to the same
    samples of the whole tensor's view.
    """
    for start, stop in sample_blocks(tensor.manifest.samples):
        yield start, stop, Ensemble(member_probs(tensor, slice(start, stop)))


def softmax_tensor(tensor: PredictionTensor) -> PredictionTensor:
    """Convert a logits tensor to a binary64 probs tensor via row softmax."""
    if tensor.manifest.kind != "logits":
        raise EptValidationError("softmax_tensor expects kind=logits")
    return make_tensor(
        member_probs(tensor),
        kind="probs",
        task=tensor.manifest.task,
        precision="binary64",
        epoch=tensor.manifest.epoch,
    )


@dataclass(frozen=True)
class ClassStats:
    """Per-sample, per-class ensemble mean and standard deviation.

    mu and sigma are (N, C) arrays; sigma <= 0.5 elementwise for valid
    probability inputs.
    """

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_tensor(cls, tensor: PredictionTensor) -> "ClassStats":
        """Moments of a probs or logits tensor, computed one sample block at a time."""
        blocks = [ens.stats for _, _, ens in ensemble_blocks(tensor)]
        return cls(mu=np.concatenate([block.mu for block in blocks]),
                   sigma=np.concatenate([block.sigma for block in blocks]))

    @property
    def samples(self) -> int:
        return self.mu.shape[0]

    @property
    def classes(self) -> int:
        return self.mu.shape[1]

    @cached_property
    def top2(self) -> tuple[np.ndarray, np.ndarray]:
        """Top-1 and top-2 class indices per sample, as :func:`uqgate.margin.top2`."""
        from .margin import top2  # margin imports this module; top2 stays there

        return top2(self.mu)


@dataclass(frozen=True)
class Ensemble:
    """One tensor's member probabilities and the quantities all measures share.

    Build it once per tensor from :func:`member_probs`. Each derived array is
    computed on first use and kept; no (M, N, C) intermediate is kept.
    """

    probs: np.ndarray  # (M, N, C) float64 in [0, 1]

    @cached_property
    def stats(self) -> ClassStats:
        return ClassStats(mu=self.probs.mean(axis=0), sigma=self.probs.std(axis=0))

    @cached_property
    def _log_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # entropy(self.probs), sharing its clamped logs with their member mean.
        terms = np.clip(self.probs, LOG_CLAMP, None)
        np.log(terms, out=terms)
        mean_log_probs = terms.mean(axis=0)
        terms *= self.probs
        return -terms.sum(axis=-1), mean_log_probs

    @property
    def member_entropy(self) -> np.ndarray:
        """Entropy of every member row, shape (M, N)."""
        return self._log_terms[0]

    @property
    def mean_log_probs(self) -> np.ndarray:
        """Member mean of the clamped log-probabilities, shape (N, C)."""
        return self._log_terms[1]
