"""Ensemble moments, softmax, entropy, and the per-tensor view all measures share.

All moments are accumulated in float64 regardless of the stored precision of
the input tensor: averaging ~100 binary32 member outputs loses about three
digits otherwise. Entropies are natural-log (nats) throughout, which keeps
the decomposition identities exact without conversion factors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ept import PredictionTensor, _adopt_tensor

# Clamp applied inside logarithms only (see clamped_log): perturbs entropy by
# < 3e-11 nats per class while keeping one-hot rows finite.
LOG_CLAMP = 1e-12

# Values per sample block of a blocked evaluation, M * B * C: bounds every
# (M, B, C) intermediate whatever M and C are; 512-sample blocks at 20x.x10.
BLOCK_VALUES = 512 * 20 * 10


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (subtracts the running max)."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite inputs")
    # A row spanning more than the float range overflows to -inf here: exp gives 0.
    with np.errstate(over="ignore"):
        out = logits - logits.max(axis=axis, keepdims=True)
    np.exp(out, out=out)  # one output array: exp and the division run in place
    out /= out.sum(axis=axis, keepdims=True)
    return out


def clamped_log(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln max(p, LOG_CLAMP), the one log of a probability; into ``out`` (may be ``p``) if given."""
    out = np.maximum(p, LOG_CLAMP, out=out)
    return np.log(out, out=out)


def entropy(dist: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in nats, with the convention 0 * ln 0 = 0.

    Probabilities are clamped to >= 1e-12 inside the log only
    (:func:`clamped_log`); negative entries are rejected.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.min() < 0:
        raise ValueError(f"negative probability {dist.min()} passed to entropy")
    # One temporary, reused in place for the log and the product.
    terms = clamped_log(dist)
    terms *= dist
    return -terms.sum(axis=axis)


def class_sum_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a classes-first (C, ...) float64 array into ``out``, in place.

    Adds in exactly numpy's order for a contiguous last axis (its pairwise
    sum), so the result is bit-identical to numpy's sum over a contiguous
    class axis, signed zeros included. ``x`` is the scratch: it is
    overwritten and nothing is allocated, so a loop that refills one work
    array sums it for free. With the classes first, each class row of a
    C-contiguous ``x`` is one contiguous block. Returns ``out``.
    """
    _pairwise_rows_into(x, out)
    out += 0.0  # numpy's reduce starts from +0.0: -0.0 sums become +0.0
    return out


def _pairwise_rows_into(x: np.ndarray, out: np.ndarray) -> None:
    # numpy's pairwise_sum: in sequence under 8 terms, 8 unrolled accumulators
    # up to 128, else split at n // 2 rounded down to a multiple of 8. The
    # partial sums go into rows of x already added, so ``out`` may be x[0].
    n = len(x)
    if n < 8:
        np.add(x[0], 0.0, out=out)
        for c in range(1, n):
            out += x[c]
        return
    if n <= 128:
        full = n - n % 8
        acc = x[:8]
        for c in range(8, full, 8):
            acc += x[c:c + 8]
        np.add(acc[0::2], acc[1::2], out=acc[0::2])  # r0+r1, r2+r3, r4+r5, r6+r7
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=out)
        for c in range(full, n):
            out += x[c]
        return
    half = n // 2 - (n // 2) % 8
    _pairwise_rows_into(x[:half], out)
    _pairwise_rows_into(x[half:], x[half])
    out += x[half]


def member_probs(tensor: PredictionTensor, samples: slice = slice(None)) -> np.ndarray:
    """Member probabilities of a probs or logits tensor as a float64 (M, N, C) array.

    This is the one place stored values become probabilities. Logits are
    softmaxed row by row. Stored probabilities are clipped to [0, 1]: the
    container allows a 1e-6 slack on them (binary32 rounding), and analysis
    code works on the clipped values. ``samples`` picks a block of samples;
    only that block is copied.
    """
    values = tensor.data[:, samples]
    if tensor.manifest.kind == "logits":
        return softmax(values)  # lies in [0, 1] already: nothing to clip
    return np.clip(values, 0.0, 1.0, dtype=np.float64)  # one float64 copy, binary32 too


def sample_blocks(n: int, block: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of consecutive blocks of ``block`` >= 2 samples covering n.

    The last block takes a lone leftover sample, so no block has one sample
    unless n = 1: numpy sums a lone sample's member terms pairwise, not in
    order, so such a block would change the last bits of member means.
    """
    bounds = [0, *range(block, n - 1, block), n]
    return list(zip(bounds, bounds[1:]))


def ensemble_blocks(tensor: PredictionTensor) -> Iterator[tuple[int, int, Ensemble]]:
    """One :class:`Ensemble` view per sample block, with its [start, stop) bounds.

    Blocks of an M x N x C tensor have max(2, BLOCK_VALUES // (M * C)) samples,
    so a block's (M, B, C) arrays hold about BLOCK_VALUES values whatever M
    and C are. Every per-sample measure of a block's view is bit-identical
    to the same samples of the whole tensor's view, at any block size.
    """
    m, n, c = tensor.data.shape
    for start, stop in sample_blocks(n, max(2, BLOCK_VALUES // (m * c))):
        yield start, stop, Ensemble(member_probs(tensor, slice(start, stop)))


def blockwise(tensor: PredictionTensor, measure: Callable[[Ensemble], object]):
    """``measure`` of every sample block's view, joined along the sample axis.

    ``measure`` returns one per-sample array, or a sequence of them; the
    result is then one joined array, or a list of joined arrays in order.
    Peak memory beyond the payload is one block's work, sized by BLOCK_VALUES,
    plus the per-sample results, held once per block and once joined.
    """
    results = [measure(ens) for _, _, ens in ensemble_blocks(tensor)]
    if isinstance(results[0], np.ndarray):
        return np.concatenate(results)
    return [np.concatenate(column) for column in zip(*results)]


def softmax_tensor(tensor: PredictionTensor) -> PredictionTensor:
    """Convert a logits tensor to a binary64 probs tensor via row softmax."""
    tensor.manifest.require("softmax_tensor", kind="logits")
    return _adopt_tensor(
        member_probs(tensor),  # a fresh array: it becomes the payload
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
        return cls(*blockwise(tensor, lambda ens: (ens.stats.mu, ens.stats.sigma)))

    @property
    def samples(self) -> int:
        return self.mu.shape[0]

    @property
    def classes(self) -> int:
        return self.mu.shape[1]

    @cached_property
    def top2(self) -> tuple[np.ndarray, ...]:
        """Per sample: i, j (as :func:`uqgate.margin.top2`), mu(i), mu(j), sigma(i), sigma(j)."""
        from .margin import check_spreads, top2  # margin imports this module; they stay there

        i, j = top2(self.mu)
        rows = np.arange(self.samples)
        sigma_i, sigma_j = self.sigma[rows, i], self.sigma[rows, j]
        check_spreads(sigma_i, sigma_j)
        return i, j, self.mu[rows, i], self.mu[rows, j], sigma_i, sigma_j


@dataclass(frozen=True)
class Ensemble:
    """One sample block's member probabilities and the quantities all measures share.

    :func:`ensemble_blocks` builds one per block of samples from
    :func:`member_probs`; every measure of a tensor reads these views. Each
    derived array is computed on first use and kept; no (M, N, C)
    intermediate is kept.
    """

    probs: np.ndarray  # (M, N, C) float64 in [0, 1]

    @cached_property
    def stats(self) -> ClassStats:
        return ClassStats(mu=self.probs.mean(axis=0), sigma=self.probs.std(axis=0))

    @cached_property
    def _log_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # entropy(self.probs), sharing its clamped logs with their member mean.
        terms = clamped_log(self.probs)
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
