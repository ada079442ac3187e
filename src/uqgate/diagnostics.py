"""Diversity timelines, collapse detection, selective prediction, OOD, ECE.

Ensemble diversity is summarized as the global mean of the per-class
standard deviations: permutation-invariant, O(NC), and exactly zero when
every member coincides. A committee has collapsed once this scalar drops
below a threshold tau, after which every disagreement-based measure (EU,
EPKL, EPJS) vanishes and the gate sensitivity k stops mattering.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .ept import EptValidationError, PredictionTensor
from .margin import DEFAULT_EPS, _fires, check_k
from .stats import ClassStats, blockwise


class DiversitySeries(NamedTuple):
    """Per-epoch diversity values and the first epoch below tau (if any)."""

    epochs: np.ndarray
    values: np.ndarray
    tau: float
    collapse_epoch: int | None


class CoverageRiskCurve(NamedTuple):
    """Coverage and selective risk per gate sensitivity k.

    risk is NaN at k values where nothing is decided (never silently 0).
    """

    k: np.ndarray
    coverage: np.ndarray
    risk: np.ndarray


def diversity(tensor: PredictionTensor) -> float:
    """Mean ensemble standard deviation over all samples and classes."""
    return float(blockwise(tensor, lambda ens: ens.stats.sigma).mean())


def check_tau(tau: float) -> None:
    """The one collapse-threshold rule, shared by :func:`collapse_epoch` and the CLI: tau > 0."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")


def _summary(tensor: PredictionTensor) -> tuple[tuple[int, int], int | None, float]:
    """What :func:`collapse_epoch` keeps of a snapshot: (N, C), epoch, diversity."""
    manifest = tensor.manifest
    return (manifest.samples, manifest.classes), manifest.epoch, diversity(tensor)


def collapse_epoch(
    snapshots: Iterable[PredictionTensor], tau: float = 1e-3
) -> DiversitySeries:
    """Diversity per snapshot plus the first epoch with diversity < tau.

    Epochs come from the manifests (falling back to list position) and must
    be strictly increasing; all snapshots must share (N, C). Snapshots are
    read one at a time, so a generator keeps one of them in memory: each is
    summarised, and dropped, before the next is read.
    """
    shape = None
    epochs = []
    values = []
    for position, (found, epoch, value) in enumerate(map(_summary, snapshots)):
        if shape is None:
            check_tau(tau)  # here, not before the loop: no snapshot at all is the first error
            shape = found
        elif found != shape:
            raise EptValidationError(
                f"snapshot {position} has shape {found}, expected {shape}"
            )
        epochs.append(position if epoch is None else epoch)
        values.append(value)
    if shape is None:
        raise ValueError("need at least one snapshot")
    epochs = np.asarray(epochs, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(epochs) > 1 and not (np.diff(epochs) > 0).all():
        raise ValueError("epochs must be strictly increasing")
    below = np.flatnonzero(values < tau)
    collapsed = int(epochs[below[0]]) if below.size else None
    return DiversitySeries(epochs=epochs, values=values, tau=tau, collapse_epoch=collapsed)


def coverage_risk(
    stats: ClassStats,
    labels: np.ndarray,
    k_grid: Sequence[float],
    eps: float = DEFAULT_EPS,
) -> CoverageRiskCurve:
    """Coverage (fraction decided) and risk (error rate among decided) per k.

    eps does not affect the curve: it enters only the SNR, and the rule
    does not read the SNR.
    """
    labels = np.asarray(labels)
    if labels.shape != (stats.samples,):
        raise ValueError(
            f"labels shape {labels.shape} does not match {stats.samples} samples"
        )
    return _coverage_curve(stats.top2, labels, k_grid)


def _coverage_curve(top2, labels: np.ndarray, k_grid: Sequence[float]) -> CoverageRiskCurve:
    """:func:`coverage_risk` on the rule's columns, ``ClassStats.top2``, and matching labels."""
    i, _, mu_i, mu_j, sigma_i, sigma_j = top2
    wrong = i != labels
    ks = np.asarray(k_grid, dtype=np.float64)
    coverage = np.empty(ks.shape)
    risk = np.empty(ks.shape)
    for idx, k in enumerate(ks):
        check_k(float(k))
        decided = _fires(float(k), mu_i, mu_j, sigma_i, sigma_j)
        coverage[idx] = decided.mean()
        risk[idx] = wrong[decided].mean() if decided.any() else np.nan
    return CoverageRiskCurve(k=ks, coverage=coverage, risk=risk)


def auroc(scores_negative: np.ndarray, scores_positive: np.ndarray) -> float:
    """Probability a positive outscores a negative, ties at 1/2 (Mann-Whitney).

    Midrank tie handling makes this exact, not an approximation.
    """
    neg = np.asarray(scores_negative, dtype=np.float64).ravel()
    pos = np.asarray(scores_positive, dtype=np.float64).ravel()
    if neg.size == 0 or pos.size == 0:
        raise ValueError("both score lists must be non-empty")
    if not (np.isfinite(neg).all() and np.isfinite(pos).all()):
        raise ValueError("scores must be finite")
    ranks = _midranks(np.concatenate([neg, pos]))
    u = ranks[neg.size:].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (neg.size * pos.size))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given the mean of their ranks (``rankdata`` "average")."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Tied runs [start, end) of sorted positions; each shares rank (start + end + 1) / 2.
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks


def ece(mean_probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error with equal-width bins on max probability."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    probs = np.asarray(mean_probs, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (probs.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match {probs.shape[0]} samples"
        )
    confidence = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    indices = np.minimum((confidence * bins).astype(np.int64), bins - 1)
    total = 0.0
    for b in range(bins):
        in_bin = indices == b
        count = in_bin.sum()
        if count == 0:
            continue
        gap = abs(correct[in_bin].mean() - confidence[in_bin].mean())
        total += (count / probs.shape[0]) * gap
    return float(total)
