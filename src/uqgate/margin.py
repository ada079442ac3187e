"""SNR prediction rules and variance-gated margin uncertainty (GMU).

Multiclass: the margin between the top-2 class means, scaled by their
combined spread, drives both an abstention rule and the gated score

    GMU = 1 - mu(i) * (1 - exp(-(mu(i) - mu(j)) / (sigma(i) + sigma(j) + eps)))

Multilabel: each label is a two-way decision against its complement, with
mu(i) = max(u, 1 - u) folding the raw mean u; the complement inherits the
same sigma, so the margin is 2 mu(i) - 1 over spread 2 sigma.

Decisions are integer codes: the predicted class index when the rule fires,
UNCERTAIN (-1) otherwise; multilabel uses PRESENT / ABSENT / UNCERTAIN.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gating import DEFAULT_EPS, check_k
from .stats import ClassStats

UNCERTAIN = -1
ABSENT = 0
PRESENT = 1


class MulticlassDecisions(NamedTuple):
    """Vectorized per-sample rule output.

    decision holds the top-1 class index where the rule fires and
    UNCERTAIN (-1) elsewhere. snr is non-negative (ties give 0); it is
    +inf only in the eps=0, zero-spread, positive-margin corner.
    """

    top1: np.ndarray
    top2: np.ndarray
    snr: np.ndarray
    decision: np.ndarray


def top2(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the two largest class means per sample; ties break low.

    Accepts a single row (C,) or a batch (N, C) of finite means; returns scalars or arrays.
    """
    mu = np.asarray(mu, dtype=np.float64)
    rows = np.atleast_2d(mu)
    if rows.shape[1] < 2:
        raise ValueError("top2 requires at least 2 classes")
    if not np.isfinite(rows).all():  # argmax would pick a NaN; a sort puts it last
        raise ValueError("top2 requires finite class means")
    i = rows.argmax(axis=1)  # the first maximum: ties break low, as in a stable sort
    rest = rows.copy()
    rest[np.arange(rows.shape[0]), i] = -np.inf
    j = rest.argmax(axis=1)
    if mu.ndim == 1:
        return int(i[0]), int(j[0])
    return i, j


def _snr(margin: np.ndarray, spread: np.ndarray, eps: float) -> np.ndarray:
    # Zero spread over a subnormal eps overflows to an infinite SNR.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        snr = margin / (spread + eps)
    # 0/0 (tied means, zero spread, eps=0) counts as no signal.
    return np.where(np.isnan(snr), 0.0, snr)


def _fires(k: float, mu_i, mu_j, sigma_i, sigma_j) -> np.ndarray:
    """The margin rule, per sample: mu(i) - k sigma(i) > mu(j) + k sigma(j)."""
    return (mu_i - k * sigma_i) > (mu_j + k * sigma_j)


def decide_multiclass(
    stats: ClassStats, k: float, eps: float = DEFAULT_EPS
) -> MulticlassDecisions:
    """Apply the margin rule: predict top-1 iff mu(i) - k sigma(i) > mu(j) + k sigma(j)."""
    check_k(k)
    i, j, mu_i, mu_j, sigma_i, sigma_j = stats.top2
    snr = _snr(mu_i - mu_j, sigma_i + sigma_j, eps)
    decision = np.where(_fires(k, mu_i, mu_j, sigma_i, sigma_j), i, UNCERTAIN)
    return MulticlassDecisions(top1=i, top2=j, snr=snr, decision=decision)


def gmu_multiclass(
    stats: ClassStats, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Variance-gated margin uncertainty per sample.

    Returns (gmu, gamma) where gamma = 1 - exp(-SNR) is the top-2 margin
    gate and gmu = 1 - mu(i) * gamma, in [1 - mu(i), 1]. A tie with zero
    spread at eps = 0 has SNR 0, a closed gate and GMU = 1.
    """
    _, _, mu_i, mu_j, sigma_i, sigma_j = stats.top2
    gamma = 1.0 - np.exp(-_snr(mu_i - mu_j, sigma_i + sigma_j, eps))
    return 1.0 - mu_i * gamma, gamma


def _fold(mu_label, sigma_label):
    """Raw means u, their folded top means max(u, 1 - u) and the spreads, as float64."""
    u = np.asarray(mu_label, dtype=np.float64)
    return u, np.maximum(u, 1.0 - u), np.asarray(sigma_label, dtype=np.float64)


def decide_multilabel(
    mu_label: np.ndarray,
    sigma_label: np.ndarray,
    k: float,
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label presence rule on raw means u and spreads sigma.

    Returns (snr, decision) arrays matching the input shape; decision is
    PRESENT where the rule fires with u > 0.5, ABSENT where it fires with
    u < 0.5, UNCERTAIN otherwise.
    """
    check_k(k)
    u, mu_i, sigma = _fold(mu_label, sigma_label)
    snr = _snr(2.0 * mu_i - 1.0, 2.0 * sigma, eps)
    fires = _fires(k, mu_i, 1.0 - mu_i, sigma, sigma)  # the complement: 1 - mu(i), same sigma
    decision = np.where(fires, np.where(u > 0.5, PRESENT, ABSENT), UNCERTAIN)
    return snr, decision


def gmu_multilabel(
    mu_label: np.ndarray,
    sigma_label: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Multilabel variance-gated margin uncertainty.

    After folding, mu(i) >= 0.5 always, and the score is 1 - mu(i) * gamma;
    a perfectly ambiguous label (u = 0.5) has a closed gate and GMU = 1,
    matching both one-sided limits.
    """
    _, mu_i, sigma = _fold(mu_label, sigma_label)
    gamma = 1.0 - np.exp(-_snr(2.0 * mu_i - 1.0, 2.0 * sigma, eps))
    return 1.0 - mu_i * gamma
