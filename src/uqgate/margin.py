"""SNR prediction rules and variance-gated margin uncertainty (GMU).

One formula serves both tasks. Per sample it reads four columns, the top
two means mu(i) >= mu(j) and their spreads sigma(i), sigma(j):

    SNR = (mu(i) - mu(j)) / (sigma(i) + sigma(j) + eps)            (_snr)
    rule: predict iff mu(i) - k sigma(i) > mu(j) + k sigma(j)      (_fires)
    GMU = 1 - mu(i) * gamma, with the gate gamma = 1 - exp(-SNR)   (_gmu)

Multiclass reads the top-2 classes (ClassStats.top2). Multilabel decides
each label against its complement (_fold): mu(i) = max(u, 1 - u) folds the
raw mean u, mu(j) = 1 - mu(i), and both spreads are the label's sigma.
Means must be finite; every spread must be finite and non-negative
(check_spreads, for both tasks), and eps non-negative (_snr).

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


def check_spreads(*spreads) -> None:
    """The one spread rule of both tasks: each sigma is finite and non-negative."""
    for sigma in spreads:
        bad = ~((sigma >= 0) & (sigma < np.inf))
        if bad.any():
            raise ValueError(f"spreads must be finite and non-negative, got {sigma[bad][0]}")


def _snr(mu_i, mu_j, sigma_i, sigma_j, eps: float) -> np.ndarray:
    """The one place the SNR is formed: (mu(i) - mu(j)) / (sigma(i) + sigma(j) + eps)."""
    if not eps >= 0:  # NaN too: it would read as SNR 0 and an open GMU of 1
        raise ValueError(f"eps must be non-negative, got {eps}")
    # Zero spread over a subnormal eps overflows to an infinite SNR.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        snr = (mu_i - mu_j) / (sigma_i + sigma_j + eps)
    # 0/0 (tied means, zero spread, eps=0) counts as no signal.
    return np.where(np.isnan(snr), 0.0, snr)


def _fires(k: float, mu_i, mu_j, sigma_i, sigma_j) -> np.ndarray:
    """The margin rule, per sample: mu(i) - k sigma(i) > mu(j) + k sigma(j)."""
    with np.errstate(over="ignore"):  # k sigma beyond float64 is +inf: the rule does not fire
        return (mu_i - k * sigma_i) > (mu_j + k * sigma_j)


def _gmu(mu_i, mu_j, sigma_i, sigma_j, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(GMU, gamma): the gate gamma = 1 - exp(-SNR), and GMU = 1 - mu(i) * gamma."""
    gamma = 1.0 - np.exp(-_snr(mu_i, mu_j, sigma_i, sigma_j, eps))
    return 1.0 - mu_i * gamma, gamma


def decide_multiclass(
    stats: ClassStats, k: float, eps: float = DEFAULT_EPS
) -> MulticlassDecisions:
    """Apply the margin rule: predict top-1 iff mu(i) - k sigma(i) > mu(j) + k sigma(j)."""
    check_k(k)
    i, j, *columns = stats.top2
    decision = np.where(_fires(k, *columns), i, UNCERTAIN)
    return MulticlassDecisions(top1=i, top2=j, snr=_snr(*columns, eps), decision=decision)


def gmu_multiclass(
    stats: ClassStats, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Variance-gated margin uncertainty per sample.

    Returns (gmu, gamma) where gamma = 1 - exp(-SNR) is the top-2 margin
    gate and gmu = 1 - mu(i) * gamma, in [1 - mu(i), 1]. A tie with zero
    spread at eps = 0 has SNR 0, a closed gate and GMU = 1.
    """
    return _gmu(*stats.top2[2:], eps)


def _fold(mu_label, sigma_label):
    """Raw means u, as float64, and each label's four columns against its complement:
    mu(i) = max(u, 1 - u), mu(j) = 1 - mu(i), and the label's sigma for both spreads."""
    u, sigma = np.asarray(mu_label, dtype=np.float64), np.asarray(sigma_label, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("multilabel rules require finite means")
    check_spreads(sigma)
    mu_i = np.maximum(u, 1.0 - u)
    # 1 - mu(i) is exact below 2**53 (every probability), so the SNR's margin is
    # 2 mu(i) - 1 rounded once; in [2**53, 2**54) it can read one unit lower.
    return u, (mu_i, 1.0 - mu_i, sigma, sigma)


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
    u, columns = _fold(mu_label, sigma_label)
    decision = np.where(_fires(k, *columns), np.where(u > 0.5, PRESENT, ABSENT), UNCERTAIN)
    return _snr(*columns, eps), decision


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
    return _gmu(*_fold(mu_label, sigma_label)[1], eps)[0]
