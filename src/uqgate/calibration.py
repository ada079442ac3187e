"""Temperature scaling of logits, globally or per ensemble member.

The temperature minimizing validation NLL is found by a deterministic 1-D
search: a 64-point log-uniform grid over [0.01, 10.0] followed by
golden-section refinement of the bracketing interval down to a relative
width of 1e-4. T = 1 is always a candidate, so calibration never increases
NLL, and dividing logits by a positive scalar preserves the argmax, so
accuracy is untouched.

A per-member fit searches every member in lockstep: each NLL evaluation
scores all members at once, while each member keeps its own bracket. A
global fit is the same evaluation on one row of all members' samples.
Both give bit for bit the temperatures and NLLs of the scalar search,
``nll(apply_temperature(logits, T), labels)`` at each probed T.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ept import PredictionTensor, check_labels
from .gating import check_positive
from .stats import clamped_log, class_sum_into, softmax

T_MIN = 0.01
T_MAX = 10.0
GRID_POINTS = 64
RELATIVE_WIDTH = 1e-4

# Values (classes x rows x samples) per work block of an NLL evaluation: 4096 samples
# at 20 members x 10 classes. There, 1024-sample blocks were 20-25% slower.
WORK_VALUES = 4096 * 20 * 10

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TemperatureFit(NamedTuple):
    """Fitted temperature(s) with per-sample NLL before and after scaling.

    Scalars for a global fit; (M,) arrays for a per-member fit.
    """

    temperature: float | np.ndarray
    nll_before: float | np.ndarray
    nll_after: float | np.ndarray


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T); T = 1 is the identity with plain softmax."""
    check_positive("temperature", temperature)
    return softmax(np.asarray(logits, dtype=np.float64) / temperature, axis=-1)


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood in nats per sample."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = check_labels(labels, probs.shape[0], probs.shape[1])
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-clamped_log(picked).mean())


class _Nll:
    """NLL(T) of (B, N, C) float64 logit blocks, one temperature per row per call.

    A call performs the IEEE operations of ``nll(apply_temperature(x, T),
    labels)`` on each block x, in the same order, so each loss is bit-identical
    to that path. Rounding is monotone, so max(x / T) == max(x) / T and the
    row maxima and label logits are taken once; the (N, C) softmax is never
    formed, as only each row's sum and label term enter the NLL.

    The logits are copied classes first, (C, B, N), once. A call then works
    through one (C, rows, width) array of at most WORK_VALUES values at a
    time, whose class rows :func:`~uqgate.stats.class_sum_into` adds in
    place, in numpy's order for a row of C. Classes first, a class row is
    one contiguous block when N fits one work block: at 20x2000x10 its sum
    took half the time of the (B, C, N) layout's strided rows.

    The rows are the B blocks, or with ``pooled`` one row of their B * N samples.
    """

    def __init__(self, logits: np.ndarray, labels: np.ndarray, pooled: bool = False):
        blocks, samples, classes = logits.shape
        rowmax = logits.max(axis=-1)
        # The search divides by T >= T_MIN, so x / T is finite for every
        # probed T iff it is at T_MIN, the first grid point.
        with np.errstate(over="ignore"):
            extremes = np.array([logits.min(), rowmax.max()]) / T_MIN
        if not np.isfinite(extremes).all():
            raise ValueError("softmax requires finite inputs")
        labels = check_labels(labels, samples, classes)
        # Row-major, so each row's mean sums its samples in the order the
        # scalar path does; fancy indexing may lay (B, N) out transposed.
        label = np.ascontiguousarray(logits[:, np.arange(samples), labels])
        columns = np.ascontiguousarray(logits.transpose(2, 0, 1))
        rows = 1 if pooled else blocks
        self.rowmax, self.label = rowmax.reshape(rows, -1), label.reshape(rows, -1)
        self.columns = columns.reshape(classes, rows, -1)
        self.pooled = pooled
        self.count = len(self.label)
        # Work arrays, made once: the search calls this object about 84 times.
        width = min(self.label.shape[1], max(1, WORK_VALUES // (classes * rows)))
        self._work = np.empty((classes, rows, width))
        self._maxes, self._picked = (np.empty((rows, width)) for _ in range(2))
        self._losses = np.empty(self.label.shape)

    def __call__(self, temperatures: np.ndarray) -> np.ndarray:
        """Mean NLL per row at (count,) temperatures."""
        t = np.asarray(temperatures, dtype=np.float64).reshape(-1, 1)
        samples, step = self.label.shape[1], self._work.shape[-1]
        for start in range(0, samples, step):
            stop = min(start + step, samples)
            width = stop - start
            maxes = np.divide(self.rowmax[:, start:stop], t, out=self._maxes[:, :width])
            shifted = np.divide(self.columns[..., start:stop], t, out=self._work[..., :width])
            shifted -= maxes
            sums = class_sum_into(np.exp(shifted, out=shifted), out=shifted[0])
            picked = np.divide(self.label[:, start:stop], t, out=self._picked[:, :width])
            picked -= maxes
            np.exp(picked, out=picked)
            picked /= sums
            clamped_log(picked, out=picked)
            np.negative(picked, out=self._losses[:, start:stop])
        return self._losses.mean(axis=-1)


def _golden_sections(objective, lo: list[float], hi: list[float]) -> list[float]:
    """Minimize unimodal objectives over log-temperature brackets, in lockstep.

    ``objective`` maps one log-temperature per bracket to one loss per
    bracket. Each bracket takes the scalar golden-section steps and stops on
    its own width test; a stopped bracket's probe is still evaluated and its
    loss left unused.
    """
    a, b = list(lo), list(hi)
    c = [y - _INV_GOLDEN * (y - x) for x, y in zip(a, b)]
    d = [x + _INV_GOLDEN * (y - x) for x, y in zip(a, b)]
    fc, fd = list(objective(c)), list(objective(d))

    def still_open(i: int) -> bool:
        # Stop when the bracket, mapped back to temperature, is relatively tight.
        return math.exp(b[i]) - math.exp(a[i]) > RELATIVE_WIDTH * math.exp((a[i] + b[i]) / 2.0)

    active = [i for i in range(len(a)) if still_open(i)]
    while active:
        left = [False] * len(a)
        for i in active:
            if fc[i] < fd[i]:
                left[i] = True
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INV_GOLDEN * (b[i] - a[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INV_GOLDEN * (b[i] - a[i])
        losses = objective([ci if go_left else di for ci, di, go_left in zip(c, d, left)])
        for i in active:
            if left[i]:
                fc[i] = losses[i]
            else:
                fd[i] = losses[i]
        active = [i for i in active if still_open(i)]
    return [(x + y) / 2.0 for x, y in zip(a, b)]


def temperature_grid() -> np.ndarray:
    """The GRID_POINTS-point log-uniform search grid over [T_MIN, T_MAX]."""
    grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), GRID_POINTS))
    # exp(log(x)) can land one ulp outside the declared bounds.
    grid[0], grid[-1] = T_MIN, T_MAX
    return grid


def _search(loss: _Nll) -> TemperatureFit:
    """The documented search for each of ``loss.count`` objectives at once."""
    count = loss.count
    grid = temperature_grid()
    grid_losses = np.stack([loss(np.full(count, t)) for t in grid], axis=1)
    best = grid_losses.argmin(axis=1)
    last = len(grid) - 1
    centres = _golden_sections(
        # Scalar math.exp: np.exp may differ by one ulp.
        lambda xs: loss(np.array([math.exp(x) for x in xs])),
        [math.log(grid[max(j - 1, 0)]) for j in best],
        [math.log(grid[min(j + 1, last)]) for j in best],
    )
    refined = np.array([min(max(math.exp(x), T_MIN), T_MAX) for x in centres])

    rows = np.arange(count)
    nll_before = loss(np.ones(count))
    candidates = np.stack([refined, grid[best], np.ones(count)], axis=1)
    candidate_losses = np.stack([loss(refined), grid_losses[rows, best], nll_before], axis=1)
    winner = candidate_losses.argmin(axis=1)
    return TemperatureFit(
        temperature=candidates[rows, winner],
        nll_before=nll_before,
        nll_after=candidate_losses[rows, winner],
    )


def objective(tensor: PredictionTensor, labels: np.ndarray, pooled: bool = False) -> _Nll:
    """NLL(T) of a logits tensor's members, each on its own or ``pooled`` as extra samples.

    It keeps its own copy of the logits, so a caller can free the tensor
    before :func:`fit_objective` runs the search.
    """
    tensor.manifest.require("calibration", kind="logits", task="multiclass")
    return _Nll(tensor.data.astype(np.float64, copy=False), labels, pooled)


def fit_objective(loss: _Nll) -> TemperatureFit:
    """The documented search: (M,) arrays per member, or scalars for a pooled objective."""
    fit = _search(loss)
    return TemperatureFit(*(float(value[0]) for value in fit)) if loss.pooled else fit


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> TemperatureFit:
    """Fit one temperature to (N, C) logits by minimizing NLL against labels."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"expected (samples, classes) logits, got shape {logits.shape}")
    return fit_objective(_Nll(logits[None], labels, pooled=True))


def fit_per_member(tensor: PredictionTensor, labels: np.ndarray) -> TemperatureFit:
    """Independent temperature fit for every member slice of a logits tensor."""
    return fit_objective(objective(tensor, labels))
