"""Variance gating: attenuate class probabilities by their ensemble SNR.

The gate for class c of sample n is

    gamma[n, c] = 1 - exp(-mu[n, c] / (k * sigma[n, c] + epsilon))

computed once from the ensemble mean/std and shared across all members.
Each member row is multiplied by the gates and renormalized, which shifts
mass away from classes the ensemble disagrees on. The gated total/aleatoric/
epistemic decomposition is the usual entropy split applied to the gated
member rows, with the gated predictive distribution defined as the
arithmetic mean of the renormalized gated members (this makes the epistemic
term non-negative by entropy concavity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ept import EptValidationError, PredictionTensor
from .stats import Ensemble, entropy, member_probs

# A member row whose entire gated mass falls below this is degenerate and
# falls back to the ungated row (reachable only with astronomical k).
DEGENERATE_MASS = 1e-300


@dataclass(frozen=True)
class GateConfig:
    """Gate sensitivity k (> 0) and numerical-stability epsilon (> 0)."""

    k: float
    epsilon: float = 1e-8

    def __post_init__(self):
        check_k(self.k)
        check_epsilon(self.epsilon)


def check_k(k: float) -> None:
    """The one gate-sensitivity rule, shared by GateConfig, the margin rules and the CLI.

    0 < k < inf: an infinite k turns a zero spread into inf * 0 = NaN gates.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")


def check_epsilon(epsilon: float) -> None:
    """The one epsilon rule, shared by GateConfig and every CLI command: eps > 0 (not NaN)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


class Decomposition(NamedTuple):
    """Per-sample total, aleatoric, and epistemic uncertainty in nats."""

    tu: np.ndarray
    au: np.ndarray
    eu: np.ndarray


@dataclass(frozen=True)
class GatedEnsemble:
    """Gates, renormalized gated member rows, and their predictive mean.

    fallback flags samples where at least one member row lost all gated
    mass and was restored ungated.
    """

    gates: np.ndarray       # (N, C) in [0, 1)
    members: np.ndarray     # (M, N, C), each row sums to 1
    predictive: np.ndarray  # (N, C) mean of gated member rows
    fallback: np.ndarray = field(repr=False)  # (N,) bool


def gate(mu: np.ndarray, sigma: np.ndarray, cfg: GateConfig) -> np.ndarray:
    """Variance gate values, elementwise in [0, 1)."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    # Zero spread over a subnormal eps overflows to an infinite ratio: gate 1.
    with np.errstate(over="ignore"):
        ratio = -mu / (cfg.k * sigma + cfg.epsilon)
    return 1.0 - np.exp(ratio)


def gate_ensemble(ens: Ensemble, cfg: GateConfig) -> GatedEnsemble:
    """Gate and renormalize every member row of one tensor's view."""
    probs = ens.probs
    gates = gate(ens.stats.mu, ens.stats.sigma, cfg)

    weighted = probs * gates[None, :, :]
    mass = weighted.sum(axis=2, keepdims=True)
    degenerate = mass[..., 0] <= DEGENERATE_MASS  # (M, N)
    if degenerate.any():
        # Restore the raw rows rather than emitting NaN or uniform noise.
        weighted = np.where(degenerate[:, :, None], probs, weighted)
        mass = weighted.sum(axis=2, keepdims=True)
    # In place: the view keeps probs alive, so save the extra (M, N, C) copy.
    members = np.divide(weighted, mass, out=weighted)
    return GatedEnsemble(
        gates=gates,
        members=members,
        predictive=members.mean(axis=0),
        fallback=degenerate.any(axis=0),
    )


def decompose_gated(ens: Ensemble, cfg: GateConfig) -> Decomposition:
    """Gated TU/AU/EU per sample.

    TU is the entropy of the gated predictive mean, AU the mean entropy of
    the gated member rows, EU their difference (>= 0 up to rounding).
    """
    gated = gate_ensemble(ens, cfg)
    tu = entropy(gated.predictive)
    au = entropy(gated.members).mean(axis=0)
    return Decomposition(tu=tu, au=au, eu=tu - au)


def gated_members(tensor: PredictionTensor, cfg: GateConfig) -> GatedEnsemble:
    """Gate and renormalize every member row of a multiclass probs tensor."""
    return gate_ensemble(_multiclass_view(tensor), cfg)


def gated_decomposition(tensor: PredictionTensor, cfg: GateConfig) -> Decomposition:
    """Gated TU/AU/EU per sample of a multiclass probs tensor (see :func:`decompose_gated`)."""
    return decompose_gated(_multiclass_view(tensor), cfg)


def _multiclass_view(tensor: PredictionTensor) -> Ensemble:
    if tensor.manifest.task != "multiclass":
        raise EptValidationError("variance gating is defined for multiclass tensors only")
    return Ensemble(member_probs(tensor))
