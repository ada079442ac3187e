"""Seeded synthetic ensembles: the oracle for statistical acceptance tests.

Per sample n a true logit vector z_n ~ Normal(0, s_signal^2) is drawn once;
member m sees z_n plus Normal(0, s_noise^2) perturbations, and the label is
sampled from softmax(z_n), so the task carries genuine aleatoric noise.
Collapse mode reuses the same z_n across epochs while the member noise
scale decays as s_noise * exp(-decay * t), imitating a committee whose
members converge to one solution.

Reproducibility contract: all draws come from numpy's Philox counter-based
bit generator with key (seed, stream_tag << 32 | epoch), where stream_tag is
1 for signal, 2 for member noise, and 3 for labels. Within a stream, values
are consumed in row-major (sample, class) or (member, sample, class) order,
so every draw is pinned to its (seed, epoch, member, sample, class) indices
and identical configurations yield bit-identical tensors on any machine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ept import PredictionTensor, make_tensor
from .stats import softmax

_STREAM_SIGNAL = 1
_STREAM_NOISE = 2
_STREAM_LABELS = 3


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; collapse mode additionally needs epochs and decay."""

    samples: int
    classes: int
    members: int
    s_signal: float = 1.0
    s_noise: float = 0.5
    seed: int = 0
    mode: str = "static"
    epochs: int = 1
    decay: float = 1.0

    def validate(self) -> None:
        if self.samples < 1 or self.classes < 2 or self.members < 1:
            raise ValueError(
                f"need samples >= 1, classes >= 2, members >= 1; got "
                f"({self.samples}, {self.classes}, {self.members})"
            )
        if not self.s_signal > 0:
            raise ValueError(f"s_signal must be positive, got {self.s_signal}")
        if self.s_noise < 0:
            raise ValueError(f"s_noise must be non-negative, got {self.s_noise}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.mode not in ("static", "collapse"):
            raise ValueError(f"mode must be 'static' or 'collapse', got {self.mode!r}")
        if self.mode == "collapse" and (self.epochs < 1 or not self.decay > 0):
            raise ValueError(
                f"collapse mode needs epochs >= 1 and decay > 0, got "
                f"({self.epochs}, {self.decay})"
            )


def _stream(seed: int, tag: int, epoch: int = 0) -> np.random.Generator:
    key = np.array([seed, (tag << 32) | epoch], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _true_logits(cfg: SynthConfig) -> np.ndarray:
    return cfg.s_signal * _stream(cfg.seed, _STREAM_SIGNAL).standard_normal(
        (cfg.samples, cfg.classes)
    )


def _member_logits(cfg: SynthConfig, z: np.ndarray, s_noise: float, epoch: int) -> np.ndarray:
    noise = _stream(cfg.seed, _STREAM_NOISE, epoch).standard_normal(
        (cfg.members, cfg.samples, cfg.classes)
    )
    return z[None, :, :] + s_noise * noise


def _draw_labels(cfg: SynthConfig, z: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(softmax(z), axis=1)
    u = _stream(cfg.seed, _STREAM_LABELS).random(cfg.samples)
    labels = (cumulative < u[:, None]).sum(axis=1)
    return np.minimum(labels, cfg.classes - 1)


def generate(cfg: SynthConfig) -> tuple[PredictionTensor, PredictionTensor, np.ndarray]:
    """One static draw: (probs tensor, logits tensor, labels)."""
    cfg.validate()
    if cfg.mode != "static":
        raise ValueError("generate requires mode='static'")
    z = _true_logits(cfg)
    logits = _member_logits(cfg, z, cfg.s_noise, epoch=0)
    probs = softmax(logits)
    return (
        make_tensor(probs, kind="probs", precision="binary64"),
        make_tensor(logits, kind="logits", precision="binary64"),
        _draw_labels(cfg, z),
    )


def generate_collapse_series(cfg: SynthConfig) -> list[tuple[int, PredictionTensor]]:
    """Probs tensors for epochs 0..E-1 with exponentially decaying member noise.

    Epoch 0 is bit-identical to the static draw at the same seed and
    s_noise; later epochs use fresh noise draws at the decayed scale.
    """
    return list(_collapse_epochs(cfg))


def _collapse_epochs(cfg: SynthConfig) -> Iterator[tuple[int, PredictionTensor]]:
    """The (epoch, tensor) pairs of :func:`generate_collapse_series`, one at a time."""
    cfg.validate()
    if cfg.mode != "collapse":
        raise ValueError("generate_collapse_series requires mode='collapse'")
    z = _true_logits(cfg)
    for epoch in range(cfg.epochs):
        scale = cfg.s_noise * float(np.exp(-cfg.decay * epoch))
        probs = softmax(_member_logits(cfg, z, scale, epoch))
        yield epoch, make_tensor(probs, kind="probs", precision="binary64", epoch=epoch)
