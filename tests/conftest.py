import numpy as np
import pytest

from uqgate import make_tensor, softmax


def random_probs(rng, members, samples, classes):
    """Random multiclass member rows (Dirichlet, so rows sum to 1)."""
    return rng.dirichlet(np.ones(classes), size=(members, samples))


def probs_tensor(data, task="multiclass", **kwargs):
    return make_tensor(np.asarray(data, dtype=np.float64), kind="probs", task=task, **kwargs)


def logits_tensor(data, **kwargs):
    return make_tensor(np.asarray(data, dtype=np.float64), kind="logits", **kwargs)


def old_softmax_tensor(tensor):
    """The whole-tensor softmax that member_probs replaced: the reference for the blocked one."""
    probs = softmax(tensor.data.astype(np.float64), axis=-1)
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


@pytest.fixture
def rng():
    return np.random.default_rng(42)
