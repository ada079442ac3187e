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


@pytest.fixture
def rng():
    return np.random.default_rng(42)
