"""Moments, softmax, entropy: closed forms and brute-force two-pass oracles."""

import numpy as np
import pytest

from uqgate import ClassStats, Ensemble, entropy, make_tensor, softmax, softmax_tensor, stats
from uqgate.ept import EptValidationError
from uqgate.stats import member_probs

from conftest import logits_tensor, old_softmax_tensor, probs_tensor, random_probs


def two_pass_moments(data):
    """Oracle: explicit per-sample loops, population std."""
    m, n, c = data.shape
    mu = np.zeros((n, c))
    sigma = np.zeros((n, c))
    for i in range(n):
        for j in range(c):
            total = 0.0
            for member in range(m):
                total += data[member, i, j]
            mean = total / m
            sq = 0.0
            for member in range(m):
                sq += (data[member, i, j] - mean) ** 2
            mu[i, j] = mean
            sigma[i, j] = np.sqrt(sq / m)
    return mu, sigma


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax(np.array([np.log(2.0), 0.0])), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(50, 7))
        shifted = softmax(logits + 123.456)
        np.testing.assert_allclose(shifted, softmax(logits), atol=1e-12)

    def test_sums_to_one(self, rng):
        out = softmax(rng.normal(size=(100, 5)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_order_preserving(self, rng):
        logits = rng.normal(size=20)
        assert (np.argsort(softmax(logits)) == np.argsort(logits)).all()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))


class TestMoments:
    def test_identical_members(self, rng):
        row = random_probs(rng, 1, 4, 3)[0]
        # Power-of-two member count keeps the mean bit-exact.
        tensor = probs_tensor(np.broadcast_to(row, (4, 4, 3)))
        np.testing.assert_array_equal(ClassStats.from_tensor(tensor).mu, row)
        np.testing.assert_array_equal(ClassStats.from_tensor(tensor).sigma, np.zeros((4, 3)))
        tensor = probs_tensor(np.broadcast_to(row, (5, 4, 3)))
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).mu, row, atol=1e-15)
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).sigma, 0.0, atol=1e-15)

    def test_two_member_arithmetic(self):
        tensor = probs_tensor([[[0.9, 0.1]], [[0.5, 0.5]]])
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).mu, [[0.7, 0.3]])
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).sigma, [[0.2, 0.2]], atol=1e-15)

    def test_matches_two_pass_oracle(self, rng):
        data = random_probs(rng, 7, 11, 5)
        tensor = probs_tensor(data)
        mu, sigma = two_pass_moments(data)
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).mu, mu, atol=1e-12)
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).sigma, sigma, atol=1e-12)

    def test_mean_rows_sum_to_one(self, rng):
        tensor = probs_tensor(random_probs(rng, 6, 40, 8))
        np.testing.assert_allclose(ClassStats.from_tensor(tensor).mu.sum(axis=1), 1.0, atol=1e-9)

    def test_sigma_bounded_by_half(self, rng):
        # 0/1-valued members maximize the spread.
        data = rng.integers(0, 2, size=(8, 20, 2)).astype(np.float64)
        data[..., 1] = 1.0 - data[..., 0]
        tensor = probs_tensor(data)
        assert (ClassStats.from_tensor(tensor).sigma <= 0.5 + 1e-15).all()

    def test_logits_softmaxed(self, rng):
        tensor = logits_tensor(rng.normal(size=(2, 3, 4)))
        got = ClassStats.from_tensor(tensor)
        ref = ClassStats.from_tensor(softmax_tensor(tensor))
        assert got.mu.tobytes() == ref.mu.tobytes()
        assert got.sigma.tobytes() == ref.sigma.tobytes()

    def test_class_stats_wrapper(self, rng):
        data = random_probs(rng, 3, 6, 4)
        stats = ClassStats.from_tensor(probs_tensor(data))
        mu, sigma = two_pass_moments(data)
        np.testing.assert_allclose(stats.mu, mu, atol=1e-12)
        np.testing.assert_allclose(stats.sigma, sigma, atol=1e-12)
        assert stats.samples == 6 and stats.classes == 4


class TestSampleBlocks:
    """member_probs and ClassStats.from_tensor one block at a time, at block size 4."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(stats, "SAMPLE_BLOCK", 4)

    @staticmethod
    def tensor(rng, kind, members, samples, precision):
        data = random_probs(rng, members, samples, 5)
        if kind == "logits":
            data = 6.0 * rng.normal(size=data.shape)
        return make_tensor(data.astype(precision), kind=kind)

    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    @pytest.mark.parametrize("members", [1, 9])
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 8, 9, 13])
    @pytest.mark.parametrize("kind", ["probs", "logits"])
    def test_blocked_moments_equal_whole_tensor(self, rng, kind, members, samples, precision):
        tensor = self.tensor(rng, kind, members, samples, precision)
        whole = Ensemble(member_probs(tensor)).stats
        blocked = ClassStats.from_tensor(tensor)
        assert np.array_equal(blocked.mu, whole.mu)
        assert np.array_equal(blocked.sigma, whole.sigma)

    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    @pytest.mark.parametrize("samples", [1, 5, 13])
    def test_logits_probs_equal_old_softmax_tensor(self, rng, samples, precision):
        tensor = self.tensor(rng, "logits", 9, samples, precision)
        ref = old_softmax_tensor(tensor)
        assert member_probs(tensor).tobytes() == member_probs(ref).tobytes()
        assert softmax_tensor(tensor).data.tobytes() == ref.data.tobytes()
        for start, stop in stats.sample_blocks(samples):
            block = slice(start, stop)
            assert member_probs(tensor, block).tobytes() == member_probs(ref, block).tobytes()


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_is_ln_c(self):
        for c in (2, 3, 10):
            np.testing.assert_allclose(entropy(np.full(c, 1.0 / c)), np.log(c), atol=1e-12)

    def test_frozen_value(self):
        np.testing.assert_allclose(entropy(np.array([0.8, 0.2])), 0.500402, atol=1e-6)

    def test_uniform_is_maximum(self, rng):
        c = 5
        rows = rng.dirichlet(np.ones(c), size=200)
        assert (entropy(rows) <= np.log(c) + 1e-12).all()

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            entropy(np.array([-0.1, 1.1]))

    def test_vectorized_matches_scalar_loop(self, rng):
        rows = rng.dirichlet(np.ones(4), size=30)
        loop = np.array([-(r * np.log(np.clip(r, 1e-12, None))).sum() for r in rows])
        np.testing.assert_allclose(entropy(rows), loop, atol=1e-15)


# Magnitudes from the smallest subnormal to 1e300, signed zeros included, so
# any change in the order of the additions changes some result bits.
_HOSTILE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e-16,
                            1.0, -1.0, 0.1, 3.0, 1e16, 1e300, -1e300])


def _numpy_class_sum(x):
    return np.ascontiguousarray(x.swapaxes(-1, -2)).sum(-1)


class TestClassSum:
    # Under 8, 8 to 128 (every remainder mod 8 up to 17) and the splits above 128.
    @pytest.mark.parametrize("classes", [*range(1, 18), 31, 32, 33, 100, 127, 128, 129,
                                         256, 257, 300])
    def test_bit_identical_to_numpy_last_axis_sum(self, rng, classes):
        shape = (3, classes, 7)
        cases = [
            rng.choice(_HOSTILE_VALUES, size=shape),
            rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, size=shape),
            rng.choice([0.0, -0.0], size=shape),
            rng.random(shape),
        ]
        for x in cases:
            for view in (x, x[0]):  # (..., C, B) and (C, B)
                assert stats.class_sum(view).tobytes() == _numpy_class_sum(view).tobytes()

    def test_all_negative_zeros_sum_to_positive_zero(self):
        for classes in (1, 7, 8, 200):
            total = stats.class_sum(np.full((classes, 3), -0.0))
            assert total.tobytes() == np.zeros(3).tobytes()


class TestSoftmaxTensor:
    def test_converts_kind_and_task(self, rng):
        tensor = logits_tensor(rng.normal(size=(3, 4, 5)), epoch=2)
        probs = softmax_tensor(tensor)
        assert probs.manifest.kind == "probs"
        assert probs.manifest.epoch == 2
        np.testing.assert_allclose(probs.data.sum(axis=2), 1.0, atol=1e-12)

    def test_rejects_probs_input(self, rng):
        tensor = probs_tensor(random_probs(rng, 2, 3, 4))
        with pytest.raises(EptValidationError):
            softmax_tensor(tensor)
