"""Moments, softmax, entropy: closed forms and brute-force two-pass oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqgate import ClassStats, Ensemble, entropy, make_tensor, softmax, softmax_tensor, stats
from uqgate.ept import EptValidationError
from uqgate.stats import LOG_CLAMP, clamped_log, member_probs

from helpers import (
    block_budget, class_sum, logits_tensor, old_softmax, old_softmax_tensor, probs_tensor,
    random_probs,
)


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

    def test_row_wider_than_the_float_range(self):
        # 1e308 - (-1e308) overflows to -inf in the shift: exp gives exactly 0, and
        # no RuntimeWarning (an error under pytest) reaches the caller.
        assert softmax(np.array([1e308, -1e308, 0.0])).tolist() == [1.0, 0.0, 0.0]

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


class TestSoftmaxInPlace:
    """softmax on one output array against the three-array formula it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_three_array_formula(self, data):
        # Finite floats with the edges: -0.0, subnormals and +-the largest float (rows
        # wider than the float range); float32 input is widened first, as before.
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        logits = data.draw(hnp.arrays(
            dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                                         width=np.dtype(dtype).itemsize * 8),
                               st.sampled_from([-0.0, 0.0, 1.0, -1.0]).map(
                                   lambda v: dtype(v * np.finfo(dtype).max if abs(v) else v)))))
        axis = data.draw(st.integers(-logits.ndim, logits.ndim - 1))
        got = softmax(logits, axis=axis)
        assert got.dtype == np.float64 and got.tobytes() == old_softmax(logits, axis).tobytes()

    @pytest.mark.parametrize("logits, axis", [
        (np.array([0.5, -2.0, 3.0]), -1),                        # 1-D
        (np.array([[1.0, 2.0], [3.0, -4.0], [0.0, 0.5]]), 0),    # axis=0
        (np.array([[1e308, -1e308, 0.0], [-1e308, 1e308, -0.0]]), -1),
        (np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]]), -1),
    ])
    def test_edge_inputs(self, logits, axis):
        assert softmax(logits, axis=axis).tobytes() == old_softmax(logits, axis).tobytes()

    def test_peak_is_one_output_array_plus_row_statistics(self, rng):
        logits = rng.normal(size=(2000, 50))
        out_bytes, row_bytes = logits.nbytes, 2000 * 8
        softmax(logits)  # warm numpy's caches outside the traced call
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = softmax(logits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes == out_bytes
        # Plus one ufunc buffer, for the broadcast row statistic; the three-array
        # formula peaked at three output arrays.
        assert peak <= out_bytes + 2 * row_bytes + np.getbufsize() * 8 + 4096


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


class TestMemberProbsCopy:
    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    def test_clipped_probs_equal_widened_then_clipped(self, rng, precision):
        data = random_probs(rng, 4, 9, 5)
        # Stored probs may leave [0, 1] by the container's slack, and carry -0.0.
        data[0, 0] = [1.0 + 5e-7, -5e-7, 0.0, 0.0, 0.0]
        data[1, 1] = [-0.0, 1.0, 0.0, -0.0, 0.0]
        tensor = make_tensor(data.astype(precision), kind="probs")
        ref = np.clip(tensor.data.astype(np.float64), 0, 1)
        got = member_probs(tensor)
        assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()
        assert member_probs(tensor, slice(2, 7)).tobytes() == ref[:, 2:7].tobytes()


class TestSampleBlocks:
    """member_probs and ClassStats.from_tensor one block at a time, at block size 4."""

    @pytest.fixture
    def tensor(self, rng, monkeypatch):
        def build(kind, members, samples, precision):
            data = random_probs(rng, members, samples, 5)
            if kind == "logits":
                data = 6.0 * rng.normal(size=data.shape)
            tensor = make_tensor(data.astype(precision), kind=kind)
            monkeypatch.setattr(stats, "BLOCK_VALUES", block_budget(tensor, 4))
            return tensor
        return build

    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    @pytest.mark.parametrize("members", [1, 9])
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 8, 9, 13])
    @pytest.mark.parametrize("kind", ["probs", "logits"])
    def test_blocked_moments_equal_whole_tensor(self, tensor, kind, members, samples, precision):
        tensor = tensor(kind, members, samples, precision)
        whole = Ensemble(member_probs(tensor)).stats
        blocked = ClassStats.from_tensor(tensor)
        assert np.array_equal(blocked.mu, whole.mu)
        assert np.array_equal(blocked.sigma, whole.sigma)

    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    @pytest.mark.parametrize("samples", [1, 5, 13])
    def test_logits_probs_equal_old_softmax_tensor(self, tensor, samples, precision):
        tensor = tensor("logits", 9, samples, precision)
        ref = old_softmax_tensor(tensor)
        assert member_probs(tensor).tobytes() == member_probs(ref).tobytes()
        assert softmax_tensor(tensor).data.tobytes() == ref.data.tobytes()
        for start, stop in stats.sample_blocks(samples, 4):
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


# Probabilities with the edges of the clamp: signed zeros, the smallest subnormal,
# LOG_CLAMP and its two neighbours, and 1.
_CLAMP_EDGES = [0.0, -0.0, 5e-324, LOG_CLAMP, np.nextafter(LOG_CLAMP, 0.0),
                np.nextafter(LOG_CLAMP, 1.0), 1.0]


class TestClampedLog:
    """clamped_log against np.log(np.clip(p, 1e-12, None)), the clamp spelled independently."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                      elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_CLAMP_EDGES))))
    def test_bit_identical_to_clip_then_log(self, p):
        expected = np.log(np.clip(p, 1e-12, None)).tobytes()
        assert clamped_log(p).tobytes() == expected
        q = np.empty_like(p)
        assert clamped_log(p, out=q) is q and q.tobytes() == expected
        same = p.copy()
        assert clamped_log(same, out=same) is same and same.tobytes() == expected


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
                assert class_sum(view).tobytes() == _numpy_class_sum(view).tobytes()

    def test_all_negative_zeros_sum_to_positive_zero(self):
        for classes in (1, 7, 8, 200):
            total = class_sum(np.full((classes, 3), -0.0))
            assert total.tobytes() == np.zeros(3).tobytes()


class TestClassSumInto:
    """The in-place core over a classes-first (C, ...) array: numpy's every bit."""

    @staticmethod
    def numpy_sum(x):
        return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(-1)

    @pytest.mark.parametrize("classes", [*range(1, 18), 31, 100, 128, 129, 257])
    def test_bit_identical_to_numpy_last_axis_sum(self, rng, classes):
        shape = (classes, 3, 7)
        cases = [
            rng.choice(_HOSTILE_VALUES, size=shape),
            rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, size=shape),
            rng.choice([0.0, -0.0], size=shape),
            np.full(shape, -0.0),
        ]
        for x in cases:
            for view in (x, x[:, 0]):  # (C, ..., B) and (C, B)
                want = self.numpy_sum(view)
                out = np.empty(want.shape)
                got = stats.class_sum_into(view.copy(), out)
                assert got is out
                assert out.tobytes() == want.tobytes()

    def test_out_may_be_a_strided_view(self, rng):
        x = rng.standard_normal((10, 4, 6))
        target = np.full((4, 20), np.nan)
        stats.class_sum_into(x.copy(), target[:, 3:9])
        assert target[:, 3:9].tobytes() == self.numpy_sum(x).tobytes()
        assert np.isnan(target[:, :3]).all() and np.isnan(target[:, 9:]).all()

    def test_class_sum_leaves_its_argument_alone(self, rng):
        x = rng.standard_normal((2, 40, 5))
        before = x.tobytes()
        class_sum(x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("classes", [5, 10, 129])
    def test_allocates_less_than_one_output_array(self, rng, classes):
        x = rng.standard_normal((classes, 16, 2048))
        out = np.empty((16, 2048))
        stats.class_sum_into(x.copy(), out)
        work = x.copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats.class_sum_into(work, out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes


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
