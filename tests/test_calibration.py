"""Temperature scaling: closed forms, synthetic inversion, search determinism."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgate import (
    SynthConfig,
    apply_temperature,
    fit_per_member,
    fit_temperature,
    generate,
    make_tensor,
    nll,
    softmax,
)
from uqgate.calibration import (
    WORK_VALUES,
    _Nll,
    _search,
    fit_objective,
    objective,
    temperature_grid,
)
from uqgate.ept import EptValidationError

from helpers import RowMajorNll


def calibrated_fixture(n=4000, c=10, seed=3):
    """Logits whose labels are drawn from their own softmax (T* = 1)."""
    cfg = SynthConfig(samples=n, classes=c, members=1, s_signal=2.0, s_noise=0.0,
                      seed=seed)
    _, logits, labels = generate(cfg)
    return logits.data[0], labels


class TestApplyTemperature:
    def test_identity_at_one(self, rng):
        logits = rng.normal(size=(20, 5))
        np.testing.assert_array_equal(apply_temperature(logits, 1.0), softmax(logits))

    def test_large_t_flattens(self, rng):
        logits = rng.normal(size=(10, 4))
        out = apply_temperature(logits, 1e9)
        np.testing.assert_allclose(out, 0.25, atol=1e-6)

    def test_closed_form(self):
        out = apply_temperature(np.array([[np.log(4.0), 0.0]]), 2.0)
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_argmax_invariant(self, rng):
        logits = rng.normal(size=(200, 6))
        base = softmax(logits).argmax(axis=1)
        for t in (0.01, 0.3, 2.5, 10.0):
            assert (apply_temperature(logits, t).argmax(axis=1) == base).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            apply_temperature(np.zeros((1, 2)), 0.0)


class TestNll:
    def test_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll(probs, np.array([0, 1])) == 0.0

    def test_uniform_is_ln_c(self):
        probs = np.full((5, 10), 0.1)
        np.testing.assert_allclose(nll(probs, np.zeros(5, dtype=int)), np.log(10.0),
                                   atol=1e-12)

    def test_frozen_value(self):
        np.testing.assert_allclose(
            nll(np.array([[0.8, 0.2]]), np.array([0])), 0.223144, atol=1e-6
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            nll(np.ones((3, 2)) / 2, np.array([0]))


class TestFitTemperature:
    def test_recovers_miscalibration(self):
        logits, labels = calibrated_fixture(n=10_000)
        fit = fit_temperature(2.5 * logits, labels)
        assert abs(fit.temperature - 2.5) / 2.5 < 0.05
        assert fit.nll_after <= fit.nll_before + 1e-9

    def test_already_calibrated_stays_near_one(self):
        logits, labels = calibrated_fixture(n=10_000)
        fit = fit_temperature(logits, labels)
        assert 0.9 <= fit.temperature <= 1.1
        assert abs(fit.nll_after - fit.nll_before) < 0.01

    def test_never_worse_than_identity(self, rng):
        # Adversarial labels: the best the fit can do is flatten.
        logits = rng.normal(size=(50, 4)) * 5
        labels = softmax(logits).argmin(axis=1)
        fit = fit_temperature(logits, labels)
        assert fit.nll_after <= fit.nll_before + 1e-9

    def test_deterministic(self):
        logits, labels = calibrated_fixture(n=500)
        first = fit_temperature(1.7 * logits, labels)
        second = fit_temperature(1.7 * logits, labels)
        assert first.temperature == second.temperature
        assert first.nll_after == second.nll_after

    def test_within_search_bounds(self):
        logits, labels = calibrated_fixture(n=500)
        for scale in (0.001, 1000.0):
            fit = fit_temperature(scale * logits, labels)
            assert 0.01 <= fit.temperature <= 10.0

    def test_grid_objective_unimodal_on_fixture(self):
        logits, labels = calibrated_fixture(n=4000)
        losses = np.array([
            nll(apply_temperature(2.5 * logits, t), labels) for t in temperature_grid()
        ])
        drops = np.diff(losses) < 0
        # Strictly decreasing then increasing: exactly one sign change.
        assert drops[0] and not drops[-1]
        assert (np.diff(drops.astype(int)) != 0).sum() == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="samples, classes"):
            fit_temperature(np.zeros(5), np.zeros(5, dtype=int))


class TestFitPerMember:
    def member_tensor(self, scales, n=3000):
        logits, labels = calibrated_fixture(n=n, c=6)
        members = np.stack([s * logits for s in scales])
        return make_tensor(members, kind="logits"), labels

    def test_identical_members_identical_fits(self):
        tensor, labels = self.member_tensor([1.5, 1.5, 1.5], n=1000)
        fit = fit_per_member(tensor, labels)
        assert len(set(fit.temperature)) == 1

    def test_distinct_scales_recovered(self):
        scales = [0.5, 1.0, 2.0, 4.0]
        tensor, labels = self.member_tensor(scales, n=8000)
        fit = fit_per_member(tensor, labels)
        for fitted, true in zip(fit.temperature, scales):
            assert abs(fitted - true) / true < 0.05
        assert (fit.nll_after <= fit.nll_before + 1e-9).all()

    def test_single_member_matches_global(self):
        tensor, labels = self.member_tensor([2.0], n=2000)
        per_member = fit_per_member(tensor, labels)
        direct = fit_temperature(tensor.data[0], labels)
        assert per_member.temperature[0] == direct.temperature

    def test_probs_tensor_rejected(self, rng):
        data = rng.dirichlet(np.ones(3), size=(2, 4))
        tensor = make_tensor(data, kind="probs")
        with pytest.raises(EptValidationError, match="logits"):
            fit_per_member(tensor, np.zeros(4, dtype=int))

    def test_multilabel_tensor_rejected(self, rng):
        # A softmax NLL needs one class per sample; without the task check both fit T = 10.
        tensor = make_tensor(rng.normal(size=(2, 5, 3)), kind="logits", task="multilabel")
        labels = np.array([0, 1, 2, 1, 0])
        for fit in (lambda: fit_per_member(tensor, labels),
                    lambda: objective(tensor, labels, pooled=True)):
            with pytest.raises(EptValidationError,
                               match="^calibration requires a multiclass tensor$"):
                fit()


# ---------------------------------------------------------------------------
# The lockstep search against the scalar one it replaced: one full softmax
# NLL per probed temperature, one member at a time, and the global fit over
# the members stacked as extra samples.


def _ref_nll_at(logits, labels, temperature):
    return nll(apply_temperature(logits, temperature), labels)


def _ref_golden_section(objective, lo, hi):
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc, fd = objective(c), objective(d)
    while math.exp(b) - math.exp(a) > 1e-4 * math.exp((a + b) / 2.0):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = objective(d)
    return (a + b) / 2.0


def _ref_fit_temperature(logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    grid = temperature_grid()
    losses = np.array([_ref_nll_at(logits, labels, t) for t in grid])
    best = int(losses.argmin())
    lo = math.log(grid[max(best - 1, 0)])
    hi = math.log(grid[min(best + 1, len(grid) - 1)])
    refined = math.exp(
        _ref_golden_section(lambda x: _ref_nll_at(logits, labels, math.exp(x)), lo, hi))
    refined = min(max(refined, 0.01), 10.0)
    nll_before = _ref_nll_at(logits, labels, 1.0)
    candidates = [refined, float(grid[best]), 1.0]
    candidate_losses = [_ref_nll_at(logits, labels, t) for t in candidates]
    winner = int(np.argmin(candidate_losses))
    return candidates[winner], nll_before, candidate_losses[winner]


def _ref_fit_per_member(data, labels):
    fits = [_ref_fit_temperature(member, labels) for member in data.astype(np.float64)]
    return tuple(np.array(column) for column in zip(*fits))


def _ref_fit_global(data, labels):
    m, n, c = data.shape
    return _ref_fit_temperature(data.astype(np.float64).reshape(m * n, c), np.tile(labels, m))


def fit_global(tensor, labels):
    """One temperature for all members, as ``uqgate calibrate`` fits it."""
    return fit_objective(objective(tensor, labels, pooled=True))


def _fields(fit):
    return fit.temperature, fit.nll_before, fit.nll_after


def _logit_case(seed, members, samples, classes, scale, labelling, binary32):
    rng = np.random.default_rng(seed)
    data = scale * rng.normal(size=(members, samples, classes))
    if binary32:
        data = data.astype(np.float32)
    if labelling == "argmax":  # sharp labels: the optimum is at T_MIN
        labels = data[0].argmax(axis=1)
    elif labelling == "softmax":
        cdf = softmax(data[0].astype(np.float64)).cumsum(axis=1)
        labels = np.minimum((cdf < rng.random((samples, 1))).sum(axis=1), classes - 1)
    else:  # random labels: with large logits the optimum is at T_MAX
        labels = rng.integers(0, classes, size=samples)
    return make_tensor(data, kind="logits"), labels


def _assert_bit_identical(tensor, labels):
    data = tensor.data
    per_member = fit_per_member(tensor, labels)
    for got, want in zip(_fields(per_member), _ref_fit_per_member(data, labels)):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    for got, want in zip(_fields(fit_global(tensor, labels)), _ref_fit_global(data, labels)):
        assert type(got) is float and got == want
    first = _ref_fit_temperature(data[0], labels)
    assert _fields(fit_temperature(data[0], labels)) == first
    return first


@st.composite
def _logit_cases(draw):
    return _logit_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        members=draw(st.integers(1, 4)),
        samples=draw(st.integers(1, 80)),
        classes=draw(st.one_of(st.sampled_from([2, 100]), st.integers(2, 12))),
        scale=draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0, 200.0])),
        labelling=draw(st.sampled_from(["argmax", "softmax", "random"])),
        binary32=draw(st.booleans()),
    )


class TestLockstepSearch:
    @given(case=_logit_cases())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar_search(self, case):
        _assert_bit_identical(*case)

    @pytest.mark.parametrize("members,samples,classes,scale,labelling,binary32,edge", [
        (1, 1, 2, 1.0, "softmax", False, None),
        (3, 1, 100, 1.0, "random", True, None),
        (1, 400, 100, 1.0, "softmax", False, None),
        (5, 300, 10, 2.5, "softmax", True, None),
        # From about 32k (M, N) entries numpy may lay out per-sample arrays
        # transposed, and a transposed row sums in another order.
        (20, 2000, 10, 1.0, "softmax", False, None),
        (2, 200, 10, 1e-3, "argmax", False, "low"),
        (2, 200, 100, 1e-3, "argmax", True, "low"),
        (3, 200, 10, 200.0, "random", False, "high"),
        (1, 150, 2, 200.0, "random", True, "high"),
    ])
    def test_fixed_cases(self, members, samples, classes, scale, labelling, binary32, edge):
        temperature, _, _ = _assert_bit_identical(*_logit_case(
            7, members, samples, classes, scale, labelling, binary32))
        grid = temperature_grid()
        if edge == "low":
            assert temperature <= grid[1]
        elif edge == "high":
            assert temperature >= grid[-2]

    def test_calibrated_fixture(self):
        logits, labels = calibrated_fixture(n=2000)
        members = np.stack([logits, 2.5 * logits, 0.4 * logits])
        _assert_bit_identical(make_tensor(members, kind="logits"), labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e307, -1e307])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.zeros((2, 4, 3))
        logits[1, 2, 0] = bad
        labels = np.zeros(4, dtype=int)
        fits = [lambda: fit_temperature(logits[1], labels)]
        if np.isfinite(bad):
            # A tensor holds only finite logits, but +-1e307 overflows at
            # T = 0.01, the first grid point, as the scalar search found.
            tensor = make_tensor(logits, kind="logits")
            fits += [lambda: fit_per_member(tensor, labels), lambda: fit_global(tensor, labels)]
        for fit in fits:
            with pytest.raises(ValueError, match="^softmax requires finite inputs$"):
                fit()

    def test_labels_mismatch_rejected(self):
        logits = np.zeros((2, 5, 3))
        tensor = make_tensor(logits, kind="logits")
        message = r"^labels shape \(3,\) does not match 5 samples$"
        for fit in (lambda: fit_temperature(logits[0], np.zeros(3, dtype=int)),
                    lambda: fit_per_member(tensor, np.zeros(3, dtype=int)),
                    lambda: fit_global(tensor, np.zeros(3, dtype=int))):
            with pytest.raises(ValueError, match=message):
                fit()

    def test_global_rejects_probs(self, rng):
        tensor = make_tensor(rng.dirichlet(np.ones(3), size=(2, 4)), kind="probs")
        with pytest.raises(EptValidationError, match="logits"):
            fit_global(tensor, np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# _Nll reuses work arrays made once, in __init__: no call may depend on the
# values an earlier call left in them.


class TestNllWorkArrays:
    @staticmethod
    def logits_and_labels(members=2, samples=20000, classes=10):
        tensor, labels = _logit_case(11, members, samples, classes, 2.0, "softmax", False)
        return tensor.data, labels

    @pytest.mark.parametrize("pooled", [False, True])
    def test_reused_object_equals_fresh_object_per_call(self, pooled):
        logits, labels = self.logits_and_labels(samples=300)
        count = 1 if pooled else logits.shape[0]
        rng = np.random.default_rng(5)
        grid = temperature_grid()
        calls = [np.full(count, t) for t in grid] + [
            np.exp(rng.uniform(math.log(0.01), math.log(10.0), count)) for _ in range(40)]
        calls = [calls[i] for i in rng.permutation(len(calls))]
        reused = _Nll(logits, labels, pooled)
        for temperatures in calls:
            got = reused(temperatures)
            assert got.tobytes() == _Nll(logits, labels, pooled)(temperatures).tobytes()

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_call_allocates_less_than_one_per_sample_array(self, pooled):
        logits, labels = self.logits_and_labels()
        count = 1 if pooled else logits.shape[0]
        loss = _Nll(logits, labels, pooled)
        temperatures = np.full(count, 0.7)
        loss(temperatures)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss(temperatures)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # A (count, N) float64 array: the work arrays, (M, N) each, were 3-4 such arrays
        # per call before they were made once. What remains is a ufunc buffer at most.
        assert peak < count * logits.shape[1] * 8

    def test_building_allocates_the_copy_and_one_work_block(self):
        # 2 x 3000 x 1000 logits: the classes-first copy is 48 MB, and the work array
        # adds at most WORK_VALUES values however many samples a row holds.
        logits, labels = self.logits_and_labels(samples=3000, classes=1000)
        tracemalloc.start()
        try:
            _Nll(logits, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_sample = logits.shape[0] * logits.shape[1] * 8
        assert peak < logits.nbytes + WORK_VALUES * 8 + 8 * per_sample


# ---------------------------------------------------------------------------
# _Nll works on a class-major copy, one block of samples at a time: every
# loss, and so every fit, is the row-major formula's bit for bit.


@st.composite
def _nll_cases(draw):
    classes = draw(st.integers(2, 130))
    members = draw(st.integers(1, 4))
    pooled = draw(st.booleans())
    width = WORK_VALUES // (classes * (1 if pooled else members))
    # A row holds N samples, or all M * N when pooled: a few, or about one or two work
    # blocks of them. So a case holds at most about 2 * WORK_VALUES logits.
    length = draw(st.one_of(
        st.integers(1, 40),
        st.integers(2 * width - 2, 2 * width + 2),
        st.sampled_from([width - 1, width, width + 1])))
    samples = length
    if pooled:  # M * N within M - 1 of the length, on either side
        samples = max(1, (length + draw(st.integers(0, members - 1))) // members)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = draw(st.sampled_from([1e-3, 1.0, 30.0])) * rng.normal(
        size=(members, samples, classes))
    if draw(st.booleans()):  # binary32 logits, as calibrate widens them
        logits = logits.astype(np.float32).astype(np.float64)
    labels = rng.integers(0, classes, size=samples)
    temperatures = [np.exp(rng.uniform(math.log(0.01), math.log(10.0), 1 if pooled else members))
                    for _ in range(3)]
    return logits, labels, pooled, temperatures


class TestClassMajorNll:
    @given(case=_nll_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_row_major_formula(self, case):
        logits, labels, pooled, temperatures = case
        loss, reference = _Nll(logits, labels, pooled), RowMajorNll(logits, labels, pooled)
        for t in temperatures:
            assert loss(t).tobytes() == reference(t).tobytes()

    @pytest.mark.parametrize("members,samples,classes", [
        pytest.param(20, 2000, 10, id="2000"),
        pytest.param(20, 20000, 10, id="20000"),
        # Wide classes: more than one work block per member and in the pooled row.
        pytest.param(2, 1500, 320, id="wide"),
    ])
    def test_search_fits_equal_row_major_fits(self, members, samples, classes):
        logits, labels = TestNllWorkArrays.logits_and_labels(members, samples, classes)
        for pooled in ((False,) if samples == 20000 else (False, True)):
            got = _search(_Nll(logits, labels, pooled))
            want = _search(RowMajorNll(logits, labels, pooled))
            for a, b in zip(_fields(got), _fields(want)):
                assert np.array_equal(a, b)
