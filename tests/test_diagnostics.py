"""Diversity, collapse detection, coverage/risk, AUROC, ECE."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgate import (
    ClassStats,
    GateConfig,
    SynthConfig,
    auroc,
    collapse_epoch,
    coverage_risk,
    diversity,
    ece,
    epjs,
    epkl,
    gated_decomposition,
    generate_collapse_series,
    standard_decomposition,
)
from uqgate.diagnostics import _midranks
from uqgate.ept import EptValidationError

from uqgate import stats as stats_module
from helpers import block_budget, class_stats, old_coverage_risk, probs_tensor, random_probs


def pairwise_auroc(neg, pos):
    """Oracle: count positive-beats-negative pairs, ties worth 1/2."""
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(neg) * len(pos))


class TestDiversity:
    @pytest.mark.parametrize("samples", [2, 3, 5])
    def test_blocks_match_the_joined_moments(self, rng, monkeypatch, samples):
        tensor = probs_tensor(random_probs(rng, 4, 13, 3))
        whole = float(ClassStats.from_tensor(tensor).sigma.mean())  # one block by default
        monkeypatch.setattr(stats_module, "BLOCK_VALUES", block_budget(tensor, samples))
        assert diversity(tensor) == whole

    def test_identical_members_zero(self, rng):
        row = random_probs(rng, 1, 5, 3)[0]
        # Two members: the mean is exact, so the spread is exactly zero.
        assert diversity(probs_tensor(np.broadcast_to(row, (2, 5, 3)).copy())) == 0.0
        assert diversity(probs_tensor(np.broadcast_to(row, (5, 5, 3)).copy())) < 1e-15

    def test_uniform_spread_value(self):
        data = np.array([[[0.9, 0.1]] * 3, [[0.5, 0.5]] * 3])
        np.testing.assert_allclose(diversity(probs_tensor(data)), 0.2, atol=1e-12)

    def test_member_permutation_invariant(self, rng):
        data = random_probs(rng, 6, 10, 4)
        np.testing.assert_allclose(
            diversity(probs_tensor(data)),
            diversity(probs_tensor(data[rng.permutation(6)])),
            rtol=0, atol=1e-15,
        )


class TestCollapseEpoch:
    def snapshots_with_diversity(self, rng, values):
        out = []
        for epoch, value in enumerate(values):
            # Two members straddling 0.5 +/- value have stddev exactly value.
            data = np.full((2, 4, 2), 0.5)
            data[0, :, 0] += value
            data[0, :, 1] -= value
            data[1, :, 0] -= value
            data[1, :, 1] += value
            out.append(probs_tensor(data, epoch=epoch + 1))
        return out

    def test_first_crossing_detected(self, rng):
        series = collapse_epoch(
            self.snapshots_with_diversity(rng, [0.2, 0.05, 0.0005]), tau=1e-3
        )
        assert series.collapse_epoch == 3
        np.testing.assert_allclose(series.values, [0.2, 0.05, 0.0005], atol=1e-12)

    def test_no_collapse(self, rng):
        series = collapse_epoch(
            self.snapshots_with_diversity(rng, [0.2, 0.1, 0.05]), tau=1e-3
        )
        assert series.collapse_epoch is None

    def test_epochs_must_increase(self, rng):
        snapshots = self.snapshots_with_diversity(rng, [0.2, 0.1])
        snapshots = [snapshots[1], snapshots[0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            collapse_epoch(snapshots)

    def test_shape_mismatch_rejected(self, rng):
        a = probs_tensor(random_probs(rng, 2, 4, 3), epoch=0)
        b = probs_tensor(random_probs(rng, 2, 5, 3), epoch=1)
        with pytest.raises(EptValidationError, match="shape"):
            collapse_epoch([a, b])

    def test_generator_keeps_one_snapshot_in_memory(self, rng):
        data = [t.data for t in self.snapshots_with_diversity(rng, [0.2, 0.05, 0.0005, 1e-4])]
        expected = collapse_epoch(
            [probs_tensor(values, epoch=e + 1) for e, values in enumerate(data)], tau=1e-3)
        made = []

        def stream():
            for epoch, values in enumerate(data):
                # Every snapshot before the one being read has been released.
                assert all(ref() is None for ref in made)
                tensor = probs_tensor(values, epoch=epoch + 1)
                made.append(weakref.ref(tensor))
                yield tensor
                del tensor  # only collapse_epoch may hold it now

        series = collapse_epoch(stream(), tau=1e-3)
        assert len(made) == 4
        assert series.collapse_epoch == expected.collapse_epoch == 3
        assert np.array_equal(series.epochs, expected.epochs)
        assert np.array_equal(series.values, expected.values)

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="need at least one snapshot"):
            collapse_epoch(iter([]), tau=-1.0)

    def test_synthetic_decay_crossing(self):
        # Calibrate the noise-to-diversity ratio in the linear regime, then
        # place the analytic tau crossing at a known epoch.
        tau = 1e-3
        probe = SynthConfig(samples=300, classes=5, members=20, s_signal=2.0,
                            s_noise=1e-3, seed=21)
        kappa = diversity(generate_collapse_series(
            SynthConfig(**{**probe.__dict__, "mode": "collapse", "epochs": 1, "decay": 1.0})
        )[0][1]) / probe.s_noise
        target_epoch = 6
        s_noise0 = 0.5
        decay = np.log(s_noise0 * kappa / tau) / target_epoch
        cfg = SynthConfig(samples=300, classes=5, members=20, s_signal=2.0,
                          s_noise=s_noise0, seed=21, mode="collapse",
                          epochs=10, decay=float(decay))
        series = collapse_epoch([t for _, t in generate_collapse_series(cfg)], tau=tau)
        assert series.collapse_epoch is not None
        assert abs(series.collapse_epoch - target_epoch) <= 1

    def test_collapse_links_disagreement_measures(self, rng):
        # Collapsed tensor: every disagreement measure vanishes and the
        # gate sensitivity k stops mattering.
        row = random_probs(rng, 1, 8, 5)[0]
        tensor = probs_tensor(np.broadcast_to(row, (4, 8, 5)).copy())
        assert diversity(tensor) < 1e-15
        np.testing.assert_allclose(standard_decomposition(tensor).eu, 0.0, atol=1e-12)
        np.testing.assert_allclose(epkl(tensor), 0.0, atol=1e-12)
        np.testing.assert_allclose(epjs(tensor), 0.0, atol=1e-12)
        reference = gated_decomposition(tensor, GateConfig(k=0.5))
        for k in (1.0, 2.0, 4.0):
            dec = gated_decomposition(tensor, GateConfig(k=k))
            np.testing.assert_allclose(dec.tu, reference.tu, atol=1e-9)
            np.testing.assert_allclose(dec.au, reference.au, atol=1e-9)
            np.testing.assert_allclose(dec.eu, reference.eu, atol=1e-9)


class TestCoverageRisk:
    def test_certain_correct_predictions(self):
        mu = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        stats = ClassStats(mu, np.zeros_like(mu))
        labels = np.array([0, 1, 0])
        curve = coverage_risk(stats, labels, [0.5, 1.0, 4.0])
        np.testing.assert_array_equal(curve.coverage, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(curve.risk, [0.0, 0.0, 0.0])

    def test_nothing_decided_risk_undefined(self):
        mu = np.array([[0.6, 0.4]])
        stats = ClassStats(mu, np.full_like(mu, 0.3))
        curve = coverage_risk(stats, np.array([0]), [50.0])
        assert curve.coverage[0] == 0.0
        assert np.isnan(curve.risk[0])

    def test_coverage_monotone_in_k(self, rng):
        data = random_probs(rng, 8, 200, 4)
        stats = ClassStats.from_tensor(probs_tensor(data))
        labels = rng.integers(0, 4, size=200)
        curve = coverage_risk(stats, labels, np.linspace(0.1, 5.0, 12))
        assert (np.diff(curve.coverage) <= 1e-12).all()

    def test_risk_counts_errors_among_decided(self):
        mu = np.array([[0.9, 0.1], [0.8, 0.2], [0.55, 0.45]])
        stats = ClassStats(mu, np.zeros_like(mu))
        labels = np.array([0, 1, 0])  # second sample decided but wrong
        curve = coverage_risk(stats, labels, [1.0])
        np.testing.assert_allclose(curve.coverage, [1.0])
        np.testing.assert_allclose(curve.risk, [1.0 / 3.0])

    def test_label_length_checked(self):
        stats = ClassStats(np.array([[0.6, 0.4]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="labels"):
            coverage_risk(stats, np.array([0, 1]), [1.0])

    @pytest.mark.parametrize("k_grid", [[0.5, 0.0], [1.0, float("nan")], [float("inf")]])
    def test_every_k_is_checked(self, k_grid):
        stats = ClassStats(np.array([[0.6, 0.4]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="k must be positive"):
            coverage_risk(stats, np.array([0]), k_grid)

    # The rule's columns, gathered once, against the whole decision rule at every k:
    # every bit of the curve must match.

    @given(data=st.data(), stats=class_stats(),
           k_grid=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e6]), st.floats(0.01, 10.0)),
                           min_size=1, max_size=8),
           eps=st.sampled_from([1e-8, 0.0, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_k_reference(self, data, stats, k_grid, eps):
        labels = np.array(data.draw(st.lists(st.integers(0, stats.classes - 1),
                                             min_size=stats.samples, max_size=stats.samples)))
        self._assert_matches(stats, labels, k_grid, eps)

    @pytest.mark.parametrize("k_grid", [
        [3.0, 0.5, 1e6, 0.5, 2.0, 0.01],  # unsorted, with a duplicate
        [1.0],  # a single point
        [1e6, 1e9],  # huge k: nothing with a spread is decided, so risk can be NaN
    ])
    @pytest.mark.parametrize("case", ["ties", "one-sample", "random"])
    def test_matches_the_per_k_reference_on_fixed_cases(self, rng, case, k_grid):
        if case == "ties":  # zero spreads, tied top-2 means, signed zeros
            mu = np.array([[0.5, 0.5, 0.0], [0.0, -0.0, 0.0], [0.7, 0.2, 0.1], [0.4, 0.4, 0.2]])
            stats, labels = ClassStats(mu, np.zeros_like(mu)), np.array([0, 1, 0, 2])
        elif case == "one-sample":  # N = 1, C = 2
            stats, labels = ClassStats(np.array([[0.6, 0.4]]), np.array([[0.05, 0.05]])), [1]
        else:
            stats = ClassStats.from_tensor(probs_tensor(random_probs(rng, 6, 50, 3)))
            labels = rng.integers(0, 3, size=50)
        for eps in (1e-8, 0.0):
            self._assert_matches(stats, np.asarray(labels), k_grid, eps)
        if case == "random" and k_grid[0] == 1e6:
            assert np.isnan(coverage_risk(stats, labels, k_grid).risk).all()

    @staticmethod
    def _assert_matches(stats, labels, k_grid, eps):
        got = coverage_risk(stats, labels, k_grid, eps=eps)
        ref = old_coverage_risk(ClassStats(stats.mu, stats.sigma), labels, k_grid, eps=eps)
        for column, expected in zip(got, ref, strict=True):
            assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(25):
            neg = rng.normal(size=rng.integers(1, 200))
            pos = rng.normal(loc=0.5, size=rng.integers(1, 200))
            # Inject ties to exercise midranks.
            if len(pos) > 3 and len(neg) > 3:
                pos[:3] = neg[:3]
            np.testing.assert_allclose(
                auroc(neg, pos), pairwise_auroc(neg, pos), atol=1e-12
            )

    def test_heavy_ties_and_signed_zeros(self, rng):
        for _ in range(25):
            neg = rng.integers(-2, 3, size=rng.integers(1, 120)).astype(np.float64)
            pos = rng.integers(-1, 4, size=rng.integers(1, 120)).astype(np.float64)
            neg[rng.random(neg.size) < 0.3] = -0.0
            pos[rng.random(pos.size) < 0.3] = 0.0
            np.testing.assert_allclose(
                auroc(neg, pos), pairwise_auroc(neg, pos), atol=1e-12
            )
        assert auroc([-0.0, -0.0], [0.0]) == 0.5

    def test_midranks_match_rankdata(self, rng):
        rankdata = pytest.importorskip("scipy.stats").rankdata
        for _ in range(50):
            values = rng.integers(-3, 4, size=rng.integers(1, 300)).astype(np.float64)
            values[rng.random(values.size) < 0.2] = -0.0
            assert np.array_equal(_midranks(values), rankdata(values, method="average"))
        values = rng.normal(size=500)
        assert np.array_equal(_midranks(values), rankdata(values, method="average"))

    def test_antisymmetry(self, rng):
        neg = rng.normal(size=60)
        pos = rng.normal(size=80)
        np.testing.assert_allclose(auroc(neg, pos) + auroc(pos, neg), 1.0, atol=1e-12)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="non-empty"):
            auroc([], [0.5])
        with pytest.raises(ValueError, match="finite"):
            auroc([np.nan], [0.5])


class TestEce:
    def test_perfectly_calibrated_one_hot(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert ece(probs, np.array([0, 1, 0])) == 0.0

    def test_fully_confident_always_wrong(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert ece(probs, np.array([1, 1])) == 1.0

    def test_single_bin_hand_case(self):
        probs = np.array([[0.8, 0.2], [0.8, 0.2]])
        labels = np.array([0, 1])  # one correct, one wrong at confidence 0.8
        np.testing.assert_allclose(ece(probs, labels, bins=1), 0.3, atol=1e-12)
        np.testing.assert_allclose(ece(probs, labels, bins=15), 0.3, atol=1e-12)

    def test_validation(self):
        probs = np.array([[0.8, 0.2]])
        with pytest.raises(ValueError, match="bins"):
            ece(probs, np.array([0]), bins=0)
        with pytest.raises(ValueError, match="labels"):
            ece(probs, np.array([0, 1]))
