"""SNR rules and GMU: hand-derived values, limit regimes, rule equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqgate import (
    ABSENT,
    PRESENT,
    UNCERTAIN,
    ClassStats,
    decide_multiclass,
    decide_multilabel,
    gmu_multiclass,
    gmu_multilabel,
    top2,
)

from helpers import (
    class_stats,
    old_decide_multiclass,
    old_decide_multilabel,
    old_gmu_multiclass,
    old_gmu_multilabel,
)


def stats_from(mu, sigma):
    return ClassStats(mu=np.atleast_2d(np.asarray(mu, dtype=np.float64)),
                      sigma=np.atleast_2d(np.asarray(sigma, dtype=np.float64)))


class TestTop2:
    def test_basic(self):
        assert top2(np.array([0.1, 0.7, 0.2])) == (1, 2)

    def test_tie_breaks_by_lower_index(self):
        assert top2(np.array([0.5, 0.5])) == (0, 1)
        assert top2(np.array([0.4, 0.4, 0.2])) == (0, 1)

    def test_batched(self):
        i, j = top2(np.array([[0.1, 0.7, 0.2], [0.4, 0.4, 0.2]]))
        np.testing.assert_array_equal(i, [1, 0])
        np.testing.assert_array_equal(j, [2, 1])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            top2(np.array([1.0]))


class TestDecideMulticlass:
    def test_boundary_case_abstains(self):
        # Margin exactly k * spread: the strict rule does not fire.
        decisions = decide_multiclass(stats_from([0.7, 0.3], [0.2, 0.2]), k=1.0)
        np.testing.assert_allclose(decisions.snr, 1.0, atol=1e-7)
        assert decisions.decision[0] == UNCERTAIN

    def test_certain_limit_decides(self):
        for k in (0.5, 1.0, 10.0):
            decisions = decide_multiclass(stats_from([0.9, 0.1], [0.0, 0.0]), k=k)
            assert decisions.decision[0] == 0

    def test_tied_means_abstain(self):
        for sigma in (0.0, 0.1):
            decisions = decide_multiclass(
                stats_from([0.5, 0.5], [sigma, sigma]), k=0.01
            )
            assert decisions.snr[0] == 0.0
            assert decisions.decision[0] == UNCERTAIN

    def test_rule_matches_snr_threshold_at_eps_zero(self, rng):
        n = 20_000
        mu = rng.dirichlet(np.ones(4), size=n)
        sigma = rng.uniform(0.0, 0.5, size=(n, 4))
        for k in (0.5, 1.0, 2.0):
            decisions = decide_multiclass(ClassStats(mu, sigma), k=k, eps=0.0)
            fired = decisions.decision != UNCERTAIN
            np.testing.assert_array_equal(fired, decisions.snr > k)

    def test_eps_disagreement_band(self, rng):
        # With eps > 0 the two forms may differ only within k*eps/spread of k.
        n = 50_000
        eps = 1e-8
        k = 1.0
        mu = rng.dirichlet(np.ones(3), size=n)
        sigma = rng.uniform(0.0, 0.5, size=(n, 3))
        stats = ClassStats(mu, sigma)
        decisions = decide_multiclass(stats, k=k, eps=eps)
        fired = decisions.decision != UNCERTAIN
        disagree = fired != (decisions.snr > k)
        if disagree.any():
            rows = np.arange(n)[disagree]
            i, j = top2(mu[disagree])
            spread = sigma[rows[:, None], np.stack([i, j], axis=1)].sum(axis=1)
            assert (np.abs(decisions.snr[disagree] - k) < k * eps / spread).all()

    def test_k_validation(self):
        with pytest.raises(ValueError, match="positive"):
            decide_multiclass(stats_from([0.7, 0.3], [0.1, 0.1]), k=0.0)


class TestGatheredColumns:
    # decide_multiclass and gmu_multiclass read ClassStats.top2's six columns, gathered
    # once; the argsort-and-gather reference gathers at every use. Every bit must match.

    @given(stats=class_stats(), k=st.floats(0.01, 10.0),
           eps=st.sampled_from([1e-8, 0.0, 5e-324, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_rule_snr_and_gmu_match_the_reference(self, stats, k, eps):
        for got, ref in zip(decide_multiclass(stats, k, eps), old_decide_multiclass(stats, k, eps),
                            strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for got, ref in zip(gmu_multiclass(stats, eps), old_gmu_multiclass(stats, eps),
                            strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_columns_are_gathered_once(self, rng):
        stats = ClassStats(rng.dirichlet(np.ones(5), size=7), rng.uniform(0, 0.5, (7, 5)))
        columns = stats.top2
        assert len(columns) == 6
        decide_multiclass(stats, k=1.0)
        gmu_multiclass(stats)
        assert stats.top2 is columns
        i, j, mu_i, mu_j, sigma_i, sigma_j = columns
        rows = np.arange(7)
        assert (mu_i == stats.mu[rows, i]).all() and (sigma_j == stats.sigma[rows, j]).all()


class TestGmuMulticlass:
    def test_hand_value(self):
        gmu, gamma = gmu_multiclass(stats_from([0.7, 0.3], [0.2, 0.2]))
        np.testing.assert_allclose(gamma, 0.632121, atol=1e-6)
        np.testing.assert_allclose(gmu, 0.557515, atol=1e-5)

    def test_confident_certain(self):
        gmu, gamma = gmu_multiclass(stats_from([1.0, 0.0], [0.0, 0.0]))
        assert gmu[0] < 1e-6

    def test_maximal_ambiguity(self):
        gmu, gamma = gmu_multiclass(stats_from([0.5, 0.5], [0.1, 0.1]))
        assert gamma[0] == 0.0
        assert gmu[0] == 1.0

    def test_limit_regimes(self):
        # confident-uncertain: huge spread suppresses the gated score.
        gmu, _ = gmu_multiclass(stats_from([1.0, 0.0], [5e7, 5e7]))
        assert 1.0 - gmu[0] < 1e-6
        # ambiguous-certain: margin far below eps keeps the gate closed.
        gmu, _ = gmu_multiclass(stats_from([0.5 + 5e-17, 0.5 - 5e-17], [0.0, 0.0]))
        assert 1.0 - gmu[0] < 1e-6
        # ambiguous-uncertain.
        gmu, _ = gmu_multiclass(stats_from([0.5 + 5e-17, 0.5 - 5e-17], [5e7, 5e7]))
        assert 1.0 - gmu[0] < 1e-6

    def test_tied_zero_spread_at_eps_zero_is_closed_gate(self):
        # 0/0 margin over spread: SNR 0 in the rule, so a closed gate here too.
        stats = stats_from([0.5, 0.5], [0.0, 0.0])
        with np.errstate(all="raise"):
            gmu, gamma = gmu_multiclass(stats, eps=0.0)
        assert gamma[0] == 0.0 and gmu[0] == 1.0
        assert decide_multiclass(stats, k=1.0, eps=0.0).snr[0] == 0.0

    def test_bounded_by_one_minus_top1(self, rng):
        n = 5000
        mu = rng.dirichlet(np.ones(5), size=n)
        sigma = rng.uniform(0.0, 0.5, size=(n, 5))
        gmu, _ = gmu_multiclass(ClassStats(mu, sigma))
        top1 = mu.max(axis=1)
        assert (gmu >= 1.0 - top1 - 1e-12).all()
        assert (gmu <= 1.0 + 1e-12).all()

    @given(
        margin=st.floats(0.05, 0.9),
        ratio=st.floats(0.1, 15.0),
        bump=st.floats(1.1, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, margin, ratio, bump):
        # Keep margin/spread below the float64 saturation of 1 - exp(-x).
        top1 = 0.95
        spread = margin / ratio
        base, _ = gmu_multiclass(stats_from([top1, top1 - margin],
                                            [spread / 2, spread / 2]))
        wider, _ = gmu_multiclass(stats_from([top1, top1 - margin],
                                             [spread * bump / 2, spread * bump / 2]))
        assert wider[0] > base[0]  # more disagreement, more uncertainty
        if margin * bump <= top1:
            sharper, _ = gmu_multiclass(stats_from([top1, top1 - margin * bump],
                                                   [spread / 2, spread / 2]))
            assert sharper[0] < base[0]  # wider margin, less uncertainty


class TestMultilabel:
    def test_present_hand_value(self):
        snr, decision = decide_multilabel(0.9, 0.05, k=1.0)
        np.testing.assert_allclose(snr, 8.0, atol=1e-5)
        assert decision == PRESENT

    def test_ambiguous_abstains(self):
        snr, decision = decide_multilabel(0.5, 0.1, k=1.0)
        assert snr == 0.0
        assert decision == UNCERTAIN

    def test_complement_folding_gives_absent(self):
        _, decision = decide_multilabel(0.1, 0.0, k=1.0)
        assert decision == ABSENT

    def test_gmu_hand_value(self):
        np.testing.assert_allclose(gmu_multilabel(0.9, 0.05), 0.100302, atol=1e-5)

    def test_gmu_limits(self):
        assert gmu_multilabel(1.0, 0.0) < 1e-6
        assert gmu_multilabel(0.5, 0.0) == 1.0  # closed gate at perfect ambiguity
        assert 1.0 - gmu_multilabel(1.0, 1e8) < 1e-6
        assert 1.0 - gmu_multilabel(0.5 + 5e-17, 0.0) < 1e-6
        assert 1.0 - gmu_multilabel(0.5 + 5e-17, 1e8) < 1e-6

    def test_gmu_tied_zero_spread_at_eps_zero(self):
        with np.errstate(all="raise"):
            assert gmu_multilabel(0.5, 0.0, eps=0.0) == 1.0
        snr, _ = decide_multilabel(0.5, 0.0, k=1.0, eps=0.0)
        assert snr == 0.0

    def test_gmu_continuous_at_half(self):
        # Both one-sided limits give 1; the folded branch must match.
        for delta in (1e-4, 1e-6):
            assert gmu_multilabel(0.5 + delta, 0.1) > 0.99
            assert gmu_multilabel(0.5 - delta, 0.1) > 0.99

    def test_vectorized(self, rng):
        u = rng.random(100)
        sigma = rng.uniform(0.0, 0.5, size=100)
        gmu = gmu_multilabel(u, sigma)
        assert gmu.shape == (100,)
        assert ((gmu >= -1e-12) & (gmu <= 1.0 + 1e-12)).all()

    def test_matches_two_class_multiclass(self, rng):
        # Complementary two-class rows force sigma(i) = sigma(j), so the
        # multiclass SNR reduces to the multilabel form.
        u = rng.random(50)
        sigma = rng.uniform(0.0, 0.4, size=50)
        mu = np.stack([u, 1.0 - u], axis=1)
        sig = np.stack([sigma, sigma], axis=1)
        mc = decide_multiclass(ClassStats(mu, sig), k=1.0)
        ml_snr, _ = decide_multilabel(u, sigma, k=1.0)
        np.testing.assert_allclose(mc.snr, ml_snr, atol=1e-9)
        mc_gmu, _ = gmu_multiclass(ClassStats(mu, sig))
        np.testing.assert_allclose(mc_gmu, gmu_multilabel(u, sigma), atol=1e-9)


@st.composite
def _labels(draw):
    """Raw label means over [0, 1], with the edges 0, 0.5 and 1 drawn often, and spreads."""
    means = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    spreads = st.one_of(st.sampled_from([0.0, 0.1, 0.5]), st.floats(0.0, 0.5))
    u = draw(hnp.arrays(np.float64, st.integers(1, 8), elements=means))
    return u, draw(hnp.arrays(np.float64, u.shape, elements=spreads))


@given(labels=_labels(), k=st.floats(0.01, 10.0), eps=st.sampled_from([1e-8, 0.0, 5e-324, 0.5]))
@settings(max_examples=300, deadline=None)
def test_multilabel_matches_the_reference(labels, k, eps):
    # The shared rule reads the complement as mean 1 - mu(i) with the same spread.
    u, sigma = labels
    for args in ((u, sigma), (u[0], sigma[0])):  # arrays, and one label as scalars
        for got, ref in zip(decide_multilabel(*args, k, eps), old_decide_multilabel(*args, k, eps),
                            strict=True):
            assert type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        got, ref = gmu_multilabel(*args, eps), old_gmu_multilabel(*args, eps)
        assert type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()
