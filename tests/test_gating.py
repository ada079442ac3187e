"""Variance gate: closed forms, limit regimes, oracle equivalence, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgate import (
    GateConfig,
    SynthConfig,
    gate,
    gated_decomposition,
    gated_members,
    generate,
    standard_decomposition,
)
from uqgate.ept import EptValidationError

from helpers import probs_tensor, random_probs

K1 = GateConfig(k=1.0)


def brute_force_gated(data, k, eps):
    """Oracle: per-sample Python loops for gates, renormalized members, mean."""
    m, n, c = data.shape
    gates = np.zeros((n, c))
    members = np.zeros_like(data)
    for i in range(n):
        for j in range(c):
            col = data[:, i, j]
            mu = col.mean()
            sigma = np.sqrt(((col - mu) ** 2).mean())
            gates[i, j] = 1.0 - np.exp(-mu / (k * sigma + eps))
        for member in range(m):
            weighted = data[member, i] * gates[i]
            members[member, i] = weighted / weighted.sum()
    return gates, members, members.mean(axis=0)


class TestGateFunction:
    def test_certain_limit_is_open(self):
        gamma = gate(np.array([[0.5]]), np.array([[0.0]]), K1)
        np.testing.assert_allclose(gamma, 1.0, atol=1e-15)

    def test_closed_form(self):
        gamma = gate(np.array([[0.6]]), np.array([[0.3]]), GateConfig(k=2.0))
        np.testing.assert_allclose(gamma, 0.632121, atol=1e-6)

    def test_zero_mean_closes_gate(self):
        for sigma in (0.0, 0.1, 0.5):
            assert gate(np.array([[0.0]]), np.array([[sigma]]), K1) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            GateConfig(k=0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            GateConfig(k=1.0, epsilon=0.0)

    @given(
        mu=st.floats(0.01, 1.0),
        sigma=st.floats(0.001, 0.5),
        k=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold_everywhere(self, mu, sigma, k):
        gamma = float(gate(np.array([mu]), np.array([sigma]), GateConfig(k=k))[0])
        assert 0.0 <= gamma <= 1.0
        # Strictly below 1 while exp(-arg) stays above one ulp of 1.0.
        if mu / (k * sigma + 1e-8) < 36:
            assert gamma < 1.0

    @given(
        mu=st.floats(0.05, 1.0),
        ratio=st.floats(0.1, 20.0),
        k=st.floats(0.2, 5.0),
        bump=st.floats(1.2, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, mu, ratio, k, bump):
        # sigma chosen so both exp arguments stay well inside float range.
        sigma = mu * ratio / k
        cfg = GateConfig(k=k)
        lo = float(gate(np.array([mu]), np.array([sigma]), cfg)[0])
        hi_sigma = float(gate(np.array([mu]), np.array([sigma * bump]), cfg)[0])
        hi_k = float(gate(np.array([mu]), np.array([sigma]), GateConfig(k=k * bump))[0])
        assert hi_sigma < lo  # decreasing in sigma
        assert hi_k < lo      # decreasing in k
        if mu * bump <= 1.0:
            up_mu = float(gate(np.array([mu * bump]), np.array([sigma]), cfg)[0])
            assert up_mu > lo  # increasing in mu


class TestLimitRegimes:
    """The four (confident/ambiguous x certain/uncertain) cases."""

    def evaluate(self, mu, sigma, k=1.0):
        return float(gate(np.array([mu]), np.array([sigma]), GateConfig(k=k))[0])

    def test_confident_certain_preserves_mass(self):
        gamma = self.evaluate(mu=1.0, sigma=0.0)
        assert abs(0.9 * gamma - 0.9) < 1e-6

    def test_confident_uncertain_suppresses(self):
        gamma = self.evaluate(mu=1.0, sigma=1e8)
        assert 0.9 * gamma < 1e-6

    def test_ambiguous_certain_suppresses(self):
        gamma = self.evaluate(mu=1e-16, sigma=0.0)
        assert 1.0 * gamma < 1e-6

    def test_ambiguous_uncertain_suppresses(self):
        gamma = self.evaluate(mu=1e-16, sigma=1e8)
        assert 1.0 * gamma < 1e-6


class TestGatedMembers:
    def test_single_member_identity(self, rng):
        data = random_probs(rng, 1, 10, 4)
        gated = gated_members(probs_tensor(data), K1)
        np.testing.assert_allclose(gated.members, data, atol=1e-7)
        assert not gated.fallback.any()

    def test_worked_example(self):
        tensor = probs_tensor([[[0.9, 0.1]], [[0.5, 0.5]]])
        gated = gated_members(tensor, K1)
        np.testing.assert_allclose(gated.gates[0], [0.969803, 0.776870], atol=1e-6)
        np.testing.assert_allclose(gated.members[0, 0], [0.918269, 0.081731], atol=1e-5)

    def test_identical_members_unchanged(self, rng):
        row = random_probs(rng, 1, 6, 5)[0]
        data = np.broadcast_to(row, (4, 6, 5)).copy()
        gated = gated_members(probs_tensor(data), K1)
        np.testing.assert_allclose(gated.members, data, atol=1e-9)

    def test_matches_brute_force_oracle(self, rng):
        for k in (0.5, 1.0, 4.0):
            data = random_probs(rng, 5, 8, 4)
            gated = gated_members(probs_tensor(data), GateConfig(k=k))
            gates, members, predictive = brute_force_gated(data, k, 1e-8)
            np.testing.assert_allclose(gated.gates, gates, atol=1e-12)
            np.testing.assert_allclose(gated.members, members, atol=1e-12)
            np.testing.assert_allclose(gated.predictive, predictive, atol=1e-12)

    def test_rows_renormalized(self, rng):
        data = random_probs(rng, 6, 20, 7)
        gated = gated_members(probs_tensor(data), GateConfig(k=2.0))
        np.testing.assert_allclose(gated.members.sum(axis=2), 1.0, atol=1e-9)

    def test_premass_bounded(self, rng):
        data = random_probs(rng, 4, 30, 5)
        gated = gated_members(probs_tensor(data), K1)
        mass = data * gated.gates[None]
        assert (mass >= 0).all()
        assert (mass <= data).all()
        positive = data > 0
        representable = gated.gates[None] < 1.0
        assert (mass[positive & representable] < data[positive & representable]).all()

    def test_degenerate_rows_fall_back(self, rng):
        data = random_probs(rng, 3, 4, 3)
        # Astronomical k drives every gate to exactly 0, starving all rows.
        gated = gated_members(probs_tensor(data), GateConfig(k=1e305))
        assert gated.fallback.all()
        np.testing.assert_allclose(gated.members, data, atol=1e-15)

    def test_multilabel_rejected(self, rng):
        tensor = probs_tensor(rng.random((2, 3, 4)), task="multilabel")
        with pytest.raises(EptValidationError, match="multiclass"):
            gated_members(tensor, K1)


class TestGatedDecomposition:
    def test_identical_members_have_zero_eu(self, rng):
        row = random_probs(rng, 1, 5, 4)[0]
        tensor = probs_tensor(np.broadcast_to(row, (4, 5, 4)).copy())
        dec = gated_decomposition(tensor, K1)
        np.testing.assert_allclose(dec.eu, 0.0, atol=1e-9)
        np.testing.assert_allclose(dec.tu, dec.au, atol=1e-9)

    def test_extreme_disagreement(self):
        tensor = probs_tensor([[[1.0, 0.0]], [[0.0, 1.0]]])
        for k in (1e-6, 1.0):
            dec = gated_decomposition(tensor, GateConfig(k=k))
            np.testing.assert_allclose(dec.tu, np.log(2.0), atol=1e-9)
            np.testing.assert_allclose(dec.au, 0.0, atol=1e-9)
            np.testing.assert_allclose(dec.eu, np.log(2.0), atol=1e-9)

    def test_identity_is_definitional(self, rng):
        tensor = probs_tensor(random_probs(rng, 6, 25, 5))
        dec = gated_decomposition(tensor, GateConfig(k=2.0))
        np.testing.assert_allclose(dec.tu, dec.au + dec.eu, atol=1e-12)

    def test_eu_nonnegative(self, rng):
        for k in (0.5, 1.0, 4.0):
            tensor = probs_tensor(random_probs(rng, 8, 50, 6))
            dec = gated_decomposition(tensor, GateConfig(k=k))
            assert (dec.eu >= -1e-9).all()

    def test_converges_to_standard_at_tiny_spread(self):
        cfg = SynthConfig(samples=300, classes=6, members=10, s_signal=2.0,
                          s_noise=1e-6, seed=11)
        probs, _, _ = generate(cfg)
        std = standard_decomposition(probs)
        for k in (0.5, 1.0, 2.0, 4.0):
            dec = gated_decomposition(probs, GateConfig(k=k))
            assert np.abs(dec.tu - std.tu).max() < 1e-4
            assert np.abs(dec.au - std.au).max() < 1e-4
            assert np.abs(dec.eu - std.eu).max() < 1e-4

    def test_median_tu_nonincreasing_in_k(self):
        cfg = SynthConfig(samples=500, classes=10, members=20, s_signal=2.0,
                          s_noise=0.5, seed=5)
        probs, _, _ = generate(cfg)
        medians = [
            np.median(gated_decomposition(probs, GateConfig(k=k)).tu)
            for k in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b <= a for a, b in zip(medians, medians[1:]))
