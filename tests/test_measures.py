"""Entropy decomposition and pairwise divergences against explicit pair loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqgate import (
    ClassStats,
    Ensemble,
    GateConfig,
    decide_multiclass,
    epce,
    epjs,
    epkl,
    gated_decomposition,
    gmu_multiclass,
    make_tensor,
    standard_decomposition,
)
from uqgate import cli, gating, measures, stats
from uqgate.gating import decompose_gated
from uqgate.measures import decompose, pairwise_ce, pairwise_js, pairwise_kl
from uqgate.stats import member_probs

from helpers import argsort_top2, block_budget, ordered_pair_js, probs_tensor, random_probs

CLAMP = 1e-12


def clamped_log(p):
    return np.log(np.clip(p, CLAMP, None))


def pair_loop_oracle(data):
    """Oracle: all M^2 ordered pairs, including self-pairs, via Python loops."""
    m, n, _ = data.shape
    ce = np.zeros(n)
    kl = np.zeros(n)
    js = np.zeros(n)

    def H(p):
        return -(p * clamped_log(p)).sum()

    for i in range(n):
        for a in range(m):
            for b in range(m):
                p, q = data[a, i], data[b, i]
                ce[i] += -(p * clamped_log(q)).sum()
                kl[i] += (p * (clamped_log(p) - clamped_log(q))).sum()
                js[i] += H((p + q) / 2.0) - (H(p) + H(q)) / 2.0
    return ce / m**2, kl / m**2, js / m**2


class TestStandardDecomposition:
    def test_identical_members(self, rng):
        row = random_probs(rng, 1, 5, 3)[0]
        dec = standard_decomposition(probs_tensor(np.broadcast_to(row, (4, 5, 3)).copy()))
        np.testing.assert_allclose(dec.eu, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.tu, dec.au, atol=1e-12)

    def test_maximal_disagreement(self):
        dec = standard_decomposition(probs_tensor([[[1.0, 0.0]], [[0.0, 1.0]]]))
        np.testing.assert_allclose(dec.tu, np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(dec.au, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.eu, np.log(2.0), atol=1e-12)

    def test_agreeing_uniform_members(self):
        dec = standard_decomposition(probs_tensor([[[0.5, 0.5]], [[0.5, 0.5]]]))
        np.testing.assert_allclose(dec.tu, np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(dec.eu, 0.0, atol=1e-12)

    def test_definitional_identity_and_eu_sign(self, rng):
        dec = standard_decomposition(probs_tensor(random_probs(rng, 7, 40, 6)))
        np.testing.assert_allclose(dec.tu, dec.au + dec.eu, atol=1e-12)
        assert (dec.eu >= -1e-9).all()


class TestPairwiseMeasures:
    def test_identical_members_vanish(self, rng):
        row = random_probs(rng, 1, 6, 4)[0]
        tensor = probs_tensor(np.broadcast_to(row, (3, 6, 4)).copy())
        np.testing.assert_allclose(epkl(tensor), 0.0, atol=1e-12)
        np.testing.assert_allclose(epjs(tensor), 0.0, atol=1e-12)
        # Self cross-entropy is the member entropy.
        np.testing.assert_allclose(
            epce(tensor), standard_decomposition(tensor).au, atol=1e-12
        )

    def test_one_hot_identical_members(self):
        tensor = probs_tensor([[[1.0, 0.0]], [[1.0, 0.0]]])
        np.testing.assert_allclose(epce(tensor), 0.0, atol=1e-12)

    def test_frozen_two_member_values(self):
        tensor = probs_tensor([[[0.8, 0.2]], [[0.2, 0.8]]])
        np.testing.assert_allclose(epkl(tensor), 0.415888, atol=1e-6)
        np.testing.assert_allclose(epce(tensor), 0.916290, atol=1e-6)
        np.testing.assert_allclose(epjs(tensor), 0.096373, atol=1e-5)

    def test_matches_pair_loop_oracle(self, rng):
        for m, c in ((1, 2), (2, 3), (3, 4), (5, 4)):
            data = random_probs(rng, m, 6, c)
            tensor = probs_tensor(data)
            oracle_ce, oracle_kl, oracle_js = pair_loop_oracle(data)
            np.testing.assert_allclose(epce(tensor), oracle_ce, atol=1e-12)
            np.testing.assert_allclose(epkl(tensor), oracle_kl, atol=1e-12)
            np.testing.assert_allclose(epjs(tensor), oracle_js, atol=1e-12)

    def test_cross_entropy_identity(self, rng):
        tensor = probs_tensor(random_probs(rng, 6, 30, 5))
        au = standard_decomposition(tensor).au
        np.testing.assert_allclose(epkl(tensor), epce(tensor) - au, atol=1e-9)

    def test_js_bounded_by_ln2(self, rng):
        tensor = probs_tensor(random_probs(rng, 8, 50, 3))
        assert (epjs(tensor) <= np.log(2.0) + 1e-9).all()
        assert (epjs(tensor) >= -1e-9).all()
        # The bound is tight for disjoint one-hot members.
        extreme = probs_tensor([[[1.0, 0.0]], [[0.0, 1.0]]])
        np.testing.assert_allclose(epjs(extreme), np.log(2.0) / 2.0, atol=1e-12)

    def test_epkl_nonnegative(self, rng):
        tensor = probs_tensor(random_probs(rng, 5, 60, 7))
        assert (epkl(tensor) >= -1e-9).all()

    def test_member_permutation_invariance(self, rng):
        data = random_probs(rng, 6, 10, 4)
        shuffled = data[rng.permutation(6)]
        for fn in (epce, epkl, epjs):
            np.testing.assert_allclose(
                fn(probs_tensor(data)), fn(probs_tensor(shuffled)), atol=1e-12
            )
        std_a = standard_decomposition(probs_tensor(data))
        std_b = standard_decomposition(probs_tensor(shuffled))
        np.testing.assert_allclose(std_a.tu, std_b.tu, atol=1e-12)
        np.testing.assert_allclose(std_a.eu, std_b.eu, atol=1e-12)

    def test_disjoint_one_hots_are_large_finite(self):
        tensor = probs_tensor([[[1.0, 0.0]], [[0.0, 1.0]]])
        value = epkl(tensor)[0]
        assert np.isfinite(value)
        # KL of one-hot vs opposite one-hot is ln(1/1e-12) / 2 per direction.
        np.testing.assert_allclose(value, np.log(1e12) / 2.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Reference: the tensor-by-tensor formulas each measure used before they were
# derived from one shared Ensemble view. Every value must match bit for bit.


def _ref_entropy(dist):
    return -(dist * np.log(np.clip(dist, CLAMP, None))).sum(axis=-1)


def _ref_probs(tensor):
    return np.clip(tensor.data.astype(np.float64, copy=False), 0.0, 1.0)


def _ref_standard(tensor):
    probs = _ref_probs(tensor)
    tu = _ref_entropy(probs.mean(axis=0))
    au = _ref_entropy(probs).mean(axis=0)
    return tu, au, tu - au


def _ref_epce(tensor):
    probs = _ref_probs(tensor)
    logp = np.log(np.clip(probs, CLAMP, None))
    return -(probs.mean(axis=0) * logp.mean(axis=0)).sum(axis=-1)


def _ref_epkl(tensor):
    probs = _ref_probs(tensor)
    logp = np.log(np.clip(probs, CLAMP, None))
    cross = -(probs.mean(axis=0) * logp.mean(axis=0)).sum(axis=-1)
    return cross + (probs * logp).sum(axis=-1).mean(axis=0)


def _ref_epjs(tensor):
    return ordered_pair_js(_ref_probs(tensor))


def _ref_gated(tensor, k, eps):
    probs = _ref_probs(tensor)
    gates = 1.0 - np.exp(-probs.mean(axis=0) / (k * probs.std(axis=0) + eps))
    weighted = probs * gates[None, :, :]
    mass = weighted.sum(axis=2, keepdims=True)
    degenerate = mass[..., 0] <= 1e-300
    if degenerate.any():
        weighted = np.where(degenerate[:, :, None], probs, weighted)
        mass = weighted.sum(axis=2, keepdims=True)
    members = weighted / mass
    tu = _ref_entropy(members.mean(axis=0))
    au = _ref_entropy(members).mean(axis=0)
    return tu, au, tu - au


def _ref_margin(tensor, k, eps):
    """(gmu, gamma, snr, decision, 0/0 corner mask) from the top-2 class means."""
    probs = _ref_probs(tensor)
    mu, sigma = probs.mean(axis=0), probs.std(axis=0)
    rows = np.arange(mu.shape[0])
    i, j = argsort_top2(mu)
    mu_i, mu_j, sig_i, sig_j = mu[rows, i], mu[rows, j], sigma[rows, i], sigma[rows, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = 1.0 - np.exp(-(mu_i - mu_j) / (sig_i + sig_j + eps))
        snr = (mu_i - mu_j) / (sig_i + sig_j + eps)
    snr = np.where(np.isnan(snr), 0.0, snr)
    fires = (mu_i - k * sig_i) > (mu_j + k * sig_j)
    corner = (mu_i - mu_j == 0) & (sig_i + sig_j + eps == 0)
    return 1.0 - mu_i * gamma, gamma, snr, np.where(fires, i, -1), corner


# Row weights with many exact zeros, so one-hot rows and ties are common.
_weights = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 0.5]), st.floats(1e-6, 1.0))


@st.composite
def _probs_tensors(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(2, 5)))
    weights = draw(hnp.arrays(np.float64, shape, elements=_weights))
    weights[..., 0] += weights.sum(axis=-1) == 0  # no all-zero rows
    data = weights / weights.sum(axis=-1, keepdims=True)
    if draw(st.booleans()):
        data = data.astype(np.float32)
    return make_tensor(data, kind="probs")


K_VALUES = (0.5, 1.0, 2.0, 4.0)


class TestViewMatchesReference:
    @given(tensor=_probs_tensors(), eps=st.sampled_from([1e-8, 1e-3, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, tensor, eps):
        ens = Ensemble(member_probs(tensor))
        ref_std = _ref_standard(tensor)
        for got in (decompose(ens), standard_decomposition(tensor)):
            for value, ref in zip(got, ref_std):
                assert np.array_equal(value, ref)
        for view_fn, tensor_fn, ref_fn in (
            (pairwise_ce, epce, _ref_epce),
            (pairwise_kl, epkl, _ref_epkl),
            (pairwise_js, epjs, _ref_epjs),
        ):
            ref = ref_fn(tensor)
            assert np.array_equal(view_fn(ens), ref)
            assert np.array_equal(tensor_fn(tensor), ref)

        gate_eps = eps or 1e-8  # gating requires eps > 0
        for k in K_VALUES:
            cfg = GateConfig(k=k, epsilon=gate_eps)
            ref = _ref_gated(tensor, k, gate_eps)
            for got in (decompose_gated(ens, cfg), gated_decomposition(tensor, cfg)):
                for value, ref_value in zip(got, ref):
                    assert np.array_equal(value, ref_value)

            gmu, gamma = gmu_multiclass(ens.stats, eps=eps)
            decisions = decide_multiclass(ens.stats, k=k, eps=eps)
            ref_gmu, ref_gamma, ref_snr, ref_decision, corner = _ref_margin(tensor, k, eps)
            assert np.array_equal(gmu[~corner], ref_gmu[~corner])
            assert np.array_equal(gamma[~corner], ref_gamma[~corner])
            assert (gmu[corner] == 1.0).all() and (gamma[corner] == 0.0).all()
            assert np.array_equal(decisions.snr, ref_snr)
            assert np.array_equal(decisions.decision, ref_decision)

    def test_view_computes_no_entropy_for_moments(self, rng):
        ens = Ensemble(member_probs(probs_tensor(random_probs(rng, 3, 4, 5))))
        decide_multiclass(ens.stats, k=1.0)
        gmu_multiclass(ens.stats)
        assert "_log_terms" not in vars(ens)
        assert "top2" in vars(ens.stats)


# ---------------------------------------------------------------------------
# EPJS over unordered pairs in sample blocks against the ordered-pair loop it
# replaced (_ref_epjs), at block sizes small enough to reach every block layout.


@st.composite
def _js_cases(draw):
    block = draw(st.integers(2, 5))
    # Up to 20 members, the dense member count: every member offset step from
    # 1 to 19, and from 8 members on numpy sums a lone sample's terms pairwise.
    # From 8 classes on, class_sum_into takes its unrolled path, and above 128 its split.
    classes = draw(st.one_of(st.integers(2, 5), st.sampled_from([8, 9, 10, 100, 129])))
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 3 * block + 2)), classes)
    if classes <= 5 and shape[0] <= 10:
        weights = draw(hnp.arrays(np.float64, shape, elements=_weights))
    else:  # drawn element by element, wide rows or many members would be slow: seed them
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.random(shape) * (rng.random(shape) < draw(st.sampled_from([0.1, 0.7, 1.0])))
    weights[..., 0] += weights.sum(axis=-1) == 0
    data = weights / weights.sum(axis=-1, keepdims=True)
    if draw(st.booleans()):
        data = data.astype(np.float32)
    return block, make_tensor(data, kind="probs")


def _assert_blocked_js_matches(tensor, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "BLOCK_VALUES", block_budget(tensor, block))
        got = epjs(tensor)
    ref = _ref_epjs(tensor)
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()  # signs of zeros too


class TestBlockedEpjs:
    @given(case=_js_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_ordered_pairs(self, case):
        block, tensor = case
        _assert_blocked_js_matches(tensor, block)

    @pytest.mark.parametrize("members", [1, 2, 9, 12])
    @pytest.mark.parametrize("samples", [1, 2, 3, 4, 5, 7, 8, 9, 12, 13])
    def test_every_block_layout(self, rng, members, samples):
        # Block 4: N below, equal to and above it, multiples and remainders 1 to 3.
        data = rng.dirichlet(np.full(6, 0.3), size=(members, samples))
        data[:, ::3] = np.eye(6)[rng.integers(0, 6, size=(members, len(data[0, ::3])))]
        for precision in (np.float64, np.float32):
            tensor = make_tensor(data.astype(precision), kind="probs")
            _assert_blocked_js_matches(tensor, 4)

    def test_default_block_on_a_larger_tensor(self, rng):
        block = stats.BLOCK_VALUES // (12 * 4)
        tensor = probs_tensor(random_probs(rng, 12, 2 * block + 1, 4))
        _assert_blocked_js_matches(tensor, block)


# ---------------------------------------------------------------------------
# The tensor-level measures map over stats.ensemble_blocks (stats.blockwise);
# each must give every byte that the same measure gives on one whole-tensor view,
# and the CLI's report columns and ood scores every byte of their one-block run.


@st.composite
def _blockwise_cases(draw):
    # From 8 members numpy sums a lone sample's member terms pairwise.
    members, classes = draw(st.integers(1, 9)), draw(st.integers(2, 5))
    # A small value budget: blocks of 2 to 5 samples, 2 when it holds fewer.
    budget = draw(st.integers(1, 6 * members * classes - 1))
    block = max(2, budget // (members * classes))
    samples = draw(st.one_of(  # N up to past three blocks, or one off a block boundary
        st.integers(1, 3 * block + 2),
        st.builds(lambda n, off: max(1, n * block + off), st.integers(1, 3), st.integers(-1, 1))))
    shape = (members, samples, classes)
    if draw(st.booleans()):
        weights = draw(hnp.arrays(np.float64, shape, elements=_weights))
        weights[..., 0] += weights.sum(axis=-1) == 0
        data, kind = weights / weights.sum(axis=-1, keepdims=True), "probs"
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        data, kind = rng.normal(size=shape) * draw(st.sampled_from([0.5, 4.0, 40.0])), "logits"
    precision = draw(st.sampled_from([np.float64, np.float32]))
    return budget, block, make_tensor(data.astype(precision), kind=kind)


def _whole_view_measures(tensor):
    """Every routed measure, evaluated on one whole-tensor view."""
    ens = Ensemble(member_probs(tensor))
    got = {"standard": decompose(ens), "epce": pairwise_ce(ens), "epkl": pairwise_kl(ens),
           "epjs": pairwise_js(ens), "moments": (ens.stats.mu, ens.stats.sigma)}
    for k in K_VALUES:
        got[f"gated k={k}"] = decompose_gated(ens, GateConfig(k=k))
    return got


def _tensor_measures(tensor):
    """The same measures through the tensor-level functions."""
    moments = ClassStats.from_tensor(tensor)
    got = {"standard": standard_decomposition(tensor), "epce": epce(tensor),
           "epkl": epkl(tensor), "epjs": epjs(tensor), "moments": (moments.mu, moments.sigma)}
    for k in K_VALUES:
        got[f"gated k={k}"] = gated_decomposition(tensor, GateConfig(k=k))
    return got


def _cli_scores(tensor):
    """Every report column joined over its blocks, every ood score, and the block count."""
    configs = [GateConfig(k=k) for k in K_VALUES]
    labels = np.arange(tensor.manifest.samples) % tensor.manifest.classes
    blocks = list(cli._report_rows(tensor, labels, configs))
    got = {name: np.concatenate([dict(columns)[name] for columns in blocks])
           for name, _ in blocks[0]}
    ood = cli._ood_scores(tensor, cli.OOD_MEASURES, GateConfig(k=1.0))
    got.update(zip([f"ood {name}" for name in cli.OOD_MEASURES], ood, strict=True))
    return got, len(blocks)


class TestBlockwiseMatchesWholeView:
    @given(case=_blockwise_cases())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, case):
        budget, block, tensor = case
        ref = _whole_view_measures(tensor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "BLOCK_VALUES", tensor.data.size)  # one block
            ref_cli, one = _cli_scores(tensor)
            patch.setattr(stats, "BLOCK_VALUES", budget)
            got = _tensor_measures(tensor)
            got_cli, blocks = _cli_scores(tensor)
        for name, value in got.items():
            assert _bytes(value) == _bytes(ref[name]), name
        assert {name: value.tobytes() for name, value in got_cli.items()} == {
            name: value.tobytes() for name, value in ref_cli.items()}
        assert (one, blocks) == (1, len(stats.sample_blocks(tensor.manifest.samples, block)))


def _bytes(value):
    """The bytes of one array, or of each array in a tuple of them."""
    return [part.tobytes() for part in ((value,) if isinstance(value, np.ndarray) else value)]


class TestScoreTable:
    def test_each_entry_is_its_measure(self, rng):
        ens = Ensemble(member_probs(probs_tensor(random_probs(rng, 5, 40, 4))))
        cfg = GateConfig(k=2.0, epsilon=1e-6)
        std, gated = decompose(ens), decompose_gated(ens, cfg)
        want = {"tu": std.tu, "au": std.au, "eu": std.eu, "epce": pairwise_ce(ens),
                "epkl": pairwise_kl(ens), "epjs": pairwise_js(ens),
                "gmu": gmu_multiclass(ens.stats, eps=1e-6)[0],
                "gated_tu": gated.tu, "gated_au": gated.au, "gated_eu": gated.eu}
        assert list(measures.SCORES) == list(want)  # ood's --measure order
        names = ["epjs", "gated_eu", "tu", "gmu", "gated_tu"]
        got = measures.block_scores(ens, names, cfg)
        assert [value.tobytes() for value in got] == [want[name].tobytes() for name in names]

    def test_each_decomposition_runs_once_and_is_looked_up_when_called(self, rng, monkeypatch):
        ens = Ensemble(member_probs(probs_tensor(random_probs(rng, 3, 10, 3))))
        calls = []
        for module, name in ((measures, "decompose"), (gating, "decompose_gated")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, original=original, name=name:
                                calls.append(name) or original(*args))
        scores = measures.block_scores(ens, [*measures.SCORES, "eu", "tu"], GateConfig(k=1.0))
        assert len(scores) == 12 and calls == ["decompose", "decompose_gated"]
        assert all(score.shape == (10,) for score in scores)

    @pytest.mark.parametrize("members, classes", [(1, 2), (3, 2), (4, 5), (2, 40)])
    def test_joined_columns_own_their_memory(self, rng, members, classes):
        # blockwise keeps every block's per-sample results until it joins them, so a
        # view would keep its block's (M, B, C) or (B, C) base alive as long.
        ens = Ensemble(random_probs(rng, members, 6, classes))
        scores = measures.block_scores(ens, list(measures.SCORES), GateConfig(k=1.0))
        columns = dict(zip(measures.SCORES, scores, strict=True))
        columns.update(zip(("i", "j", "mu_i", "mu_j", "sigma_i", "sigma_j"), ens.stats.top2,
                           strict=True))
        assert [name for name, column in columns.items() if column.base is not None] == []
