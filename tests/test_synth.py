"""Synthetic generator: determinism, validity, noise scaling, collapse decay."""

import io
import threading
import time

import numpy as np
import pytest

from uqgate import (
    SynthConfig,
    diversity,
    generate,
    generate_collapse_series,
    read_ept,
    standard_decomposition,
    synth,
    write_ept,
)

from helpers import old_softmax

BASE = dict(samples=200, classes=5, members=8, s_signal=2.0, seed=17)


class TestGenerate:
    def test_deterministic_bit_identical(self):
        cfg = SynthConfig(**BASE, s_noise=0.5)
        first = generate(cfg)
        second = generate(cfg)
        assert first[0].data.tobytes() == second[0].data.tobytes()
        assert first[1].data.tobytes() == second[1].data.tobytes()
        np.testing.assert_array_equal(first[2], second[2])

    def test_seed_changes_output(self):
        a = generate(SynthConfig(**{**BASE, "seed": 1}, s_noise=0.5))
        b = generate(SynthConfig(**{**BASE, "seed": 2}, s_noise=0.5))
        assert a[0].data.tobytes() != b[0].data.tobytes()

    def test_zero_noise_collapses_members(self):
        probs, _, _ = generate(SynthConfig(**BASE, s_noise=0.0))
        data = probs.data
        assert all((data[i] == data[0]).all() for i in range(data.shape[0]))
        # Strided axis-0 reductions round, so "zero" means one ulp here.
        assert diversity(probs) < 1e-15
        np.testing.assert_allclose(standard_decomposition(probs).eu, 0.0, atol=1e-12)

    def test_probs_pass_container_validation(self):
        probs, logits, _ = generate(SynthConfig(**BASE, s_noise=1.0))
        for tensor in (probs, logits):
            buffer = io.BytesIO()
            write_ept(tensor, buffer)
            buffer.seek(0)
            loaded = read_ept(buffer)
            assert loaded.data.tobytes() == tensor.data.tobytes()

    def test_labels_within_range_and_spread(self):
        cfg = SynthConfig(samples=5000, classes=4, members=2, s_signal=1.0,
                          s_noise=0.1, seed=9)
        _, _, labels = generate(cfg)
        assert labels.min() >= 0 and labels.max() < 4
        # Signal spread 1.0 leaves genuine aleatoric noise: all classes drawn.
        assert len(np.unique(labels)) == 4

    def test_flat_signal_approaches_uniform_entropy(self):
        # s_signal -> 0 is invalid; a tiny spread stands in for the uniform
        # limit where mean TU approaches ln C.
        cfg = SynthConfig(samples=10_000, classes=10, members=4, s_signal=1e-4,
                          s_noise=0.0, seed=23)
        probs, _, _ = generate(cfg)
        mean_tu = standard_decomposition(probs).tu.mean()
        assert abs(mean_tu - np.log(10.0)) < 0.05

    def test_member_spread_grows_with_noise(self):
        medians = []
        for s_noise in (0.0, 0.1, 0.5, 1.0):
            probs, _, _ = generate(SynthConfig(**BASE, s_noise=s_noise))
            sigma = probs.data.std(axis=0)
            medians.append(np.median(sigma))
        assert all(b > a for a, b in zip(medians, medians[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="s_signal"):
            SynthConfig(**{**BASE, "s_signal": 0.0}, s_noise=0.1).validate()
        with pytest.raises(ValueError, match="s_noise"):
            SynthConfig(**BASE, s_noise=-0.1).validate()
        with pytest.raises(ValueError, match="classes"):
            SynthConfig(samples=1, classes=1, members=1).validate()
        with pytest.raises(ValueError, match="^mode must be 'static' or 'collapse', got 'drift'$"):
            SynthConfig(**BASE, mode="drift").validate()
        with pytest.raises(ValueError, match="collapse mode"):
            SynthConfig(**BASE, mode="collapse", epochs=0).validate()
        with pytest.raises(ValueError, match="static"):
            generate(SynthConfig(**BASE, mode="collapse", epochs=3))

    @pytest.mark.parametrize("field, value, message", [
        ("s_signal", np.nan, "s_signal must be positive and finite"),
        ("s_signal", np.inf, "s_signal must be positive and finite"),
        ("s_noise", np.nan, "s_noise must be non-negative and finite"),
        ("s_noise", np.inf, "s_noise must be non-negative and finite"),
        ("decay", np.nan, "positive finite decay"),
        ("decay", np.inf, "positive finite decay"),
    ])
    def test_nonfinite_settings_rejected(self, field, value, message):
        # Each would otherwise fail later, as "softmax requires finite inputs".
        cfg = SynthConfig(**{**BASE, field: value}, mode="collapse", epochs=2)
        with pytest.raises(ValueError, match=message):
            cfg.validate()


class TestCollapseSeries:
    def collapse_cfg(self, **overrides):
        cfg = dict(BASE, s_noise=0.8, mode="collapse", epochs=8, decay=1.0)
        cfg.update(overrides)
        return SynthConfig(**cfg)

    def test_epoch_zero_matches_static(self):
        cfg = self.collapse_cfg()
        series = generate_collapse_series(cfg)
        static_probs, _, _ = generate(SynthConfig(**BASE, s_noise=0.8))
        assert series[0][0] == 0
        assert series[0][1].data.tobytes() == static_probs.data.tobytes()

    def test_epoch_tags_in_manifest(self):
        series = generate_collapse_series(self.collapse_cfg(epochs=4))
        assert [t.manifest.epoch for _, t in series] == [0, 1, 2, 3]

    def test_strong_decay_reaches_tiny_diversity(self):
        series = generate_collapse_series(self.collapse_cfg(epochs=10, decay=3.0))
        assert diversity(series[-1][1]) < 1e-6

    def test_diversity_nonincreasing_on_medians(self):
        # Fresh noise per epoch makes per-seed decay stochastic; medians
        # across seeds must still fall.
        per_epoch = []
        for seed in range(5):
            series = generate_collapse_series(self.collapse_cfg(seed=100 + seed))
            per_epoch.append([diversity(t) for _, t in series])
        medians = np.median(np.array(per_epoch), axis=0)
        assert (np.diff(medians) < 0).all()

    def test_deterministic(self):
        cfg = self.collapse_cfg(epochs=3)
        a = generate_collapse_series(cfg)
        b = generate_collapse_series(cfg)
        for (_, ta), (_, tb) in zip(a, b):
            assert ta.data.tobytes() == tb.data.tobytes()


class TestInPlaceNoise:
    """The member logits are scaled and shifted in place: every byte as z + s_noise * noise."""

    @staticmethod
    def old_member_logits(cfg, z, s_noise, epoch):
        noise = synth._stream(cfg.seed, synth._STREAM_NOISE, epoch).standard_normal(
            (cfg.members, cfg.samples, cfg.classes))
        return z[None, :, :] + s_noise * noise

    @pytest.mark.parametrize("s_noise", [0.0, 0.5, 3.75])
    def test_static_tensors(self, s_noise):
        cfg = SynthConfig(**{**BASE, "s_noise": s_noise})
        probs, logits, _ = generate(cfg)
        ref = self.old_member_logits(cfg, synth._true_logits(cfg), s_noise, 0)
        assert logits.data.tobytes() == ref.tobytes()
        assert probs.data.tobytes() == old_softmax(ref).tobytes()

    def test_collapse_tensors(self):
        cfg = SynthConfig(**{**BASE, "s_noise": 0.8}, mode="collapse", epochs=5, decay=0.6)
        z = synth._true_logits(cfg)
        for epoch, tensor in generate_collapse_series(cfg):
            scale = cfg.s_noise * float(np.exp(-cfg.decay * epoch))
            ref = old_softmax(self.old_member_logits(cfg, z, scale, epoch))
            assert tensor.data.tobytes() == ref.tobytes()


class TestHelperThread:
    """Collapse epochs are drawn one ahead on a helper thread: every byte as a serial loop."""

    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("epochs", [1, 2, 3, 4, 5])
    def test_bit_identical_to_serial_formula(self, epochs, members):
        cfg = SynthConfig(samples=30, classes=4, members=members, s_noise=0.7, seed=9,
                          mode="collapse", epochs=epochs, decay=0.5)
        z = synth._true_logits(cfg)
        series = generate_collapse_series(cfg)
        assert [epoch for epoch, _ in series] == list(range(epochs))
        for epoch, tensor in series:
            scale = cfg.s_noise * float(np.exp(-cfg.decay * epoch))
            ref = old_softmax(TestInPlaceNoise.old_member_logits(cfg, z, scale, epoch))
            assert tensor.data.tobytes() == ref.tobytes()

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        draw = synth._member_logits

        def failing(cfg, z, s_noise, epoch, out=None):
            if epoch == 2:
                raise MemoryError("epoch 2 draw failed")
            return draw(cfg, z, s_noise, epoch, out)

        monkeypatch.setattr(synth, "_member_logits", failing)
        before = threading.active_count()
        got = []
        with pytest.raises(MemoryError, match="epoch 2 draw failed"):
            for epoch, _ in synth._collapse_epochs(
                    SynthConfig(**BASE, mode="collapse", epochs=5)):
                got.append(epoch)
        assert got == [0, 1]
        assert threading.active_count() == before

    def test_closed_series_joins_its_helper(self, monkeypatch):
        draw = synth._member_logits

        def slow(cfg, z, s_noise, epoch, out=None):
            if epoch == 1:
                time.sleep(0.3)  # still drawing when the consumer walks away
            return draw(cfg, z, s_noise, epoch, out)

        monkeypatch.setattr(synth, "_member_logits", slow)
        before = threading.active_count()
        series = synth._collapse_epochs(SynthConfig(**BASE, mode="collapse", epochs=4))
        assert next(series)[0] == 0
        assert threading.active_count() == before + 1
        series.close()
        assert threading.active_count() == before

    def test_one_helper_thread_draws_every_later_epoch(self, monkeypatch):
        draw = synth._member_logits
        drawn_on = {}  # epoch -> Thread; each is kept alive, so no ident is reused

        def recording(cfg, z, s_noise, epoch, out=None):
            drawn_on[epoch] = threading.current_thread()
            return draw(cfg, z, s_noise, epoch, out)

        monkeypatch.setattr(synth, "_member_logits", recording)
        generate_collapse_series(SynthConfig(**BASE, mode="collapse", epochs=5))
        assert sorted(drawn_on) == [0, 1, 2, 3, 4]
        assert drawn_on[0] is threading.current_thread()
        helper = drawn_on[1]
        assert helper is not threading.current_thread()
        assert all(drawn_on[epoch] is helper for epoch in (2, 3, 4))
        assert not helper.is_alive()
