import math

import numpy as np
import pytest

from audiosr import dsp, metrics, models
from audiosr.dsp import Signal, SpectrogramParams


def noise_pair(seed, n=4096, rate=12000):
    rng = np.random.default_rng(seed)
    lowpass = dsp.design_butterworth_lowpass(8, 0.6)
    a = dsp.apply_filter(lowpass, Signal(rng.normal(0, 0.2, n), rate))
    b = dsp.apply_filter(lowpass, Signal(rng.normal(0, 0.2, n), rate))
    return a, b


def lsd_oracle(generated, actual, p):
    """Straight-from-the-formula reimplementation, independent of the library path."""
    def power_grid(sig):
        n = len(sig)
        n_frames = 1 + (n - p.frame_length) // p.hop
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(p.frame_length) / p.frame_length)
        if p.window == "rectangular":
            win = np.ones(p.frame_length)
        rows = []
        for w in range(n_frames):
            seg = sig.samples[w * p.hop : w * p.hop + p.frame_length] * win
            spec = np.fft.rfft(seg)
            rows.append(np.maximum(np.abs(spec) ** 2, p.power_floor))
        return rows

    pg, pa = power_grid(generated), power_grid(actual)
    total = 0.0
    for w in range(len(pg)):
        acc = 0.0
        for k in range(len(pg[w])):
            acc += math.log10(pg[w][k] / pa[w][k]) ** 2
        total += math.sqrt(acc / len(pg[w]))
    return total / len(pg)


class TestSnr:
    def test_identical_is_infinite(self):
        a, _ = noise_pair(0)
        assert metrics.snr(a, a) == math.inf

    def test_zero_generated_is_zero_db(self):
        _, b = noise_pair(1)
        z = Signal(np.zeros(len(b)), b.sample_rate)
        assert metrics.snr(z, b) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_copy_is_twenty_db(self):
        a, _ = noise_pair(2)
        gen = Signal(0.9 * a.samples, a.sample_rate)
        assert metrics.snr(gen, a) == pytest.approx(20.0, abs=1e-9)

    def test_length_mismatch_rejected(self):
        a, _ = noise_pair(3)
        with pytest.raises(ValueError):
            metrics.snr(Signal(a.samples[:-1], a.sample_rate), a)

    def test_zero_reference_rejected(self):
        z = Signal(np.zeros(64), 8000)
        with pytest.raises(ValueError):
            metrics.snr(z, z)

    def test_residual_scale_law(self):
        a, e = noise_pair(4)
        for c in (0.5, 2.0, 10.0):
            gen1 = Signal(a.samples + e.samples, a.sample_rate)
            genc = Signal(a.samples + c * e.samples, a.sample_rate)
            delta = metrics.snr(genc, a) - metrics.snr(gen1, a)
            assert delta == pytest.approx(-20 * math.log10(c), abs=1e-9)


class TestLsd:
    def test_identical_is_zero(self):
        a, _ = noise_pair(5)
        assert metrics.lsd(a, a) == 0.0

    def test_sqrt_ten_scale_is_one(self):
        # full-band noise keeps every bin far above the power floor, so the
        # per-bin ratio is exactly 10
        rng = np.random.default_rng(6)
        a = Signal(rng.normal(0, 0.2, 4096), 12000)
        gen = Signal(math.sqrt(10.0) * a.samples, a.sample_rate)
        assert metrics.lsd(gen, a) == pytest.approx(1.0, abs=1e-9)

    def test_matches_bruteforce_oracle(self):
        p = SpectrogramParams(frame_length=512, hop=128)
        for seed in range(5):
            a, b = noise_pair(seed, n=2048)
            assert metrics.lsd(a, b, p) == pytest.approx(lsd_oracle(a, b, p), abs=1e-9)

    def test_symmetric(self):
        a, b = noise_pair(7)
        assert metrics.lsd(a, b) == metrics.lsd(b, a)

    def test_shift_invariance_on_stationary_noise(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 0.3, 4096 + 512)
        y = x + rng.normal(0, 0.05, len(x))
        p = SpectrogramParams(frame_length=1024, hop=512)
        base = metrics.lsd(Signal(x[:4096], 8000), Signal(y[:4096], 8000), p)
        shifted = metrics.lsd(Signal(x[512:], 8000), Signal(y[512:], 8000), p)
        assert abs(base - shifted) <= 0.1

    def test_bit_identical_on_repeat(self):
        a, b = noise_pair(9)
        assert metrics.lsd(a, b) == metrics.lsd(a, b)
        assert metrics.snr(a, b) == metrics.snr(a, b)

    def test_length_mismatch_rejected(self):
        a, b = noise_pair(10)
        with pytest.raises(ValueError):
            metrics.lsd(Signal(a.samples[:-3], a.sample_rate), b)


class TestEvaluateModel:
    def corpus(self, count=3, seed=11):
        from audiosr import data

        return data.synth_signals(
            data.SynthSpec(count=count, length=8192, sample_rate=12000), seed
        )

    def test_single_item_std_is_zero(self):
        rep = metrics.evaluate_model(None, self.corpus(count=1), 2, "pre")
        assert rep.snr_std == 0.0
        assert rep.lsd_std == 0.0

    def test_spline_baseline_emits_finite_report(self):
        rep = metrics.evaluate_model(None, self.corpus(), 2, "pre")
        assert len(rep.per_item) == 3
        assert math.isfinite(rep.lsd_mean) and rep.lsd_mean > 0
        assert math.isfinite(rep.snr_mean)

    def test_report_embeds_stft_params(self):
        p = SpectrogramParams(frame_length=1024, hop=256)
        rep = metrics.evaluate_model(None, self.corpus(), 2, "pre", stft_params=p)
        assert rep.stft_params == p
        assert rep.scale == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            metrics.evaluate_model(None, [], 2, "pre")

    def test_post_mode_model_pipeline(self):
        m = models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1), seed=0)
        rep = metrics.evaluate_model(m, self.corpus(), 2, "post")
        assert len(rep.per_item) == 3
        assert all(math.isfinite(l) for _, _, l in rep.per_item)

    def test_pre_mode_unet_pipeline_reads_any_length(self):
        # 8,190 samples, which 2**depth = 4 does not divide
        cfg = models.UnetConfig(
            depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8, scale=2
        )
        m = models.build_unet(cfg, seed=0)
        corpus = [Signal(s.samples[: 8190], s.sample_rate) for s in self.corpus()]
        rep = metrics.evaluate_model(m, corpus, 2, "pre")
        assert len(rep.per_item) == 3
        assert all(math.isfinite(v) for _, s, l in rep.per_item for v in (s, l))

    def test_scale_mismatch_rejected(self):
        m = models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1, upsample_stages=1), seed=0)
        with pytest.raises(ValueError):
            metrics.evaluate_model(m, self.corpus(), 4, "post")

    def test_mode_defaults_to_the_models_own(self):
        m = models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1), seed=0)
        rep = metrics.evaluate_model(m, self.corpus(count=1), 2)
        assert rep.mode == "post"
        assert rep.per_item == metrics.evaluate_model(m, self.corpus(count=1), 2, "post").per_item

    @pytest.mark.parametrize(
        "build, mode",
        [
            (lambda: models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1)), "pre"),
            (lambda: models.build_unet(models.UnetConfig(
                depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8)), "post"),
            (lambda: models.build_critic(models.CriticConfig(layers=2, base_filters=2, kernel=5)), "pre"),
            (lambda: models.build_critic(models.CriticConfig(layers=2, base_filters=2, kernel=5)), None),
        ],
    )
    def test_contradicting_mode_rejected(self, build, mode):
        with pytest.raises(ValueError, match="mode|does not upsample"):
            metrics.evaluate_model(build(), self.corpus(count=1), 2, mode)

    def test_csv_round_shape(self, tmp_path):
        rep = metrics.evaluate_model(None, self.corpus(), 2, "pre", item_ids=["a", "b", "c"])
        out = tmp_path / "metrics.csv"
        rep.to_csv(out)
        lines = out.read_text().strip().splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("stft.frame_length" in l for l in header_rows)
        assert body[0] == "item_id,snr_db,lsd_db"
        assert len(body) == 1 + 3 + 2  # header + items + mean/std
        assert body[-2].startswith("mean,")
        assert body[-1].startswith("std,")
