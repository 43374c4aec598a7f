import ctypes
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from audiosr import data, diffgraph as dg, dsp, models, train
from audiosr.diffgraph import AdamState, Parameter, Tensor
from audiosr.dsp import Signal
from audiosr.train import GanConfig, NumericError, TrainConfig

TINY_EDSR = models.EdsrConfig(filters=8, n_blocks=1, upsample_stages=1)
TINY_UNET = models.UnetConfig(
    depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8,
    dropout_rate=0.5, scale=2,
)
TINY_CRITIC = models.CriticConfig(layers=2, base_filters=4, kernel=9, phase_shuffle_n=1)
F32 = np.dtype(np.float32)


def toy_corpus(count=6, length=2048, seed=3):
    return data.synth_signals(
        data.SynthSpec(count=count, length=length, sample_rate=12000), seed
    )


class TestMakePair:
    """Training pairs: each patch is degraded and fed through models.model_input."""

    @pytest.mark.parametrize("size", [1, 3, 32])
    @pytest.mark.parametrize("kind", ["edsr", "unet"])
    def test_batch_equals_the_stack_of_single_patches(self, kind, size):
        model = models.build_edsr(TINY_EDSR) if kind == "edsr" else models.build_unet(TINY_UNET)
        sampler = train._PatchSampler(toy_corpus(), 256, 8, seed=size)
        patches = sampler.batch(size)
        assert patches.shape == (size, 256)
        inp, tgt = train._batch_arrays(patches, model, 2)
        for row, patch in enumerate(patches):
            low = dsp.downsample(Signal(patch, 12000), 2)
            want = models.model_input(model, low.samples, 2)
            assert np.array_equal(inp[row, 0], want)
            assert np.array_equal(tgt[row, 0], patch)
        assert inp.shape == (size, 1, 128 if kind == "edsr" else 256)

    def test_indivisible_sample_rate_rejected_before_training(self):
        m = models.build_edsr(TINY_EDSR, seed=0)
        corpus = toy_corpus(2) + [Signal(np.zeros(512), 11025)]
        cfg = TrainConfig(steps=1, mode="post", scale=2, batch_size=1, patch_length=256)
        with pytest.raises(ValueError, match="sample rate 11025 is not divisible by factor 2"):
            train.train_supervised(m, corpus, cfg)

    def test_edsr_scale_three_run_rejected(self):
        m = models.build_edsr(TINY_EDSR, seed=0)
        cfg = TrainConfig(steps=1, mode="post", scale=3, batch_size=1, patch_length=96)
        with pytest.raises(ValueError, match="upsamples by 2"):
            train.train_supervised(m, toy_corpus(), cfg)


class _SlotListSampler:
    """Reference sampler: a list of every (item, start) slot, reshuffled each epoch."""

    def __init__(self, corpus, patch_length, align, seed):
        self.corpus, self.patch_length = corpus, patch_length
        self.rng = np.random.default_rng([seed, 0])
        self.slots = [(item, start) for item, sig in enumerate(corpus)
                      for start in range(0, len(sig) - patch_length + 1, align)]
        self.queue = []

    def batch(self, size):
        out = np.empty((size, self.patch_length))
        for row in out:
            if not self.queue:
                self.queue = list(self.rng.permutation(len(self.slots)))
            item, start = self.slots[self.queue.pop()]
            row[:] = self.corpus[item].samples[start : start + self.patch_length]
        return out


class TestPatchSampler:
    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(1, 120), min_size=1, max_size=6),
           patch=st.integers(1, 48), align=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 25), min_size=1, max_size=6))
    def test_draws_match_the_slot_list_reference(self, lengths, patch, align, seed, sizes):
        assume(max(lengths) >= patch)
        # every sample value is distinct, so equal rows mean equal (item, start)
        corpus = [Signal((np.arange(n) + 1000 * i) / 1e4, 12000) for i, n in enumerate(lengths)]
        sampler = train._PatchSampler(corpus, patch, align, seed)
        reference = _SlotListSampler(corpus, patch, align, seed)
        for size in sizes:
            assert np.array_equal(sampler.batch(size), reference.batch(size))

    def test_no_long_enough_item_rejected(self):
        with pytest.raises(ValueError, match="no corpus item is long enough"):
            train._PatchSampler([Signal(np.zeros(10), 12000)], 11, 1, 0)


class TestSupervised:
    def test_overfit_single_batch(self):
        corpus = toy_corpus(1, 512, seed=5)
        m = models.build_edsr(TINY_EDSR, seed=2)
        cfg = TrainConfig(
            steps=200, mode="post", scale=2, batch_size=1, patch_length=512,
            lr=2e-3, seed=2,
        )
        _, log = train.train_supervised(m, corpus, cfg)
        assert log.records[-1].loss < 0.1 * log.records[0].loss

    def test_same_seed_bit_identical_logs(self):
        corpus = toy_corpus()
        runs = []
        for _ in range(2):
            m = models.build_edsr(TINY_EDSR, seed=4)
            cfg = TrainConfig(steps=8, mode="post", scale=2, batch_size=2,
                              patch_length=256, seed=4)
            _, log = train.train_supervised(m, corpus, cfg)
            runs.append(log.trajectory())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("libc", ["missing", "without-mallopt"])
    def test_runs_the_same_without_glibc_mallopt(self, monkeypatch, libc):
        def run():
            m = models.build_edsr(TINY_EDSR, seed=4)
            cfg = TrainConfig(steps=2, mode="post", scale=2, batch_size=2, patch_length=256, seed=4)
            return train.train_supervised(m, toy_corpus(), cfg)[1].trajectory()

        def cdll(name):
            calls.append(name)
            if libc == "missing":
                raise OSError("no C library")
            return object()

        want, calls = run(), []
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run() == want
        assert calls == [None]

    @pytest.mark.parametrize("libc", ["missing", "without-mallopt"])
    def test_reconstructs_the_same_without_glibc_mallopt(self, monkeypatch, libc):
        low = Signal(np.random.default_rng(5).normal(0, 0.1, 301), 12000)
        nets = [None, models.build_edsr(TINY_EDSR, seed=4), models.build_unet(TINY_UNET, seed=4)]

        def run():
            return [models.reconstruct(m, low, 2).samples.tobytes() for m in nets]

        def cdll(name):
            calls.append(name)
            if libc == "missing":
                raise OSError("no C library")
            return object()

        want, calls = run(), []
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run() == want
        assert calls == [None] * len(nets)

    def test_default_losses_by_kind(self, capsys):
        corpus = toy_corpus()
        m = models.build_edsr(TINY_EDSR, seed=0)
        cfg = TrainConfig(steps=1, mode="post", scale=2, batch_size=1, patch_length=256)
        _, log = train.train_supervised(m, corpus, cfg, progress_every=1)
        assert log.meta["loss"] == "l2"
        assert capsys.readouterr().out == f"step 1/1  l2 loss {log.records[0].loss:.6f}\n"
        u = models.build_unet(TINY_UNET, seed=0)
        cfg = TrainConfig(steps=1, mode="pre", scale=2, batch_size=1, patch_length=256)
        _, log = train.train_supervised(u, corpus, cfg)
        assert log.meta["loss"] == "l1"

    def test_kind_mode_mismatch_rejected(self):
        m = models.build_edsr(TINY_EDSR, seed=0)
        cfg = TrainConfig(steps=1, mode="pre", scale=2, batch_size=1, patch_length=256)
        with pytest.raises(ValueError, match="post"):
            train.train_supervised(m, toy_corpus(), cfg)

    def test_empty_corpus_rejected(self):
        m = models.build_edsr(TINY_EDSR, seed=0)
        cfg = TrainConfig(steps=1, mode="post", scale=2, batch_size=1, patch_length=256)
        with pytest.raises(ValueError, match="empty"):
            train.train_supervised(m, [], cfg)

    def test_pre_mode_patch_divisibility_enforced(self):
        u = models.build_unet(TINY_UNET, seed=0)
        cfg = TrainConfig(steps=1, mode="pre", scale=2, batch_size=1, patch_length=251)
        with pytest.raises(ValueError, match="divisible"):
            train.train_supervised(u, toy_corpus(), cfg)

    def test_checkpoint_written_and_loadable(self, tmp_path):
        corpus = toy_corpus()
        m = models.build_edsr(TINY_EDSR, seed=1)
        cfg = TrainConfig(steps=4, mode="post", scale=2, batch_size=2,
                          patch_length=256, checkpoint_every=2, seed=1)
        train.train_supervised(m, corpus, cfg, out_dir=str(tmp_path))
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "ckpt_000002.ckpt").exists()
        loaded = models.load_checkpoint(tmp_path / "final.ckpt")
        assert loaded.train_step == 4
        assert loaded.adam_state is not None

    def test_one_step_equals_adam_on_fd_gradients(self):
        # double precision, tiny model: the trainer's update must match Adam
        # applied to finite-difference gradients of the batch loss
        corpus = toy_corpus(1, 64, seed=8)
        cfg = TrainConfig(steps=1, mode="post", scale=2, batch_size=1,
                          patch_length=64, lr=1e-3, seed=8, loss="l2")
        m = models.build_edsr(models.EdsrConfig(filters=2, n_blocks=1), seed=6)
        before = {p.name: p.data.copy() for p in m.parameters()}

        high = Signal(corpus[0].samples[:64], 12000)
        low = models.model_input(m, dsp.downsample(high, 2).samples, 2)
        inp = Tensor(low[None, None, :])
        tgt = Tensor(high.samples[None, None, :])

        def batch_loss():
            return dg.l2(m.forward(inp), tgt).item()

        fd_grads = {}
        for p in m.parameters():
            flat = p.data.reshape(-1)
            g = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = batch_loss()
                flat[i] = orig - 1e-5
                fm = batch_loss()
                flat[i] = orig
                g[i] = (fp - fm) / 2e-5
            fd_grads[p.name] = g.reshape(p.shape)

        train.train_supervised(m, corpus, cfg)
        state = AdamState(alpha=1e-3)
        expected = {}
        for name, b in before.items():
            ref = Parameter(name, b)
            ref.grad = Tensor(fd_grads[name])
            dg.adam_step([ref], AdamState(alpha=1e-3))
            expected[name] = ref.data
        for p in m.parameters():
            ref = expected[p.name]
            denom = np.maximum(np.abs(ref - before[p.name]), 1e-12)
            rel = np.abs(p.data - ref) / denom
            assert np.max(rel) <= 1e-4


class TestGradientPenalty:
    def test_eps_endpoints_exact(self):
        critic = models.build_critic(TINY_CRITIC, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 1, 64))
        xt = rng.normal(size=(3, 1, 64))
        captured = {}
        original = critic.forward

        def spy(t, rng=None):
            captured["input"] = t.data.copy()
            return original(t, rng=rng)

        critic.forward = spy
        train.gradient_penalty(critic, x, xt, np.ones(3))
        assert np.array_equal(captured["input"], x)
        train.gradient_penalty(critic, x, xt, np.zeros(3))
        assert np.array_equal(captured["input"], xt)

    def test_linear_unit_norm_critic_zero_penalty(self):
        class Linear:
            kind = "critic"

            def __init__(self, w):
                self.w = Tensor(w.reshape(1, 1, -1))

            def forward(self, x, rng=None):
                return dg.sum_axes(dg.mul(x, self.w), (1, 2))

        w = np.zeros(16)
        w[5] = 1.0  # exactly unit norm
        critic = Linear(w)
        rng = np.random.default_rng(1)
        pen = train.gradient_penalty(
            critic, rng.normal(size=(4, 1, 16)), rng.normal(size=(4, 1, 16)), rng.random(4)
        )
        assert pen.item() == 0.0

    def test_penalty_minimum_at_unit_gain(self):
        # critic c*<w, x>: the penalty in c is minimized where ||c w|| == 1
        w = np.full(4, 0.5)  # ||w|| = 1

        def penalty_at(c):
            class Scaled:
                def forward(self, x, rng=None):
                    return dg.sum_axes(dg.mul(x, Tensor(c * w.reshape(1, 1, 4))), (1, 2))

            rng = np.random.default_rng(2)
            return train.gradient_penalty(
                Scaled(), rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)), rng.random(2)
            ).item()

        assert penalty_at(1.0) < penalty_at(0.5)
        assert penalty_at(1.0) < penalty_at(2.0)

    def test_input_gradient_builds_no_critic_weight_gradient(self, monkeypatch):
        # only xhat's gradient is asked for, so no conv weight gradient runs
        critic = models.build_critic(TINY_CRITIC, seed=0)
        xhat = Tensor(np.random.default_rng(3).normal(size=(2, 1, 64)), requires_grad=True)
        score = dg.sum_all(critic.forward(xhat))
        calls, corr = [], dg._corr
        monkeypatch.setattr(dg, "_corr", lambda *a: calls.append(a) or corr(*a))
        assert dg.input_gradient(score, xhat).shape == xhat.shape
        assert calls == []

    def test_shape_mismatch_rejected(self):
        critic = models.build_critic(TINY_CRITIC, seed=0)
        with pytest.raises(ValueError):
            train.gradient_penalty(
                critic, np.zeros((2, 1, 8)), np.zeros((2, 1, 9)), np.zeros(2)
            )

    def test_eps_out_of_range_rejected(self):
        critic = models.build_critic(TINY_CRITIC, seed=0)
        with pytest.raises(ValueError):
            train.gradient_penalty(
                critic, np.zeros((2, 1, 8)), np.zeros((2, 1, 8)), np.array([0.5, 1.5])
            )


class TestCriticObjectiveSign:
    def test_raising_real_score_lowers_critic_loss(self):
        # loss = mean D(fake) - mean D(real) (+ penalty, held fixed here):
        # pushing D(real) up must strictly reduce it
        rng = np.random.default_rng(3)
        x_real = rng.normal(size=(2, 1, 8))
        x_fake = rng.normal(size=(2, 1, 8))

        def critic_loss(bias):
            w = Tensor(np.full((1, 1, 8), 0.1))
            score = lambda v: dg.add(
                dg.sum_axes(dg.mul(Tensor(v), w), (1, 2)),
                dg.mul(Tensor(bias), Tensor(np.array([1.0, 1.0]))),
            )
            # bias only enters through the real branch to isolate the sign
            s_fake = dg.sum_axes(dg.mul(Tensor(x_fake), w), (1, 2))
            return dg.sub(dg.mean_all(s_fake), dg.mean_all(score(x_real))).item()

        assert critic_loss(1.0) < critic_loss(0.0) < critic_loss(-1.0)


class TestWganGp:
    def gan_setup(self, steps=2, seed=5):
        corpus = toy_corpus(4, 1024, seed=7)
        gen = models.build_unet(TINY_UNET, seed=seed)
        critic = models.build_critic(TINY_CRITIC, seed=seed + 1)
        base = TrainConfig(steps=steps, mode="pre", scale=2, batch_size=2,
                           patch_length=256, seed=seed)
        return gen, critic, corpus, GanConfig(base=base)

    @staticmethod
    def reference_critic_updates(gen, critic, corpus, cfg):
        """The critic updates of outer step 1 with one generator forward per
        update and separate fake and real critic forwards; their losses and
        penalties."""
        base, b = cfg.base, cfg.base.batch_size
        critic.adam_state = AdamState(alpha=base.lr, beta1=base.beta1, beta2=base.beta2)
        sampler = train._PatchSampler(corpus, base.patch_length, base.scale, base.seed)
        inp, tgt = train._batch_arrays(sampler.batch((cfg.n_critic + 1) * b), gen, base.scale)
        gen_rng, critic_rng, eps_rng = (np.random.default_rng([base.seed, i]) for i in (1, 2, 3))
        losses, penalties = [], []
        for rows in (slice(i * b, (i + 1) * b) for i in range(cfg.n_critic)):
            with dg.no_grad():
                fake = gen.forward(Tensor(inp[rows]), rng=gen_rng).data
            eps = eps_rng.random(b)
            s_fake = critic.forward(Tensor(fake), rng=critic_rng)
            s_real = critic.forward(Tensor(tgt[rows]), rng=critic_rng)
            pen = train.gradient_penalty(critic, tgt[rows], fake, eps, rng=critic_rng)
            loss = dg.add(dg.sub(dg.mean_all(s_fake), dg.mean_all(s_real)), dg.mul(pen, cfg.gp_weight))
            losses.append(loss.item())
            penalties.append(pen.item())
            train._update(critic, loss, 1, "critic loss", critic_loss=losses[-1], penalty=penalties[-1])
        return losses, penalties

    def test_one_outer_step_stacks_its_forwards(self, monkeypatch):
        # one generator forward makes every critic update's fakes, and each
        # update scores fake and real in one critic forward; the penalty's mix
        # and the generator update keep their own forwards
        ref_gen, ref_critic, corpus, cfg = self.gan_setup(steps=1)
        want_losses, want_penalties = self.reference_critic_updates(ref_gen, ref_critic, corpus, cfg)
        gen, critic, corpus, cfg = self.gan_setup(steps=1)
        calls, updates = {"unet": 0, "critic": 0}, []
        for cls, kind in ((models.UnetModel, "unet"), (models.CriticModel, "critic")):
            def counting(self, *args, _forward=cls.forward, _kind=kind, **kwargs):
                calls[_kind] += 1
                return _forward(self, *args, **kwargs)
            monkeypatch.setattr(cls, "forward", counting)
        def recording(*args, _update=train._update, **values):
            updates.append(values)
            _update(*args, **values)
        monkeypatch.setattr(train, "_update", recording)
        _, _, log = train.train_wgan_gp(gen, critic, corpus, cfg)
        assert calls == {"unet": 2, "critic": 2 * cfg.n_critic + 1}
        assert updates[0]["critic_loss"] == want_losses[0]
        assert updates[0]["penalty"] == want_penalties[0]
        (rec,) = log.records
        assert rec.critic_loss == pytest.approx(np.mean(want_losses), rel=1e-12, abs=0)
        assert rec.penalty == pytest.approx(np.mean(want_penalties), rel=1e-12, abs=0)

    def test_step_bookkeeping(self):
        gen, critic, corpus, cfg = self.gan_setup(steps=1)
        train.train_wgan_gp(gen, critic, corpus, cfg)
        assert critic.train_step == 5
        assert gen.train_step == 1
        assert critic.adam_state.t == 5
        assert gen.adam_state.t == 1

    def test_log_carries_gan_fields(self, capsys):
        gen, critic, corpus, cfg = self.gan_setup(steps=2)
        _, _, log = train.train_wgan_gp(gen, critic, corpus, cfg, progress_every=2)
        assert len(log.records) == 2
        for rec in log.records:
            assert math.isfinite(rec.critic_loss)
            assert math.isfinite(rec.penalty)
            assert math.isfinite(rec.gen_loss)
        rec = log.records[1]
        assert capsys.readouterr().out == (f"outer 2/2  critic {rec.critic_loss:.4f}  "
                                           f"penalty {rec.penalty:.4f}  gen {rec.gen_loss:.4f}\n")

    def test_content_weight_zero_is_pure_adversarial(self):
        # with content_weight=0 the generator loss is exactly -mean(D(G(l)))
        gen, critic, corpus, cfg = self.gan_setup(steps=1)
        _, _, log = train.train_wgan_gp(gen, critic, corpus, cfg)
        assert cfg.content_weight == 0.0
        assert math.isfinite(log.records[-1].gen_loss)

    def test_non_unet_generator_rejected(self):
        edsr = models.build_edsr(TINY_EDSR, seed=0)
        critic = models.build_critic(TINY_CRITIC, seed=1)
        cfg = GanConfig(
            base=TrainConfig(steps=1, mode="pre", scale=2, batch_size=1, patch_length=256)
        )
        with pytest.raises(ValueError, match="pre-upsampling"):
            train.train_wgan_gp(edsr, critic, toy_corpus(), cfg)

    def test_warm_start_equals_starting_from_the_checkpoint(self, tmp_path):
        path = tmp_path / "warm.ckpt"
        models.save_checkpoint(models.build_unet(TINY_UNET, seed=11), path)
        gen, critic, corpus, cfg = self.gan_setup(steps=2)
        _, _, warm = train.train_wgan_gp(
            gen, critic, corpus, GanConfig(base=cfg.base, warm_start=str(path))
        )
        loaded = models.Checkpoint.load(path).build_model()
        _, critic, corpus, cfg = self.gan_setup(steps=2)
        _, _, ref = train.train_wgan_gp(loaded, critic, corpus, cfg)
        assert warm.trajectory() == ref.trajectory()

    @pytest.mark.parametrize(
        "saved, error",
        [(lambda: models.build_unet(dataclasses.replace(TINY_UNET, bottleneck_filters=2)),
          models.CheckpointCorruptError),
         (lambda: models.build_critic(TINY_CRITIC), models.CheckpointKindError)],
        ids=["other-unet", "critic"],
    )
    def test_warm_start_of_another_model_is_rejected(self, tmp_path, saved, error):
        path = tmp_path / "warm.ckpt"
        models.save_checkpoint(saved(), path)
        gen, critic, corpus, cfg = self.gan_setup(steps=1)
        with pytest.raises(error):
            train.train_wgan_gp(gen, critic, corpus, GanConfig(base=cfg.base, warm_start=str(path)))
        assert gen.adam_state is None

    def test_warm_start_keeps_the_generator_dtype(self, tmp_path):
        # a float64 checkpoint into a float32 generator; the content loss gives
        # the generator float64 gradients, and Adam must not promote it
        path = tmp_path / "warm.ckpt"
        models.save_checkpoint(models.build_unet(TINY_UNET, seed=11), path)
        gen = models.build_unet(TINY_UNET, dtype="float32", seed=5)
        _, critic, corpus, cfg = self.gan_setup(steps=1)
        cfg = GanConfig(base=cfg.base, content_weight=1.0, warm_start=str(path))
        train.train_wgan_gp(gen, critic, corpus, cfg)
        assert gen.adam_state.t == 1
        assert {p.data.dtype for p in gen.parameters()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("gen_dtype, critic_dtype", [("float32", "float64"), ("float64", "float32")])
    def test_mixed_dtypes_keep_the_graph_connected(self, gen_dtype, critic_dtype):
        # the critic casts its input on the tape, so the purely adversarial
        # generator loss still reaches a generator of another dtype, and the
        # penalty's input gradient reaches a float32 critic's input
        _, _, corpus, cfg = self.gan_setup(steps=1)
        gen = models.build_unet(TINY_UNET, dtype=gen_dtype, seed=5)
        critic = models.build_critic(TINY_CRITIC, dtype=critic_dtype, seed=6)
        before = {p.name: p.data.copy() for p in gen.parameters()}
        train.train_wgan_gp(gen, critic, corpus, cfg)
        assert cfg.content_weight == 0.0
        assert all(not np.array_equal(p.data, before[p.name]) for p in gen.parameters())
        assert {p.data.dtype for p in gen.parameters()} == {np.dtype(gen_dtype)}
        assert {p.data.dtype for p in critic.parameters()} == {np.dtype(critic_dtype)}

    def test_checkpoint_every_saves_both_models(self, tmp_path):
        gen, critic, corpus, cfg = self.gan_setup(steps=2)
        cfg = GanConfig(base=dataclasses.replace(cfg.base, checkpoint_every=1))
        out = tmp_path / "run"
        *_, log = train.train_wgan_gp(gen, critic, corpus, cfg, out_dir=str(out))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "critic.ckpt", "critic_000001.ckpt", "critic_000002.ckpt",
            "generator.ckpt", "generator_000001.ckpt", "generator_000002.ckpt", "trainlog.csv",
        ]
        log.to_csv(tmp_path / "returned.csv")
        assert (out / "trainlog.csv").read_bytes() == (tmp_path / "returned.csv").read_bytes()
        assert models.load_checkpoint(out / "generator_000001.ckpt").train_step == 1
        assert models.load_checkpoint(out / "critic_000001.ckpt").train_step == cfg.n_critic
        for name in ("generator", "critic"):
            last = (out / f"{name}_000002.ckpt").read_bytes()
            assert last == (out / f"{name}.ckpt").read_bytes()

    def test_warm_start_kind_checked(self, tmp_path):
        edsr = models.build_edsr(TINY_EDSR, seed=0)
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(edsr, path)
        gen, critic, corpus, cfg = self.gan_setup(steps=1)
        cfg = GanConfig(base=cfg.base, warm_start=str(path))
        with pytest.raises(models.CheckpointKindError):
            train.train_wgan_gp(gen, critic, corpus, cfg)

    def test_numeric_abort_carries_step(self, tmp_path):
        gen, critic, corpus, cfg = self.gan_setup(steps=3)
        cfg = GanConfig(base=TrainConfig(
            steps=3, mode="pre", scale=2, batch_size=2, patch_length=256,
            seed=5, lr=1e200,  # parameter products overflow on the next forward
        ))
        out = tmp_path / "run"  # made by the trainer, though no checkpoint is saved
        with pytest.raises(NumericError) as err:
            train.train_wgan_gp(gen, critic, corpus, cfg, out_dir=str(out))
        assert err.value.step >= 1
        assert err.value.record
        rows = [line for line in (out / "trainlog.csv").read_text().splitlines() if not line.startswith("#")]
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(1, err.value.step))

    def test_reproducible_given_seed(self):
        logs = []
        for _ in range(2):
            gen, critic, corpus, cfg = self.gan_setup(steps=2, seed=21)
            _, _, log = train.train_wgan_gp(gen, critic, corpus, cfg)
            logs.append(log.trajectory())
        assert logs[0] == logs[1]


class TestFloat32Training:
    """A float32 model trains in float32: its batch, its loss and every
    gradient below the loss, not float64 arrays promoted on the tape."""

    @pytest.fixture
    def conv_grad_dtypes(self, monkeypatch):
        seen = set()

        def spy(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.add((fn.__name__, out.dtype))
                return out
            return wrapper

        monkeypatch.setattr(dg, "_conv_t", spy(dg._conv_t))
        monkeypatch.setattr(dg, "_corr", spy(dg._corr))
        return seen

    def test_edsr_step(self, conv_grad_dtypes):
        model = models.build_edsr(TINY_EDSR, dtype="float32", seed=1)
        cfg = TrainConfig(steps=1, mode="post", scale=2, batch_size=2, patch_length=256)
        train.train_supervised(model, toy_corpus(2, 1024), cfg)
        assert conv_grad_dtypes == {("_conv_t", F32), ("_corr", F32)}
        assert {p.grad.dtype for p in model.parameters()} == {F32}

    def test_critic_step(self, conv_grad_dtypes):
        gen = models.build_unet(TINY_UNET, dtype="float32", seed=5)
        critic = models.build_critic(TINY_CRITIC, dtype="float32", seed=6)
        base = TrainConfig(steps=1, mode="pre", scale=2, batch_size=2, patch_length=256, seed=5)
        train.train_wgan_gp(gen, critic, toy_corpus(4, 1024, seed=7), GanConfig(base=base, n_critic=1))
        assert conv_grad_dtypes == {("_conv_t", F32), ("_corr", F32)}
        for model in (gen, critic):
            assert {p.grad.dtype for p in model.parameters()} == {F32}


class TestTrainLog:
    def test_monotone_steps_enforced(self):
        log = train.TrainLog(kind="supervised")
        log.append(train.StepRecord(step=1, loss=1.0, wall_time=0.0))
        with pytest.raises(ValueError):
            log.append(train.StepRecord(step=1, loss=0.5, wall_time=0.1))

    def test_csv_layout(self, tmp_path):
        log = train.TrainLog(kind="supervised", meta={"loss": "l2"})
        log.append(train.StepRecord(step=1, loss=0.5, wall_time=0.01))
        log.append(train.StepRecord(step=2, loss=0.25, wall_time=0.02))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# kind = supervised"
        assert "step,loss,wall_time_s" in lines
        assert lines[-1].startswith("2,")
