import dataclasses
import hashlib
import inspect
import math
import multiprocessing
import os
import resource
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiosr import cli, diffgraph as dg, dsp, models, train
from audiosr.diffgraph import Tensor
from audiosr.dsp import Signal
from audiosr.models import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    CriticConfig,
    EdsrConfig,
    UnetConfig,
)

TINY_EDSR = EdsrConfig(filters=8, n_blocks=2, block_kernel=9, stem_kernel=3, upsample_stages=1)
TINY_UNET = UnetConfig(
    depth=2, down_filters=(8, 16), down_kernels=(9, 9), bottleneck_filters=16,
    dropout_rate=0.5, scale=2,
)
TINY_CRITIC = CriticConfig(layers=3, base_filters=4, kernel=9, phase_shuffle_n=2)


def edsr_count_closed_form(cfg: EdsrConfig) -> int:
    f, kb, ks, n, q = cfg.filters, cfg.block_kernel, cfg.stem_kernel, cfg.n_blocks, cfg.upsample_stages
    stem = ks * f + f
    blocks = n * 2 * (kb * f * f + f)
    post = ks * f * f + f
    up = q * (ks * f * 2 * f + 2 * f)
    head = ks * f + 1
    return stem + blocks + post + up + head


def zero_params(m):
    for p in m.parameters():
        p.data = np.zeros_like(p.data)


def tiny_critic_checkpoint(path):
    """Save a one-filter critic with Adam moments, which has every checkpoint
    field in a few hundred bytes, to ``path``; return the model and the bytes."""
    m = models.build_critic(CriticConfig(layers=1, base_filters=1, kernel=1), seed=9)
    m.adam_state = dg.AdamState(t=1)
    for p in m.parameters():
        m.adam_state.m[p.name] = np.full(p.shape, 0.5)
        m.adam_state.v[p.name] = np.full(p.shape, 0.25)
    models.save_checkpoint(m, path)
    return m, path.read_bytes()


# one edit of a checkpoint: (position, bytes removed, bytes inserted); the
# position is taken modulo the current length plus one, and the inserted bytes
# are random or a run of the original file, such as a whole field or record
_POSITION = st.integers(0, 1 << 12)
_INSERTED = st.one_of(st.binary(min_size=2, max_size=24), st.tuples(_POSITION, st.integers(2, 24)))
CHECKPOINT_EDIT = st.one_of(
    st.tuples(_POSITION, st.integers(2, 24), _INSERTED),  # splice
    st.tuples(_POSITION, st.just(0), _INSERTED),  # insertion
    st.tuples(_POSITION, st.integers(2, 24), st.just(b"")),  # deletion
)


def apply_edits(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, removed, inserted in edits:
        if isinstance(inserted, tuple):
            start, n = inserted
            start %= len(blob)
            inserted = blob[start : start + n]
        pos %= len(out) + 1
        out[pos : pos + removed] = inserted
    return bytes(out)


def edit_header(blob: bytes, old: str, new: str) -> bytes:
    """A checkpoint ``blob`` with ``old`` replaced by ``new`` in its header,
    whose length field is fixed up to match."""
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = blob[16 : 16 + hlen].decode()
    assert old in header
    text = header.replace(old, new).encode()
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + hlen :]


def forbid_weight_draws(monkeypatch):
    """From here on, a uniform draw from a new ``np.random.default_rng`` fails
    the test at once, before it can allocate anything."""
    class NoDraws:
        def uniform(self, *args, **kwargs):
            raise AssertionError("random weights were drawn")

    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())


class TestEdsr:
    def test_table_parameter_counts(self):
        assert models.count_parameters(models.build_edsr(EdsrConfig())) == 9_594_113
        assert (
            models.count_parameters(models.build_edsr(EdsrConfig(upsample_stages=2)))
            == 9_692_673
        )

    def test_tiny_count(self):
        assert models.count_parameters(models.build_edsr(TINY_EDSR)) == 2_993

    @pytest.mark.parametrize(
        "cfg",
        [
            EdsrConfig(filters=8, n_blocks=2),
            EdsrConfig(filters=5, n_blocks=3, block_kernel=7, stem_kernel=5, upsample_stages=2),
            EdsrConfig(filters=12, n_blocks=1, block_kernel=3, stem_kernel=9, upsample_stages=3),
        ],
    )
    def test_count_matches_closed_form(self, cfg):
        assert models.count_parameters(models.build_edsr(cfg)) == edsr_count_closed_form(cfg)

    def test_forward_scale_contract(self):
        m = models.build_edsr(TINY_EDSR, seed=1)
        y = m.forward(Tensor(np.random.default_rng(0).normal(size=(2, 1, 512))))
        assert y.shape == (2, 1, 1024)

    def test_forward_scale_contract_q2(self):
        m = models.build_edsr(EdsrConfig(filters=4, n_blocks=1, upsample_stages=2), seed=1)
        for length in (16, 48, 100):
            y = m.forward(Tensor(np.zeros((1, 1, length))))
            assert y.shape == (1, 1, 4 * length)

    def test_zero_parameters_zero_output(self):
        m = models.build_edsr(TINY_EDSR, seed=1)
        zero_params(m)
        y = m.forward(Tensor(np.random.default_rng(0).normal(size=(1, 1, 64))))
        assert np.all(y.data == 0.0)

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError):
            EdsrConfig(block_kernel=8)

    def test_input_shape_rejected(self):
        m = models.build_edsr(TINY_EDSR)
        with pytest.raises(ValueError):
            m.forward(Tensor(np.zeros((1, 2, 64))))


class TestUnet:
    def test_forward_preserves_length(self):
        cfg = UnetConfig(
            depth=4, down_filters=(4, 8, 8, 8), down_kernels=(9, 9, 9, 9),
            bottleneck_filters=8, scale=2,
        )
        m = models.build_unet(cfg, seed=1)
        y = m.forward(Tensor(np.random.default_rng(0).normal(size=(1, 1, 4096))))
        assert y.shape == (1, 1, 4096)

    def test_tiny_count_closed_form(self):
        m = models.build_unet(TINY_UNET)
        want = (
            (9 * 1 * 8 + 8)          # down0
            + (9 * 8 * 16 + 16)      # down1
            + (9 * 16 * 16 + 16)     # bottleneck
            + (9 * 16 * 32 + 32)     # up1 -> 2*f1
            + (9 * 32 * 16 + 16)     # up0 -> 2*f0
            + (9 * 16 * 2 + 2)       # head
        )
        assert models.count_parameters(m) == want

    def test_zero_parameters_identity(self):
        m = models.build_unet(TINY_UNET, seed=3)
        zero_params(m)
        x = np.random.default_rng(1).normal(size=(2, 1, 64))
        y = m.forward(Tensor(x))
        assert np.array_equal(y.data, x)

    def test_eval_mode_deterministic(self):
        m = models.build_unet(TINY_UNET, seed=4)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 128)))
        a = m.forward(x)
        b = m.forward(x)
        assert np.array_equal(a.data, b.data)

    def test_training_mode_dropout_varies(self):
        m = models.build_unet(TINY_UNET, seed=4)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 128)))
        rng = np.random.default_rng(0)
        a = m.forward(x, rng=rng)
        b = m.forward(x, rng=rng)
        assert not np.array_equal(a.data, b.data)

    def test_odd_interior_lengths_handled(self):
        # length divisible by 2**depth only; interior stride-2 stages hit odd sizes
        cfg = UnetConfig(
            depth=2, down_filters=(4, 4), down_kernels=(9, 9), bottleneck_filters=4, scale=2
        )
        m = models.build_unet(cfg, seed=5)
        y = m.forward(Tensor(np.zeros((1, 1, 4 * 17))))
        assert y.shape == (1, 1, 68)


class TestCritic:
    def test_scores_one_per_item(self):
        m = models.build_critic(TINY_CRITIC, seed=1)
        s = m.forward(Tensor(np.random.default_rng(0).normal(size=(5, 1, 200))))
        assert s.shape == (5,)

    def test_eval_deterministic(self):
        m = models.build_critic(TINY_CRITIC, seed=1)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 1, 256)))
        assert np.array_equal(m.forward(x).data, m.forward(x).data)

    def test_count_closed_form(self):
        m = models.build_critic(TINY_CRITIC)
        want = (
            (9 * 1 * 4 + 4)
            + (9 * 4 * 8 + 8)
            + (9 * 8 * 16 + 16)
            + (16 * 1 + 1)  # dense head
        )
        assert models.count_parameters(m) == want

    def test_accepts_any_length(self):
        m = models.build_critic(TINY_CRITIC, seed=2)
        for length in (64, 100, 257):
            assert m.forward(Tensor(np.zeros((1, 1, length)))).shape == (1,)

    def test_shift_robustness_diagnostic(self):
        # recorded as a diagnostic, not asserted as an equality
        m = models.build_critic(TINY_CRITIC, seed=3)
        x = np.random.default_rng(4).normal(size=(1, 1, 256))
        s0 = m.forward(Tensor(x)).data[0]
        s1 = m.forward(Tensor(np.roll(x, 1, axis=2))).data[0]
        assert np.isfinite(s0) and np.isfinite(s1)


class TestStackedForward:
    """A forward given an rng and ``parts`` draws what ``parts`` separate forwards
    on equal slices of its batch would, in their order, before its first layer."""

    @staticmethod
    def build(name, dtype):
        if name == "unet":
            return models.build_unet(TINY_UNET, dtype=dtype, seed=1)
        shuffle = int(name[-1])  # "critic-n<phase_shuffle_n>"
        return models.build_critic(dataclasses.replace(TINY_CRITIC, phase_shuffle_n=shuffle),
                                   dtype=dtype, seed=2)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    @pytest.mark.parametrize("name, length", [
        ("unet", 100),  # depth 2: the bottleneck length, 13, is odd
        ("unet", 97),  # every stride-2 stage rounds up: 97 -> 49 -> 25 -> 13
        ("unet", 256), ("critic-n0", 256), ("critic-n1", 200), ("critic-n2", 256),
    ])
    def test_equals_separate_forwards(self, name, length, parts, dtype):
        m = self.build(name, dtype)
        x = np.random.default_rng(0).normal(size=(2 * parts, 1, length))
        stacked_rng, separate_rng = np.random.default_rng(9), np.random.default_rng(9)
        stacked = m.forward(Tensor(x), rng=stacked_rng, parts=parts)
        separate = [m.forward(Tensor(xs), rng=separate_rng).data
                    for xs in np.split(x, parts)]
        assert np.array_equal(stacked.data, np.concatenate(separate))
        assert stacked_rng.bit_generator.state == separate_rng.bit_generator.state

    @pytest.mark.parametrize("name", ["unet", "critic-n2"])
    @pytest.mark.parametrize("parts", [0, 3, 8])
    def test_parts_must_divide_the_batch(self, name, parts):
        m = self.build(name, "float64")
        with pytest.raises(ValueError, match="parts"):
            m.forward(Tensor(np.zeros((4, 1, 64))), rng=np.random.default_rng(0), parts=parts)

    @pytest.mark.parametrize("name", ["unet", "critic-n2"])
    def test_eval_mode_ignores_parts(self, name):
        m = self.build(name, "float64")
        x = Tensor(np.random.default_rng(1).normal(size=(4, 1, 64)))
        assert np.array_equal(m.forward(x, parts=3).data, m.forward(x).data)


class TestRngDraws:
    """A forward draws at random exactly when it is given an rng, and only
    where the model has dropout or phase shuffle."""

    @pytest.mark.parametrize("fn", [
        models.EdsrModel.forward, models.UnetModel.forward, models.CriticModel.forward,
        dg.dropout, train.gradient_penalty,
    ], ids=lambda fn: fn.__qualname__)
    def test_no_training_parameter(self, fn):
        assert "training" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("build", [
        lambda: models.build_edsr(TINY_EDSR, seed=1),
        lambda: models.build_unet(dataclasses.replace(TINY_UNET, dropout_rate=0.0), seed=1),
        lambda: models.build_critic(dataclasses.replace(TINY_CRITIC, phase_shuffle_n=0), seed=1),
    ], ids=["edsr", "unet-no-dropout", "critic-no-shuffle"])
    def test_model_without_randomness_draws_nothing(self, build):
        m = build()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 64)))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert np.array_equal(m.forward(x, rng=rng).data, m.forward(x).data)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("build", [
        lambda: models.build_unet(TINY_UNET, seed=1),
        lambda: models.build_critic(TINY_CRITIC, seed=1),
    ], ids=["unet", "critic"])
    def test_model_with_randomness_draws(self, build):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        build().forward(Tensor(np.random.default_rng(0).normal(size=(2, 1, 64))), rng=rng)
        assert rng.bit_generator.state != state


class TestConstruction:
    """Each layer is declared in ``forward``; the constructor's forward, with
    no rng, makes every parameter."""

    @pytest.mark.parametrize("kind", ["edsr", "unet", "critic"])
    def test_training_forward_adds_no_parameter(self, kind):
        # the UNet has dropout on and the critic phase shuffle
        m = {"edsr": lambda: models.build_edsr(TINY_EDSR, seed=1),
             "unet": lambda: models.build_unet(TINY_UNET, seed=1),
             "critic": lambda: models.build_critic(TINY_CRITIC, seed=1)}[kind]()
        before = dict(m.params)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 64)), requires_grad=True)
        dg.backward(dg.sum_all(m.forward(x, rng=np.random.default_rng(1))), m.parameters())
        assert m.params == before
        assert all(p.grad is not None for p in m.parameters())

    def test_layer_missed_by_the_construction_forward_raises(self):
        class TrainingOnlyLayer(models.CriticModel):
            def forward(self, x, rng=None):
                score = super().forward(x, rng)
                return self._dense(dg.reshape(score, (-1, 1)), "extra", 1) if rng is not None else score

        m = TrainingOnlyLayer(TINY_CRITIC)
        with pytest.raises(KeyError, match="extra.w"):
            m.forward(np.zeros((1, 1, 64)), rng=np.random.default_rng(0))

    def test_layer_name_declared_twice_raises(self):
        class SharedName(models.EdsrModel):
            def forward(self, x, rng=None):
                return self._conv(self._conv(x, "stem", 1, 3), "stem", 1, 3)

        with pytest.raises(ValueError, match="duplicate parameter name 'stem.w'"):
            SharedName(TINY_EDSR)


def second_reconstruct_faults() -> list[int]:
    """Minor page faults of the second of two 16,003-sample reconstructs by the
    perfbench-shaped toy EDSR, then by the toy UNet, in the calling process."""
    low = Signal(np.random.default_rng(0).normal(0, 0.1, 16003), 12000)
    nets = [models.build_edsr(EdsrConfig(filters=16, n_blocks=2, upsample_stages=1)),
            models.build_unet(UnetConfig(depth=2, down_filters=(16, 32), down_kernels=(17, 9),
                                         bottleneck_filters=32, scale=2))]
    faults = []
    for m in nets:
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            models.reconstruct(m, low, 2)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        faults.append(after - before)
    return faults


def reconstruct_peaks_mb(kind: str) -> list[float]:
    """Peak RSS above the built model, in MB, after reconstructs of 16,000 and
    then 64,000 samples by perfbench's toy model of ``kind``, in the calling process."""
    m = (models.build_edsr(EdsrConfig(filters=16, n_blocks=2, upsample_stages=1)) if kind == "edsr" else
         models.build_unet(UnetConfig(depth=2, down_filters=(16, 32), down_kernels=(17, 9),
                                      bottleneck_filters=32, scale=2)))
    built = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peaks = []
    for n in (16000, 64000):
        models.reconstruct(m, Signal(np.random.default_rng(n).normal(0, 0.1, n), 12000), 2)
        peaks.append((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - built) / 1024)  # KiB on Linux
    return peaks


class TestReconstruct:
    """The one inference path: spline, post model on the low-rate input, or
    pre model on its whole spline. Every upsampling model gives ``scale``
    output samples per input sample, whatever the input length."""

    UNET = UnetConfig(depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8, scale=2)
    NETS = {"edsr": models.build_edsr(TINY_EDSR, seed=1), **{
        f"unet-{d}": models.build_unet(UnetConfig(depth=d, down_filters=(4, 8, 8)[:d],
                                                  down_kernels=(9,) * d, bottleneck_filters=8), seed=d)
        for d in (1, 2, 3)}}
    # sha256 of the float64 output bytes; the one-channel first layer runs as
    # one stacked GEMM, the rest as k-tap sums. The 251 pin was re-recorded
    # when the UNet began to read the whole 502-sample spline instead of its
    # first 500 samples; the 250 pin did not move
    UNET_OUTPUT_SHA256 = {
        250: (500, "dd90da21a7a1a065bcbb04d61eab7e8b20b65b0e8febd124c767a05d9a3264e5"),
        251: (502, "d7518f5623c9f40a3395e4cd4f8e705c4e5f58a72c7ca9aa44987069f9a1531d"),
    }
    # outputs of the former unfold + einsum conv; the current conv sums in
    # another order, so it may differ in the last bits only. Its 251 array
    # was computed on the 500-sample crop, so only the 250 one is compared
    UNET_OUTPUT_EINSUM = Path(__file__).parent / "data" / "unet_reconstruct_einsum.npz"

    @staticmethod
    def low(n, rate=6000):
        return Signal(np.random.default_rng(n).normal(0, 0.1, n), rate)

    def test_no_model_is_the_spline(self):
        low = self.low(301)
        got = models.reconstruct(None, low, 3)
        want = dsp.spline_upsample(low, 3)
        assert got.sample_rate == want.sample_rate == 18000
        assert np.array_equal(got.samples, want.samples)

    def test_post_model_reads_the_low_rate_input(self):
        m = models.build_edsr(TINY_EDSR, seed=1)
        low = self.low(101)
        got = models.reconstruct(m, low, 2)
        assert got.sample_rate == 12000 and got.samples.dtype == np.float64
        with dg.no_grad():
            want = m.forward(Tensor(low.samples[None, None, :])).data[0, 0]
        assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("n", [250, 251])
    def test_pre_model_reads_the_cropped_spline(self, n):
        # cropped to the length divisor, 1, as perfbench's oracle crops it:
        # the whole spline
        m = models.build_unet(self.UNET, seed=3)
        low = self.low(n)
        got = models.reconstruct(m, low, 2)
        base = dsp.spline_upsample(low, 2).samples
        with dg.no_grad():
            feed = base[: len(base) // m.length_divisor * m.length_divisor]
            want = m.forward(Tensor(feed[None, None, :])).data[0, 0]
        assert np.array_equal(got.samples, want)
        length, digest = self.UNET_OUTPUT_SHA256[n]
        assert len(got) == length
        if n == 250:
            einsum = np.load(self.UNET_OUTPUT_EINSUM)[str(n)]
            assert np.max(np.abs(got.samples - einsum)) <= 1e-12
        assert hashlib.sha256(got.samples.tobytes()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(net=st.sampled_from(["edsr", "unet-1", "unet-2", "unet-3"]), n=st.integers(4, 600))
    def test_output_is_input_times_scale_at_any_length(self, net, n):
        got = models.reconstruct(self.NETS[net], self.low(n), 2)
        assert len(got) == 2 * n
        assert np.isfinite(got.samples).all()

    def test_a_repeated_long_request_reuses_the_freed_heap(self):
        # a fresh process, so this one's heap state cannot decide the count;
        # a heap handed back to the OS faults in about 5,000-7,000 pages here
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            faults = pool.apply(second_reconstruct_faults)
        assert max(faults) < 200, faults

    # nets whose 16-halo chunk (CHUNK patched to 64) is 304-1,280 input samples,
    # so inputs of at most 3,000 samples run in up to 5 chunks
    CHUNKED = {"edsr": models.build_edsr(TINY_EDSR, seed=1),
               "edsr-x4": models.build_edsr(EdsrConfig(filters=4, n_blocks=1, stem_kernel=5,
                                                       upsample_stages=2), seed=2),
               **{f"unet-{d}": models.build_unet(UnetConfig(
                   depth=d, down_filters=(4, 8, 8)[:d], down_kernels=((9,), (9, 5), (5, 3, 3))[d - 1],
                   bottleneck_filters=8, final_kernel=(9, 9, 3)[d - 1]), seed=d) for d in (1, 2, 3)}}

    @staticmethod
    def chunk(m) -> int:
        """The chunk of ``m`` with CHUNK patched to 64, in low-rate samples."""
        return 16 * m.receptive_field[0] // (m.scale if m.mode == "pre" else 1)

    @settings(max_examples=80, deadline=None)
    @given(net=st.sampled_from(sorted(CHUNKED)), n=st.integers(4, 3000),
           seam=st.tuples(st.integers(1, 4), st.integers(-3, 3)), near_seam=st.booleans())
    def test_chunked_output_equals_the_whole_input_forward(self, net, n, seam, near_seam):
        m = self.CHUNKED[net]
        if near_seam:  # odd and even lengths around a multiple of the chunk
            n = min(max(seam[0] * self.chunk(m) + seam[1], 4), 3000)
        low = self.low(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "CHUNK", 64)
            got = models.reconstruct(m, low, m.scale)
        with dg.no_grad():
            want = m.forward(Tensor(models.model_input(m, low.samples, m.scale)[None, None, :])).data[0, 0]
        assert got.samples.shape == want.shape
        assert np.max(np.abs(got.samples - want)) <= 1e-12

    @pytest.mark.parametrize("net", sorted(CHUNKED))
    def test_an_input_of_one_chunk_is_one_forward(self, net, monkeypatch):
        m = self.CHUNKED[net]
        monkeypatch.setattr(models, "CHUNK", 64)
        calls = []
        forward = m.forward
        monkeypatch.setattr(m, "forward", lambda x: calls.append(x.shape[2]) or forward(x))
        n = self.chunk(m)
        low = self.low(n)
        got = models.reconstruct(m, low, m.scale)
        with dg.no_grad():
            want = forward(Tensor(models.model_input(m, low.samples, m.scale)[None, None, :])).data[0, 0]
        assert np.array_equal(got.samples, want)
        models.reconstruct(m, self.low(n + 1), m.scale)
        assert len(calls) == 3, calls

    @pytest.mark.parametrize("kind", ["edsr", "unet"])
    def test_memory_stays_flat_in_the_input_length(self, kind):
        # a fresh process each, so neither run nor this process sets the peak;
        # the whole-input forward grew to 62-64 MB at 64,000 samples
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            peaks = pool.apply(reconstruct_peaks_mb, (kind,))
        assert peaks[1] <= 16, peaks

    def test_model_input_post_is_the_low_rate_input(self):
        low = self.low(101)
        got = models.model_input(models.build_edsr(TINY_EDSR), low.samples, 2)
        assert np.array_equal(got, low.samples)

    @pytest.mark.parametrize("n", [250, 251])
    def test_model_input_pre_is_the_spline_cropped_to_the_divisor(self, n):
        # the divisor is 1, so the crop keeps the whole spline
        low = self.low(n)
        got = models.model_input(models.build_unet(self.UNET), low.samples, 2)
        assert len(got) == 2 * n
        assert np.array_equal(got, dsp.spline_upsample(low, 2).samples)

    def test_float32_model_output_is_float64(self):
        m = models.build_edsr(TINY_EDSR, dtype="float32", seed=1)
        assert models.reconstruct(m, self.low(64), 2).samples.dtype == np.float64

    def test_critic_rejected(self):
        with pytest.raises(ValueError, match="critic"):
            models.reconstruct(models.build_critic(TINY_CRITIC), self.low(64), 2)

    def test_post_scale_mismatch_rejected(self):
        with pytest.raises(models.ScaleMismatchError, match="upsamples by 2"):
            models.reconstruct(models.build_edsr(TINY_EDSR), self.low(64), 4)

    def test_pre_scale_mismatch_rejected(self):
        with pytest.raises(models.ScaleMismatchError, match="upsamples by 2"):
            models.reconstruct(models.build_unet(self.UNET), self.low(100), 4)

    def test_input_shorter_than_the_spline_minimum_names_it(self):
        cfg = UnetConfig(
            depth=4, down_filters=(4, 4, 4, 4), down_kernels=(9, 9, 9, 9),
            bottleneck_filters=4, scale=2,
        )
        with pytest.raises(ValueError, match="at least 4 samples, got 3"):
            models.reconstruct(models.build_unet(cfg), self.low(3), 2)


class TestConfigCodec:
    BASE = train.TrainConfig(steps=3, mode="pre")

    @pytest.mark.parametrize("cfg", [
        TINY_EDSR, TINY_UNET, TINY_CRITIC, EdsrConfig(), UnetConfig(),
        CriticConfig(),
        train.TrainConfig(steps=5, mode="post"),
        train.TrainConfig(steps=5, mode="pre", scale=3, loss="l1", lr=3e-4, checkpoint_every=2),
        train.GanConfig(base=BASE),
        train.GanConfig(base=BASE, gp_weight=0.5, warm_start="runs/None"),
        cli.DataConfig(),
        cli.DataConfig(manifest="None", split="val", synth_freq_hi=1e3, synth_kinds=("noise-mix",)),
    ])
    def test_roundtrip(self, cfg):
        # every config dataclass, None-valued str | None fields included
        defaults = {"base": cfg.base} if isinstance(cfg, train.GanConfig) else {}
        assert models.decode_config(type(cfg), models.encode_config(cfg), **defaults) == cfg

    def test_none_is_written_as_none(self):
        encoded = models.encode_config(train.GanConfig(base=self.BASE))
        assert encoded["warm_start"] == "none"
        assert "base" not in encoded

    def test_field_types_drive_parsing(self):
        cfg = models.decode_config(
            train.TrainConfig, {"steps": " 3 ", "lr": "1e-3", "loss": "none"}, mode="post"
        )
        assert (cfg.steps, cfg.lr, cfg.loss, cfg.mode) == (3, 1e-3, None, "post")
        unet = models.decode_config(UnetConfig, {"depth": "2", "down_filters": "4, 8,", "down_kernels": "9,9"})
        assert unet.down_filters == (4, 8)

    @pytest.mark.parametrize(
        "values, match",
        [({"bogus": "1"}, "unknown key"), ({"filters": "x"}, "filters"), ({"filters": "0"}, ">= 1")],
    )
    def test_bad_values_raise_value_error(self, values, match):
        with pytest.raises(ValueError, match=match):
            models.decode_config(EdsrConfig, values)

    @pytest.mark.parametrize("cls, key", [(train.TrainConfig, "lr"), (CriticConfig, "leaky_slope")])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_float_rejected(self, cls, key, raw):
        defaults = {"mode": "post"} if cls is train.TrainConfig else {}
        with pytest.raises(ValueError, match=f"bad value for '{key}': must be finite"):
            models.decode_config(cls, {key: raw}, **defaults)

    def test_non_string_field_rejected(self):
        base = train.TrainConfig(steps=1, mode="pre")
        with pytest.raises(ValueError, match="base"):
            models.decode_config(train.GanConfig, {"base": "x"}, base=base)


class TestCheckpoint:
    def test_roundtrip_forward_bit_exact(self, tmp_path):
        m = models.build_edsr(TINY_EDSR, seed=9)
        m.train_step = 17
        x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 64)))
        y_before = m.forward(x)
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(m, path)
        m2 = models.load_checkpoint(path)
        assert np.array_equal(m2.forward(x).data, y_before.data)
        assert m2.train_step == 17
        assert m2.config == m.config

    def test_adam_state_roundtrip(self, tmp_path):
        m = models.build_unet(TINY_UNET, seed=9)
        adam = dg.AdamState(alpha=3e-4, t=5)
        for p in m.parameters():
            adam.m[p.name] = np.random.default_rng(0).normal(size=p.shape)
            adam.v[p.name] = np.abs(np.random.default_rng(1).normal(size=p.shape))
        path = tmp_path / "unet.ckpt"
        m.adam_state = adam
        models.save_checkpoint(m, path)
        m2 = models.load_checkpoint(path)
        assert m2.adam_state is not None
        assert m2.adam_state.t == 5
        assert m2.adam_state.alpha == 3e-4
        for p in m.parameters():
            assert np.array_equal(m2.adam_state.m[p.name], adam.m[p.name])
            assert np.array_equal(m2.adam_state.v[p.name], adam.v[p.name])

    def test_truncated_file_is_corrupt(self, tmp_path):
        m = models.build_edsr(TINY_EDSR, seed=9)
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(m, path)
        blob = path.read_bytes()
        for cut in (4, len(blob) // 2, len(blob) - 2):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointCorruptError):
                models.load_checkpoint(path)

    def test_every_truncation_and_byte_flip_raises_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        blob = tiny_critic_checkpoint(path)[1]
        truncations = [blob[:i] for i in range(len(blob))]
        flips = [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :] for i in range(len(blob))]
        for bad in truncations + flips:
            path.write_bytes(bad)
            try:
                models.load_checkpoint(path)
            except CheckpointError:
                pass  # any other exception fails the test

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(CHECKPOINT_EDIT, min_size=1, max_size=3))
    def test_spliced_checkpoint_loads_intact_or_raises_a_checkpoint_error(self, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        m, blob = tiny_critic_checkpoint(path)
        path.write_bytes(apply_edits(blob, edits))
        try:
            loaded = models.load_checkpoint(path)
        except CheckpointError:
            return
        shapes = {name: p.shape for name, p in m.params.items()}
        assert {name: p.shape for name, p in loaded.params.items()} == shapes
        if loaded.adam_state is not None:
            for name, shape in shapes.items():
                assert loaded.adam_state.m[name].shape == loaded.adam_state.v[name].shape == shape

    def test_moments_of_another_shape_are_corrupt(self, tmp_path):
        path = tmp_path / "c.ckpt"
        blob = tiny_critic_checkpoint(path)[1]
        # the last array is score.b's second moment: code, rank 1, dim 1, one float64
        last = struct.pack("<BBI", 0, 1, 1) + struct.pack("<d", 0.25) + b"AEND"
        assert blob.endswith(last)
        path.write_bytes(blob[: -len(last)] + struct.pack("<BBII", 0, 2, 1, 1) + last[6:])
        with pytest.raises(CheckpointCorruptError, match="score.b"):
            models.load_checkpoint(path)

    @pytest.mark.parametrize(
        "dims", [(1,) * 65, (65536,) * 4, (0,) + (2**32 - 1,) * 3],
        ids=["rank-65", "size-past-int64", "empty-past-int64"],
    )
    def test_impossible_array_shape_is_corrupt(self, tmp_path, dims):
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[12:16])
        first = 16 + hlen + 4  # the first parameter's name length, then its name
        (nlen,) = struct.unpack("<H", blob[first : first + 2])
        array = struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims) + bytes(8)  # one float64
        path.write_bytes(blob[: first + 2 + nlen] + array + b"AEND")
        with pytest.raises(CheckpointCorruptError):
            models.load_checkpoint(path)

    def test_version_mismatch_distinct_error(self, tmp_path):
        m = models.build_edsr(TINY_EDSR, seed=9)
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # format_version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            models.load_checkpoint(path)

    def test_garbage_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruptError):
            models.load_checkpoint(path)

    def test_unet_tuple_config_roundtrip(self, tmp_path):
        m = models.build_unet(TINY_UNET, seed=9)
        path = tmp_path / "unet.ckpt"
        models.save_checkpoint(m, path)
        m2 = models.load_checkpoint(path)
        assert m2.config == TINY_UNET

    def test_checkpoint_dataclass_api(self, tmp_path):
        m = models.build_critic(TINY_CRITIC, seed=9)
        models.save_checkpoint(m, tmp_path / "c.ckpt")
        m2 = Checkpoint.load(tmp_path / "c.ckpt").build_model()
        x = Tensor(np.random.default_rng(5).normal(size=(2, 1, 100)))
        assert np.array_equal(m.forward(x).data, m2.forward(x).data)

    def test_snapshot_owns_its_adam_state(self, tmp_path):
        # the file is the snapshot: later steps do not reach it, and each load owns its moments
        m = models.build_critic(TINY_CRITIC, seed=9)
        m.adam_state = dg.AdamState()
        params = m.parameters()

        def step():
            for p in params:
                p.grad = Tensor(np.ones_like(p.data))
            dg.adam_step(params, m.adam_state)

        step()
        path = tmp_path / "c.ckpt"
        models.save_checkpoint(m, path)
        first = {key: dict((name, a.copy()) for name, a in getattr(m.adam_state, key).items()) for key in "mv"}
        step()
        a, b = models.load_checkpoint(path), models.load_checkpoint(path)
        assert a.adam_state.t == 1
        for key, saved in first.items():
            assert all(np.array_equal(getattr(a.adam_state, key)[name], arr) for name, arr in saved.items())
        name = params[0].name
        assert len({id(s.m[name]) for s in (m.adam_state, a.adam_state, b.adam_state)}) == 3

    def test_single_precision_recorded_and_roundtripped(self, tmp_path):
        m = models.build_edsr(TINY_EDSR, dtype="float32", seed=9)
        assert all(p.data.dtype == np.float32 for p in m.parameters())
        x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 32)))
        y = m.forward(x)
        assert y.dtype == np.float32
        path = tmp_path / "f32.ckpt"
        models.save_checkpoint(m, path)
        m2 = models.load_checkpoint(path)
        assert str(m2.dtype) == "float32"
        assert np.array_equal(m2.forward(x).data, y.data)

    # sha256 of checkpoint files written before the header used the shared codec
    CHECKPOINT_SHA256 = {
        "edsr": "7532baefcb13709dffe6731f862eff56d54e5272664ce6b246813355aaf0d447",
        "unet_adam": "8df8c528453e66c03b2d956ce46d622c75cbe682e1a107f91689580bda5ddb09",
        "critic_f32": "ce8ef54caa423e860bf83e8bbd0520d030732aa587b9828443b5def7c93061db",
    }

    @pytest.mark.parametrize("name", sorted(CHECKPOINT_SHA256))
    def test_bytes_unchanged(self, tmp_path, name):
        path = tmp_path / "m.ckpt"
        if name == "edsr":
            m = models.build_edsr(TINY_EDSR, seed=9)
            m.train_step = 17
            models.save_checkpoint(m, path)
        elif name == "unet_adam":
            m = models.build_unet(TINY_UNET, seed=9)
            adam = dg.AdamState(alpha=3e-4, t=5)
            for p in m.parameters():
                adam.m[p.name] = np.random.default_rng(0).normal(size=p.shape)
                adam.v[p.name] = np.abs(np.random.default_rng(1).normal(size=p.shape))
            m.adam_state = adam
            models.save_checkpoint(m, path)
        else:
            models.save_checkpoint(models.build_critic(TINY_CRITIC, dtype="float32", seed=9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.CHECKPOINT_SHA256[name]

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("cfg.filters = 8", "cfg.filters = x"),
            ("cfg.filters = 8", "cfg.filters = 0"),
            ("seed = 9", "seed = z"),
            ("dtype = float64", "dtype = float16"),
        ],
    )
    def test_malformed_header_value_is_corrupt(self, tmp_path, line, bad):
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        path.write_bytes(edit_header(path.read_bytes(), line + "\n", bad + "\n"))
        with pytest.raises(CheckpointCorruptError):
            models.load_checkpoint(path)

    def test_header_line_without_separator_is_corrupt(self, tmp_path):
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        path.write_bytes(edit_header(path.read_bytes(), "step = 0\n", "step = 0\nnote\n"))
        with pytest.raises(CheckpointCorruptError, match="'note'"):
            models.load_checkpoint(path)

    def test_repeated_header_key_is_corrupt(self, tmp_path):
        # the last value used to win: this header loaded with step 5
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        path.write_bytes(edit_header(path.read_bytes(), "step = 0\n", "step = 0\nstep = 5\n"))
        with pytest.raises(CheckpointCorruptError, match="'step = 5'"):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("alpha", math.nan), ("eps", math.inf)])
    def test_non_finite_adam_float_is_corrupt(self, tmp_path, field, value):
        m, blob = tiny_critic_checkpoint(tmp_path / "c.ckpt")
        old = struct.pack("<d", getattr(m.adam_state, field))
        assert blob.count(old) == 1
        (tmp_path / "c.ckpt").write_bytes(blob.replace(old, struct.pack("<d", value)))
        with pytest.raises(CheckpointCorruptError, match="alpha and eps must be positive and finite"):
            models.load_checkpoint(tmp_path / "c.ckpt")

    def test_unknown_header_key_is_accepted(self, tmp_path):
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        path.write_bytes(edit_header(path.read_bytes(), "step = 0\n", "step = 0\nnote = hello\n"))
        assert models.load_checkpoint(path).init_seed == 9

    @pytest.mark.parametrize(
        "build, old, new",
        [
            (lambda: models.build_critic(CriticConfig(layers=1, base_filters=1, kernel=1), seed=9),
             "cfg.layers = 1\n", "cfg.layers = 40\n"),
            (lambda: models.build_unet(TINY_UNET, seed=9),
             "cfg.depth = 2\ncfg.down_filters = 8,16\ncfg.down_kernels = 9,9\n",
             "cfg.depth = 40\ncfg.down_filters = 8,16" + ",1" * 38
             + "\ncfg.down_kernels = 9,9" + ",1" * 38 + "\n"),
            (lambda: models.build_edsr(TINY_EDSR, seed=9), "cfg.filters = 8\n", "cfg.filters = 16\n"),
        ],
        ids=["critic-40-layers", "unet-depth-40", "edsr-16-filters"],
    )
    def test_header_that_disagrees_with_the_arrays_is_corrupt(self, tmp_path, monkeypatch, build, old, new):
        # the header alone must not size what the loader allocates: layer 39
        # of that critic has 2**77 weights, and that UNet reads 2**40 samples
        path = tmp_path / "m.ckpt"
        models.save_checkpoint(build(), path)
        path.write_bytes(edit_header(path.read_bytes(), old, new))
        forbid_weight_draws(monkeypatch)
        with pytest.raises(CheckpointCorruptError, match="is missing or not of shape"):
            models.load_checkpoint(path)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "past-float32"])
    def test_non_finite_weights_are_corrupt(self, tmp_path, value):
        m = models.build_critic(TINY_CRITIC, dtype="float32", seed=9)
        m.params["score.b"].data = np.full(1, value)  # float64: 1e300 overflows the cast to float32
        models.save_checkpoint(m, tmp_path / "c.ckpt")
        with pytest.raises(CheckpointCorruptError, match="'score.b' contains non-finite"):
            models.load_checkpoint(tmp_path / "c.ckpt")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch, dtype):
        saved = [models.build_edsr(TINY_EDSR, dtype=dtype, seed=9),
                 models.build_unet(TINY_UNET, dtype=dtype, seed=9),
                 models.build_critic(TINY_CRITIC, dtype=dtype, seed=9)]
        for i, m in enumerate(saved):
            models.save_checkpoint(m, tmp_path / f"{i}.ckpt")
        forbid_weight_draws(monkeypatch)
        for i, m in enumerate(saved):
            loaded = models.load_checkpoint(tmp_path / f"{i}.ckpt")
            assert list(loaded.params) == list(m.params)
            assert all(np.array_equal(loaded.params[name].data, p.data) for name, p in m.params.items())
            assert {p.dtype for p in loaded.parameters()} == {np.dtype(dtype)}


def edsr_with_adam():
    """An EDSR of 32 filters and 4 blocks (about 83,000 weights) with Adam moments."""
    m = models.build_edsr(EdsrConfig(filters=32, n_blocks=4), seed=3)
    m.adam_state = dg.AdamState(t=2)
    for p in m.parameters():
        m.adam_state.m[p.name] = p.data * 0.5
        m.adam_state.v[p.name] = p.data * p.data
    return m


def traced_peak(fn):
    """``fn()`` and the peak bytes that Python and numpy allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointMemory:
    def test_save_copies_no_array(self, tmp_path):
        m = edsr_with_adam()
        _, peak = traced_peak(lambda: models.save_checkpoint(m, tmp_path / "e.ckpt"))
        assert peak <= 64 * 1024
        assert models.load_checkpoint(tmp_path / "e.ckpt").adam_state.t == 2

    def test_load_allocates_each_array_once(self, tmp_path):
        path = tmp_path / "e.ckpt"
        models.save_checkpoint(edsr_with_adam(), path)
        loaded, peak = traced_peak(lambda: models.load_checkpoint(path))
        assert loaded.adam_state is not None
        assert peak <= 1.1 * path.stat().st_size

    def test_an_array_longer_than_the_file_allocates_nothing(self, tmp_path):
        path = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(TINY_EDSR, seed=9), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[12:16])
        first = 16 + hlen + 4  # the first parameter's name length, then its name
        (nlen,) = struct.unpack("<H", blob[first : first + 2])
        array = struct.pack("<BBI", 0, 1, 1 << 28) + bytes(8)  # claims 2 GiB, holds one float64
        path.write_bytes(blob[: first + 2 + nlen] + array + b"AEND")

        def load():
            with pytest.raises(CheckpointCorruptError, match="truncated"):
                models.load_checkpoint(path)

        assert traced_peak(load)[1] < 1 << 20

    def test_a_file_that_shrinks_while_read_is_corrupt(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        blob = tiny_critic_checkpoint(path)[1]
        listed = os.stat_result((0,) * 6 + (len(blob),) + (0,) * 3)  # the size before it shrank
        monkeypatch.setattr(models.os, "fstat", lambda fd: listed)
        for cut in (6, len(blob) - 6):  # inside the magic, inside the last moment's payload
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointCorruptError, match="shrank while it was read"):
                models.load_checkpoint(path)
