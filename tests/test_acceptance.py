"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The training-based criteria share a module-scoped fixture so
the determinism check can compare two complete runs."""
import math
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.signal

from audiosr import data, diffgraph as dg, dsp, metrics, models, probe, train
from audiosr.diffgraph import Parameter, Tensor
from audiosr.dsp import Signal


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


# -- criterion 7/9 shared setup ---------------------------------------------

TOY_SPEC = dict(
    length=8192,
    sample_rate=12000,
    components=(128, 256),
    freq_range=(100.0, 5700.0),
    kinds=("sine", "chirp"),
)
TOY_TRAIN_CFG = dict(
    steps=2000, mode="post", scale=2, batch_size=32,
    patch_length=512, lr=3e-3, loss="l1", seed=42,
)


def run_toy_training():
    corpus = data.synth_signals(data.SynthSpec(count=200, **TOY_SPEC), 101)
    model = models.build_edsr(
        models.EdsrConfig(filters=16, n_blocks=2, upsample_stages=1), seed=42
    )
    _, log = train.train_supervised(model, corpus, train.TrainConfig(**TOY_TRAIN_CFG))
    return model, log


def run_toy_training_log():
    return run_toy_training()[1]


@pytest.fixture(scope="module")
def toy_runs():
    # the second run trains in a fresh spawned process while this one trains
    # the first, so criterion 9 also checks determinism across processes
    held = data.synth_signals(data.SynthSpec(count=24, **TOY_SPEC), 202)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        second = pool.apply_async(run_toy_training_log)
        model_a, log_a = run_toy_training()
        log_b = second.get()
    spline = metrics.evaluate_model(None, held, 2, "pre")
    trained = metrics.evaluate_model(model_a, held, 2, "post")
    return spline, trained, log_a, log_b


# -- 1: parameter counts ------------------------------------------------------

def test_criterion_1_parameter_counts():
    two_x = models.count_parameters(models.build_edsr(models.EdsrConfig()))
    four_x = models.count_parameters(
        models.build_edsr(models.EdsrConfig(upsample_stages=2))
    )
    report(
        "1 parameter-count equality",
        two_x == 9_594_113 and four_x == 9_692_673,
        f"2x={two_x}, 4x={four_x}",
    )


# -- 2: metric oracles ---------------------------------------------------------

def _lsd_oracle(generated, actual, p):
    def grid(sig):
        n_frames = 1 + (len(sig) - p.frame_length) // p.hop
        win = (
            0.5 - 0.5 * np.cos(2 * np.pi * np.arange(p.frame_length) / p.frame_length)
            if p.window == "hann"
            else np.ones(p.frame_length)
        )
        rows = []
        for w in range(n_frames):
            seg = sig.samples[w * p.hop : w * p.hop + p.frame_length] * win
            rows.append(np.maximum(np.abs(np.fft.rfft(seg)) ** 2, p.power_floor))
        return rows

    pg, pa = grid(generated), grid(actual)
    total = 0.0
    for w in range(len(pg)):
        acc = 0.0
        for k in range(len(pg[w])):
            acc += math.log10(pg[w][k] / pa[w][k]) ** 2
        total += math.sqrt(acc / len(pg[w]))
    return total / len(pg)


def _snr_oracle(generated, actual):
    num = sum(v * v for v in actual.samples)
    den = sum((g - a) ** 2 for g, a in zip(generated.samples, actual.samples))
    return 10.0 * math.log10(num / den)


# the paper's STFT, written out independently of the library's constants
PAPER_STFT = SimpleNamespace(frame_length=2048, hop=512, window="hann", power_floor=1e-10)


def test_criterion_2_metric_oracles():
    p = PAPER_STFT
    rng = np.random.default_rng(12)
    lowpass = scipy.signal.butter(8, 0.7, output="sos")
    worst = 0.0
    for _ in range(50):
        a = Signal(scipy.signal.sosfilt(lowpass, rng.normal(0, 0.2, 6144)), 12000)
        b = Signal(scipy.signal.sosfilt(lowpass, rng.normal(0, 0.2, 6144)), 12000)
        worst = max(worst, abs(metrics.lsd(a, b) - _lsd_oracle(a, b, p)))
        worst = max(worst, abs(metrics.snr(a, b) - _snr_oracle(a, b)))
    x = Signal(rng.normal(0, 0.3, 4096), 12000)
    anchors = (
        metrics.lsd(x, x) == 0.0
        and metrics.snr(x, x) == math.inf
        and abs(metrics.snr(Signal(0.9 * x.samples, 12000), x) - 20.0) < 1e-9
        and abs(metrics.lsd(Signal(math.sqrt(10) * x.samples, 12000), x) - 1.0) < 1e-9
    )
    report("2 metric oracles", worst <= 1e-9 and anchors, f"max |delta|={worst:.2e}")


# -- 3: filter response --------------------------------------------------------

def _response(sections, freq_ratio):
    """scipy's ``sosfreqz`` of (b0, b1, b2, a1, a2) sections at ratios of Nyquist."""
    sos = np.array([[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in sections])
    return scipy.signal.sosfreqz(sos, worN=np.pi * np.asarray(freq_ratio))[1]


def test_criterion_3_filter_response():
    c = dsp.design_butterworth_lowpass(8, 0.5)
    dc = 20 * np.log10(abs(_response(c, [0.0])[0]))
    cut = 20 * np.log10(abs(_response(c, [0.5])[0]))
    two_cut = 20 * np.log10(abs(_response(c, [0.99999])[0]))
    # 2x cutoff folds onto Nyquist for ratio 0.5; check a 0.25 design as well
    c25 = dsp.design_butterworth_lowpass(8, 0.25)
    two_cut25 = 20 * np.log10(abs(_response(c25, [0.5])[0]))
    grid = np.abs(_response(c, np.linspace(1e-6, 0.99999, 512)))
    ok = (
        abs(dc) <= 1e-6
        and abs(cut - (-3.0103)) <= 0.05
        and two_cut <= -40.0
        and two_cut25 <= -40.0
        and np.all(np.diff(grid) <= 1e-12)
    )
    report(
        "3 filter response",
        ok,
        f"dc={dc:.2e} dB, cutoff={cut:.4f} dB, 2x-cutoff={two_cut25:.1f} dB, monotone",
    )


# -- 4: gradient checks --------------------------------------------------------

def _fd_worst(build_loss, params, h=1e-5):
    loss = build_loss()
    for p in params:
        p.grad = None
    dg.backward(loss, params)
    worst = 0.0
    for p in params:
        grad = p.grad.data.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build_loss().item()
            flat[i] = orig - h
            fm = build_loss().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            scale = max(abs(numeric), 1e-6)
            worst = max(worst, abs(grad[i] - numeric) / scale)
    return worst


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 2, 12)))
    results = {}

    def proj_loss(make, shape, params):
        proj = Tensor(rng.normal(size=shape))
        return _fd_worst(lambda: dg.sum_all(dg.mul(make(), proj)), params)

    w = Parameter("w", rng.normal(size=(3, 2, 5)) * 0.6)
    b = Parameter("b", rng.normal(size=(3,)) * 0.3)
    results["conv1d"] = proj_loss(
        lambda: dg.conv1d(x, w, b, stride=2), (2, 3, 6), [w, b]
    )
    s = Parameter("s", rng.normal(size=(1, 4, 6)))
    results["subpixel_shuffle"] = proj_loss(
        lambda: dg.subpixel_shuffle1d(s, 2), (1, 2, 12), [s]
    )
    r = Parameter("r", np.where(np.abs(rng.normal(size=(3, 4))) < 0.05, 0.2, 1.0) * rng.normal(size=(3, 4)))
    r.data = np.where(np.abs(r.data) < 0.05, r.data + 0.2, r.data)
    results["relu"] = proj_loss(lambda: dg.relu(r), (3, 4), [r])
    results["leaky_relu"] = proj_loss(lambda: dg.leaky_relu(r, 0.2), (3, 4), [r])
    a2 = Parameter("a2", rng.normal(size=(2, 3, 4)))
    b2 = Parameter("b2", rng.normal(size=(1, 3, 1)))
    results["add"] = proj_loss(lambda: dg.add(a2, b2), (2, 3, 4), [a2, b2])
    results["mul"] = proj_loss(lambda: dg.mul(a2, b2), (2, 3, 4), [a2, b2])
    c1 = Parameter("c1", rng.normal(size=(1, 2, 4)))
    c2 = Parameter("c2", rng.normal(size=(1, 3, 4)))
    results["concat"] = proj_loss(
        lambda: dg.concat_channels(c1, c2), (1, 5, 4), [c1, c2]
    )
    dw = Parameter("dw", rng.normal(size=(4, 2)))
    db = Parameter("db", rng.normal(size=(2,)))
    xp2 = Tensor(rng.normal(size=(3, 4, 5)))
    results["dense+mean_time"] = proj_loss(
        lambda: dg.dense(dg.mean_time(xp2), dw, db), (3, 2), [dw, db]
    )
    pred = Parameter("pred", r.data.copy())
    target = Tensor(np.zeros((3, 4)))
    results["l2"] = _fd_worst(lambda: dg.l2(pred, target), [pred])
    results["l1"] = _fd_worst(lambda: dg.l1(pred, target), [pred])
    q = Parameter("q", np.abs(rng.normal(size=(5,))) + 1.0)
    results["sqrt"] = _fd_worst(lambda: dg.sum_all(dg.sqrt(q)), [q])
    g = Parameter("g", rng.normal(size=(2, 2, 6)))
    idx = rng.integers(0, 6, size=(2, 6))
    results["take_time"] = proj_loss(lambda: dg.take_time(g, idx), (2, 2, 6), [g])
    d = Parameter("d", rng.normal(size=(1, 2, 8)))
    drng = np.random.default_rng(0)
    mask_rng_state = drng.bit_generator.state

    def dropout_loss():
        drng.bit_generator.state = mask_rng_state  # same mask for every probe
        return dg.sum_all(dg.dropout(d, 0.3, drng))

    results["dropout"] = _fd_worst(dropout_loss, [d])

    piecewise = {"relu", "leaky_relu", "l1", "dropout"}
    bad = {
        name: err
        for name, err in results.items()
        if err > (1e-4 if name in piecewise else 1e-6)
    }
    worst = max(results.values())
    report("4 gradient checks", not bad, f"worst rel err={worst:.2e} over {len(results)} ops")


# -- 5: gradient-penalty analytics ----------------------------------------------

def test_criterion_5_gradient_penalty():
    class Linear:
        def __init__(self, w):
            self.w = Tensor(w.reshape(1, 1, -1))

        def forward(self, x, rng=None):
            return dg.sum_axes(dg.mul(x, self.w), (1, 2))

    rng = np.random.default_rng(15)
    w = np.zeros(12)
    w[4] = 1.0
    lin = Linear(w)
    x = Tensor(rng.normal(size=(3, 1, 12)), requires_grad=True)
    g = dg.input_gradient(dg.sum_all(lin.forward(x)), x)
    grad_exact = np.array_equal(g.data, np.broadcast_to(w.reshape(1, 1, 12), (3, 1, 12)))

    pen_zero = train.gradient_penalty(
        lin, rng.normal(size=(3, 1, 12)), rng.normal(size=(3, 1, 12)), rng.random(3)
    ).item() == 0.0

    captured = {}

    class Spy(Linear):
        def forward(self, x, rng=None):
            captured["in"] = x.data.copy()
            return super().forward(x, rng=rng)

    spy = Spy(w)
    xa, xb = rng.normal(size=(2, 1, 12)), rng.normal(size=(2, 1, 12))
    train.gradient_penalty(spy, xa, xb, np.ones(2))
    end1 = np.array_equal(captured["in"], xa)
    train.gradient_penalty(spy, xa, xb, np.zeros(2))
    end0 = np.array_equal(captured["in"], xb)

    critic = models.build_critic(
        models.CriticConfig(layers=2, base_filters=2, kernel=5, phase_shuffle_n=0), seed=3
    )
    xr, xt = rng.normal(size=(2, 1, 16)), rng.normal(size=(2, 1, 16))
    eps = rng.random(2)

    def pen():
        return train.gradient_penalty(critic, xr, xt, eps)

    loss = pen()
    critic.zero_grad()
    dg.backward(loss, critic.parameters())
    worst = 0.0
    for p in critic.parameters():
        grad = p.grad.data.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            fp = pen().item()
            flat[i] = orig - 1e-5
            fm = pen().item()
            flat[i] = orig
            numeric = (fp - fm) / 2e-5
            worst = max(worst, abs(grad[i] - numeric) / max(abs(numeric), 1e-6))

    report(
        "5 gradient-penalty analytics",
        grad_exact and pen_zero and end1 and end0 and worst <= 1e-5,
        f"linear grad exact={grad_exact}, unit-norm penalty 0={pen_zero}, fd rel={worst:.2e}",
    )


# -- 6: zero-input periodicity ---------------------------------------------------

def test_criterion_6_zero_input_periodicity():
    m = models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1), seed=4)
    for name, p in m.params.items():
        if name.endswith(".b"):
            p.data = np.zeros_like(p.data)
    silent = probe.zero_input_probe(m, length=2048)
    silent_ok = silent.peaks == [] and np.all(silent.spectrogram.grid == PAPER_STFT.power_floor)

    detected = {}
    for r, biases in ((2, [0.25, -0.5]), (4, [0.15, -0.3, 0.45, -0.6])):
        class Stack:
            upsample_ratio = r
            kind = "stack"

            def __init__(self):
                self.w = Tensor(np.zeros((r, 1, 3)))
                self.b = Tensor(np.asarray(biases, dtype=float))

            def parameters(self):
                return []

            def forward(self, x, rng=None):
                return dg.subpixel_shuffle1d(dg.conv1d(x, self.w, self.b), r)

        rep = probe.zero_input_probe(Stack(), length=4096)
        out = Stack().forward(Tensor(np.zeros((1, 1, 4096 // r)))).data[0, 0]
        exactly_periodic = np.array_equal(out[r:], out[:-r])
        detected[r] = (rep.periodicity == r) and exactly_periodic

    report(
        "6 zero-input periodicity",
        silent_ok and all(detected.values()),
        f"bias-free silent={silent_ok}, detected periods={detected}",
    )


# -- 7: toy training beats the spline --------------------------------------------

@pytest.mark.slow
def test_criterion_7_toy_training_beats_spline(toy_runs):
    spline, trained, _, _ = toy_runs
    snr_margin = trained.snr_mean - spline.snr_mean
    lsd_margin = spline.lsd_mean - trained.lsd_mean
    ok = (
        trained.lsd_mean < spline.lsd_mean
        and trained.snr_mean > spline.snr_mean
        and lsd_margin >= 0.2
        and snr_margin >= 1.0
    )
    report(
        "7 toy training beats spline",
        ok,
        f"SNR {trained.snr_mean:.2f} vs {spline.snr_mean:.2f} (+{snr_margin:.2f} dB), "
        f"LSD {trained.lsd_mean:.3f} vs {spline.lsd_mean:.3f} (-{lsd_margin:.3f} dB)",
    )


# -- 8: WGAN-GP smoke stability ----------------------------------------------------

@pytest.mark.slow
def test_criterion_8_wgan_gp_smoke():
    corpus = data.synth_signals(
        data.SynthSpec(count=16, length=2048, sample_rate=12000), 33
    )
    gen = models.build_unet(
        models.UnetConfig(
            depth=2, down_filters=(4, 8), down_kernels=(9, 9),
            bottleneck_filters=8, dropout_rate=0.5, scale=2,
        ),
        seed=1,
    )
    critic = models.build_critic(
        models.CriticConfig(layers=3, base_filters=4, kernel=9, phase_shuffle_n=2), seed=2
    )
    cfg = train.GanConfig(
        base=train.TrainConfig(
            steps=500, mode="pre", scale=2, batch_size=4, patch_length=256, seed=5
        ),
        gp_weight=10.0,
        n_critic=5,
    )
    _, _, log = train.train_wgan_gp(gen, critic, corpus, cfg)
    all_finite = all(
        math.isfinite(r.critic_loss) and math.isfinite(r.penalty) and math.isfinite(r.gen_loss)
        for r in log.records
    )
    counters = critic.train_step == 5 * gen.train_step == 2500 and gen.train_step == 500
    report(
        "8 WGAN-GP smoke stability",
        all_finite and counters and len(log.records) == 500,
        f"finite={all_finite}, critic steps={critic.train_step}, gen steps={gen.train_step}",
    )


# -- 9: determinism -----------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_determinism(toy_runs):
    _, _, log_a, log_b = toy_runs
    identical = log_a.trajectory() == log_b.trajectory()
    report(
        "9 determinism",
        identical,
        f"{len(log_a.records)} steps, loss trajectories bit-identical={identical}",
    )


# -- 10: roundtrips -------------------------------------------------------------------

def test_criterion_10_roundtrips(tmp_path):
    rng = np.random.default_rng(44)
    ints = rng.integers(-32768, 32768, size=4096)
    sig = Signal(ints / 32768.0, 12000)
    wav_path = tmp_path / "rt.wav"
    data.wav_write(sig, wav_path)
    wav_ok = np.array_equal(data.wav_read(wav_path).samples, sig.samples)

    m = models.build_edsr(models.EdsrConfig(filters=8, n_blocks=2), seed=6)
    x = Tensor(rng.normal(size=(2, 1, 64)))
    y = m.forward(x)
    ckpt_path = tmp_path / "m.ckpt"
    models.save_checkpoint(m, ckpt_path)
    ckpt_ok = np.array_equal(models.load_checkpoint(ckpt_path).forward(x).data, y.data)

    t = rng.normal(size=(2, 6, 10))
    shuffle_ok = np.array_equal(
        dg.subpixel_unshuffle1d(dg.subpixel_shuffle1d(Tensor(t), 3), 3).data, t
    )
    report(
        "10 roundtrips",
        wav_ok and ckpt_ok and shuffle_ok,
        f"wav={wav_ok}, checkpoint={ckpt_ok}, shuffle={shuffle_ok}",
    )
