"""The benchmark's workloads: seeded inputs, set-up, timed loops and output checks.

Every workload is a closed loop with one caller that waits for each operation
(a training step, an upsample operation or an eval item) before starting the
next. Inputs are made here from the workload seed; audiosr only receives the
generated signals, WAV files and checkpoints.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import wave
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import butter, sosfilt

from audiosr import cli, data, diffgraph, metrics, models, train
from audiosr.dsp import Signal

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

MIN_SAMPLES = 100  # per timing set, so the p90 has at least ten samples beyond it
SETUP_REPEATS = 3
WARMUP_STEPS = 3

# criterion-7 toy EDSR run
EDSR = dict(filters=16, n_blocks=2, upsample_stages=1)
EDSR_TRAIN = dict(mode="post", scale=2, batch_size=32, patch_length=512, lr=3e-3, loss="l1")
EDSR_CORPUS = dict(
    length=8192, sample_rate=12000, components=(128, 256),
    freq_range=(100.0, 5700.0), kinds=("sine", "chirp"),
)
EDSR_CORPUS_COUNT = 16
# criterion-8 WGAN-GP run
GAN_GENERATOR = dict(
    depth=2, down_filters=(4, 8), down_kernels=(9, 9),
    bottleneck_filters=8, dropout_rate=0.5, scale=2,
)
GAN_CRITIC = dict(layers=3, base_filters=4, kernel=9, phase_shuffle_n=2)
GAN_TRAIN = dict(mode="pre", scale=2, batch_size=4, patch_length=256)
GAN = dict(gp_weight=10.0, n_critic=5)
GAN_CORPUS = dict(length=2048, sample_rate=12000)
GAN_CORPUS_COUNT = 16
# compare-losses toy UNet, used for inference
UNET = dict(depth=2, down_filters=(16, 32), down_kernels=(17, 9), bottleneck_filters=32, scale=2)

LOW_RATE, HIGH_RATE = 12000, 24000
# upsample: input lengths (samples at 12 kHz) log-stratified over 40x; the
# longest is the same for every seed so one input sets the memory peak
UPSAMPLE_INPUTS = 48
UPSAMPLE_SHORTEST, UPSAMPLE_LONGEST = 400, 16003
# eval: held-out 24 kHz utterances of modestly varying length, all >= one STFT frame
EVAL_ITEMS = 48
EVAL_LENGTHS = (3072, 6144)
EVAL_SPEC = dict(sample_rate=HIGH_RATE, components=(8, 32), freq_range=(100.0, 11000.0))

# traced runs execute a fixed amount of work so that counts repeat exactly
TRACE_STEPS = {"train_edsr": 20, "train_gan": 20}
TRACE_REQUESTS, TRACE_ITEMS = 12, 16

# tolerances of the correctness checks
REFERENCE_RTOL = 1e-9  # training losses against reference.json
EVAL_TOL_DB = 1e-6  # SNR and LSD against reference.json and the in-run oracle
ORACLE_ITEMS = 2  # eval items / upsample inputs per run compared against an oracle


def toy_model(kind: str, seed: int):
    """The seeded, untrained toy EDSR or UNet that upsample and eval run."""
    if kind == "edsr":
        return models.build_edsr(models.EdsrConfig(**EDSR), seed=seed)
    return models.build_unet(models.UnetConfig(**UNET), seed=seed)


def derive_seeds(seed: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(4)]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def upsample_lengths(seed: int) -> np.ndarray:
    """Input lengths, one per upsample input, in a seeded order.

    The residue of each length mod 4 cycles through 0..3, so every seed sends
    the same share of odd lengths, whose 2x length the UNet divisor (4) does
    not divide.
    """
    rng = np.random.default_rng([seed, 11])
    n = UPSAMPLE_INPUTS
    u = (np.arange(n) + rng.random(n)) / n
    lengths = np.exp(np.log(UPSAMPLE_SHORTEST) + u * np.log(UPSAMPLE_LONGEST / UPSAMPLE_SHORTEST))
    lengths = lengths.astype(np.int64)
    lengths[-1] = UPSAMPLE_LONGEST - UPSAMPLE_LONGEST % 4
    lengths = lengths - lengths % 4 + np.arange(n) % 4
    return lengths[rng.permutation(n)]


def eval_lengths(seed: int) -> np.ndarray:
    """Item lengths in a seeded order; the longest is the same for every seed."""
    rng = np.random.default_rng([seed, 12])
    lengths = rng.integers(EVAL_LENGTHS[0], EVAL_LENGTHS[1] + 1, size=EVAL_ITEMS)
    lengths[0] = EVAL_LENGTHS[1]
    return lengths[rng.permutation(EVAL_ITEMS)]


def generate_inputs(workload: str, seed: int) -> dict:
    """All seeded inputs of a workload, as plain arrays (used by the self-test too)."""
    corpus_seed, model_seed, train_seed, _ = derive_seeds(seed)
    if workload == "train_edsr":
        spec = data.SynthSpec(count=EDSR_CORPUS_COUNT, **EDSR_CORPUS)
        return {"corpus": data.synth_signals(spec, corpus_seed), "model_seed": model_seed,
                "train_seed": train_seed}
    if workload == "train_gan":
        spec = data.SynthSpec(count=GAN_CORPUS_COUNT, **GAN_CORPUS)
        return {"corpus": data.synth_signals(spec, corpus_seed), "model_seed": model_seed,
                "train_seed": train_seed}
    if workload == "upsample":
        lengths = upsample_lengths(seed)
        spec = data.SynthSpec(count=len(lengths), length=int(lengths.max()), sample_rate=LOW_RATE)
        sigs = data.synth_signals(spec, corpus_seed)
        return {"signals": [s.samples[:n] for s, n in zip(sigs, lengths)], "model_seed": model_seed}
    if workload == "eval":
        lengths = eval_lengths(seed)
        spec = data.SynthSpec(count=len(lengths), length=EVAL_LENGTHS[1], **EVAL_SPEC)
        sigs = data.synth_signals(spec, corpus_seed)
        return {"items": [Signal(s.samples[:n], HIGH_RATE) for s, n in zip(sigs, lengths)],
                "model_seed": model_seed}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# 16-bit WAV I/O independent of audiosr, used to make inputs and check outputs
# ---------------------------------------------------------------------------

def quantize16(x: np.ndarray) -> np.ndarray:
    q = np.floor(np.abs(x) * 32768.0 + 0.5) * np.sign(x)
    return np.clip(q, -32768, 32767).astype("<i2")


def write_wav16(path: Path, samples: np.ndarray, rate: int) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(quantize16(samples).tobytes())


def read_wav16(path: Path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1 or w.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono")
        return np.frombuffer(w.readframes(w.getnframes()), dtype="<i2"), w.getframerate()


# ---------------------------------------------------------------------------
# results of a run
# ---------------------------------------------------------------------------

@dataclass
class Timing:
    """Per-operation wall time and the seconds of audio each operation covered."""

    ms: list[float] = field(default_factory=list)
    audio_s: list[float] = field(default_factory=list)
    failed: int = 0

    def add(self, ms: float, audio_s: float, ok: bool = True) -> None:
        self.ms.append(ms)
        self.audio_s.append(audio_s)
        self.failed += not ok


@dataclass
class Outcome:
    timing: Timing
    warmup_s: float = 0.0
    checks: dict[str, str] = field(default_factory=dict)  # name -> "ok" or why not
    counters: dict[str, float] = field(default_factory=dict)
    breakdown: dict[str, Timing] = field(default_factory=dict)  # per upsample method


def _check(checks: dict, name: str, ok: bool, detail: str = "") -> None:
    checks[name] = "ok" if ok else f"FAILED {detail}".rstrip()


def _each_request(count: int, tracer, op) -> None:
    """Run ``op(i)`` for i < count, marking each call as one request when traced."""
    for i in range(count):
        if tracer is not None:
            tracer.begin_request(i)
        op(i)
        if tracer is not None:
            tracer.end_request()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _close(a, b, rtol: float) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=rtol, abs_tol=0.0) for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def _edsr_run(corpus, model_seed: int, train_seed: int, steps: int):
    model = models.build_edsr(models.EdsrConfig(**EDSR), seed=model_seed)
    cfg = train.TrainConfig(steps=steps, seed=train_seed, **EDSR_TRAIN)
    return train.train_supervised(model, corpus, cfg)[1]


def _gan_run(corpus, model_seed: int, train_seed: int, steps: int):
    gen = models.build_unet(models.UnetConfig(**GAN_GENERATOR), seed=model_seed)
    critic = models.build_critic(models.CriticConfig(**GAN_CRITIC), seed=model_seed + 1)
    cfg = train.GanConfig(base=train.TrainConfig(steps=steps, seed=train_seed, **GAN_TRAIN), **GAN)
    return train.train_wgan_gp(gen, critic, corpus, cfg)[2]


def reference_trajectory(name: str) -> list[list[float]]:
    """A short fixed-seed run whose loss trajectory is recorded in reference.json."""
    if name == "train_edsr":
        corpus = data.synth_signals(data.SynthSpec(count=2, **EDSR_CORPUS), 0)
        log = _edsr_run(corpus, 0, 0, 3)
    else:
        corpus = data.synth_signals(data.SynthSpec(count=4, **GAN_CORPUS), 0)
        log = _gan_run(corpus, 0, 0, 2)
    return [list(t) for t in log.trajectory()]


class TrainWorkload:
    """A training call cannot stop at a deadline, so a run trains a fixed number
    of steps: ``--seconds`` at ``nominal_step_ms``, the step time of this code on
    a 2-core host. Both commits of a comparison then do the same work."""

    def __init__(self, name: str, run_fn, batch_audio_s: float, adam_per_step: int,
                 nominal_step_ms: float):
        self.name = name
        self.run_fn = run_fn
        self.batch_audio_s = batch_audio_s  # seconds of target audio one step trains on
        self.adam_per_step = adam_per_step
        self.nominal_step_ms = nominal_step_ms

    def setup(self, seed: int, work_dir: Path) -> dict:
        return generate_inputs(self.name, seed)

    def _run(self, state, steps: int):
        return self.run_fn(state["corpus"], state["model_seed"], state["train_seed"], steps)

    def timed(self, state: dict, seconds: float) -> Outcome:
        t0 = perf_counter()
        warm = self._run(state, WARMUP_STEPS)
        warmup_s = perf_counter() - t0
        steps = WARMUP_STEPS + max(MIN_SAMPLES, round(1e3 * seconds / self.nominal_step_ms))
        log = self._run(state, steps)
        walls = [0.0] + [r.wall_time for r in log.records]
        timing = Timing()
        for a, b in zip(walls[WARMUP_STEPS:-1], walls[WARMUP_STEPS + 1:]):
            timing.add(1e3 * (b - a), self.batch_audio_s)
        out = Outcome(timing, warmup_s)
        traj = log.trajectory()
        _check(out.checks, "losses_finite", all(math.isfinite(v) for t in traj for v in t[1:]))
        _check(out.checks, "determinism_bit_identical", warm.trajectory() == traj[:WARMUP_STEPS],
               "warm-up run and timed run disagree on their common steps")
        self._check_reference(out.checks)
        return out

    def _check_reference(self, checks: dict) -> None:
        got = reference_trajectory(self.name)
        want = load_reference()[self.name]
        ok = len(got) == len(want) and all(_close(g, w, REFERENCE_RTOL) for g, w in zip(got, want))
        _check(checks, "reference_trajectory", ok, f"got {got}, recorded {want}")

    def fixed_pass(self, state: dict, tracer=None):
        log = self._run(state, TRACE_STEPS[self.name])
        timing = Timing()
        for _ in log.records:
            timing.add(0.0, self.batch_audio_s)
        return log.trajectory(), timing, {}


# ---------------------------------------------------------------------------
# upsample workload: in-process CLI requests; one operation sends one input
# through the spline, the EDSR checkpoint and the UNet checkpoint in turn
# ---------------------------------------------------------------------------

UPSAMPLE_METHODS = ("spline", "edsr", "unet")


class UpsampleWorkload:
    name = "upsample"
    adam_per_step = 0

    def setup(self, seed: int, work_dir: Path) -> dict:
        inputs = generate_inputs(self.name, seed)
        work_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, x in enumerate(inputs["signals"]):
            p = work_dir / f"in{i:03d}.wav"
            write_wav16(p, x, LOW_RATE)
            paths.append(p)
        ckpts = {}
        for kind in ("edsr", "unet"):
            ckpts[kind] = work_dir / f"{kind}.ckpt"
            models.save_checkpoint(toy_model(kind, inputs["model_seed"]), ckpts[kind])
        return {"inputs": paths, "lengths": [len(x) for x in inputs["signals"]], "ckpts": ckpts,
                "work_dir": work_dir}

    def _cli(self, state: dict, method: str, i: int) -> int:
        args = ["upsample", "--scale", "2", "--out", str(state["work_dir"])]
        if method == "spline":
            args += ["--method", "spline"]
        else:
            args += ["--method", "model", "--checkpoint", str(state["ckpts"][method])]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(args + [str(state["inputs"][i]), str(state["work_dir"] / "out.wav")])

    def _op(self, state: dict, i: int, out: Outcome) -> None:
        """One input through every method; it fails if any request fails its checks."""
        want = 2 * state["lengths"][i]
        total_ms, ok = 0.0, True
        for method in UPSAMPLE_METHODS:
            t0 = perf_counter()
            code = self._cli(state, method, i)
            ms = 1e3 * (perf_counter() - t0)
            got, rate = 0, 0
            if code == 0:
                samples, rate = read_wav16(state["work_dir"] / "out.wav")
                got = len(samples)
            good = code == 0 and rate == HIGH_RATE and got == want
            out.breakdown.setdefault(method, Timing()).add(ms, want / HIGH_RATE, good)
            out.counters["samples_dropped"] = out.counters.get("samples_dropped", 0) + max(want - got, 0)
            out.counters["exit_nonzero"] = out.counters.get("exit_nonzero", 0) + (code != 0)
            total_ms += ms
            ok = ok and good
        out.timing.add(total_ms, want / HIGH_RATE, ok)

    def timed(self, state: dict, seconds: float) -> Outcome:
        # warm up on the longest input, so the memory peak is set in the same
        # heap state on every run
        longest = int(np.argmax(state["lengths"]))
        t0 = perf_counter()
        self._op(state, longest, Outcome(Timing()))
        out = Outcome(Timing(), perf_counter() - t0)
        n = len(state["inputs"])
        t_start = perf_counter()
        while perf_counter() - t_start < seconds or len(out.timing.ms) < MIN_SAMPLES:
            for i in range(n):
                self._op(state, i, out)
        self._check_outputs(state, out.checks)
        return out

    def _check_outputs(self, state: dict, checks: dict) -> None:
        """Compare a few requests against an in-process oracle, within one LSB."""
        worst = 0
        for i in range(ORACLE_ITEMS):
            x, _ = read_wav16(state["inputs"][i])
            x = x / 32768.0
            for method in UPSAMPLE_METHODS:
                if self._cli(state, method, i) != 0:
                    worst = 1 << 16
                    continue
                got, _ = read_wav16(state["work_dir"] / "out.wav")
                if method == "spline":
                    ref = _spline2(x)
                else:
                    model = models.Checkpoint.load(state["ckpts"][method]).build_model()
                    ref = _oracle_forward(model, x if method == "edsr" else _spline2(x))
                want = quantize16(np.clip(ref, -1.0, 1.0))
                n = min(len(got), len(want))
                worst = max(worst, int(np.max(np.abs(got[:n].astype(int) - want[:n].astype(int)))))
        _check(checks, "output_matches_oracle", worst <= 1, f"max deviation {worst} LSB")

    def fixed_pass(self, state: dict, tracer=None):
        out = Outcome(Timing())
        _each_request(TRACE_REQUESTS, tracer, lambda i: self._op(state, i, out))
        return out.counters, out.timing, out.counters


def _oracle_forward(model, feed: np.ndarray) -> np.ndarray:
    """No-grad forward of ``feed`` cropped to the model's length divisor."""
    feed = feed[: len(feed) // model.length_divisor * model.length_divisor]
    with diffgraph.no_grad():
        return model.forward(diffgraph.Tensor(feed[None, None, :])).data[0, 0]


def _spline2(x: np.ndarray) -> np.ndarray:
    t = np.arange(2 * len(x)) / 2.0
    y = CubicSpline(np.arange(len(x)), x, bc_type="natural")(t)
    y[::2] = x
    return y


# ---------------------------------------------------------------------------
# eval workload: one held-out utterance per item, under spline, EDSR and UNet
# ---------------------------------------------------------------------------

def _oracle_scores(recon: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """SNR and LSD from their definitions (frame loop, periodic Hann, floor 1e-10)."""
    n = min(len(recon), len(ref))
    g, a = recon[:n], ref[:n]
    snr = 10.0 * math.log10(np.sum(a**2) / np.sum((g - a) ** 2))
    frame, hop = 2048, 512
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    dists = []
    for start in range(0, n - frame + 1, hop):
        pg = np.maximum(np.abs(np.fft.rfft(g[start:start + frame] * win)) ** 2, 1e-10)
        pa = np.maximum(np.abs(np.fft.rfft(a[start:start + frame] * win)) ** 2, 1e-10)
        dists.append(math.sqrt(np.mean((np.log10(pg) - np.log10(pa)) ** 2)))
    return snr, float(np.mean(dists))


def _oracle_recon(model, sig: np.ndarray) -> np.ndarray:
    """Degrade with scipy's order-8 Butterworth, then spline or the model."""
    low = sosfilt(butter(8, 0.5, output="sos"), sig)[::2][: len(sig) // 2]
    if model is None:
        return _spline2(low)
    return _oracle_forward(model, low if model.kind == "edsr" else _spline2(low))


def score_item(methods, sig: Signal) -> list[tuple[float, float]]:
    """One eval item: the utterance scored under each (model or None, mode)."""
    return [metrics.evaluate_model(m, [sig], 2, mode).per_item[0][1:] for m, mode in methods]


def reference_eval_scores() -> list[list[float]]:
    spec = data.SynthSpec(count=2, length=4096, **EVAL_SPEC)
    methods = [(None, "pre"), (toy_model("edsr", 0), "post"), (toy_model("unet", 0), "pre")]
    return [[v for pair in score_item(methods, s) for v in pair] for s in data.synth_signals(spec, 0)]


class EvalWorkload:
    name = "eval"
    adam_per_step = 0

    def setup(self, seed: int, work_dir: Path) -> dict:
        inputs = generate_inputs(self.name, seed)
        work_dir.mkdir(parents=True, exist_ok=True)
        methods = [(None, "pre")]
        for kind, mode in (("edsr", "post"), ("unet", "pre")):
            path = work_dir / f"{kind}.ckpt"
            models.save_checkpoint(toy_model(kind, inputs["model_seed"]), path)
            methods.append((models.load_checkpoint(path), mode))
        return {"items": inputs["items"], "methods": methods}

    def _item(self, state: dict, i: int, timing: Timing) -> list:
        sig = state["items"][i]
        t0 = perf_counter()
        scores = score_item(state["methods"], sig)
        timing.add(1e3 * (perf_counter() - t0), sig.duration,
                   all(math.isfinite(v) for pair in scores for v in pair))
        return scores

    def timed(self, state: dict, seconds: float) -> Outcome:
        t0 = perf_counter()
        self._item(state, int(np.argmax([len(s) for s in state["items"]])), Timing())
        out = Outcome(Timing(), perf_counter() - t0)
        n = len(state["items"])
        first = []
        t_start = perf_counter()
        while perf_counter() - t_start < seconds or len(out.timing.ms) < MIN_SAMPLES:
            for i in range(n):
                scores = self._item(state, i, out.timing)
                if len(first) < ORACLE_ITEMS:
                    first.append(scores)
        worst = 0.0
        for i, scores in enumerate(first):
            for (model, _), got in zip(state["methods"], scores):
                want = _oracle_scores(_oracle_recon(model, state["items"][i].samples),
                                      state["items"][i].samples)
                worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        _check(out.checks, "scores_match_oracle", worst <= EVAL_TOL_DB, f"max deviation {worst} dB")
        got, want = reference_eval_scores(), load_reference()["eval"]
        dev = max(abs(g - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
        _check(out.checks, "reference_scores", dev <= EVAL_TOL_DB, f"max deviation {dev} dB")
        return out

    def fixed_pass(self, state: dict, tracer=None):
        timing, scores = Timing(), []
        _each_request(TRACE_ITEMS, tracer, lambda i: scores.append(self._item(state, i, timing)))
        return scores, timing, {}


WORKLOADS = {
    "train_edsr": TrainWorkload(
        "train_edsr", _edsr_run,
        EDSR_TRAIN["batch_size"] * EDSR_TRAIN["patch_length"] / LOW_RATE, adam_per_step=1,
        nominal_step_ms=100.0,
    ),
    "train_gan": TrainWorkload(
        "train_gan", _gan_run,
        (GAN["n_critic"] + 1) * GAN_TRAIN["batch_size"] * GAN_TRAIN["patch_length"] / LOW_RATE,
        adam_per_step=GAN["n_critic"] + 1, nominal_step_ms=70.0,
    ),
    "upsample": UpsampleWorkload(),
    "eval": EvalWorkload(),
}
