"""The parts of the program the benchmark (perfbench/) relies on.

perfbench wraps named audiosr functions and compares short fixed-seed runs
against perfbench/reference.json. These tests import its tracer and workloads
read-only, so a deleted function or a numerics drift fails here, not only when
the benchmark runs.
"""
import gc
import hashlib
import importlib.util
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from audiosr import data, models, train
from audiosr import diffgraph as dg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_every_traced_target_resolves():
    for owner, attr, name, *_ in tracer.TARGETS:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"


def test_tracer_install_and_restore_round_trip():
    def wrapped():
        return {(id(owner), attr): vars(owner)[attr] for owner, attr, *_ in tracer.TARGETS}

    before = wrapped()
    aliases = {(m, a): vars(m)[a] for m in tracer._package_modules() for a in vars(m)}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(f is not before[k] for k, f in wrapped().items())
    finally:
        t.restore()
    assert all(f is before[k] for k, f in wrapped().items())
    assert all(vars(m)[a] is f for (m, a), f in aliases.items())


@pytest.mark.parametrize("name", ["train_edsr", "train_gan"])
def test_reference_trajectory_matches(name):
    got = workloads.reference_trajectory(name)
    want = workloads.load_reference()[name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert workloads._close(g, w, workloads.REFERENCE_RTOL), f"got {g}, recorded {w}"


def test_reference_eval_scores_match():
    got, want = workloads.reference_eval_scores(), workloads.load_reference()["eval"]
    assert [len(g) for g in got] == [len(w) for w in want]
    dev = max(abs(g - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
    assert dev <= workloads.EVAL_TOL_DB


class _CountingUfunc:
    """Stands in for a numpy ufunc and counts calls to its ``at`` method."""

    def __init__(self, ufunc, counts, name):
        self._ufunc, self._counts, self._name = ufunc, counts, name

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._ufunc, attr)

    def at(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._ufunc.at(*args, **kwargs)


def test_gan_step_avoids_generic_numpy_gathers(monkeypatch):
    # train_gan's phase shuffle and narrow-conv windows run on take, bincount
    # and direct ndarray views; the generic entry points cost several times
    # as much on its few-KB arrays
    counts = {"np.add.at": 0, "np.take_along_axis": 0, "as_strided": 0}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "add", _CountingUfunc(np.add, counts, "np.add.at"))
    monkeypatch.setattr(np, "take_along_axis", counting(np.take_along_axis, "np.take_along_axis"))
    monkeypatch.setattr(np.lib.stride_tricks, "as_strided",
                        counting(np.lib.stride_tricks.as_strided, "as_strided"))
    corpus = data.synth_signals(data.SynthSpec(count=4, **workloads.GAN_CORPUS), 0)
    log = workloads._gan_run(corpus, 0, 0, 1)
    assert len(log.trajectory()) == 1
    assert counts == {"np.add.at": 0, "np.take_along_axis": 0, "as_strided": 0}


def test_every_upsampling_model_reads_any_length():
    # _oracle_forward crops its feed to a multiple of model.length_divisor; at 1
    # that crop keeps every sample, so the oracle feeds what models.reconstruct does
    for kind, (_, cls) in models.KINDS.items():
        if cls.mode is not None:
            assert cls.length_divisor == 1, kind
            assert workloads.toy_model(kind, 0).length_divisor == 1, kind


@pytest.mark.parametrize("name", ["upsample", "eval"])
def test_inference_workload_passes_its_output_checks(tmp_path, monkeypatch, name):
    # one pass over the workload's seeded inputs runs its setup, which saves
    # and loads the checkpoints, its timed operations, which rebuild them
    # through the CLI, and its checks against in-process oracles
    monkeypatch.setattr(workloads, "MIN_SAMPLES", 1)
    workload = workloads.WORKLOADS[name]
    out = workload.timed(workload.setup(0, tmp_path), 0.0)
    assert out.timing.ms
    assert out.checks and all(v == "ok" for v in out.checks.values()), out.checks
    # the oracles run the loaded models too, so only this shows a load that
    # returns other weights than were saved
    for kind in ("edsr", "unet"):
        saved = workloads.toy_model(kind, workloads.derive_seeds(0)[1]).params
        loaded = models.load_checkpoint(tmp_path / f"{kind}.ckpt").params
        assert all(np.array_equal(loaded[n].data, p.data) for n, p in saved.items())


def _training_digest(log, *trained) -> str:
    """SHA-256 over each model's parameters and Adam moments, then the losses."""
    h = hashlib.sha256()
    for model in trained:
        state = model.adam_state
        h.update(f"{model.kind}:{model.train_step}:{state.t}".encode())
        for name, p in model.params.items():
            for arr in (p.data, state.m[name], state.v[name]):
                h.update(name.encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(log.trajectory()).encode())
    return h.hexdigest()


# float64 training at perfbench's shapes on its seed-0 inputs. A change that
# only makes training faster leaves these unchanged. Like the UNet output
# pins, they hold for one BLAS build: another BLAS may change a GEMM's last bits.
# The train_gan digest was re-recorded when each critic update began to score
# its fake and real batches in one stacked forward: the critic's weight, bias
# and dense gradients now sum 2b items in one reduction, and a dense layer
# computes each row on its own, so the run moved in the last bits. Its random
# draws, and the generator's half of the step, did not change.
# Both digests were re-recorded when the anti-alias filter moved from scipy's
# sosfilt to a banded solve per biquad: the recursion now rounds in another
# order, so every decimated patch moved in its last bits (within about 2e-15
# on unit-scale input). The spline, the random draws and the models did not change.
TRAINING_DIGESTS = {
    "train_edsr": "6c0d89fdd9dadda0bfdf682db187c6d3f5eb1e96114ec0bb4d6a6c60fa585024",
    "train_gan": "63a538570eb4c282798ec39313ecdfdb85e36148e5914d31e7894e2de8c4b38a",
}


def _perfbench_trainer(name: str, steps: int):
    """Build workload ``name``'s float64 models on its seed-0 inputs. Return them and a
    call that trains them for ``steps`` steps and returns the log."""
    inputs = workloads.generate_inputs(name, 0)
    corpus, model_seed, train_seed = inputs["corpus"], inputs["model_seed"], inputs["train_seed"]
    if name == "train_edsr":
        model = models.build_edsr(models.EdsrConfig(**workloads.EDSR), seed=model_seed)
        cfg = train.TrainConfig(steps=steps, seed=train_seed, **workloads.EDSR_TRAIN)
        return (model,), lambda: train.train_supervised(model, corpus, cfg)[1]
    gen = models.build_unet(models.UnetConfig(**workloads.GAN_GENERATOR), seed=model_seed)
    critic = models.build_critic(models.CriticConfig(**workloads.GAN_CRITIC), seed=model_seed + 1)
    cfg = train.GanConfig(base=train.TrainConfig(steps=steps, seed=train_seed, **workloads.GAN_TRAIN),
                          **workloads.GAN)
    return (gen, critic), lambda: train.train_wgan_gp(gen, critic, corpus, cfg)[2]


@pytest.mark.parametrize("name, steps", [("train_edsr", 8), ("train_gan", 4)])
def test_float64_training_is_bit_identical(name, steps):
    trained, run = _perfbench_trainer(name, steps)
    assert _training_digest(run(), *trained) == TRAINING_DIGESTS[name]


@pytest.mark.parametrize("name", ["train_edsr", "train_gan"])
def test_one_training_tape_is_alive_at_a_time(name):
    # Each step frees its graph before the next forward. From step 2 on, a step
    # also carries its optimizer state: Adam's m and v, the held gradients and
    # the parameters Adam re-allocates, 4x the parameter bytes. So 2 steps peak
    # at most that (plus 5% for array headers) above 1, and 4 steps peak like 2.
    # A graph kept past its step, the first step's included, fails one of them.
    peaks = {}
    for steps in (1, 2, 4):
        trained, run = _perfbench_trainer(name, steps)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            run()
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    state = 4 * sum(p.data.nbytes for model in trained for p in model.parameters())
    assert peaks[2] - peaks[1] <= state + 0.05 * peaks[1], f"peaks {peaks} B, optimizer state {state} B"
    assert peaks[4] <= 1.05 * peaks[2], f"peaks {peaks} B"


def test_the_tape_keeps_only_what_its_vjps_read(monkeypatch):
    # After a toy EDSR forward and loss, before the backward, reference counting
    # alone has freed each block's relu input (conv1's output) and residual mul
    # input (conv2's output); every conv's input is alive, for its weight's VJP.
    # The tape has the nodes it had when each tensor held its parent tensors.
    refs = {"conv1d": [], "relu": [], "mul": []}

    def spy(name):
        op = getattr(dg, name)

        def wrapper(x, *args, **kwargs):
            if x.ndim == 3:  # not the loss's scalar mul
                refs[name].append(weakref.ref(x.data))
            return op(x, *args, **kwargs)
        return wrapper

    model = models.build_edsr(models.EdsrConfig(**workloads.EDSR), seed=0)
    for name in refs:
        monkeypatch.setattr(dg, name, spy(name))
    rng = np.random.default_rng(0)
    x, target = dg.Tensor(rng.standard_normal((2, 1, 64))), dg.Tensor(rng.standard_normal((2, 1, 128)))
    gc.disable()
    try:
        loss = dg.l1(model.forward(x), target)
        alive = {name: [r() is not None for r in found] for name, found in refs.items()}
    finally:
        gc.enable()
    blocks = workloads.EDSR["n_blocks"]
    assert alive == {"conv1d": [True] * (2 * blocks + 4), "relu": [False] * blocks, "mul": [False] * blocks}
    assert len(dg._toposort(loss)) == tracer._tape_nodes(loss) == 38
