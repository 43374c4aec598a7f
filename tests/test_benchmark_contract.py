"""The parts of the program the benchmark (perfbench/) relies on.

perfbench wraps named audiosr functions and compares short fixed-seed runs
against perfbench/reference.json. These tests import its tracer and workloads
read-only, so a deleted function or a numerics drift fails here, not only when
the benchmark runs.
"""
import hashlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from audiosr import data, models, train

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
TRAINING_DIGESTS = {
    "train_edsr": "b7fbca6b3888cc5b7266d8d53cdb23de132fbac701dbe9f7c2570e6ea4063867",
    "train_gan": "19bf34348f5ece9bca982affe7f116225a02f6976ddb653fd881ab4527cad1ca",
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
    # each step frees its graph before the next forward, so 3 steps peak like 1
    peaks = []
    for steps in (1, 3):
        _, run = _perfbench_trainer(name, steps)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0], f"1-step peak {peaks[0]} B, 3-step peak {peaks[1]} B"
