"""Training loops: supervised L1/L2 regression and WGAN-GP adversarial
training on patches degraded into (model input, target) pairs."""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffgraph as dg
from . import dsp
from .data import write_atomic
from .diffgraph import AdamState, Tensor
from .dsp import Signal
from .models import (Checkpoint, CheckpointKindError, ConfigConflictError, Model, load_params,
                     model_input, upsampling_mode)


class NumericError(RuntimeError):
    """Training aborted on a non-finite quantity; carries the offending step
    and, raised out of a training run, the ``TrainLog`` of the steps that finished."""

    log: TrainLog | None = None

    def __init__(self, message: str, step: int, record: dict):
        super().__init__(message)
        self.step = step
        self.record = record


@dataclass
class TrainConfig:
    steps: int
    mode: str  # "pre" | "post"
    scale: int = 2
    batch_size: int = 16
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    loss: str | None = None  # None resolves to the model kind's default
    seed: int = 0
    patch_length: int = 8192
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.mode not in ("pre", "post"):
            raise ValueError(f"mode must be 'pre' or 'post', got {self.mode!r}")
        if self.scale < 2:
            raise ValueError(f"scale must be >= 2, got {self.scale}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss not in (None, "l1", "l2"):
            raise ValueError(f"loss must be 'l1' or 'l2', got {self.loss!r}")
        if self.patch_length < 1:
            raise ValueError("patch_length must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass
class GanConfig:
    base: TrainConfig
    gp_weight: float = 10.0
    n_critic: int = 5
    content_weight: float = 0.0
    warm_start: str | None = None

    def __post_init__(self):
        if self.gp_weight < 0:
            raise ValueError("gp_weight must be >= 0")
        if self.n_critic < 1:
            raise ValueError("n_critic must be >= 1")
        if self.content_weight < 0:
            raise ValueError("content_weight must be >= 0")


@dataclass
class StepRecord:
    step: int
    loss: float
    wall_time: float
    critic_loss: float | None = None
    penalty: float | None = None
    gen_loss: float | None = None


@dataclass
class TrainLog:
    kind: str  # "supervised" | "wgan-gp"
    records: list[StepRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, rec: StepRecord) -> None:
        if self.records and rec.step <= self.records[-1].step:
            raise ValueError("step indices must be strictly increasing")
        self.records.append(rec)

    @property
    def columns(self) -> tuple[str, ...]:
        """The per-step loss fields this kind of run logs."""
        return ("loss",) if self.kind == "supervised" else ("critic_loss", "penalty", "gen_loss")

    def trajectory(self) -> list[tuple]:
        """Deterministic per-step numbers (everything except wall time)."""
        return [(r.step, *(getattr(r, c) for c in self.columns)) for r in self.records]

    def to_csv(self, path) -> None:
        lines = [f"# kind = {self.kind}"]
        for key, val in sorted(self.meta.items()):
            lines.append(f"# {key} = {val}")
        lines.append(",".join(("step", *self.columns, "wall_time_s")))
        for r in self.records:
            losses = "".join(f"{getattr(r, c)!r}," for c in self.columns)
            lines.append(f"{r.step},{losses}{r.wall_time:.3f}")
        write_atomic(path, "\n".join(lines) + "\n")


class _PatchSampler:
    """Deterministic sampler over aligned patches, reshuffled each epoch."""

    def __init__(self, corpus: list[Signal], patch_length: int, align: int, seed: int):
        self.corpus = corpus
        self.patch_length = patch_length
        self.align = align
        self.rng = np.random.default_rng([seed, 0])
        # slot i is the i-th aligned patch start, counted item by item
        counts = np.array([max(len(sig) - patch_length, -1) // align + 1 for sig in corpus])
        self._ends = np.cumsum(counts)
        self._firsts = self._ends - counts
        if not self._ends[-1]:
            raise ValueError(f"no corpus item is long enough for patch_length {patch_length}")
        self._queue = np.empty(0, np.int64)  # this epoch's slot order, consumed from the end

    def batch(self, size: int) -> np.ndarray:
        """The next ``size`` patches as rows of a (size, patch_length) array."""
        out = np.empty((size, self.patch_length))
        for row in out:
            if not len(self._queue):
                self._queue = self.rng.permutation(self._ends[-1])
            slot, self._queue = self._queue[-1], self._queue[:-1]
            item = np.searchsorted(self._ends, slot, side="right")
            start = (slot - self._firsts[item]) * self.align
            row[:] = self.corpus[item].samples[start : start + self.patch_length]
        return out


def _resolve_loss(model: Model, cfg: TrainConfig) -> str:
    if cfg.loss is not None:
        return cfg.loss
    return "l2" if model.kind == "edsr" else "l1"


def _validate_run(model: Model, corpus: list[Signal], cfg: TrainConfig) -> None:
    if not corpus:
        raise ValueError("empty corpus")
    upsampling_mode(model, cfg.scale, cfg.mode)
    for sig in corpus:
        dsp.check_rate(sig.sample_rate, cfg.scale)
    if cfg.patch_length % cfg.scale != 0:
        raise ConfigConflictError(
            f"patch_length must be divisible by the scale {cfg.scale}, got {cfg.patch_length}"
        )


def _update(model: Model, objective: Tensor, step: int, what: str, **values) -> None:
    """One optimizer step: abort if any logged value is non-finite, else backpropagate
    ``objective`` into ``model``'s cleared gradients and apply its Adam state."""
    if not all(math.isfinite(v) for v in values.values()):
        raise NumericError(f"non-finite {what} {step}", step, values)
    model.zero_grad()
    params = model.parameters()
    dg.backward(objective, params)
    dg.adam_step(params, model.adam_state)
    model.train_step += 1


def _save(out_dir, seed: int, files: dict[str, Model]) -> None:
    """Make ``out_dir`` and write a checkpoint of each model there, under its name."""
    os.makedirs(out_dir, exist_ok=True)
    for name, m in files.items():
        Checkpoint.from_model(m, seed=seed).save(f"{out_dir}/{name}")


def _batch_arrays(patches: np.ndarray, model: Model, scale: int):
    """(model input, target) arrays of shape (b, 1, length) for (b, n) patches,
    in the model's dtype, so that the loss and its gradients stay in it."""
    inputs = model_input(model, dsp.decimate(patches, scale), scale)
    return (inputs[:, None, :].astype(model.dtype, copy=False),
            patches[:, None, :].astype(model.dtype, copy=False))


def _run_steps(model: Model, corpus: list[Signal], cfg: TrainConfig, rows: int, body,
               log: TrainLog, progress: str, out_dir, progress_every: int,
               every: dict[str, Model], final: dict[str, Model]) -> None:
    """The step loop of both trainers. It adds ``cfg``'s common keys to ``log.meta``
    and gives each model in ``final`` a fresh Adam state. Per step it draws ``rows``
    patches, degrades them for ``model`` and calls ``body(step, inputs, targets)``,
    which returns the step's losses by ``StepRecord`` field; the step's graph dies
    with that call's frame. It logs them, prints ``progress`` formatted with ``step``,
    ``steps`` and the losses and, given ``out_dir``, saves ``every`` (names formatted
    with the step) each ``checkpoint_every`` steps and ``final`` at the end. A
    ``NumericError`` leaves carrying ``log``."""
    dg.keep_freed_heap()
    log.meta.update(scale=cfg.scale, seed=cfg.seed, batch_size=cfg.batch_size,
                    patch_length=cfg.patch_length, lr=cfg.lr)
    for m in final.values():
        m.adam_state = AdamState(alpha=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    sampler = _PatchSampler(corpus, cfg.patch_length, cfg.scale, cfg.seed)
    t0 = time.perf_counter()
    for step in range(1, cfg.steps + 1):
        try:
            losses = body(step, *_batch_arrays(sampler.batch(rows), model, cfg.scale))
        except NumericError as exc:
            exc.log = log
            raise
        log.append(StepRecord(step=step, wall_time=time.perf_counter() - t0, **losses))
        if progress_every and step % progress_every == 0:
            print(progress.format(step=step, steps=cfg.steps, **losses), flush=True)
        if out_dir is not None and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            _save(out_dir, cfg.seed, {name.format(step): m for name, m in every.items()})
    if out_dir is not None:
        _save(out_dir, cfg.seed, final)


def train_supervised(
    model: Model,
    corpus: list[Signal],
    cfg: TrainConfig,
    out_dir=None,
    progress_every: int = 0,
) -> tuple[Model, TrainLog]:
    """Algorithm: per step sample a batch of aligned patches, degrade them,
    regress the reconstruction under the configured loss, and take one Adam
    step. Deterministic given (seed, config, corpus). Returns the trained
    model and the log; checkpoints are written only into ``out_dir``."""
    _validate_run(model, corpus, cfg)
    loss_name = _resolve_loss(model, cfg)
    loss_fn = dg.l1 if loss_name == "l1" else dg.l2
    net_rng = np.random.default_rng([cfg.seed, 1])

    def step_body(step, inp, tgt):
        loss = loss_fn(model.forward(Tensor(inp), training=True, rng=net_rng), Tensor(tgt))
        value = loss.item()
        _update(model, loss, step, "loss at step", loss=value)
        return {"loss": value}

    log = TrainLog("supervised", meta={"model": model.kind, "loss": loss_name, "mode": cfg.mode})
    _run_steps(model, corpus, cfg, cfg.batch_size, step_body, log,
               "step {step}/{steps}  " + loss_name + " loss {loss:.6f}", out_dir,
               progress_every, {"ckpt_{:06d}.ckpt": model}, {"final.ckpt": model})
    return model, log


def gradient_penalty(
    critic: Model,
    x,
    x_tilde,
    eps: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean over the batch of (||grad_xhat D(xhat)||_2 - 1)^2 with
    xhat = eps*x + (1-eps)*x_tilde, eps drawn per batch item. xhat and the
    penalty take the wider dtype of x and x_tilde, at least float32."""
    xd = np.asarray(x.data if isinstance(x, Tensor) else x)
    td = np.asarray(x_tilde.data if isinstance(x_tilde, Tensor) else x_tilde)
    if xd.shape != td.shape:
        raise ValueError(f"shape mismatch: {xd.shape} vs {td.shape}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (xd.shape[0],):
        raise ValueError(f"eps must have shape ({xd.shape[0]},), got {eps.shape}")
    if eps.min() < 0.0 or eps.max() > 1.0:
        raise ValueError("eps values must lie in [0, 1]")
    e = eps.astype(np.result_type(xd, td, np.float32))[:, None, None]
    xhat = Tensor(e * xd + (1.0 - e) * td, requires_grad=True)
    scores = critic.forward(xhat, training=training, rng=rng)
    grad = dg.input_gradient(dg.sum_all(scores), xhat)
    per_item = dg.sum_axes(dg.mul(grad, grad), (1, 2))
    norm = dg.sqrt(per_item)
    d = dg.sub(norm, 1.0)
    return dg.mean_all(dg.mul(d, d))


def train_wgan_gp(
    generator: Model,
    critic: Model,
    corpus: list[Signal],
    cfg: GanConfig,
    out_dir=None,
    progress_every: int = 0,
) -> tuple[Model, Model, TrainLog]:
    """Adversarial loop: n_critic critic updates (Wasserstein loss plus the gradient
    penalty), then one generator update, per outer iteration. One generator forward
    makes the critic updates' fakes, and each update scores fake and real in one
    critic forward; both draw at random as separate forwards would, in their order.
    Returns both trained models and the log, like ``train_supervised``."""
    base = cfg.base
    if generator.mode != "pre":
        raise ValueError(
            f"adversarial training needs a pre-upsampling generator, got {generator.kind!r}"
        )
    if critic.kind != "critic":
        raise ValueError(f"second model must be a critic, got {critic.kind!r}")
    _validate_run(generator, corpus, base)
    if cfg.warm_start is not None:
        warm = Checkpoint.load(cfg.warm_start)
        if warm.kind != generator.kind:
            raise CheckpointKindError(f"warm start holds a {warm.kind!r} model, not a {generator.kind!r}")
        load_params(generator, warm.params)

    gen_rng = np.random.default_rng([base.seed, 1])
    critic_rng = np.random.default_rng([base.seed, 2])
    eps_rng = np.random.default_rng([base.seed, 3])
    b = base.batch_size

    def critic_step(step, fake, tgt):
        eps = eps_rng.random(b)
        fake, tgt = fake.astype(critic.dtype, copy=False), tgt.astype(critic.dtype, copy=False)
        scores = critic.forward(Tensor(np.concatenate([fake, tgt])), training=True, rng=critic_rng, parts=2)
        pen = gradient_penalty(critic, tgt, fake, eps, training=True, rng=critic_rng)
        loss_c = dg.add(dg.sub(dg.mean_all(dg.slice_axis(scores, 0, 0, b)),
                               dg.mean_all(dg.slice_axis(scores, 0, b, b))), dg.mul(pen, cfg.gp_weight))
        c_val, p_val = loss_c.item(), pen.item()
        _update(critic, loss_c, step, "critic loss at outer step",
                critic_loss=c_val, penalty=p_val)
        return c_val, p_val

    def outer_step(step, inp, tgt):
        # one draw and one degradation per outer step: n_critic critic batches, whose
        # fakes come from one generator forward, then the generator's; b rows each
        with dg.no_grad():
            fakes = generator.forward(Tensor(inp[:-b]), training=True, rng=gen_rng, parts=cfg.n_critic)
        critic_losses, penalties = zip(*[critic_step(step, f, t) for f, t in zip(
            np.split(fakes.data, cfg.n_critic), np.split(tgt[:-b], cfg.n_critic))])
        fake = generator.forward(Tensor(inp[-b:]), training=True, rng=gen_rng)
        s_fake = critic.forward(fake, training=True, rng=critic_rng)
        loss_g = dg.neg(dg.mean_all(s_fake))
        if cfg.content_weight > 0:
            loss_g = dg.add(loss_g, dg.mul(dg.l1(fake, Tensor(tgt[-b:])), cfg.content_weight))
        g_val = loss_g.item()
        _update(generator, loss_g, step, "generator loss at outer step", gen_loss=g_val)
        return {"loss": g_val, "critic_loss": float(np.mean(critic_losses)),
                "penalty": float(np.mean(penalties)), "gen_loss": g_val}

    log = TrainLog("wgan-gp", meta={"gp_weight": cfg.gp_weight, "n_critic": cfg.n_critic,
                                    "content_weight": cfg.content_weight,
                                    "warm_start": cfg.warm_start or "none"})
    _run_steps(
        generator, corpus, base, (cfg.n_critic + 1) * base.batch_size, outer_step, log,
        "outer {step}/{steps}  critic {critic_loss:.4f}  penalty {penalty:.4f}  gen {gen_loss:.4f}",
        out_dir, progress_every,
        {"generator_{:06d}.ckpt": generator, "critic_{:06d}.ckpt": critic},
        {"generator.ckpt": generator, "critic.ckpt": critic},
    )
    return generator, critic, log
