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
    """Training aborted on a non-finite quantity; carries the offending step."""

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
        self.rng = np.random.default_rng([seed, 0])
        self.slots: list[tuple[int, int]] = []
        for item, sig in enumerate(corpus):
            for start in range(0, len(sig) - patch_length + 1, align):
                self.slots.append((item, start))
        if not self.slots:
            raise ValueError(
                f"no corpus item is long enough for patch_length {patch_length}"
            )
        self._queue: list[int] = []

    def batch(self, size: int) -> np.ndarray:
        """The next ``size`` patches as rows of a (size, patch_length) array."""
        out = np.empty((size, self.patch_length))
        for row in out:
            if not self._queue:
                self._queue = list(self.rng.permutation(len(self.slots)))
            item, start = self.slots[self._queue.pop()]
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
    need = model.length_divisor * cfg.scale
    if cfg.patch_length % need != 0:
        raise ConfigConflictError(
            f"patch_length must be divisible by {need} (the model's length divisor "
            f"times the scale), got {cfg.patch_length}"
        )


def _update(model: Model, params, objective: Tensor, step: int, what: str, **values) -> None:
    """One optimizer step: abort if any logged value is non-finite, else
    backpropagate ``objective`` and apply ``model``'s Adam state to ``params``."""
    if not all(math.isfinite(v) for v in values.values()):
        raise NumericError(f"non-finite {what} {step}", step, values)
    dg.backward(objective, params)
    dg.adam_step(params, model.adam_state)
    model.train_step += 1


def _save(out_dir, seed: int, files: dict[str, Model]) -> list[Checkpoint]:
    """Checkpoint each model; given ``out_dir``, make it and write each file there."""
    ckpts = [Checkpoint.from_model(m, seed=seed) for m in files.values()]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, ckpt in zip(files, ckpts):
            ckpt.save(f"{out_dir}/{name}")
    return ckpts


def _batch_arrays(patches: np.ndarray, model: Model, scale: int):
    """(model input, target) arrays of shape (b, 1, length) for (b, n) patches."""
    inputs = model_input(model, dsp.decimate(patches, scale), scale)
    return inputs[:, None, :], patches[:, None, :]


def train_supervised(
    model: Model,
    corpus: list[Signal],
    cfg: TrainConfig,
    out_dir=None,
    progress_every: int = 0,
) -> tuple[Checkpoint, TrainLog]:
    """Algorithm: per step sample a batch of aligned patches, degrade them,
    regress the reconstruction under the configured loss, and take one Adam
    step. Deterministic given (seed, config, corpus)."""
    _validate_run(model, corpus, cfg)
    loss_name = _resolve_loss(model, cfg)
    loss_fn = dg.l1 if loss_name == "l1" else dg.l2
    sampler = _PatchSampler(corpus, cfg.patch_length, cfg.scale, cfg.seed)
    net_rng = np.random.default_rng([cfg.seed, 1])
    model.adam_state = AdamState(alpha=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    log = TrainLog(
        kind="supervised",
        meta={
            "model": model.kind,
            "loss": loss_name,
            "scale": cfg.scale,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "batch_size": cfg.batch_size,
            "patch_length": cfg.patch_length,
            "lr": cfg.lr,
        },
    )
    params = model.parameters()
    t0 = time.perf_counter()
    for step in range(1, cfg.steps + 1):
        patches = sampler.batch(cfg.batch_size)
        inp, tgt = _batch_arrays(patches, model, cfg.scale)
        model.zero_grad()
        out = model.forward(Tensor(inp), training=True, rng=net_rng)
        loss = loss_fn(out, Tensor(tgt))
        value = loss.item()
        _update(model, params, loss, step, "loss at step", loss=value)
        log.append(StepRecord(step=step, loss=value, wall_time=time.perf_counter() - t0))
        if progress_every and step % progress_every == 0:
            print(f"step {step}/{cfg.steps}  {loss_name} loss {value:.6f}", flush=True)
        if out_dir is not None and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            _save(out_dir, cfg.seed, {f"ckpt_{step:06d}.ckpt": model})
    (ckpt,) = _save(out_dir, cfg.seed, {"final.ckpt": model})
    return ckpt, log


def gradient_penalty(
    critic: Model,
    x,
    x_tilde,
    eps: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean over the batch of (||grad_xhat D(xhat)||_2 - 1)^2 with
    xhat = eps*x + (1-eps)*x_tilde, eps drawn per batch item."""
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    td = x_tilde.data if isinstance(x_tilde, Tensor) else np.asarray(x_tilde, dtype=np.float64)
    if xd.shape != td.shape:
        raise ValueError(f"shape mismatch: {xd.shape} vs {td.shape}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (xd.shape[0],):
        raise ValueError(f"eps must have shape ({xd.shape[0]},), got {eps.shape}")
    if eps.min() < 0.0 or eps.max() > 1.0:
        raise ValueError("eps values must lie in [0, 1]")
    e = eps[:, None, None]
    xhat = Tensor(e * xd + (1.0 - e) * td, requires_grad=True)
    scores = critic.forward(xhat, training=training, rng=rng)
    grad = dg.input_gradient(dg.sum_all(scores), xhat)
    per_item = dg.sum_axes(dg.mul(grad, grad), (1, 2))
    norm = dg.sqrt(per_item)
    d = dg.sub(norm, Tensor(1.0))
    return dg.mean_all(dg.mul(d, d))


def train_wgan_gp(
    generator: Model,
    critic: Model,
    corpus: list[Signal],
    cfg: GanConfig,
    out_dir=None,
    progress_every: int = 0,
) -> tuple[Checkpoint, Checkpoint, TrainLog]:
    """Adversarial loop: n_critic critic updates (Wasserstein loss plus the
    gradient penalty), then one generator update, per outer iteration."""
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

    sampler = _PatchSampler(corpus, base.patch_length, base.scale, base.seed)
    gen_rng = np.random.default_rng([base.seed, 1])
    critic_rng = np.random.default_rng([base.seed, 2])
    eps_rng = np.random.default_rng([base.seed, 3])
    generator.adam_state = AdamState(alpha=base.lr, beta1=base.beta1, beta2=base.beta2)
    critic.adam_state = AdamState(alpha=base.lr, beta1=base.beta1, beta2=base.beta2)
    log = TrainLog(
        kind="wgan-gp",
        meta={
            "gp_weight": cfg.gp_weight,
            "n_critic": cfg.n_critic,
            "content_weight": cfg.content_weight,
            "scale": base.scale,
            "seed": base.seed,
            "batch_size": base.batch_size,
            "patch_length": base.patch_length,
            "lr": base.lr,
            "warm_start": cfg.warm_start or "none",
        },
    )
    gen_params = generator.parameters()
    critic_params = critic.parameters()
    t0 = time.perf_counter()
    for step in range(1, base.steps + 1):
        critic_losses, penalties = [], []
        for _ in range(cfg.n_critic):
            patches = sampler.batch(base.batch_size)
            inp, tgt = _batch_arrays(patches, generator, base.scale)
            with dg.no_grad():
                fake = generator.forward(Tensor(inp), training=True, rng=gen_rng)
            eps = eps_rng.random(base.batch_size)
            critic.zero_grad()
            s_fake = critic.forward(Tensor(fake.data), training=True, rng=critic_rng)
            s_real = critic.forward(Tensor(tgt), training=True, rng=critic_rng)
            pen = gradient_penalty(critic, tgt, fake.data, eps, training=True, rng=critic_rng)
            loss_c = dg.add(
                dg.sub(dg.mean_all(s_fake), dg.mean_all(s_real)),
                dg.mul(pen, cfg.gp_weight),
            )
            c_val, p_val = loss_c.item(), pen.item()
            _update(critic, critic_params, loss_c, step, "critic loss at outer step",
                    critic_loss=c_val, penalty=p_val)
            critic_losses.append(c_val)
            penalties.append(p_val)

        patches = sampler.batch(base.batch_size)
        inp, tgt = _batch_arrays(patches, generator, base.scale)
        generator.zero_grad()
        fake = generator.forward(Tensor(inp), training=True, rng=gen_rng)
        s_fake = critic.forward(fake, training=True, rng=critic_rng)
        loss_g = dg.neg(dg.mean_all(s_fake))
        if cfg.content_weight > 0:
            loss_g = dg.add(loss_g, dg.mul(dg.l1(fake, Tensor(tgt)), cfg.content_weight))
        g_val = loss_g.item()
        _update(generator, gen_params, loss_g, step, "generator loss at outer step", gen_loss=g_val)

        log.append(
            StepRecord(
                step=step,
                loss=g_val,
                wall_time=time.perf_counter() - t0,
                critic_loss=float(np.mean(critic_losses)),
                penalty=float(np.mean(penalties)),
                gen_loss=g_val,
            )
        )
        if progress_every and step % progress_every == 0:
            print(
                f"outer {step}/{base.steps}  critic {np.mean(critic_losses):.4f}  "
                f"penalty {np.mean(penalties):.4f}  gen {g_val:.4f}",
                flush=True,
            )
        if out_dir is not None and base.checkpoint_every and step % base.checkpoint_every == 0:
            _save(out_dir, base.seed, {f"generator_{step:06d}.ckpt": generator,
                                       f"critic_{step:06d}.ckpt": critic})

    gen_ckpt, critic_ckpt = _save(
        out_dir, base.seed, {"generator.ckpt": generator, "critic.ckpt": critic}
    )
    return gen_ckpt, critic_ckpt, log
