"""The three networks: a residual post-upsampler, a bottleneck pre-upsampler,
and the scoring critic, plus inference, parameter accounting and checkpoint I/O."""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import diffgraph as dg
from . import dsp
from .data import write_atomic
from .diffgraph import AdamState, Parameter, Tensor
from .dsp import Signal


@dataclass(frozen=True)
class EdsrConfig:
    """Post-upsampling residual network; scale is 2**upsample_stages."""

    filters: int = 128
    n_blocks: int = 32
    block_kernel: int = 9
    stem_kernel: int = 3
    upsample_stages: int = 1
    residual_scaling: float = 0.1

    def __post_init__(self):
        if self.filters < 1 or self.n_blocks < 1:
            raise ValueError("filters and n_blocks must be >= 1")
        for k in (self.block_kernel, self.stem_kernel):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"kernels must be odd positive integers, got {k}")
        if self.upsample_stages < 1:
            raise ValueError("upsample_stages must be >= 1")
        if not 0.0 < self.residual_scaling <= 1.0:
            raise ValueError(f"residual_scaling must lie in (0, 1], got {self.residual_scaling}")

    @property
    def scale(self) -> int:
        return 2**self.upsample_stages


@dataclass(frozen=True)
class UnetConfig:
    """Pre-upsampling bottleneck network operating at the target rate."""

    depth: int = 4
    down_filters: tuple[int, ...] = (128, 256, 512, 512)
    down_kernels: tuple[int, ...] = (65, 33, 17, 9)
    bottleneck_filters: int = 512
    dropout_rate: float = 0.5
    scale: int = 2
    final_kernel: int = 9

    def __post_init__(self):
        object.__setattr__(self, "down_filters", tuple(int(f) for f in self.down_filters))
        object.__setattr__(self, "down_kernels", tuple(int(k) for k in self.down_kernels))
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.down_filters) != self.depth or len(self.down_kernels) != self.depth:
            raise ValueError("down_filters and down_kernels must both have length depth")
        for k in (*self.down_kernels, self.final_kernel):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"kernels must be odd positive integers, got {k}")
        if any(f < 1 for f in self.down_filters) or self.bottleneck_filters < 1:
            raise ValueError("filter counts must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.scale < 2:
            raise ValueError(f"scale must be >= 2, got {self.scale}")


@dataclass(frozen=True)
class CriticConfig:
    """Stride-2 conv stack scoring each signal with a single real number."""

    layers: int = 6
    base_filters: int = 16
    kernel: int = 25
    leaky_slope: float = 0.2
    phase_shuffle_n: int = 2

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be an odd positive integer, got {self.kernel}")
        if self.phase_shuffle_n < 0:
            raise ValueError("phase_shuffle_n must be >= 0")


class Model:
    """Ordered differentiable operator graph with named parameters.

    ``mode`` names the input an upsampling model takes: "post" models read the
    low-rate signal, "pre" models its spline interpolation at the target rate.
    Models that do not upsample (the critic) have none. Every model reads any
    input length; ``length_divisor`` stays 1 for perfbench's oracle, which
    crops its feed to a multiple of it.

    Each layer is declared once, in ``forward``, whose ``_conv`` and ``_dense``
    make its parameters on first use, sized by their input. The constructor
    runs one forward, with no rng, on an empty batch, which does no arithmetic:
    each parameter is drawn from ``default_rng(init_seed)`` in forward order,
    or adopted from ``params`` after a name and shape check. So every layer
    must be reached by that forward.
    """

    kind = "model"
    mode: str | None = None
    length_divisor = 1

    def __init__(self, config, dtype: str = "float64", init_seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype("float32"), np.dtype("float64")):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.init_seed = int(init_seed)
        self.params: dict[str, Parameter] = {}
        self.train_step = 0
        self.adam_state: AdamState | None = None
        self._source = np.random.default_rng(self.init_seed) if params is None else params
        with dg.no_grad():
            self.forward(Tensor(np.zeros((0, 1, 1), self.dtype)))
        self._source = None
        if params is not None and len(params) != len(self.params):
            raise CheckpointCorruptError("parameter names do not match the model architecture")

    # --- parameter plumbing ---

    def _param(self, name: str, shape: tuple[int, ...], bound: float) -> Parameter:
        """Parameter ``name``; the construction forward makes it, drawn
        uniformly from [-bound, bound) or adopted from the given arrays."""
        if self._source is None:  # a KeyError here: a layer only a forward given an rng reaches
            return self.params[name]
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if isinstance(self._source, np.random.Generator):
            data = self._source.uniform(-bound, bound, shape).astype(self.dtype)
        else:
            data = self._source.get(name)
            if data is None or data.shape != shape:
                raise CheckpointCorruptError(f"parameter {name!r} is missing or not of shape {shape}")
            data = data.astype(self.dtype, copy=False)
            if not np.isfinite(data).all():
                raise CheckpointCorruptError(f"parameter {name!r} contains non-finite values")
        p = self.params[name] = Parameter(name, data)
        return p

    def _conv(self, x: Tensor, name: str, c_out: int, k: int, stride: int = 1) -> Tensor:
        fan_in = x.shape[1] * k
        w = self._param(f"{name}.w", (c_out, x.shape[1], k), math.sqrt(6.0 / fan_in))
        b = self._param(f"{name}.b", (c_out,), 1.0 / math.sqrt(fan_in))
        return dg.conv1d(x, w, b, stride=stride)

    def _dense(self, x: Tensor, name: str, f_out: int) -> Tensor:
        f_in = x.shape[1]
        w = self._param(f"{name}.w", (f_in, f_out), math.sqrt(6.0 / f_in))
        b = self._param(f"{name}.b", (f_out,), 1.0 / math.sqrt(f_in))
        return dg.dense(x, w, b)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _check_input(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (batch, channels, length), got shape {x.shape}")
        if x.shape[1] != 1:
            raise ValueError(f"expected a single input channel, got {x.shape[1]}")
        return x if x.dtype == self.dtype else dg.astype(x, self.dtype)

    # --- contracts overridden per kind ---

    @property
    def scale(self) -> int:
        return self.config.scale

    @property
    def upsample_ratio(self) -> int | None:
        """Output samples per input sample: None for a model with no mode, the scale for post, else 1."""
        return None if self.mode is None else self.scale if self.mode == "post" else 1

    def forward(self, x, rng: np.random.Generator | None = None):
        raise NotImplementedError


class EdsrModel(Model):
    kind = "edsr"
    mode = "post"

    @property
    def receptive_field(self) -> tuple[int, int]:
        """(halo, align): the input samples on each side that one output sample
        reads, and the grid a chunk starts on, 1 since every conv has stride 1."""
        cfg = self.config
        edge = (cfg.stem_kernel - 1) // 2
        return 2 * edge + cfg.n_blocks * (cfg.block_kernel - 1) + (cfg.upsample_stages + 1) * edge + 1, 1

    def forward(self, x, rng=None):
        x = self._check_input(x)
        cfg = self.config
        h = self._conv(x, "stem", cfg.filters, cfg.stem_kernel)
        skip = h
        for i in range(cfg.n_blocks):
            branch = self._conv(h, f"block{i:02d}.conv1", cfg.filters, cfg.block_kernel)
            branch = dg.relu(branch)
            branch = self._conv(branch, f"block{i:02d}.conv2", cfg.filters, cfg.block_kernel)
            h = dg.add(h, dg.mul(branch, cfg.residual_scaling))
        h = self._conv(h, "post", cfg.filters, cfg.stem_kernel)
        h = dg.add(h, skip)
        for q in range(cfg.upsample_stages):
            h = self._conv(h, f"up{q}", 2 * cfg.filters, cfg.stem_kernel)
            h = dg.subpixel_shuffle1d(h, 2)
        return self._conv(h, "head", 1, cfg.stem_kernel)


class UnetModel(Model):
    kind = "unet"
    mode = "pre"

    @property
    def receptive_field(self) -> tuple[int, int]:
        """(halo, align): the input samples on each side that one output sample reads,
        rounded up to ``align``, the grid of the depth + 1 stride-2 convs. A layer at
        level i reaches its kernel's half-width times 2**i, a stride-2 one 2**i more."""
        cfg = self.config
        half = [(k - 1) // 2 for k in cfg.down_kernels]
        halo = sum((h + 1) * 2**i + h * 2 ** (i + 2) for i, h in enumerate(half))
        halo += (half[-1] + 1) * 2**cfg.depth + (cfg.final_kernel - 1) // 2 * 2
        align = 2 ** (cfg.depth + 1)
        return -(-halo // align) * align, align

    def forward(self, x, rng: np.random.Generator | None = None, parts: int = 1):
        x = self._check_input(x)
        cfg = self.config
        if rng is not None:  # up{i}'s mask has the length after i + 2 stride-2 halvings
            rng = _Replay(rng, parts, x.shape[0], lambda r, n: [
                r.random((n, 2 * cfg.down_filters[i], -(-x.shape[2] // 2 ** (i + 2))))
                for i in reversed(range(cfg.depth))] if cfg.dropout_rate > 0 else [])
        h = x
        skips = []
        for i, (f, k) in enumerate(zip(cfg.down_filters, cfg.down_kernels)):
            h = self._conv(h, f"down{i}", f, k, stride=2)
            h = dg.leaky_relu(h, 0.2)
            skips.append(h)
        h = self._conv(h, "bottleneck", cfg.bottleneck_filters, cfg.down_kernels[-1], stride=2)
        h = dg.leaky_relu(h, 0.2)
        for i in reversed(range(cfg.depth)):
            h = self._conv(h, f"up{i}", 2 * cfg.down_filters[i], cfg.down_kernels[i])
            h = dg.dropout(h, cfg.dropout_rate, rng=rng)
            h = dg.relu(h)
            h = dg.subpixel_shuffle1d(h, 2)
            skip = skips[i]
            if h.shape[2] > skip.shape[2]:  # stride-2 rounding on odd interior lengths
                h = dg.slice_time(h, 0, skip.shape[2])
            h = dg.concat_channels(h, skip)
        h = self._conv(h, "head", 2, cfg.final_kernel)
        h = dg.subpixel_shuffle1d(h, 2)
        if h.shape[2] > x.shape[2]:  # an odd input length rounded up by down0
            h = dg.slice_time(h, 0, x.shape[2])
        return dg.add(h, x)


def phase_shuffle(x, n: int, rng: np.random.Generator):
    """Shift each batch item's time axis by a uniform draw from [-n, n].

    Vacated samples are filled by reflection. Differentiable (pure gather).
    """
    x = Tensor(x) if not isinstance(x, Tensor) else x
    if x.ndim != 3:
        raise ValueError(f"phase_shuffle expects rank 3, got shape {x.shape}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"shift bound must be an integer >= 0, got {n}")
    b, _, length = x.shape
    if n >= length:
        raise ValueError(f"shift bound {n} must be smaller than the time axis ({length})")
    if n == 0:
        return x
    shifts = rng.integers(-n, n + 1, size=b)
    base = np.arange(length)[None, :] - shifts[:, None]
    idx = np.abs(base)  # reflect at the left edge, no duplicated boundary sample
    idx = np.where(idx > length - 1, 2 * (length - 1) - idx, idx)
    return dg.take_time(x, idx)


class _Replay:
    """The rng of a forward over ``parts`` equal slices of its batch.
    It makes every draw up front, in the order of separate forwards on the
    slices: part by part, and in each part the layers in forward order, as
    ``draw(rng, rows)`` lists them. Each layer's ``random`` or ``integers``
    call then gets its parts' draws joined along the batch."""

    def __init__(self, rng, parts: int, batch: int, draw):
        if not isinstance(parts, int) or parts < 1 or batch % parts:
            raise ValueError(f"parts must be a positive divisor of the batch ({batch}), got {parts}")
        layers = zip(*[draw(rng, batch // parts) for _ in range(parts)])
        self._queue = [np.concatenate(arrays) for arrays in layers][::-1]

    random = integers = lambda self, *args, **kwargs: self._queue.pop()


class CriticModel(Model):
    kind = "critic"

    def forward(self, x, rng: np.random.Generator | None = None, parts: int = 1):
        x = self._check_input(x)
        cfg = self.config
        shuffle = rng is not None and cfg.phase_shuffle_n > 0
        n = cfg.phase_shuffle_n
        if rng is not None:
            rng = _Replay(rng, parts, x.shape[0], lambda r, rows: [
                r.integers(-n, n + 1, size=rows) for _ in range(cfg.layers - 1)] if shuffle else [])
        h = x
        for i in range(cfg.layers):
            h = self._conv(h, f"layer{i}", cfg.base_filters * 2**i, cfg.kernel, stride=2)
            h = dg.leaky_relu(h, cfg.leaky_slope)
            if shuffle and i < cfg.layers - 1:
                h = phase_shuffle(h, n, rng)
        score = self._dense(dg.mean_time(h), "score", 1)
        return dg.reshape(score, (x.shape[0],))


def build_edsr(cfg: EdsrConfig, dtype: str = "float64", seed: int = 0) -> EdsrModel:
    return EdsrModel(cfg, dtype=dtype, init_seed=seed)


def build_unet(cfg: UnetConfig, dtype: str = "float64", seed: int = 0) -> UnetModel:
    return UnetModel(cfg, dtype=dtype, init_seed=seed)


def build_critic(cfg: CriticConfig, dtype: str = "float64", seed: int = 0) -> CriticModel:
    return CriticModel(cfg, dtype=dtype, init_seed=seed)


# kind -> (config class, model class)
KINDS = {"edsr": (EdsrConfig, EdsrModel), "unet": (UnetConfig, UnetModel), "critic": (CriticConfig, CriticModel)}


def count_parameters(m: Model) -> int:
    return sum(p.size for p in m.parameters())


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

class ConfigConflictError(ValueError):
    """A requested setting contradicts the model it is applied to."""


class ScaleMismatchError(ConfigConflictError):
    """An upsampling model was asked for a scale it was not built for."""


def upsampling_mode(m: Model, scale: int, mode: str | None = None) -> str:
    """The input ``m`` takes when upsampling by ``scale``: "pre" or "post".

    A given ``mode`` must agree with the model's own, and ``scale`` with the
    scale the model was built for.
    """
    own = getattr(m, "mode", None)
    kind = getattr(m, "kind", type(m).__name__)
    if own is None:
        raise ValueError(f"a {kind!r} model does not upsample audio")
    if mode not in (None, own):
        raise ConfigConflictError(f"a {kind!r} model runs in {own!r} mode, got mode {mode!r}")
    if m.scale != scale:
        raise ScaleMismatchError(f"model upsamples by {m.scale}, but scale {scale} was requested")
    return own


def model_input(m: Model, low: np.ndarray, scale: int) -> np.ndarray:
    """The samples ``m`` reads to upsample ``low`` (samples along its last
    axis) by ``scale``: ``low`` itself for a post model, and for a pre model
    its whole spline, ``scale`` times as long."""
    return low if upsampling_mode(m, scale) == "post" else dsp.spline(low, scale)


CHUNK = 8192  # model input samples per chunk core, raised to 16 halos for a wide model


def reconstruct(m: Model | None, low: Signal, scale: int) -> Signal:
    """Upsample ``low`` by ``scale`` with the spline (``m=None``) or a model.

    A model runs over near-equal cores of at most max(CHUNK, 16 * halo) input samples,
    each widened by ``m.receptive_field``'s halo and on its stride-2 grid (conv1d's is
    anchored at the last sample), so memory is set by one chunk, not by the input's
    length. Output equals one whole-input forward up to rounding, and is it for one chunk."""
    dg.keep_freed_heap()
    if m is None:
        return dsp.spline_upsample(low, scale)
    feed, ratio = model_input(m, low.samples, scale), m.upsample_ratio
    (halo, align), n = m.receptive_field, len(feed)
    parts = -(-n // max(CHUNK, 16 * halo))
    starts = [i * n // parts // align * align for i in range(parts)] + [n]
    out = np.empty(n * ratio)
    for a, b in zip(starts, starts[1:]):
        lo, hi = max(a - halo, 0), n - max(n - b - halo, 0) // align * align
        with dg.no_grad():
            y = m.forward(Tensor(feed[None, None, lo:hi])).data[0, 0]
        out[a * ratio : b * ratio] = y[(a - lo) * ratio : (b - lo) * ratio]
    return Signal(out, low.sample_rate * scale)


# ---------------------------------------------------------------------------
# config dataclasses to and from "key = value" strings, driven by field types
# ---------------------------------------------------------------------------

def encode_config(cfg) -> dict[str, str]:
    """Field name -> string for every field ``decode_config`` can parse;
    tuples are comma-joined and ``None`` is written as ``none``."""
    out = {}
    for f in fields(cfg):
        if f.type not in _PARSERS:
            continue
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        out[f.name] = "none" if val is None else str(val)
    return out


def decode_config(cls, values: dict[str, str], **defaults):
    """Build a ``cls`` from strings, each parsed by its field's type.

    ``defaults`` are typed values that ``values`` may override. Unknown keys,
    unparsable values and invalid configs all raise ``ValueError``.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs = dict(defaults)
    for key, raw in values.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r}")
        parse = _PARSERS.get(types[key])
        if parse is None:
            raise ValueError(f"{key!r} cannot be set from a string")
        try:
            kwargs[key] = parse(raw.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from exc
    return cls(**kwargs)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "str | None": lambda raw: None if raw in ("", "none") else raw,
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()),
    "tuple[str, ...]": lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()),
}


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout (all integers little-endian):
#   magic            8 bytes  b"AUSRCKP1"
#   format_version   u32
#   header_len       u32, then UTF-8 "key = value" lines (kind, dtype, seed,
#                    step, adam flag, flattened config)
#   n_params         u32
#   per parameter:   name_len u16 + name, dtype code u8 (0=f64, 1=f32),
#                    ndim u8, dims u32 each, raw little-endian payload
#   if adam:         t u64, alpha/beta1/beta2/eps f64, then per parameter
#                    (same order) the m and v payloads
#   trailer          4 bytes  b"AEND"
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"AUSRCKP1"
CHECKPOINT_TRAILER = b"AEND"
FORMAT_VERSION = 1

_DTYPE_CODES = {"float64": 0, "float32": 1}
_CODE_DTYPES = {0: np.dtype("float64"), 1: np.dtype("float32")}


class CheckpointError(Exception):
    """Base class for checkpoint problems."""


class CheckpointCorruptError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointKindError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    """What a checkpoint file holds, as ``Checkpoint.load`` reads it."""

    kind: str
    config: EdsrConfig | UnetConfig | CriticConfig
    params: dict[str, np.ndarray]
    dtype: str = "float64"
    seed: int = 0
    step: int = 0
    adam: AdamState | None = None

    def build_model(self) -> Model:
        """The model these arrays describe; draws no random weights. It adopts
        the arrays of its dtype and takes over the Adam state: one model per load."""
        m = KINDS[self.kind][1](self.config, self.dtype, self.seed, params=self.params)
        m.train_step = self.step
        m.adam_state = self.adam
        return m

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            buf = _Reader(fh)
            if buf.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise CheckpointCorruptError("not a checkpoint file (bad magic)")
            (version,) = buf.unpack("<I")
            if version != FORMAT_VERSION:
                raise CheckpointVersionError(
                    f"checkpoint format version {version} unsupported (expected {FORMAT_VERSION})"
                )
            (hlen,) = buf.unpack("<I")
            header = _utf8(buf.read(hlen))
            meta = {}
            for line in header.splitlines():
                if not line.strip():
                    continue
                key, sep, val = line.partition(" = ")
                if not sep or key.strip() in meta:
                    raise CheckpointCorruptError(f"malformed or repeated header line {line!r}")
                meta[key.strip()] = val
            kind, dtype = meta.get("kind"), meta.get("dtype")
            if kind not in KINDS:
                raise CheckpointCorruptError(f"unknown model kind {kind!r}")
            if dtype not in _DTYPE_CODES:
                raise CheckpointCorruptError(f"unsupported dtype {dtype!r}")
            config_cls = KINDS[kind][0]
            try:
                seed = int(meta["seed"])
                step = int(meta["step"])
                has_adam = meta["adam"] == "1"
                config = decode_config(
                    config_cls, {f.name: meta[f"cfg.{f.name}"] for f in fields(config_cls)}
                )
            except KeyError as exc:
                raise CheckpointCorruptError(f"header missing field {exc}") from exc
            except ValueError as exc:
                raise CheckpointCorruptError(f"bad header value: {exc}") from exc
            (n_params,) = buf.unpack("<I")
            params: dict[str, np.ndarray] = {}
            for _ in range(n_params):
                (nlen,) = buf.unpack("<H")
                name = _utf8(buf.read(nlen))
                params[name] = buf.array()
            adam = None
            if has_adam:
                t, alpha, beta1, beta2, eps = buf.unpack("<Qdddd")
                try:
                    adam = AdamState(alpha=alpha, beta1=beta1, beta2=beta2, eps=eps, t=t)
                except ValueError as exc:
                    raise CheckpointCorruptError(f"bad optimizer state: {exc}") from exc
                for name, arr in params.items():
                    adam.m[name] = buf.array()
                    adam.v[name] = buf.array()
                    if adam.m[name].shape != arr.shape or adam.v[name].shape != arr.shape:
                        raise CheckpointCorruptError(f"optimizer moments of {name!r} do not have its shape")
            if buf.read(len(CHECKPOINT_TRAILER)) != CHECKPOINT_TRAILER:
                raise CheckpointCorruptError("missing trailer; file is corrupt")
        return cls(kind, config, params, dtype, seed, step, adam)


class _Reader:
    """An open checkpoint file, read front to back. Each length is checked
    against the bytes left in the file before it is read or sizes a buffer."""

    def __init__(self, fh):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size

    def _take(self, n: int) -> None:
        if n > self._left:
            raise CheckpointCorruptError("unexpected end of file; checkpoint is truncated")
        self._left -= n

    def read(self, n: int) -> bytes:
        self._take(n)
        data = self._fh.read(n)
        if len(data) != n:
            raise CheckpointCorruptError("checkpoint file shrank while it was read")
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def array(self) -> np.ndarray:
        """The next array, read into its own buffer."""
        code, ndim = self.unpack("<BB")
        if code not in _CODE_DTYPES:
            raise CheckpointCorruptError(f"unknown dtype code {code}")
        if ndim > 64:  # numpy's limit
            raise CheckpointCorruptError(f"array rank {ndim} exceeds 64")
        dims = self.unpack(f"<{ndim}I")
        dtype = _CODE_DTYPES[code]
        self._take(math.prod(dims) * dtype.itemsize)  # exact: np.prod would wrap around past 2**63
        try:
            arr = np.empty(dims, dtype.newbyteorder("<"))
        except ValueError as exc:  # a zero dim beside others past numpy's size limit
            raise CheckpointCorruptError(f"impossible array shape {dims}") from exc
        if self._fh.readinto(arr) != arr.nbytes:
            raise CheckpointCorruptError("checkpoint file shrank while it was read")
        return arr.astype(dtype, copy=False)


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"text field is not valid UTF-8: {exc}") from exc


def _array_record(arr: np.ndarray) -> list:
    """An array's dtype code, rank and dims, then its payload as a little-endian
    contiguous view, which copies nothing unless ``arr`` is neither."""
    head = struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODES[str(arr.dtype)], arr.ndim, *arr.shape)
    return [head, np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))]


def load_params(m: Model, params: dict[str, np.ndarray]) -> None:
    """Adopt ``params`` into ``m`` after the constructor's name and shape
    check; an array of another dtype is cast to the model's."""
    checked = type(m)(m.config, m.dtype, m.init_seed, params=params).params
    for name, p in m.params.items():
        p.data = checked[name].data


def save_checkpoint(m: Model, path, seed: int | None = None) -> None:
    """Write ``m``, its step and its Adam state to ``path``, recording ``seed``
    (the model's own by default). Each array is written from its own buffer."""
    a = m.adam_state
    lines = [f"kind = {m.kind}", f"dtype = {m.dtype}", f"seed = {m.init_seed if seed is None else seed}",
             f"step = {m.train_step}", f"adam = {0 if a is None else 1}"]
    lines += [f"cfg.{key} = {val}" for key, val in encode_config(m.config).items()]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", FORMAT_VERSION, len(header)), header,
              struct.pack("<I", len(m.params))]
    for name, p in m.params.items():
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<H", len(encoded)), encoded, *_array_record(p.data)]
    if a is not None:
        chunks.append(struct.pack("<Qdddd", a.t, a.alpha, a.beta1, a.beta2, a.eps))
        for name in m.params:
            chunks += _array_record(a.m[name]) + _array_record(a.v[name])
    chunks.append(CHECKPOINT_TRAILER)
    write_atomic(path, chunks)


def load_checkpoint(path) -> Model:
    return Checkpoint.load(path).build_model()
