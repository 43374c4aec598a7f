"""Minimal reverse-mode tensor engine.

Covers exactly the operator set the models need: 1D convolution, subpixel
shuffling, pointwise activations, concatenation, reductions, and the losses.
Backward functions are themselves built from these operators, so a second
backward pass (needed for the critic's gradient penalty) falls out of the same
tape. The tape is a graph of nodes kept apart from the values. An op's output
tensor points to its node, which holds its parents' nodes (a leaf is its own
node) and one VJP per differentiable parent, but never that output; constant
operands are not recorded. Each VJP captures only what it reads: a conv or a
product the other operand, relu its output array, leaky relu and dropout a
bool mask, the sums and shape ops only shapes. So an output that no VJP reads
is freed when its caller drops it, not when the step's graph dies, as with
PyTorch's saved tensors (Paszke et al., arXiv 1912.01703).

The gradient contract: one reverse pass serves both entry points and runs
only the VJPs on a path to a requested leaf; ``backward`` accumulates detached
gradients into the ``.grad`` of the listed parameters only, and
``input_gradient`` returns one leaf's gradient, recorded on the tape unless
recording is off.

A convolution, with its padding and bias, is one tape node: a k-tap sum of
matmuls over shifted views of its input or, when at most ``_NARROW`` (8)
channels feed each tap, one matmul over a window that stacks those views.
Both run per chunk of whole batch items, or per column tile of an item above
``_ITEM_BYTES``. It is one of three tape ops, the conv, its transposed conv
(input gradient) and a correlation (weight gradient), whose VJPs are built
from each other.

The time gather (the critic's phase shuffle) and its scatter-add gradient,
a flat ``take`` and a ``bincount`` that share one flat index, likewise
differentiate each other; ``bincount`` sums in ``np.add.at``'s order.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

_grad_enabled = True


class GraphError(ValueError):
    """Malformed differentiation request (non-scalar root, detached input, ...)."""


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def keep_freed_heap() -> None:
    """Make glibc keep freed heap for reuse instead of handing it back to the OS,
    so a forward or step does not fault in again what an earlier graph freed.
    Process-wide; does nothing where glibc's ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: 1 GiB
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, glibc's 64-bit maximum


class _Node:
    """The tape's record of one op: its differentiable parents' nodes, one VJP
    per parent and the op's name. It never refers to the op's output, so an
    output array lives only while a caller or a VJP that reads it holds it."""

    __slots__ = ("_parents", "_vjps", "_op")
    requires_grad = True  # only an output that needs a gradient gets a node

    def __init__(self, parents: tuple, vjps: tuple, op: str):
        self._parents, self._vjps, self._op = parents, vjps, op


class Tensor:
    """Real-valued array and, once an op records it, a view of its tape node.

    A leaf that requires a gradient is its own node, with no parents."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjps(self) -> tuple:
        return () if self._node is None else self._node._vjps

    @property
    def _op(self) -> str:
        return "leaf" if self._node is None else self._node._op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"


def _as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def _pair(x, y) -> tuple[Tensor, Tensor]:
    """Coerce operands; bare Python scalars adopt the tensor operand's dtype."""
    if isinstance(x, Tensor) and not isinstance(y, Tensor) and np.isscalar(y):
        y = Tensor(np.asarray(y, dtype=x.data.dtype))
    elif isinstance(y, Tensor) and not isinstance(x, Tensor) and np.isscalar(x):
        x = Tensor(np.asarray(x, dtype=y.data.dtype))
    return _as_tensor(x), _as_tensor(y)


def _from_op(data, op: str, *edges) -> Tensor:
    """Wrap an op's output; record one ``(parent, vjp)`` edge per operand that
    needs a gradient, where ``vjp`` maps the output gradient to that operand's.
    A ``vjp`` captures only what it reads, never the output tensor."""
    out = Tensor(data)
    if _grad_enabled:
        edges = [(p._node or p, vjp) for p, vjp in edges if p.requires_grad]
        if edges:
            out.requires_grad = True
            out._node = _Node(*zip(*edges), op)
    return out


# ---------------------------------------------------------------------------
# elementwise / shape primitives
# ---------------------------------------------------------------------------

def _unbroadcast(g: Tensor, shape) -> Tensor:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, d in enumerate(shape) if d == 1 and g.shape[i + extra] != 1
    )
    out = sum_axes(g, axes) if axes else g
    return reshape(out, shape)


def add(x, y) -> Tensor:
    x, y = _pair(x, y)
    xs, ys = x.shape, y.shape
    return _from_op(x.data + y.data, "add",
                    (x, lambda g: _unbroadcast(g, xs)), (y, lambda g: _unbroadcast(g, ys)))


def neg(x) -> Tensor:
    x = _as_tensor(x)
    return _from_op(-x.data, "neg", (x, neg))


def sub(x, y) -> Tensor:
    x, y = _pair(x, y)
    return add(x, neg(y))


def mul(x, y) -> Tensor:
    x, y = _pair(x, y)
    xs, ys = x.shape, y.shape
    return _from_op(x.data * y.data, "mul",
                    (x, lambda g: _unbroadcast(mul(g, y), xs)),
                    (y, lambda g: _unbroadcast(mul(g, x), ys)))


def pow_const(x, p: float) -> Tensor:
    """x ** p for a constant real exponent."""
    x = _as_tensor(x)
    return _from_op(x.data**p, "pow_const", (x, lambda g: mul(g, mul(p, pow_const(x, p - 1.0)))))


def sqrt(x) -> Tensor:
    return pow_const(x, 0.5)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    return _from_op(x.data.reshape(shape), "reshape", (x, lambda g: reshape(g, old)))


def astype(x, dtype) -> Tensor:
    """x cast to ``dtype``; the gradient is cast back to x's dtype."""
    x = _as_tensor(x)
    old = x.dtype
    return _from_op(x.data.astype(dtype), "astype", (x, lambda g: astype(g, old)))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    inv = tuple(np.argsort(axes))
    return _from_op(np.ascontiguousarray(x.data.transpose(axes)), "transpose",
                    (x, lambda g: transpose(g, inv)))


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    return _from_op(np.broadcast_to(x.data, shape).copy(), "broadcast_to",
                    (x, lambda g: _unbroadcast(g, old)))


def sum_axes(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes) if not isinstance(axes, int) else (axes,)
    old = x.shape
    kept = tuple(1 if i in axes else d for i, d in enumerate(old))
    return _from_op(x.data.sum(axis=axes), "sum_axes",
                    (x, lambda g: broadcast_to(reshape(g, kept), old)))


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    return _from_op(x.data.sum(), "sum_all", (x, lambda g: broadcast_to(g, old)))


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    return mul(sum_all(x), 1.0 / x.size)


def absolute(x) -> Tensor:
    x = _as_tensor(x)
    sign = np.sign(x.data)
    return _from_op(np.abs(x.data), "abs", (x, lambda g: mul(g, Tensor(sign))))


def _masked(x: Tensor, mask: np.ndarray, factor, op: str) -> Tensor:
    """x * factor(mask) for a bool ``mask`` and a ``factor`` that builds the
    constant array from it; the VJP keeps the mask and builds it again."""
    return _from_op(x.data * factor(mask), op, (x, lambda g: mul(g, Tensor(factor(mask)))))


def relu(x) -> Tensor:
    """max(x, 0) as x times its mask; the VJP rebuilds the mask from the
    output array, which is positive exactly where x is."""
    x = _as_tensor(x)
    y = x.data * (x.data > 0).astype(x.dtype)
    return _from_op(y, "relu", (x, lambda g: mul(g, Tensor((y > 0).astype(y.dtype)))))


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    """x times slope or 1 by its mask x > 0. The factor is a gather from the
    two values, which np.where's buffered loop takes 2-3x as long to build
    above about 8,000 elements (58.7 against 21.7 us at 10,240 on one core)."""
    x = _as_tensor(x)
    factors = np.array([slope, 1.0], dtype=x.dtype)
    return _masked(x, x.data > 0, lambda m: factors.take(m.view(np.uint8)), "leaky_relu")


def dropout(x, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout with masks drawn from ``rng``; identity without an rng and at rate 0."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    dtype = x.dtype
    return _masked(x, rng.random(x.shape) >= rate, lambda m: m.astype(dtype) / (1.0 - rate), "dropout")


# ---------------------------------------------------------------------------
# structural primitives: pad / slice / concat / gather
#
# take_time turns its (b, T) index map into one (b, c, T) flat index into the
# input, which the gather (_take) and its scatter-add VJP (_put_time) share
# for gradients of any order. np.bincount sums each output's contributions
# in index order starting from 0.0, as np.add.at does, but in float64: so
# float64 sums are bit-identical to add.at, signed zeros included, and a
# float32 sum is rounded once at the end. For up to two contributions per
# output (phase shuffle's reflected maps) that is add.at's float32 result
# too. At a (4, 8, 70) phase shuffle on one core, the take with its index
# build takes 13 us against 29 us for take_along_axis, and bincount 7 us
# against 56 us for add.at.
# ---------------------------------------------------------------------------

def _zero_pad(a: np.ndarray, axis: int, before: int, after: int) -> np.ndarray:
    """``a`` with zeros added on both ends of ``axis``.

    One allocation and one copy; np.pad's per-call Python overhead dominates
    on the critic's small tensors.
    """
    shape = list(a.shape)
    shape[axis] += before + after
    out = np.zeros(shape, dtype=a.dtype)
    inner = [slice(None)] * a.ndim
    inner[axis] = slice(before, before + a.shape[axis])
    out[tuple(inner)] = a
    return out


def pad_axis(x, axis: int, before: int, after: int) -> Tensor:
    x = _as_tensor(x)
    length = x.shape[axis]
    return _from_op(_zero_pad(x.data, axis, before, after), "pad",
                    (x, lambda g: slice_axis(g, axis, before, length)))


def slice_axis(x, axis: int, start: int, length: int) -> Tensor:
    x = _as_tensor(x)
    total = x.shape[axis]
    if start < 0 or start + length > total:
        raise ValueError(f"slice [{start}:{start + length}] out of range for axis size {total}")
    sl = tuple(slice(start, start + length) if i == axis else slice(None) for i in range(x.ndim))
    return _from_op(x.data[sl].copy(), "slice",
                    (x, lambda g: pad_axis(g, axis, start, total - start - length)))


def slice_time(x, start: int, length: int) -> Tensor:
    return slice_axis(x, 2, start, length)


def slice_channels(x, start: int, count: int) -> Tensor:
    return slice_axis(x, 1, start, count)


def concat_channels(x, y) -> Tensor:
    """Channel concatenation, x's channels first."""
    x, y = _as_tensor(x), _as_tensor(y)
    if x.ndim != 3 or y.ndim != 3:
        raise ValueError("concat_channels expects rank-3 tensors")
    if x.shape[0] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape} (batch/length must agree)")
    cx, cy = x.shape[1], y.shape[1]
    return _from_op(np.concatenate([x.data, y.data], axis=1), "concat",
                    (x, lambda g: slice_channels(g, 0, cx)), (y, lambda g: slice_channels(g, cx, cy)))


def take_time(x, idx: np.ndarray) -> Tensor:
    """Gather along the time axis with a per-batch index map (b, T)."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if x.ndim != 3 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"index map {idx.shape} incompatible with tensor {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[2]):
        raise ValueError("time indices out of range")
    b, c, length = x.shape
    flat = idx[:, None, :] + (np.arange(b * c) * length).reshape(b, c, 1)
    return _take(x, flat, length)


def _take(x: Tensor, flat: np.ndarray, length: int) -> Tensor:
    """x.data.flat[flat] for the (b, c, T) flat index map built by take_time."""
    return _from_op(x.data.reshape(-1).take(flat), "take_time",
                    (x, lambda g: _put_time(g, flat, length)))


def _put_time(g, flat: np.ndarray, length: int) -> Tensor:
    """Scatter-add of g into (b, c, length) at the flat index map ``flat``."""
    g = _as_tensor(g)
    b, c, _ = g.shape
    out = np.bincount(flat.reshape(-1), weights=g.data.reshape(-1), minlength=b * c * length)
    return _from_op(out.reshape(b, c, length).astype(g.dtype, copy=False), "put_time",
                    (g, lambda gg: _take(gg, flat, length)))


# ---------------------------------------------------------------------------
# convolution as k-tap matmul accumulation or one stacked GEMM
#
# A conv is a sum over its k taps of matmuls on shifted views of its input,
# zero-padded by ``left`` samples inside the op, plus its bias added in place;
# the tape keeps no padded copy, pre-bias output or window. When the per-tap
# inner dimension K (c_in of a conv or correlation, c_out of a transposed
# conv) is at most _NARROW, the k taps are stacked into one (n, k*K, W)
# window per batch chunk, a transient, and one GEMM multiplies it: k rank-K
# matmuls leave BLAS far below its rate (0.3 GFLOP/s for a one-channel 65-tap
# conv). The limit is the measured crossover on one core: at K = 8 the window
# wins for the conv and the transposed conv at batch x samples 32 x 256,
# 4 x 128 and 1 x 8000, and the correlation loses 14-28% at 32 x 256 only;
# at K = 12 it loses 60-70% there.
# Both run over chunks of whole batch items; an item above _ITEM_BYTES (a long
# inference input) runs in equal column tiles instead, so its products stay in
# cache (Goto and van de Geijn, ACM TOMS 2008). Measured on one core, tiles pay
# at toy widths (per-tap weight matrices of 2-32 KiB) and cost for per-tap
# matrices of 256 KiB and more: up to 1.45x at 256 KiB, and 2.4-2.6x for the
# default UNet's 4 MiB up1.
# The conv and its two gradients are three bilinear tape ops, all taking
# ``left``, whose VJPs are built from each other, so gradients of any order
# (the critic's double backward) stay on the tape. The VJPs, parent by parent:
#   _conv(x, w, b) -> y      x: _conv_t(g, w)  w: _corr(x, g)  b: sum_axes(g)
#   _conv_t(g, w)  -> x-grad g: _conv(h, w)    w: _corr(h, g)
#   _corr(x, g)    -> w-grad x: _conv_t(g, h)  g: _conv(x, h)
# ---------------------------------------------------------------------------

# bytes of one chunk, small enough for the per-tap product buffer or a narrow
# conv's stacked window to stay in cache, and of the largest item kept whole
_CHUNK_BYTES, _ITEM_BYTES = 1 << 18, 1 << 19

# largest per-tap inner dimension that stacks its taps into one GEMM
_NARROW = 8


def _padded(x: np.ndarray, stride: int, k: int, width: int, left: int) -> np.ndarray:
    """x with ``left`` zeros before it and enough after for ``width`` outputs."""
    right = max(stride * (width - 1) + k - left - x.shape[2], 0)
    return _zero_pad(x, 2, left, right) if left or right else x


def _taps(x: np.ndarray, stride: int, k: int, width: int) -> list[np.ndarray]:
    """Views x[:, :, j : j + stride*(width-1)+1 : stride] for each tap j < k.

    At stride > 1 each view is cut from a contiguous copy of its polyphase
    component, so matmul sees unit-stride rows instead of copying per tap.
    """
    if stride == 1:
        return [x[:, :, j : j + width] for j in range(k)]
    phases = [np.ascontiguousarray(x[:, :, r::stride]) for r in range(min(stride, k))]
    return [phases[j % stride][:, :, j // stride : j // stride + width] for j in range(k)]


def _tap_major(w: np.ndarray, axes) -> np.ndarray:
    """Contiguous copy of w with the tap axis first, one BLAS-ready matrix per tap."""
    return np.ascontiguousarray(w.transpose(axes))


def _chunks(b: int, col_bytes: int, width: int) -> tuple[int, list[tuple[slice, slice]]]:
    """The most item columns in one chunk, and (items, columns) slices that cover
    b items of ``width`` columns of ``col_bytes`` each: as many whole items as
    fit in ``_CHUNK_BYTES``, or one, or equal tiles of an item above ``_ITEM_BYTES``."""
    item = col_bytes * width
    tiles = -(-item // _CHUNK_BYTES) if item > _ITEM_BYTES else 1
    n, tile = max(1, _CHUNK_BYTES // max(1, item)), max(1, -(-width // tiles))
    return min(n, b) * min(tile, width), [(slice(s, s + n), slice(t, t + tile))
                                          for s in range(0, b, n) for t in range(0, width, tile)]


def _windows(x: np.ndarray, stride: int, k: int, width: int, dtype):
    """Yield ``(items, cols, window)`` per chunk of x (see ``_chunks``): the
    (n, k*c, len(cols)) window holds x[items, i, j + stride*(cols.start + t)]
    at [:, j*c + i, t], one strided copy into a reused buffer.

    The copies read one (b, k, c, width) view of x's buffer, built by the
    ndarray constructor, which takes a quarter of as_strided's time per call
    (1.2 against 4.8 us); a criterion-8 WGAN-GP outer step builds about 140 windows.
    """
    b, c, length = x.shape
    if length < stride * (width - 1) + k:  # the view must end inside x's buffer
        raise ValueError(f"{width} outputs of {k} taps at stride {stride} need more than {length} samples")
    x = np.ascontiguousarray(x)
    sb, sc, st = x.strides
    taps = np.ndarray((b, k, c, width), x.dtype, buffer=x, strides=(sb, st, sc, stride * st))
    cells, chunks = _chunks(b, k * c * dtype.itemsize, width)
    buf = np.empty(cells * k * c, dtype)
    for items, cols in chunks:
        view = taps[items, :, :, cols]
        win = buf[: view.size].reshape(view.shape)
        win[...] = view
        yield items, cols, win.reshape(len(win), k * c, -1)


def _tap_sum(mats, x: np.ndarray, stride: int, width: int) -> np.ndarray:
    """sum_j mats[j] @ x[:, :, j : j + stride*(width-1)+1 : stride] over the
    k (rows, K) mats, for a (b, K, L) x long enough for ``width`` outputs.

    A narrow sum (K <= _NARROW) is one GEMM per chunk of the stacked mats
    against the stacked window. A wide one accumulates the per-tap products in
    place, per chunk, so each lands in a small, cache-resident temporary; a
    column tile accumulates in a contiguous array that is copied into ``out``.
    """
    k, rows, inner = mats.shape
    b = len(x)
    dtype = np.result_type(mats, x)
    out = np.empty((b, rows, width), dtype)
    if inner <= _NARROW:
        flat = mats.transpose(1, 0, 2).reshape(rows, k * inner)
        for items, cols, win in _windows(x, stride, k, width, dtype):
            o = out[items, :, cols]
            acc = o if o.flags.c_contiguous else np.empty(o.shape, dtype)
            np.matmul(flat, win, out=acc)
            if acc is not o:
                o[...] = acc
        return out
    views = _taps(x, stride, k, width)
    cells, chunks = _chunks(b, rows * dtype.itemsize, width)
    tmp = np.empty(cells * rows, dtype)
    for items, cols in chunks:
        o = out[items, :, cols]
        acc = o if o.flags.c_contiguous else np.empty(o.shape, dtype)
        np.matmul(mats[0], views[0][items, :, cols], out=acc)
        t = tmp[: o.size].reshape(o.shape)
        for m, v in zip(mats[1:], views[1:]):
            acc += np.matmul(m, v[items, :, cols], out=t)
        if acc is not o:
            o[...] = acc
    return out


def _conv(x, w, b, stride: int, width: int, left: int) -> Tensor:
    """y[:, o, t] = b[o] + sum_{c,j} w[o, c, j] xp[:, c, j + stride*t] for t < width,
    where xp is x zero-padded by ``left``; ``b`` is a tensor or None."""
    x, w = _as_tensor(x), _as_tensor(w)
    k, length = w.shape[2], x.shape[2]
    xp = _padded(x.data, stride, k, width, left)
    out = _tap_sum(_tap_major(w.data, (2, 0, 1)), xp, stride, width)
    edges = [(x, lambda g: _conv_t(g, w, stride, length, left)),
             (w, lambda g: _corr(x, g, stride, k, left))]
    if b is not None:
        out += b.data[:, None]
        edges.append((b, lambda g: sum_axes(g, (0, 2))))
    return _from_op(out, "conv", *edges)


def _shift_sum(g: np.ndarray, wt: np.ndarray, length: int) -> np.ndarray:
    """out[:, :, i] = sum_q wt[q] @ g[:, :, i - q] over i < length (g zero outside).

    Reads shifted views of a zero-padded g, so every tap adds into the whole
    contiguous output instead of scattering into a shifted slice of it.
    """
    n, width = len(wt), g.shape[2]
    gp = _zero_pad(g, 2, n - 1, length - width)
    return _tap_sum(wt[::-1], gp, 1, length)


def _conv_t(g, w, stride: int, length: int, left: int) -> Tensor:
    """Transposed conv: x-grad[:, c, j + stride*t - left] += sum_o w[o, c, j] g[:, o, t].

    Padded phase r only receives taps j = r, r + stride, ..., so each phase is
    a stride-1 transposed conv with those taps. It runs over the whole padded
    phase before the padding is cropped, because BLAS results depend on the
    column count: this one keeps them equal to a conv on a padded tensor.
    """
    g, w = _as_tensor(g), _as_tensor(w)
    b, _, width = g.shape
    c_in, k = w.shape[1], w.shape[2]
    padded = max(left + length, stride * (width - 1) + k)
    wt = _tap_major(w.data, (2, 1, 0))
    out = np.zeros((b, c_in, length), dtype=np.result_type(g.data, w.data))
    for r in range(min(stride, k)):
        first = (r - left) % stride  # the first input sample in padded phase r
        phase = _shift_sum(g.data, wt[r::stride], len(range(r, padded, stride)))
        start = (first + left) // stride
        out[:, :, first::stride] = phase[:, :, start : start + len(range(first, length, stride))]
    return _from_op(out, "conv_t", (g, lambda h: _conv(h, w, None, stride, width, left)),
                    (w, lambda h: _corr(h, g, stride, k, left)))


def _corr(x, g, stride: int, k: int, left: int) -> Tensor:
    """Weight gradient: dw[o, c, j] = sum_{b,t} g[b, o, t] xp[b, c, j + stride*t]."""
    x, g = _as_tensor(x), _as_tensor(g)
    width, length = g.shape[2], x.shape[2]
    c_out, c_in = g.shape[1], x.shape[1]
    dtype = np.result_type(x.data, g.data)
    xp = _padded(x.data, stride, k, width, left)
    if c_in <= _NARROW:
        flat = np.zeros((c_out, k * c_in), dtype)
        for items, cols, win in _windows(xp, stride, k, width, dtype):
            flat += np.matmul(g.data[items, :, cols], win.transpose(0, 2, 1)).sum(axis=0)
        out = np.ascontiguousarray(flat.reshape(c_out, k, c_in).transpose(0, 2, 1))
    else:
        out = np.empty((c_out, c_in, k), dtype)
        for j, t in enumerate(_taps(xp, stride, k, width)):
            np.matmul(g.data, t.transpose(0, 2, 1)).sum(axis=0, out=out[:, :, j])
    return _from_op(out, "corr", (x, lambda h: _conv_t(g, h, stride, length, left)),
                    (g, lambda h: _conv(x, h, None, stride, width, left)))


def _matmul(a, b) -> Tensor:
    """2-D matrix product a @ b, row by row: no output row depends on the rows beside it."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(np.matmul(a.data[:, None, :], b.data)[:, 0], "matmul",
                    (a, lambda g: _matmul(g, transpose(b, (1, 0)))),
                    (b, lambda g: _matmul(transpose(a, (1, 0)), g)))


def conv1d(x, weight, bias=None, stride: int = 1) -> Tensor:
    """Cross-correlation of (b, c_in, L) with (c_out, c_in, k) filters, k odd.

    Zero-pads "same": symmetrically (extra sample on the right) so the output
    length is ceil(L/stride).
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 3:
        raise ValueError(f"conv1d input must be rank 3, got shape {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"conv1d weight must be rank 3, got shape {weight.shape}")
    c_out, c_in, k = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"channel mismatch: input has {x.shape[1]} channels, weight expects {c_in}")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride}")
    if k % 2 == 0:
        raise ValueError(f"same-padding requires an odd kernel, got {k}")
    length = x.shape[2]
    out_len = -(-length // stride)
    left = max((out_len - 1) * stride + k - length, 0) // 2
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")
    return _conv(x, weight, bias, stride, out_len, left)


def dense(x, weight, bias=None) -> Tensor:
    """(b, f) @ (f, o) + bias."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ValueError(f"dense shapes incompatible: {x.shape} @ {weight.shape}")
    y = _matmul(x, weight)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.shape[1],):
            raise ValueError(f"bias must have shape ({weight.shape[1]},), got {bias.shape}")
        y = add(y, reshape(bias, (1, weight.shape[1])))
    return y


def mean_time(x) -> Tensor:
    """Global average pool over the time axis: (b, c, L) -> (b, c)."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"mean_time expects rank 3, got shape {x.shape}")
    return mul(sum_axes(x, (2,)), 1.0 / x.shape[2])


def subpixel_shuffle1d(x, r: int) -> Tensor:
    """Interleave r*c channels of length L into c channels of length r*L.

    out[b, ch, t*r + s] = in[b, ch*r + s, t].
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"subpixel shuffle expects rank 3, got shape {x.shape}")
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"shuffle factor must be an integer >= 2, got {r}")
    b, cr, length = x.shape
    if cr % r != 0:
        raise ValueError(f"channels ({cr}) not divisible by shuffle factor {r}")
    c = cr // r
    h = reshape(x, (b, c, r, length))
    h = transpose(h, (0, 1, 3, 2))
    return reshape(h, (b, c, length * r))


def subpixel_unshuffle1d(x, r: int) -> Tensor:
    """Exact inverse of subpixel_shuffle1d."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"subpixel unshuffle expects rank 3, got shape {x.shape}")
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"shuffle factor must be an integer >= 2, got {r}")
    b, c, length = x.shape
    if length % r != 0:
        raise ValueError(f"length ({length}) not divisible by shuffle factor {r}")
    h = reshape(x, (b, c, length // r, r))
    h = transpose(h, (0, 1, 3, 2))
    return reshape(h, (b, c * r, length // r))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def l1(pred, target) -> Tensor:
    """Mean absolute error over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return mean_all(absolute(sub(pred, target)))


def l2(pred, target) -> Tensor:
    """Mean squared error over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    d = sub(pred, target)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# reverse-mode traversal
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order  # dependencies before dependents


def _leaf_grads(root: Tensor, leaves) -> list[Tensor | None]:
    """Gradients of scalar ``root`` w.r.t. ``leaves``, aligned with them;
    None for a leaf that ``root`` does not reach.

    The walk visits only live nodes, those with a path to a requested leaf,
    and runs only the VJPs toward live parents. Every child of a live node is
    live, so a live node sums the same contributions, in the same order, as a
    walk over the whole graph. The VJPs record on the tape exactly when
    recording is on. A repeated gradient is summed by a fresh ``add``, never
    in place: VJP outputs alias each other (``add`` hands one tensor to both
    parents, ``reshape`` a view).
    """
    for leaf in leaves:  # the graph reaches an op's output only through its node
        if leaf._parents:
            raise GraphError(f"gradients go to leaf tensors only, got the output of {leaf._op!r}")
    order = _toposort(root)
    live = {id(leaf) for leaf in leaves}
    for node in order:
        if any(id(p) in live for p in node._parents):
            live.add(id(node))
    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    for node in reversed(order):
        if not node._parents or id(node) not in live:
            continue
        g = grads.pop(id(node))
        for p, vjp in zip(node._parents, node._vjps):
            if id(p) in live:
                pg = vjp(g)
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else add(prev, pg)
    return [grads.get(id(leaf)) for leaf in leaves]


def backward(loss: Tensor, params) -> None:
    """Accumulate gradients of a scalar loss into ``.grad`` of each of ``params``.

    Runs without recording, so each ``.grad`` is a detached tensor. A
    parameter the loss does not reach gets an explicit zero gradient; no
    other leaf's ``.grad`` is touched.
    """
    loss = _as_tensor(loss)
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    params = list(params)
    with no_grad():
        for p, g in zip(params, _leaf_grads(loss, params)):
            if g is not None:
                p.grad = g if p.grad is None else add(p.grad, g)
            elif p.grad is None:
                p.grad = Tensor(np.zeros_like(p.data))


def input_gradient(output: Tensor, x: Tensor) -> Tensor:
    """Gradient of a scalar graph output w.r.t. the leaf ``x``.

    It is recorded on the tape when recording is on, so it can be
    differentiated again (the critic's gradient penalty); under ``no_grad``
    it is a detached tensor.
    """
    output = _as_tensor(output)
    if output.size != 1:
        raise GraphError(f"input_gradient needs a scalar output, got shape {output.shape}")
    if not isinstance(x, Tensor) or not x.requires_grad:
        raise GraphError("input tensor must have requires_grad=True")
    if not output.requires_grad:
        raise GraphError("output does not depend on any differentiable tensor")
    (g,) = _leaf_grads(output, [x])
    if g is None:
        raise GraphError("tensor does not participate in the output's graph")
    return g


# ---------------------------------------------------------------------------
# parameters and Adam
# ---------------------------------------------------------------------------

class Parameter(Tensor):
    """Named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


@dataclass
class AdamState:
    """Adam optimizer state shared across all parameters of one model."""

    alpha: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.alpha <= 0 or self.eps <= 0:
            raise ValueError("alpha and eps must be positive")
        if self.t < 0:
            raise ValueError("step counter must be >= 0")


def adam_step(params, state: AdamState) -> None:
    """One bias-corrected Adam update over ``params``; increments ``state.t`` once."""
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p in params:
        g = p.grad.data
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
        v = state.v.get(p.name)
        if v is None:
            v = state.v[p.name] = np.zeros_like(p.data)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data = p.data - state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.eps)

