"""Minimal reverse-mode tensor engine.

Covers exactly the operator set the models need: 1D convolution, subpixel
shuffling, pointwise activations, concatenation, reductions, and the losses.
Backward functions are themselves built from these operators, so a second
backward pass (needed for the critic's gradient penalty) falls out of the same
tape. The gradient contract: one reverse pass serves both entry points;
``backward`` accumulates detached gradients into the ``.grad`` of every leaf a
scalar loss reaches, and ``input_gradient`` returns one leaf's gradient,
recorded on the tape unless recording is off.

A convolution, with its padding and bias, is one tape node: a k-tap sum of
matmuls over shifted views of its input. It is one of three tape ops, the
conv, its transposed conv (input gradient) and a correlation (weight
gradient), whose VJPs are built from each other.
"""
from __future__ import annotations

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


class Tensor:
    """Real-valued array node in a dynamically recorded computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op = "leaf"

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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

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


def _from_op(data, parents, vjp, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._op = op
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
    def vjp(g):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)
    return _from_op(x.data + y.data, (x, y), vjp, "add")


def neg(x) -> Tensor:
    x = _as_tensor(x)
    def vjp(g):
        return (neg(g),)
    return _from_op(-x.data, (x,), vjp, "neg")


def sub(x, y) -> Tensor:
    return add(x, neg(y))


def mul(x, y) -> Tensor:
    x, y = _pair(x, y)
    def vjp(g):
        return _unbroadcast(mul(g, y), x.shape), _unbroadcast(mul(g, x), y.shape)
    return _from_op(x.data * y.data, (x, y), vjp, "mul")


def pow_const(x, p: float) -> Tensor:
    """x ** p for a constant real exponent."""
    x = _as_tensor(x)
    def vjp(g):
        return (mul(g, mul(p, pow_const(x, p - 1.0))),)
    return _from_op(x.data**p, (x,), vjp, "pow_const")


def sqrt(x) -> Tensor:
    return pow_const(x, 0.5)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    def vjp(g):
        return (reshape(g, old),)
    return _from_op(x.data.reshape(shape), (x,), vjp, "reshape")


def astype(x, dtype) -> Tensor:
    """x cast to ``dtype``; the gradient is cast back to x's dtype."""
    x = _as_tensor(x)
    old = x.dtype
    def vjp(g):
        return (astype(g, old),)
    return _from_op(x.data.astype(dtype), (x,), vjp, "astype")


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    inv = tuple(np.argsort(axes))
    def vjp(g):
        return (transpose(g, inv),)
    return _from_op(np.ascontiguousarray(x.data.transpose(axes)), (x,), vjp, "transpose")


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    def vjp(g):
        return (_unbroadcast(g, x.shape),)
    return _from_op(np.broadcast_to(x.data, shape).copy(), (x,), vjp, "broadcast_to")


def sum_axes(x, axes, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes) if not isinstance(axes, int) else (axes,)
    kept = tuple(1 if i in axes else d for i, d in enumerate(x.shape))
    def vjp(g):
        gg = g if keepdims else reshape(g, kept)
        return (broadcast_to(gg, x.shape),)
    return _from_op(x.data.sum(axis=axes, keepdims=keepdims), (x,), vjp, "sum_axes")


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    def vjp(g):
        return (broadcast_to(g, x.shape),)
    return _from_op(x.data.sum(), (x,), vjp, "sum_all")


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    return mul(sum_all(x), 1.0 / x.size)


def absolute(x) -> Tensor:
    x = _as_tensor(x)
    sign = np.sign(x.data)
    def vjp(g):
        return (mul(g, Tensor(sign)),)
    return _from_op(np.abs(x.data), (x,), vjp, "abs")


def _scale(x: Tensor, factor: np.ndarray, op: str) -> Tensor:
    """x * factor for a constant array ``factor`` (an activation or dropout mask)."""
    def vjp(g):
        return (mul(g, Tensor(factor)),)
    return _from_op(x.data * factor, (x,), vjp, op)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    return _scale(x, (x.data > 0).astype(x.data.dtype), "relu")


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = _as_tensor(x)
    factor = np.where(x.data > 0, x.data.dtype.type(1.0), x.data.dtype.type(slope))
    return _scale(x, factor, "leaky_relu")


def dropout(x, rate: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout; identity in eval mode and at rate 0."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    return _scale(x, (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate), "dropout")


# ---------------------------------------------------------------------------
# structural primitives: pad / slice / concat / gather
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
    def vjp(g):
        return (slice_axis(g, axis, before, length),)
    return _from_op(_zero_pad(x.data, axis, before, after), (x,), vjp, "pad")


def slice_axis(x, axis: int, start: int, length: int) -> Tensor:
    x = _as_tensor(x)
    total = x.shape[axis]
    if start < 0 or start + length > total:
        raise ValueError(f"slice [{start}:{start + length}] out of range for axis size {total}")
    sl = tuple(slice(start, start + length) if i == axis else slice(None) for i in range(x.ndim))
    def vjp(g):
        return (pad_axis(g, axis, start, total - start - length),)
    return _from_op(x.data[sl].copy(), (x,), vjp, "slice")


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
    def vjp(g):
        return slice_channels(g, 0, cx), slice_channels(g, cx, cy)
    return _from_op(np.concatenate([x.data, y.data], axis=1), (x, y), vjp, "concat")


def take_time(x, idx: np.ndarray) -> Tensor:
    """Gather along the time axis with a per-batch index map (b, T)."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if x.ndim != 3 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"index map {idx.shape} incompatible with tensor {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[2]):
        raise ValueError("time indices out of range")
    length = x.shape[2]
    def vjp(g):
        return (_put_time(g, idx, length),)
    return _from_op(np.take_along_axis(x.data, idx[:, None, :], axis=2), (x,), vjp, "take_time")


def _put_time(g, idx: np.ndarray, length: int) -> Tensor:
    g = _as_tensor(g)
    b, c, _ = g.shape
    out = np.zeros((b, c, length), dtype=g.data.dtype)
    np.add.at(
        out,
        (np.arange(b)[:, None, None], np.arange(c)[None, :, None], idx[:, None, :]),
        g.data,
    )
    def vjp(gg):
        return (take_time(gg, idx),)
    return _from_op(out, (g,), vjp, "put_time")


# ---------------------------------------------------------------------------
# convolution as k-tap matmul accumulation
#
# A conv is a sum over its k taps of matmuls on shifted views of its input,
# zero-padded by ``left`` samples inside the op, plus its bias added in place;
# the tape keeps no padded copy, pre-bias output or (b, c, W, k) window. The
# conv and its two gradients are three bilinear tape ops, all taking ``left``,
# whose VJPs are built from each other, so gradients of any order (the
# critic's double backward) stay on the tape:
#   _conv(x, w, b) -> y      VJP: (_conv_t(g, w), _corr(x, g), sum_axes(g))
#   _conv_t(g, w)  -> x-grad VJP: (_conv(h, w), _corr(h, g))
#   _corr(x, g)    -> w-grad VJP: (_conv_t(g, h), _conv(x, h))
# ---------------------------------------------------------------------------

# bytes of one batch chunk in _tap_sum: small enough for the per-tap product
# buffer to stay in cache
_CHUNK_BYTES = 1 << 18


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


def _tap_sum(mats, views) -> np.ndarray:
    """sum_j mats[j] @ views[j] for (b, rows, cols) views, accumulated in place.

    Runs over batch chunks so that the per-tap product lands in a small,
    cache-resident temporary instead of a fresh output-sized array.
    """
    b, cols = views[0].shape[0], views[0].shape[2]
    rows = mats[0].shape[0]
    dtype = np.result_type(mats[0], views[0])
    out = np.empty((b, rows, cols), dtype)
    step = max(1, _CHUNK_BYTES // max(1, rows * cols * dtype.itemsize))
    tmp = np.empty((min(step, b), rows, cols), dtype)
    for s in range(0, b, step):
        o = out[s : s + step]
        np.matmul(mats[0], views[0][s : s + step], out=o)
        t = tmp[: len(o)]
        for m, v in zip(mats[1:], views[1:]):
            o += np.matmul(m, v[s : s + step], out=t)
    return out


def _conv(x, w, b, stride: int, width: int, left: int) -> Tensor:
    """y[:, o, t] = b[o] + sum_{c,j} w[o, c, j] xp[:, c, j + stride*t] for t < width,
    where xp is x zero-padded by ``left``; ``b`` is a tensor or None."""
    x, w = _as_tensor(x), _as_tensor(w)
    k, length = w.shape[2], x.shape[2]
    xp = _padded(x.data, stride, k, width, left)
    out = _tap_sum(_tap_major(w.data, (2, 0, 1)), _taps(xp, stride, k, width))
    if b is not None:
        out += b.data[:, None]
    def vjp(g):
        grads = _conv_t(g, w, stride, length, left), _corr(x, g, stride, k, left)
        return grads if b is None else (*grads, sum_axes(g, (0, 2)))
    return _from_op(out, (x, w) if b is None else (x, w, b), vjp, "conv")


def _shift_sum(g: np.ndarray, wt: np.ndarray, length: int) -> np.ndarray:
    """out[:, :, i] = sum_q wt[q] @ g[:, :, i - q] over i < length (g zero outside).

    Reads shifted views of a zero-padded g, so every tap adds into the whole
    contiguous output instead of scattering into a shifted slice of it.
    """
    n, width = len(wt), g.shape[2]
    gp = _zero_pad(g, 2, n - 1, length - width)
    return _tap_sum(wt[::-1], [gp[:, :, q : q + length] for q in range(n)])


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
    def vjp(h):
        return _conv(h, w, None, stride, width, left), _corr(h, g, stride, k, left)
    return _from_op(out, (g, w), vjp, "conv_t")


def _corr(x, g, stride: int, k: int, left: int) -> Tensor:
    """Weight gradient: dw[o, c, j] = sum_{b,t} g[b, o, t] xp[b, c, j + stride*t]."""
    x, g = _as_tensor(x), _as_tensor(g)
    width, length = g.shape[2], x.shape[2]
    out = np.empty((g.shape[1], x.shape[1], k), dtype=np.result_type(x.data, g.data))
    for j, t in enumerate(_taps(_padded(x.data, stride, k, width, left), stride, k, width)):
        np.matmul(g.data, t.transpose(0, 2, 1)).sum(axis=0, out=out[:, :, j])
    def vjp(h):
        return _conv_t(g, h, stride, length, left), _conv(x, h, None, stride, width, left)
    return _from_op(out, (x, g), vjp, "corr")


def _matmul(a, b) -> Tensor:
    """2-D matrix product a @ b."""
    a, b = _as_tensor(a), _as_tensor(b)
    def vjp(g):
        return _matmul(g, transpose(b, (1, 0))), _matmul(transpose(a, (1, 0)), g)
    return _from_op(np.matmul(a.data, b.data), (a, b), vjp, "matmul")


def conv1d(x, weight, bias=None, stride: int = 1, padding: str = "same") -> Tensor:
    """Cross-correlation of (b, c_in, L) with (c_out, c_in, k) filters.

    Same-padding zero-pads symmetrically (extra sample on the right) so the
    output length is ceil(L/stride); valid-padding requires L >= k.
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
    length = x.shape[2]
    if padding == "same":
        if k % 2 == 0:
            raise ValueError(f"same-padding requires an odd kernel, got {k}")
        out_len = -(-length // stride)
        left = max((out_len - 1) * stride + k - length, 0) // 2
    elif padding == "valid":
        if length < k:
            raise ValueError(f"input length {length} shorter than kernel {k}")
        out_len, left = (length - k) // stride + 1, 0
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
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
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order  # dependencies before dependents


def _leaf_grads(root: Tensor) -> dict[int, tuple[Tensor, Tensor]]:
    """Gradients of scalar ``root``: {id: (leaf, grad)} for every leaf it reaches.

    The VJPs record on the tape exactly when recording is on. A repeated
    gradient is summed by a fresh ``add``, never in place: VJP outputs alias
    each other (``add`` hands one tensor to both parents, ``reshape`` a view).
    """
    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    leaves: dict[int, tuple[Tensor, Tensor]] = {}
    for node in reversed(_toposort(root)):
        g = grads.pop(id(node))
        if node._vjp is None:
            leaves[id(node)] = (node, g)
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if p.requires_grad:
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else add(prev, pg)
    return leaves


def backward(loss: Tensor, params=None) -> None:
    """Accumulate gradients of a scalar loss into ``.grad`` of reachable leaves.

    Runs without recording, so each ``.grad`` is a detached tensor. When
    ``params`` is given, any parameter the graph does not touch gets an
    explicit zero gradient.
    """
    loss = _as_tensor(loss)
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.requires_grad:
        with no_grad():
            for leaf, g in _leaf_grads(loss).values():
                leaf.grad = g if leaf.grad is None else add(leaf.grad, g)
    if params is not None:
        for p in params:
            if p.grad is None:
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
    if x._vjp is not None:
        raise GraphError(f"input tensor must be a leaf, got the output of {x._op!r}")
    if not output.requires_grad:
        raise GraphError("output does not depend on any differentiable tensor")
    hit = _leaf_grads(output).get(id(x))
    if hit is None:
        raise GraphError("tensor does not participate in the output's graph")
    return hit[1]


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

