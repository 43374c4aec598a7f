"""Span tracer that wraps audiosr's public functions from outside the package.

Each wrapped call records a span: name, start, end, parent span and the id of
the request (training step, upsample operation or eval item) it ran in. Spans
stay in memory; ``summary`` turns them into per-layer metrics at the end.
``restore`` puts every wrapped attribute back exactly as it was.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from audiosr import cli, data, diffgraph, dsp, metrics, models, probe, train

# Spans that enclose a whole training call; the steps inside them are the requests.
TRAIN_ROOTS = ("train.train_supervised", "train.train_wgan_gp")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "hook_s")

    def __init__(self, name, parent, request):
        self.name, self.parent, self.request = name, parent, request
        self.start = self.end = 0.0
        self.hook_s = 0.0  # tracer bookkeeping run directly inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start


def _array(x):
    return getattr(x, "data", x)


def _tape_nodes(root) -> int:
    """Graph nodes reachable from ``root`` through differentiable parents."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in getattr(node, "_parents", ()) if p.requires_grad)
    return len(seen)


def _conv_shape_counters(tracer, args, kwargs):
    x, w = np.shape(_array(args[0])), np.shape(_array(args[1]))
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else "same")
    b, c_in, length = x
    c_out, _, k = w
    out_len = -(-length // stride) if padding == "same" else (length - k) // stride + 1
    itemsize = np.asarray(_array(args[0])).dtype.itemsize
    tracer.counters["conv_flop"] += 2.0 * b * c_out * c_in * k * out_len
    window = b * c_in * out_len * k * itemsize  # the (b, c_in, W, k) unfold tensor
    tracer.counters["conv_window_max"] = max(tracer.counters["conv_window_max"], window)


def _count_tape(tracer, args, kwargs):
    tracer.counters["tape_nodes"] += _tape_nodes(args[0])


def _wav_read_bytes(tracer, args, kwargs, result):
    tracer.counters["wav_bytes"] += os.path.getsize(args[0])


def _wav_write_bytes(tracer, args, kwargs, result):
    tracer.counters["wav_bytes"] += os.path.getsize(args[1])


def _cli_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.counters["cli_failed"] += 1


def _adam_done(tracer, args, kwargs, result):
    tracer.adam_calls += 1
    if tracer.adam_per_request and tracer.adam_calls % tracer.adam_per_request == 0:
        now = perf_counter()
        tracer.windows.append((tracer.request, tracer.window_start, now))
        tracer.request += 1
        tracer.window_start = now


# (owner, attribute, span name, before-hook, after-hook)
TARGETS = [
    (data, "synth_signals", "data.synth_signals", None, None),
    (data, "wav_read", "data.wav_read", None, _wav_read_bytes),
    (data, "wav_write", "data.wav_write", None, _wav_write_bytes),
    (dsp, "design_butterworth_lowpass", "dsp.design_butterworth_lowpass", None, None),
    (dsp, "downsample", "dsp.downsample", None, None),
    (dsp, "spline_upsample", "dsp.spline_upsample", None, None),
    (dsp, "stft_power", "dsp.stft_power", None, None),
    (diffgraph, "conv1d", "diffgraph.conv1d", _conv_shape_counters, None),
    (diffgraph, "backward", "diffgraph.backward", _count_tape, None),
    (diffgraph, "input_gradient", "diffgraph.input_gradient", _count_tape, None),
    (diffgraph, "adam_step", "diffgraph.adam_step", None, _adam_done),
    (models.EdsrModel, "forward", "models.edsr.forward", None, None),
    (models.UnetModel, "forward", "models.unet.forward", None, None),
    (models.CriticModel, "forward", "models.critic.forward", None, None),
    (models, "load_checkpoint", "models.load_checkpoint", None, None),
    (train, "train_supervised", "train.train_supervised", None, None),
    (train, "train_wgan_gp", "train.train_wgan_gp", None, None),
    (train, "gradient_penalty", "train.gradient_penalty", None, None),
    (probe, "phase_shuffle", "probe.phase_shuffle", None, None),
    (metrics, "evaluate_model", "metrics.evaluate_model", None, None),
    (metrics, "snr", "metrics.snr", None, None),
    (metrics, "lsd", "metrics.lsd", None, None),
    (cli, "main", "cli.main", None, _cli_exit),
]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("audiosr.") and m]


class Tracer:
    """Records spans while installed. ``adam_per_request`` Adam updates end one
    training step (1 for supervised training, n_critic + 1 for WGAN-GP)."""

    def __init__(self, adam_per_request: int = 0):
        self.adam_per_request = adam_per_request
        self.spans: list[Span] = []
        self.windows: list[tuple[int, float, float]] = []  # (request, start, end)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.request = -1  # outside any request, as during set-up
        self.window_start = 0.0
        self.adam_calls = 0
        self.top_hook_s: defaultdict[int, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- request bookkeeping for callers that own the request loop ---

    def begin_request(self, request: int) -> None:
        self.request = request
        self.window_start = perf_counter()

    def end_request(self) -> None:
        self.windows.append((self.request, self.window_start, perf_counter()))

    # --- wrapping ---

    def _hook(self, hook, *args) -> None:
        t0 = perf_counter()
        hook(self, *args)
        spent = perf_counter() - t0
        if self._stack:
            self._stack[-1].hook_s += spent
        else:
            self.top_hook_s[self.request] += spent

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(before, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, -1 if name in TRAIN_ROOTS else tracer.request)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = perf_counter()
            if name in TRAIN_ROOTS:
                tracer.request, tracer.window_start = 0, span.start
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, after in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, before, after)
            # from-imports bind the same function under other modules' globals
            owners = [owner] + [
                m for m in _package_modules() if m is not owner and vars(m).get(attr) is original
            ]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results ---

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: call counts, self time in ms, computed and counted totals."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        child_s: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[id(s.parent)] += s.duration
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.duration - child_s[id(s)] - s.hook_s
        top_level: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is None or s.parent.request != s.request:
                top_level[s.request] += s.duration
        unattributed = sum(
            end - start - top_level[request] - self.top_hook_s[request]
            for request, start, end in self.windows
        )
        steps = max(len(self.windows), 1)
        conv_ms = 1e3 * self_s["diffgraph.conv1d"]
        c = self.counters
        out = {}
        for layer in (
            "dsp.downsample", "dsp.spline_upsample", "dsp.stft_power",
            "data.wav_read", "data.wav_write", "data.synth_signals",
            "models.edsr.forward", "models.unet.forward", "models.critic.forward",
            "models.load_checkpoint", "diffgraph.conv1d", "diffgraph.backward",
            "diffgraph.input_gradient", "diffgraph.adam_step", "train.gradient_penalty",
            "probe.phase_shuffle", "metrics.evaluate_model", "metrics.snr", "metrics.lsd",
            "cli.main",
        ):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.ms"] = 1e3 * self_s[layer]
        out["dsp.filter_designs_per_step"] = calls["dsp.design_butterworth_lowpass"] / steps
        out["data.wav_bytes"] = c["wav_bytes"]
        out["diffgraph.conv1d.gflop_computed"] = c["conv_flop"] / 1e9
        out["diffgraph.conv1d.gflop_per_s_computed"] = (
            c["conv_flop"] / 1e6 / conv_ms if conv_ms > 0 else 0.0
        )
        out["diffgraph.conv1d.window_mb_max_computed"] = c["conv_window_max"] / 1e6
        out["diffgraph.tape_nodes_per_step"] = c["tape_nodes"] / steps
        out["train.self_ms"] = 1e3 * sum(self_s[name] for name in TRAIN_ROOTS)
        out["cli.main.failed"] = c["cli_failed"]
        out["trace.requests"] = len(self.windows)
        out["trace.spans"] = len(self.spans)
        out["trace.unattributed_ms"] = 1e3 * unattributed
        return out
