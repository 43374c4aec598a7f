"""Objective evaluation: SNR and log-spectral distance, plus corpus-level
aggregation into mean +/- population-standard-deviation reports."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .data import write_atomic
from .dsp import Signal
from .models import reconstruct, upsampling_mode


def _check_pair(generated: Signal, actual: Signal) -> None:
    if len(generated) != len(actual):
        raise ValueError(f"length mismatch: generated {len(generated)} vs actual {len(actual)}")
    if generated.sample_rate != actual.sample_rate:
        raise ValueError("sample rate mismatch")


def snr(generated: Signal, actual: Signal) -> float:
    """10*log10 of reference energy over residual energy, in dB.

    Returns +inf when the residual is exactly zero.
    """
    _check_pair(generated, actual)
    ref = float(np.sum(actual.samples**2))
    if ref == 0.0:
        raise ValueError("reference signal is identically zero")
    residual = float(np.sum((generated.samples - actual.samples) ** 2))
    if residual == 0.0:
        return math.inf
    return 10.0 * math.log10(ref / residual)


def lsd(generated: Signal, actual: Signal) -> float:
    """Frame-wise RMS of log10 power-spectrum differences, averaged over frames."""
    _check_pair(generated, actual)
    pg = dsp.stft_power(generated).grid
    pa = dsp.stft_power(actual).grid
    # difference of logs keeps lsd(a, b) == lsd(b, a) bit-exact
    diff = np.log10(pg) - np.log10(pa)
    per_frame = np.sqrt(np.mean(diff**2, axis=1))
    return float(np.mean(per_frame))


@dataclass
class MetricReport:
    """Per-item SNR/LSD plus aggregate statistics for one evaluation run."""

    per_item: list[tuple[str, float, float]]
    snr_mean: float
    snr_std: float
    lsd_mean: float
    lsd_std: float
    scale: int
    mode: str = "post"
    checkpoint_id: str = ""
    notes: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        lines = [
            f"# stft.frame_length = {dsp.FRAME_LENGTH}",
            f"# stft.hop = {dsp.HOP}",
            "# stft.window = hann",
            f"# stft.power_floor = {dsp.POWER_FLOOR}",
            f"# scale = {self.scale}",
            f"# mode = {self.mode}",
            f"# checkpoint = {self.checkpoint_id or 'none'}",
        ]
        for key, val in sorted(self.notes.items()):
            lines.append(f"# {key} = {val}")
        lines.append("item_id,snr_db,lsd_db")
        for item_id, s, l in self.per_item:
            lines.append(f"{item_id},{s!r},{l!r}")
        lines.append(f"mean,{self.snr_mean!r},{self.lsd_mean!r}")
        lines.append(f"std,{self.snr_std!r},{self.lsd_std!r}")
        write_atomic(path, "\n".join(lines) + "\n")


def check_comparable(item_id: str, n: int) -> None:
    """Reject an item with ``n`` comparable samples, fewer than one STFT frame."""
    if n < dsp.FRAME_LENGTH:
        raise ValueError(
            f"item {item_id}: only {n} comparable samples, need at least one "
            f"STFT frame ({dsp.FRAME_LENGTH})"
        )


def evaluate_model(
    model,
    corpus: list[Signal],
    scale: int,
    mode: str | None = None,
    item_ids: list[str] | None = None,
    checkpoint_id: str = "",
) -> MetricReport:
    """Degrade, reconstruct, and score every corpus item.

    ``model=None`` evaluates the classical baseline: spline interpolation of
    the degraded signal. ``mode`` defaults to the model's own and must not
    contradict it. Reconstruction and reference are truncated to their
    common length before scoring.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if mode not in (None, "pre", "post"):
        raise ValueError(f"mode must be 'pre' or 'post', got {mode!r}")
    if model is not None:
        mode = upsampling_mode(model, scale, mode)
    if item_ids is not None and len(item_ids) != len(corpus):
        raise ValueError("item_ids length does not match corpus")

    per_item = []
    for i, sig in enumerate(corpus):
        item_id = item_ids[i] if item_ids is not None else str(i)
        recon = reconstruct(model, dsp.downsample(sig, scale), scale)
        n = min(len(recon), len(sig))
        check_comparable(item_id, n)
        gen = Signal(recon.samples[:n], sig.sample_rate)
        ref = Signal(sig.samples[:n], sig.sample_rate)
        per_item.append((item_id, snr(gen, ref), lsd(gen, ref)))

    snrs = np.array([s for _, s, _ in per_item])
    lsds = np.array([l for _, _, l in per_item])
    return MetricReport(
        per_item=per_item,
        snr_mean=float(np.mean(snrs)),
        snr_std=float(np.std(snrs)),
        lsd_mean=float(np.mean(lsds)),
        lsd_std=float(np.std(lsds)),
        scale=scale,
        mode=mode if model is not None else "baseline-spline",
        checkpoint_id=checkpoint_id,
        notes={
            "snr_scope": "whole reconstructed utterances",
            "degradation": "causal order-8 butterworth, cutoff at target nyquist, keep index 0",
        },
    )

