"""Tonal-artifact analysis: zero-input response of upsampling models, spectral
peak detection, exact-periodicity detection, and spectrogram export."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from . import dsp
from .data import write_atomic
from .dsp import PowerSpectrogram, Signal
from .models import ConfigConflictError, count_parameters
from .models import phase_shuffle  # noqa: F401  re-exported: probe.phase_shuffle

MAX_PERIOD = 256  # longest exact period, in samples, that the probe looks for
PGM_DB_RANGE = (-100.0, 0.0)  # dB mapped to black and white in a PGM export


@dataclass
class ArtifactReport:
    """What an all-zero input excites in a model."""

    model_id: str
    probe_length: int
    sample_rate: int
    spectrogram: PowerSpectrogram
    peaks: list[tuple[float, float, float]]  # (freq_hz, mean_power_db, prominence_db)
    periodicity: int | None
    edge_power_db: tuple[float, float]  # mean dB power of first / last frame


def zero_input_probe(
    m,
    length: int = 16384,
    sample_rate: int = 12000,
    peak_threshold_db: float = 20.0,
) -> ArtifactReport:
    """Forward an all-zero signal with no rng and characterize the output.

    ``length`` is the output length; the input is shortened by the model's
    upsampling ratio. Tonal peaks are bins whose time-mean power sits more than
    ``peak_threshold_db`` above the median bin power.
    """
    ratio = getattr(m, "upsample_ratio", None)
    if ratio is None:
        raise ValueError(f"a {m.kind!r} model does not upsample audio")
    check_args(length, ratio, sample_rate, peak_threshold_db)
    with dg.no_grad():
        out = m.forward(dg.Tensor(np.zeros((1, 1, length // ratio))))
    samples = out.data[0, 0].astype(np.float64)
    if samples.shape[0] != length:
        raise ValueError(
            f"model produced {samples.shape[0]} samples for a {length}-sample probe"
        )

    sp = dsp.stft_power(Signal(samples, sample_rate))
    mean_db = 10.0 * np.log10(sp.grid.mean(axis=0))
    median_db = float(np.median(mean_db))
    edge = (
        float(10.0 * np.log10(sp.grid[0].mean())),
        float(10.0 * np.log10(sp.grid[-1].mean())),
    )

    if np.max(np.abs(samples)) == 0.0:
        peaks: list[tuple[float, float, float]] = []
        period = None
    else:
        hot = np.nonzero(mean_db > median_db + peak_threshold_db)[0]
        peaks = [
            (float(sp.bin_freqs[b]), float(mean_db[b]), float(mean_db[b] - median_db))
            for b in hot
        ]
        peaks.sort(key=lambda t: t[2], reverse=True)
        period = _exact_period(samples)

    return ArtifactReport(
        model_id=f"{m.kind}-{count_parameters(m)}p",
        probe_length=length,
        sample_rate=sample_rate,
        spectrogram=sp,
        peaks=peaks,
        periodicity=period,
        edge_power_db=edge,
    )


def check_args(length: int, ratio: int, sample_rate: int, threshold: float) -> None:
    """A probe's output length must cover one STFT frame and be a whole
    number of the model's upsampling ratio, else a ``ConfigConflictError``;
    its rate must be a positive integer and its peak threshold finite."""
    if not float(sample_rate).is_integer() or sample_rate <= 0:
        raise ValueError(f"probe sample_rate must be a positive integer, got {sample_rate!r}")
    if not np.isfinite(threshold):
        raise ValueError(f"probe peak threshold must be finite, got {threshold!r}")
    if length < dsp.FRAME_LENGTH:
        raise ValueError(f"probe length {length} shorter than one STFT frame ({dsp.FRAME_LENGTH})")
    if length % ratio != 0:
        raise ConfigConflictError(f"probe length {length} not divisible by upsample ratio {ratio}")


def _exact_period(x: np.ndarray) -> int | None:
    """Smallest p <= MAX_PERIOD with x[t + p] == x[t] for all t, bit-exact; None if none."""
    for p in range(1, min(MAX_PERIOD, len(x) - 1) + 1):
        if np.array_equal(x[p:], x[:-p]):
            return p
    return None


def export_spectrogram(sp: PowerSpectrogram, path, fmt: str = "csv") -> None:
    """Write the spectrogram as dB values: CSV (frames x bins) or 8-bit PGM over PGM_DB_RANGE."""
    db = 10.0 * np.log10(sp.grid)
    if fmt == "csv":
        header = "frame_time_s," + ",".join(f"hz_{f:g}" for f in sp.bin_freqs)
        lines = [header]
        for t, row in zip(sp.frame_times, db):
            lines.append(f"{t:.6f}," + ",".join(f"{v:.4f}" for v in row))
        write_atomic(path, "\n".join(lines) + "\n")
    elif fmt == "pgm":
        floor, ceiling = PGM_DB_RANGE
        unit = np.clip((db - floor) / (ceiling - floor), 0.0, 1.0)
        gray = np.round(unit * 255.0).astype(np.uint8)
        image = gray.T[::-1]  # rows = bins (low freq at the bottom), cols = frames
        height, width = image.shape
        write_atomic(path, f"P5\n{width} {height}\n255\n".encode("ascii") + image.tobytes())
    else:
        raise ValueError(f"format must be 'csv' or 'pgm', got {fmt!r}")


def write_report(report: ArtifactReport, path) -> None:
    """Human-readable probe summary: key/value lines plus a peak table."""
    lines = [
        f"model: {report.model_id}",
        f"probe_length: {report.probe_length}",
        f"sample_rate: {report.sample_rate}",
        f"periodicity_samples: {report.periodicity if report.periodicity is not None else 'none'}",
        f"edge_frame_power_db: first={report.edge_power_db[0]:.2f} last={report.edge_power_db[1]:.2f}",
        f"stft: frame={dsp.FRAME_LENGTH} hop={dsp.HOP} window=hann floor={dsp.POWER_FLOOR!r}",
        f"peaks: {len(report.peaks)}",
        "freq_hz\tpower_db\tprominence_db",
    ]
    for freq, power, prom in report.peaks:
        lines.append(f"{freq:.2f}\t{power:.2f}\t{prom:.2f}")
    write_atomic(path, "\n".join(lines) + "\n")
