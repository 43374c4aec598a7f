"""Deterministic signal processing: anti-alias filtering, decimation,
spline upsampling, and STFT power spectrograms."""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy


def _load_flapack():
    """scipy's f2py LAPACK wrappers, loaded from the extension file that
    ``scipy.linalg.lapack`` re-exports. Importing ``scipy.linalg`` would run its
    ``__init__``, whose array-API layer pulls in numpy.f2py and numpy.testing.
    CPython keeps one copy of a single-phase extension per name and path, so
    these are the very objects ``scipy.linalg.lapack`` exports, whichever of the
    two is loaded first."""
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import lapack
    return lapack


_flapack = _load_flapack()
dgtsv, dtbtrs = _flapack.dgtsv, _flapack.dtbtrs


@dataclass(frozen=True)
class Signal:
    """Mono amplitude sequence with a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("signal contains non-finite values")
        if not float(self.sample_rate).is_integer() or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


def design_butterworth_lowpass(order: int, cutoff_ratio: float) -> tuple[tuple[float, ...], ...]:
    """Even-order Butterworth lowpass as a cascade of second-order sections
    ``(b0, b1, b2, a1, a2)``, each with a0 normalized to 1.

    The analog prototype is mapped by the bilinear transform with the cutoff
    pre-warped, so the half-power point lands exactly at ``cutoff_ratio``
    (expressed as a fraction of Nyquist).
    """
    if order <= 0 or order % 2 != 0:
        raise ValueError(f"order must be a positive even integer, got {order}")
    if not 0.0 < cutoff_ratio < 1.0:
        raise ValueError(f"cutoff_ratio must lie in (0, 1), got {cutoff_ratio}")
    wc = math.tan(math.pi * cutoff_ratio / 2.0)  # pre-warped analog cutoff
    wc2 = wc * wc
    sections = []
    for k in range(order // 2):
        # analog pair: wc^2 / (s^2 + 2 wc sin(psi) s + wc^2)
        psi = math.pi * (2 * k + 1) / (2 * order)
        a = 2.0 * wc * math.sin(psi)
        a0 = 1.0 + a + wc2
        b0 = wc2 / a0
        sections.append((b0, 2.0 * b0, b0, (2.0 * wc2 - 2.0) / a0, (1.0 - a + wc2) / a0))
    return tuple(sections)


def _filter(sections, x: np.ndarray) -> np.ndarray:
    """Run the biquads over each row of ``x`` along its last axis, from rest.

    Per section the numerator ``b0 x[n] + b1 x[n-1] + b2 x[n-2]`` is formed with
    numpy; the denominator's recursion ``y[n] = v[n] - a1 y[n-1] - a2 y[n-2]`` is
    one unit-lower-triangular banded solve (LAPACK ``dtbtrs``) with a row per
    right-hand side, run in place on the Fortran view of the (rows, n) batch.
    Each row is solved on its own, so a batch equals the stack of its rows."""
    shape, n = x.shape, x.shape[-1]
    y = np.asarray(x, dtype=np.float64).reshape(-1, n)
    ab = np.ones((3, n))  # band rows: unit diagonal (not read), a1, a2
    for b0, b1, b2, a1, a2 in sections:
        v = b0 * y
        v[:, 1:] += b1 * y[:, :-1]
        v[:, 2:] += b2 * y[:, :-2]
        ab[1], ab[2] = a1, a2
        y = dtbtrs(ab, v.T, uplo="L", diag="U", overwrite_b=1)[0].T
    return y.reshape(shape)


@functools.lru_cache(maxsize=16)
def _antialias(factor: int) -> tuple[tuple[float, ...], ...]:
    """``decimate``'s lowpass for ``factor``, designed once."""
    return design_butterworth_lowpass(8, 1.0 / factor)


def decimate(x: np.ndarray, factor: int) -> np.ndarray:
    """Lowpass each row along the last axis with an order-8 Butterworth at the
    new Nyquist, filtered from rest, then keep every ``factor``-th sample from
    index 0: floor(n/factor) of them."""
    if not float(factor).is_integer() or factor < 2:
        raise ValueError(f"downsample factor must be an integer >= 2, got {factor}")
    factor, n = int(factor), x.shape[-1]
    if n < factor:
        raise ValueError(f"signal of length {n} too short for factor {factor}")
    return _filter(_antialias(factor), x)[..., : n // factor * factor : factor].copy()


def check_rate(sample_rate: int, factor: int) -> None:
    if sample_rate % factor != 0:
        raise ValueError(f"sample rate {sample_rate} is not divisible by factor {factor}")


def downsample(s: Signal, factor: int) -> Signal:
    """``decimate`` a signal whose sample rate ``factor`` divides."""
    check_rate(s.sample_rate, int(factor))
    return Signal(decimate(s.samples, factor), s.sample_rate // int(factor))


def spline(x: np.ndarray, factor: int) -> np.ndarray:
    """Natural cubic spline of each row along the last axis, on a grid
    ``factor`` times denser. Original samples are kept exactly on the coarse
    grid; points past the last knot evaluate the final spline segment.

    The result equals scipy's ``CubicSpline(np.arange(n), x, axis=-1,
    bc_type="natural")`` bit for bit: the same tridiagonal system for the knot
    slopes, solved by the same LAPACK routine (``dgtsv``), the same Hermite
    coefficients (scipy's divisions by the unit knot spacing are exact, so they
    are left out), evaluated in the same order."""
    if not float(factor).is_integer() or factor < 2:
        raise ValueError(f"upsample factor must be an integer >= 2, got {factor}")
    factor, n = int(factor), x.shape[-1]
    if n < 4:
        raise ValueError(f"spline upsampling needs at least 4 samples, got {n}")
    y = np.asarray(x, dtype=np.float64).reshape(-1, n)
    slope = np.diff(y)
    rhs = np.empty_like(y)
    rhs[:, 0], rhs[:, -1] = 3 * slope[:, 0], 3 * slope[:, -1]  # natural ends
    rhs[:, 1:-1] = 3 * (slope[:, :-1] + slope[:, 1:])
    diag = np.full(n, 4.0)
    diag[0] = diag[-1] = 2.0
    ones = np.ones(n - 1)
    deriv = dgtsv(ones, diag, ones, rhs.T, overwrite_b=1)[3].T  # first derivative at each knot
    cubic = deriv[:, :-1] + deriv[:, 1:] - 2 * slope
    quadratic = slope - deriv[:, :-1] - cubic
    # each output point's knot interval, the last one extended past the final
    # knot, and its offset from that knot
    k = np.minimum(np.arange(n * factor) // factor, n - 2)
    u = np.arange(n * factor, dtype=np.float64) / factor - k
    out = y[:, :-1].take(k, axis=-1)
    out += 0.0  # scipy's sum starts from 0.0, which turns a -0.0 sample into 0.0
    term = np.empty_like(out)
    for c, power in ((deriv[:, :-1], u), (quadratic, u * u), (cubic, u * u * u)):
        c.take(k, axis=-1, out=term)
        term *= power
        out += term
    out[:, ::factor] = y  # keep on-grid values bit-exact
    return out.reshape(x.shape[:-1] + (n * factor,))


def spline_upsample(s: Signal, factor: int) -> Signal:
    return Signal(spline(s.samples, factor), s.sample_rate * int(factor))


# The one STFT that metrics and the probe score every signal on: 2048-sample
# frames every 512 samples under a periodic Hann window (exact mainlobe for
# bin-centered tones), power clamped below at 1e-10 so its log stays finite.
FRAME_LENGTH = 2048
HOP = 512
WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
WINDOW.flags.writeable = False
POWER_FLOOR = 1e-10


@dataclass(frozen=True)
class PowerSpectrogram:
    """W x K grid of power values, clamped below at ``POWER_FLOOR``."""

    grid: np.ndarray
    frame_times: np.ndarray
    bin_freqs: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 2:
            raise ValueError(f"grid must be 2-D (frames x bins), got shape {g.shape}")
        if g.shape != (len(self.frame_times), len(self.bin_freqs)):
            raise ValueError("grid shape does not match its axes")
        object.__setattr__(self, "grid", g)


def stft_power(s: Signal) -> PowerSpectrogram:
    """Windowed real-FFT power per frame; W = 1 + floor((len - FRAME_LENGTH)/HOP)."""
    n = len(s)
    if n < FRAME_LENGTH:
        raise ValueError(f"signal of length {n} shorter than one frame ({FRAME_LENGTH})")
    frames = np.lib.stride_tricks.sliding_window_view(s.samples, FRAME_LENGTH)[::HOP]
    spectrum = np.fft.rfft(frames * WINDOW, axis=1)
    power = np.maximum(np.abs(spectrum) ** 2, POWER_FLOOR)
    frame_times = (np.arange(power.shape[0]) * HOP + FRAME_LENGTH / 2.0) / s.sample_rate
    bin_freqs = np.arange(FRAME_LENGTH // 2 + 1) * s.sample_rate / FRAME_LENGTH
    return PowerSpectrogram(power, frame_times, bin_freqs)
