"""WAV ingestion, corpus listing with speaker-level splits, and a seeded
synthetic-signal generator for desk-scale tests."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Signal

SPLITS = ("train", "val", "test")


class WavError(Exception):
    """Base class for WAV parsing problems."""


class WavFormatError(WavError):
    """Not a RIFF/WAVE PCM stream."""


class WavDepthError(WavError):
    """Unsupported bit depth."""


class WavChannelError(WavError):
    """Channel count the caller did not opt into."""


class CorpusError(Exception):
    pass


def write_atomic(path, payload: bytes | str | list) -> None:
    """Write ``payload`` (a str as UTF-8, a list of buffers one after another,
    uncopied) to a temporary file beside ``path``, then move it onto ``path``:
    readers see the old file or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(payload if isinstance(payload, list) else [payload])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _parse_wav(raw: bytes, path):
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if body_start + size > len(raw):
            raise WavFormatError(f"{path}: chunk {cid!r} is truncated")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too small")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", raw, body_start)
            if tag == _WAVE_FORMAT_EXTENSIBLE:
                if size < 40:
                    raise WavFormatError(f"{path}: extensible fmt chunk too small")
                (tag,) = struct.unpack_from("<H", raw, body_start + 24)  # subformat GUID head
            fmt = (tag, channels, rate, bits)
        elif cid == b"data":
            data = raw[body_start : body_start + size]
        pos = body_start + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    return fmt, data


def _check_pcm16(fmt, path):
    tag, channels, rate, bits = fmt
    if tag != _WAVE_FORMAT_PCM:
        raise WavFormatError(
            f"{path}: unsupported encoding (format tag {tag}); only integer PCM is supported"
        )
    if bits != 16:
        raise WavDepthError(f"{path}: unsupported bit depth {bits}; only 16-bit PCM is supported")
    if channels < 1:
        raise WavFormatError(f"{path}: invalid channel count {channels}")
    if rate <= 0:
        raise WavFormatError(f"{path}: invalid sample rate {rate}")


def wav_read(path, downmix: bool = False) -> Signal:
    """Read a 16-bit PCM WAV into amplitudes sample/32768 in [-1, 1).

    Multi-channel files are rejected unless ``downmix`` averages the channels.
    """
    raw = Path(path).read_bytes()
    fmt, data = _parse_wav(raw, path)
    _check_pcm16(fmt, path)
    _, channels, rate, _ = fmt
    if channels > 1 and not downmix:
        raise WavChannelError(
            f"{path}: {channels} channels; pass downmix=True to average them"
        )
    frame_bytes = 2 * channels
    if len(data) % frame_bytes != 0:
        raise WavFormatError(f"{path}: data chunk is not a whole number of frames")
    ints = np.frombuffer(data, dtype="<i2").astype(np.float64)
    if channels > 1:
        ints = ints.reshape(-1, channels).mean(axis=1)
    return Signal(ints / 32768.0, rate)


def wav_write(s: Signal, path) -> int:
    """Write 16-bit PCM mono, rounding half away from zero, and return how many
    samples lay outside [-1, 1].

    Those samples saturate, as does exactly +1.0: every code is clipped to
    [-32768, 32767], which writes the bytes of clipping the signal to [-1, 1].
    """
    mag = np.abs(s.samples)
    q = np.clip(np.floor(mag * 32768.0 + 0.5) * np.sign(s.samples), -32768, 32767)
    payload = q.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_PCM,
        1,
        s.sample_rate,
        s.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    write_atomic(path, header + payload)
    return int(np.count_nonzero(mag > 1.0))


@dataclass(frozen=True)
class CorpusEntry:
    speaker: str
    utterance: str
    path: str
    samples: int


@dataclass
class CorpusIndex:
    """Utterance listing with a deterministic speaker-level split."""

    entries: list[CorpusEntry]
    split: dict[str, str]  # speaker -> train|val|test
    seed: int
    ratios: tuple[float, float, float]

    def items(self, split: str) -> list[CorpusEntry]:
        if split not in SPLITS:
            raise ValueError(f"split must be train/val/test, got {split!r}")
        return [e for e in self.entries if self.split[e.speaker] == split]

    def write_manifest(self, path) -> None:
        """Write the index to ``path``, each relative audio path relative to its directory."""
        lines = [
            "# audiosr corpus manifest v1",
            f"# seed = {self.seed}",
            f"# ratios = {self.ratios[0]!r},{self.ratios[1]!r},{self.ratios[2]!r}",
        ]
        for e in self.entries:
            fpath = e.path if os.path.isabs(e.path) else os.path.relpath(e.path, Path(path).parent)
            lines.append(f"{self.split[e.speaker]}\t{e.speaker}\t{fpath}\t{e.samples}")
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def read_manifest(cls, path) -> "CorpusIndex":
        """Parse a manifest written by ``write_manifest``; a relative audio path
        is joined to the manifest's directory. Malformed content raises ``CorpusError``."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: manifest is not valid UTF-8 ({exc})") from None
        seed, ratios = 0, (0.0, 0.0, 0.0)
        entries, split = [], {}
        for line in text.split("\n"):
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if "seed =" in line:
                        seed = int(line.split("=", 1)[1])
                    elif "ratios =" in line:
                        ratios = tuple(float(v) for v in line.split("=", 1)[1].split(","))
                        if len(ratios) != 3:
                            raise ValueError(f"expected three ratios, got {len(ratios)}")
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ValueError("expected 4 tab-separated fields")
                sp, speaker, fpath, samples = parts
                if sp not in SPLITS:
                    raise ValueError(f"unknown split {sp!r}")
                if split.setdefault(speaker, sp) != sp:
                    raise ValueError(f"speaker {speaker!r} is in both {split[speaker]!r} and {sp!r}")
                count = int(samples)
                if count < 0:
                    raise ValueError(f"negative sample count {count}")
                entries.append(CorpusEntry(speaker, Path(fpath).stem, str(Path(path).parent / fpath), count))
            except ValueError as exc:
                raise CorpusError(f"{path}: malformed manifest line {line!r}: {exc}") from None
        if not entries:
            raise CorpusError(f"{path}: empty manifest")
        return cls(entries=entries, split=split, seed=seed, ratios=ratios)


def check_split_ratios(ratios) -> None:
    """Raise ``ValueError`` unless ``ratios`` are three non-negative numbers summing to 1."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("split_ratios must be three non-negative numbers")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"split_ratios must sum to 1, got {sum(ratios)}")


def list_corpus(root) -> list[tuple[str, Path]]:
    """Every WAV under ``root`` as (speaker, path), ordered by speaker, then file
    name, reading no file. A file's speaker is its directory's name, or
    ``root``'s name for a file directly under ``root``."""
    root = Path(root)
    if not root.exists():
        raise CorpusError(f"corpus root {root} does not exist")
    found = {}
    for w in sorted(root.rglob("*.wav")):
        key = (w.parent.name if w.parent != root else root.name, w.name)
        if (first := found.setdefault(key, w)) != w:
            raise CorpusError(f"{first} and {w} share speaker {key[0]!r} and file name {key[1]!r}")
    if not found:
        raise CorpusError(f"no .wav files found under {root}")
    return [(speaker, found[speaker, name]) for speaker, name in sorted(found)]


def split_speakers(speakers, ratios, seed: int) -> dict[str, str]:
    """Split per speaker: sorted speaker ids, one seeded shuffle, then
    floor(ratio * n) speakers for train and val, remainder to test."""
    check_split_ratios(ratios)
    speakers = sorted(set(speakers))
    order = [speakers[i] for i in np.random.default_rng(seed).permutation(len(speakers))]
    n_train = int(np.floor(ratios[0] * len(speakers)))
    n_val = int(np.floor(ratios[1] * len(speakers)))
    return {sp: "train" if i < n_train else ("val" if i < n_train + n_val else "test")
            for i, sp in enumerate(order)}


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic test corpus."""

    count: int
    length: int = 8192
    sample_rate: int = 12000
    components: tuple[int, int] = (1, 4)
    freq_range: tuple[float, float] = (100.0, 5400.0)
    amp_range: tuple[float, float] = (0.3, 0.9)
    kinds: tuple[str, ...] = ("sine", "chirp")

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        lo, hi = self.components
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid component range {self.components}")
        flo, fhi = self.freq_range
        if not 0 < flo <= fhi:
            raise ValueError(f"invalid frequency range {self.freq_range}")
        if fhi >= self.sample_rate / 2:
            raise ValueError(
                f"max frequency {fhi} violates Nyquist for rate {self.sample_rate}"
            )
        alo, ahi = self.amp_range
        if not 0 < alo <= ahi <= 1.0:
            raise ValueError(f"amplitude range must lie in (0, 1], got {self.amp_range}")
        if not self.kinds:
            raise ValueError("need at least one signal kind")
        bad = set(self.kinds) - {"sine", "chirp", "noise-mix"}
        if bad:
            raise ValueError(f"unknown signal kinds: {sorted(bad)}")


def synth_signals(spec: SynthSpec, seed: int) -> list[Signal]:
    """Seeded corpus of sines, linear chirps, and noisy sine mixtures."""
    rng = np.random.default_rng(seed)
    t = np.arange(spec.length, dtype=np.float64) / spec.sample_rate
    duration = spec.length / spec.sample_rate
    out = []
    for _ in range(spec.count):
        kind = spec.kinds[rng.integers(len(spec.kinds))]
        n_comp = int(rng.integers(spec.components[0], spec.components[1] + 1))
        x = np.zeros(spec.length)
        for _ in range(n_comp):
            weight = rng.uniform(0.5, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if kind == "chirp":
                f0, f1 = np.sort(rng.uniform(*spec.freq_range, size=2))
                x += weight * np.sin(
                    2.0 * np.pi * (f0 * t + (f1 - f0) / (2.0 * duration) * t * t) + phase
                )
            else:
                f = rng.uniform(*spec.freq_range)
                x += weight * np.sin(2.0 * np.pi * f * t + phase)
        if kind == "noise-mix":
            x += rng.normal(0.0, 0.1 * n_comp, spec.length)
        peak = rng.uniform(*spec.amp_range)
        x *= peak / np.max(np.abs(x))
        out.append(Signal(x, spec.sample_rate))
    return out
