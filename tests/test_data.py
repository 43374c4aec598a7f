import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiosr import cli, data, dsp, models
from audiosr.data import (
    CorpusError,
    SynthSpec,
    WavChannelError,
    WavDepthError,
    WavFormatError,
)
from audiosr.dsp import Signal


def make_wav_bytes(ints, rate=12000, channels=1, bits=16, fmt_tag=1):
    payload = np.asarray(ints, dtype="<i2").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_tag, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
        b"data", len(payload),
    ) + payload


class TestWavRead:
    def test_amplitude_mapping(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(make_wav_bytes([0, 16384, -32768]))
        sig = data.wav_read(path)
        assert np.array_equal(sig.samples, [0.0, 0.5, -1.0])
        assert sig.sample_rate == 12000

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500)
        sig = Signal(ints / 32768.0, 8000)
        path = tmp_path / "rt.wav"
        data.wav_write(sig, path)
        back = data.wav_read(path)
        assert np.array_equal(back.samples, sig.samples)
        assert back.sample_rate == 8000

    def test_stereo_without_flag_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes([0, 0, 100, 100], channels=2))
        with pytest.raises(WavChannelError, match="downmix"):
            data.wav_read(path)

    def test_stereo_downmix_averages(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes([1000, 3000, -2000, 2000], channels=2))
        sig = data.wav_read(path, downmix=True)
        assert np.allclose(sig.samples, [2000 / 32768, 0.0])

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(make_wav_bytes([0, 0], fmt_tag=3))  # IEEE float tag
        with pytest.raises(WavFormatError, match="PCM"):
            data.wav_read(path)

    def test_wrong_depth_rejected(self, tmp_path):
        path = tmp_path / "d.wav"
        payload = bytes([0, 0, 0, 0])
        blob = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 1, 8000, 8000, 1, 8,
            b"data", len(payload),
        ) + payload
        path.write_bytes(blob)
        with pytest.raises(WavDepthError):
            data.wav_read(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(WavFormatError):
            data.wav_read(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        blob = make_wav_bytes([0] * 100)
        path = tmp_path / "tr.wav"
        path.write_bytes(blob[:-50])
        with pytest.raises(WavFormatError, match="truncated"):
            data.wav_read(path)

    def test_extensible_header_accepted(self, tmp_path):
        payload = np.asarray([0, 16384], dtype="<i2").tobytes()
        pcm_guid = b"\x01\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt_body = struct.pack(
            "<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 1
        ) + pcm_guid
        blob = (
            b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt_body) + 8 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
        path = tmp_path / "ext.wav"
        path.write_bytes(blob)
        sig = data.wav_read(path)
        assert np.array_equal(sig.samples, [0.0, 0.5])

    def test_extra_chunks_skipped(self, tmp_path):
        payload = np.asarray([16384], dtype="<i2").tobytes()
        blob = (
            b"RIFF" + struct.pack("<I", 4 + 8 + 16 + 8 + 6 + 8 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16)
            + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
            + b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size + pad
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
        path = tmp_path / "chunks.wav"
        path.write_bytes(blob)
        assert np.array_equal(data.wav_read(path).samples, [0.5])


class TestWavWrite:
    def test_half_maps_to_16384(self, tmp_path):
        path = tmp_path / "w.wav"
        data.wav_write(Signal(np.array([0.5]), 8000), path)
        blob = path.read_bytes()
        (value,) = struct.unpack("<h", blob[44:46])
        assert value == 16384

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1.0, -1.0, 1.0 + 2**-52, -1.0 - 2**-52])),
                    min_size=1, max_size=64))
    def test_out_of_range_saturates_and_is_counted(self, tmp_path_factory, xs):
        # the bytes of the signal clipped to [-1, 1], and the count of samples it clips
        d = tmp_path_factory.mktemp("wav")
        x = np.array(xs)
        assert data.wav_write(Signal(x, 8000), d / "x.wav") == np.count_nonzero(np.abs(x) > 1.0)
        assert data.wav_write(Signal(np.clip(x, -1.0, 1.0), 8000), d / "c.wav") == 0
        assert (d / "x.wav").read_bytes() == (d / "c.wav").read_bytes()

    def test_zero_payload_size(self, tmp_path):
        path = tmp_path / "z.wav"
        data.wav_write(Signal(np.zeros(123), 8000), path)
        blob = path.read_bytes()
        assert len(blob) == 44 + 2 * 123
        assert blob[44:] == b"\x00" * 246

    def test_rounding_half_away_from_zero(self, tmp_path):
        path = tmp_path / "r.wav"
        x = np.array([16384.5, -16384.5, 16383.49]) / 32768.0
        data.wav_write(Signal(x, 8000), path)
        vals = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert list(vals) == [16385, -16385, 16383]

    def test_positive_fullscale_saturates(self, tmp_path):
        path = tmp_path / "fs.wav"
        data.wav_write(Signal(np.array([1.0, -1.0]), 8000), path)
        vals = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert list(vals) == [32767, -32768]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=64))
def test_wav_roundtrip_property(tmp_path_factory, ints):
    path = tmp_path_factory.mktemp("wav") / "p.wav"
    sig = Signal(np.array(ints) / 32768.0, 16000)
    data.wav_write(sig, path)
    assert np.array_equal(data.wav_read(path).samples, sig.samples)


# (format, offset) of the header fields of a plain 44-byte WAV: RIFF size,
# fmt size, format tag, channels, rate, byte rate, block align, bits, data size
_WAV_FIELDS = [("<I", 4), ("<I", 16), ("<H", 20), ("<H", 22), ("<I", 24), ("<I", 28),
               ("<H", 32), ("<H", 34), ("<I", 40)]
_EXTREME = st.sampled_from([0, 1, 2, 15, 16, 40, 0x8000, 0xFFFF, 0x7FFFFFFF, 0x80000000,
                            0xFFFFFFFF])
_WAV_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 200), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 200), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 200), st.binary(min_size=1, max_size=9)),
    st.tuples(
        st.just("field"),
        st.sampled_from(_WAV_FIELDS) | st.tuples(st.just("<I"), st.integers(0, 200)),
        _EXTREME | st.integers(0, 2**32 - 1),
    ),
)


def mutate(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for kind, where, value in mutations:
        if kind == "field":
            fmt, pos = where
            size = struct.calcsize(fmt)
            if pos + size <= len(out):
                out[pos : pos + size] = struct.pack(fmt, value % 2 ** (8 * size))
            continue
        pos = min(where, len(out))
        if kind == "flip" and pos < len(out):
            out[pos] ^= value
        elif kind == "truncate":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = value
    return bytes(out)


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from([
        make_wav_bytes(np.arange(-8, 8) * 1000),
        make_wav_bytes(np.arange(12) * 100, channels=2),
    ]),
    mutations=st.lists(_WAV_MUTATION, min_size=1, max_size=4),
)
def test_mutated_wav_raises_only_wav_errors(tmp_path_factory, base, mutations):
    path = tmp_path_factory.mktemp("fuzz") / "m.wav"
    path.write_bytes(mutate(base, mutations))
    for read in (data.wav_read, lambda p: data.wav_read(p, downmix=True)):
        try:
            read(path)
        except data.WavError:
            pass


class TestWriteAtomic:
    def test_str_is_written_as_utf8(self, tmp_path):
        data.write_atomic(tmp_path / "t.txt", "caf\u00e9\n")
        assert (tmp_path / "t.txt").read_bytes() == "caf\u00e9\n".encode("utf-8")

    @pytest.mark.parametrize("writer", ["write_atomic", "wav_write", "checkpoint"])
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(data.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            if writer == "write_atomic":
                data.write_atomic(path, b"new")
            elif writer == "wav_write":
                data.wav_write(Signal(np.zeros(4), 8000), path)
            else:
                models.save_checkpoint(models.build_critic(models.CriticConfig(layers=1)), path)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestCorpusScan:
    def build_tree(self, root, speakers=4, utts=3):
        rng = np.random.default_rng(1)
        for s in range(speakers):
            d = root / f"p{225 + s}"
            d.mkdir(parents=True)
            for u in range(utts):
                ints = rng.integers(-2000, 2000, size=200)
                data.wav_write(Signal(ints / 32768.0, 48000), d / f"p{225 + s}_{u:03d}.wav")

    def prepare(self, root, out, seed):
        assert cli.main(["prepare", "--root", str(root), "--out", str(out), "--seed", str(seed)]) == 0
        return data.CorpusIndex.read_manifest(out / "manifest.txt")

    def test_deterministic_split(self, tmp_path):
        self.build_tree(tmp_path)
        listing = data.list_corpus(tmp_path)
        assert listing == data.list_corpus(tmp_path)
        assert listing == [(f"p{225 + s}", tmp_path / f"p{225 + s}" / f"p{225 + s}_{u:03d}.wav")
                           for s in range(4) for u in range(3)]
        speakers = [speaker for speaker, _ in listing]
        assert data.split_speakers(speakers, (0.5, 0.25, 0.25), 3) == data.split_speakers(
            speakers[::-1], (0.5, 0.25, 0.25), 3)

    def test_ratio_allocation(self):
        split = data.split_speakers([f"p{s}" for s in range(10)], (0.8, 0.1, 0.1), 0)
        assert sorted(split.values()) == ["test"] + ["train"] * 8 + ["val"]

    def test_speaker_never_straddles_splits(self, tmp_path):
        self.build_tree(tmp_path / "raw", speakers=5, utts=4)
        index = self.prepare(tmp_path / "raw", tmp_path / "out", seed=9)  # the reader rejects a straddle
        assert len(index.entries) == 20
        assert set(index.split) == {f"p{225 + s}" for s in range(5)}

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            data.list_corpus(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            data.list_corpus(tmp_path / "nope")

    def test_manifest_roundtrip(self, tmp_path):
        self.build_tree(tmp_path / "raw")
        out = tmp_path / "out"
        index = self.prepare(tmp_path / "raw", out, seed=5)
        assert {e.samples for e in index.entries} == {50}  # 200 samples at 48 kHz, decimated to 12 kHz
        assert index.seed == 5
        assert index.split == data.split_speakers(index.split, (0.8, 0.1, 0.1), 5)
        listing = data.list_corpus(tmp_path / "raw")
        assert [(e.speaker, e.path) for e in index.entries] == [
            (speaker, str(out / "audio" / speaker / path.name)) for speaker, path in listing]
        written = [line.split("\t")[2] for line in (out / "manifest.txt").read_text().splitlines()[3:]]
        assert written == [f"audio/{speaker}/{path.name}" for speaker, path in listing]

    def test_a_manifest_read_from_another_directory_writes_back_the_same(self, tmp_path, monkeypatch):
        self.build_tree(tmp_path / "raw", speakers=2, utts=2)
        monkeypatch.chdir(tmp_path)
        index = self.prepare(Path("raw"), Path("m"), seed=1)
        assert all(Path(e.path).is_file() and e.path.startswith("m/audio/") for e in index.entries)
        index.write_manifest("m/manifest2.txt")
        assert Path("m/manifest2.txt").read_bytes() == Path("m/manifest.txt").read_bytes()
        assert data.CorpusIndex.read_manifest("m/manifest2.txt") == index

    def test_an_absolute_audio_path_is_written_as_it_is(self, tmp_path):
        index = data.CorpusIndex([data.CorpusEntry("s", "u", "/corpus/u.wav", 4)], {"s": "train"}, 0,
                                 (1.0, 0.0, 0.0))
        index.write_manifest(tmp_path / "manifest.txt")
        assert data.CorpusIndex.read_manifest(tmp_path / "manifest.txt") == index

    def test_file_directly_under_root_is_the_roots_speaker(self, tmp_path):
        self.build_tree(tmp_path / "c", speakers=1, utts=1)
        data.wav_write(Signal(np.zeros(4), 8000), tmp_path / "c" / "a.wav")
        assert data.list_corpus(tmp_path / "c") == [
            ("c", tmp_path / "c" / "a.wav"), ("p225", tmp_path / "c" / "p225" / "p225_000.wav")]


_MANIFEST_LINES = [
    "# audiosr corpus manifest v1",
    "# seed = 5",
    "# ratios = 0.8,0.1,0.1",
    "train\tp225\tp225/p225_000.wav\t200",
    "train\tp225\tp225/p225_001.wav\t180",
    "val\tp226\tp226/p226_000.wav\t220",
    "test\tp227\tp227/p227_000.wav\t190",
]
_MANIFEST = ("\n".join(_MANIFEST_LINES) + "\n").encode()


def read_manifest_bytes(tmp_path, raw: bytes):
    path = tmp_path / "manifest.txt"
    path.write_bytes(raw)
    return data.CorpusIndex.read_manifest(path)


class TestManifestErrors:
    def test_valid_manifest_parses(self, tmp_path):
        index = read_manifest_bytes(tmp_path, _MANIFEST)
        assert (index.seed, index.ratios) == (5, (0.8, 0.1, 0.1))
        assert index.split == {"p225": "train", "p226": "val", "p227": "test"}
        assert [e.samples for e in index.items("train")] == [200, 180]
        assert [e.path for e in index.items("val")] == [str(tmp_path / "p226" / "p226_000.wav")]
        absolute = read_manifest_bytes(tmp_path, _MANIFEST.replace(b"p227/p227_000", b"/corpus/p227_000"))
        assert [e.path for e in absolute.items("test")] == ["/corpus/p227_000.wav"]

    @pytest.mark.parametrize("old, new", [
        ("\t200", "\t2e2"),
        ("\t200", "\t"),
        ("seed = 5", "seed = five"),
        ("0.8,0.1,0.1", "0.8,x,0.1"),
        ("0.8,0.1,0.1", "0.8,0.2"),
        ("train\tp225\tp225/p225_000", "trian\tp225\tp225/p225_000"),
        ("val\tp226\tp226/p226_000.wav\t220", "val\tp226\tp226/p226_000.wav"),
        ("\t200", "\t-5"),
    ])
    def test_malformed_content_raises_corpus_error(self, tmp_path, old, new):
        raw = _MANIFEST.decode().replace(old, new, 1).encode()
        with pytest.raises(CorpusError):
            read_manifest_bytes(tmp_path, raw)

    def test_speaker_in_two_splits_raises_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="p227"):
            read_manifest_bytes(tmp_path, _MANIFEST + b"train\tp227\tp227/p227_001.wav\t190\n")

    def test_non_utf8_manifest_raises_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="UTF-8"):
            read_manifest_bytes(tmp_path, _MANIFEST.replace(b"p226", b"p\xff26"))


_MANIFEST_MUTATION = st.one_of(
    # replace one tab-separated field of one line with arbitrary text
    st.tuples(st.just("junk"), st.integers(0, len(_MANIFEST_LINES) - 1), st.integers(0, 3),
              st.text(max_size=6)),
    st.tuples(st.just("drop_tab"), st.integers(0, _MANIFEST.count(b"\t") - 1), st.none(),
              st.none()),
    st.tuples(st.just("flip"), st.integers(0, len(_MANIFEST) - 1), st.integers(1, 255),
              st.none()),
    # repeat an entry line under a split other than its own
    st.tuples(st.just("duplicate"), st.integers(3, len(_MANIFEST_LINES) - 1),
              st.integers(0, 1), st.none()),
)


def mutate_manifest(kind, where, arg, text) -> bytes:
    lines = list(_MANIFEST_LINES)
    if kind == "junk":
        fields = lines[where].split("\t")
        fields[min(arg, len(fields) - 1)] = text
        lines[where] = "\t".join(fields)
    elif kind == "drop_tab":
        pos = [i for i, c in enumerate(_MANIFEST) if c == ord("\t")][where]
        return _MANIFEST[:pos] + _MANIFEST[pos + 1 :]
    elif kind == "flip":
        out = bytearray(_MANIFEST)
        out[where] ^= arg
        return bytes(out)
    else:
        split, rest = lines[where].split("\t", 1)
        other = [s for s in ("train", "val", "test") if s != split][arg]
        lines.append(f"{other}\t{rest}")
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(mutation=_MANIFEST_MUTATION)
def test_mutated_manifest_parses_or_raises_corpus_error(tmp_path_factory, mutation):
    raw = mutate_manifest(*mutation)
    try:
        index = read_manifest_bytes(tmp_path_factory.mktemp("manifest"), raw)
    except CorpusError:
        return
    assert mutation[0] != "duplicate", "a speaker under two splits was accepted"
    assert set(index.split.values()) <= {"train", "val", "test"}
    assert sum(len(index.items(s)) for s in ("train", "val", "test")) == len(index.entries)


class TestSynthSignals:
    def test_seeded_reproducibility(self):
        spec = SynthSpec(count=4, length=1024)
        a = data.synth_signals(spec, 7)
        b = data.synth_signals(spec, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x.samples, y.samples)

    def test_pure_sine_stft_peak_at_its_frequency(self):
        spec = SynthSpec(
            count=1, length=8192, sample_rate=12000, components=(1, 1),
            freq_range=(500.0, 500.0), kinds=("sine",),
        )
        sig = data.synth_signals(spec, 0)[0]
        sp = dsp.stft_power(sig)
        peak = sp.bin_freqs[np.argmax(sp.grid.mean(axis=0))]
        assert abs(peak - 500.0) <= 12000 / 2048  # within one bin

    def test_amplitude_range_respected(self):
        spec = SynthSpec(count=8, length=512, amp_range=(0.2, 0.6))
        for sig in data.synth_signals(spec, 1):
            assert np.max(np.abs(sig.samples)) <= 0.6 + 1e-12

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            SynthSpec(count=1, sample_rate=12000, freq_range=(100.0, 6000.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(count=1, kinds=("square",))

    def test_noise_mix_kind(self):
        spec = SynthSpec(count=2, length=1024, kinds=("noise-mix",))
        for sig in data.synth_signals(spec, 3):
            assert np.max(np.abs(sig.samples)) <= 0.9 + 1e-12
