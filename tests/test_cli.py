import argparse
import hashlib
import sys
import wave
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from audiosr import cli, data, metrics, models, train
from audiosr import diffgraph as dg
from audiosr.dsp import Signal


def run(*argv):
    return cli.main(list(argv))


def write_tone(path, n=8192, rate=12000, freq=440.0):
    t = np.arange(n) / rate
    data.wav_write(Signal(0.5 * np.sin(2 * np.pi * freq * t), rate), path)


@pytest.fixture()
def tiny_ckpt(tmp_path):
    m = models.build_edsr(models.EdsrConfig(filters=4, n_blocks=1), seed=0)
    path = tmp_path / "edsr.ckpt"
    models.save_checkpoint(m, path)
    return path


class TestUpsample:
    def test_spline_doubles_rate_and_length(self, tmp_path):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        write_tone(src, n=4096)
        assert run("upsample", "--out", str(tmp_path), "--scale", "2",
                   "--method", "spline", str(src), str(dst)) == 0
        out = data.wav_read(dst)
        assert len(out) == 8192
        assert out.sample_rate == 24000
        assert (tmp_path / "run.meta").exists()

    def test_overshoot_is_saturated_and_counted(self, tmp_path, capsys):
        # the spline of a full-scale + + - - pattern overshoots between its samples
        src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
        data.wav_write(Signal(np.tile([1.0, 1.0, -1.0, -1.0], 64), 12000), src)
        y = models.reconstruct(None, data.wav_read(src), 2).samples
        over = np.abs(y) > 1.0
        assert over.any()
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), str(dst)) == 0
        note = f"note: clipped {np.count_nonzero(over)} out-of-range samples before writing"
        assert note in capsys.readouterr().err
        codes = np.frombuffer(dst.read_bytes()[44:], dtype="<i2")
        assert np.array_equal(codes[over], np.where(y[over] > 0, 32767, -32768))
        data.wav_write(Signal(np.clip(y, -1.0, 1.0), 24000), tmp_path / "clipped.wav")
        assert dst.read_bytes() == (tmp_path / "clipped.wav").read_bytes()

    def test_model_method_needs_checkpoint(self, tmp_path, capsys):
        # and a checkpoint needs --method model: the spline would ignore it
        src = tmp_path / "in.wav"
        write_tone(src)
        for method in (["--method", "model"], ["--method", "spline", "--checkpoint", "any.ckpt"]):
            assert run("upsample", "--out", str(tmp_path), "--scale", "2", *method,
                       str(src), str(tmp_path / "o.wav")) == 1
            assert "--checkpoint goes with --method model and only with it" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_model_upsample(self, tmp_path, tiny_ckpt):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        write_tone(src, n=2048)
        code = run(
            "upsample", "--out", str(tmp_path), "--scale", "2", "--method", "model",
            "--checkpoint", str(tiny_ckpt), str(src), str(dst),
        )
        assert code == 0
        out = data.wav_read(dst)
        assert len(out) == 4096
        assert out.sample_rate == 24000

    def test_scale_mismatch_is_usage_error(self, tmp_path, tiny_ckpt, capsys):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        code = run(
            "upsample", "--out", str(tmp_path), "--scale", "4", "--method", "model",
            "--checkpoint", str(tiny_ckpt), str(src), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "upsamples by 2" in capsys.readouterr().err

    def test_unet_scale_mismatch_is_usage_error(self, tmp_path, capsys):
        cfg = models.UnetConfig(depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8)
        ckpt = tmp_path / "unet.ckpt"
        models.save_checkpoint(models.build_unet(cfg, seed=0), ckpt)
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        code = run(
            "upsample", "--out", str(tmp_path), "--scale", "4", "--method", "model",
            "--checkpoint", str(ckpt), str(src), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "upsamples by 2" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_unet_output_is_input_times_scale(self, tmp_path):
        # 2,002 target-rate samples, which 2**depth = 4 does not divide
        cfg = models.UnetConfig(depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8)
        ckpt = tmp_path / "unet.ckpt"
        models.save_checkpoint(models.build_unet(cfg, seed=0), ckpt)
        src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
        write_tone(src, n=1001)
        code = run("upsample", "--out", str(tmp_path), "--scale", "2", "--method", "model",
                   "--checkpoint", str(ckpt), str(src), str(dst))
        assert code == 0
        assert len(data.wav_read(dst)) == 2002

    def test_input_shorter_than_the_spline_minimum_names_it(self, tmp_path, capsys):
        cfg = models.UnetConfig(
            depth=4, down_filters=(4, 4, 4, 4), down_kernels=(9, 9, 9, 9), bottleneck_filters=4
        )
        ckpt = tmp_path / "unet.ckpt"
        models.save_checkpoint(models.build_unet(cfg, seed=0), ckpt)
        src = tmp_path / "in.wav"
        write_tone(src, n=3)
        code = run("upsample", "--out", str(tmp_path), "--scale", "2", "--method", "model",
                   "--checkpoint", str(ckpt), str(src), str(tmp_path / "o.wav"))
        assert code == 2
        assert "at least 4 samples, got 3" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        code = run("upsample", "--out", str(tmp_path), "--scale", "2",
                   str(tmp_path / "nope.wav"), str(tmp_path / "o.wav"))
        assert code == 2

    def test_output_under_a_file_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        (tmp_path / "afile").write_bytes(b"")
        assert run("upsample", "--out", str(tmp_path), "--scale", "2",
                   str(src), str(tmp_path / "afile" / "o.wav")) == 2
        assert "data error" in capsys.readouterr().err

    def test_out_is_required_before_any_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "wav_read", lambda *a, **k: pytest.fail("input read before the usage check"))
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        assert run("upsample", "--scale", "2", str(src), str(tmp_path / "o.wav")) == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_run_meta_in_the_output_directory_is_kept(self, tmp_path):
        src, run_dir = tmp_path / "in.wav", tmp_path / "run1"
        write_tone(src, n=512)
        run_dir.mkdir()
        meta = b"# command = train\n\n[run]\nmodel = edsr\n"
        (run_dir / "run.meta").write_bytes(meta)
        out = tmp_path / "up"
        assert run("upsample", "--out", str(out), "--scale", "2", str(src), str(run_dir / "hi.wav")) == 0
        assert (run_dir / "run.meta").read_bytes() == meta
        assert (out / "run.meta").read_text().startswith("# command = upsample\n")

    def test_run_meta_hashes_the_whole_input(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src, n=600_000)  # 1.2 MB: more than one 1 MiB block
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), str(tmp_path / "o.wav")) == 0
        digest = hashlib.sha256(src.read_bytes()).hexdigest()
        assert f"corpus_hash = sha256:{digest}\n" in (tmp_path / "run.meta").read_text()


class TestProbeCommand:
    def test_writes_three_artifacts(self, tmp_path, tiny_ckpt):
        out = tmp_path / "probe"
        code = run(
            "probe", "--checkpoint", str(tiny_ckpt), "--out", str(out),
            "--length", "4096",
        )
        assert code == 0
        for name in ("report.txt", "spec.csv", "spec.pgm", "run.meta"):
            assert (out / name).exists()

    def test_bad_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert run("probe", "--checkpoint", str(bad), "--out", str(tmp_path / "p")) == 2
        assert not (tmp_path / "p").exists()

    def test_critic_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "critic.ckpt"
        models.save_checkpoint(models.build_critic(models.CriticConfig(layers=2, base_filters=2)), ckpt)
        assert run("probe", "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")) == 2
        assert "a 'critic' model does not upsample audio" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("length", ["512", "0", "4097"])
    def test_bad_length_is_usage_error(self, tmp_path, tiny_ckpt, capsys, length):
        # 512 and 0 are shorter than one STFT frame; 4097 is not a multiple of the ratio 2
        out = tmp_path / "p"
        assert run("probe", "--checkpoint", str(tiny_ckpt), "--out", str(out), "--length", length) == 1
        err = capsys.readouterr().err
        if length == "4097":
            assert "probe length 4097 not divisible by upsample ratio 2" in err
        else:
            assert f"argument --length: must be an integer >= 2048, got {length}" in err
        assert not out.exists()

    def test_wrong_output_length_is_data_error(self, tmp_path, monkeypatch, capsys):
        class Short:
            kind, mode, upsample_ratio = "edsr", "post", 2

            def parameters(self):
                return []

            def forward(self, x):
                return dg.Tensor(np.zeros((1, 1, 2 * x.shape[-1] - 2)))

        monkeypatch.setattr(models, "load_checkpoint", lambda path: Short())
        out = tmp_path / "p"
        assert run("probe", "--checkpoint", "any.ckpt", "--out", str(out), "--length", "4096") == 2
        assert "model produced 4094 samples for a 4096-sample probe" in capsys.readouterr().err
        assert not out.exists()

    def test_run_meta_hashes_the_checkpoint_file(self, tmp_path):
        ckpt = tmp_path / "edsr.ckpt"
        models.save_checkpoint(models.build_edsr(models.EdsrConfig(filters=48, n_blocks=4)), ckpt)
        assert ckpt.stat().st_size > 1 << 20
        out = tmp_path / "p"
        assert run("probe", "--checkpoint", str(ckpt), "--out", str(out), "--length", "4096") == 0
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        text = (out / "run.meta").read_text()
        assert f"\n# checkpoint_hash = sha256:{digest}\n" in text
        assert "corpus_hash" not in text  # a probe reads no corpus


class TestEvalCommand:
    def test_spline_baseline_on_synth(self, tmp_path):
        out = tmp_path / "eval"
        code = run(
            "eval", "--spline", "--scale", "2", "--synth", "3",
            "--synth-seed", "5", "--out", str(out),
        )
        assert code == 0
        text = (out / "metrics.csv").read_text()
        assert "item_id,snr_db,lsd_db" in text
        assert "# scale = 2" in text

    def test_checkpoint_eval(self, tmp_path, tiny_ckpt):
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(tiny_ckpt), "--scale", "2",
            "--synth", "2", "--out", str(out),
        )
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_needs_checkpoint_or_spline(self, tmp_path):
        for given in ([], ["--spline", "--checkpoint", "any.ckpt"]):  # one, not neither or both
            assert run("eval", *given, "--scale", "2", "--out", str(tmp_path / "e")) == 1

    def test_scale_mismatch_is_usage_error(self, tmp_path, tiny_ckpt, capsys):
        code = run(
            "eval", "--checkpoint", str(tiny_ckpt), "--scale", "4",
            "--synth", "2", "--out", str(tmp_path / "e"),
        )
        assert code == 1
        assert "upsamples by 2" in capsys.readouterr().err

    def test_failed_run_leaves_no_out_dir(self, tmp_path, tiny_ckpt):
        out = tmp_path / "e_bad"
        assert run("eval", "--checkpoint", str(tiny_ckpt), "--scale", "4", "--out", str(out)) == 1
        assert not out.exists()

    def test_stale_manifest_count_is_data_error(self, tmp_path, capsys):
        wav = tmp_path / "p0" / "a.wav"
        wav.parent.mkdir()
        write_tone(wav, n=4096, rate=24000)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"test\tp0\t{wav}\t500\n")
        out = tmp_path / "e"
        assert run("eval", "--spline", "--scale", "2", "--manifest", str(manifest), "--out", str(out)) == 2
        assert f"{wav}: 4096 samples, but the manifest says 500" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--manifest", "M", "--synth", "5"], "--synth and --synth-seed"),
         (["--manifest", "M", "--synth-seed", "3"], "--synth and --synth-seed"),
         (["--synth", "2", "--split", "val"], "--split picks from a --manifest")],
        ids=["manifest-synth", "manifest-synth-seed", "split-without-manifest"],
    )
    def test_corpus_flags_it_would_ignore_are_usage_errors(self, tmp_path, capsys, flags, message):
        flags = [str(tmp_path / "missing.txt") if f == "M" else f for f in flags]  # read first: exit 2
        out = tmp_path / "e"
        assert run("eval", "--spline", "--scale", "2", *flags, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_run_meta_records_the_seed_or_the_split(self, tmp_path):
        # the corpus flags as resolved: a flag left out is recorded with the value it took
        assert run("eval", "--spline", "--scale", "2", "--out", str(tmp_path / "s")) == 0
        lines = (tmp_path / "s" / "run.meta").read_text().splitlines()
        for line in ("# synth = 16", "# synth_seed = 99", "# split = none", "# manifest = none"):
            assert line in lines
        wav = tmp_path / "p0" / "a.wav"
        wav.parent.mkdir()
        write_tone(wav, n=4096, rate=24000)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"test\tp0\t{wav}\t4096\n")
        assert run("eval", "--spline", "--scale", "2", "--manifest", str(manifest), "--out", str(tmp_path / "m")) == 0
        lines = (tmp_path / "m" / "run.meta").read_text().splitlines()
        for line in ("# split = test", f"# manifest = {manifest}", "# synth = none", "# synth_seed = none"):
            assert line in lines

    def test_short_last_item_fails_before_any_reconstruction(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "p0").mkdir()
        lines = []
        for name, n in (("a", 4096), ("b", 2000)):
            write_tone(tmp_path / "p0" / f"{name}.wav", n=n, rate=24000)
            lines.append(f"test\tp0\t{tmp_path / 'p0' / name}.wav\t{n}\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(lines))
        calls = []
        monkeypatch.setattr(metrics, "reconstruct", lambda *args: calls.append(args))
        out = tmp_path / "e"
        assert run("eval", "--spline", "--scale", "2", "--manifest", str(manifest), "--out", str(out)) == 2
        assert "only 2000 comparable samples, need at least one STFT frame (2048)" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_mode_flag_is_gone(self, tmp_path, tiny_ckpt):
        code = run(
            "eval", "--checkpoint", str(tiny_ckpt), "--scale", "2", "--mode", "post",
            "--synth", "2", "--out", str(tmp_path / "e"),
        )
        assert code == 1
        assert not (tmp_path / "e").exists()

    def test_mode_follows_the_checkpoint(self, tmp_path):
        cfg = models.UnetConfig(depth=2, down_filters=(4, 8), down_kernels=(9, 9), bottleneck_filters=8)
        ckpt = tmp_path / "unet.ckpt"
        models.save_checkpoint(models.build_unet(cfg, seed=0), ckpt)
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--scale", "2", "--synth", "2", "--out", str(out)) == 0
        assert "# mode = pre" in (out / "metrics.csv").read_text()


class TestPrepareAndTrain:
    def build_corpus(self, root, speakers=3):
        rng = np.random.default_rng(0)
        for s in range(speakers):
            d = root / f"p{s:03d}"
            d.mkdir(parents=True)
            for u in range(2):
                x = rng.normal(0, 0.1, 24000)
                data.wav_write(Signal(np.clip(x, -1, 1), 48000), d / f"u{u}.wav")

    def test_prepare_decimates_and_writes_manifest(self, tmp_path):
        root = tmp_path / "raw"
        self.build_corpus(root)
        out = tmp_path / "prepared"
        code = run(
            "prepare", "--root", str(root), "--out", str(out),
            "--target-rate", "12000", "--ratios", "0.5,0.25,0.25", "--seed", "1",
        )
        assert code == 0
        index = data.CorpusIndex.read_manifest(out / "manifest.txt")
        assert len(index.entries) == 6
        first = data.wav_read(index.entries[0].path)
        assert first.sample_rate == 12000
        assert len(first) == 6000

    @pytest.mark.parametrize("ratios", ["abc", "0.5,0.5,0.5", "0.5,0.5", "nan,0,1"])
    def test_prepare_bad_ratios_is_usage_error_before_any_write(self, tmp_path, ratios):
        root = tmp_path / "raw"
        self.build_corpus(root, speakers=1)
        out = tmp_path / "prepared"
        code = run("prepare", "--root", str(root), "--out", str(out), "--ratios", ratios)
        assert code == 1
        assert not out.exists()

    def test_prepare_empty_root_is_data_error(self, tmp_path):
        (tmp_path / "raw").mkdir()
        assert run("prepare", "--root", str(tmp_path / "raw"), "--out", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()

    def test_prepare_into_a_used_out_lists_only_this_run(self, tmp_path):
        self.build_corpus(tmp_path / "a", speakers=2)
        self.build_corpus(tmp_path / "b", speakers=1)
        out = tmp_path / "prepared"
        assert run("prepare", "--root", str(tmp_path / "a"), "--out", str(out)) == 0
        assert run("prepare", "--root", str(tmp_path / "b"), "--out", str(out)) == 0
        index = data.CorpusIndex.read_manifest(out / "manifest.txt")
        assert [e.path for e in index.entries] == [str(out / "audio" / "p000" / f"u{u}.wav") for u in range(2)]

    def test_manifest_paths_are_relative_to_the_manifest(self, tmp_path, monkeypatch):
        # prepared with a relative --out, then read from a sibling directory and after a move
        self.build_corpus(tmp_path / "w" / "T", speakers=1)
        (tmp_path / "v").mkdir()
        monkeypatch.chdir(tmp_path / "w")
        assert run("prepare", "--root", "T", "--out", "O", "--ratios", "0,0,1") == 0
        assert "\taudio/p000/u0.wav\t" in (Path("O") / "manifest.txt").read_text()
        monkeypatch.chdir(tmp_path / "v")
        eval_args = ("eval", "--spline", "--scale", "2", "--out", "E")
        assert run(*eval_args, "--manifest", "../w/O/manifest.txt") == 0
        (tmp_path / "w" / "O").rename(tmp_path / "moved")
        assert run(*eval_args, "--manifest", "../moved/manifest.txt") == 0

    def test_prepare_sources_sharing_an_output_path_is_data_error(self, tmp_path, capsys):
        for top in ("x", "y"):
            self.build_corpus(tmp_path / "raw" / top, speakers=1)
        out = tmp_path / "prepared"
        assert run("prepare", "--root", str(tmp_path / "raw"), "--out", str(out)) == 2
        first, second = (tmp_path / "raw" / top / "p000" / "u0.wav" for top in ("x", "y"))  # the first pair
        assert f"{first} and {second}" in capsys.readouterr().err
        assert not out.exists()

    def test_prepare_notes_and_records_clipped_samples(self, tmp_path, capsys):
        # a full-scale 1 kHz square wave at 48 kHz rings past +-1 when decimated to 12 kHz
        square = np.sign(np.sin(2 * np.pi * 1000 * np.arange(9600) / 48000))
        (tmp_path / "sq" / "p0").mkdir(parents=True)
        data.wav_write(Signal(square, 48000), tmp_path / "sq" / "p0" / "u0.wav")
        assert run("prepare", "--root", str(tmp_path / "sq"), "--out", str(tmp_path / "a")) == 0
        assert "note: clipped 800 out-of-range samples before writing" in capsys.readouterr().err
        assert "# clipped = 800" in (tmp_path / "a" / "run.meta").read_text().splitlines()
        self.build_corpus(tmp_path / "noise")  # peaks far below full scale
        assert run("prepare", "--root", str(tmp_path / "noise"), "--out", str(tmp_path / "b")) == 0
        assert "note:" not in capsys.readouterr().err
        assert "# clipped = 0" in (tmp_path / "b" / "run.meta").read_text().splitlines()

    def test_prepare_train_and_eval_record_one_corpus_hash(self, tmp_path):
        self.build_corpus(tmp_path / "raw")
        prep = tmp_path / "prepared"
        assert run("prepare", "--root", str(tmp_path / "raw"), "--out", str(prep), "--ratios", "0.34,0.33,0.33") == 0
        manifest = prep / "manifest.txt"
        (tmp_path / "run.cfg").write_text(
            self.TRAIN_RUN.replace("synth_count = 4\nsynth_length = 2048\n", f"manifest = {manifest}\n"))
        assert run("train", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "t")) == 0
        assert run("eval", "--spline", "--scale", "2", "--manifest", str(manifest), "--out", str(tmp_path / "e")) == 0

        def corpus_hash(out):
            return [line for line in (out / "run.meta").read_text().splitlines() if line.startswith("# corpus_hash")]

        digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert corpus_hash(prep) == corpus_hash(tmp_path / "t") == corpus_hash(tmp_path / "e") == [
            f"# corpus_hash = sha256:{digest}"]

    def test_prepare_reads_each_source_once(self, tmp_path, monkeypatch):
        self.build_corpus(tmp_path / "raw")
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
        assert run("prepare", "--root", str(tmp_path / "raw"), "--out", str(tmp_path / "o")) == 0
        assert sorted(reads) == sorted((tmp_path / "raw").rglob("*.wav"))

    TRAIN_RUN = (
        "[run]\nmodel = edsr\n"
        "[model]\nfilters = 4\nn_blocks = 1\n"
        "[train]\nsteps = 3\nbatch_size = 2\npatch_length = 256\nseed = 3\n"
        "[data]\nsynth_count = 4\nsynth_length = 2048\n"
    )
    GAN_RUN = (
        "[run]\nmodel = unet\n"
        "[model]\ndepth = 2\ndown_filters = 4,8\ndown_kernels = 9,9\nbottleneck_filters = 8\nscale = 2\n"
        "[critic]\nlayers = 2\nbase_filters = 4\nkernel = 9\n"
        "[train]\nsteps = 1\nbatch_size = 2\npatch_length = 256\n"
        "[gan]\nn_critic = 2\n"
        "[data]\nsynth_count = 4\nsynth_length = 1024\n"
    )

    def test_train_from_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(self.TRAIN_RUN)
        out = tmp_path / "run"
        assert run("train", "--config", str(cfgfile), "--out", str(out)) == 0
        assert (out / "final.ckpt").exists()
        assert (out / "trainlog.csv").exists()
        assert (out / "run.meta").exists()
        loaded = models.load_checkpoint(out / "final.ckpt")
        assert loaded.kind == "edsr"
        assert loaded.train_step == 3

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[train]\nsteps = 1\nbogus_key = 5\n")
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        assert "bogus_key" in capsys.readouterr().err

    # small enough to train in a moment should a bad key ever be ignored
    TINY_RUN = (
        "[model]\nfilters = 4\nn_blocks = 1\n"
        "[train]\nsteps = 1\nbatch_size = 1\npatch_length = 256\n"
        "[data]\nsynth_count = 2\nsynth_length = 1024\n"
    )

    def test_run_kind_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmodel = edsr\nkind = banana\n" + self.TINY_RUN)
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        assert "'kind'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, bad",
        [("filters = 4", "filters = x"), ("filters = 4", "filters = 0"),
         ("steps = 1", "steps = 1.5"), ("steps = 1", "steps = 1\nloss = l3"),
         ("steps = 1", "steps = 1\nscale = 4"), ("synth_count = 2", "synth_count = x"),
         ("synth_count = 2", "synth_count = 2\nsynth_seed = 1.5"),
         ("synth_count = 2", "synth_count = 2\nbogus = 1")],
    )
    def test_bad_section_value_is_usage_error(self, tmp_path, line, bad):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmodel = edsr\n" + self.TINY_RUN.replace(line, bad))
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize(
        "text",
        [b"[model]\nfilters = 4\nfilters = 8\n", b"[model]\nfilters = 4\n[model]\nn_blocks = 1\n",
         b"filters = 4\n[model]\n", b"[run]\nmodel = \xff\n"],
        ids=["duplicate-key", "duplicate-section", "missing-section-header", "not-utf-8"],
    )
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(text)
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        assert "malformed config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, bad, code",
        [("steps = 1", "steps = 1\nscale = 4", 1), ("patch_length = 256", "patch_length = 4096", 2),
         ("patch_length = 256", "patch_length = 255", 1), ("steps = 1", "steps = 1\nmode = pre", 1),
         ("steps = 1", "steps = 1\nlr = 0", 1), ("steps = 1", "steps = 1\nbeta1 = 1.0", 1),
         ("synth_count = 2", "synth_count = 0", 1), ("steps = 1", "steps = 1\nseed = -1", 1),
         ("synth_count = 2", "synth_count = 2\nsynth_seed = -1", 1),
         ("synth_count = 2", "synth_count = 2\nmanifest = missing.txt\nsplit = foo", 1)],
        ids=["scale-mismatch", "corpus-too-short", "patch-length-conflict", "mode-conflict",
             "zero-lr", "beta1-one", "no-synth-items", "negative-seed", "negative-synth-seed",
             "unknown-split"],
    )
    def test_failed_train_leaves_no_out_dir(self, tmp_path, line, bad, code):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmodel = edsr\n" + self.TINY_RUN.replace(line, bad))
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, line, bad",
        [("train", "steps = 1", "steps = 1\nlr = nan"), ("train", "steps = 1", "steps = 1\nlr = inf"),
         ("train-gan", "n_critic = 1", "n_critic = 1\ngp_weight = inf")],
        ids=["nan-lr", "inf-lr", "inf-gp-weight"],
    )
    def test_non_finite_value_is_usage_error_before_the_corpus(self, tmp_path, monkeypatch, capsys,
                                                               command, line, bad):
        def unreachable(*args, **kwargs):
            raise AssertionError("the corpus was made before the config was checked")

        monkeypatch.setattr(data, "synth_signals", unreachable)
        base = self.TINY_RUN if command == "train" else self.TINY_GAN_RUN
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(base.replace(line, bad))
        assert run(command, "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(example)
        cfg = cli._load_run_config(cfgfile, want_gan=False)
        assert list(cfg) == ["run", "model", "train", "data"]
        assert (cfg["run"]["model"], cfg["model"].n_blocks, cfg["train"].loss, cfg["data"].split) == (
            "edsr", 32, "l2", "train")

    def test_unknown_section_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mystery]\nx = 1\n")
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1

    def test_train_gan_from_config(self, tmp_path):
        cfgfile = tmp_path / "gan.cfg"
        cfgfile.write_text(self.GAN_RUN)
        out = tmp_path / "gan"
        assert run("train-gan", "--config", str(cfgfile), "--out", str(out)) == 0
        assert (out / "generator.ckpt").exists()
        assert (out / "critic.ckpt").exists()
        # run.meta loads back as the run's config
        cfg = cli._load_run_config(out / "run.meta", want_gan=True)
        assert list(cfg) == ["run", "model", "critic", "train", "gan", "data"]
        unet, base, gan, critic = cfg["model"], cfg["train"], cfg["gan"], cfg["critic"]
        assert (cfg["run"]["model"], unet.down_filters, base.loss, gan.n_critic, gan.warm_start) == (
            "unet", (4, 8), None, 2, None)
        assert (critic.layers, critic.base_filters) == (2, 4)

    @pytest.mark.parametrize(
        "command, config, ckpts",
        [("train", TRAIN_RUN, ["final.ckpt"]), ("train-gan", GAN_RUN, ["generator.ckpt", "critic.ckpt"])],
        ids=["train", "train-gan"],
    )
    def test_run_meta_reruns_the_run(self, tmp_path, command, config, ckpts):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(command, "--config", str(cfgfile), "--out", str(a)) == 0
        assert run(command, "--config", str(a / "run.meta"), "--out", str(b)) == 0
        for name in ckpts:
            assert (a / name).read_bytes() == (b / name).read_bytes()

        def losses(out):  # trainlog.csv without its wall-time column
            return [line.rsplit(",", 1)[0] for line in (out / "trainlog.csv").read_text().splitlines()]

        assert losses(a) == losses(b)
        assert (a / "run.meta").read_bytes() == (b / "run.meta").read_bytes()

    # a valid tiny GAN run, apart from what each case below changes in it
    TINY_GAN_RUN = (
        "[model]\ndepth = 1\ndown_filters = 4\ndown_kernels = 9\nbottleneck_filters = 4\n"
        "[train]\nsteps = 1\nbatch_size = 1\npatch_length = 256\n"
        "[gan]\nn_critic = 1\n"
        "[data]\nsynth_count = 2\nsynth_length = 1024\n"
    )

    @pytest.mark.parametrize(
        "line, bad, code",
        [("steps = 1", "steps = 1\nscale = 4", 1),
         ("n_critic = 1", "n_critic = 1\nwarm_start = {missing}", 2)],
        ids=["scale-mismatch", "missing-warm-start"],
    )
    def test_failed_train_gan_leaves_no_out_dir(self, tmp_path, line, bad, code):
        cfgfile = tmp_path / "gan.cfg"
        text = self.TINY_GAN_RUN.replace(line, bad).format(missing=tmp_path / "missing.ckpt")
        cfgfile.write_text(text)
        out = tmp_path / "gan"
        assert run("train-gan", "--config", str(cfgfile), "--out", str(out)) == code
        assert not out.exists()


# a valid tiny config; [critic] and [gan] are read by train-gan only
FUZZ_LINES = [
    "[run]", "model = unet",
    "[model]", "depth = 2", "down_filters = 4,8", "down_kernels = 9,9", "bottleneck_filters = 8",
    "[train]", "steps = 1", "batch_size = 1", "patch_length = 256",
    "[data]", "synth_count = 2", "synth_length = 1024", "synth_kinds = sine,chirp",
]
FUZZ_GAN_LINES = ["[critic]", "layers = 2", "[gan]", "n_critic = 1"]
NAMES = st.from_regex(r"[a-z_]{1,10}", fullmatch=True)
JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)


@st.composite
def mutated_configs(draw):
    want_gan = draw(st.booleans())
    lines = FUZZ_LINES + (FUZZ_GAN_LINES if want_gan else [])
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    keys = [i for i, line in enumerate(lines) if " = " in line]
    at = draw(st.integers(0, len(lines)))
    kind = draw(st.sampled_from(
        ["unchanged", "dup-line", "drop-header", "dup-header", "junk-value", "new-key", "new-section"]
    ))
    if kind == "dup-line":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i + 1, lines[i])
    elif kind == "drop-header":
        del lines[draw(st.sampled_from(headers))]
    elif kind == "dup-header":
        lines.insert(at, lines[draw(st.sampled_from(headers))])
    elif kind == "junk-value":
        i = draw(st.sampled_from(keys))
        lines[i] = lines[i].split(" = ")[0] + " = " + draw(JUNK)
    elif kind == "new-key":
        lines.insert(at, f"{draw(NAMES)} = {draw(JUNK)}")
    elif kind == "new-section":
        lines.insert(at, f"[{draw(NAMES)}]")
    return "\n".join(lines) + "\n", want_gan


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=mutated_configs())
    def test_parses_or_raises_usage_error(self, tmp_path_factory, case):
        text, want_gan = case
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            parsed = cli._load_run_config(path, want_gan)
        except cli.UsageError:
            return
        assert isinstance(parsed["data"], cli.DataConfig)


class TestCompareLosses:
    RUN = (
        "[run]\nmodel = edsr\n"
        "[model]\nfilters = 4\nn_blocks = 1\n"
        "[train]\nsteps = 2\nbatch_size = 2\npatch_length = 512\nseed = 7\n"
        "[data]\nsynth_count = 4\nsynth_length = 2048\n"
    )

    def compare(self, tmp_path, text, out="cmp"):
        cfgfile = tmp_path / "cmp.cfg"
        cfgfile.write_text(text)
        return run("compare-losses", "--config", str(cfgfile), "--out", str(tmp_path / out))

    def test_emits_table_shaped_csv(self, tmp_path):
        assert self.compare(tmp_path, self.RUN) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[:5] == ["# model = edsr", "# scale = 2", "# steps = 2", "# seed = 7",
                             "loss,snr_mean,snr_std,lsd_mean,lsd_std"]
        assert [line.split(",")[0] for line in lines[5:]] == ["l1", "l2"]

    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys):
        # the config's 2x EDSR rejects scale 3 with its own message
        assert self.compare(tmp_path, self.RUN.replace("seed = 7", "seed = 7\nscale = 3")) == 1
        assert "model upsamples by 2, but scale 3 was requested" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_loss_key_is_usage_error(self, tmp_path, capsys, loss):
        assert self.compare(tmp_path, self.RUN.replace("seed = 7", f"seed = 7\nloss = {loss}")) == 1
        assert "compare-losses sets the loss itself" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_run_meta_reruns_the_comparison(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.compare(tmp_path, self.RUN, out="a") == 0
        assert run("compare-losses", "--config", str(a / "run.meta"), "--out", str(b)) == 0
        assert list(cli._read_config(a / "run.meta")) == ["run", "model", "train", "data"]
        for name in ("compare.csv", "run.meta"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_both_corpora_load_before_training(self, tmp_path, monkeypatch):
        events = []
        load, fit = cli._load_corpus, train.train_supervised
        monkeypatch.setattr(cli, "_load_corpus", lambda cfg: events.append(cfg) or load(cfg))
        monkeypatch.setattr(train, "train_supervised",
                            lambda m, corpus, cfg: events.append(cfg.loss) or fit(m, corpus, cfg))
        assert self.compare(tmp_path, self.RUN) == 0
        fitted, held_out, *losses = events
        # the held-out corpus is the test split of [data], synthesised one seed on
        assert held_out == replace(fitted, split="test", synth_seed=fitted.synth_seed + 1)
        assert losses == ["l1", "l2"]

    @pytest.mark.parametrize("run_cfg, scored", [
        (RUN.replace("synth_length = 2048", "synth_length = 1024"), 1024),
        # a 3x reconstruction of 2,048 samples has 3 * 682 = 2,046
        (RUN.replace("model = edsr", "model = unet").replace("filters = 4\nn_blocks = 1", "scale = 3")
            .replace("seed = 7", "seed = 7\nscale = 3"), 2046),
    ], ids=["short", "scale-3"])
    def test_short_held_out_item_fails_before_training(self, tmp_path, capsys, monkeypatch, run_cfg, scored):
        fits = []
        monkeypatch.setattr(train, "train_supervised", lambda *args: fits.append(args))
        assert self.compare(tmp_path, run_cfg) == 2
        assert f"item 0: only {scored} comparable samples, need at least one STFT frame (2048)" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "cmp").exists()

    def test_flags_are_config_and_out(self):
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = [s for a in sub.choices["compare-losses"]._actions for s in a.option_strings]
        assert options == ["-h", "--help", "--config", "--out"]

    def test_readme_config_is_the_toy_run(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n")[2].split("```", 1)[0]
        (tmp_path / "cmp.cfg").write_text(example)
        cfg = cli._load_run_config(tmp_path / "cmp.cfg", want_gan=False)
        kind, m, t, d = cfg["run"]["model"], cfg["model"], cfg["train"], cfg["data"]
        assert (kind, m.filters, m.n_blocks, m.upsample_stages) == ("edsr", 16, 2, 1)
        assert (t.steps, t.batch_size, t.patch_length, t.lr, t.seed, t.loss) == (500, 8, 1024, 1e-3, 7, None)
        assert (d.synth_count, d.synth_length, d.synth_seed) == (64, 2048, 8)


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self):
        assert run("eval", "--scale", "2", "--frobnicate") == 1

    def test_usage_error_on_missing_subcommand(self):
        assert run() == 1

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        cfgfile = tmp_path / "blowup.cfg"
        cfgfile.write_text(
            "[run]\nmodel = edsr\n"
            "[model]\nfilters = 4\nn_blocks = 1\n"
            "[train]\nsteps = 3\nbatch_size = 1\npatch_length = 256\nlr = 1e200\n"
            "[data]\nsynth_count = 2\nsynth_length = 1024\n"
        )
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 3
        assert "numeric failure" in capsys.readouterr().err
        # the steps that finished before the abort are logged
        rows = [line for line in (tmp_path / "o" / "trainlog.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert rows
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)

    def test_numeric_failure_of_train_gan_keeps_its_log(self, tmp_path, capsys):
        cfgfile = tmp_path / "blowup.cfg"
        cfgfile.write_text(
            "[run]\nmodel = unet\n"
            "[model]\ndepth = 1\ndown_filters = 4\ndown_kernels = 9\nbottleneck_filters = 4\n"
            "[critic]\nlayers = 2\nbase_filters = 4\nkernel = 9\n"
            "[train]\nsteps = 3\nbatch_size = 1\npatch_length = 256\nlr = 1e80\n"
            "[gan]\nn_critic = 1\n"
            "[data]\nsynth_count = 2\nsynth_length = 1024\n"
        )
        assert run("train-gan", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 3
        assert "numeric failure" in capsys.readouterr().err
        rows = [line for line in (tmp_path / "o" / "trainlog.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert rows
        assert all(np.isfinite([float(v) for v in row.split(",")[1:4]]).all() for row in rows)

    @pytest.mark.parametrize(
        "argv, edit, message",
        [(["eval", "--spline", "--scale", "2", "--synth", "0"], None, "--synth: must be an integer >= 1"),
         (["compare-losses"], ("seed = 7", "seed = 7\nlr = 0"), "alpha and eps must be positive"),
         (["compare-losses"], ("batch_size = 2", "batch_size = 0"), "batch_size must be >= 1")],
        ids=["eval-no-synth-items", "compare-losses-zero-lr", "compare-losses-zero-batch"],
    )
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, argv, edit, message):
        if edit:  # compare-losses reads its values from a config file
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(TestCompareLosses.RUN.replace(*edit))
            argv = argv + ["--config", str(cfgfile)]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_wav_is_still_a_data_error(self, tmp_path):
        src = tmp_path / "in.wav"
        src.write_bytes(b"RIFF0000WAVEjunk")
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), str(tmp_path / "o.wav")) == 2

    def test_run_meta_deterministic(self, tmp_path):
        metas = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "eval", "--spline", "--scale", "2", "--synth", "2",
                "--synth-seed", "3", "--out", str(out),
            ) == 0
            metas.append((out / "run.meta").read_bytes())
        assert metas[0] == metas[1]


class TestScaleFlag:
    """``--scale`` below 2 is a usage error, found before any input is made or read."""

    @pytest.fixture(autouse=True)
    def no_input(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("input was made or read before the flag check")

        monkeypatch.setattr(data, "synth_signals", unreachable)
        monkeypatch.setattr(data, "wav_read", unreachable)

    @pytest.mark.parametrize("scale", ["1", "0", "-2"])
    def test_eval(self, tmp_path, capsys, scale):
        out = tmp_path / "e"
        assert run("eval", "--spline", "--scale", scale, "--synth", "2", "--out", str(out)) == 1
        assert f"--scale: must be an integer >= 2, got {scale}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1", "0"])
    def test_upsample(self, tmp_path, capsys, scale):
        src = tmp_path / "in.wav"
        src.write_bytes(b"")
        assert run("upsample", "--out", str(tmp_path), "--scale", scale,
                   str(src), str(tmp_path / "o.wav")) == 1
        assert f"--scale: must be an integer >= 2, got {scale}" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()


class TestFlagEdgeValues:
    """A flag value outside its domain is a usage error from the parser, found
    before any input is read or ``--out`` is made: every input path here is
    missing, so a later check would exit 2."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("probe", "--length", "0"), ("probe", "--length", "-1"), ("probe", "--length", "2047"),
         ("probe", "--rate", "0"), ("probe", "--rate", "-1"), ("probe", "--rate", "1.5"),
         ("probe", "--threshold", "nan"), ("probe", "--threshold", "inf"),
         ("probe", "--threshold", "-inf"), ("probe", "--threshold", "1e309"),
         ("prepare", "--target-rate", "0"), ("prepare", "--target-rate", "-1"),
         ("prepare", "--seed", "-1"), ("prepare", "--ratios", "0.5,0.5"), ("eval", "--scale", "0"),
         ("eval", "--scale", "-1"), ("eval", "--synth", "0"), ("eval", "--synth", "-1"),
         ("eval", "--synth-seed", "-1"), ("eval", "--split", "foo"), ("upsample", "--scale", "0"),
         ("upsample", "--scale", "-1"), ("train", "--progress-every", "-1")],
    )
    def test_exits_1_with_no_out(self, tmp_path, capsys, command, flag, value):
        missing = tmp_path / "missing"
        base = {
            "probe": ["--checkpoint", str(missing / "a.ckpt"), "--length", "4096"],
            "prepare": ["--root", str(missing)],
            "eval": ["--spline", "--scale", "2", "--manifest", str(missing / "manifest.txt")],
            "upsample": ["--scale", "2", str(missing / "in.wav"), str(tmp_path / "o.wav")],
            "train": ["--config", str(missing / "run.cfg")],
        }[command]
        out = tmp_path / "out"
        # "--flag=value", since argparse reads a lone "-inf" as an option
        assert run(command, *base, f"{flag}={value}", "--out", str(out)) == 1
        assert f"usage error: argument {flag}: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "o.wav").exists()

    def test_no_numeric_flag_skips_its_domain(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in sub.choices.values():
            for action in command._actions:
                assert action.type not in (int, float), f"{command.prog} {action.option_strings}"


class TestOutputHeaders:
    def test_stft_lines_are_pinned(self, tmp_path, tiny_ckpt):
        # metrics.csv and report.txt name the STFT that scored them
        assert run("eval", "--spline", "--scale", "2", "--synth", "2", "--out", str(tmp_path / "e")) == 0
        lines = (tmp_path / "e" / "metrics.csv").read_text().splitlines()
        assert [line for line in lines if line.startswith("# stft.")] == [
            "# stft.frame_length = 2048",
            "# stft.hop = 512",
            "# stft.window = hann",
            "# stft.power_floor = 1e-10",
        ]
        out = tmp_path / "p"
        assert run("probe", "--checkpoint", str(tiny_ckpt), "--out", str(out), "--length", "4096") == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("stft:")] == [
            "stft: frame=2048 hop=512 window=hann floor=1e-10"
        ]


class TestRunMeta:
    """Every command's run.meta parses as a config file: a training run's holds
    the sections that re-run it, any other command's only comment lines."""

    @pytest.mark.parametrize(
        "command", ["prepare", "train", "train-gan", "eval", "upsample", "compare-losses", "probe"]
    )
    def test_parses_as_a_config(self, tmp_path, tiny_ckpt, command):
        TestPrepareAndTrain().build_corpus(tmp_path / "raw")
        (tmp_path / "train.cfg").write_text(TestPrepareAndTrain.TRAIN_RUN)
        (tmp_path / "gan.cfg").write_text(TestPrepareAndTrain.GAN_RUN)
        (tmp_path / "cmp.cfg").write_text(TestCompareLosses.RUN)
        write_tone(tmp_path / "in.wav", n=2048)
        argv = {
            "prepare": ["--root", str(tmp_path / "raw")],
            "train": ["--config", str(tmp_path / "train.cfg")],
            "train-gan": ["--config", str(tmp_path / "gan.cfg")],
            "eval": ["--spline", "--scale", "2", "--synth", "2"],
            "upsample": ["--scale", "2", str(tmp_path / "in.wav"), str(tmp_path / "o.wav")],
            "compare-losses": ["--config", str(tmp_path / "cmp.cfg")],
            "probe": ["--checkpoint", str(tiny_ckpt), "--length", "4096"],
        }[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--out", str(out)) == 0
        text = (out / "run.meta").read_text()
        assert text.startswith(f"# command = {command}\n")
        # every flag is recorded but those that say where it writes, what configured it
        # and how often it prints
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "out", "config", "progress_every"}
        for dest in dests:
            assert f"\n# {dest} = " in text, dest
        sections = {
            "train": ["run", "model", "train", "data"],
            "train-gan": ["run", "model", "critic", "train", "gan", "data"],
            "compare-losses": ["run", "model", "train", "data"],
        }.get(command, [])
        assert list(cli._read_config(out / "run.meta")) == sections

    def test_records_versions_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert run("eval", "--spline", "--scale", "2", "--synth", "2", "--out", str(out)) == 0
        lines = (out / "run.meta").read_text().splitlines()
        python = "{}.{}.{}".format(*sys.version_info[:3])
        for line in (f"# python = {python}", f"# numpy = {np.__version__}",
                     f"# scipy = {scipy.__version__}", "# OMP_NUM_THREADS = unset",
                     "# OPENBLAS_NUM_THREADS = 1", "# MKL_NUM_THREADS = unset"):
            assert line in lines


class TestRepeatedCalls:
    """main() builds its parser once per process; no call leaves state behind."""

    def test_parser_is_built_once(self, tmp_path, tiny_ckpt, monkeypatch):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        (tmp_path / "empty").mkdir()
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), str(tmp_path / "a.wav")) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        codes = [
            run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), str(tmp_path / "b.wav")),
            run("eval", "--spline", "--scale", "2", "--synth", "2", "--out", str(tmp_path / "e")),
            run("probe", "--checkpoint", str(tiny_ckpt), "--length", "2048", "--out", str(tmp_path / "p")),
            run("prepare", "--root", str(tmp_path / "empty"), "--out", str(tmp_path / "c")),
            run("train", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "t")),
        ]
        assert codes == [0, 0, 0, 2, 1]
        assert built == []

    def test_downmix_does_not_carry_over(self, tmp_path):
        src = tmp_path / "stereo.wav"
        with wave.open(str(src), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(12000)
            w.writeframes((np.arange(1024, dtype="<i2") * 16).tobytes())
        dst = str(tmp_path / "out.wav")
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", "--downmix", str(src), dst) == 0
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), dst) == 2

    def test_checkpoint_does_not_carry_over(self, tmp_path, tiny_ckpt):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        dst = str(tmp_path / "out.wav")
        model = ("upsample", "--out", str(tmp_path), "--scale", "2", "--method", "model")
        assert run(*model, "--checkpoint", str(tiny_ckpt), str(src), dst) == 0
        assert run(*model, str(src), dst) == 1

    def test_usage_error_does_not_carry_over(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        dst = str(tmp_path / "out.wav")
        assert run("upsample", "--out", str(tmp_path), "--scale", "2",
                   "--method", "cubic", str(src), dst) == 1
        assert run("upsample", "--out", str(tmp_path), "--scale", "2", str(src), dst) == 0
