import argparse
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiosr import cli, data, models, train
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
        assert run("upsample", "--scale", "2", "--method", "spline", str(src), str(dst)) == 0
        out = data.wav_read(dst)
        assert len(out) == 8192
        assert out.sample_rate == 24000
        assert (tmp_path / "run.meta").exists()

    def test_model_method_needs_checkpoint(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src)
        code = run("upsample", "--scale", "2", "--method", "model", str(src), str(tmp_path / "o.wav"))
        assert code == 1

    def test_model_upsample(self, tmp_path, tiny_ckpt):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        write_tone(src, n=2048)
        code = run(
            "upsample", "--scale", "2", "--method", "model",
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
            "upsample", "--scale", "4", "--method", "model",
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
            "upsample", "--scale", "4", "--method", "model",
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
        code = run("upsample", "--scale", "2", "--method", "model", "--checkpoint", str(ckpt), str(src), str(dst))
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
        code = run("upsample", "--scale", "2", "--method", "model", "--checkpoint", str(ckpt), str(src), str(tmp_path / "o.wav"))
        assert code == 2
        assert "at least 4 samples, got 3" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        code = run("upsample", "--scale", "2", str(tmp_path / "nope.wav"), str(tmp_path / "o.wav"))
        assert code == 2


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
        assert run("eval", "--scale", "2", "--out", str(tmp_path / "e")) == 1

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

    def test_train_from_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[run]\n"
            "model = edsr\n"
            "[model]\n"
            "filters = 4\n"
            "n_blocks = 1\n"
            "[train]\n"
            "steps = 3\n"
            "batch_size = 2\n"
            "patch_length = 256\n"
            "seed = 3\n"
            "[data]\n"
            "synth_count = 4\n"
            "synth_length = 2048\n"
        )
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
         ("patch_length = 256", "patch_length = 255", 1), ("steps = 1", "steps = 1\nmode = pre", 1)],
        ids=["scale-mismatch", "corpus-too-short", "patch-length-conflict", "mode-conflict"],
    )
    def test_failed_train_leaves_no_out_dir(self, tmp_path, line, bad, code):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmodel = edsr\n" + self.TINY_RUN.replace(line, bad))
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == code
        assert not (tmp_path / "o").exists()

    def test_unknown_section_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mystery]\nx = 1\n")
        assert run("train", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1

    def test_train_gan_from_config(self, tmp_path):
        cfgfile = tmp_path / "gan.cfg"
        cfgfile.write_text(
            "[run]\n"
            "model = unet\n"
            "[model]\n"
            "depth = 2\n"
            "down_filters = 4,8\n"
            "down_kernels = 9,9\n"
            "bottleneck_filters = 8\n"
            "scale = 2\n"
            "[critic]\n"
            "layers = 2\n"
            "base_filters = 4\n"
            "kernel = 9\n"
            "[train]\n"
            "steps = 1\n"
            "batch_size = 2\n"
            "patch_length = 256\n"
            "[gan]\n"
            "n_critic = 2\n"
            "[data]\n"
            "synth_count = 4\n"
            "synth_length = 1024\n"
        )
        out = tmp_path / "gan"
        assert run("train-gan", "--config", str(cfgfile), "--out", str(out)) == 0
        assert (out / "generator.ckpt").exists()
        assert (out / "critic.ckpt").exists()
        # run.meta's config decodes back into the run's configs
        meta = dict(line.split(" = ", 1) for line in (out / "run.meta").read_text().splitlines())
        sections = {}
        for pair in meta["config"].split(";"):
            key, _, val = pair.partition("=")
            name, _, field = key.partition(".")
            sections.setdefault(name, {})[field] = val
        unet = models.decode_config(models.UnetConfig, sections["UnetConfig"])
        base = models.decode_config(train.TrainConfig, sections["TrainConfig"])
        gan = models.decode_config(train.GanConfig, sections["GanConfig"], base=base)
        assert (unet.down_filters, base.loss, gan.n_critic, gan.warm_start) == ((4, 8), None, 2, None)

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
        assert isinstance(parsed[5], cli.DataConfig)


class TestCompareLosses:
    def test_emits_table_shaped_csv(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(
            "compare-losses", "--model", "edsr", "--steps", "3", "--seed", "7",
            "--synth", "4", "--patch", "512", "--batch", "2", "--out", str(out),
        )
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "loss,snr_mean,snr_std,lsd_mean,lsd_std"
        assert body[1].startswith("l1,")
        assert body[2].startswith("l2,")

    def test_failed_run_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare-losses", "--model", "edsr", "--scale", "3", "--out", str(out)) == 1
        assert not out.exists()


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


class TestRepeatedCalls:
    """main() builds its parser once per process; no call leaves state behind."""

    def test_parser_is_built_once(self, tmp_path, tiny_ckpt, monkeypatch):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        (tmp_path / "empty").mkdir()
        assert run("upsample", "--scale", "2", str(src), str(tmp_path / "a.wav")) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        codes = [
            run("upsample", "--scale", "2", str(src), str(tmp_path / "b.wav")),
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
        assert run("upsample", "--scale", "2", "--downmix", str(src), dst) == 0
        assert run("upsample", "--scale", "2", str(src), dst) == 2

    def test_checkpoint_does_not_carry_over(self, tmp_path, tiny_ckpt):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        dst = str(tmp_path / "out.wav")
        model = ("upsample", "--scale", "2", "--method", "model")
        assert run(*model, "--checkpoint", str(tiny_ckpt), str(src), dst) == 0
        assert run(*model, str(src), dst) == 1

    def test_usage_error_does_not_carry_over(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src, n=512)
        dst = str(tmp_path / "out.wav")
        assert run("upsample", "--scale", "2", "--method", "cubic", str(src), dst) == 1
        assert run("upsample", "--scale", "2", str(src), dst) == 0
