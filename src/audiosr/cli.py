"""Command-line entry point wiring the library together.

Subcommands: prepare, train, train-gan, eval, upsample, compare-losses, probe.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Flag domains, checked by the parser before any file is read: --scale >= 2; --rate,
--target-rate, --synth >= 1; --length >= one STFT frame; seeds, --progress-every >= 0;
--threshold finite; --ratios three non-negative numbers summing to 1; --split train/val/test.
eval takes --split only with --manifest, and --synth, --synth-seed only without it.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, data, dsp, metrics, models, probe, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(low: int):
    """An argparse type: an integer no less than ``low``."""
    def integer(text: str) -> int:  # its name reads "invalid integer value" for a non-integer
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _finite(text: str) -> float:
    """An argparse type: a finite float."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _ratios(text: str) -> str:
    """An argparse type: comma-separated split ratios, kept as given for run.meta."""
    try:
        data.check_split_ratios([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


# ---------------------------------------------------------------------------
# config files: flat "key = value" with sections, unknown keys rejected
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataConfig:
    """The [data] section: a manifest split, or else a seeded synthetic corpus."""

    manifest: str | None = None
    split: str = "train"
    synth_count: int = 64
    synth_length: int = 8192
    synth_rate: int = 12000
    synth_seed: int = 1
    synth_freq_lo: float = 100.0
    synth_freq_hi: float = 2800.0
    synth_kinds: tuple[str, ...] = ("sine", "chirp")

    def __post_init__(self):
        if self.split not in data.SPLITS:
            raise ValueError(f"split must be one of {', '.join(data.SPLITS)}, got {self.split!r}")
        if self.synth_seed < 0:
            raise ValueError(f"synth_seed must be >= 0, got {self.synth_seed}")
        if not self.manifest:
            self.synth_spec()  # checks the synth_* values

    def synth_spec(self) -> data.SynthSpec:
        return data.SynthSpec(self.synth_count, self.synth_length, self.synth_rate,
                              freq_range=(self.synth_freq_lo, self.synth_freq_hi), kinds=self.synth_kinds)


# run.model values: the kinds that upsample
_UPSAMPLERS = [kind for kind, (_, model_cls) in models.KINDS.items() if model_cls.mode]


def _section_config(cfg: dict, section: str, cls, **defaults):
    try:
        return models.decode_config(cls, cfg.get(section, {}), **defaults)
    except ValueError as exc:
        raise UsageError(f"bad [{section}] config: {exc}") from exc


def _read_config(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file: {exc}") from exc
    if not read:
        raise UsageError(f"cannot read config file {path}")
    return {name: dict(parser[name]) for name in parser.sections()}


def _load_run_config(path, want_gan: bool):
    cfg = _read_config(path)
    allowed = {"run", "model", "train", "data"} | ({"gan", "critic"} if want_gan else set())
    for name in cfg:
        if name not in allowed:
            raise UsageError(f"unknown section [{name}] in {path}")
    run = cfg.get("run", {})
    for key in run:
        if key != "model":
            raise UsageError(f"unknown key {key!r} in [run]")
    model_kind = run.get("model", "unet" if want_gan else "edsr")
    if model_kind not in _UPSAMPLERS:
        raise UsageError(f"run.model must be one of {', '.join(_UPSAMPLERS)}, got {model_kind!r}")
    config_cls, model_cls = models.KINDS[model_kind]
    model_cfg = _section_config(cfg, "model", config_cls)
    train_cfg = _section_config(cfg, "train", train.TrainConfig, mode=model_cls.mode, steps=100)
    gan_cfg = critic_cfg = None
    if want_gan:
        critic_cfg = _section_config(cfg, "critic", models.CriticConfig)
        gan_cfg = _section_config(cfg, "gan", train.GanConfig, base=train_cfg)
    data_cfg = _section_config(cfg, "data", DataConfig)
    return model_kind, model_cfg, train_cfg, gan_cfg, critic_cfg, data_cfg


def _load_corpus(cfg: DataConfig):
    if cfg.manifest:
        index = data.CorpusIndex.read_manifest(cfg.manifest)
        entries = index.items(cfg.split)
        if not entries:
            raise data.CorpusError(f"manifest has no entries in split {cfg.split!r}")
        corpus = [data.wav_read(e.path) for e in entries]
        for e, sig in zip(entries, corpus):
            if len(sig) != e.samples:
                raise data.CorpusError(f"{e.path}: {len(sig)} samples, but the manifest says {e.samples}")
        ids = [f"{e.speaker}/{e.utterance}" for e in entries]
        text = Path(cfg.manifest).read_text(encoding="utf-8") + f"|split={cfg.split}"
        return corpus, ids, _sha256(text.encode())
    spec = cfg.synth_spec()
    corpus = data.synth_signals(spec, cfg.synth_seed)
    ids = [str(i) for i in range(len(corpus))]
    return corpus, ids, _sha256(f"{spec}|seed={cfg.synth_seed}".encode())


def _sha256(blob: bytes) -> str:
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _file_sha256(path) -> str:
    """``_sha256`` of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _write_run_meta(out_dir: Path, command: str, items: dict, sections: dict | None = None) -> None:
    """Write ``run.meta``: the command, the Python/numpy/scipy versions, the BLAS
    thread variables and the provenance as ``# key = value`` lines, then each
    config in ``sections`` that is not None as a config-file section, so a
    training run's record is a config that re-runs it."""
    lines = [f"# command = {command}", f"# version = {__version__}",
             "# python = {}.{}.{}".format(*sys.version_info[:3]),
             f"# numpy = {np.__version__}", f"# scipy = {scipy.__version__}"]
    lines += [f"# {var} = {os.environ.get(var, 'unset')}"
              for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
    lines += [f"# {key} = {items[key]}" for key in sorted(items)]
    for name, cfg in (sections or {}).items():
        if cfg is not None:
            values = cfg if isinstance(cfg, dict) else models.encode_config(cfg)
            lines += ["", f"[{name}]"] + [f"{key} = {val}" for key, val in values.items()]
    data.write_atomic(out_dir / "run.meta", "\n".join(lines) + "\n")


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_prepare(args) -> int:
    ratios = tuple(float(v) for v in args.ratios.split(","))
    target = args.target_rate
    sources = data.list_corpus(args.root)
    out = _out_dir(args.out)
    entries = []
    for speaker, path in sources:
        sig = data.wav_read(path, downmix=args.downmix)
        if sig.sample_rate != target:
            if sig.sample_rate % target != 0 or sig.sample_rate < target:
                raise data.CorpusError(f"{path}: rate {sig.sample_rate} cannot be decimated to {target}")
            sig = dsp.downsample(sig, sig.sample_rate // target)
        dest = out / "audio" / speaker / path.name
        dest.parent.mkdir(parents=True, exist_ok=True)
        data.wav_write(sig, dest)
        entries.append(data.CorpusEntry(speaker, path.stem, os.path.relpath(dest), len(sig)))
    split = data.split_speakers([speaker for speaker, _ in sources], ratios, args.seed)
    data.CorpusIndex(entries, split, args.seed, ratios).write_manifest(out / "manifest.txt")
    manifest_text = (out / "manifest.txt").read_text(encoding="utf-8")
    _write_run_meta(out, "prepare", {
        "seed": args.seed,
        "target_rate": target,
        "ratios": args.ratios,
        "root": args.root,
        "corpus_hash": _sha256(manifest_text.encode()),
    })
    print(f"prepared {len(entries)} files from {len(split)} speakers -> {out}")
    return 0


def _build_model(kind: str, model_cfg, seed: int):
    return models.KINDS[kind][1](model_cfg, init_seed=seed)


def _cmd_train(args) -> int:
    """``train`` and ``train-gan``. The run's ``run.meta`` holds its config
    sections, so ``--config run.meta`` re-runs it."""
    gan = args.command == "train-gan"
    kind, model_cfg, train_cfg, gan_cfg, critic_cfg, data_cfg = _load_run_config(args.config, gan)
    if gan and kind != "unet":
        raise UsageError("train-gan needs run.model = unet (pre-upsampling generator)")
    corpus, _, corpus_hash = _load_corpus(data_cfg)
    model = _build_model(kind, model_cfg, train_cfg.seed)
    io = {"out_dir": args.out, "progress_every": args.progress_every}  # the trainer makes out_dir
    if gan:
        critic = _build_model("critic", critic_cfg, train_cfg.seed + 1)
        train.train_wgan_gp(model, critic, corpus, gan_cfg, **io)
        done = f"adversarial run finished after {train_cfg.steps} outer steps"
    else:
        log = train.train_supervised(model, corpus, train_cfg, **io)[1]
        done = f"trained {kind} for {train_cfg.steps} steps; final loss {log.records[-1].loss:.6f}"
    _write_run_meta(Path(args.out), args.command, {"corpus_hash": corpus_hash}, {
        "run": {"model": kind}, "model": model_cfg, "critic": critic_cfg,
        "train": train_cfg, "gan": gan_cfg, "data": data_cfg,
    })
    print(done)
    return 0


def _cmd_eval(args) -> int:
    if args.manifest and (args.synth, args.synth_seed) != (None, None):
        raise UsageError("--synth and --synth-seed make a synthetic corpus; drop them or --manifest")
    if not args.manifest and args.split is not None:
        raise UsageError("--split picks from a --manifest; a synthetic corpus has none")
    data_cfg = DataConfig(args.manifest, args.split or "test", synth_count=args.synth or 16,
                          synth_seed=99 if args.synth_seed is None else args.synth_seed)
    corpus, ids, corpus_hash = _load_corpus(data_cfg)
    model = None if args.spline else models.load_checkpoint(args.checkpoint)
    ckpt_id = "spline-baseline" if args.spline else Path(args.checkpoint).name
    report = metrics.evaluate_model(model, corpus, args.scale, item_ids=ids, checkpoint_id=ckpt_id)
    out = _out_dir(args.out)
    report.to_csv(out / "metrics.csv")
    _write_run_meta(out, "eval", {
        "scale": args.scale,
        "mode": report.mode,
        "checkpoint": ckpt_id,
        **({"split": data_cfg.split} if args.manifest else {"seed": data_cfg.synth_seed}),
        "corpus_hash": corpus_hash,
    })
    print(
        f"SNR {report.snr_mean:.2f} +/- {report.snr_std:.2f} dB | "
        f"LSD {report.lsd_mean:.3f} +/- {report.lsd_std:.3f} dB "
        f"({len(report.per_item)} items)"
    )
    return 0


def _cmd_upsample(args) -> int:
    if (args.method == "model") != bool(args.checkpoint):
        raise UsageError("--checkpoint goes with --method model and only with it")
    sig = data.wav_read(args.input, downmix=args.downmix)
    model = models.load_checkpoint(args.checkpoint) if args.checkpoint else None
    result = models.reconstruct(model, sig, args.scale)
    if n_clipped := data.wav_write(result, args.output):
        print(f"note: clipped {n_clipped} out-of-range samples before writing", file=sys.stderr)
    out = _out_dir(args.out)
    _write_run_meta(out, "upsample", {
        "scale": args.scale,
        "method": args.method,
        "checkpoint": args.checkpoint or "none",
        "corpus_hash": _file_sha256(args.input),
    })
    print(f"wrote {args.output}: {len(result)} samples @ {result.sample_rate} Hz")
    return 0


def _cmd_compare_losses(args) -> int:
    """Train the config's model once under l1 and once under l2, and score both
    on a held-out copy of ``[data]``: the test split, synthesised one seed on."""
    kind, model_cfg, train_cfg, _, _, data_cfg = _load_run_config(args.config, want_gan=False)
    if train_cfg.loss is not None:
        raise UsageError("compare-losses sets the loss itself; drop [train] loss")
    corpus, _, corpus_hash = _load_corpus(data_cfg)
    held_out = _load_corpus(replace(data_cfg, split="test", synth_seed=data_cfg.synth_seed + 1))[0]
    if model_cfg.scale == train_cfg.scale:  # else training rejects the model first, a usage error
        for i, sig in enumerate(held_out):  # a reconstruction has scale * floor(n / scale) samples
            metrics.check_comparable(str(i), len(sig) // train_cfg.scale * train_cfg.scale)
    lines = [f"# model = {kind}", f"# scale = {train_cfg.scale}", f"# steps = {train_cfg.steps}",
             f"# seed = {train_cfg.seed}", "loss,snr_mean,snr_std,lsd_mean,lsd_std"]
    for loss in ("l1", "l2"):
        model = _build_model(kind, model_cfg, train_cfg.seed)
        _, log = train.train_supervised(model, corpus, replace(train_cfg, loss=loss))
        report = metrics.evaluate_model(model, held_out, train_cfg.scale)
        print(
            f"{loss}: final train loss {log.records[-1].loss:.6f} | "
            f"SNR {report.snr_mean:.2f}+/-{report.snr_std:.2f} | "
            f"LSD {report.lsd_mean:.3f}+/-{report.lsd_std:.3f}"
        )
        lines.append(f"{loss},{report.snr_mean!r},{report.snr_std!r},{report.lsd_mean!r},{report.lsd_std!r}")
    out = _out_dir(args.out)
    data.write_atomic(out / "compare.csv", "\n".join(lines) + "\n")
    _write_run_meta(out, "compare-losses", {"corpus_hash": corpus_hash}, {
        "run": {"model": kind}, "model": model_cfg, "train": train_cfg, "data": data_cfg,
    })
    return 0


def _cmd_probe(args) -> int:
    model = models.load_checkpoint(args.checkpoint)
    report = probe.zero_input_probe(model, length=args.length, sample_rate=args.rate,
                                    peak_threshold_db=args.threshold)
    out = _out_dir(args.out)
    probe.write_report(report, out / "report.txt")
    probe.export_spectrogram(report.spectrogram, out / "spec.csv", fmt="csv")
    probe.export_spectrogram(report.spectrogram, out / "spec.pgm", fmt="pgm")
    _write_run_meta(out, "probe", {
        "checkpoint": Path(args.checkpoint).name,
        "length": args.length,
        "corpus_hash": _file_sha256(args.checkpoint),
    })
    period = report.periodicity if report.periodicity is not None else "none"
    print(f"{len(report.peaks)} tonal peaks; periodicity: {period}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call, not at import, and kept for the process:
    # parse_args returns a fresh Namespace and keeps no state between calls
    parser = _Parser(prog="audiosr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="decimate a speaker-per-directory corpus, write a manifest")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-rate", type=_integer(1), default=12000)
    p.add_argument("--ratios", type=_ratios, default="0.8,0.1,0.1")
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="supervised training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--progress-every", type=_integer(0), default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-gan", help="adversarial training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--progress-every", type=_integer(0), default=10)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="SNR/LSD report for a checkpoint or the spline baseline")
    method = p.add_mutually_exclusive_group(required=True)
    method.add_argument("--checkpoint")
    method.add_argument("--spline", action="store_true")
    p.add_argument("--scale", type=_integer(2), required=True)
    p.add_argument("--manifest")
    # no defaults: _cmd_eval tells a corpus flag given from one left out
    p.add_argument("--split", choices=data.SPLITS)
    p.add_argument("--synth", type=_integer(1))
    p.add_argument("--synth-seed", type=_integer(0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("upsample", help="upsample a WAV with the spline or a checkpoint")
    p.add_argument("--scale", type=_integer(2), required=True)
    p.add_argument("--method", choices=("spline", "model"), default="spline")
    p.add_argument("--checkpoint")
    p.add_argument("--downmix", action="store_true")
    p.add_argument("--out", required=True, help="directory for run metadata")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_upsample)

    p = sub.add_parser("compare-losses", help="train a config's model under l1 and l2, report both")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare_losses)

    p = sub.add_parser("probe", help="zero-input tonal-artifact probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=_integer(dsp.FRAME_LENGTH), default=16384)
    p.add_argument("--rate", type=_integer(1), default=12000)
    p.add_argument("--threshold", type=_finite, default=20.0)
    p.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, models.ConfigConflictError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except train.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (
        data.WavError,
        data.CorpusError,
        models.CheckpointError,
        OSError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
