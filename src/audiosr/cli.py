"""Command-line entry point wiring the library together.

Subcommands: prepare, train, train-gan, eval, upsample, compare-losses, probe.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, data, dsp, metrics, models, probe, train
from .dsp import Signal


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    spec = data.SynthSpec(
        count=cfg.synth_count,
        length=cfg.synth_length,
        sample_rate=cfg.synth_rate,
        freq_range=(cfg.synth_freq_lo, cfg.synth_freq_hi),
        kinds=cfg.synth_kinds,
    )
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


def _write_run_meta(out_dir: Path, command: str, items: dict) -> None:
    lines = [f"command = {command}", f"version = {__version__}"]
    for key in sorted(items):
        lines.append(f"{key} = {items[key]}")
    data.write_atomic(out_dir / "run.meta", "\n".join(lines) + "\n")


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_prepare(args) -> int:
    try:
        ratios = tuple(float(v) for v in args.ratios.split(","))
        data.check_split_ratios(ratios)
    except ValueError as exc:
        raise UsageError(f"bad --ratios {args.ratios!r}: {exc}") from exc
    target = args.target_rate
    src_index = data.scan_corpus(args.root, seed=args.seed)
    out = _out_dir(args.out)
    audio_dir = out / "audio"
    for entry in src_index.entries:
        sig = data.wav_read(entry.path, downmix=args.downmix)
        if sig.sample_rate != target:
            if sig.sample_rate % target != 0 or sig.sample_rate < target:
                raise data.CorpusError(
                    f"{entry.path}: rate {sig.sample_rate} cannot be decimated to {target}"
                )
            sig = dsp.downsample(sig, sig.sample_rate // target)
        dest = audio_dir / entry.speaker
        dest.mkdir(parents=True, exist_ok=True)
        clipped = Signal(np.clip(sig.samples, -1.0, 1.0), sig.sample_rate)
        data.wav_write(clipped, dest / f"{entry.utterance}.wav")
    index = data.scan_corpus(audio_dir, split_ratios=ratios, seed=args.seed)
    index.write_manifest(out / "manifest.txt")
    manifest_text = (out / "manifest.txt").read_text(encoding="utf-8")
    _write_run_meta(out, "prepare", {
        "seed": args.seed,
        "target_rate": target,
        "ratios": args.ratios,
        "root": args.root,
        "corpus_hash": _sha256(manifest_text.encode()),
    })
    print(f"prepared {len(index.entries)} files from {len(set(index.split))} speakers -> {out}")
    return 0


def _build_model(kind: str, model_cfg, seed: int):
    return models.KINDS[kind][1](model_cfg, init_seed=seed)


def _run_training(out: Path, progress_every: int, trainer, *inputs) -> train.TrainLog:
    """Run ``trainer`` into ``out`` and write its ``trainlog.csv``. A run that aborts
    on a non-finite value still writes the log of the steps that finished."""
    try:
        log = trainer(*inputs, out_dir=str(out), progress_every=progress_every)[-1]
    except train.NumericError as exc:
        exc.log.to_csv(_out_dir(str(out)) / "trainlog.csv")
        raise
    log.to_csv(out / "trainlog.csv")
    return log


def _cmd_train(args) -> int:
    kind, model_cfg, train_cfg, _, _, data_cfg = _load_run_config(args.config, want_gan=False)
    out = Path(args.out)  # made by the trainer when it first saves a checkpoint
    corpus, _, corpus_hash = _load_corpus(data_cfg)
    model = _build_model(kind, model_cfg, train_cfg.seed)
    log = _run_training(out, args.progress_every, train.train_supervised, model, corpus, train_cfg)
    _write_run_meta(out, "train", {
        "model": kind,
        "config": _flatten_cfg(model_cfg, train_cfg),
        "seed": train_cfg.seed,
        "corpus_hash": corpus_hash,
    })
    print(f"trained {kind} for {train_cfg.steps} steps; final loss {log.records[-1].loss:.6f}")
    return 0


def _cmd_train_gan(args) -> int:
    kind, model_cfg, train_cfg, gan_cfg, critic_cfg, data_cfg = _load_run_config(
        args.config, want_gan=True
    )
    if kind != "unet":
        raise UsageError("train-gan needs run.model = unet (pre-upsampling generator)")
    out = Path(args.out)  # made by the trainer when it first saves a checkpoint
    corpus, _, corpus_hash = _load_corpus(data_cfg)
    generator = _build_model(kind, model_cfg, train_cfg.seed)
    critic = _build_model("critic", critic_cfg, train_cfg.seed + 1)
    _run_training(out, args.progress_every, train.train_wgan_gp, generator, critic, corpus, gan_cfg)
    _write_run_meta(out, "train-gan", {
        "config": _flatten_cfg(model_cfg, train_cfg, critic_cfg, gan_cfg),
        "seed": train_cfg.seed,
        "corpus_hash": corpus_hash,
    })
    print(f"adversarial run finished after {train_cfg.steps} outer steps")
    return 0


def _flatten_cfg(*cfgs) -> str:
    """``Class.key=value`` pairs in ``models.encode_config``'s format, ``;``-joined."""
    return ";".join(f"{type(cfg).__name__}.{key}={val}"
                    for cfg in cfgs for key, val in models.encode_config(cfg).items())


def _cmd_eval(args) -> int:
    corpus, ids, corpus_hash = _load_corpus(DataConfig(
        manifest=args.manifest, split=args.split, synth_count=args.synth, synth_seed=args.synth_seed,
    ))
    if args.spline:
        model = None
        ckpt_id = "spline-baseline"
    else:
        if not args.checkpoint:
            raise UsageError("eval needs --checkpoint or --spline")
        model = models.load_checkpoint(args.checkpoint)
        ckpt_id = Path(args.checkpoint).name
    report = metrics.evaluate_model(model, corpus, args.scale, item_ids=ids, checkpoint_id=ckpt_id)
    out = _out_dir(args.out)
    report.to_csv(out / "metrics.csv")
    _write_run_meta(out, "eval", {
        "scale": args.scale,
        "mode": report.mode,
        "checkpoint": ckpt_id,
        "seed": args.synth_seed,
        "corpus_hash": corpus_hash,
    })
    print(
        f"SNR {report.snr_mean:.2f} +/- {report.snr_std:.2f} dB | "
        f"LSD {report.lsd_mean:.3f} +/- {report.lsd_std:.3f} dB "
        f"({len(report.per_item)} items)"
    )
    return 0


def _cmd_upsample(args) -> int:
    sig = data.wav_read(args.input, downmix=args.downmix)
    model = None
    if args.method == "model":
        if not args.checkpoint:
            raise UsageError("--method model needs --checkpoint")
        model = models.load_checkpoint(args.checkpoint)
    result = models.reconstruct(model, sig, args.scale)
    clipped = np.clip(result.samples, -1.0, 1.0)
    n_clipped = int(np.sum(clipped != result.samples))
    if n_clipped:
        print(f"note: clipped {n_clipped} out-of-range samples before writing", file=sys.stderr)
    data.wav_write(Signal(clipped, result.sample_rate), args.output)
    out = _out_dir(args.out) if args.out else Path(args.output).resolve().parent
    _write_run_meta(out, "upsample", {
        "scale": args.scale,
        "method": args.method,
        "checkpoint": args.checkpoint or "none",
        "seed": 0,
        "corpus_hash": _file_sha256(args.input),
    })
    print(f"wrote {args.output}: {len(result)} samples @ {result.sample_rate} Hz")
    return 0


def _cmd_compare_losses(args) -> int:
    train_spec = data.SynthSpec(count=args.synth, length=args.patch * 2, sample_rate=12000)
    eval_spec = data.SynthSpec(count=max(args.synth // 4, 8), length=8192, sample_rate=12000)
    train_corpus = data.synth_signals(train_spec, args.seed + 1)
    eval_corpus = data.synth_signals(eval_spec, args.seed + 2)
    if args.model == "edsr":
        stages = args.scale.bit_length() - 1
        model_cfg = models.EdsrConfig(
            filters=16, n_blocks=2, upsample_stages=stages
        )
    else:
        model_cfg = models.UnetConfig(
            depth=2, down_filters=(16, 32), down_kernels=(17, 9),
            bottleneck_filters=32, scale=args.scale,
        )
    rows = []
    for loss in ("l1", "l2"):
        model = _build_model(args.model, model_cfg, args.seed)
        cfg = train.TrainConfig(
            steps=args.steps, mode=model.mode, scale=args.scale, batch_size=args.batch,
            loss=loss, seed=args.seed, patch_length=args.patch, lr=args.lr,
        )
        _, log = train.train_supervised(model, train_corpus, cfg)
        report = metrics.evaluate_model(model, eval_corpus, args.scale)
        rows.append((loss, report))
        print(
            f"{loss}: final train loss {log.records[-1].loss:.6f} | "
            f"SNR {report.snr_mean:.2f}+/-{report.snr_std:.2f} | "
            f"LSD {report.lsd_mean:.3f}+/-{report.lsd_std:.3f}"
        )
    lines = [
        f"# model = {args.model}",
        f"# scale = {args.scale}",
        f"# steps = {args.steps}",
        f"# seed = {args.seed}",
        "loss,snr_mean,snr_std,lsd_mean,lsd_std",
    ]
    for loss, rep in rows:
        lines.append(f"{loss},{rep.snr_mean!r},{rep.snr_std!r},{rep.lsd_mean!r},{rep.lsd_std!r}")
    out = _out_dir(args.out)
    data.write_atomic(out / "compare.csv", "\n".join(lines) + "\n")
    _write_run_meta(out, "compare-losses", {
        "model": args.model,
        "scale": args.scale,
        "steps": args.steps,
        "seed": args.seed,
        "corpus_hash": _sha256(f"{train_spec}|{args.seed}".encode()),
    })
    return 0


def _cmd_probe(args) -> int:
    model = models.load_checkpoint(args.checkpoint)
    if model.mode is None:  # its score is not audio
        raise ValueError(f"a {model.kind!r} model does not upsample audio")
    report = probe.zero_input_probe(
        model,
        length=args.length,
        sample_rate=args.rate,
        peak_threshold_db=args.threshold,
    )
    out = _out_dir(args.out)
    probe.write_report(report, out / "report.txt")
    probe.export_spectrogram(report.spectrogram, out / "spec.csv", fmt="csv")
    probe.export_spectrogram(report.spectrogram, out / "spec.pgm", fmt="pgm")
    _write_run_meta(out, "probe", {
        "checkpoint": Path(args.checkpoint).name,
        "length": args.length,
        "seed": 0,
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

    p = sub.add_parser("prepare", help="scan and decimate a corpus, write a manifest")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-rate", type=int, default=12000)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="supervised training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--progress-every", type=int, default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-gan", help="adversarial training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--progress-every", type=int, default=10)
    p.set_defaults(func=_cmd_train_gan)

    p = sub.add_parser("eval", help="SNR/LSD report for a checkpoint or the spline baseline")
    p.add_argument("--checkpoint")
    p.add_argument("--spline", action="store_true")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--manifest")
    p.add_argument("--split", default="test")
    p.add_argument("--synth", type=int, default=16)
    p.add_argument("--synth-seed", type=int, default=99)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("upsample", help="upsample a WAV with the spline or a checkpoint")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--method", choices=("spline", "model"), default="spline")
    p.add_argument("--checkpoint")
    p.add_argument("--downmix", action="store_true")
    p.add_argument("--out", help="directory for run metadata (default: output's directory)")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_upsample)

    p = sub.add_parser("compare-losses", help="train the same model under l1 and l2, report both")
    p.add_argument("--model", choices=("edsr", "unet"), default="edsr")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=int, default=2)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--patch", type=int, default=1024)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--synth", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare_losses)

    p = sub.add_parser("probe", help="zero-input tonal-artifact probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=16384)
    p.add_argument("--rate", type=int, default=12000)
    p.add_argument("--threshold", type=float, default=20.0)
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
