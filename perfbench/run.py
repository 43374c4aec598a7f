"""audiosr benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload train_edsr --seed 1 --seconds 15 --trace 0

Run it from the repository root. With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it wraps audiosr's
public functions and prints every per-layer metric. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--record-reference`` rewrites perfbench/reference.json from the current code.
"""
from __future__ import annotations

import os

# Single-threaded BLAS keeps training bit-identical; it must be set before numpy loads.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "rtf_p50": "s/s",
    "rtf_p90": "s/s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def _import_program():
    """Import numpy, scipy and audiosr from this checkout's src/; return seconds spent."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import audiosr

    if Path(audiosr.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"audiosr imported from {audiosr.__file__}, not from {SRC}")
    return perf_counter() - t0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _run_meta(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    lines = {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "audiosr").glob("*.py"))
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    }


def _percentiles(values: list[float]) -> tuple[float, float]:
    import numpy as np

    return float(np.percentile(values, 50)), float(np.percentile(values, 90))


def _rtf_percentiles(t) -> tuple[float, float]:
    """p50 and p90 of wall seconds per second of audio."""
    return _percentiles([ms / 1e3 / a for ms, a in zip(t.ms, t.audio_s)])


def _setup(wl, seed: int, work_root: Path, repeats: int):
    """Set the workload up ``repeats`` times; return the last state and every duration."""
    times, state = [], None
    for k in range(repeats):
        t0 = perf_counter()
        state = wl.setup(seed, work_root / f"setup{k}")
        times.append(perf_counter() - t0)
    return state, times


def measure(workload: str, seed: int, seconds: int, import_s: float, work_root: Path):
    """Untraced run: end-to-end metrics."""
    from workloads import SETUP_REPEATS, WORKLOADS

    wl = WORKLOADS[workload]
    state, setup_times = _setup(wl, seed, work_root, SETUP_REPEATS)
    out = wl.timed(state, seconds)
    t = out.timing
    op50, op90 = _percentiles(t.ms)
    rtf50, rtf90 = _rtf_percentiles(t)
    n = len(t.ms)
    values = {
        "setup_s": import_s + statistics.median(setup_times) + out.warmup_s,
        "op_ms_p50": op50, "op_ms_p90": op90, "rtf_p50": rtf50, "rtf_p90": rtf90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - t.failed / n,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    details = {
        "samples": {"op_ms_p50": n, "op_ms_p90": n, "rtf_p50": n, "rtf_p90": n},
        "setup_parts_s": {"imports": import_s, "setups": setup_times, "warmup": out.warmup_s},
        "failed_frac": {"value": t.failed / n, "failed": t.failed, "attempted": n},
        "counters": out.counters,
    }
    for method, mt in out.breakdown.items():
        p50, p90 = _rtf_percentiles(mt)
        details[f"rtf_{method}"] = {"p50": p50, "p90": p90, "n": len(mt.ms), "failed": mt.failed}
    return metrics, out.checks, n, t.failed, details


def trace(workload: str, seed: int, import_s: float, work_root: Path):
    """Traced run: a fixed amount of work, once untraced and once traced."""
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = Tracer(adam_per_request=wl.adam_per_step)
    tracer.install()
    try:
        state = wl.setup(seed, work_root / "setup")
    finally:
        tracer.restore()
    wl.fixed_pass(state)  # warm-up, so the untraced pass is not charged first-call costs
    t0 = perf_counter()
    untraced, *_ = wl.fixed_pass(state)
    untraced_s = perf_counter() - t0
    tracer.install()
    try:
        t0 = perf_counter()
        traced, timing, counters = wl.fixed_pass(state, tracer)
        traced_s = perf_counter() - t0
    finally:
        tracer.restore()
    checks = {"traced_equals_untraced": "ok" if traced == untraced else "FAILED tracing changed the results"}
    values = tracer.summary()
    values["cli.samples_dropped"] = counters.get("samples_dropped", 0)
    values["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s)
    units = _per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    details = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "import_s": import_s}
    return metrics, checks, len(timing.ms), timing.failed, details


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _bench_spec()["per_layer"]}


def _print_report(metrics: dict, checks: dict, details: dict, meta: dict) -> None:
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    samples = details.get("samples", {})
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{n}")
    for name, status in checks.items():
        print(f"  check {name}: {status}")
    if "failed_frac" in details:
        f = details["failed_frac"]
        print(f"  failed_frac {f['value']:.4f} ({f['failed']} failed / {f['attempted']} attempted)")
    for name, r in details.items():
        if name.startswith("rtf_"):
            print(f"  {name}: p50 {r['p50']:.4g} p90 {r['p90']:.4g} s/s (n={r['n']}, {r['failed']} failed)")
    print("meta " + json.dumps({**meta, **details}, sort_keys=True))


def record_reference() -> None:
    from workloads import REFERENCE_PATH, reference_eval_scores, reference_trajectory

    ref = {
        "train_edsr": reference_trajectory("train_edsr"),
        "train_gan": reference_trajectory("train_gan"),
        "eval": reference_eval_scores(),
    }
    blocks = [
        f' "{name}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for name, rows in ref.items()
    ]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


def main(argv=None) -> int:
    names = [w["name"] for w in _bench_spec()["workloads"]] if (ROOT / "BENCHMARK.json").is_file() else []
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            metrics, checks, attempted, failed, details = trace(args.workload, args.seed, import_s, work_root)
        else:
            metrics, checks, attempted, failed, details = measure(
                args.workload, args.seed, args.seconds, import_s, work_root
            )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.parent.rmdir()
    _print_report(metrics, checks, details, _run_meta(args.workload, args.seed, args.seconds, args.trace))
    correct = all(status == "ok" for status in checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
