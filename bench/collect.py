"""Collect the benchmark of this checkout into one BENCH_<n>.json.

    python3 bench/collect.py BENCH_2.json
    python3 bench/collect.py out.json --workloads eval --seeds 1 --seconds 1 --no-paper-scale

For each workload of BENCHMARK.json it runs perfbench/run.py, unchanged and
in a fresh process each time: once untraced per seed, then once traced on the
first seed. From each run it reads the last output line (the result JSON) and
the ``meta`` line. Runs go one at a time, so none competes with another for
the CPU. The file holds:

    end_to_end   per workload and metric: median, quartiles, unit and every run's value
    correct      per workload: whether every run passed its output checks, and its failed share
    per_layer    per workload: the traced run's per-layer values
    meta         seeds, seconds, versions, BLAS settings, git commit and src/ lines per module
    host         machine, CPU model, cores, memory and a free-text note
    paper_scale  bench/paper_scale.py's step, and a default-EDSR reconstruct at
                 12,000, 48,000 and 192,000 samples, each in a fresh child process
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RECONSTRUCT_SAMPLES = (12000, 48000, 192000)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import paper_scale  # noqa: E402


def run_perfbench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One perfbench run: its result JSON and its meta line."""
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in out if line.startswith("meta "))
    return json.loads(out[-1]), meta


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``, and the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def host(note: str) -> dict:
    info = {"machine": platform.machine(), "platform": platform.platform(), "cores": os.cpu_count(), "note": note}
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"), ("/proc/meminfo", "memory", "MemTotal")):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            continue
        info[key] = next((line.split(":", 1)[1].strip() for line in lines if line.startswith(field)), None)
    return info


def collect(workloads: list[str], seeds: list[int], seconds: int, paper: bool, note: str) -> dict:
    bench = {"end_to_end": {}, "correct": {}, "per_layer": {}, "meta": {}, "host": host(note)}
    t0 = time.perf_counter()
    for w in workloads:
        results = [run_perfbench(w, seed, seconds, 0)[0] for seed in seeds]
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        bench["end_to_end"][w] = {name: {"unit": unit, **summary([r["metrics"][name]["value"] for r in results])}
                                  for name, unit in units.items()}
        traced, meta = run_perfbench(w, seeds[0], seconds, 1)
        bench["per_layer"][w] = {name: m["value"] for name, m in traced["metrics"].items()}
        bench["correct"][w] = {"all_runs": all(r["correct"] for r in results + [traced]),
                               "failed": sum(r["failed"] for r in results),
                               "attempted": sum(r["attempted"] for r in results)}
    keep = ("python", "numpy", "scipy", "blas_env", "nproc", "git_commit", "src_lines", "src_lines_total")
    bench["meta"] = {"seeds": seeds, "seconds": seconds, **{k: meta[k] for k in keep}}
    if paper:
        bench["paper_scale"] = {"edsr_step": paper_scale.measure(), **{
            f"edsr_reconstruct_{n}": paper_scale.measure(n) for n in RECONSTRUCT_SAMPLES}}
    bench["meta"]["collect_s"] = time.perf_counter() - t0
    return bench


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-paper-scale", dest="paper", action="store_false", help="skip the paper-width scenarios")
    parser.add_argument("--note", default="", help="a free-text host note, such as what else ran")
    args = parser.parse_args()
    bench = collect(args.workloads, args.seeds, args.seconds, args.paper, args.note)
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
