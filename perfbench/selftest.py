"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

Checks that workload inputs are a function of the seed, that the metric and
workload names the benchmark emits are exactly those in BENCHMARK.json, and
that a traced run leaves every wrapped audiosr function as it found it.
Exits non-zero on the first failed check.
"""
from __future__ import annotations

import os
import shutil
import sys

import run  # sets the BLAS thread environment before numpy is imported


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "samples"):
        return a.sample_rate == b.sample_rate and np.array_equal(a.samples, b.samples)
    return bool(np.array_equal(a, b))


def check_inputs_seeded() -> None:
    import numpy as np
    import workloads as w

    for name in w.WORKLOADS:
        first, again, other = (w.generate_inputs(name, s) for s in (5, 5, 6))
        expect(_same(first, again), f"{name}: same seed gave different inputs")
        expect(not _same(first, other), f"{name}: different seeds gave the same inputs")
    lengths = [w.upsample_lengths(s) for s in (5, 6)]
    for ls in lengths:
        expect(ls.max() == w.UPSAMPLE_LONGEST, "upsample: longest input is not fixed")
        expect(ls.max() / ls.min() > 10, "upsample: lengths span less than an order of magnitude")
        expect(np.sum(ls % 2) == len(ls) // 2, "upsample: odd-length share is not one half")
    expect(not np.array_equal(*lengths), "upsample: lengths do not depend on the seed")


def _snapshot() -> dict:
    """Every attribute a tracer may patch: the targets and their from-import aliases."""
    from tracer import TARGETS, _package_modules

    owners = {id(o): o for o, *_ in TARGETS} | {id(m): m for m in _package_modules()}
    attrs = {attr for _, attr, *_ in TARGETS}
    return {(key, a): vars(o)[a] for key, o in owners.items() for a in attrs if a in vars(o)}


def _same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def check_names_and_restore(work_root) -> None:
    from tracer import TARGETS, Tracer

    spec = run._bench_spec()
    import workloads as w

    expect(list(w.WORKLOADS) == [x["name"] for x in spec["workloads"]],
           "workload names differ from BENCHMARK.json")
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    expect(all(vars(o)[a] is not before[(id(o), a)] for o, a, *_ in TARGETS),
           "install left some targets unwrapped")
    tracer.restore()
    expect(_same_objects(_snapshot(), before), "restore did not put every function back")

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics, checks, *_ = run.measure("upsample", 3, 1, 0.0, work_root / "measure")
    expect({k: v["unit"] for k, v in metrics.items()} == e2e, "end-to-end metrics differ from BENCHMARK.json")
    expect(all(s == "ok" for s in checks.values()), f"untraced run checks failed: {checks}")
    for name in ("upsample", "train_gan"):
        metrics, checks, *_ = run.trace(name, 3, 0.0, work_root / name)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        expect({k: v["unit"] for k, v in metrics.items()} == per_layer,
               f"{name}: per-layer metrics differ from BENCHMARK.json")
        expect(all(s == "ok" for s in checks.values()), f"{name}: traced run checks failed: {checks}")
        expect(_same_objects(_snapshot(), before), f"{name}: traced run left wrappers installed")


def main() -> int:
    try:
        run._import_program()
    except ImportError as exc:
        print(f"selftest: cannot import the program: {exc}", file=sys.stderr)
        return 2
    work_root = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        check_inputs_seeded()
        check_names_and_restore(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
