"""Peak memory of the paper-width AudioEDSR, in a fresh process per scenario.

    python3 bench/paper_scale.py                      # one training step
    python3 bench/paper_scale.py --reconstruct 48000  # inference on 48,000 samples

Both scenarios build the default ``EdsrConfig`` (128 filters, 32 blocks, one
x2 stage) in float64. The step runs a batch of one: a 1,024-sample input, an
L2 loss against a 2,048-sample target, and the backward into every parameter.
The Adam update is left out; its two moments are a fixed 151 MB that no tape
change moves. ``--reconstruct N`` upsamples N samples of 12 kHz noise by 2
with ``models.reconstruct``. A child process runs the scenario with one BLAS
thread and reports:

    peak_mb  its peak resident set (ru_maxrss) after the scenario
    step_mb  that peak minus its peak once the model is built (run_mb for --reconstruct)
    wall_s   the scenario's wall time
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _run(samples: int | None) -> dict:
    """Build the model, run the scenario and return the child's figures."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from audiosr import diffgraph as dg
    from audiosr import models
    from audiosr.dsp import Signal

    dg.keep_freed_heap()  # as a training run and every reconstruct do
    model = models.build_edsr(models.EdsrConfig(), seed=0)
    rng = np.random.default_rng(0)
    if samples is None:
        x, target = rng.standard_normal((1, 1, 1024)), rng.standard_normal((1, 1, 2048))

        def scenario():
            dg.backward(dg.l2(model.forward(dg.Tensor(x)), dg.Tensor(target)), model.parameters())
    else:
        low = Signal(rng.normal(0, 0.1, samples), 12000)

        def scenario():
            models.reconstruct(model, low, 2)
    built = _max_rss_mb()
    t0 = time.perf_counter()
    scenario()
    wall = time.perf_counter() - t0
    peak = _max_rss_mb()
    return {"peak_mb": peak, "step_mb" if samples is None else "run_mb": peak - built, "wall_s": wall}


def measure(samples: int | None = None) -> dict:
    """Run the step, or a reconstruct of ``samples``, in a fresh child process with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    scenario = [] if samples is None else ["--reconstruct", str(samples)]
    child = subprocess.run([sys.executable, __file__, "--child", *scenario], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reconstruct", type=int, metavar="N", help="upsample N low-rate samples instead of a step")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.reconstruct is not None and args.reconstruct < 4:
        parser.error("--reconstruct needs at least 4 samples")
    if args.child:
        print(json.dumps(_run(args.reconstruct)))
        return
    for name, value in measure(args.reconstruct).items():
        print(f"{name} {value:.2f}")


if __name__ == "__main__":
    main()
