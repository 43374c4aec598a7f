"""Peak memory of one paper-width AudioEDSR training step, in a fresh process.

    python3 bench/paper_scale.py

The step runs the default ``EdsrConfig`` (128 filters, 32 blocks, one x2
stage) in float64 on a batch of one: a 1,024-sample input, an L2 loss against
a 2,048-sample target, and the backward into every parameter. The Adam update
is left out; its two moments are a fixed 151 MB that no tape change moves. A
child process runs the step with one BLAS thread and reports:

    peak_mb  its peak resident set (ru_maxrss) after the step
    step_mb  that peak minus its peak once the model is built
    wall_s   the step's wall time
"""
from __future__ import annotations

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


def _step() -> dict:
    """Build the model, take the step and return the child's figures."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from audiosr import diffgraph as dg
    from audiosr import models

    dg.keep_freed_heap()  # as a training run does
    model = models.build_edsr(models.EdsrConfig(), seed=0)
    rng = np.random.default_rng(0)
    x, target = rng.standard_normal((1, 1, 1024)), rng.standard_normal((1, 1, 2048))
    built = _max_rss_mb()
    t0 = time.perf_counter()
    loss = dg.l2(model.forward(dg.Tensor(x)), dg.Tensor(target))
    dg.backward(loss, model.parameters())
    wall = time.perf_counter() - t0
    peak = _max_rss_mb()
    return {"peak_mb": peak, "step_mb": peak - built, "wall_s": wall}


def measure() -> dict:
    """Run the step in a fresh child process with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    child = subprocess.run([sys.executable, __file__, "--child"], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def main() -> None:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(_step()))
        return
    for name, value in measure().items():
        print(f"{name} {value:.2f}")


if __name__ == "__main__":
    main()
