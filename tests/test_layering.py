"""Imports inside the package point down the layers:

    dsp <- diffgraph <- models <- {train, metrics, probe} <- cli

``data`` sits beside ``diffgraph``. Modules on one layer do not import each
other, so the only way for a rule to reach two of them is through a lower
layer.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = "audiosr"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
LAYERS = {
    "dsp": 0,
    "diffgraph": 1,
    "data": 1,
    "models": 2,
    "train": 3,
    "metrics": 3,
    "probe": 3,
    "cli": 4,
}


def package_imports(tree: ast.AST) -> set[str]:
    """Sibling modules a module imports: relative, absolute and aliased forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                raise AssertionError(f"import reaches above the package: line {node.lineno}")
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != PACKAGE:
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:  # "from . import x" / "from audiosr import x"
                found.update(a.name for a in node.names if a.name in LAYERS)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_point_down(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    upward = {
        name for name in package_imports(tree) if LAYERS.get(name, -1) >= LAYERS[module]
    }
    assert not upward, f"{module} (layer {LAYERS[module]}) imports {sorted(upward)}"


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from . import probe", {"probe"}),
        ("from . import __version__, data as d", {"data"}),
        ("from .models import phase_shuffle as ps", {"models"}),
        ("from audiosr.train import TrainConfig", {"train"}),
        ("from audiosr import cli", {"cli"}),
        ("import audiosr.metrics as m", {"metrics"}),
        ("import numpy as np\nfrom scipy import signal", set()),
    ],
)
def test_import_forms_recognised(source, expected):
    assert package_imports(ast.parse(source)) == expected


def run_fresh(code: str) -> str:
    """stdout of ``python -c code`` in a fresh process that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_leaves_out_scipy_linalg_signal_and_interpolate():
    # each costs start-up per process; dsp loads scipy's LAPACK wrappers from their file
    code = (
        "import sys, audiosr, audiosr.cli\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api', 'scipy.signal',"
        " 'scipy.interpolate') if m in sys.modules))"
    )
    assert run_fresh(code).strip() == "[]"


@pytest.mark.parametrize("first", ["scipy.linalg", "audiosr"])
def test_lapack_wrappers_are_scipys_in_either_import_order(first):
    second = "audiosr" if first == "scipy.linalg" else "scipy.linalg"
    code = (
        f"import {first}\nimport {second}\n"
        "import scipy.linalg.lapack as lapack\nfrom audiosr import dsp\n"
        "print(dsp.dgtsv is lapack.dgtsv, dsp.dtbtrs is lapack.dtbtrs)"
    )
    assert run_fresh(code).split() == ["True", "True"]


def test_lapack_wrappers_fall_back_to_scipy_linalg():
    # with no extension file found, dsp takes the public scipy.linalg.lapack import
    code = (
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.no-such-suffix']\n"
        "from audiosr import dsp\nprint('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.lapack as lapack\n"
        "print(dsp.dgtsv is lapack.dgtsv, dsp.dtbtrs is lapack.dtbtrs)"
    )
    assert run_fresh(code).split() == ["True", "True", "True"]
