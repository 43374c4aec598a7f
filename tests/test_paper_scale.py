"""bench/paper_scale.py, the paper-width memory scenario, run once end to end."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "paper_scale.py"


def test_default_edsr_step_peaks_at_most_300_mb():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True)
    figures = {name: float(value) for name, value in (line.split() for line in out.stdout.splitlines())}
    assert set(figures) == {"peak_mb", "step_mb", "wall_s"}
    assert 0 < figures["step_mb"] < figures["peak_mb"] <= 300, figures
    assert figures["wall_s"] > 0


def test_reconstruct_scenario_reports_its_figures():
    out = subprocess.run([sys.executable, str(SCRIPT), "--reconstruct", "64"],
                         capture_output=True, text=True, check=True)
    figures = {name: float(value) for name, value in (line.split() for line in out.stdout.splitlines())}
    assert set(figures) == {"peak_mb", "run_mb", "wall_s"}
    assert 0 <= figures["run_mb"] < figures["peak_mb"], figures
