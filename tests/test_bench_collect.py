"""bench/collect.py, the BENCH_<n>.json collector, run once end to end on a short eval."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "collect.py"


def test_summary_is_the_median_and_inclusive_quartiles():
    spec = importlib.util.spec_from_file_location("collect", SCRIPT)
    collect = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(collect)
    assert collect.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 4.0, 2.0, 3.0]}
    assert collect.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "runs": [7.0]}


def test_one_short_eval_fills_every_metric(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), str(out), "--workloads", "eval", "--seeds", "1",
                    "--seconds", "1", "--no-paper-scale"], capture_output=True, text=True, check=True)
    bench = json.loads(out.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(bench) == {"end_to_end", "correct", "per_layer", "meta", "host"}
    end_to_end, per_layer = bench["end_to_end"]["eval"], bench["per_layer"]["eval"]
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}
    assert all(len(m["runs"]) == 1 and m["q1"] == m["median"] == m["q3"] for m in end_to_end.values())
    assert per_layer["metrics.evaluate_model.calls"] > 0
    assert bench["correct"]["eval"]["all_runs"] and bench["correct"]["eval"]["failed"] == 0
    assert bench["meta"]["seeds"] == [1] and bench["meta"]["seconds"] == 1
    assert bench["meta"]["src_lines"] == {
        p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "audiosr").glob("*.py")}
