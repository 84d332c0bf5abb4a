"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Each run must pass its output checks and report every metric ``BENCHMARK.json``
names, with its unit and a finite value. There is no timing bound.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seconds: float = 1) -> tuple[dict, dict]:
    """The result line and the saved record of one toy-size run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    saved = next(line.split(": ", 1)[1] for line in lines if line.startswith("results: "))
    return json.loads(lines[-1]), json.loads(Path(saved).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    result, record = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    for key in ("machine", "versions", "commit", "seed", "thread_pinning"):
        assert record[key] is not None
    if trace:
        # the traced count of particle steps matches the untraced run's computed count
        untraced = next(r for r in record["reps"] if "wall_s" in r and not r["traced"])
        assert result["metrics"]["model.particle_steps"]["value"] == untraced["particle_steps"]


def test_traced_counts_repeat_at_the_same_seed():
    # long enough for two traced repetitions, whose exact counts run.py compares
    result, record = run_bench("m1-filter", 1, seconds=12)
    assert sum(r["traced"] for r in record["reps"]) >= 2
    assert result["correct"], record["problems"]


def test_no_sources_means_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "m2-traj", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
