"""The repository's benchmark: fixed ``epipomp`` CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a checkout. Each repetition is one ``epipomp`` command
in a fresh single-threaded process (``child.py``); repetitions follow one
another (a closed loop with one client) until another would overrun
``--seconds``, and at least one always runs. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` pairs each untraced
repetition with a traced one and reports the per-layer metrics. Every
repetition's outputs are checked. Human-readable lines come first; the last
line of standard output is the JSON result. The full record, with the machine
and provenance, is written to ``.perfbench_out/<run>/BENCH.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, check_outputs, particle_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run must end within this many seconds.
HARD_LIMIT_S = 170.0
#: Fewest set-up samples behind ``setup_s``. Each repetition gives one; set-up-only
#: processes make up any shortfall.
MIN_SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "epipomp" / "cli.py").is_file():
        print(f"error: no epipomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    # compile once, so that every measured import reads bytecode
    compileall.compile_dir(str(ROOT / "src" / "epipomp"), quiet=1)

    bench = Bench(args, started)
    modes = (False, True) if args.trace else (False,)
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            bench.rep(traced=traced)
        now = time.perf_counter()
        if bench.stopped or now + (now - cycle_start) > started + args.seconds:
            break
    while len(bench.setup_samples()) < MIN_SETUP_SAMPLES and not bench.stopped:
        bench.rep(setup_only=True)
    if not all(bench.timed(traced) for traced in modes):
        print("error: no repetition completed", file=sys.stderr)
        for problem in bench.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = bench.layer_metrics() if args.trace else bench.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    attempted = sum(1 for r in bench.reps if not r["setup_only"])
    failed = sum(1 for r in bench.reps if r["problems"] and not r["setup_only"])
    correct = not bench.problems
    bench.save(metrics, attempted, failed, correct)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for message, n in bench.warnings().items():
        print(f"{args.workload} warning x{n}: {message}")
    for problem in bench.problems:
        print(f"{args.workload} FAILED: {problem}")
    print(f"results: {bench.run_dir / 'BENCH.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


class Bench:
    """The repetitions of one run and what they measured."""

    def __init__(self, args: argparse.Namespace, started: float) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.started = started
        self.run_dir = ROOT / ".perfbench_out" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        )
        self.run_dir.mkdir(parents=True)
        self.env = {
            **os.environ,
            **{var: "1" for var in THREAD_VARS},
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "TMPDIR": str(self.run_dir),
        }
        self.reps: list[dict] = []
        self.problems: list[str] = []
        self.stopped = False

    def rep(self, setup_only: bool = False, traced: bool = False) -> None:
        index = len(self.reps)
        out = self.run_dir / f"rep{index}"
        cmd = [sys.executable, str(HERE / "child.py"), self.args.workload, str(self.args.seed), str(out)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * traced + ["--toy"] * self.args.toy
        record = {"index": index, "setup_only": setup_only, "traced": traced, "problems": []}
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started)),
            )
        except subprocess.TimeoutExpired:
            record["problems"].append("timed out")
            self.stopped = True
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
                record["problems"].append(f"process exited with {proc.returncode}: {tail[0]}")
                self.stopped = True
            else:
                record.update(json.loads((out / "rep.json").read_text()))
        if "exit_code" in record:
            record["problems"] += check_outputs(self.workload, self.args.toy, out)
            if not record["problems"]:
                summary = json.loads((out / "summary.json").read_text())
                record["particle_steps"] = particle_steps(self.workload, self.args.toy, record["grid"], summary)
        self.problems += [f"rep{index}: {p}" for p in record["problems"]]
        self.reps.append(record)

    def timed(self, traced: bool) -> list[dict]:
        return [r for r in self.reps if "wall_s" in r and r["traced"] == traced]

    def setup_samples(self, key: str | None = None) -> list[float]:
        """Set-up times of every process of the run: one part, or import plus build."""
        return [r[key] if key else r["import_s"] + r["build_bundle_s"] for r in self.reps if "import_s" in r]

    def end_to_end(self) -> dict[str, float]:
        reps = self.timed(False)
        steps = [r["particle_steps"] / r["wall_s"] for r in reps if "particle_steps" in r]
        return {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(self.setup_samples()),
            "particle_steps_per_s": statistics.median(steps) if steps else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }

    def layer_metrics(self) -> dict[str, float]:
        traced = self.timed(True)
        untraced = self.timed(False)
        layers = [r["layers"] for r in traced]
        # counts are exact and must repeat; timings are medians
        exact = {name for name, v in layers[0].items() if isinstance(v, int)}
        out = {
            name: v if name in exact else statistics.median(x[name] for x in layers)
            for name, v in layers[0].items()
        }
        for x in layers[1:]:
            moved = sorted(name for name in exact if x[name] != layers[0][name])
            if moved:
                self.problems.append(f"exact counts differ between traced repetitions: {moved}")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        for r in traced:
            if r["layers"]["trace.self_sum_s"] > r["wall_s"]:
                self.problems.append(f"rep{r['index']}: layer self times sum past the traced wall time")
        out.update({
            "cli.import_s": statistics.median(self.setup_samples("import_s")),
            "cli.build_bundle_s": statistics.median(self.setup_samples("build_bundle_s")),
            "cli.warnings": statistics.median(sum(r["warnings"].values()) for r in traced),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / statistics.median(r["wall_s"] for r in untraced) - 1.0,
        })
        return out

    def warnings(self) -> Counter:
        """Warning messages and their counts in the first timed repetition."""
        first = next((r for r in self.reps if "warnings" in r), {"warnings": {}})
        return Counter(first["warnings"])

    def save(self, metrics: dict, attempted: int, failed: int, correct: bool) -> None:
        versions = next((r["versions"] for r in self.reps if "versions" in r), {})
        record = {
            "workload": self.args.workload,
            "command": ["epipomp"] + self.workload.argv(self.args.seed, Path("<rep dir>"), self.args.toy),
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "toy": self.args.toy,
            "machine": machine(),
            "versions": {"python": platform.python_version(), **versions},
            "commit": git_commit(),
            "thread_pinning": {var: self.env[var] for var in THREAD_VARS},
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "problems": self.problems,
            "warnings": dict(self.warnings()),
            "metrics": metrics,
            "reps": self.reps,
        }
        (self.run_dir / "BENCH.json").write_text(json.dumps(record, indent=1))


def machine() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
