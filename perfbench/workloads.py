"""The benchmark's fixed CLI workloads, their work counts and their output gates.

Each workload is one ``epipomp`` command line. ``settings`` are its
``--set`` overrides at benchmark size; ``toy`` overrides shrink it for the
smoke test. Nothing here imports the package: the gates read the files a run
leaves in its output directory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    settings: dict[str, str]
    toy: dict[str, str]
    #: Summary key holding the run's log-likelihood.
    loglik_key: str
    #: Reference log-likelihood at benchmark size and the allowed distance from
    #: it. Stochastic workloads use a Monte Carlo tolerance (the seed changes
    #: the estimate); the deterministic one a floating-point tolerance.
    reference: float
    tolerance: float

    def config(self, toy: bool) -> dict[str, str]:
        return {**self.settings, **self.toy} if toy else dict(self.settings)

    def sets(self, toy: bool) -> list[str]:
        """The ``--set`` values of the command line."""
        return [f"{key}={value}" for key, value in self.config(toy).items()]

    def argv(self, seed: int, out: Path, toy: bool) -> list[str]:
        args = [self.command, "--seed", str(seed), "--out", str(out)]
        for item in self.sets(toy):
            args += ["--set", item]
        return args


# References: mean of the reported log-likelihood over workload seeds 0-11 at
# benchmark size. Tolerances are about six standard deviations of those twelve
# values, so a change that consumes the random stream differently still passes
# while a change to the likelihood itself does not.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="m3-ibpf",
            command="fit-ibpf",
            settings={
                "model": "model3",
                "fit.J": "200",
                "fit.M": "2",
                "data.weeks": "[0,20]",
                "fit.rw_sd": '{"sigma_proc":0.02,"beta_w":0.02}',
            },
            toy={"fit.J": "20", "fit.M": "1", "data.weeks": "[0,6]"},
            loglik_key="best_loglik",
            reference=-1376.98,
            tolerance=8.0,
        ),
        Workload(
            name="m1-filter",
            command="filter",
            settings={"model": "model1", "filter.J": "1000", "data.weeks": "[0,120]"},
            toy={"filter.J": "20", "data.weeks": "[0,8]"},
            loglik_key="loglik",
            reference=-2422.9,
            tolerance=550.0,
        ),
        Workload(
            name="m3-forecast",
            command="forecast",
            settings={
                "model": "model3",
                "data.weeks": "[0,40]",
                "forecast.J": "200",
                "forecast.scenario": "V4",
                "forecast.horizon_weeks": "104",
                "forecast.n_sims": "50",
            },
            toy={
                "data.weeks": "[0,6]",
                "forecast.J": "20",
                "forecast.horizon_weeks": "52",
                "forecast.n_sims": "5",
            },
            loglik_key="filter_loglik",
            reference=-3235.1,
            tolerance=450.0,
        ),
        Workload(
            name="m2-traj",
            command="fit-traj",
            settings={
                "model": "model2",
                "fit_traj.free": '["beta_w"]',
                "data.weeks": "[0,4]",
            },
            toy={"data.weeks": "[0,3]"},
            loglik_key="loglik",
            reference=-67.78461920475809,
            tolerance=1e-6,
        ),
    )
}

#: m3-forecast: mean weekly national true infections per simulation over
#: seeds 0-11 (sd 185), and the tolerance on it. This gates the forecast
#: itself, not only the filter in front of it.
FORECAST_MEAN_INFECTIONS = 5519.0
FORECAST_MEAN_TOLERANCE = 1100.0


def particle_steps(workload: Workload, toy: bool, grid: dict, summary: dict) -> int:
    """Particles times Euler substeps one run propagates.

    ``grid`` holds the substep counts of the run's time grid: ``substeps``
    over the whole data window and ``week_substeps`` in one week.
    """
    cfg = workload.config(toy)
    if workload.command == "filter":
        return int(cfg["filter.J"]) * grid["substeps"]
    if workload.command == "fit-ibpf":
        # each iteration is one perturbed pass and one evaluation filter of J particles
        return 2 * int(summary["iterations"]) * int(cfg["fit.J"]) * grid["substeps"]
    if workload.command == "forecast":
        filter_j = int(cfg["forecast.J"])
        sims = int(cfg["forecast.n_sims"]) * int(cfg["forecast.horizon_weeks"])
        return filter_j * grid["substeps"] + sims * grid["week_substeps"]
    if workload.command == "fit-traj":
        # one skeleton at the start point, then n_eval optimizer evaluations
        return (int(summary["n_eval"]) + 1) * grid["substeps"]
    raise ValueError(f"no particle-step count for command {workload.command!r}")


def check_outputs(workload: Workload, toy: bool, out: Path) -> list[str]:
    """Problems with one run's outputs; an empty list means the run passed."""
    summary_path = out / "summary.json"
    if not summary_path.exists():
        return ["no summary.json written"]
    summary = json.loads(summary_path.read_text())
    if "error" in summary:
        return [f"run failed: {summary['error']}"]
    problems = []
    value = summary.get(workload.loglik_key)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        problems.append(f"{workload.loglik_key} is {value!r}, not a finite number")
    elif not toy and abs(value - workload.reference) > workload.tolerance:
        problems.append(
            f"{workload.loglik_key} {value} is further than {workload.tolerance} "
            f"from the reference {workload.reference}"
        )
    if workload.command == "forecast":
        cfg = workload.config(toy)
        expected = int(cfg["forecast.n_sims"]) * int(cfg["forecast.horizon_weeks"])
        table = out / "forecast.csv"
        rows = []
        if table.exists():
            with table.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        if len(rows) != expected:
            problems.append(f"forecast.csv has {len(rows)} rows, expected {expected}")
        elif not toy:
            mean = sum(float(r["true_infections_national"]) for r in rows) / len(rows)
            if abs(mean - FORECAST_MEAN_INFECTIONS) > FORECAST_MEAN_TOLERANCE:
                problems.append(
                    f"mean weekly national true infections {mean:.1f} is further than "
                    f"{FORECAST_MEAN_TOLERANCE} from the reference {FORECAST_MEAN_INFECTIONS}"
                )
        p = summary.get("elimination_probability")
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            problems.append(f"elimination_probability {p!r} is not in [0, 1]")
    return problems
