"""Command-line front end: configuration, orchestration, and result persistence.

Subcommands: simulate | filter | fit-if2 | fit-ibpf | fit-traj | benchmark |
profile | mcap | forecast. Settings resolve with precedence command line
(``--set key.path=value``) over config file (``--config``) over built-in
defaults. Every run writes a manifest (resolved config, seed, version, wall
time, and under ``inputs`` the SHA-256 of every file the command read), CSV
result tables, and a machine-readable summary.json into the output directory.

``build_bundle`` is the one place a model is built from its data. Its
``Bundle`` keeps the builder, and ``forecast`` simulates the model the filter
ran on, rebuilt by that builder with the scenario's vaccine cohorts added.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime as dt
import hashlib
import json
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, io
from .benchmark import fit_benchmark
from .errors import ConfigError, CoverageError, DataFormatError, EpipompError, ValidationError
from .filtering import particle_filter
from .forecast import check_window, forecast_from_filter, trajectory_projection
from .grid import TimeGrid, weekly_grid
from .haiti import (
    GeographyData,
    VaccinationSchedule,
    apply_vaccination_scenario,
    builtin_scenario,
    model1 as m1,
    model2 as m2,
    model3 as m3,
)
from .iterfilter import If2Settings, ibpf, if2
from .mcap import mcap_ci, profile_design
from .model import PompModel, simulate
from .optimize import trajectory_match
from .params import ParameterSet, family_key
from .series import CovariateTable, ObservationSeries, standardize_rainfall
from .toys import hmm_model, lgssm_model, metapop_model, pure_death_model, sir_model
from .units import WEEK

DEFAULTS: dict = {
    "model": "model3",
    "seed": None,
    "workers": 1,
    "out": "epipomp-run",
    "data": {
        "cases": None,
        "rainfall": None,
        "geography": None,
        "distance_matrix": None,
        "river_matrix": None,
        "efficacy": None,
        "scenario_file": None,
        "weeks": None,
        "hurricane_date": "2016-10-04",
        "phase_break_date": None,
    },
    "grid": {"steps_per_week": None},
    "params": {},
    "simulate": {"n_sims": 5, "horizon_weeks": 52},
    "filter": {"J": 500},
    "fit": {"J": 200, "M": 10, "cooling": 0.5, "rw_sd": {}, "eval_particles": None},
    "blocks": None,
    "fit_traj": {"free": []},
    "benchmark": {"per_unit": True},
    "profile": {"parameter": None, "values": [], "replicates": 3, "method": "if2"},
    "mcap": {"input": None, "confidence": 0.95, "span": 0.75},
    "forecast": {"scenario": "V0", "n_sims": 100, "horizon_weeks": 520, "J": 200, "window": 52,
                 "candidates": None},
}

COMMANDS = (
    "simulate",
    "filter",
    "fit-if2",
    "fit-ibpf",
    "fit-traj",
    "benchmark",
    "profile",
    "mcap",
    "forecast",
)

STOCHASTIC_COMMANDS = {"simulate", "filter", "fit-if2", "fit-ibpf", "profile", "forecast"}

TOY_MODELS = {
    "toy:sir": lambda: sir_model(),
    "toy:sir-det": lambda: sir_model(stochastic=False),
    "toy:metapop": lambda: metapop_model(),
    "toy:puredeath": lambda: pure_death_model(),
    "toy:puredeath-det": lambda: pure_death_model(stochastic=False),
    "toy:hmm": lambda: hmm_model(),
    "toy:lgssm": lambda: lgssm_model(),
}
MODELS = ("model1", "model2", "model3", *TOY_MODELS)

EXIT_CODES = {
    "config": 2,
    "data": 3,
    "runtime": 4,
}


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("epipomp").joinpath("data", name)))


def deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def parse_set(items: list[str]) -> dict:
    """Parse ``--set a.b=value`` overrides; values are JSON when possible, and a later one wins."""
    out: dict = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        out = deep_merge(out, value)
    return out


def _is_int(value) -> bool:
    return type(value) is int


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_date(value) -> bool:
    try:
        dt.date.fromisoformat(value)
    except (TypeError, ValueError):
        return False
    return True


def _list_of(takes: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(takes, value))


def _is_linspace(value) -> bool:
    return (isinstance(value, dict) and sorted(value) == ["hi", "lo", "n"] and _is_number(value["lo"])
            and _is_number(value["hi"]) and _is_int(value["n"]) and value["n"] >= 1)


# what a setting takes, by the type of its default; a null default also takes null
_TAKES = {
    bool: (lambda value: isinstance(value, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    str: (lambda value: value is None or _is_str(value), "a string or null"),
    type(None): (_is_str, "a string or null"),
}

# what a setting takes whose default does not say it, by its dotted key
_SHAPES = {
    "model": (lambda value: value in MODELS, f"one of {list(MODELS)}"),
    "seed": (lambda value: _is_int(value) and value >= 0, "a nonnegative integer or null"),
    "workers": (_is_count, "an integer >= 1"),
    "data.weeks": (lambda value: _list_of(_is_int)(value) and len(value) == 2,
                   "a list of two integers [start, stop] or null"),
    "data.hurricane_date": (lambda value: value is None or _is_date(value), "an ISO-8601 date or null"),
    "data.phase_break_date": (_is_date, "an ISO-8601 date or null"),
    "grid.steps_per_week": (_is_count, "an integer >= 1 or null"),
    "simulate.n_sims": (_is_count, "an integer >= 1"),
    "simulate.horizon_weeks": (_is_count, "an integer >= 1"),
    "filter.J": (_is_count, "an integer >= 1"),
    "fit.J": (_is_count, "an integer >= 1"),
    "fit.M": (_is_count, "an integer >= 1"),
    "fit.cooling": (lambda value: _is_number(value) and 0 < value <= 1, "a number in (0, 1]"),
    "fit.eval_particles": (_is_count, "an integer >= 1 or null"),
    "blocks": (_list_of(_list_of(_is_str)), "a list of lists of unit names or null"),
    "fit_traj.free": (_list_of(_is_str), "a list of parameter names"),
    "profile.values": (lambda value: _list_of(_is_number)(value) or _is_linspace(value),
                       'a list of numbers or {"lo": number, "hi": number, "n": integer >= 1}'),
    "profile.replicates": (_is_count, "an integer >= 1"),
    "profile.method": (lambda value: value in ("if2", "traj"), "'if2' or 'traj'"),
    "mcap.confidence": (lambda value: _is_number(value) and 0 < value < 1, "a number in (0, 1)"),
    "mcap.span": (lambda value: _is_number(value) and 0 < value <= 1, "a number in (0, 1]"),
    "forecast.n_sims": (_is_count, "an integer >= 1"),
    "forecast.horizon_weeks": (_is_count, "an integer >= 1"),
    "forecast.J": (_is_count, "an integer >= 1"),
    "forecast.window": (_is_count, "an integer >= 1"),
}


def check_config(cfg: dict, defaults: dict = DEFAULTS, prefix: str = "") -> None:
    """Refuse a key that ``DEFAULTS`` lacks and a value its setting does not take.

    This is the one record of what each setting takes. A table with defaults
    takes its own keys, an empty one (``params``, ``fit.rw_sd``) a table of
    numbers; a setting takes what ``_SHAPES`` says, else what ``_TAKES`` says
    for the type of its default. Week ranges, block partitions and parameter
    names need the model or the data and are checked where those are known.
    """
    for key, value in cfg.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {name!r}; {prefix[:-1] or 'the top level'} takes {sorted(defaults)}"
            )
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a table of settings, got {value!r}")
            if default:
                check_config(value, default, name + ".")
            elif bad := [f"{name}.{k}={v!r}" for k, v in value.items() if not _is_number(v)]:
                raise ConfigError(f"{name} must be a table of numbers, got {', '.join(bad)}")
        elif value is not None or default is not None:
            takes, what = _SHAPES.get(name) or _TAKES[type(default)]
            if not takes(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then ``--set``, then the flags. Only
    ``out`` is checked here: ``run_command`` checks the rest and reports in it."""
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"config file {args.config!r} cannot be read: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object, got {file_cfg!r}")
        cfg = deep_merge(cfg, file_cfg)
    cfg = deep_merge(cfg, parse_set(args.set or []))
    for flag in ("seed", "workers", "out"):
        if getattr(args, flag) is not None:
            cfg[flag] = getattr(args, flag)
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a string, got {cfg['out']!r}")
    return cfg


def _read_input(path: Path, inputs: dict[str, str]) -> Path:
    """Record an input file's SHA-256 under its path, for the manifest."""
    try:
        inputs[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from None
    return path


def _data_path(cfg: dict, key: str, default: str, inputs: dict[str, str]) -> Path:
    """The configured ``data.<key>`` file, else the bundled one, recorded."""
    given = cfg["data"][key]
    return _read_input(Path(given) if given else bundled_path(default), inputs)


@dataclasses.dataclass
class Bundle:
    """Everything a command needs for one model: data, grid, covariates, and
    the builder of its model.

    ``build_model(schedule)`` rebuilds the model from the same inputs with the
    vaccine cohorts of ``schedule`` added; ``build_model(None)`` is ``model``.
    The toys' builder returns their one fixed model.
    """

    model_id: str
    model: PompModel
    build_model: Callable[[VaccinationSchedule | None], PompModel]
    grid: TimeGrid
    data: ObservationSeries | None
    covs: CovariateTable | None
    geography: GeographyData | None
    params: ParameterSet
    origin_date: dt.date | None


def _rain_covariates(cfg: dict, inputs: dict, start_date: dt.date, geo) -> CovariateTable:
    d = cfg["data"]
    depts, dates, raw = io.load_rainfall(_data_path(cfg, "rainfall", "rainfall.csv", inputs))
    if list(depts) != list(geo.units):
        raise DataFormatError(f"rainfall departments {depts} do not match geography {list(geo.units)}")
    rain = standardize_rainfall(raw, depts)
    times = np.array([io.week_time(start_date, x) for x in dates])
    hurricane = None
    if d["hurricane_date"]:
        hurricane = io.week_time(start_date, io.parse_date(d["hurricane_date"]))
    return CovariateTable(
        times=times, step=WEEK, rainfall=rain, units=tuple(depts), hurricane_time=hurricane
    )


def _selected_weeks(cfg: dict, n_obs: int) -> tuple[int, int] | None:
    """The weeks [a, b) of ``n_obs`` that ``data.weeks`` selects; None for all."""
    weeks = cfg["data"]["weeks"]
    if weeks is None:
        return None
    a, b = weeks
    if not 0 <= a < b <= n_obs:
        raise ConfigError(f"weeks subset {weeks} out of range [0, {n_obs}]")
    return a, b


def _subset_weeks(cfg: dict, data: ObservationSeries, grid: TimeGrid):
    """The weeks [a, b) of the data and its grid that ``data.weeks`` selects."""
    weeks = _selected_weeks(cfg, data.n_obs)
    if weeks is None:
        return data, grid
    a, b = weeks
    sub_grid = TimeGrid(
        t0=grid.t0 if a == 0 else float(grid.obs_times[a - 1]),
        obs_times=grid.obs_times[a:b],
        euler_step=grid.euler_step,
    )
    return data.subset(a, b), sub_grid


def _weekly_grid(cfg: dict, n_weeks: int, t0: float = 0.0) -> TimeGrid:
    """``n_weeks`` weeks after ``t0`` in ``grid.steps_per_week`` steps a week; null is the
    model's own: 7 for the Haiti models (time in years), 1 for the toys (time in weeks)."""
    toy = cfg["model"].startswith("toy:")
    steps = cfg["grid"]["steps_per_week"] or (1 if toy else 7)
    return weekly_grid(n_weeks, t0, steps, 1.0 if toy else WEEK)


def build_bundle(cfg: dict, need_data: bool = True, inputs: dict[str, str] | None = None) -> Bundle:
    """The model of a checked config (``check_config``) with its data, grid and
    covariates. The SHA-256 of every file read goes into ``inputs`` when it is given.
    """
    model_id = cfg["model"]
    inputs = {} if inputs is None else inputs
    if model_id.startswith("toy:"):
        return _build_toy_bundle(cfg, model_id, inputs, need_data)

    d = cfg["data"]
    geo = io.load_geography(
        _data_path(cfg, "geography", "geography.csv", inputs),
        _data_path(cfg, "distance_matrix", "distance.csv", inputs),
        _data_path(cfg, "river_matrix", "river.csv", inputs),
    )
    cases = io.load_cases(
        _data_path(cfg, "cases", "cases.csv", inputs),
        expected_units=None if model_id == "model1" else geo.n_units,
    )
    start_date = io.parse_date(cases.dates[0])
    covs = None

    if model_id == "model3":
        init_weeks = 4
        if cases.n_obs <= init_weeks:
            raise DataFormatError("model3 needs more than 4 weeks of data (4 initialize)")
        init_obs = cases.values[:, :init_weeks]
        curve = io.load_efficacy(_data_path(cfg, "efficacy", "efficacy.csv", inputs))
        covs = _rain_covariates(cfg, inputs, start_date, geo)
        median_rain = float(np.median(covs.rainfall))

        def build(schedule=None):
            return m3.build_model3(
                init_obs, geo, schedule=schedule, curve=curve, median_rainfall=median_rain
            )

        data = cases.subset(init_weeks, cases.n_obs)
        grid = _weekly_grid(cfg, data.n_obs, (init_weeks - 1) * WEEK)
    elif model_id == "model2":
        init_cases = np.nan_to_num(cases.values[:, 0])

        def build(schedule=None):
            return m2.build_model2(init_cases, geo, schedule=schedule)

        data = cases.subset(1, cases.n_obs)
        grid = _weekly_grid(cfg, data.n_obs)
    else:
        data = cases.aggregate() if cases.n_units > 1 else cases
        grid = _weekly_grid(cfg, data.n_obs)
        # the trend is anchored on the whole series, before any weeks subset
        trend_window = (grid.t0, grid.t_end)
        pop = float(np.sum(geo.populations))
        curve = io.load_efficacy(_data_path(cfg, "efficacy", "efficacy.csv", inputs))
        phase_break = None
        if d["phase_break_date"]:
            phase_break = io.week_time(start_date, io.parse_date(d["phase_break_date"]))

        def build(schedule=None):
            return m1.build_model1(
                trend_window=trend_window, pop=pop, schedule=schedule, curve=curve,
                phase_break=phase_break,
            )

    data, grid = _subset_weeks(cfg, data, grid)
    model = build()
    params = _apply_param_overrides(model.params, cfg["params"])
    origin = io.parse_date(cases.dates[-1])
    return Bundle(model_id, model, build, grid, data, covs, geo, params, origin)


def _build_toy_bundle(cfg: dict, model_id: str, inputs: dict, need_data: bool) -> Bundle:
    model = TOY_MODELS[model_id]()
    data = None
    if cfg["data"]["cases"]:
        data = io.load_cases(_read_input(Path(cfg["data"]["cases"]), inputs))
        if tuple(data.units) != tuple(model.units):
            raise DataFormatError(
                f"cases departments {data.units} do not match toy units {model.units}"
            )
        n_obs = data.n_obs
    elif need_data:
        raise ConfigError(f"command needs a cases file for {model_id}")
    elif cfg["data"]["weeks"] is not None:
        raise ConfigError(f"data.weeks selects weeks of a cases file, and {model_id} has none")
    else:
        n_obs = int(cfg["simulate"]["horizon_weeks"])
    grid = _weekly_grid(cfg, n_obs)
    if data is not None:
        data, grid = _subset_weeks(cfg, data, grid)
    params = _apply_param_overrides(model.params, cfg["params"])
    return Bundle(model_id, model, lambda schedule=None: model, grid, data, None, None, params, None)


def _apply_param_overrides(params: ParameterSet, overrides: dict) -> ParameterSet:
    if not overrides:
        return params
    unknown = [k for k in overrides if k not in params]
    if unknown:
        raise ConfigError(f"parameter overrides name unknown parameters {unknown}")
    try:
        return params.replace({k: float(v) for k, v in overrides.items()})
    except ValidationError as exc:
        raise ConfigError(f"params.{exc}") from None


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, inputs: dict) -> dict:
    bundle = build_bundle(cfg, need_data=False, inputs=inputs)
    n_sims = int(cfg["simulate"]["n_sims"])
    res = simulate(bundle.model, bundle.params, bundle.grid, bundle.covs, n_sims=n_sims, seed=cfg["seed"])
    rows = []
    true_idx = (
        bundle.model.indices(bundle.model.true_infection_states)
        if bundle.model.true_infection_states
        else None
    )
    for s in range(n_sims):
        for n, t in enumerate(res.times):
            for u, unit in enumerate(res.units):
                true_inc = res.states[s, n + 1, true_idx[u]] if true_idx is not None else np.nan
                rows.append([s, n, unit, _fmt(res.observations[s, n, u]), _fmt(true_inc)])
    io.write_table(out / "simulations.csv", ["sim", "week", "department", "reported", "true_infections"], rows)
    summary = {
        "model": bundle.model_id,
        "n_sims": n_sims,
        "weeks": int(res.times.size),
        "total_reported": float(np.nansum(res.observations)),
    }
    obs = res.observations
    non_counts = int(np.sum(~(np.isfinite(obs) & (obs >= 0) & (obs == np.floor(obs)))))
    if non_counts:
        summary["notes"] = [
            f"{non_counts} of {obs.size} simulated reports ({int(np.sum(obs < 0))} below zero) "
            "are not nonnegative integers: the measurement model draws continuous values, "
            "and total_reported sums them as drawn"
        ]
    return summary


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "NA"
    f = float(v)
    return str(int(f)) if f.is_integer() else f"{f:.6g}"  # inf is not an integer


def cmd_filter(cfg: dict, out: Path, inputs: dict) -> dict:
    bundle = build_bundle(cfg, inputs=inputs)
    J = int(cfg["filter"]["J"])
    res = particle_filter(
        bundle.model, bundle.params, bundle.data, bundle.grid, bundle.covs, J=J, seed=cfg["seed"],
        blocks=cfg["blocks"],
    )
    rows = []
    for n in range(bundle.data.n_obs):
        row = [n, f"{res.cond_logliks[n]:.8g}", f"{res.ess[n]:.6g}"]
        rows.append(row + [f"{v:.6g}" for v in res.unit_cond_logliks[n]])
    io.write_table(
        out / "filter.csv",
        ["week", "cond_loglik", "ess"] + [family_key("cond_loglik", u) for u in bundle.model.units],
        rows,
    )
    return {
        "model": bundle.model_id,
        "J": J,
        "loglik": res.loglik,
        "failed_times": list(res.failed_times),
    }


def _fit_settings(cfg: dict, params: ParameterSet) -> If2Settings:
    fit = cfg["fit"]
    rw = {k: float(v) for k, v in fit["rw_sd"].items()}
    if not rw:
        raise ConfigError("fit.rw_sd must name at least one searched parameter")
    return If2Settings(
        J=int(fit["J"]),
        M=int(fit["M"]),
        rw_sd=rw,
        cooling=float(fit["cooling"]),
        initial=params,
        eval_particles=fit["eval_particles"],
    )


def _write_fit_outputs(out: Path, result, bundle: Bundle) -> dict:
    searched = list(result.searched)
    rows = [
        [rec.iteration, f"{rec.pass_loglik:.8g}", f"{rec.eval_loglik:.8g}"]
        + [f"{rec.center[k]:.10g}" for k in searched]
        for rec in result.trace
    ]
    io.write_table(out / "trace.csv", ["iteration", "pass_loglik", "eval_loglik"] + searched, rows)
    io.write_table(
        out / "swarm.csv", searched, [[f"{v:.10g}" for v in row] for row in result.swarm]
    )
    io.write_table(
        out / "candidates.csv",
        ["loglik"] + searched,
        [
            [f"{rec.eval_loglik:.8g}"] + [f"{rec.center[k]:.10g}" for k in searched]
            for rec in result.trace
        ],
    )
    (out / "params.json").write_text(json.dumps(dict(result.best), indent=2, sort_keys=True))
    return {
        "model": bundle.model_id,
        "best_loglik": result.best_loglik,
        "best": {k: result.best[k] for k in searched},
        "iterations": len(result.trace),
        "aborted": result.aborted,
    }


def cmd_fit_if2(cfg: dict, out: Path, inputs: dict) -> dict:
    bundle = build_bundle(cfg, inputs=inputs)
    settings = _fit_settings(cfg, bundle.params)
    result = if2(bundle.model, bundle.data, bundle.grid, bundle.covs, settings, seed=cfg["seed"])
    return _write_fit_outputs(out, result, bundle)


def cmd_fit_ibpf(cfg: dict, out: Path, inputs: dict) -> dict:
    bundle = build_bundle(cfg, inputs=inputs)
    settings = _fit_settings(cfg, bundle.params)
    result = ibpf(
        bundle.model, bundle.data, bundle.grid, bundle.covs, settings, seed=cfg["seed"], blocks=cfg["blocks"]
    )
    return _write_fit_outputs(out, result, bundle)


def cmd_fit_traj(cfg: dict, out: Path, inputs: dict) -> dict:
    bundle = build_bundle(cfg, inputs=inputs)
    free = list(cfg["fit_traj"]["free"])
    result = trajectory_match(
        bundle.model, bundle.data, bundle.grid, bundle.covs, bundle.params, free
    )
    (out / "params.json").write_text(json.dumps(dict(result.best), indent=2, sort_keys=True))
    io.write_table(
        out / "fit_traj.csv",
        ["parameter", "value"],
        [[k, f"{result.best[k]:.10g}"] for k in (free or result.best)],
    )
    return {
        "model": bundle.model_id,
        "loglik": result.loglik,
        "free": free,
        "n_eval": result.n_eval,
        "restarts": result.restarts,
    }


def cmd_benchmark(cfg: dict, out: Path, inputs: dict) -> dict:
    data = io.load_cases(_data_path(cfg, "cases", "cases.csv", inputs))
    weeks = _selected_weeks(cfg, data.n_obs)
    if weeks is not None:
        data = data.subset(*weeks)
    fit = fit_benchmark(data, per_unit=bool(cfg["benchmark"]["per_unit"]))
    io.write_table(
        out / "benchmark.csv",
        ["department", "alpha", "b", "phi", "loglik"],
        [
            [u, f"{fit.params[u].alpha:.8g}", f"{fit.params[u].b:.8g}",
             f"{fit.params[u].phi:.8g}", f"{fit.unit_logliks[u]:.8g}"]
            for u in fit.units
        ],
    )
    return {
        "model": "benchmark",
        "loglik": fit.loglik,
        "k": fit.k,
        "aic": fit.aic,
        "notes": list(fit.notes),
    }


def _profile_job(cfg: dict, parameter: str, value: float, seed: int) -> tuple[float, dict]:
    """One clamped maximization and the hashes of the files it read; rebuilt
    from config so it can run in a worker."""
    inputs: dict[str, str] = {}
    bundle = build_bundle(cfg, inputs=inputs)
    params = bundle.params.replace({parameter: value})
    if cfg["profile"]["method"] == "traj":
        free = [p for p in cfg["fit_traj"]["free"] if p != parameter]
        loglik = trajectory_match(bundle.model, bundle.data, bundle.grid, bundle.covs, params, free).loglik
    else:
        rw = {k: v for k, v in cfg["fit"]["rw_sd"].items() if k != parameter}
        settings = _fit_settings({**cfg, "fit": {**cfg["fit"], "rw_sd": rw}}, params)
        loglik = if2(bundle.model, bundle.data, bundle.grid, bundle.covs, settings, seed=seed).best_loglik
    return loglik, inputs


def cmd_profile(cfg: dict, out: Path, inputs: dict) -> dict:
    pr = cfg["profile"]
    parameter = pr["parameter"]
    if not parameter:
        raise ConfigError("profile.parameter must be set")
    values = pr["values"]
    if not values:
        raise ConfigError("profile.values must be set")
    if isinstance(values, dict):  # {"lo", "hi", "n"}: n even steps
        values = np.linspace(float(values["lo"]), float(values["hi"]), values["n"])
    values = [float(v) for v in values]
    # refuse a parameter or a value before any job runs
    params = build_bundle(cfg, inputs=inputs).params
    if parameter not in params:
        raise ConfigError(f"profiled parameter {parameter!r} is not a model parameter")
    for v in values:
        try:
            params.replace({parameter: v})
        except ValidationError as exc:
            raise ConfigError(f"profile.values: {exc}") from None
    jobs = profile_design(parameter, values, replicates=int(pr["replicates"]), base_seed=cfg["seed"])
    workers = int(cfg["workers"])
    args = [(cfg, j.parameter, j.value, j.seed) for j in jobs]
    if workers > 1:
        # the pool forks all its workers at the first submit: no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            results = list(pool.map(_profile_job_star, args))
    else:
        results = [_profile_job_star(a) for a in args]
    logliks = [ll for ll, _ in results]
    for _, read in results:
        inputs.update(read)
    rows = [
        [j.parameter, f"{j.value:.10g}", j.replicate, j.seed, f"{ll:.8g}"]
        for j, ll in zip(jobs, logliks)
    ]
    io.write_table(out / "profile.csv", ["parameter", "value", "replicate", "seed", "loglik"], rows)
    return {
        "parameter": parameter,
        "n_points": len(values),
        "replicates": int(pr["replicates"]),
        "best_loglik": float(np.nanmax(logliks)),
    }


def _profile_job_star(args):
    return _profile_job(*args)


def cmd_mcap(cfg: dict, out: Path, inputs: dict) -> dict:
    src = cfg["mcap"]["input"]
    if not src:
        raise ConfigError("mcap.input must point at a profile.csv")
    path = _read_input(Path(src), inputs)
    values, logliks, names = [], [], set()
    for line, row in io.read_csv(path, ["parameter", "value", "loglik"], exact=False):
        names.add(row["parameter"])
        values.append(io.number(path, line, row, "value"))
        logliks.append(io.number(path, line, row, "loglik"))
    curve = mcap_ci(
        np.array(values),
        np.array(logliks),
        confidence=float(cfg["mcap"]["confidence"]),
        span=float(cfg["mcap"]["span"]),
        parameter=",".join(sorted(names)),
    )
    io.write_table(
        out / "mcap.csv",
        ["value", "smoothed_loglik"],
        [[f"{v:.10g}", f"{s:.8g}"] for v, s in zip(curve.grid, curve.smoothed)],
    )
    return {
        "parameter": curve.parameter,
        "mle": curve.mle,
        "ci_lower": curve.ci[0],
        "ci_upper": curve.ci[1],
        "cutoff": curve.cutoff,
        "se_stat": curve.se_stat,
        "se_mc": curve.se_mc,
        "open_lower": curve.open_lower,
        "open_upper": curve.open_upper,
        "confidence": curve.confidence,
    }


def _load_candidates(
    path: str | Path, params: ParameterSet, inputs: dict
) -> list[tuple[ParameterSet, float]]:
    """Rows of a candidates.csv (loglik + parameter columns) as parameter
    draws with likelihood weights, anchored on the given parameter set."""
    path = _read_input(Path(path), inputs)
    out = []
    for line, row in io.read_csv(path, ["loglik"], exact=False):
        unknown = [k for k in row if k != "loglik" and k not in params]
        if unknown:
            raise ConfigError(f"{path}: candidate columns {unknown} are not model parameters")
        updates = {k: io.number(path, line, row, k) for k in row if k in params}
        try:
            draw = params.replace(updates)
        except ValidationError as exc:
            raise DataFormatError(f"{path}: row {line}: {exc}") from None
        out.append((draw, io.number(path, line, row, "loglik")))
    return out


def _embed_states(old_model, new_model, X: np.ndarray) -> np.ndarray:
    """Map filter particles into a model with extra (zero) compartments."""
    out = np.zeros((X.shape[0], new_model.n_states))
    old_index = {n: i for i, n in enumerate(old_model.state_names)}
    for j, name in enumerate(new_model.state_names):
        if name in old_index:
            out[:, j] = X[:, old_index[name]]
    return out


def cmd_forecast(cfg: dict, out: Path, inputs: dict) -> dict:
    """Filter the bundle's model, then simulate that model, rebuilt with the
    scenario's vaccine cohorts, forward from the final filtering particles.
    model2 is deterministic and is projected from its start instead."""
    bundle = build_bundle(cfg, inputs=inputs)
    fc = cfg["forecast"]
    seed = cfg["seed"]
    scenario_id = str(fc["scenario"])
    horizon = int(fc["horizon_weeks"])
    origin = bundle.grid.t_end
    schedule = None
    if bundle.model_id.startswith("toy:"):
        if scenario_id != "V0":
            raise ConfigError(f"toy models have no vaccination: forecast.scenario must be V0, not {scenario_id!r}")
        if cfg["data"]["scenario_file"]:
            raise ConfigError("toy models have no vaccination: data.scenario_file must be unset")
    else:
        geo = bundle.geography
        if cfg["data"]["scenario_file"]:
            path = _read_input(Path(cfg["data"]["scenario_file"]), inputs)
            spec = io.load_scenario(path, scenario_id, bundle.origin_date)
        else:
            spec = builtin_scenario(scenario_id, geo)
        schedule = apply_vaccination_scenario(spec, bundle.model_id, geo, origin=origin)
    model_fc = bundle.build_model(schedule)

    if bundle.model_id == "model2":
        proj = trajectory_projection(
            model_fc, bundle.params, bundle.covs, _weekly_grid(cfg, round(origin / WEEK) + horizon)
        )
        keep = proj.times > origin + 1e-12
        io.write_table(
            out / "projection.csv",
            ["week", "department", "mean_reported", "lower", "upper"],
            [
                [n, u, f"{proj.mean_reported[i, ui]:.6g}", f"{proj.lower[i, ui]:.6g}", f"{proj.upper[i, ui]:.6g}"]
                for n, i in enumerate(np.where(keep)[0])
                for ui, u in enumerate(proj.units)
            ],
        )
        return {
            "model": "model2",
            "scenario": scenario_id,
            "horizon_weeks": horizon,
            "elimination_probability": None,
            "notes": ["deterministic model: trajectories only, elimination probability not defined"],
        }

    window = int(fc["window"])
    try:  # before the filter, not after every simulation
        check_window(window, horizon)
    except ValidationError as exc:
        raise ConfigError(f"forecast.window: {exc}") from None
    pf = particle_filter(
        bundle.model, bundle.params, bundle.data, bundle.grid, bundle.covs,
        J=int(fc["J"]), seed=seed, blocks=cfg["blocks"],
    )
    sample = _embed_states(bundle.model, model_fc, pf.filter_sample)
    candidates = (
        _load_candidates(fc["candidates"], bundle.params, inputs) if fc.get("candidates") else None
    )
    res = forecast_from_filter(
        model_fc, bundle.params, sample, bundle.covs, _weekly_grid(cfg, horizon, origin),
        int(fc["n_sims"]), seed=seed + 1, window=window, param_candidates=candidates,
    )
    summary = _write_forecast(out, res, bundle, scenario_id)
    summary["filter_loglik"] = pf.loglik
    return summary


def _write_forecast(out: Path, res, bundle: Bundle, scenario_id: str) -> dict:
    national_true = res.true_infections.sum(axis=2)
    national_rep = res.reported.sum(axis=2)
    rows = []
    for s in range(national_true.shape[0]):
        for h in range(national_true.shape[1]):
            rows.append([s, h + 1, _fmt(national_true[s, h]), _fmt(national_rep[s, h])])
    io.write_table(
        out / "forecast.csv",
        ["sim", "week", "true_infections_national", "reported_national"],
        rows,
    )
    io.write_table(
        out / "elimination.csv",
        ["sim", "eliminated"],
        [[s, int(res.eliminated[s])] for s in range(res.eliminated.size)],
    )
    return {
        "model": bundle.model_id,
        "scenario": scenario_id,
        "n_sims": int(res.eliminated.size),
        "horizon_weeks": int(res.times.size),
        "window": res.window,
        "elimination_probability": res.probability,
        "source": "filtering",
    }


HANDLERS = {
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "fit-if2": cmd_fit_if2,
    "fit-ibpf": cmd_fit_ibpf,
    "fit-traj": cmd_fit_traj,
    "benchmark": cmd_benchmark,
    "profile": cmd_profile,
    "mcap": cmd_mcap,
    "forecast": cmd_forecast,
}


def run_command(command: str, cfg: dict) -> int:
    """Check ``cfg`` and execute one command; returns the process exit status."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # nowhere to report but stderr
        print(f"config error: out {cfg['out']!r} cannot be made a directory: {exc.strerror}", file=sys.stderr)
        return EXIT_CODES["config"]
    inputs: dict[str, str] = {}  # path -> SHA-256 of every file the command reads
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "version": __version__,
        "inputs": inputs,
        "started": dt.datetime.now().isoformat(timespec="seconds"),
        "status": "running",
        "partial": True,
    }
    started = time.time()
    try:
        check_config(cfg)
        if command in STOCHASTIC_COMMANDS and cfg["seed"] is None:
            raise ConfigError("a --seed is mandatory for stochastic commands")
        summary = HANDLERS[command](cfg, out, inputs)
        manifest["status"] = "ok"
        manifest["partial"] = False
        code = 0
    except (ConfigError, ValidationError, CoverageError) as exc:
        manifest["status"] = f"config/validation error: {exc}"
        summary = {"error": str(exc), "category": "config"}
        code = EXIT_CODES["config"]
    except DataFormatError as exc:
        manifest["status"] = f"data error: {exc}"
        summary = {"error": str(exc), "category": "data"}
        code = EXIT_CODES["data"]
    except EpipompError as exc:
        manifest["status"] = f"runtime error: {exc}"
        summary = {"error": str(exc), "category": "runtime"}
        code = EXIT_CODES["runtime"]
    except Exception as exc:  # noqa: BLE001 - surfaced in the manifest, never silent
        manifest["status"] = f"unexpected error: {exc!r}"
        summary = {"error": repr(exc), "category": "runtime"}
        code = EXIT_CODES["runtime"]
    manifest["wall_time_s"] = round(time.time() - started, 3)
    manifest["outputs"] = sorted(p.name for p in out.iterdir() if p.is_file())
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default))
    if code == 0:
        print(f"{command}: ok ({out})")
    else:
        print(f"{command}: {summary['category']} error: {summary['error']}", file=sys.stderr)
    return code


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epipomp",
        description="Simulation and likelihood-based inference for POMP epidemic models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory for stochastic commands)")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers for job-level parallelism")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set filter.J=1000")
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    return run_command(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
