"""CSV ingestion and persistence for observed data, covariates, geography,
efficacy curves, and vaccination scenarios.

Every input file is read by ``read_csv`` and every number in it parsed by
``number``. ``read_csv`` checks the header on line 1, skips empty lines,
rejects a row whose field count differs from the header's, and hands back each
row with its line in the file; a malformed file raises DataFormatError naming
the file and that line. Case and rainfall files are long format
(`date,department,value`) on a uniform weekly date grid; a matrix has the
header `department,<department names>` and one row per department. Times map
to model years as week-counts from a series origin (one week = 1/52.14 yr).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError
from .haiti.efficacy import EfficacyCurve
from .haiti.geography import GeographyData
from .haiti.scenarios import CampaignRow, ScenarioSpec
from .series import ObservationSeries
from .units import WEEK

MISSING_TOKENS = {"NA", "NaN", "nan", ""}


def parse_date(text: str, path: str = "", row: int = 0) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataFormatError(f"{path}: row {row}: bad ISO-8601 date {text!r}") from exc


def weeks_between(d0: dt.date, d1: dt.date) -> float:
    return (d1 - d0).days / 7.0


def week_time(d0: dt.date, d1: dt.date) -> float:
    """Model time (years) of date d1 relative to origin date d0."""
    return weeks_between(d0, d1) * WEEK


def read_csv(
    path: str | Path, columns: Sequence[str], exact: bool = True
) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) pairs of a CSV file, fields read verbatim.

    The header on line 1 must be ``columns`` in order, or with ``exact=False``
    must name at least ``columns``. Empty lines are skipped; every other row
    must have as many fields as the header, and there must be at least one.
    """
    path = Path(path)
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            if exact and header != list(columns):
                raise DataFormatError(
                    f"{path}: row 1: expected header {','.join(columns)!r}, got {','.join(header)!r}"
                )
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataFormatError(f"{path}: row 1: header lacks column(s) {missing}")
            n = len(header)
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != n:
                    raise DataFormatError(
                        f"{path}: row {reader.line_num}: expected {n} fields, got {len(row)}"
                    )
                rows.append((reader.line_num, dict(zip(header, row))))
        except csv.Error as exc:
            raise DataFormatError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not a text file: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return rows


def number(path: str | Path, line: int, row: dict[str, str], column: str) -> float:
    """``row[column]`` as a float, or a DataFormatError naming file and row."""
    try:
        return float(row[column])
    except ValueError:
        raise DataFormatError(f"{path}: row {line}: {column} {row[column]!r} is not a number") from None


def _long_table(path: str | Path, value_col: str, integer: bool):
    """Read a long (date, department, value) table into a dense matrix."""
    seen: dict[tuple[dt.date, str], int] = {}
    dates: dict[dt.date, int] = {}  # date -> its first line
    depts: dict[str, None] = {}
    parsed = []
    for line, r in read_csv(path, ["date", "department", value_col]):
        d = parse_date(r["date"], str(path), line)
        dep = r["department"]
        key = (d, dep)
        if key in seen:
            raise DataFormatError(
                f"{path}: duplicate (date, department) = ({d}, {dep}) at rows {seen[key]} and {line}"
            )
        seen[key] = line
        dates.setdefault(d, line)
        depts[dep] = None
        raw = r[value_col]
        if raw in MISSING_TOKENS:
            val = np.nan
        else:
            val = number(path, line, r, value_col)
            if not 0 <= val < math.inf:
                raise DataFormatError(f"{path}: row {line}: {value_col} {raw!r} is negative or not finite")
            if integer and val != round(val):
                raise DataFormatError(f"{path}: row {line}: non-integer count {val}")
        parsed.append((d, dep, val))
    date_list = sorted(dates)
    gaps = [(a, b) for a, b in zip(date_list[:-1], date_list[1:]) if (b - a).days != 7]
    if gaps:
        raise DataFormatError(
            f"{path}: row {dates[gaps[0][1]]}: dates are not a uniform weekly grid; gaps at: "
            + "; ".join(f"{a} -> {b}" for a, b in gaps)
        )
    dept_list = sorted(depts)
    index_d = {d: j for j, d in enumerate(date_list)}
    index_u = {u: j for j, u in enumerate(dept_list)}
    mat = np.full((len(dept_list), len(date_list)), np.nan)
    filled = np.zeros(mat.shape, dtype=bool)
    for d, dep, val in parsed:
        mat[index_u[dep], index_d[d]] = val
        filled[index_u[dep], index_d[d]] = True
    if not filled.all():
        missing = [
            f"({dept_list[u]}, {date_list[n]})"
            for u, n in zip(*np.where(~filled))
        ][:5]
        raise DataFormatError(f"{path}: incomplete department x date grid; missing {missing}")
    return dept_list, date_list, mat


def load_cases(path: str | Path, expected_units: int | None = None) -> ObservationSeries:
    """Weekly reported cases: CSV `date,department,cases` with NA for missing."""
    depts, dates, mat = _long_table(path, "cases", integer=True)
    if expected_units is not None and len(depts) != expected_units:
        raise DataFormatError(
            f"{path}: expected {expected_units} departments, found {len(depts)}: {depts}"
        )
    return ObservationSeries(tuple(depts), mat, tuple(d.isoformat() for d in dates))


def load_rainfall(path: str | Path):
    """Weekly rainfall (mm): returns (departments, dates, raw U x T matrix)."""
    depts, dates, mat = _long_table(path, "mm", integer=False)
    if np.any(np.isnan(mat)):
        raise DataFormatError(f"{path}: rainfall must not contain missing values")
    return depts, dates, mat


def load_geography(
    geo_path: str | Path, distance_path: str | Path, river_path: str | Path
) -> GeographyData:
    """Departments, sorted by name, with their populations, densities and the
    distance and river matrices, which list departments in geography order."""
    depts, pops, dens = [], [], []
    for line, r in read_csv(geo_path, ["department", "population", "density"]):
        depts.append(r["department"])
        pops.append(number(geo_path, line, r, "population"))
        dens.append(number(geo_path, line, r, "density"))
    order = np.argsort(depts)
    sort = np.ix_(order, order)
    dist = load_matrix(distance_path, depts)[sort]
    river = load_matrix(river_path, depts)[sort]
    return GeographyData(
        tuple(depts[i] for i in order), np.array(pops)[order], np.array(dens)[order], dist, river
    )


def load_matrix(path: str | Path, units: Sequence[str]) -> np.ndarray:
    """Square matrix CSV with header ``department,<units>``, in that order, and
    one row per unit, named in its first cell; rows may come in any order."""
    index = {u: i for i, u in enumerate(units)}
    mat = np.empty((len(units), len(units)))
    seen: dict[str, int] = {}
    for line, r in read_csv(path, ["department", *units]):
        name = r["department"]
        if name not in index:
            raise DataFormatError(f"{path}: row {line}: unknown department {name!r}")
        if name in seen:
            raise DataFormatError(f"{path}: row {line}: department {name!r} repeats row {seen[name]}")
        seen[name] = line
        mat[index[name]] = [number(path, line, r, u) for u in units]
    missing = [u for u in units if u not in seen]
    if missing:
        raise DataFormatError(f"{path}: missing rows for {missing}")
    return mat


def load_efficacy(path: str | Path) -> EfficacyCurve:
    columns = ["weeks_since", "efficacy_1dose", "efficacy_2dose"]
    table = np.array(
        [[number(path, line, r, c) for c in columns] for line, r in read_csv(path, columns)]
    )
    return EfficacyCurve(table[:, 0], table[:, 1], table[:, 2])


def load_scenario(
    path: str | Path,
    scenario_id: str,
    origin_date: dt.date,
) -> ScenarioSpec:
    """One scenario's campaign rows; starts are relative to ``origin_date``.
    Every row is parsed, whichever scenario it belongs to. A scenario id
    without rows is an error, except V0, which has no campaigns."""
    columns = ["scenario", "department", "start_date", "duration_weeks", "doses_1", "doses_2"]
    campaign_rows = []
    for line, r in read_csv(path, columns):
        start = week_time(origin_date, parse_date(r["start_date"], str(path), line))
        duration, doses_1, doses_2 = (number(path, line, r, c) for c in columns[3:])
        if r["scenario"] == scenario_id:
            campaign_rows.append(CampaignRow(r["department"], start, duration, doses_1, doses_2))
    if not campaign_rows and scenario_id != "V0":
        raise DataFormatError(f"{path}: no rows for scenario {scenario_id!r}")
    return ScenarioSpec(scenario_id, tuple(campaign_rows))


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
