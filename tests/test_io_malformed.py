"""Malformed input files: every loader either parses a corrupted copy of a
bundled CSV or raises DataFormatError naming the file, and the row when the
fault lies in one row."""

import datetime as dt
import functools
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epipomp import io
from epipomp.cli import bundled_path, main
from epipomp.errors import DataFormatError

GEOGRAPHY = ("geography.csv", "distance.csv", "river.csv")
FILES = ("cases.csv", "rainfall.csv", *GEOGRAPHY, "efficacy.csv", "scenarios.csv")
TEXT = {name: bundled_path(name).read_text() for name in FILES}
# columns holding names, where "abc" is a new name rather than a malformed value
NAME_COLUMNS = {"department", "scenario"}


def _parsed(name: str, paths: dict[str, Path]):
    """What the loader of file ``name`` makes of ``paths``, as plain values."""
    path = paths[name]
    if name == "cases.csv":
        s = io.load_cases(path)
        return s.units, s.values, s.dates
    if name == "rainfall.csv":
        return io.load_rainfall(path)
    if name in GEOGRAPHY:
        g = io.load_geography(*(paths[n] for n in GEOGRAPHY))
        return g.units, g.populations, g.densities, g.distances, g.river_flows
    if name == "efficacy.csv":
        c = io.load_efficacy(path)
        return c.weeks, c.one_dose, c.two_dose
    return io.load_scenario(path, "V1", dt.date(2019, 1, 5)).rows


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@functools.cache
def _clean(name: str):
    return _parsed(name, {n: bundled_path(n) for n in FILES})


@st.composite
def corruptions(draw):
    """(file, corrupted text, corruption kind, line of the fault, its column)."""
    name = draw(st.sampled_from(FILES))
    lines = TEXT[name].splitlines()
    header = lines[0].split(",")
    kind = draw(st.sampled_from(["drop", "append", "abc", "blank", "truncate", "rename"]))
    if kind == "truncate":
        cut = draw(st.integers(0, len(TEXT[name]) - 1))
        return name, TEXT[name][:cut], kind, None, None
    k = 0 if kind == "rename" else draw(st.integers(0, len(lines) - 1))
    if kind == "blank":
        k = draw(st.integers(1, len(lines)))
        return name, "\n".join(lines[:k] + [""] + lines[k:]) + "\n", kind, None, None
    cells = lines[k].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "drop":
        del cells[j]
    elif kind == "append":
        cells.append("7")
    elif kind == "abc":
        cells[j] = "abc"
    else:
        cells[j] += "_x"
    lines[k] = ",".join(cells)
    return name, "\n".join(lines) + "\n", kind, k + 1, header[j]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corruptions())
def test_corrupted_file_parses_or_names_file_and_row(case):
    name, text, kind, line, column = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: bundled_path(n) for n in FILES}
        paths[name] = Path(tmp) / name
        paths[name].write_text(text)
        try:
            parsed = _parsed(name, paths)
        except DataFormatError as exc:
            message = str(exc)
        else:
            if kind == "blank":
                assert _same(parsed, _clean(name))
            new_name = kind == "abc" and line > 1 and column in NAME_COLUMNS
            assert kind in ("blank", "truncate") or new_name, f"{kind} at line {line} was accepted"
            return
    assert kind != "blank", message
    renames_department = name == "geography.csv" and (
        kind == "truncate" or (kind == "abc" and column == "department")
    )
    # a department missing from geography.csv shows as a matrix header fault
    starts = [str(paths[name])] + ([str(paths["distance.csv"])] if renames_department else [])
    assert any(message.startswith(f"{s}: ") for s in starts), message
    if line is not None and not (kind == "abc" and line > 1 and column in NAME_COLUMNS):
        assert f": row {line}: " in message, message


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _load_geography(**files: Path):
    paths = {"geography": bundled_path("geography.csv"), "distance": bundled_path("distance.csv"),
             "river": bundled_path("river.csv"), **files}
    return io.load_geography(paths["geography"], paths["distance"], paths["river"])


class TestMalformedMatrix:
    def test_ragged_row_names_the_row(self, tmp_path):
        lines = TEXT["river.csv"].splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-3])
        path = _write(tmp_path / "river.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as exc:
            _load_geography(river=path)
        assert str(exc.value) == f"{path}: row 2: expected 11 fields, got 8"

    def test_extra_cell_names_the_row(self, tmp_path):
        lines = TEXT["distance.csv"].splitlines()
        lines[4] += ",12.5"
        path = _write(tmp_path / "distance.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as exc:
            _load_geography(distance=path)
        assert str(exc.value) == f"{path}: row 5: expected 11 fields, got 12"

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "distance.csv", "")
        with pytest.raises(DataFormatError) as exc:
            _load_geography(distance=path)
        assert str(exc.value) == f"{path}: empty file"

    def test_non_numeric_cell_exits_3_naming_file_and_row(self, tmp_path):
        path = _write(tmp_path / "distance.csv", TEXT["distance.csv"].replace("228.3", "abc", 1))
        out = tmp_path / "run"
        code = main([
            "filter", "--seed", "0", "--out", str(out), "--set", "model=model1",
            "--set", "filter.J=5", "--set", f"data.distance_matrix={path}",
        ])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == f"{path}: row 2: Nippes 'abc' is not a number"


class TestMalformedTables:
    def test_row_numbers_count_blank_lines(self, tmp_path):
        path = _write(
            tmp_path / "c.csv", "date,department,cases\n2015-01-03,A,1\n\n2015-01-10,A,-2\n"
        )
        with pytest.raises(DataFormatError, match=": row 4: "):
            io.load_cases(path)

    def test_one_date_written_two_ways_is_a_duplicate(self, tmp_path):
        path = _write(
            tmp_path / "c.csv", "date,department,cases\n2015-01-03,A,1\n20150103,A,5\n"
        )
        with pytest.raises(DataFormatError, match="rows 2 and 3"):
            io.load_cases(path)

    @pytest.mark.parametrize("value", ["inf", "NAN"])
    def test_non_finite_count_names_the_row(self, tmp_path, value):
        path = _write(tmp_path / "c.csv", f"date,department,cases\n2015-01-03,A,{value}\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 2: ")):
            io.load_cases(path)

    @pytest.mark.parametrize(
        "load, header",
        [(io.load_cases, "date,department,cases"),
         (io.load_efficacy, "weeks_since,efficacy_1dose,efficacy_2dose")],
        ids=["cases", "efficacy"],
    )
    def test_header_without_rows(self, tmp_path, load, header):
        path = _write(tmp_path / "f.csv", header + "\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: ")):
            load(path)

    def test_field_over_the_csv_limit_names_the_row(self, tmp_path):
        path = _write(tmp_path / "c.csv", f"date,department,cases\n2015-01-03,{'A' * 200_000},1\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: row 2: ")):
            io.load_cases(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xff\xfe\x00\x81date")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: ")):
            io.load_cases(path)

    def test_scenario_rows_of_other_scenarios_are_checked(self, tmp_path):
        path = _write(
            tmp_path / "s.csv",
            "scenario,department,start_date,duration_weeks,doses_1,doses_2\n"
            "V1,Centre,2018-07-14,104,75000,525000\n"
            "V2,Centre,2018-07-14,104,abc,525000\n",
        )
        with pytest.raises(DataFormatError) as exc:
            io.load_scenario(path, "V1", dt.date(2018, 1, 6))
        assert str(exc.value) == f"{path}: row 3: doses_1 'abc' is not a number"
