"""Unit tests for the experiment result containers."""

from __future__ import annotations

import json

import pytest

from repro.experiments.results import (
    Series,
    TableResult,
    benchmark_summary,
    benchmark_table,
    format_series_table,
    load_benchmark_record,
)


def test_series_append_and_final():
    series = Series(label="ours")
    series.append(1, 0.5)
    series.append(2, 0.7)
    assert series.final() == 0.7
    assert (series.x, series.y) == ([1.0, 2.0], [0.5, 0.7])
    assert len(series) == 2


def test_series_final_requires_points():
    with pytest.raises(ValueError):
        Series(label="empty").final()


def test_table_add_row_and_columns():
    table = TableResult(title="t", columns=["a", "b"])
    table.add_row(a=1, b=2.5)
    table.add_row(a=3, b=4.5)
    assert table.rows == [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
    with pytest.raises(ValueError):
        table.add_row(a=1)


def test_table_format_renders_all_rows():
    table = TableResult(title="My Table", columns=["name", "value"])
    table.add_row(name="alpha", value=1.23456)
    table.add_row(name="beta", value=7.0)
    rendered = table.format()
    assert "My Table" in rendered
    assert "alpha" in rendered and "beta" in rendered
    assert "1.235" in rendered  # default float format


def test_format_series_table_aligns_on_shared_x():
    a = Series(label="A", x=[1, 2, 3], y=[10, 20, 30])
    b = Series(label="B", x=[1, 2, 3], y=[1, 2, 3])
    rendered = format_series_table([a, b], x_label="files")
    assert "files" in rendered and "A" in rendered and "B" in rendered
    assert rendered.count("\n") >= 4
    assert format_series_table([]) == "(no series)"


def test_load_benchmark_record_handles_missing_and_corrupt(tmp_path):
    assert load_benchmark_record(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_benchmark_record(bad) is None
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"results": []}))
    assert load_benchmark_record(good) == {"results": []}


def test_benchmark_summary_renders_insertion_rows(tmp_path):
    record = {
        "results": [
            {
                "node_count": 10_000,
                "file_count": 100_000,
                "pipeline": "vectorized",
                "seconds": 60.0,
                "files_per_s": 1666.7,
                "lookups_per_s": 100_000.0,
            }
        ],
        "speedups": {"end_to_end": 23.6},
    }
    (tmp_path / "BENCH_insertion.json").write_text(json.dumps(record))
    table = benchmark_table("insertion", record)
    assert [row["files_per_s"] for row in table.rows] == [1666.7]
    summary = benchmark_summary(tmp_path)
    assert "vectorized" in summary
    assert "end_to_end=23.6x" in summary
    assert "BENCH_coding.json not found" in summary
