"""Tests for the experiment harness."""

import math

import pytest

from repro.experiments.harness import (ExperimentTable, _format_cell,
                                       format_table, print_tables,
                                       to_markdown, write_markdown_report)


@pytest.fixture
def table():
    t = ExperimentTable(experiment_id="EX", title="demo",
                        columns=["name", "score", "count"])
    t.add_row(name="a", score=0.5, count=3)
    t.add_row(name="b", score=0.9, count=1)
    return t


class TestExperimentTable:
    def test_add_row_rejects_unknown_columns(self, table):
        with pytest.raises(ValueError):
            table.add_row(name="c", bogus=1.0)

    def test_column_extraction(self, table):
        assert table.column("score") == [0.5, 0.9]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_row_by(self, table):
        assert table.row_by("name", "b")["score"] == 0.9
        with pytest.raises(KeyError):
            table.row_by("name", "zzz")

    def test_best_row(self, table):
        assert table.best_row("score")["name"] == "b"
        assert table.best_row("score", maximise=False)["name"] == "a"

    def test_best_row_ignores_nan(self):
        t = ExperimentTable("EX", "demo", columns=["name", "v"])
        t.add_row(name="a", v=math.nan)
        t.add_row(name="b", v=1.0)
        assert t.best_row("v")["name"] == "b"

    def test_best_row_all_nan_raises(self):
        t = ExperimentTable("EX", "demo", columns=["name", "v"])
        t.add_row(name="a", v=math.nan)
        with pytest.raises(ValueError):
            t.best_row("v")

    def test_missing_cell_renders_dash(self):
        t = ExperimentTable("EX", "demo", columns=["name", "v"])
        t.add_row(name="a")
        assert "-" in format_table(t)

    def test_add_row_stores_a_copy(self):
        t = ExperimentTable("EX", "demo", columns=["name", "v"])
        values = {"name": "a", "v": 1.0}
        t.add_row(**values)
        values["v"] = 99.0
        values["name"] = "corrupted"
        assert t.rows[0] == {"name": "a", "v": 1.0}

    def test_rows_independent_across_calls(self):
        t = ExperimentTable("EX", "demo", columns=["v"])
        t.add_row(v=1.0)
        t.add_row(v=2.0)
        t.rows[0]["v"] = -1.0
        assert t.rows[1]["v"] == 2.0

    def test_row_by_missing_column_raises_keyerror(self):
        t = ExperimentTable("EX", "demo", columns=["name"])
        t.add_row(name="a")
        with pytest.raises(KeyError):
            t.row_by("nonexistent", "a")

    def test_best_row_non_numeric_column_raises(self):
        t = ExperimentTable("EX", "demo", columns=["name", "v"])
        t.add_row(name="a", v="not-a-number")
        t.add_row(name="b")  # missing entirely
        with pytest.raises(ValueError):
            t.best_row("v")

    def test_best_row_empty_table_raises(self):
        t = ExperimentTable("EX", "demo", columns=["v"])
        with pytest.raises(ValueError):
            t.best_row("v")

    def test_append_note_preserves_existing(self):
        t = ExperimentTable("EX", "demo", columns=["v"], notes="first")
        t.append_note("second")
        assert t.notes == "first; second"
        t2 = ExperimentTable("EX", "demo", columns=["v"])
        t2.append_note("only")
        assert t2.notes == "only"


class TestFormatCell:
    def test_none_is_dash(self):
        assert _format_cell(None) == "-"

    def test_nan_is_nan(self):
        assert _format_cell(math.nan) == "nan"

    def test_zero(self):
        assert _format_cell(0.0) == "0.000"

    def test_plain_range_fixed_point(self):
        assert _format_cell(0.001) == "0.001"
        assert _format_cell(9999.4) == "9999.400"

    def test_negative_floats(self):
        # Negative values use the same magnitude thresholds as positive.
        assert _format_cell(-0.5) == "-0.500"
        assert _format_cell(-9999.0) == "-9999.000"
        assert _format_cell(-123456.789) == "-1.23e+05"
        assert _format_cell(-0.0001) == "-1.00e-04"

    def test_large_magnitude_scientific(self):
        assert _format_cell(10000.0) == "1.00e+04"
        assert _format_cell(1e300) == "1.00e+300"

    def test_small_magnitude_scientific(self):
        assert _format_cell(0.0009) == "9.00e-04"

    def test_infinities(self):
        assert _format_cell(math.inf) == "inf"
        assert _format_cell(-math.inf) == "-inf"

    def test_ints_and_strings_pass_through(self):
        assert _format_cell(123456) == "123456"
        assert _format_cell("label") == "label"


class TestFormatting:
    def test_format_contains_all_cells(self, table):
        text = format_table(table)
        assert "EX" in text and "demo" in text
        assert "0.500" in text and "0.900" in text

    def test_nan_rendered(self):
        t = ExperimentTable("EX", "demo", columns=["v"])
        t.add_row(v=math.nan)
        assert "nan" in format_table(t)

    def test_large_values_use_scientific(self):
        t = ExperimentTable("EX", "demo", columns=["v"])
        t.add_row(v=123456.789)
        assert "e+" in format_table(t)

    def test_notes_appended(self, table):
        table.notes = "important caveat"
        assert "important caveat" in format_table(table)

    def test_print_tables(self, table, capsys):
        print_tables([table, table])
        out = capsys.readouterr().out
        assert out.count("== EX") == 2


class TestMarkdown:
    def test_to_markdown_structure(self, table):
        md = to_markdown(table)
        lines = md.splitlines()
        assert lines[0].startswith("## EX")
        assert "| name | score | count |" in md
        assert "| a | 0.500 | 3 |" in md

    def test_notes_italicised(self, table):
        table.notes = "caveat"
        assert "*caveat*" in to_markdown(table)

    def test_write_markdown_report(self, table, tmp_path):
        path = tmp_path / "report.md"
        write_markdown_report([table, table], str(path), title="Demo")
        content = path.read_text()
        assert content.startswith("# Demo")
        assert content.count("## EX") == 2
