"""Tests for :mod:`repro.analysis.tables`."""

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_basic_layout(self):
        rows = [{"p": 4, "time": 0.5}, {"p": 8, "time": 1.25}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "p" in lines[1] and "time" in lines[1]
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_explicit_columns_and_missing_values(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows, columns=["a", "b"])
        assert "a" in text and "b" in text

    def test_float_formatting(self):
        text = format_table([{"x": 0.000123456}], precision=3)
        assert "e-04" in text

    def test_empty_rows(self):
        assert format_table([]) .strip() != None is not True  # no crash
        assert isinstance(format_table([]), str)
