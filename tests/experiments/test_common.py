"""Tests for repro.experiments.common and the util table renderer."""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentResult, Series
from repro.util.tables import TextTable


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="len"):
            Series("s", (1.0, 2.0), (1.0,))

    def test_y_max(self):
        assert Series("s", (1.0, 2.0, 3.0), (5.0, 9.0, 7.0)).y_max == 9.0


class TestExperimentResult:
    def make(self):
        r = ExperimentResult("E-X", "title", headers=["a", "b"])
        r.add_row([1, 2.5])
        r.add_row([3, None])
        r.add_series(Series("curve", (1.0, 2.0), (3.0, 4.0), {"N": 7}))
        r.notes.append("a note")
        return r

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "E-X" in text and "title" in text
        assert "curve" in text and "N=7" in text
        assert "note: a note" in text

    def test_row_dict(self):
        d = self.make().row_dict()
        assert d[1] == (1, 2.5)
        assert d[3][1] is None


class TestTextTable:
    def test_alignment_and_formats(self):
        t = TextTable(["name", "val"], title="T", floatfmt=".2f")
        t.add_row(["x", 1.234])
        t.add_row(["y", None])
        t.add_row(["z", True])
        out = t.render()
        assert "1.23" in out and "-" in out and "yes" in out
        assert out.startswith("T\n")

    def test_wrong_width_rejected(self):
        t = TextTable(["a"])
        with pytest.raises(ValueError, match="columns"):
            t.add_row([1, 2])
