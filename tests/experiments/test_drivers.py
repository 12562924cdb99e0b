"""Tests for the experiment drivers (E-T1..E-F3, ablations).

These are the reproduction's acceptance tests: each driver's output must
carry the paper's numbers within the documented tolerances.  The
benchmark harness re-asserts the same anchors; here we also cover the
drivers' structure and CLI.
"""

from __future__ import annotations

import pytest

from repro.core.calibration import STRATIX10_TABLE1, TABLE1_DEGREES
from repro.experiments import (
    build_fig1,
    build_fig2,
    build_fig3,
    build_gxyz_split,
    build_journey,
    build_memory_layout,
    build_padding,
    build_table1,
    build_table2,
    crossover_summary,
)


@pytest.fixture(scope="module")
def table1():
    return build_table1()


@pytest.fixture(scope="module")
def fig2():
    return build_fig2()


class TestTable1:
    def test_all_degrees_present(self, table1):
        assert [row[0] for row in table1.rows] == list(TABLE1_DEGREES)

    def test_gflops_columns_agree(self, table1):
        for row in table1.rows:
            sim, paper = float(row[7]), float(row[8])
            assert abs(sim - paper) / paper < 0.035

    def test_dofs_per_cycle_agree(self, table1):
        for row in table1.rows:
            assert abs(float(row[11]) - float(row[12])) < 0.02

    def test_model_error_column(self, table1):
        for row in table1.rows:
            assert abs(float(row[13]) - float(row[14])) < 0.6

    def test_render_mentions_calibration(self, table1):
        assert "calibrated" in table1.render()


class TestTable2:
    def test_nine_rows_in_order(self):
        t2 = build_table2()
        assert len(t2.rows) == 9
        assert t2.rows[0][1] == "Stratix GX 2800"
        assert t2.rows[-1][1] == "NVIDIA A100 PCIe"

    def test_fpga_peak_starred(self):
        t2 = build_table2()
        assert t2.rows[0][3] == "500*"


class TestFig1:
    @pytest.fixture(scope="class")
    def fig1(self):
        return build_fig1(degrees=(1, 7, 15), sizes=(8, 64, 256, 1024, 4096))

    def test_series_count(self, fig1):
        assert len(fig1.series) == 3 * 9

    def test_crossover_summary(self, fig1):
        notes = crossover_summary(build_fig1(degrees=(7, 11, 15), sizes=(8, 256, 4096)))
        n7 = next(n for n in notes if n.startswith("N=7"))
        assert "ThunderX2" in n7
        assert "Xeon" not in n7

    def test_every_series_positive(self, fig1):
        for s in fig1.series:
            assert all(y > 0 for y in s.y)


class TestFig2:
    def test_row_coverage(self, fig2):
        systems = {row[0] for row in fig2.rows}
        assert "SEM-Acc (FPGA)" in systems
        assert "Ideal FPGA (hypothetical)" in systems
        assert len(fig2.rows) == 13 * 3  # 9 systems + 4 projections x 3 degrees

    def test_ideal_beats_a100(self, fig2):
        bars = {(r[0], r[1]): float(r[2]) for r in fig2.rows}
        for n in (11, 15):
            assert bars[("Ideal FPGA (hypothetical)", n)] > bars[("NVIDIA A100 PCIe", n)]

    def test_agilex_beats_cpus_and_k80(self, fig2):
        # "the upcoming Intel Agilex 027 is projected to outperform all
        # CPUs and the K80 GPU".
        bars = {(r[0], r[1]): float(r[2]) for r in fig2.rows}
        agilex_peak = max(bars[("Agilex 027", n)] for n in (7, 11, 15))
        for sysname in (
            "Intel Xeon Gold 6130",
            "Intel i9-10920X",
            "Marvell ThunderX2",
            "NVIDIA Tesla K80",
        ):
            sys_peak = max(bars[(sysname, n)] for n in (7, 11, 15))
            assert agilex_peak > sys_peak, sysname

    def test_agilex_far_from_p100(self, fig2):
        bars = {(r[0], r[1]): float(r[2]) for r in fig2.rows}
        assert max(bars[("Agilex 027", n)] for n in (7, 11, 15)) < 0.5 * max(
            bars[("NVIDIA Tesla P100 SXM2", n)] for n in (7, 11, 15)
        )


class TestFig3:
    def test_series_names(self):
        f3 = build_fig3()
        assert {s.name for s in f3.series} == {
            "roofline", "model@300MHz", "model@210MHz", "measured",
        }

    def test_measured_below_roofline(self):
        f3 = build_fig3()
        series = {s.name: s for s in f3.series}
        roof = dict(zip(series["roofline"].x, series["roofline"].y))
        for n, y in zip(series["measured"].x, series["measured"].y):
            assert y <= roof[n] * 1.001


class TestAblations:
    def test_journey_milestones(self):
        rows = build_journey().rows
        gflops = [float(r[1]) for r in rows]
        assert gflops == sorted(gflops)
        assert gflops[0] < 0.1 and gflops[-1] > 100.0

    def test_memory_layout_speedups(self):
        for row in build_memory_layout().rows:
            assert 1.5 < float(row[3]) < 2.2

    def test_gxyz_split_matters(self):
        rows = build_gxyz_split().rows
        assert float(rows[0][1]) > 2.0 * float(rows[1][1])

    def test_padding_table_covers_all_degrees(self):
        rows = build_padding().rows
        assert [r[0] for r in rows] == list(range(1, 16))


class TestCLI:
    def test_main_dispatch(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_all(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "== E-T1:" in out and "== E-F3:" in out

    def test_export(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["export", str(tmp_path)]) == 0
        assert f"to {tmp_path}/" in capsys.readouterr().out
        assert sorted(tmp_path.glob("E-T1*.csv"))

    def test_bad_args(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 2
        assert main(["nope"]) == 2
