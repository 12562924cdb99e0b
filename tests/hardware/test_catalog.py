"""Tests for repro.hardware.specs / catalog (Table II)."""

from __future__ import annotations

import pytest

from repro.hardware.catalog import CATALOG_ORDER, SYSTEM_CATALOG
from repro.hardware.specs import ArchSpec, ArchType


class TestCatalog:
    def test_nine_systems(self):
        assert len(SYSTEM_CATALOG) == 9
        assert len(CATALOG_ORDER) == 9
        assert set(CATALOG_ORDER) == set(SYSTEM_CATALOG)

    def test_class_partitions(self):
        kinds = [s.arch_type for s in SYSTEM_CATALOG.values()]
        assert kinds.count(ArchType.CPU) == 3
        assert kinds.count(ArchType.GPU) == 5
        assert kinds.count(ArchType.FPGA) == 1

    def test_byte_per_flop_derivation(self):
        # Table II's derived column, checked against the paper's prints.
        paper = {
            "Stratix GX 2800": 0.154,
            "Intel Xeon Gold 6130": 0.12,
            "Intel i9-10920X": 0.083,
            "Marvell ThunderX2": 0.33,
            "NVIDIA Tesla K80": 0.17,
            "NVIDIA Tesla P100 SXM2": 0.14,
            "NVIDIA RTX 2060 Super": 2.0,
            "NVIDIA Tesla V100 PCIe": 0.12,
            "NVIDIA A100 PCIe": 0.16,
        }
        for name, expected in paper.items():
            got = SYSTEM_CATALOG[name].byte_per_flop
            # Paper rounds to two decimals; allow that rounding slack.
            assert got == pytest.approx(expected, abs=0.008), name

    def test_fpga_row_flags_model_bound_peak(self):
        assert SYSTEM_CATALOG["Stratix GX 2800"].peak_is_model_bound
        assert not SYSTEM_CATALOG["NVIDIA A100 PCIe"].peak_is_model_bound

    def test_paper_highlights(self):
        # Highest/lowest observable metrics the paper highlights: A100 has
        # the highest peak and bandwidth; the FPGA the lowest frequency
        # among... (562 MHz K80 is the lowest non-FPGA clock).
        peak = {n: s.peak_gflops for n, s in SYSTEM_CATALOG.items()}
        assert max(peak, key=peak.get) == "NVIDIA A100 PCIe"
        bw = {n: s.mem_bw_gbs for n, s in SYSTEM_CATALOG.items()}
        assert max(bw, key=bw.get) == "NVIDIA A100 PCIe"
        assert min(bw, key=bw.get) == "Stratix GX 2800"

    def test_release_years(self):
        years = [SYSTEM_CATALOG[n].release_year for n in CATALOG_ORDER]
        assert min(years) == 2014 and max(years) == 2020

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ArchSpec("x", ArchType.CPU, 14, 0.0, 1.0, 1.0, 1.0, 2020)

    def test_unit_conversions(self):
        s = SYSTEM_CATALOG["NVIDIA A100 PCIe"]
        assert s.peak_flops == pytest.approx(9.746e12)
        assert s.peak_bandwidth == pytest.approx(1.555e12)
