"""The nine evaluated systems of Table II, verbatim from the paper.

``SYSTEM_CATALOG`` maps the paper's display names to :class:`ArchSpec`
rows; helper selectors return class subsets in the paper's ordering.
"""

from __future__ import annotations

from repro.hardware.specs import ArchSpec, ArchType

#: Display names in the paper's Table-II row order.
CATALOG_ORDER: tuple[str, ...] = (
    "Stratix GX 2800",
    "Intel Xeon Gold 6130",
    "Intel i9-10920X",
    "Marvell ThunderX2",
    "NVIDIA Tesla K80",
    "NVIDIA Tesla P100 SXM2",
    "NVIDIA RTX 2060 Super",
    "NVIDIA Tesla V100 PCIe",
    "NVIDIA A100 PCIe",
)

SYSTEM_CATALOG: dict[str, ArchSpec] = {
    "Stratix GX 2800": ArchSpec(
        "Stratix GX 2800", ArchType.FPGA, 14, 500.0, 76.8, 225.0, 400.0, 2016,
        peak_is_model_bound=True,
    ),
    "Intel Xeon Gold 6130": ArchSpec(
        "Intel Xeon Gold 6130", ArchType.CPU, 14, 1075.0, 128.0, 125.0, 2100.0, 2017,
    ),
    "Intel i9-10920X": ArchSpec(
        "Intel i9-10920X", ArchType.CPU, 14, 921.0, 76.8, 165.0, 3500.0, 2019,
    ),
    "Marvell ThunderX2": ArchSpec(
        "Marvell ThunderX2", ArchType.CPU, 16, 512.0, 170.0, 180.0, 2000.0, 2018,
    ),
    "NVIDIA Tesla K80": ArchSpec(
        "NVIDIA Tesla K80", ArchType.GPU, 28, 1371.0, 240.0, 300.0, 562.0, 2014,
    ),
    "NVIDIA Tesla P100 SXM2": ArchSpec(
        "NVIDIA Tesla P100 SXM2", ArchType.GPU, 16, 5304.0, 732.2, 300.0, 1328.0, 2016,
    ),
    "NVIDIA RTX 2060 Super": ArchSpec(
        "NVIDIA RTX 2060 Super", ArchType.GPU, 12, 224.4, 448.0, 175.0, 1470.0, 2019,
    ),
    "NVIDIA Tesla V100 PCIe": ArchSpec(
        "NVIDIA Tesla V100 PCIe", ArchType.GPU, 12, 7066.0, 897.0, 250.0, 1245.0, 2017,
    ),
    "NVIDIA A100 PCIe": ArchSpec(
        "NVIDIA A100 PCIe", ArchType.GPU, 7, 9746.0, 1555.0, 250.0, 765.0, 2020,
    ),
}
