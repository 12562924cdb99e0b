"""Shared utilities: unit constants, validation helpers, table rendering.

These helpers are deliberately dependency-free (NumPy only) so that every
other subpackage can import them without cycles.
"""

from repro.util.units import (
    BYTES_PER_DOUBLE,
    GIGA,
    MEGA,
    KILO,
    gflops,
    gbytes_per_s,
    fmt_si,
)
from repro.util.validation import (
    check_positive,
    check_in_range,
    check_power_of_two,
    is_power_of_two,
    pow2_floor,
    pow2_divisor_floor,
)
from repro.util.tables import TextTable

__all__ = [
    "BYTES_PER_DOUBLE",
    "GIGA",
    "MEGA",
    "KILO",
    "gflops",
    "gbytes_per_s",
    "fmt_si",
    "check_positive",
    "check_in_range",
    "check_power_of_two",
    "is_power_of_two",
    "pow2_floor",
    "pow2_divisor_floor",
    "TextTable",
]
