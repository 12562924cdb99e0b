"""Per-rule unit tests: every rule fires on its bad fixture and stays
silent on its good one."""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_source
from repro.analysis.findings import SourceFile

#: Path label that puts a fixture inside the clock rules' scope.
SERVE_PATH = "src/repro/serve/_fixture.py"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    def test_bad_fixture_fires(self, analyze):
        findings = [
            f for f in analyze("lock_bad.py") if f.rule == "lock-discipline"
        ]
        assert len(findings) == 3
        symbols = {f.symbol for f in findings}
        assert symbols == {
            "Registry.add", "Registry.snapshot", "Commented.bump",
        }

    def test_registry_and_comment_declarations_equivalent(self, analyze):
        by_symbol = {
            f.symbol: f for f in analyze("lock_bad.py")
        }
        # One violation declared via _GUARDED_BY, one via a trailing
        # guarded-by comment — both spellings reach the same rule.
        assert "_items" in by_symbol["Registry.add"].message
        assert "_count" in by_symbol["Commented.bump"].message

    def test_good_fixture_clean(self, analyze):
        assert analyze("lock_good.py") == []

    def test_init_exempt(self, analyze):
        # lock_bad's __init__ also writes _items unlocked; no finding
        # points at it.
        assert not any(
            "__init__" in f.symbol for f in analyze("lock_bad.py")
        )


# ----------------------------------------------------------------------
# wall-clock / perf-counter-transit
# ----------------------------------------------------------------------
class TestClockDiscipline:
    def test_bad_fixture_fires(self, analyze):
        findings = analyze("clock_bad.py", path=SERVE_PATH)
        assert rules_of(findings) == ["perf-counter-transit", "wall-clock"]
        wall = [f for f in findings if f.rule == "wall-clock"]
        transit = [f for f in findings if f.rule == "perf-counter-transit"]
        assert {f.symbol for f in wall} == {"deadline_for", "stamp_request"}
        assert {f.symbol for f in transit} == {"ship", "enqueue"}

    def test_good_fixture_clean(self, analyze):
        assert analyze("clock_good.py", path=SERVE_PATH) == []

    def test_out_of_scope_path_ignored(self, analyze):
        # The same wall-clock reads outside the configured serve paths
        # are not timing-path violations.
        assert analyze("clock_bad.py", path="src/repro/sem/x.py") == []

    def test_scope_is_configurable(self, analyze):
        config = AnalysisConfig(clock_paths=("lib/timing",))
        assert analyze("clock_bad.py", path="lib/timing/x.py",
                       config=config) != []


# ----------------------------------------------------------------------
# shm-lifecycle
# ----------------------------------------------------------------------
class TestShmLifecycle:
    def test_bad_fixture_fires(self, analyze):
        findings = analyze("shm_bad.py")
        assert rules_of(findings) == ["shm-lifecycle"]
        assert {f.symbol for f in findings} == {
            "leaky", "leaky_mid_function",
        }

    def test_good_fixture_clean(self, analyze):
        # finally-paired, except-handler-paired, weakref.finalize'd and
        # attach-only (create=False) uses all pass.
        assert analyze("shm_good.py") == []

    def test_tracker_bookkeeping_is_no_release(self):
        """Only ``close``, ``unlink`` and ``unlink_shared_block`` release
        a block: dropping it from a resource tracker is no release."""
        template = (
            "from multiprocessing import shared_memory\n"
            "def make(size):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        return shm.name\n"
            "    finally:\n"
            "        {}(shm)\n"
        )
        for helper, want in (("_untrack", ["shm-lifecycle"]),
                             ("unlink_shared_block", [])):
            src = SourceFile.parse("x.py", template.format(helper))
            assert rules_of(analyze_source(src, AnalysisConfig())) == want


# ----------------------------------------------------------------------
# hot-path-alloc
# ----------------------------------------------------------------------
class TestHotPathAlloc:
    def test_bad_fixture_fires(self, analyze):
        findings = analyze("hot_bad.py")
        assert rules_of(findings) == ["hot-path-alloc"]
        assert len(findings) == 5  # zeros, sqrt, @, .copy, .astype
        assert all(f.symbol == "inner_step" for f in findings)

    def test_good_fixture_clean(self, analyze):
        # out=-disciplined numpy calls, np.copyto, scalar reductions,
        # ignored setup allocations and unmarked nested/sibling
        # functions are all allowed.
        assert analyze("hot_good.py") == []

    def test_vecdot_without_out_allocates(self):
        # The CG inner product: np.vecdot(a, b) returns a fresh (B,)
        # array per call, np.vecdot(a, b, out=dst) writes in place.
        template = (
            "import numpy as np\n"
            "from repro.analysis.annotations import hot_path\n"
            "@hot_path\n"
            "def row_dots(a, b, dst):\n"
            "    {call}\n"
        )
        bad = SourceFile.parse(
            "x.py", template.format(call="dst[...] = np.vecdot(a, b)")
        )
        findings = analyze_source(bad, AnalysisConfig())
        assert rules_of(findings) == ["hot-path-alloc"]
        assert "np.vecdot() without out=" in findings[0].message
        good = SourceFile.parse(
            "x.py", template.format(call="np.vecdot(a, b, out=dst)")
        )
        assert analyze_source(good, AnalysisConfig()) == []

    def test_config_listed_function_is_hot(self, analyze):
        config = AnalysisConfig(
            hot_path_functions=("hot_good.py::cold_step",),
        )
        findings = analyze("hot_good.py", config=config)
        assert findings and all(
            f.symbol == "cold_step" for f in findings
        )


# ----------------------------------------------------------------------
# out-contiguity
# ----------------------------------------------------------------------
class TestOutContiguity:
    def test_bad_fixture_fires(self, analyze):
        findings = analyze("contig_bad.py")
        assert rules_of(findings) == ["out-contiguity"]
        assert {f.symbol for f in findings} == {"reshaping", "forwarding"}

    def test_good_fixture_clean(self, analyze):
        assert analyze("contig_good.py") == []
