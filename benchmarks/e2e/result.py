"""What one run of one workload hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunResult:
    """Counts, metrics and verification breaches of one run.

    ``failed`` counts operations among ``attempted`` that gave the
    caller no correct result: errors, refusals and wrong results.
    ``breaches`` names every verification rule the run broke — a wrong
    result, but also audits that are not per-operation (a leaked
    ``/dev/shm`` segment, a counter that does not conserve).  The run is
    correct when ``breaches`` is empty: a refusal is a failed operation
    but not a wrong output.
    """

    attempted: int = 0
    failed: int = 0
    breaches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    refusals: list[str] = field(default_factory=list)

    def wrong(self, why: str) -> None:
        """One operation whose output failed verification."""
        self.failed += 1
        self.breaches.append(why)

    def refused(self, why: str) -> None:
        """One operation that ended in an error or a refusal."""
        self.failed += 1
        self.refusals.append(why)
