"""Audit reports: one ordered list of rows, the only report type.

A row is a *check* when it pairs a computed value against a claimed value
under a tolerance, or a *recorded value* when it carries a measured number
with no claim to meet.  A check is *asserted* when its failure should fail
the run (CLI exit code 1), and *recorded* when a mismatch is a legitimate
measured outcome that must be kept in the report without failing anything.
Recorded values never affect the verdict.

A check whose computed value is NaN never passes: ``error <= tolerance`` is
false for NaN, so non-finite numbers fail closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    """One report row; ``expected`` and ``tolerance`` are None for a
    recorded value.  ``computed``, ``expected`` and ``tolerance`` hold
    Python floats (``AuditReport.add`` and ``record`` convert them).  A
    named tuple, because a field run builds one row per sample point."""

    name: str
    computed: float
    expected: float | None
    tolerance: float | None
    claim: str
    asserted: bool = True

    @property
    def kind(self) -> str:
        return "value" if self.expected is None else "check"

    @property
    def error(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def passed(self) -> bool:
        return self.expected is not None and self.error <= self.tolerance

    @property
    def verdict(self) -> str:
        if self.expected is None:
            return "recorded"
        return "pass" if self.passed else "mismatch"


@dataclass
class AuditReport:
    checks: list[Check] = field(default_factory=list)

    def add(
        self,
        name: str,
        computed: float,
        expected: float,
        tolerance: float,
        claim: str,
        asserted: bool = True,
    ) -> Check:
        check = Check(name, float(computed), float(expected), float(tolerance), claim, asserted)
        self.checks.append(check)
        return check

    def record(self, name: str, value: float, claim: str) -> Check:
        """Append a recorded value: no claim to meet, never asserted."""
        row = Check(name, float(value), None, None, claim, asserted=False)
        self.checks.append(row)
        return row

    def record_series(self, name_format: str, values, claim: str) -> None:
        """Append one recorded value per entry of the 1-D ``values``, all under one
        claim; row k is named ``name_format.format(k)``."""
        values = np.asarray(values, dtype=float).tolist()
        self.checks.extend(
            Check(name_format.format(k), value, None, None, claim, False)
            for k, value in enumerate(values)
        )

    def extend(self, other: "AuditReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        """True when every asserted check passes."""
        return all(c.passed for c in self.checks if c.asserted)

    def mismatches(self) -> list[Check]:
        """Recorded-only checks that missed their tolerance."""
        return [c for c in self.checks if not c.asserted and c.verdict == "mismatch"]

    def counts(self) -> dict[str, int]:
        """Rows per outcome: pass, recorded mismatch, asserted failure and
        recorded value; the counts sum to len(checks)."""
        out = {"pass": 0, "mismatch": 0, "fail": 0, "recorded": 0}
        for c in self.checks:
            verdict = c.verdict
            if verdict == "mismatch" and c.asserted:
                verdict = "fail"
            out[verdict] += 1
        return out

    def max_error(self, prefix: str = "") -> float:
        """Largest check error under the prefix; NaN when any error is NaN."""
        errs = [c.error for c in self.checks if c.kind == "check" and c.name.startswith(prefix)]
        return float(np.max(errs, initial=0.0))

    def select(self, prefix: str) -> list[Check]:
        return [c for c in self.checks if c.name.startswith(prefix)]
