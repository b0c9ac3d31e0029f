"""The structured report of one theorem check and the recorder that
fills it clause by clause.

A report is a status (pass, fail or skipped), a one-sidedness flag, the
details of every clause and, on failure, the witness of the first failing
clause that offers one; `oracle replay` re-checks a non-membership
witness.  Reports are reproducible bit for bit from (spec, depth, seed);
timings are kept out of the payload unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .engine import Subgroup
from .trees import Portrait


@dataclass
class VerificationReport:
    name: str
    depth: int
    status: str                    # pass | fail | skipped
    one_sided: bool = False
    details: dict = field(default_factory=dict)
    witness: dict | None = None
    millis: int = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "one_sided": self.one_sided, "details": self.details,
                "witness": self.witness, "millis": self.millis}


def skipped(name, depth, reason, witness=None,
            **details) -> VerificationReport:
    return VerificationReport(name, depth, "skipped",
                              details={"reason": reason, **details},
                              witness=witness)


class Verdict:
    """Details, status and witness of one check, filled clause by clause.

    A failing clause fails the check; the witness is the one of the first
    failing clause that offers one, built only then (witness is a
    zero-argument callable).
    """

    def __init__(self, **details):
        self.details = details
        self.status = "pass"
        self.witness: dict | None = None

    def record(self, key: str, ok: bool, text=None,
               witness: Callable[[], dict] | None = None,
               table: str | None = None) -> bool:
        """Write the clause outcome (text, default "pass"/"fail") under key,
        in the sub-table `table` if given; returns ok."""
        target = self.details if table is None else self.details[table]
        target[key] = text if text is not None else ("pass" if ok else "fail")
        if not ok:
            self.status = "fail"
            if self.witness is None and witness is not None:
                self.witness = witness()
        return ok

    def report(self, name: str, n: int, one_sided: bool) -> VerificationReport:
        return VerificationReport(name, n, self.status,
                                  one_sided=one_sided, details=self.details,
                                  witness=self.witness)


def non_membership(sub: Subgroup, elem: Portrait | None, **extra) -> dict:
    """The witness `oracle replay` re-checks: elem is not in sub."""
    return {"kind": "non-membership", **extra,
            "element": None if elem is None else elem.digits(),
            "subgroup_gens": [x.digits() for x in sub.gens]}
