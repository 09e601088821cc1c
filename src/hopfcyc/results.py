"""Pass/fail verdicts with human-readable counterexample witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import composed, composite_first_difference, maps_first_difference


@dataclass(frozen=True)
class Witness:
    """Where an identity broke: the basis input and the two evaluated sides."""

    location: str
    lhs: str
    rhs: str

    def to_dict(self):
        return {"location": self.location, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    condition: str
    witness: Witness | None = None
    detail: str = ""
    # raw vectors kept for re-evaluation in tests; not serialized
    lhs_vector: object = field(default=None, repr=False, compare=False)
    rhs_vector: object = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.passed

    def describe(self):
        if self.passed:
            text = "PASS %s" % self.condition
            if self.detail:
                text += " (%s)" % self.detail
            return text
        text = "FAIL %s" % self.condition
        if self.detail:
            text += " (%s)" % self.detail
        if self.witness is not None:
            text += "\n  at %s\n  lhs = %s\n  rhs = %s" % (
                self.witness.location,
                self.witness.lhs,
                self.witness.rhs,
            )
        return text

    def to_dict(self):
        data = {"passed": self.passed, "condition": self.condition}
        if self.detail:
            data["detail"] = self.detail
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data


def passed(condition, detail=""):
    return CheckResult(True, condition, detail=detail)


def failed(condition, location, lhs, rhs, detail=""):
    """Build a failing result from two Vector-like sides (rendered with labels)."""
    lhs_s = lhs.describe() if hasattr(lhs, "describe") else str(lhs)
    rhs_s = rhs.describe() if hasattr(rhs, "describe") else str(rhs)
    return CheckResult(
        False,
        condition,
        witness=Witness(location, lhs_s, rhs_s),
        detail=detail,
        lhs_vector=lhs if hasattr(lhs, "describe") else None,
        rhs_vector=rhs if hasattr(rhs, "describe") else None,
    )


def compare(condition, lhs, rhs, locate, detail=""):
    """Pass iff lhs and rhs agree, each a map or a composite (a tuple of maps
    applied right to left, see ``linalg.composed``); otherwise fail at their
    first differing domain column c, located at ``locate(c)``, with both
    columns of the ``@`` products."""
    if isinstance(lhs, tuple) or isinstance(rhs, tuple):
        col = composite_first_difference(lhs, rhs)
    else:
        col = maps_first_difference(lhs, rhs)
    if col is None:
        return passed(condition)
    lhs, rhs = composed(lhs), composed(rhs)
    return failed(condition, locate(col), lhs.column(col), rhs.column(col), detail=detail)


def merge(condition, results):
    """First failure wins (inputs are produced in deterministic order)."""
    for res in results:
        if not res.passed:
            return res
    return passed(condition)
