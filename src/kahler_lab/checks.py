"""Uniform pass/fail bookkeeping for numerical verification runs.

Every scenario produces a list of CheckItem records with a shared margin
convention, so reports aggregate uniformly:

* identity:     margin = tol - |lhs - rhs|            (scale-adjusted)
* lower_bound:  margin = lhs - rhs + tol              (checks lhs >= rhs - tol)
* upper_bound:  margin = rhs - lhs + tol              (checks lhs <= rhs + tol)
* exact:        margin = 1.0 if the predicate held    (no tolerance)
* info:         always passes; records a measurement

A nonnegative margin means the check passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    anchor: str
    lhs: float
    rhs: float
    tol: float
    margin: float
    passed: bool
    kind: str
    note: str = ""

    @staticmethod
    def identity(name: str, anchor: str, lhs: float, rhs: float, tol: float,
                 relative_to: float = 0.0, note: str = "") -> "CheckItem":
        scale = max(1.0, abs(relative_to))
        err = float(abs(lhs - rhs) / scale)
        return CheckItem(name, anchor, float(lhs), float(rhs), float(tol),
                         float(tol) - err, bool(err <= tol), "identity", note)

    @staticmethod
    def lower_bound(name: str, anchor: str, lhs: float, rhs: float, tol: float,
                    note: str = "") -> "CheckItem":
        margin = float(lhs - rhs + tol)
        return CheckItem(name, anchor, float(lhs), float(rhs), float(tol),
                         margin, bool(margin >= 0.0), "lower_bound", note)

    @staticmethod
    def upper_bound(name: str, anchor: str, lhs: float, rhs: float, tol: float,
                    note: str = "") -> "CheckItem":
        margin = float(rhs - lhs + tol)
        return CheckItem(name, anchor, float(lhs), float(rhs), float(tol),
                         margin, bool(margin >= 0.0), "upper_bound", note)

    @staticmethod
    def exact(name: str, anchor: str, held: bool, note: str = "") -> "CheckItem":
        return CheckItem(name, anchor, 1.0 if held else 0.0, 1.0, 0.0,
                         1.0 if held else -1.0, bool(held), "exact", note)

    @staticmethod
    def info(name: str, anchor: str, value: float, note: str = "") -> "CheckItem":
        return CheckItem(name, anchor, float(value), float(value), 0.0,
                         0.0, True, "info", note)

    def as_dict(self) -> dict:
        """The row as the report writes it: its fields in order, with
        `passed` last as `pass`; a shallow copy, every field being a
        scalar or a string."""
        d = dict(vars(self))
        d["pass"] = d.pop("passed")
        return d


@dataclass
class CheckReport:
    scenario: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, item: CheckItem) -> CheckItem:
        self.items.append(item)
        return item

    def extend(self, items) -> None:
        self.items.extend(items)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def worst_margin(self) -> float:
        real = [i.margin for i in self.items if i.kind != "info"]
        return min(real) if real else float("inf")

    def summary(self) -> dict:
        return {
            "total": len(self.items),
            "passed": sum(i.passed for i in self.items),
            "failed": len(self.failures),
            "worst_margin": self.worst_margin() if self.items else None,
            "all_passed": self.all_passed,
        }
