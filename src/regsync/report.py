"""Structured validation reports shared by every checker in the package."""

from __future__ import annotations

import os

from .records import field, record


DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(Exception):
    """Raised when an exhaustive enumeration would exceed the configured budget."""

    def __init__(self, needed: int | None, budget: int):
        count = f"more than {budget}" if needed is None else f"at least {needed}"
        super().__init__(f"budget exceeded: needs {count} steps, budget is {budget}")
        self.needed = needed
        self.budget = budget


def enumeration_budget() -> int:
    """The budget of the command line: REGSYNC_BUDGET, else DEFAULT_BUDGET.

    Raises ValueError naming the variable unless it is a non-negative integer.
    """
    raw = os.environ.get("REGSYNC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"REGSYNC_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"REGSYNC_BUDGET must be a non-negative integer, got {raw!r}")
    return budget


@record
class Violation:
    rule: str
    witness: object = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.rule]
        if self.witness is not None:
            parts.append(repr(self.witness))
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)


@record
class ValidationReport:
    """Accumulates rule violations; empty report means all checks passed."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, witness: object = None, detail: str = "") -> None:
        self.violations.append(Violation(rule, witness, detail))

    def __str__(self) -> str:
        return "\n".join(map(str, self.violations)) if self.violations else "ok"
