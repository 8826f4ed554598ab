"""Check reports, violation records, and enumeration budgets.

Every checker in the library returns an :class:`AxiomReport`.  A report is
``pass`` only when the checker ran to completion and found nothing; running
out of budget yields the distinct status ``budget-exceeded`` rather than a
silent partial pass, and checks that were skipped for lack of input data
yield ``inconclusive`` together with a recorded assumption string.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_MAX_TUPLES = 5_000_000
SUMMARY_LINES = 12  # the violations a summary lists before "... n more"


class StructureError(ValueError):
    """Malformed finite presentation (bad boundary, bad table key, ...) or
    a law name outside a checker's catalogue.  ``witness`` names the cells
    at fault, ``(kind, id)`` pairs, where the raiser knows them."""

    def __init__(self, message: str = "", witness: tuple = ()):
        super().__init__(message)
        self.witness = tuple(witness)


def live_axioms(catalogue, axioms) -> set:
    """The laws a checker runs: its whole ``catalogue`` when ``axioms`` is
    None, else ``axioms``, every one of which must name a law of it."""
    live = set(catalogue if axioms is None else axioms)
    unknown = live - set(catalogue)
    if unknown:
        raise StructureError(f"unknown axiom names: {sorted(unknown)}")
    return live


class BudgetExceeded(Exception):
    """Raised internally when an enumeration cap is hit."""


@dataclass
class Budget:
    """Cap on the number of law instances a checker may enumerate."""

    max_tuples: int = DEFAULT_MAX_TUPLES
    used: int = 0

    def spend(self) -> None:
        """Charge one instance; raise where that crosses the cap.  An
        exhausted budget ends at ``used == max_tuples + 1``, however often
        it is charged after that."""
        if self.used >= self.max_tuples:
            self.used = max(self.used, self.max_tuples + 1)
            raise BudgetExceeded(f"enumeration budget of {self.max_tuples} tuples exceeded")
        self.used += 1


@dataclass(frozen=True)
class Violation:
    """One failed law instance: the law name, the witness tuple, both sides."""

    axiom: str
    witness: tuple
    lhs: object = None
    rhs: object = None

    def describe(self, namer=None) -> str:
        name = namer if namer is not None else (lambda ref: str(ref))
        wit = ", ".join(name(w) for w in self.witness)
        if self.lhs is None and self.rhs is None:
            return f"{self.axiom} at ({wit})"
        return f"{self.axiom} at ({wit}): lhs={name(self.lhs)} rhs={name(self.rhs)}"


@dataclass
class AxiomReport:
    subject: str
    status: str = PASS
    violations: list[Violation] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        """True exactly when the status is ``pass``: the checker ran to
        completion within its budget and found nothing.  A report cut by its
        budget or left ``inconclusive`` has not passed, whatever it found."""
        return self.status == PASS and not self.violations

    def finish(self) -> "AxiomReport":
        if self.violations and self.status == PASS:
            self.status = FAIL
        return self

    def absorb(self, other: "AxiomReport", prefix: str = "") -> None:
        for v in other.violations:
            axiom = f"{prefix}{v.axiom}" if prefix else v.axiom
            self.violations.append(Violation(axiom, v.witness, v.lhs, v.rhs))
        self.assumptions.extend(a for a in other.assumptions if a not in self.assumptions)
        self.checked += other.checked
        if other.status == BUDGET_EXCEEDED:
            self.status = BUDGET_EXCEEDED
        elif other.status == INCONCLUSIVE and self.status == PASS:
            self.status = INCONCLUSIVE
        self.finish()

    def to_dict(self, namer=None) -> dict:
        name = namer if namer is not None else (lambda ref: str(ref))
        return {
            "subject": self.subject,
            "status": self.status,
            "passed": self.passed,
            "checked": self.checked,
            "assumptions": list(self.assumptions),
            "violations": [
                {
                    "axiom": v.axiom,
                    "witness": [name(w) for w in v.witness],
                    "lhs": None if v.lhs is None else name(v.lhs),
                    "rhs": None if v.rhs is None else name(v.rhs),
                }
                for v in self.violations
            ],
        }

    def summary(self, namer=None) -> str:
        lines = [f"[{self.status}] {self.subject} ({self.checked} instances checked)"]
        for a in self.assumptions:
            lines.append(f"  assumed: {a}")
        for v in self.violations[:SUMMARY_LINES]:
            lines.append("  violated: " + v.describe(namer))
        hidden = len(self.violations) - SUMMARY_LINES
        if hidden > 0:
            lines.append(f"  ... {hidden} more violations")
        return "\n".join(lines)


class Collector:
    """Accumulates law instances for one report, spending budget per instance
    (:meth:`eq`) or per row of instances (:meth:`take`)."""

    def __init__(self, subject: str, budget: Budget | None = None):
        self.report = AxiomReport(subject)
        self.budget = budget if budget is not None else Budget()
        self._hit_budget = False

    def eq(self, axiom: str, witness: tuple, lhs, rhs) -> bool:
        """Record one instance of an equational law; returns True when it holds.

        The library's checkers do not call it.  They charge whole rows,
        blocks or tables with :meth:`take`: ``kernel._whole`` compares the
        two sides of a law as two lists, ``kernel._laws`` evaluates index
        rows one by one, and the block and grid enumerators read dense rows.
        None of them evaluates an instance past the budget.  This method is
        the per-instance reference that the tests' oracles are written
        with, and the benchmark probes its per-instance cost."""
        if self._hit_budget:
            return True
        try:
            self.budget.spend()
        except BudgetExceeded:
            self._hit_budget = True
            self.report.status = BUDGET_EXCEEDED
            return True
        self.report.checked += 1
        if lhs != rhs:
            self.report.violations.append(Violation(axiom, witness, lhs, rhs))
            return False
        return True

    def take(self, n: int) -> int:
        """Charge a row of ``n`` law instances to the budget at once and
        count them as checked; return how many of them, from the first, the
        caller may evaluate.

        The cutoff is exact: ``take(n)`` leaves ``budget.used``,
        ``report.checked`` and the status as ``n`` calls of :meth:`eq`
        would.  On the row that crosses the cap it returns the remainder and
        sets ``budget-exceeded``; after that it returns 0.  An exhausted
        budget ends at ``used == max_tuples + 1``, however many collectors
        share it and meet it exhausted."""
        if self._hit_budget or n <= 0:
            return 0
        budget = self.budget
        room = budget.max_tuples - budget.used
        if n <= room:
            budget.used += n
            self.report.checked += n
            return n
        room = max(room, 0)
        budget.used = max(budget.used, budget.max_tuples + 1)
        self.report.checked += room
        self._hit_budget = True
        self.report.status = BUDGET_EXCEEDED
        return room

    def room(self) -> int:
        """How many more law instances the budget lets this collector
        evaluate."""
        return 0 if self._hit_budget else max(self.budget.max_tuples - self.budget.used, 0)

    def fail(self, axiom: str, witness: tuple, lhs=None, rhs=None) -> None:
        self.report.violations.append(Violation(axiom, witness, lhs, rhs))

    def assume(self, text: str) -> None:
        if text not in self.report.assumptions:
            self.report.assumptions.append(text)

    def inconclusive(self) -> None:
        if self.report.status == PASS:
            self.report.status = INCONCLUSIVE

    def done(self) -> AxiomReport:
        return self.report.finish()

