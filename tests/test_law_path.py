"""Every checker states its laws through ``kernel._laws`` and the kernel
enumerators: none evaluates a side past its budget, and no per-instance
``Collector.eq`` or ``Collector.check`` call is left in the library."""

import ast
from pathlib import Path

import pytest

from dblkit import zoo
from dblkit.companion import check_connection, find_connection
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.graytensor import check_monoid
from dblkit.internal import check_enriched_over_cat, internalize_bicategory
from dblkit.kernel import DoubleCategory, embed_two_category, quintet
from dblkit.report import Budget
from dblkit.transform import check_horizontal_pnt, identity_horizontal
from dblkit.weak import Bicategory, check_bicategory, check_pseudo_double_category

SRC = Path(__file__).resolve().parent.parent / "src" / "dblkit"


def _sign_horizontal():
    d = embed_two_category(zoo.sign_two_category())
    return identity_horizontal(pseudo_from_strict(identity_functor(d)))


CHECKS = {
    "pseudo-double": (lambda: internalize_bicategory(zoo.sign_bicategory()), check_pseudo_double_category),
    "bicategory": (zoo.sign_bicategory, check_bicategory),
    "enriched": (zoo.sign_bicategory, check_enriched_over_cat),
    "horizontal-pnt": (_sign_horizontal, check_horizontal_pnt),
    "connection": (lambda: find_connection(quintet(zoo.cyclic_group_cat(3))), check_connection),
    "monoid": (zoo.min_monoid_in_dbl, check_monoid),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checker_evaluates_nothing_past_its_budget(name, monkeypatch):
    make, check = CHECKS[name]
    subject = make()
    calls = []
    for cls, method in ((DoubleCategory, "vpaste"), (DoubleCategory, "hpaste"), (Bicategory, "vert"), (Bicategory, "horiz")):
        paste = getattr(cls, method)
        monkeypatch.setattr(cls, method, lambda self, a, b, paste=paste: calls.append(1) or paste(self, a, b))
    full = check(subject)
    assert full.passed and calls
    calls.clear()
    rep = check(subject, budget=Budget(0))
    assert rep.status == "budget-exceeded" and rep.checked == 0
    assert not calls


def _collector_calls(tree):
    """The ``.eq(...)`` and ``.check(...)`` calls whose receiver is a
    collector: a name bound to ``Collector(...)`` or the conventional
    parameter ``col``."""
    collectors = {"col"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Name) and func.id == "Collector":
                collectors.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eq", "check")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in collectors
    )


def test_no_per_instance_collector_calls_outside_report():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "report.py":
            continue
        lines = _collector_calls(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert not found, f"Collector.eq/check calls; state the laws through kernel._laws: {found}"


def test_collector_call_finder_sees_both_receivers():
    tree = ast.parse("col.eq('a', (), 1, 1)\nc = Collector('x')\nc.check('b', (), True)\nd.check()\n")
    assert _collector_calls(tree) == [1, 3]
