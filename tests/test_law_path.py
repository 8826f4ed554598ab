"""Every checker states its laws through ``kernel._laws`` and the kernel
enumerators: none evaluates a side past its budget, and no per-instance
``Collector.eq`` or ``Collector.check`` call is left in the library."""

import ast
import itertools
from pathlib import Path

import pytest

from dblkit import zoo
from dblkit.companion import check_connection, find_connection
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.graytensor import check_monoid
from dblkit.internal import check_enriched_over_cat, internalize_bicategory
from dblkit.kernel import HCELL, OBJECT, DoubleCategory, _columns, _laws, _paths, _whole, embed_two_category, quintet
from dblkit.report import Budget, Collector
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


@pytest.mark.parametrize("cap", [0, 100])
def test_exhausted_budget_ends_one_past_its_cap(cap):
    # check_monoid shares its budget with the collectors of the cubical
    # functor's partial functors; those that meet it exhausted charge nothing
    budget = Budget(cap)
    rep = check_monoid(zoo.min_monoid_in_dbl(), budget=budget)
    assert rep.status == "budget-exceeded" and rep.checked == cap
    assert budget.used == cap + 1


def test_eq_on_an_exhausted_budget_charges_nothing():
    budget = Budget(1)
    for _ in range(3):
        Collector("x", budget).eq("law", (), 0, 0)
    assert budget.used == 2


def test_laws_reads_rows_only_within_the_budget():
    produced = []

    def rows():
        for x in range(10):
            produced.append(x)
            yield (x,)

    col = Collector("x", Budget(5))
    _laws(col, (OBJECT,), rows(), ("same", lambda x: x, lambda x: x), ("negated", lambda x: x, lambda x: -x), count=10)
    assert produced == [0, 1, 2]
    assert col.report.checked == 5 and col.report.status == "budget-exceeded"
    assert [(v.axiom, v.witness) for v in col.report.violations] == [("negated", ((OBJECT, 1),))]


@pytest.mark.parametrize("cap", range(10))
def test_whole_reads_sides_only_within_the_budget(cap):
    # two laws over four keys, in key order and law by law at each key;
    # each side sees only the keys its law's instances within the cap reach
    table = {(3, 0): 1, (0, 1): 0, (2, 2): 5, (1, 3): 2}
    seen = {"same": [], "shifted": []}

    def side(law, shift):
        return lambda t: seen[law].append(list(t)) or [z + shift for z in t.values()]

    col = Collector("x", Budget(cap))
    _whole(col, (HCELL, HCELL), table, ("same", side("same", 0), side("same", 0)),
           ("shifted", side("shifted", 0), side("shifted", 1)))
    instances = [(key, law) for key in sorted(table) for law in ("same", "shifted")][:cap]
    if cap >= 8:
        assert seen == {"same": [list(table)] * 2, "shifted": [list(table)] * 2}
    else:
        for law in seen:
            assert seen[law] == [[key for key, at in instances if at == law]] * 2
    assert col.report.checked == len(instances)
    assert [v.witness for v in col.report.violations] == [
        ((HCELL, x), (HCELL, y)) for (x, y), law in instances if law == "shifted"
    ]


@pytest.mark.parametrize("length", [3, 4])
def test_paths_count_and_list_the_composable_sequences(length):
    d = quintet(zoo.walking_arrow())
    top, bottom, left, right = _columns(d.squares, 4)
    for table, ends, starts in ((d.hcomp1, *_columns(d.hcells, 2)[::-1]), (d.hcomp2, right, left)):
        every = [
            path for path in itertools.product(range(len(ends)), repeat=length)
            if all(ends[x] == starts[y] for x, y in zip(path, path[1:]))
        ]
        count, rows = _paths(table, ends, starts, length)
        assert count == len(every) and list(rows) == every
