"""One test per exit criterion; each prints its pass/fail line."""

import json

import pytest

from dblkit import acceptance
from dblkit.report import Budget


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(name, fn):
    ok, detail = fn()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}")
    assert ok, detail


def test_time_bounds_are_one_table_keyed_by_criterion():
    assert acceptance.TIME_BOUNDS == {"1 kernel soundness": 10.0, "2 companion bijection": 30.0, "9 weak internalization": 5.0}
    assert set(acceptance.TIME_BOUNDS) <= {name for name, _ in acceptance.CRITERIA}


def test_time_bound_read_from_the_table_on_a_monotonic_clock(monkeypatch):
    name, fn = "9 weak internalization", acceptance.criterion_9_weak_internalization
    # a wall clock that jumps an hour per reading moves no bound
    wall = iter(range(0, 10**9, 3600))
    monkeypatch.setattr(acceptance.time, "time", lambda: next(wall))
    assert fn()[0]
    monkeypatch.setitem(acceptance.TIME_BOUNDS, name, 0.0)
    ok, detail = fn()
    assert not ok and detail.startswith("took ") and detail.endswith("s (budget 0s)")


def test_run_all_prints_bound_and_margin(monkeypatch, capsys):
    criteria = [c for c in acceptance.CRITERIA if c[0] in ("6 monoidal embedding", "9 weak internalization")]
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    results = acceptance.run_all(verbose=True)
    assert json.loads(json.dumps(results)) == results
    keys = ["name", "ok", "detail", "elapsed_s", "bound_s", "margin_s"]
    assert [list(r) for r in results] == [keys, keys]
    unbounded, bounded = results
    assert (unbounded["name"], unbounded["ok"], unbounded["bound_s"], unbounded["margin_s"]) == (
        "6 monoidal embedding",
        True,
        None,
        None,
    )
    elapsed = bounded["elapsed_s"]
    assert (bounded["name"], bounded["ok"], bounded["bound_s"]) == ("9 weak internalization", True, 5.0)
    assert bounded["margin_s"] == 5.0 - elapsed
    line6, line9 = capsys.readouterr().out.splitlines()
    assert line6.startswith("[PASS] criterion 6 monoidal embedding: ") and line6.endswith("s)")
    assert "margin" not in line6
    assert line9.endswith(f"({elapsed:.1f}s of 5s, margin {5 - elapsed:.1f}s)")


# a report cut by its budget passes no guard: each criterion fails when the
# reports of one of its checkers are capped, whether the guard asks for a
# pass or, on a mutation, for a fail

def _capped(check, when=lambda *args: True):
    def run(*args, **kwargs):
        if when(*args):
            kwargs["budget"] = Budget(0)
        return check(*args, **kwargs)

    return run


PASS_GUARDS = [
    (acceptance.criterion_1_kernel_soundness, "check_double_category"),
    (acceptance.criterion_2_companion_bijection, "roundtrip_check"),
    (acceptance.criterion_3_four_identities, "four_identities"),
    (acceptance.criterion_4_theta_embedding, "check_theta"),
    (acceptance.criterion_4_theta_embedding, "check_double_pnt"),
    (acceptance.criterion_5_composition_laws, "check_double_pnt"),
    (acceptance.criterion_5_composition_laws, "check_horizontal_pnt"),
    (acceptance.criterion_5_composition_laws, "check_vertical_pnt"),
    (acceptance.criterion_5_composition_laws, "check_modification"),
    (acceptance.criterion_6_monoidal_embedding, "check_monoidal_embedding"),
    (acceptance.criterion_8_internalization, "check_monoid"),
    (acceptance.criterion_8_internalization, "check_internal"),
    (acceptance.criterion_9_weak_internalization, "check_pseudo_double_category"),
    (acceptance.criterion_9_weak_internalization, "check_coproduct_pullback"),
]


@pytest.mark.parametrize("criterion,checker", PASS_GUARDS, ids=[f"{c.__name__}-{n}" for c, n in PASS_GUARDS])
def test_capped_report_passes_no_pass_guard(monkeypatch, criterion, checker):
    monkeypatch.setattr(acceptance, checker, _capped(getattr(acceptance, checker)))
    ok, detail = criterion()
    assert not ok, detail


def test_capped_mutant_report_is_undetected(monkeypatch):
    mutants = acceptance._mutants()[:1]
    monkeypatch.setattr(acceptance, "_mutants", lambda: mutants)
    original = acceptance.check_double_category
    monkeypatch.setattr(acceptance, "check_double_category", _capped(original, lambda d: d is mutants[0][1]))
    ok, detail = acceptance.criterion_1_kernel_soundness()
    assert not ok and detail.startswith("undetected mutation")


@pytest.mark.parametrize("checker", ["check_companion", "four_identities"])
def test_capped_binding_cell_report_is_undetected(monkeypatch, checker):
    monkeypatch.setattr(acceptance, "_correspondence_settings", lambda: [])
    monkeypatch.setattr(acceptance, checker, _capped(getattr(acceptance, checker)))
    ok, detail = acceptance.criterion_3_four_identities()
    assert not ok and detail.startswith("corrupted binding cells passed")


@pytest.mark.parametrize("label", ["unit-section", "composite-sources", "pullback", "whisker"])
def test_capped_internal_mutation_is_undetected(monkeypatch, label):
    good, mutations = acceptance.internal_mutations()
    monkeypatch.setattr(acceptance, "internal_mutations", lambda: (good, mutations))
    original = acceptance.check_internal
    monkeypatch.setattr(acceptance, "check_internal", _capped(original, lambda data: data is mutations[label]))
    ok, detail = acceptance.criterion_8_internalization()
    assert not ok
    assert ("whiskering" if label == "whisker" else f"mutation {label} went undetected") in detail
