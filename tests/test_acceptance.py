"""One test per exit criterion; each prints its pass/fail line."""

import json

import pytest

from dblkit import acceptance


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
