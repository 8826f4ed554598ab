import importlib.util
from pathlib import Path

import pytest

from dblkit import zoo
from dblkit.kernel import embed_two_category, quintet
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.report import BUDGET_EXCEEDED, Budget


@pytest.fixture(scope="session")
def bz3_setting():
    """Identity endofunctor pair on the commuting-square category of the
    cyclic group of order three: the standard companion testbed."""
    from dblkit.builders import enumerate_plain_verticals, quintet_functor
    from dblkit.companion import find_connection

    c = zoo.cyclic_group_cat(3)
    d = quintet(c)
    F = pseudo_from_strict(identity_functor(d))
    verts = enumerate_plain_verticals(F, F)
    conn = find_connection(d)
    return c, d, F, verts, conn


@pytest.fixture(scope="session")
def verdict_dump():
    """The module ``scripts/verdict_dump.py``, for its seeded inputs."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "verdict_dump.py"
    spec = importlib.util.spec_from_file_location("verdict_dump", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sign_setting():
    """Identity endofunctor on the embedded sign 2-category: the smallest
    setting with parallel squares on one boundary."""
    t = zoo.sign_two_category()
    d = embed_two_category(t)
    F = pseudo_from_strict(identity_functor(d))
    return t, d, F


def _every_cap(check):
    """Run ``check(budget)`` uncapped (``budget`` None), then under every cap
    from 0 to one past the uncapped report's ``checked``.  Each capped
    report holds a prefix of the uncapped report's violations and at most
    ``cap`` instances; its status is ``budget-exceeded`` exactly when the
    cap is below the uncapped count, and the uncapped status otherwise.
    Returns the uncapped report and the ``(budget, report)`` of each cap,
    in order."""
    full = check(None)
    runs = []
    for cap in range(full.checked + 2):
        budget = Budget(cap)
        rep = check(budget)
        assert rep.violations == full.violations[: len(rep.violations)], cap
        assert rep.checked <= cap, cap
        assert rep.status == (BUDGET_EXCEEDED if cap < full.checked else full.status), cap
        runs.append((budget, rep))
    return full, runs


@pytest.fixture(scope="session")
def every_cap():
    """The per-cap sweep of a checker's budget cutoff (``_every_cap``)."""
    return _every_cap


class _Builds(list):
    """The categories whose square tables were built, in order; ``parsed``
    holds those that were parsed categories."""

    def __init__(self):
        super().__init__()
        self.parsed = []

    def clear(self):
        super().clear()
        self.parsed.clear()


@pytest.fixture
def square_table_builds(monkeypatch):
    """The pullbacks and parsed categories whose square tables get built
    while the test runs, in the order they are built (``parsed``: the
    parsed ones alone): a pending category (``kernel._Pending``) builds
    both at the first read of either, through ``kernel._Deferred._build``."""
    from dblkit import dsl, kernel

    built, original = _Builds(), kernel._Deferred._build

    def counted(self):
        recipe = kernel._held(self, "hcomp2") if type(self) is kernel._Pending else None
        original(self)
        if recipe is not None:
            built.append(self)
            if isinstance(recipe, dsl._Composites):
                built.parsed.append(self)

    monkeypatch.setattr(kernel._Deferred, "_build", counted)
    return built


@pytest.fixture
def family_builds(monkeypatch):
    """The pending pseudofunctors whose structure families get built while
    the test runs, in the order they are built: a pending pseudofunctor
    (``functors._PendingFunctor``) builds all eight at the first read of
    any, through ``kernel._Deferred._build``."""
    from dblkit import functors, kernel

    built, original = [], kernel._Deferred._build

    def counted(self):
        pending = type(self) is functors._PendingFunctor
        original(self)
        if pending:
            built.append(self)

    monkeypatch.setattr(kernel._Deferred, "_build", counted)
    return built
