"""Pieces the three workloads share: the per-round record, the seeded
relabelling of a double category, and the probe of ``Collector.eq``."""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Round:
    """One pass over a workload's operations."""

    start: float = 0.0  # time.perf_counter() readings around the round
    end: float = 0.0
    verdicts: list = field(default_factory=list)  # (start, end) of each timed verdict
    attempted: int = 0
    failed: int = 0
    instances: int = 0  # law instances, by the benchmark's own count
    problems: list = field(default_factory=list)

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)


def relabel(d, rng: random.Random):
    """An isomorphic copy of ``d`` with every kind of cell renumbered by a
    seeded permutation.  The copy goes through the ``DoubleCategory``
    constructor, so it is validated like any prebuilt table."""
    from dblkit.kernel import DoubleCategory

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    po, ph, pv, ps = perm(d.n_objects), perm(len(d.hcells)), perm(len(d.vcells)), perm(len(d.squares))

    def moved(cells, fn, p):
        out = [None] * len(cells)
        for i, c in enumerate(cells):
            out[p[i]] = fn(c)
        return out

    def table(t, p_key, p_val):
        return {(p_key[x], p_key[y]): p_val[z] for (x, y), z in sorted(t.items(), key=lambda kv: (p_key[kv[0][0]], p_key[kv[0][1]]))}

    names = None
    if d.names:
        names = {}
        for kind, p in (("object", po), ("hcell", ph), ("vcell", pv), ("square", ps)):
            if d.names.get(kind):
                names[kind] = moved(d.names[kind], lambda x: x, p)
    return DoubleCategory(
        d.n_objects,
        moved(d.hcells, lambda c: (po[c[0]], po[c[1]]), ph),
        moved(d.vcells, lambda c: (po[c[0]], po[c[1]]), pv),
        moved(d.squares, lambda s: (ph[s[0]], ph[s[1]], pv[s[2]], pv[s[3]]), ps),
        table(d.hcomp1, ph, ph),
        table(d.vcomp1, pv, pv),
        table(d.hcomp2, ps, ps),
        table(d.vcomp2, ps, ps),
        moved(d.hid, lambda f: ph[f], po),
        moved(d.vid, lambda u: pv[u], po),
        moved(d.sq_vid, lambda s: ps[s], ph),
        moved(d.sq_hid, lambda s: ps[s], pv),
        names=names,
    )


def probe_report_eq(tr, calls=200_000):
    """Direct calls to ``Collector.eq`` (which spends one unit of budget per
    call) on equal sides, beside a span of the same loop with an empty body
    so the per-call cost can be read off."""
    from dblkit.report import Budget, Collector

    for _ in range(3):
        tr.trace_id += 1
        with tr.span("report.eq.loop", calls=calls):
            for i in range(calls):
                pass
        eq = Collector("probe", Budget(calls)).eq
        with tr.span("report.eq", calls=calls):
            for i in range(calls):
                eq("probe", (), i, i)
