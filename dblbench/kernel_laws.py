"""Workload ``kernel-laws``: ``check_double_category`` on zoo-built strict
double categories and on seeded single-entry mutants.

The generators are the commuting-square category of the cyclic group of
order 5, the product of those of the cyclic groups of orders 3 and 2, the
pullback of a product projection along itself, the embedding of the sign
2-category, and the transposes of all four.  Each is renumbered by a
seeded permutation of its cells.  The mutant hosts are the hosts of
acceptance criterion 1.  All structures are built in set-up; a round only
checks them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from dblkit import zoo
from dblkit.functors import product_projections
from dblkit.kernel import check_double_category, embed_two_category, product, pullback, quintet, transpose
from dblkit.mutate import sample_mutants
from dblkit.report import DEFAULT_MAX_TUPLES, FAIL, PASS

from . import reference as ref
from .common import Round, relabel

CYCLIC_ORDER = 5

# (label, host, mutants per round); the hosts of acceptance criterion 1.
# Each quintet host's mutants cost about the same to reject (all fail on a
# table boundary), and the hosts' costs differ, so the counts fix which host
# the median and the 90th percentile verdict fall in, whatever the seed:
# the median in the middle of the idempotent-monoid mutants, the 90th
# percentile in the middle of the cyclic-group ones.  Near the edge of a
# cluster a percentile moves with the few verdicts beside it.
MUTANT_HOSTS = (
    # parallel squares, so some mutants break laws rather than boundaries;
    # small enough for the brute-force evaluator
    ("embed(sign)", lambda: embed_two_category(zoo.sign_two_category()), 48),
    ("squares(parallel-pair)", lambda: quintet(zoo.parallel_pair()), 80),
    ("squares(idempotent-monoid)", lambda: quintet(zoo.idempotent_monoid_cat()), 96),
    ("squares(walking-iso)", lambda: quintet(zoo.walking_iso()), 32),
    ("squares(cyclic3)", lambda: quintet(zoo.cyclic_group_cat(3)), 64),
)


@dataclass
class Item:
    label: str
    d: object
    mutant: bool
    brute: bool = False


@dataclass
class Expected:
    checked: int
    interchange: int
    brute: object = None


def setup(seed, tr, small=False):
    """Inputs of one run.  ``small`` (used only to fill in layer numbers
    for other workloads' traced runs) swaps in smaller generators."""
    rng = random.Random(seed)
    n, m = (3, 2) if small else (CYCLIC_ORDER, 3)
    with tr.span("kernel.quintet"):
        qn = quintet(zoo.cyclic_group_cat(n))
        qm = quintet(zoo.cyclic_group_cat(m))
        q2 = quintet(zoo.cyclic_group_cat(2))
        qa = quintet(zoo.terminal_cat() if small else zoo.walking_arrow())
    with tr.span("kernel.product"):
        prod = product(qm, q2)
        base = product(qa, q2)
    p1, _ = product_projections(qa, q2, base)
    with tr.span("kernel.pullback"):
        pb = pullback(p1, p1)
    es = embed_two_category(zoo.sign_two_category())
    gens = []
    for label, d in (
        (f"squares(cyclic{n})", qn),
        (f"product(squares(cyclic{m}),squares(cyclic2))", prod),
        ("pullback(p1,p1)", pb),
        ("embed(sign)", es),
    ):
        with tr.span("kernel.validate"):
            gens.append(Item(label, relabel(d, rng), False))
    for item in list(gens):
        with tr.span("kernel.transpose"):
            gens.append(Item(f"transpose({item.label})", transpose(item.d), False))
    items = list(gens)
    for label, make, count in MUTANT_HOSTS:
        host = relabel(make(), rng)
        for slot, mutant in sample_mutants(host, 4 if small else count, seed=rng.randrange(2**31)):
            items.append(Item(f"{label} {slot}", mutant, True, brute=label == "embed(sign)"))
    rng.shuffle(items)
    return {"items": items, "n": n, "pullback": (pb, p1)}


def reference(inputs):
    """Expected instance counts (and, for small hosts, the violations) of
    every input, from :mod:`reference` alone."""
    out = []
    for item in inputs["items"]:
        counts = ref.law_counts(item.d)
        total = sum(counts.values())
        if total >= DEFAULT_MAX_TUPLES:
            raise ValueError(f"{item.label}: {total} instances exceed the default budget")
        checked = ref.expected_checked(item.d, counts)
        interchange = counts["interchange"] if checked == total else 0
        brute = ref.brute_force_violations(item.d) if item.brute else None
        out.append(Expected(checked, interchange, brute))
    n = inputs["n"]
    for item, exp in zip(inputs["items"], out):
        if item.label == f"squares(cyclic{n})" and exp.checked != ref.quintet_closed_form(n):
            raise ValueError("law counter disagrees with the closed form")
    pb, p1 = inputs["pullback"]
    if ref.fiber_product_counts(p1, p1) != ref.pullback_shape(pb):
        raise ValueError("pullback cell counts differ from the fiber product")
    return out


def run_round(inputs, expected, tr):
    r = Round()
    mark = inputs["clock"].mark
    reports = []
    r.start = time.perf_counter()
    for item, exp in zip(inputs["items"], expected):
        mark()
        with tr.span("kernel.check", instances=exp.checked, interchange=exp.interchange) as span:
            t = time.perf_counter()
            rep = check_double_category(item.d)
            r.verdicts.append((t, time.perf_counter()))
        if span is not None:
            span["attrs"]["status"] = rep.status
        reports.append(rep)
    r.end = time.perf_counter()
    r.attempted = len(reports)
    r.instances = sum(exp.checked for exp in expected)
    for item, exp, rep in zip(inputs["items"], expected, reports):
        r.expect(rep.checked == exp.checked, f"{item.label}: checked {rep.checked}, expected {exp.checked}")
        if not item.mutant:
            r.expect(rep.status == PASS and not rep.violations, f"{item.label}: {rep.status}")
            continue
        r.expect(rep.status == FAIL, f"{item.label}: mutant got {rep.status}")
        r.expect(
            all(ref.is_real_violation(item.d, v) for v in rep.violations),
            f"{item.label}: a reported witness is not a violation",
        )
        if exp.brute is not None:
            r.expect(
                ref.report_violations(rep) == exp.brute,
                f"{item.label}: violations differ from the brute-force evaluator",
            )
    return r
