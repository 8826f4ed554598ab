"""Workload ``internal-bundles``: ``monoid_to_internal`` followed by
``check_internal``, the pseudomonoid bundle, the compatibility mutations of
acceptance criterion 8, and ``internalize_bicategory`` with
``check_pseudo_double_category`` (acceptance criterion 9).

Constructions dominate here and law checking barely figures, so a gain in
the kernel's checker loop should leave this workload flat while a gain in
``pullback``, ``DoubleCategory`` validation or ``compose_pseudo`` shows.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import replace

from dblkit import zoo
from dblkit.builders import enumerate_plain_verticals
from dblkit.companion import find_connection
from dblkit.functors import StrictDoubleFunctor, compose_pseudo, compose_strict, pseudo_from_strict
from dblkit.internal import (
    check_internal,
    diagonal_internal,
    internalize_bicategory,
    monoid_to_internal,
    nested_composition_functors,
    pseudomonoid_to_internal,
    triple_pullbacks,
)
from dblkit.kernel import DoubleCategory, check_double_category, embed_two_category, product, pullback, quintet
from dblkit.mutate import sample_mutants
from dblkit.report import FAIL, PASS
from dblkit.transform import DoublePNT, ComponentRegistry, identity_horizontal, identity_vertical
from dblkit.weak import check_bicategory, check_pseudo_double_category

from . import reference as ref
from .common import Round

EMPTY = ComponentRegistry.of()
# seeded single-entry mutants of the bundled pullback, per diagonal bundle;
# the walking-iso ones cost about twice as much to reject, so the median
# verdict falls among the cyclic-group mutants and the 90th percentile among
# the walking-iso ones, whatever the seed
PULLBACK_MUTANTS = (("cyclic2", lambda: zoo.cyclic_group_cat(2), 240), ("walking-iso", zoo.walking_iso, 60))

# (name, monoid, check the constituents too); the braid bundle is checked
# shallowly, as in test_braid_monoid_internalizes
MONOIDS = (
    ("braid", zoo.braid_monoid_in_dbl, False),
    ("cyclic2", zoo.commutative_monoid_in_dbl, True),
    ("min", zoo.min_monoid_in_dbl, True),
    ("trivial", zoo.trivial_monoid_in_dbl, True),
)


def _mutations(seed_rng, small):
    """Criterion 8's compatibility mutations over the diagonal bundle of the
    walking arrow's squares, each with the law names it must be flagged
    with, plus seeded single-entry mutants of the bundled pullbacks."""
    dq = quintet(zoo.walking_arrow())
    good = diagonal_internal(dq)
    constant = StrictDoubleFunctor(
        dq,
        dq,
        [0] * dq.n_objects,
        [dq.hid[0]] * len(dq.hcells),
        [dq.vid[0]] * len(dq.vcells),
        [dq.sq_vid[dq.hid[0]]] * len(dq.squares),
        name="const",
    )
    out = [
        ("diagonal", good, None),
        ("unit-section", replace(good, u=pseudo_from_strict(constant)), {"unit-section-s", "unit-section-t"}),
        (
            "composite-sources",
            replace(good, m=pseudo_from_strict(constant), lunit=None, runit=None),
            {"src-of-composite", "tgt-of-composite", "comparison-construction"},
        ),
        ("pullback", replace(good, p=product(dq, dq)), {"pullback-canonical"}),
    ]
    ds = embed_two_category(zoo.sign_two_category())
    diag_s = diagonal_internal(ds)
    minus_lunit = DoublePNT(
        identity_vertical(diag_s.lunit.F),
        identity_horizontal(diag_s.lunit.F),
        [2 * f + 1 for f in range(len(ds.hcells))],
        [1],
    )
    whiskers = {f"whisker-{side}-lunit-{part}" for side in "st" for part in ("components", "squares")}
    out.append(("whisker", replace(diag_s, lunit=minus_lunit), whiskers))
    for name, make, count in PULLBACK_MUTANTS:
        host = diagonal_internal(quintet(make()))
        for slot, bad_p in sample_mutants(host.p, 4 if small else count, seed=seed_rng.randrange(2**31)):
            out.append((f"pullback({name}) {slot}", replace(host, p=bad_p), {"pullback-canonical"}))
    return out


def setup(seed, tr, small=False):
    rng = random.Random(seed)
    monoids = [(name, make(), deep) for name, make, deep in MONOIDS if not (small and name == "braid")]
    mutations = _mutations(rng, small)
    rng.shuffle(mutations)
    bicategories = [("sign", zoo.sign_bicategory()), ("two-object", zoo.two_object_bicategory())]
    return {"monoids": monoids, "mutations": mutations, "bicategories": bicategories, "bundles": {}}


def reference(inputs):
    return {}


def _timed(r, mark, fn):
    mark()
    t = time.perf_counter()
    out = fn()
    r.verdicts.append((t, time.perf_counter()))
    return out


def _check(tr, data, deep=True):
    with tr.span("internal.check_internal") as span:
        rep = check_internal(data, registry=EMPTY, deep=deep)
    if span is not None:
        span["attrs"]["instances"] = rep.checked
    return rep


def _deep_instances(data):
    return sum(sum(ref.law_counts(d).values()) for d in (data.d0, data.d1, data.p))


def _pseudomonoid(base, monoid, tr):
    """The nonstrict bundle over the order-two group's squares: a
    nonidentity associativity comparison found among the plain vertical
    transformations between the nested composites."""
    d = base.d1
    left_nested, right_nested, p3l = nested_composition_functors(base)
    with tr.span("builders.enumerate_plain_verticals"):
        verts = enumerate_plain_verticals(right_nested, left_nested)
    nonid = [v for v in verts if any(v.comp[o] != d.vid[0] for o in range(d.n_objects))]
    conn, dom_conn = find_connection(d), find_connection(p3l)
    with tr.span("internal.pseudomonoid_to_internal"):
        return pseudomonoid_to_internal(monoid, nonid[0], conn, dom_conn=dom_conn)


def run_round(inputs, expected, tr):
    r = Round()
    mark = inputs["clock"].mark
    outcomes = []
    # the mutation verdicts run in chunks, one before each construction, so
    # their percentiles sample the machine's speed across the round rather
    # than in one burst of a second
    steps = len(inputs["monoids"]) + 1 + len(inputs["bicategories"])
    chunks = iter([inputs["mutations"][i::steps] for i in range(steps)])

    def mutation_verdicts():
        for label, data, flagged in next(chunks):
            rep = _timed(r, mark, lambda: _check(tr, data, deep=False))
            outcomes.append((label, data, rep, flagged, False))

    # the last round's bundles, kept for the probe, are freed before the
    # round starts: left alive they made every later round's verdicts up to
    # 30 % slower than the first's
    inputs["bundles"] = None
    gc.collect()
    r.start = time.perf_counter()

    def bundle_verdict(monoid, deep):
        with tr.span("internal.monoid_to_internal"):
            data = monoid_to_internal(monoid)
        return data, _check(tr, data, deep)

    bundles, monoids = {}, {}
    for name, monoid, deep in inputs["monoids"]:
        mutation_verdicts()
        monoids[name] = monoid
        data, rep = _timed(r, mark, lambda: bundle_verdict(monoid, deep))
        bundles[name] = data
        outcomes.append((f"bundle {name}", data, rep, None, deep))

    def pseudo_verdict():
        data = _pseudomonoid(bundles["cyclic2"], monoids["cyclic2"], tr)
        return data, _check(tr, data)

    mutation_verdicts()
    data, rep = _timed(r, mark, pseudo_verdict)
    outcomes.append(("pseudomonoid", data, rep, None, True))

    for name, b in inputs["bicategories"]:
        mutation_verdicts()

        def weak_verdict():
            with tr.span("internal.internalize_bicategory"):
                p = internalize_bicategory(b)
            with tr.span("weak.check_pseudo_double"):
                return p, check_pseudo_double_category(p)

        p, rep = _timed(r, mark, weak_verdict)
        outcomes.append((f"internalized {name}", p, rep, None, False))
        with tr.span("weak.check_bicategory"):
            rep = _timed(r, mark, lambda: check_bicategory(b))
        outcomes.append((f"bicategory {name}", b, rep, None, False))
    r.end = time.perf_counter()
    inputs["bundles"] = bundles

    r.attempted = len(outcomes)
    for label, data, rep, flagged, deep in outcomes:
        r.expect(rep.status in (PASS, FAIL), f"{label}: {rep.status}")
        if flagged is None:
            r.expect(rep.status == PASS, f"{label}: {rep.summary()}")
        else:
            hit = {v.axiom for v in rep.violations}
            r.expect(rep.status == FAIL and hit & flagged, f"{label}: flagged {sorted(hit)}")
        if label.startswith("bundle") or label == "pseudomonoid":
            r.expect(
                ref.fiber_product_counts(data.t, data.s) == ref.pullback_shape(data.p),
                f"{label}: pullback cell counts differ from the fiber product",
            )
            if deep:
                r.instances += _deep_instances(data)
        if label.startswith("bundle"):
            r.expect(
                any("defaulted to the identity" in a for a in rep.assumptions),
                f"{label}: identity comparisons not recorded",
            )
        if label == "pseudomonoid":
            r.expect(data.assoc.v0.comp != tuple(data.d1.vid), "pseudomonoid: identity associativity comparison")
        if label == "internalized sign":
            r.expect(
                any(s != data.sq_vid[data.top(s)] for s in data.assoc.values()),
                "internalized sign: associator degenerated to the identity",
            )
    return r


def probe(inputs, tr):
    """Direct calls to the layers this workload reaches only through
    ``internal``: on the heaviest bundle of the last round, the triple
    pullbacks, ``kernel.pullback`` on the bundle's functors, the
    ``DoubleCategory`` constructor on the triple pullback's prebuilt tables
    and ``compose_pseudo`` on the composition and its first whiskering; and
    ``check_double_category`` on the pullback of the largest deep-checked
    bundle."""
    bundles = inputs["bundles"]
    data = bundles.get("braid") or bundles["cyclic2"]
    checked = bundles["cyclic2"].p
    counts = ref.law_counts(checked)
    for _ in range(3):
        tr.trace_id += 1
        with tr.span("kernel.check", instances=sum(counts.values()), interchange=counts["interchange"]) as span:
            rep = check_double_category(checked)
        span["attrs"]["status"] = rep.status
        tr.trace_id += 1
        with tr.span("internal.triple_pullbacks"):
            p3l, _, m_x_id, _, _ = triple_pullbacks(data)
        t_after_p2 = compose_strict(data.t, data.p2)
        with tr.span("kernel.pullback"):
            pullback(data.t, data.s)
            pullback(t_after_p2, data.s)
        with tr.span("kernel.validate"):
            DoubleCategory(
                p3l.n_objects, p3l.hcells, p3l.vcells, p3l.squares,
                p3l.hcomp1, p3l.vcomp1, p3l.hcomp2, p3l.vcomp2,
                p3l.hid, p3l.vid, p3l.sq_vid, p3l.sq_hid,
            )
        with tr.span("functors.compose_pseudo"):
            compose_pseudo(data.m, m_x_id)
