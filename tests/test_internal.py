from collections import Counter
from dataclasses import fields, replace

import pytest

from dblkit import functors, internal, kernel, transform, zoo
from dblkit.acceptance import internal_mutations
from dblkit.kernel import (
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    TwoCategory,
    check_two_category,
    embed_two_category,
    product,
    pullback,
    quintet,
    same_category,
    transpose,
)
from dblkit.functors import (
    DoublePseudoFunctor,
    StrictDoubleFunctor,
    check_double_pseudo_functor,
    check_strict_functor,
    product_projections,
    pseudo_equal,
    pseudo_from_strict,
)
from dblkit.builders import enumerate_plain_verticals
from dblkit.graytensor import check_monoid
from dblkit.companion import find_connection
from dblkit.internal import (
    InternalCategoryData,
    check_coproduct_pullback,
    check_enriched_over_cat,
    check_internal,
    derive_globular,
    internalize_bicategory,
    monoid_to_internal,
    nested_composition_functors,
    pseudomonoid_to_internal,
    unit_sided_functors,
)
from dblkit.mutate import sample_mutants
from dblkit.report import BUDGET_EXCEEDED, PASS, AxiomReport, Budget
from dblkit.transform import ComponentRegistry
from dblkit.weak import (
    as_pseudo,
    bicategory_from_two_category,
    check_bicategory,
    check_pseudo_double_category,
)

EMPTY = ComponentRegistry.of()


@pytest.fixture(scope="module")
def monoid_bundles():
    return {
        "trivial": monoid_to_internal(zoo.trivial_monoid_in_dbl()),
        "cyclic2": monoid_to_internal(zoo.commutative_monoid_in_dbl()),
        "min": monoid_to_internal(zoo.min_monoid_in_dbl()),
    }


def test_monoid_bundles_pass(monoid_bundles):
    for name, data in monoid_bundles.items():
        rep = check_internal(data, registry=EMPTY)
        assert rep.passed, f"{name}: {rep.summary()}"
        assert any("defaulted to the identity" in a for a in rep.assumptions)


def test_terminal_bundle_is_trivially_fine(monoid_bundles):
    data = monoid_bundles["trivial"]
    assert data.d1.n_objects == 1 and len(data.d1.squares) == 1


def test_compatibility_mutations_detected(monoid_bundles):
    data = monoid_bundles["min"]
    # break the unit section: send the object elsewhere
    d = data.d1
    broken_u = StrictDoubleFunctor(
        data.d0,
        d,
        [0],
        [d.hid[0]],
        [d.vid[0]],
        [d.sq_vid[d.hid[0]]],
        name="bad-unit",
    )
    bad = InternalCategoryData(
        data.d0,
        data.d1,
        data.s,
        data.t,
        pseudo_from_strict(broken_u),
        data.p,
        data.p1,
        data.p2,
        data.m,
        assoc=data.assoc,
        lunit=data.lunit,
        runit=data.runit,
    )
    rep = check_internal(bad, registry=EMPTY, deep=False)
    assert not rep.passed
    # the bundle reuses the original unit-law transformations, so both the
    # section law and the unit comparisons must flag
    axioms = {v.axiom for v in rep.violations}
    assert axioms & {"unit-section-s", "unit-section-t", "lunit-endpoints", "runit-endpoints"}


def test_span_mutation_detected(monoid_bundles):
    data = monoid_bundles["cyclic2"]
    # a pullback that is not the canonical one
    from dblkit.kernel import product

    wrong_p = product(data.d1, data.d1)
    mangled = InternalCategoryData(
        data.d0,
        data.d1,
        data.s,
        data.t,
        data.u,
        wrong_p,
        data.p1,
        data.p2,
        data.m,
        assoc=data.assoc,
        lunit=data.lunit,
        runit=data.runit,
    )
    # over the one-point object part the pullback IS the product with the
    # same indexing, so this must still pass; mutate a table entry instead
    rep = check_internal(mangled, registry=EMPTY, deep=False)
    assert rep.passed
    from dblkit.mutate import apply_mutation, mutation_slots

    really_wrong = apply_mutation(wrong_p, mutation_slots(wrong_p)[0])
    mangled2 = InternalCategoryData(
        data.d0,
        data.d1,
        data.s,
        data.t,
        data.u,
        really_wrong,
        data.p1,
        data.p2,
        data.m,
        assoc=data.assoc,
        lunit=data.lunit,
        runit=data.runit,
    )
    rep2 = check_internal(mangled2, registry=EMPTY, deep=False)
    assert not rep2.passed


def test_pseudomonoid_bundle_passes():
    m = zoo.commutative_monoid_in_dbl()
    d = m.carrier
    base = monoid_to_internal(m)
    left_nested, right_nested, p3l = nested_composition_functors(base)
    verts = enumerate_plain_verticals(right_nested, left_nested)
    nonid = [v for v in verts if any(v.comp[o] != d.vid[0] for o in range(d.n_objects))]
    assert nonid
    conn = find_connection(d)
    dom_conn = find_connection(p3l)
    data = pseudomonoid_to_internal(m, nonid[0], conn, dom_conn=dom_conn)
    assert data.assoc.v0.comp != tuple(d.vid)
    rep = check_internal(data, registry=EMPTY)
    assert rep.passed, rep.summary()


def test_pseudomonoid_reduces_to_monoid_on_identity_comparison():
    m = zoo.commutative_monoid_in_dbl()
    d = m.carrier
    base = monoid_to_internal(m)
    left_nested, right_nested, p3l = nested_composition_functors(base)
    verts = enumerate_plain_verticals(right_nested, left_nested)
    ident = [v for v in verts if all(v.comp[o] == d.vid[0] for o in range(d.n_objects))]
    conn = find_connection(d)
    data = pseudomonoid_to_internal(m, ident[0], conn, dom_conn=find_connection(p3l))
    for f in range(len(p3l.hcells)):
        assert data.assoc.t[f] == base.assoc.t[f]


def test_derive_globular_identities_on_strict(monoid_bundles):
    data = monoid_bundles["min"]
    glob = derive_globular(data)
    d = data.d1
    for table, ident in (
        (glob.chi, "h"),
        (glob.delta, "h"),
        (glob.mu, "h"),
        (glob.tau, "h"),
        (glob.chi_p, "v"),
        (glob.delta_p, "v"),
        (glob.mu_p, "v"),
        (glob.tau_p, "v"),
    ):
        for cell in table.values():
            if ident == "h":
                assert cell == d.sq_hid[d.left(cell)]
            else:
                assert cell == d.sq_vid[d.top(cell)]
    # the nested composites carry the derived left/right composites
    assert glob.left_nested.strict and glob.right_nested.strict
    assert check_double_pseudo_functor(glob.left_nested).passed
    assert check_double_pseudo_functor(glob.right_nested).passed


def test_derive_globular_requires_normalized(monoid_bundles):
    data = monoid_bundles["min"]
    d = data.d1
    twisted = pseudo_from_strict(
        StrictDoubleFunctor(
            data.d0, d, [data.u.ob(0)], [data.u.h(0)], [data.u.v(0)], [data.u.sq(0)]
        )
    )
    # force a non-normalized unit cell if a parallel square exists; otherwise
    # the precondition is vacuous here
    cell = twisted.unit_h[0]
    alts = [s for s in range(len(d.squares)) if s != cell and d.squares[s] == d.squares[cell]]
    if alts:
        twisted.unit_h[0] = alts[0]
        bad = InternalCategoryData(
            data.d0, d, data.s, data.t, twisted, data.p, data.p1, data.p2, data.m
        )
        with pytest.raises(StructureError):
            derive_globular(bad)


def test_pluggable_equations_run(monoid_bundles):
    data = monoid_bundles["min"]
    seen = []

    def probe(bundle):
        seen.append(bundle)
        return True

    data.extra_threecell_equations = (("probe", probe),)
    rep = check_internal(data, registry=EMPTY, deep=False)
    assert rep.passed and seen
    data.extra_threecell_equations = (("probe", lambda b: False),)
    rep = check_internal(data, registry=EMPTY, deep=False)
    assert not rep.passed
    data.extra_threecell_equations = ()


# ---------------------------------------------------------------------------
# hom-data structures


def test_internalize_nonstrict_bicategory():
    b = zoo.sign_bicategory()
    assert check_bicategory(b).passed
    p = internalize_bicategory(b)
    rep = check_pseudo_double_category(p)
    assert rep.passed, rep.summary()
    nonid = [k for k, s in p.assoc.items() if s != p.sq_vid[p.top(s)]]
    assert nonid, "the associator must stay nonidentity"


def _sign_vcomp2_mutant():
    # one vcomp2 entry of the sign bicategory moved to the other 2-cell on
    # the same boundary: the pseudo double category of it breaks vcomp2
    # associativity, interchange and the naturality of its constraints
    b = zoo.sign_bicategory()
    b.vcomp2[(0, 1)] = 0
    return b


@pytest.mark.parametrize("make", [zoo.sign_bicategory, _sign_vcomp2_mutant])
def test_pseudo_double_budget_cutoff_is_exact(make, every_cap):
    p = internalize_bicategory(make())
    full, runs = every_cap(lambda budget: check_pseudo_double_category(p, budget=budget))
    total = full.checked
    for cap, (budget, rep) in enumerate(runs):
        assert rep.checked == min(cap, total)
        assert budget.used == (cap + 1 if cap < total else total)
    assert full.status == ("pass" if make is zoo.sign_bicategory else "fail")


def test_internalize_trivial_bicategory_is_terminal_shaped():
    b = bicategory_from_two_category(zoo.trivial_two_category())
    p = internalize_bicategory(b)
    assert p.n_objects == 1 and len(p.hcells) == 1 and len(p.squares) == 1
    assert check_pseudo_double_category(p).passed


def test_internalize_agrees_with_embedding_on_strict_input():
    t = zoo.walking_two_cell(invertible=True)
    left = internalize_bicategory(bicategory_from_two_category(t))
    right = as_pseudo(embed_two_category(t))
    assert left.squares == right.squares
    assert left.hcomp1 == right.hcomp1
    assert left.hcomp2 == right.hcomp2
    assert left.assoc == right.assoc
    assert left.lunit == right.lunit


def _in_order(x, fields):
    """The ``fields`` of ``x``, each dict as its items in insertion order."""
    return {k: list(v.items()) if isinstance(v, dict) else v for k in fields for v in [getattr(x, k)]}


_GLOBULAR = ("n_objects", "onecells", "twocells", "comp1", "vcomp2", "hcomp2", "id1", "id2")


@pytest.mark.parametrize("make_t, make_b", [
    (zoo.sign_two_category, zoo.sign_bicategory),
    (lambda: zoo.walking_two_cell(invertible=True), zoo.two_object_bicategory),
], ids=["sign", "two-object"])
def test_a_zoo_bicategory_holds_its_two_category(make_t, make_b):
    """A bicategory is a 2-category with constraints: each zoo bicategory
    holds the tables of the zoo 2-category it is built from, in their
    order, and checks as that 2-category does."""
    t, b = make_t(), make_b()
    assert isinstance(b, TwoCategory)
    assert _in_order(b, _GLOBULAR) == _in_order(t, _GLOBULAR)
    assert check_two_category(b) == check_two_category(t)


def test_sign_bicategory_is_the_strict_one_but_for_the_cocycle():
    b, strict = zoo.sign_bicategory(), bicategory_from_two_category(zoo.sign_two_category())
    constraints = {"assoc", "assoc_inv"}
    rest = [k for k in vars(strict) if k not in constraints]
    assert set(vars(b)) == set(vars(strict))
    assert _in_order(b, rest) == _in_order(strict, rest)
    for k in constraints:
        ours, identity = getattr(b, k), getattr(strict, k)
        assert set(ours) == set(identity)
        assert [key for key in ours if ours[key] != identity[key]] == [(1, 1, 1)]
    assert check_two_category(b).passed


def test_pentagon_transfers_both_directions():
    b = zoo.sign_bicategory()
    assert check_pseudo_double_category(internalize_bicategory(b)).passed
    b.assoc[(1, 1, 0)] ^= 1
    b.assoc_inv[(1, 1, 0)] ^= 1
    assert not check_bicategory(b).passed
    rep = check_pseudo_double_category(internalize_bicategory(b))
    assert not rep.passed
    assert any(v.axiom == "pentagon" for v in rep.violations)


def test_coproduct_pullback_counts():
    b = zoo.two_object_bicategory()
    rep = check_coproduct_pullback(b)
    assert rep.passed, rep.summary()
    # independent oracle for the n=2 object count
    cells = range(len(b.onecells))
    expected = sum(1 for f in cells for g in cells if b.t1(f) == b.s1(g))
    assert expected == 6
    assert rep.assumptions  # the canonical-cell annotations are recorded


def test_coproduct_pullback_single_object():
    b = zoo.sign_bicategory()
    assert check_coproduct_pullback(b).passed


def test_enriched_over_categories():
    assert check_enriched_over_cat(bicategory_from_two_category(zoo.walking_arrow_two_category())).passed
    assert check_enriched_over_cat(zoo.sign_bicategory()).passed
    assert check_enriched_over_cat(zoo.two_object_bicategory()).passed
    broken = zoo.sign_bicategory()
    broken.assoc[(1, 1, 0)] ^= 1
    broken.assoc_inv[(1, 1, 0)] ^= 1
    rep = check_enriched_over_cat(broken)
    assert not rep.passed
    assert any(v.axiom == "pentagon" for v in rep.violations)


def test_a_bicategory_edited_after_construction_raises_the_constructors_error():
    # every checker runs the constructor's checks again on reassigned fields
    edits = (
        ("onecells", 0, (0, 5), r"^1-cell 0 target: index 5 out of range 0\.\.1$"),
        ("twocells", 0, (0, 9), r"^2-cell 0 target: index 9 out of range 0\.\.3$"),
        ("id1", 0, 2, r"^identity 1-cell of object 0 has wrong boundary$"),
    )
    for check in (check_bicategory, check_enriched_over_cat, check_coproduct_pullback):
        for field, key, value, message in edits:
            b = zoo.two_object_bicategory()
            getattr(b, field)[key] = value
            with pytest.raises(StructureError, match=message):
                check(b)


def _dropping(monkeypatch, kind):
    """Make ``internal.pullback_pairs`` drop the last matching pair of
    ``kind`` from every answer."""
    def damaged(f, g):
        pairs = kernel.pullback_pairs(f, g)
        return {**pairs, kind: pairs[kind][:-1]}

    monkeypatch.setattr(internal, "pullback_pairs", damaged)


DROPPED_PAIR_LAWS = {
    OBJECT: ["pair-object-bijection", "pair-object-count", "triple-bijection", "triple-count"],
    VCELL: ["pair-morphism-bijection", "pair-morphism-count"],
}


@pytest.mark.parametrize("kind", list(DROPPED_PAIR_LAWS))
@pytest.mark.parametrize("make", [zoo.sign_bicategory, zoo.two_object_bicategory])
def test_coproduct_check_fails_on_a_damaged_pullback(monkeypatch, make, kind):
    # the pairs, and the bracketed triples built from them, are the
    # kernel's pullback pairs of the source and target legs
    b = make()
    _dropping(monkeypatch, kind)
    rep = check_coproduct_pullback(b)
    assert rep.status == "fail" and rep.checked == 8
    assert sorted({v.axiom for v in rep.violations}) == DROPPED_PAIR_LAWS[kind]


# each law the enriched view and the coproduct check state, and the laws
# no seeded input fails, with the reason
ENRICHED_LAWS = {"hom-category", "composition-functor", "constraint-equivalence", "inverse-boundary", "pentagon",
                 "triangle"}
COPRODUCT_LAWS = {"pair-object-count", "pair-object-bijection", "pair-object-injective", "pair-morphism-count",
                  "pair-morphism-bijection", "triple-count", "triple-bijection"}
NEVER_FAILING = {
    "inverse-boundary": "the constructor rejects a stored inverse with the wrong boundary, and the checker runs "
                        "the constructor's checks again",
    "pair-object-injective": "a 1-cell lies in one hom-set, so the coproduct's pairs are distinct however the "
                             "pullback is damaged",
}


def test_every_law_of_the_enrichment_checkers_fails_on_a_seeded_input(monkeypatch, verdict_dump):
    dump = verdict_dump
    sign = zoo.sign_bicategory()
    failed = set()
    for _, b in dump._table_mutants(sign, ("vcomp2", "hcomp2"), 40, seed=2):
        failed |= {v.axiom for v in check_enriched_over_cat(b).violations}
    for kind in DROPPED_PAIR_LAWS:
        with monkeypatch.context() as m:
            _dropping(m, kind)
            for b in (sign, zoo.two_object_bicategory()):
                failed |= {v.axiom for v in check_coproduct_pullback(b).violations}
    stated = ENRICHED_LAWS | COPRODUCT_LAWS
    assert failed <= stated
    assert failed.isdisjoint(NEVER_FAILING) and failed | set(NEVER_FAILING) == stated


def test_braid_deep_check_pastes_each_pair_once(monkeypatch):
    # coupling-composite pastes the t-composite of each composable pair,
    # 46,656 of them for the associator, once, and nothing else pastes one:
    # the deep check of the paper's principal example passes at the
    # default budget
    data = monoid_to_internal(zoo.braid_monoid_in_dbl())
    calls, pairs, seen = Counter(), {}, []
    paste = transform._t_composite

    def counted(a, f, g):
        seen.append(a)  # keeps each id to one transformation
        calls[id(a), f, g] += 1
        pairs[id(a)] = len(a.F.dom.hcomp1)
        return paste(a, f, g)

    monkeypatch.setattr(transform, "_t_composite", counted)
    rep = check_internal(data, registry=EMPTY)
    assert rep.status == PASS, rep.summary()
    assert DERIVED in rep.assumptions
    assert max(calls.values()) == 1
    assert pairs[id(data.assoc)] == 46656
    reached = Counter(a for a, _, _ in calls)
    assert all(reached[a] == pairs[a] for a in reached)


# the assumption a deep check makes where it derives the pullback's laws
DERIVED = "pullback laws derived from arrows: and pullback-canonical over strict legs, not enumerated"


SMALL_MONOIDS = {
    "trivial": [[0]],
    "C2": [[0, 1], [1, 0]],
    "min": [[0, 1], [1, 1]],
    "C3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
}


@pytest.mark.parametrize("table", SMALL_MONOIDS.values(), ids=SMALL_MONOIDS)
def test_small_commutative_monoids_pass_a_deep_check(table):
    # the pullback's laws follow from the arrows' and the canonical
    # pullback's, so even C3's pullback (52.7M instances of its own) fits
    # the default budget
    monoid = zoo.commutative_monoid_in_dbl(zoo.monoid_cat(table))
    assert check_monoid(monoid).passed
    rep = check_internal(monoid_to_internal(monoid), registry=EMPTY)
    assert rep.status == PASS, rep.summary()
    assert DERIVED in rep.assumptions


def _enumerated(data, **kwargs):
    """``check_internal`` with the pullback's laws enumerated whatever the
    other reports say."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(internal, "_is_canonical", lambda *args: False)
        return check_internal(data, registry=EMPTY, **kwargs)


def test_a_derived_pullback_keeps_every_verdict_and_drops_only_its_own_laws(monoid_bundles):
    # where the derivation applies, the report is the enumerated one without
    # the pullback's instances and with the assumption in their place
    host = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    m = host.m
    moved = replace(host, m=replace(m, comp_h={**m.comp_h, min(m.comp_h): 1}))
    for data in (monoid_bundles["cyclic2"], host, moved, internal.diagonal_internal(embed_two_category(zoo.sign_two_category()))):
        derived, enumerated = check_internal(data, registry=EMPTY), _enumerated(data)
        assert DERIVED in derived.assumptions
        assert derived.checked == enumerated.checked - kernel.check_double_category(data.p).checked
        assert (derived.status, derived.violations) == (enumerated.status, enumerated.violations)
        assert [x for x in derived.assumptions if x != DERIVED] == enumerated.assumptions


def test_the_pullback_laws_are_enumerated_unless_the_arrows_and_the_canonical_pullback_imply_them(monoid_bundles):
    # a pullback that is not the canonical one, arrows that fail, legs off
    # other arrows than the bundle's, and a budget that runs out before the
    # arrows pass or before the comparison fits: each report is the
    # enumerated one
    host = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    bad_d1 = next(d for _, d in sample_mutants(host.d1, 5, seed=3) if not kernel.check_double_category(d).passed)
    both = kernel.check_double_category(host.d0).checked + kernel.check_double_category(host.d1).checked
    cases = [(internal_mutations()[1]["pullback"], None), (replace(host, p=product(host.d1, host.d1)), None),
             (replace(host, d1=bad_d1), None), (replace(host, d1=quintet(zoo.cyclic_group_cat(3))), None),
             (host, both - 1), (host, both + 1)]
    for data, cap in cases:
        budget = {} if cap is None else {"budget": Budget(cap)}
        rep = check_internal(data, registry=EMPTY, **budget)
        assert DERIVED not in rep.assumptions
        assert rep.to_dict() == _enumerated(data, **({} if cap is None else {"budget": Budget(cap)})).to_dict()


def test_braid_monoid_internalizes():
    # nonidentity interchanger images; the two nested composites still agree
    # on the nose, so the identity associativity comparison is legitimate
    data = monoid_to_internal(zoo.braid_monoid_in_dbl())
    rep = check_internal(data, registry=EMPTY, deep=False)
    assert rep.passed, rep.summary()


# ---------------------------------------------------------------------------
# composites built once per bundle

ZOO_MONOIDS = (
    zoo.braid_monoid_in_dbl,
    zoo.commutative_monoid_in_dbl,
    zoo.min_monoid_in_dbl,
    zoo.trivial_monoid_in_dbl,
)


def test_kept_composites_equal_a_fresh_build():
    for make in ZOO_MONOIDS:
        data = monoid_to_internal(make())
        fresh = replace(data, _memo={})  # same fields, nothing kept
        kept_nested, fresh_nested = nested_composition_functors(data), nested_composition_functors(fresh)
        assert kept_nested is not fresh_nested
        assert all(pseudo_equal(a, b) for a, b in zip(kept_nested[:2], fresh_nested[:2]))
        kept_units, fresh_units = unit_sided_functors(data), unit_sided_functors(fresh)
        assert all(pseudo_equal(a, b) for a, b in zip(kept_units, fresh_units))


def test_reassigned_field_forces_a_rebuild():
    data = monoid_to_internal(zoo.min_monoid_in_dbl())
    nested, units = nested_composition_functors(data), unit_sided_functors(data)
    assert nested_composition_functors(data) is nested and unit_sided_functors(data) is units
    data.m = replace(data.m)
    rebuilt = nested_composition_functors(data)
    assert rebuilt is not nested and pseudo_equal(rebuilt[0], nested[0])
    assert unit_sided_functors(data) is not units
    nested, units = rebuilt, unit_sided_functors(data)
    data.p = pullback(data.t, data.s)
    assert nested_composition_functors(data) is not nested
    assert unit_sided_functors(data) is not units
    nested, units = nested_composition_functors(data), unit_sided_functors(data)
    data.u = replace(data.u)
    assert nested_composition_functors(data) is nested  # does not read u
    assert unit_sided_functors(data) is not units


def test_replaced_bundle_reuses_the_entries_of_the_fields_it_shares():
    data = monoid_to_internal(zoo.min_monoid_in_dbl())
    assert data._memo
    nested, units = nested_composition_functors(data), unit_sided_functors(data)
    # a copy with every field shared reuses every entry
    assert replace(data)._memo is data._memo
    assert nested_composition_functors(replace(data)) is nested and unit_sided_functors(replace(data)) is units
    # a new u rebuilds only what reads u
    other_u = replace(data, u=replace(data.u))
    assert nested_composition_functors(other_u) is nested and unit_sided_functors(other_u) is not units
    # a new p rebuilds the nested composites, and the original then does too
    mutant = replace(data, p=pullback(data.t, data.s))
    assert mutant._memo is data._memo
    rebuilt = nested_composition_functors(mutant)
    assert rebuilt is not nested and pseudo_equal(rebuilt[0], nested[0])
    assert nested_composition_functors(data) is not rebuilt
    # the span entry reads only the legs, so both share it
    check_internal(data, registry=EMPTY, deep=False)
    span = data._memo["span"][1]
    check_internal(mutant, registry=EMPTY, deep=False)
    assert data._memo["span"][1] is span


def test_shared_and_empty_memo_copies_report_alike():
    """Every pullback mutant of the diagonal bundles of quintet(C2), also
    over a span whose legs are equal but distinct objects, and of
    quintet(walking iso), and every criterion-8 mutation, report the same
    through a ``replace`` copy, which shares its host's memo, and through a
    copy with an empty memo.  Shallow on every mutant; deep on every 12th
    of the C2 ones and every 50th of the walking-iso ones, a deep check of
    a mutant costing 1-2 ms."""
    c2 = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    twin = replace(c2, t=replace(c2.s), _memo={})
    iso = internal.diagonal_internal(quintet(zoo.walking_iso()))
    assert twin.t is not twin.s and twin.t == twin.s
    c2_mutants = [p for _, p in sample_mutants(c2.p, 10**6)]
    cases = [(c2, c2_mutants, 12), (twin, c2_mutants, 12), (iso, [p for _, p in sample_mutants(iso.p, 10**6)], 50)]
    good, mutations = internal_mutations()
    cases += [(data, [data.p], 1) for data in (good, *mutations.values())]
    statuses = Counter()
    for host, ps, stride in cases:
        check_internal(host, registry=EMPTY, deep=False)
        for i, p in enumerate(ps):
            for deep in (False, True) if i % stride == 0 else (False,):
                shared, empty = replace(host, p=p), replace(host, p=p, _memo={})
                assert shared._memo is host._memo and empty._memo is not host._memo
                rep = check_internal(shared, registry=EMPTY, deep=deep).to_dict()
                assert rep == check_internal(empty, registry=EMPTY, deep=deep).to_dict()
                statuses[p is host.p, rep["status"]] += 1
    # every pullback mutant fails; of criterion 8, only the unmutated bundle passes
    assert statuses == Counter({(False, "fail"): 2 * (456 + 38) + 1968 + 40, (True, "fail"): 8, (True, "pass"): 2})


LEG_GUARD = "remaining compatibilities not evaluated: the span legs did not check out as strict functors"


def assert_leg_report(rep, data, budget=None):
    """``rep`` is the report of a bundle whose span legs are not strict: the
    legs' own reports, ``t``'s only when it is another object, and the
    assumption that nothing else was evaluated."""
    legs = ("s",) if data.t is data.s else ("s", "t")
    expected = AxiomReport("internal-category")
    for name in legs:
        expected.absorb(check_strict_functor(getattr(data, name), budget=budget), prefix=f"{name}: ")
    assert not rep.passed and rep.status == expected.status
    assert rep.violations == expected.violations and rep.checked == expected.checked
    assert rep.assumptions == [*expected.assumptions, LEG_GUARD]


def _leg_mutants(f):
    """Every mutant of ``f`` in one entry of one cell map, any other cell of
    the codomain as the new value."""
    cod = f.cod
    sizes = {"ob_map": cod.n_objects, "h_map": len(cod.hcells), "v_map": len(cod.vcells), "sq_map": len(cod.squares)}
    for name, n in sizes.items():
        values = getattr(f, name)
        for i, old in enumerate(values):
            for x in range(n):
                if x != old:
                    yield replace(f, **{name: (*values[:i], x, *values[i + 1 :])})


def test_every_single_entry_leg_mutant_gets_a_report():
    # the leg s of the quintet(C2) diagonal bundle: 4 cell-map mutants and
    # 56 square-map mutants, none strict; t stays the identity
    host = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    mutants = list(_leg_mutants(host.s))
    assert len(mutants) == 60
    for s in mutants:
        data = replace(host, s=s)
        for deep in (False, True):
            rep = check_internal(data, registry=EMPTY, deep=deep)
            assert rep.status == "fail" and all(v.axiom.startswith("s: ") for v in rep.violations)
            assert_leg_report(rep, data)


def test_a_leg_report_is_charged_to_the_callers_budget(every_cap):
    host = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    data = replace(host, s=next(_leg_mutants(host.s)))
    full, runs = every_cap(lambda budget: check_internal(data, registry=EMPTY, deep=False, budget=budget))
    assert_leg_report(full, data)
    for budget, rep in runs:
        assert_leg_report(rep, data, Budget(budget.max_tuples))


def test_span_is_checked_again_when_a_leg_changes_by_value():
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    assert check_internal(data, registry=EMPTY, deep=False).passed
    good = data.s.sq_map
    d = data.s.dom
    off = next(x for x in range(len(d.squares)) if d.squares[x] != d.squares[good[0]])
    # the same leg object, its square map reassigned: no longer strict
    data.s.sq_map = (off, *good[1:])
    assert_leg_report(check_internal(data, registry=EMPTY, deep=False), data)
    data.s.sq_map = good
    assert check_internal(data, registry=EMPTY, deep=False).passed
    # the leg's codomain, one object with its domain, reassigned to a
    # category with another table: no longer strict
    other = quintet(zoo.cyclic_group_cat(2))
    key = min(other.hcomp2)
    other.hcomp2[key] = (other.hcomp2[key] + 1) % len(other.squares)
    assert data.s.dom is data.s.cod
    data.s.cod = other
    assert_leg_report(check_internal(data, registry=EMPTY, deep=False), data)
    data.s.cod = d
    assert check_internal(data, registry=EMPTY, deep=False).passed
    # a table of the legs' category edited in place: the canonical pullback
    # is rebuilt from it and no longer is the bundled one
    key = min(d.hcomp2)
    d.hcomp2[key] = (d.hcomp2[key] + 1) % len(d.squares)
    [v] = check_internal(data, registry=EMPTY, deep=False).violations
    assert v.axiom == "pullback-canonical" and v.witness[0] == "hcomp2"


def test_triple_pullbacks_built_once_per_bundle(monkeypatch):
    """The nested composites live on one triple pullback, the left-bracketed
    ((x, y), z), built once however often the bundle is checked."""
    calls = []
    original = internal.pullback

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(internal, "pullback", counted)
    data = monoid_to_internal(zoo.commutative_monoid_in_dbl())
    assert check_internal(data, registry=EMPTY).passed
    assert check_internal(data, registry=EMPTY, deep=False).passed
    derive_globular(data)
    threefold = [(f, g) for f, g in calls if f.dom is data.p or g.dom is data.p]
    assert len(threefold) == 1
    f, g = threefold[0]
    assert f.dom is data.p and g is data.s


def test_span_leg_checked_once_when_both_legs_are_one(monkeypatch):
    """A bundle whose source and target legs are one functor, as on every
    diagonal and monoid bundle, checks it once; two equal legs that are
    distinct objects are checked once each."""
    calls = []
    original = internal.check_strict_functor

    def counted(f, **kwargs):
        calls.append(f)
        return original(f, **kwargs)

    monkeypatch.setattr(internal, "check_strict_functor", counted)
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    assert data.s is data.t
    assert check_internal(data, registry=EMPTY).passed
    assert calls == [data.s]
    calls.clear()
    data = replace(data, t=replace(data.s))
    assert check_internal(data, registry=EMPTY).passed
    assert calls == [data.s, data.t] and data.s is not data.t


def _rebracketed_right_nested(data):
    """The right-nested composite built through the right-bracketed triple
    pullback (x, (y, z)) and the rebracketing isomorphism."""
    _, _, _, id_x_m, rebracket = internal.triple_pullbacks(data)
    return internal.compose_pseudo(data.m, internal.compose_pseudo(id_x_m, pseudo_from_strict(rebracket)))


def test_right_nested_equals_the_rebracketed_construction():
    bundles = [monoid_to_internal(make()) for make in ZOO_MONOIDS]
    bundles += [
        internal.diagonal_internal(d)
        for d in (quintet(zoo.cyclic_group_cat(2)), quintet(zoo.walking_iso()), embed_two_category(zoo.sign_two_category()))
    ]
    names = [f.name for f in fields(DoublePseudoFunctor) if f.name not in ("dom", "cod")]
    assert len(names) == 13
    for data in bundles:
        built, rebracketed = nested_composition_functors(data)[1], _rebracketed_right_nested(data)
        assert same_category(built.dom, rebracketed.dom) and same_category(built.cod, rebracketed.cod)
        for name in names:
            a, b = getattr(built, name), getattr(rebracketed, name)
            assert a == b, name
            if isinstance(a, dict):
                assert list(a) == list(b), name


def _public_left_nested(data):
    """The left-nested composite m.(m x 1) built through the public
    constructions alone, over a left-bracketed triple pullback of its own."""
    t_after_p2 = functors.compose_strict(data.t, data.p2)
    p3l = pullback(t_after_p2, data.s)
    p3l_1, p3l_2 = functors.pullback_projections(t_after_p2, data.s, p3l)
    m_x_id = internal.pair_pseudo_into_pullback(
        data.t, data.s, data.p,
        internal.compose_pseudo(data.m, pseudo_from_strict(p3l_1)), pseudo_from_strict(p3l_2), name="m-x-id",
    )
    return internal.compose_pseudo(data.m, m_x_id)


def test_left_nested_equals_the_public_construction():
    bundles = [monoid_to_internal(make()) for make in ZOO_MONOIDS]
    bundles += [
        internal.diagonal_internal(d)
        for d in (quintet(zoo.cyclic_group_cat(2)), quintet(zoo.walking_iso()), embed_two_category(zoo.sign_two_category()))
    ]
    names = [f.name for f in fields(DoublePseudoFunctor) if f.name not in ("dom", "cod")]
    assert len(names) == 13
    for data in bundles:
        built, public = nested_composition_functors(data)[0], _public_left_nested(data)
        assert same_category(built.dom, public.dom) and same_category(built.cod, public.cod)
        for name in names:
            a, b = getattr(built, name), getattr(public, name)
            assert a == b, name
            if isinstance(a, dict):
                assert list(a) == list(b), name


def _revalidated(d):
    """``d`` passed back through the validating constructor."""
    fields = ("n_objects", "hcells", "vcells", "squares", "hcomp1", "vcomp1", "hcomp2", "vcomp2", "hid", "vid", "sq_vid", "sq_hid")
    return DoubleCategory(*(getattr(d, k) for k in fields), names=d.names)


def test_pullbacks_are_valid_by_construction():
    built = []
    bundles = [monoid_to_internal(make()) for make in (
        zoo.braid_monoid_in_dbl, zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl, zoo.trivial_monoid_in_dbl,
    )]
    bundles += [internal.diagonal_internal(quintet(c)) for c in (zoo.cyclic_group_cat(2), zoo.walking_iso())]
    for data in bundles:
        p3l, p3r = internal.triple_pullbacks(data)[:2]
        built += [data.p, p3l, p3r]
    d1, d2 = quintet(zoo.walking_arrow()), quintet(zoo.cyclic_group_cat(2))
    first = product_projections(d1, d2, product(d1, d2))[0]
    built.append(pullback(first, first))
    for d in built + [transpose(d) for d in built]:
        assert same_category(d, _revalidated(d))
        for table in (d.hcomp1, d.vcomp1, d.hcomp2, d.vcomp2):
            assert list(table) == sorted(table)


def test_shallow_internalization_never_reads_the_triple_pullbacks_square_tables():
    data = monoid_to_internal(zoo.commutative_monoid_in_dbl())
    assert check_internal(data, registry=EMPTY, deep=False).passed
    _, _, p3l = nested_composition_functors(data)
    assert "hcomp2" not in vars(p3l) and "vcomp2" not in vars(p3l)
    # over the terminal object part the triple pullback is the product; the
    # comparison reads the recipes of both square tables, so it builds none
    prod = product(data.p, data.d1)
    assert same_category(p3l, prod)
    assert type(p3l) is kernel._Pending and not {"hcomp2", "vcomp2"} & set(vars(p3l))
    # built, the tables compare equal all the same
    p3l.hcomp2, prod.vcomp2
    assert type(p3l) is DoubleCategory and type(prod) is DoubleCategory
    assert same_category(p3l, prod)


def test_cyclic2_bundles_never_build_a_triple_pullbacks_square_tables(square_table_builds):
    """The cyclic-2 bundle checked deep, then its pseudomonoid bundle, built
    as the benchmark builds it, checked deep too: the transposes of the deep
    checks, the pastes of ``find_connection`` and the comparison of the two
    nested composites' triple pullbacks read recipes, not tables."""
    m = zoo.commutative_monoid_in_dbl()
    base = monoid_to_internal(m)
    assert check_internal(base, registry=EMPTY).passed
    d = base.d1
    left_nested, right_nested, p3l = nested_composition_functors(base)
    verts = enumerate_plain_verticals(right_nested, left_nested)
    nonid = [v for v in verts if any(v.comp[o] != d.vid[0] for o in range(d.n_objects))]
    data = pseudomonoid_to_internal(m, nonid[0], find_connection(d), dom_conn=find_connection(p3l))
    assert check_internal(data, registry=EMPTY).passed
    cube = len(d.squares) ** 3
    assert len(p3l.squares) == cube
    assert [len(p.squares) for p in square_table_builds if len(p.squares) == cube] == []
    # the count does see builds: the binary pullbacks' tables are read
    assert square_table_builds


def test_braid_internalization_builds_no_family_of_the_triple_pullback(family_builds):
    # the two nested composites are compared by their lists, in
    # monoid_to_internal and in the shallow check's assoc-endpoints
    data = monoid_to_internal(zoo.braid_monoid_in_dbl())
    assert check_internal(data, registry=EMPTY, deep=False).passed
    left, right, p3l = nested_composition_functors(data)
    assert [f for f in family_builds if f.dom is p3l] == []
    assert type(left) is type(right) is functors._PendingFunctor
    # the count does see builds: the unit's and the composition's are read
    assert family_builds


STRUCTURE_FAMILIES = ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")


def _pairing_arms(data):
    """The two arms that ``m x 1`` pairs into the binary pullback, and the
    pairing."""
    _, p3l_1, p3l_2, _ = internal._left_bracketed(data)
    left, right = functors.compose_pseudo(data.m, pseudo_from_strict(p3l_1)), pseudo_from_strict(p3l_2)
    return left, right, lambda l, r: internal.pair_pseudo_into_pullback(data.t, data.s, data.p, l, r)


def _entries(f):
    """The eight structure families of ``f``, each as its list of entries."""
    return {name: list(getattr(f, name).items()) for name in STRUCTURE_FAMILIES}


def _reordered(f, names=STRUCTURE_FAMILIES):
    """``f`` with each family of ``names`` listing its keys in reverse."""
    return replace(f, **{name: dict(reversed(getattr(f, name).items())) for name in names})


@pytest.mark.parametrize("make", [zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl])
def test_pairing_reads_reordered_families_in_the_left_tables_order(make):
    left, right, pair = _pairing_arms(monoid_to_internal(make()))
    want = _entries(pair(left, right))
    assert [key for key, _ in want["comp_h"]] == list(left.comp_h)
    assert _entries(pair(left, _reordered(right))) == want
    assert _entries(pair(left, _reordered(right, ("comp_h_inv", "unit_v")))) == want
    # the left arm's own order is the order of the pairing's tables
    assert _entries(pair(_reordered(left), right)) == {
        name: list(reversed(entries)) for name, entries in want.items()}


@pytest.mark.parametrize("name", ["comp_h", "unit_h_inv", "comp_v_inv"])
def test_pairing_with_a_family_missing_a_key_raises_key_error(name):
    left, right, pair = _pairing_arms(monoid_to_internal(zoo.commutative_monoid_in_dbl()))
    cells = dict(getattr(right, name))
    del cells[list(cells)[len(cells) // 2]]
    with pytest.raises(StructureError, match=f"{name} must be keyed on exactly"):
        replace(right, **{name: cells})
    damaged = replace(right)
    setattr(damaged, name, cells)  # edited after the constructor's check
    with pytest.raises(KeyError):
        pair(left, damaged)


def _cell_map_mutants(f):
    """Every functor that differs from ``f`` in one entry of one of its
    four cell maps, the entry moved to any other cell of its kind."""
    cod = f.cod
    for name, n in (("ob_map", cod.n_objects), ("h_map", len(cod.hcells)),
                    ("v_map", len(cod.vcells)), ("sq_map", len(cod.squares))):
        values = list(getattr(f, name))
        for i, old in enumerate(values):
            for x in range(n):
                if x != old:
                    yield (name, i, x), replace(f, **{name: [*values[:i], x, *values[i + 1:]]})


def test_every_cell_map_mutant_of_the_unit_and_composition_fails():
    # the unit's and the composition's cell maps keep boundaries before
    # either is pasted: none of the 120 mutants may raise, and none pass
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    reports = {
        (side, *slot): check_internal(replace(data, **{side: g}), registry=EMPTY, deep=False)
        for side in ("u", "m")
        for slot, g in _cell_map_mutants(getattr(data, side))
    }
    assert len(reports) == 120
    assert {slot: rep.status for slot, rep in reports.items() if rep.status != "fail"} == {}
    for (side, *_), rep in reports.items():
        assert {v.axiom for v in rep.violations} <= {"h-boundary", "v-boundary", "sq-boundary"}
        assert all(v.witness[0] == side for v in rep.violations)
        assert rep.assumptions[-1] == (
            f"compatibilities that paste {side} not evaluated beyond their endpoints: cell images have wrong boundaries")


def _structure_cell_mutants(f):
    """Every pseudofunctor that differs from ``f`` in one entry of one of its
    eight structure families, the entry moved to any other square."""
    for name in STRUCTURE_FAMILIES:
        cells = getattr(f, name)
        for key, old in cells.items():
            for s in range(len(f.cod.squares)):
                if s != old:
                    yield (name, key, s), replace(f, **{name: {**cells, key: s}})


def test_every_structure_cell_mutant_of_the_unit_and_composition_fails():
    # the unit's and the composition's structure cells keep boundaries
    # before either is pasted: none of the 364 mutants may raise, and none
    # pass; one with a wrong boundary fails that law alone
    reports = {}
    for d in (quintet(zoo.cyclic_group_cat(2)), embed_two_category(zoo.sign_two_category())):
        data = internal.diagonal_internal(d)
        for side in ("u", "m"):
            f = getattr(data, side)
            for (name, key, s), g in _structure_cell_mutants(f):
                moved = d.squares[s] != d.squares[getattr(f, name)[key]]
                reports[side, name, key, s, moved, len(d.squares)] = check_internal(
                    replace(data, **{side: g}), registry=EMPTY, deep=False)
    assert len(reports) == 364
    assert {slot: rep.status for slot, rep in reports.items() if rep.status != "fail"} == {}
    assert Counter(slot[-2:] for slot in reports) == {(True, 8): 280, (True, 4): 56, (False, 4): 28}
    for (side, name, key, _, moved, _), rep in reports.items():
        if moved:
            [v] = rep.violations
            assert v.axiom == "structure-boundary" and v.witness[0] == side
            assert rep.assumptions[-1] == (
                f"compatibilities that paste {side} not evaluated beyond their endpoints: "
                "structure cells have wrong boundaries")
        else:
            assert "structure-boundary" not in {v.axiom for v in rep.violations}


def test_every_cap_up_to_the_boundary_laws_returns_a_prefix(monkeypatch):
    # where the budget runs out before every boundary law of the unit and
    # the composition is stated, neither is pasted: each cap up to the end
    # of those laws returns a prefix of the uncapped report
    data = internal.diagonal_internal(embed_two_category(zoo.sign_two_category()))
    stated = []
    original = internal._structure_boundaries

    def recorded(col, *args):
        held = original(col, *args)
        stated.append(col.report.checked)
        return held

    monkeypatch.setattr(internal, "_structure_boundaries", recorded)
    mutants = runs = 0
    for side in ("u", "m"):
        for _, g in _structure_cell_mutants(getattr(data, side)):
            bundle = replace(data, **{side: g})
            full = check_internal(bundle, registry=EMPTY, deep=False)
            mutants += 1
            for cap in range(stated[-1] + 1):
                rep = check_internal(bundle, registry=EMPTY, deep=False, budget=Budget(cap))
                assert rep.violations == full.violations[: len(rep.violations)], (side, cap)
                assert rep.checked <= cap and rep.status == (BUDGET_EXCEEDED if cap < full.checked else full.status)
                runs += 1
    assert mutants == 84 and runs > 84


def test_deep_report_reads_a_constituent_failure_apart_from_the_pullback():
    # a composition structure cell with a wrong boundary fails the delegated
    # pseudofunctor check; the pullback is canonical all the same, so the
    # compatibility block goes on, reads that failure off the delegated
    # report and pastes nothing
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    m = data.m
    rep = check_internal(replace(data, m=replace(m, comp_h={**m.comp_h, min(m.comp_h): 1})), registry=EMPTY)
    assert [v.axiom for v in rep.violations] == ["composition: structure-boundary"]
    assert rep.assumptions[-1] == (
        "compatibilities that paste m not evaluated beyond their endpoints: structure cells have wrong boundaries")
    assert not any("non-canonical" in a for a in rep.assumptions)


def test_deep_report_states_the_boundaries_of_the_unit_and_composition_once(monkeypatch):
    # the delegated pseudofunctor checks state them; the compatibility
    # block takes their outcome, so a shallow report states them itself
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    stated = []
    original = internal._structure_boundaries

    def recorded(col, f, *args):
        stated.append(f)
        return original(col, f, *args)

    monkeypatch.setattr(internal, "_structure_boundaries", recorded)
    assert check_internal(data, registry=EMPTY).passed and stated == []
    assert check_internal(data, registry=EMPTY, deep=False).passed and stated == [data.u, data.m]


def test_default_and_construction_violations_are_charged(monkeypatch):
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    data = replace(data, assoc=None, lunit=None, runit=None)
    clean = check_internal(data, registry=EMPTY, deep=False)
    assert clean.passed and clean.checked > 0
    # unequal comparison endpoints: the three defaulted comparisons fail
    d = data.d1
    collapse = pseudo_from_strict(StrictDoubleFunctor(
        d, d, [0] * d.n_objects, [d.hid[0]] * len(d.hcells), [d.vid[0]] * len(d.vcells),
        [d.sq_vid[d.hid[0]]] * len(d.squares), name="collapse",
    ))
    left, _, p3l = nested_composition_functors(data)
    monkeypatch.setattr(internal, "nested_composition_functors", lambda _: (left, internal.compose_pseudo(collapse, left), p3l))
    monkeypatch.setattr(internal, "unit_sided_functors", lambda _: (collapse, collapse))
    defaults = ["assoc-default", "lunit-default", "runit-default"]
    rep = check_internal(data, registry=EMPTY, deep=False)
    assert [v.axiom for v in rep.violations] == defaults
    assert rep.checked == clean.checked + 3
    for k in range(4):
        capped = check_internal(data, registry=EMPTY, budget=Budget(max_tuples=clean.checked + k), deep=False)
        assert [v.axiom for v in capped.violations] == defaults[:k]
        assert capped.checked == clean.checked + k
        assert (capped.status == BUDGET_EXCEEDED) == (k < 3)
    # a comparison functor that fails to construct
    before = []

    def broken(_):
        before.append(budget.used)
        raise StructureError("no composite")

    monkeypatch.setattr(internal, "nested_composition_functors", broken)
    budget = Budget()
    rep = check_internal(data, registry=EMPTY, budget=budget, deep=False)
    assert [v.axiom for v in rep.violations] == ["comparison-construction"]
    assert rep.checked == before[0] + 1
    capped = check_internal(data, registry=EMPTY, budget=Budget(max_tuples=before[0]), deep=False)
    assert capped.violations == [] and capped.status == BUDGET_EXCEEDED


# ---------------------------------------------------------------------------
# the bundled pullback and the whole-functor laws, entry by entry

CELL_KINDS = (OBJECT, HCELL, VCELL, SQUARE)


def _names_a_cell(v):
    return any(isinstance(w, tuple) and len(w) == 2 and w[0] in CELL_KINDS and isinstance(w[1], int) for w in v.witness)


def _pullback_mutants(make, count, seed):
    host = internal.diagonal_internal(quintet(make()))
    return [(slot, replace(host, p=bad_p)) for slot, bad_p in sample_mutants(host.p, count, seed=seed)]


def test_check_internal_builds_one_pullback_per_span_and_no_projections(monkeypatch):
    """The canonical pullback is built once per span, across a host and all
    its ``replace`` copies, and the projections are never built."""
    hosts = [
        monoid_to_internal(zoo.commutative_monoid_in_dbl()),
        internal.diagonal_internal(quintet(zoo.walking_iso())),
        internal.diagonal_internal(embed_two_category(zoo.sign_two_category())),
    ]
    mutants = [data for _, data in _pullback_mutants(zoo.walking_iso, 3, seed=2)]
    bundles = hosts + mutants
    calls = []
    for module in (internal, kernel, functors):
        for name in ("pullback", "pullback_projections"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append((_n, *args)) or _f(*args))
    for _ in range(2):
        for data in bundles:
            for deep in (True, False):
                check_internal(data, registry=EMPTY, deep=deep)
    spans = [(data.t, data.s) for data in hosts + mutants[:1]]
    assert len(calls) == len(spans)
    assert all(name == "pullback" and f is t and g is s for (name, f, g), (t, s) in zip(calls, spans))
    # the wrappers count: the triple pullback of a bundle with nothing kept is built
    calls.clear()
    check_internal(replace(hosts[0], _memo={}), registry=EMPTY, deep=False)
    assert [call[0] for call in calls].count("pullback") == 2 and "pullback_projections" in [call[0] for call in calls]


def test_every_internal_violation_names_a_cell():
    _, mutations = internal_mutations()
    reports = [check_internal(data, registry=EMPTY, deep=False) for data in mutations.values()]
    for make, seed in ((lambda: zoo.cyclic_group_cat(2), 3), (zoo.walking_iso, 4)):
        reports += [check_internal(data, registry=EMPTY, deep=False) for _, data in _pullback_mutants(make, 20, seed)]
    for rep in reports:
        assert rep.status == "fail"
        for v in rep.violations:
            assert _names_a_cell(v), v


def test_pullback_witness_is_the_mutated_table_entry():
    for (table, key, alt), data in _pullback_mutants(lambda: zoo.cyclic_group_cat(2), 20, seed=5):
        rep = check_internal(data, registry=EMPTY, deep=False)
        kind = {"hcomp1": HCELL, "vcomp1": VCELL}.get(table, SQUARE)
        [v] = rep.violations
        assert v.axiom == "pullback-canonical"
        assert v.witness == (table, (kind, key[0]), (kind, key[1]))
        assert (v.lhs, v.rhs) == (alt, getattr(pullback(data.t, data.s), table)[key])


def test_pullback_difference_recorded_exactly_when_it_fits(every_cap):
    # a vcomp2 entry: the last table, after every cell and three tables
    (slot, data), = [m for m in _pullback_mutants(zoo.walking_iso, 40, seed=1) if m[0][0] == "vcomp2"][:1]
    full = check_internal(data, registry=EMPTY, deep=False)
    [v] = full.violations
    assert v.witness[0] == "vcomp2" and full.status == "fail"
    n = full.checked
    assert n > len(data.p.squares)
    _, runs = every_cap(lambda budget: check_internal(data, registry=EMPTY, budget=budget, deep=False))
    for cap, (budget, rep) in enumerate(runs):
        assert rep.violations == (full.violations if cap >= n else [])
        assert (rep.checked, budget.used) == ((n, n) if cap >= n else (cap, cap + 1))


def test_cell_map_difference_names_the_first_cell_in_order():
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    sq = list(data.p1.sq_map)
    sq[3], sq[5] = (sq[3] + 1) % len(data.d1.squares), (sq[5] + 1) % len(data.d1.squares)
    rep = check_internal(replace(data, p1=replace(data.p1, sq_map=sq)), registry=EMPTY, deep=False)
    [v] = rep.violations
    assert v.axiom == "pullback-projections" and v.witness == ("p1", (SQUARE, 3))
    assert (v.lhs, v.rhs) == (sq[3], data.p1.sq_map[3])
    # charged: every entry of the pullback, p1 up to square 3 after its
    # domain and codomain, all of p2 with its domain and codomain
    p = data.p
    cells = p.n_objects + len(p.hcells) + len(p.vcells)
    assert rep.checked == _fiber_product_entries(p) + 2 + cells + 4 + 2 + cells + len(p.squares)


def _fiber_product_entries(p):
    return (
        p.n_objects + len(p.hcells) + len(p.vcells) + len(p.squares)
        + sum(len(t) for t in (p.hcomp1, p.vcomp1, p.hcomp2, p.vcomp2))
        + len(p.hid) + len(p.vid) + len(p.sq_vid) + len(p.sq_hid)
    )


def test_default_comparison_names_its_first_difference(monkeypatch):
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    data = replace(data, assoc=None, lunit=None, runit=None)
    left, right, p3l = nested_composition_functors(data)
    sq = list(right.sq_map)
    sq[2] = (sq[2] + 1) % len(data.d1.squares)
    monkeypatch.setattr(internal, "nested_composition_functors", lambda _: (left, replace(right, sq_map=sq), p3l))
    rep = check_internal(data, registry=EMPTY, deep=False)
    [v] = rep.violations
    assert v.axiom == "assoc-default" and v.witness == ((SQUARE, 2),) and (v.lhs, v.rhs) == (left.sq_map[2], sq[2])


def _squares_rotated(d):
    """``d`` with square x renamed x + 1 (mod the count): the same cell
    counts, another presentation."""
    n = len(d.squares)
    r = [(x + 1) % n for x in range(n)]
    e = DoubleCategory(
        d.n_objects,
        d.hcells,
        d.vcells,
        [d.squares[(y - 1) % n] for y in range(n)],
        d.hcomp1,
        d.vcomp1,
        {(r[a], r[b]): r[c] for (a, b), c in d.hcomp2.items()},
        {(r[a], r[b]): r[c] for (a, b), c in d.vcomp2.items()},
        d.hid,
        d.vid,
        [r[x] for x in d.sq_vid],
        [r[x] for x in d.sq_hid],
    )
    assert not same_category(d, e)
    return e


def test_unit_over_a_look_alike_of_the_objects_fails_its_sections():
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    rep = check_internal(replace(data, u=replace(data.u, dom=_squares_rotated(data.d0))), registry=EMPTY, deep=False)
    found = {v.axiom: v for v in rep.violations}
    for law in ("unit-section-s", "unit-section-t"):
        assert found[law].witness == ("dom",)


@pytest.mark.parametrize("end", ["dom", "cod"])
def test_projection_over_a_look_alike_fails_pullback_projections(end):
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    look_alike = _squares_rotated(getattr(data.p1, end))
    rep = check_internal(replace(data, p1=replace(data.p1, **{end: look_alike})), registry=EMPTY, deep=False)
    [v] = rep.violations
    assert v.axiom == "pullback-projections" and v.witness == ("p1", end)
    assert rep.assumptions[-1] == "remaining compatibilities not evaluated over non-canonical projections"


def test_default_comparison_fails_over_a_look_alike_domain(monkeypatch):
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    data = replace(data, assoc=None, lunit=None, runit=None)
    left, right, p3l = nested_composition_functors(data)
    moved = replace(right, dom=_squares_rotated(right.dom))
    monkeypatch.setattr(internal, "nested_composition_functors", lambda _: (left, moved, p3l))
    rep = check_internal(data, registry=EMPTY, deep=False)
    [v] = rep.violations
    assert v.axiom == "assoc-default" and v.witness == ("dom",)


def test_pseudo_double_cutoff_adds_at_most_one_violation_per_instance(every_cap):
    # vcomp2[(0, 0)] moved to the other 2-cell: rows of the vcomp2
    # associativity block and of the interchange grid hold two violations
    # each, so a cutoff that evaluated whole rows past the cap would record
    # two at once
    b = zoo.sign_bicategory()
    b.vcomp2[(0, 0)] = 1
    p = internalize_bicategory(b)
    full, runs = every_cap(lambda budget: check_pseudo_double_category(p, budget=budget))
    assert full.status == "fail" and len(full.violations) > 2
    counts = [len(rep.violations) for _, rep in runs]
    assert all(b - a <= 1 for a, b in zip([0, *counts], counts)), counts
    assert counts[-1] == len(full.violations)


# ---------------------------------------------------------------------------
# reports cut by their budget pass no guard


def _capped(check):
    """``check`` with a budget of no instances: its report is cut before
    its first law instance and records nothing."""
    return lambda *args, **kwargs: check(*args, **{**kwargs, "budget": Budget(0)})


def test_span_leg_guard_rejects_a_capped_leg_report(monkeypatch):
    data = internal.diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    monkeypatch.setattr(internal, "check_strict_functor", _capped(internal.check_strict_functor))
    rep = check_internal(data, registry=EMPTY, deep=False)
    # the legs' capped reports, absorbed: nothing checked, nothing evaluated
    assert not rep.passed and rep.status == BUDGET_EXCEEDED and rep.checked == 0
    assert rep.violations == [] and rep.assumptions[-1] == LEG_GUARD


def test_pseudomonoid_rejects_a_capped_correspondence_report(monkeypatch):
    from dblkit import companion
    from dblkit.kernel import check_double_category, terminal_double_category

    m = zoo.commutative_monoid_in_dbl()
    base = monoid_to_internal(m)
    left_nested, right_nested, p3l = nested_composition_functors(base)
    verts = enumerate_plain_verticals(right_nested, left_nested)
    original = companion.vertical_transformation_to_double

    def capped(*args, **kwargs):
        dd, th, corr = original(*args, **kwargs)
        assert corr.passed
        return dd, th, check_double_category(terminal_double_category(), budget=Budget(0))

    monkeypatch.setattr(companion, "vertical_transformation_to_double", capped)
    with pytest.raises(StructureError, match="companion correspondences failed"):
        pseudomonoid_to_internal(m, verts[0], find_connection(m.carrier), dom_conn=find_connection(p3l))
