import collections
import copy
import inspect
import itertools
import math
import pickle
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit.acceptance import _generators, _mutants
from dblkit.cli import _decl_category
from dblkit.kernel import (
    DoubleCategory,
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    FiniteCategory,
    NonComposable,
    StructureError,
    check_double_category,
    embed_two_category,
    same_category,
    check_two_category,
    horizontal_two_category,
    product,
    pullback,
    quintet,
    terminal_double_category,
    transpose,
    TwoCategory,
    _PRESENTATION,
    _Pending,
    _held,
    _check_table,
    _horizontal_inverse,
)
from dblkit.functors import (
    StrictDoubleFunctor,
    check_strict_functor,
    compose_strict,
    identity_functor,
    product_projections,
    pseudo_from_strict,
)
from dblkit.internal import monoid_to_internal
from dblkit.mutate import apply_mutation, mutation_slots, sample_mutants
from dblkit.report import Budget, Collector
from dblkit.transform import identity_horizontal, identity_vertical
from dblkit.weak import Bicategory, as_pseudo
from dblkit import dsl, kernel, zoo


def brute_force_commuting_quadruples(c: FiniteCategory):
    """Independent oracle: enumerate all commuting quadruples directly."""
    out = []
    n = len(c.mor)
    for t, b, l, r in itertools.product(range(n), repeat=4):
        if c.src(t) != c.src(l) or c.tgt(t) != c.src(r):
            continue
        if c.src(b) != c.tgt(l) or c.tgt(b) != c.tgt(r):
            continue
        if c.comp[(t, r)] == c.comp[(l, b)]:
            out.append((t, b, l, r))
    return out


def test_terminal_passes():
    rep = check_double_category(terminal_double_category())
    assert rep.passed and rep.status == "pass"


def test_quintet_walking_arrow_counts():
    c = zoo.walking_arrow()
    d = quintet(c)
    assert d.n_objects == 2
    assert len(d.hcells) == len(d.vcells) == 3
    # oracle: commuting quadruples enumerated independently; frozen value 6
    oracle = brute_force_commuting_quadruples(c)
    assert len(oracle) == 6
    assert sorted(d.squares) == sorted(oracle)
    assert check_double_category(d).passed


@pytest.mark.parametrize("name,cat", zoo.small_category_catalog())
def test_quintet_catalog_passes(name, cat):
    d = quintet(cat)
    rep = check_double_category(d)
    assert rep.passed, f"{name}: {rep.summary()}"


def test_quintet_rejects_non_category():
    broken = FiniteCategory(
        1,
        [(0, 0), (0, 0), (0, 0)],
        # non-associative: table of a "subtraction-like" magma
        {(x, y): (x - y) % 3 for x in range(3) for y in range(3)},
        [0],
    )
    with pytest.raises(StructureError):
        quintet(broken)


def test_mutated_quintet_fails_with_named_violation():
    d = quintet(zoo.cyclic_group_cat(3))
    slots = mutation_slots(d)
    assert slots
    mutant = apply_mutation(d, slots[0])
    rep = check_double_category(mutant)
    assert not rep.passed
    assert all(v.axiom for v in rep.violations)


def test_mutation_sample_all_detected():
    d = quintet(zoo.walking_iso())
    for slot, mutant in sample_mutants(d, 25, seed=7):
        rep = check_double_category(mutant)
        assert not rep.passed, f"undetected mutation {slot}"


def test_embed_then_horizontal_recovers_two_category():
    t = zoo.walking_two_cell(invertible=True)
    assert check_two_category(t).passed
    d = embed_two_category(t)
    assert check_double_category(d).passed
    # exactly one nonidentity vcell per object, none beyond
    assert len(d.vcells) == t.n_objects
    back = horizontal_two_category(d)
    assert back.onecells == t.onecells
    assert back.twocells == t.twocells
    assert back.comp1 == t.comp1
    assert back.vcomp2 == t.vcomp2
    assert back.hcomp2 == t.hcomp2
    assert back.id1 == t.id1 and back.id2 == t.id2


def test_embed_has_single_nonidentity_square_for_single_two_cell():
    t = zoo.walking_two_cell()
    d = embed_two_category(t)
    nonid = [
        s
        for s in range(len(d.squares))
        if s not in set(d.sq_vid) and s not in set(d.sq_hid)
    ]
    assert len(nonid) == 1
    s = nonid[0]
    assert d.is_vglobular(s)


def test_embed_rejects_broken_two_category():
    t = zoo.walking_two_cell()
    bad_vcomp = dict(t.vcomp2)
    bad_vcomp[(4, 3)] = 2  # wrong composite on a composable pair
    broken = zoo.TwoCategory(
        t.n_objects,
        t.onecells,
        t.twocells,
        t.comp1,
        bad_vcomp,
        t.hcomp2,
        t.id1,
        t.id2,
    )
    with pytest.raises(StructureError):
        embed_two_category(broken)


def test_horizontal_of_quintet_has_only_identity_two_cells():
    d = quintet(zoo.chain(2))
    t = horizontal_two_category(d)
    # in a poset chain, globular squares with identity verticals are exactly
    # the identity squares
    assert len(t.twocells) == len(t.id2)
    assert check_two_category(t).passed


def test_product_counts_multiply_and_projections_strict():
    d1 = quintet(zoo.walking_arrow())
    d2 = quintet(zoo.cyclic_group_cat(2))
    p = product(d1, d2)
    assert p.n_objects == d1.n_objects * d2.n_objects
    assert len(p.hcells) == len(d1.hcells) * len(d2.hcells)
    assert len(p.squares) == len(d1.squares) * len(d2.squares)
    assert check_double_category(p).passed
    p1, p2 = product_projections(d1, d2, p)
    assert check_strict_functor(p1).passed
    assert check_strict_functor(p2).passed


def test_product_with_terminal_is_identity_on_indices():
    d = quintet(zoo.span_poset())
    p = product(d, terminal_double_category())
    assert p.hcells == d.hcells
    assert p.squares == d.squares
    assert p.hcomp1 == d.hcomp1 and p.vcomp2 == d.vcomp2


PRODUCT_FACTORS = (
    lambda: quintet(zoo.cyclic_group_cat(3)),
    lambda: quintet(zoo.walking_arrow()),
    lambda: quintet(zoo.walking_iso()),
    lambda: embed_two_category(zoo.sign_two_category()),
    lambda: transpose(embed_two_category(zoo.sign_two_category())),
)


def test_pullback_over_terminal_is_product():
    # a product is the pullback over the terminal double category; checked
    # against the componentwise product, where cell i of a kind is the pair
    # divmod(i, n2), n2 the number of such cells of the second factor
    def count(d, kind):
        return d.n_objects if kind == OBJECT else len({HCELL: d.hcells, VCELL: d.vcells, SQUARE: d.squares}[kind])

    factors = [make() for make in PRODUCT_FACTORS]
    for d1, d2 in itertools.product(factors, repeat=2):
        p = product(d1, d2)

        def split(kind, i):
            return divmod(i, count(d2, kind))

        def cells(kind):
            return map(lambda i: split(kind, i), range(count(p, kind)))

        for kind in (OBJECT, HCELL, VCELL, SQUARE):
            assert count(p, kind) == count(d1, kind) * count(d2, kind)
            assert [p.name_of(kind, i) for i in range(count(p, kind))] == [
                f"({d1.name_of(kind, x)},{d2.name_of(kind, y)})" for x, y in cells(kind)
            ]
        for name, kind, ends in (
            ("hcells", HCELL, (OBJECT, OBJECT)),
            ("vcells", VCELL, (OBJECT, OBJECT)),
            ("squares", SQUARE, (HCELL, HCELL, VCELL, VCELL)),
        ):
            c1, c2 = getattr(d1, name), getattr(d2, name)
            assert [[split(e, b) for e, b in zip(ends, bnd)] for bnd in getattr(p, name)] == [
                list(zip(c1[x], c2[y])) for x, y in cells(kind)
            ]
        for name, of, kind in (("hid", OBJECT, HCELL), ("vid", OBJECT, VCELL), ("sq_vid", HCELL, SQUARE), ("sq_hid", VCELL, SQUARE)):
            ids1, ids2 = getattr(d1, name), getattr(d2, name)
            assert [split(kind, c) for c in getattr(p, name)] == [(ids1[x], ids2[y]) for x, y in cells(of)]
        for name, kind in (("hcomp1", HCELL), ("vcomp1", VCELL), ("hcomp2", SQUARE), ("vcomp2", SQUARE)):
            t1, t2 = getattr(d1, name), getattr(d2, name)
            assert {(split(kind, i), split(kind, j)): split(kind, c) for (i, j), c in getattr(p, name).items()} == {
                ((a1, a2), (b1, b2)): (t1[a1, b1], t2[a2, b2]) for a1, b1 in t1 for a2, b2 in t2
            }
        p1, p2 = product_projections(d1, d2, p)
        for kind, m in ((OBJECT, "ob_map"), (HCELL, "h_map"), (VCELL, "v_map"), (SQUARE, "sq_map")):
            assert list(zip(getattr(p1, m), getattr(p2, m))) == list(cells(kind))


def test_pullback_of_identities_is_diagonal():
    d = quintet(zoo.walking_arrow())
    ident = identity_functor(d)
    pb = pullback(ident, ident)
    assert pb.n_objects == d.n_objects
    assert len(pb.hcells) == len(d.hcells)
    assert len(pb.squares) == len(d.squares)
    assert check_double_category(pb).passed


def test_pullback_counts_match_fiber_product_oracle():
    d1 = quintet(zoo.walking_arrow())
    d2 = quintet(zoo.cyclic_group_cat(2))
    p = product(d1, d2)
    p1, p2 = product_projections(d1, d2, p)
    pb = pullback(p1, p1)
    # set-level oracle: pairs of product cells with the same first component
    expected_sq = sum(
        1
        for a in range(len(p.squares))
        for b in range(len(p.squares))
        if a // len(d2.squares) == b // len(d2.squares)
    )
    assert len(pb.squares) == expected_sq
    assert check_double_category(pb).passed


def test_transpose_involution_and_checker_agreement():
    d = quintet(zoo.span_poset())
    t = transpose(d)
    tt = transpose(t)
    assert tt.squares == d.squares
    assert tt.hcomp1 == d.hcomp1 and tt.vcomp2 == d.vcomp2
    assert check_double_category(t).passed
    mutant = apply_mutation(d, mutation_slots(d)[0])
    assert not check_double_category(transpose(mutant)).passed


def test_transpose_skips_validation_but_matches_the_validating_constructor():
    for name, d in _generators():
        t = transpose(d)
        tables = (
            t.n_objects, t.hcells, t.vcells, t.squares, t.hcomp1, t.vcomp1,
            t.hcomp2, t.vcomp2, t.hid, t.vid, t.sq_vid, t.sq_hid,
        )
        assert same_category(t, DoubleCategory(*tables, names=t.names)), name
        assert same_category(transpose(t), d), name


def test_transpose_of_quintet_is_quintet_via_symmetry():
    d = quintet(zoo.cyclic_group_cat(2))
    t = transpose(d)
    # the symmetry swaps (top,bottom,left,right) -> (left,right,top,bottom);
    # commuting quadruples are preserved, so the transpose has the same
    # square set up to that relabelling
    relabeled = sorted((l, r, t_, b) for (t_, b, l, r) in d.squares)
    assert sorted(t.squares) == relabeled


def test_budget_exceeded_is_explicit():
    d = quintet(zoo.cyclic_group_cat(3))
    rep = check_double_category(d, budget=Budget(max_tuples=100))
    assert rep.status == "budget-exceeded"
    assert not rep.violations


def test_interchange_grid_spends_the_callers_budget():
    d = quintet(zoo.cyclic_group_cat(3))
    assert check_double_category(d).checked == 11632
    rep = check_double_category(d, budget=Budget(max_tuples=11631))
    assert rep.status == "budget-exceeded"
    assert rep.checked == 11631


def _quintet_arrow():
    return quintet(zoo.walking_arrow())


# every composition table: (structure, table, attribute holding its cells)
TABLES = [
    pytest.param(zoo.walking_iso, "comp", "mor", id="FiniteCategory.comp"),
    pytest.param(_quintet_arrow, "hcomp1", "hcells", id="DoubleCategory.hcomp1"),
    pytest.param(_quintet_arrow, "vcomp1", "vcells", id="DoubleCategory.vcomp1"),
    pytest.param(_quintet_arrow, "hcomp2", "squares", id="DoubleCategory.hcomp2"),
    pytest.param(_quintet_arrow, "vcomp2", "squares", id="DoubleCategory.vcomp2"),
    pytest.param(zoo.walking_arrow_two_category, "comp1", "onecells", id="TwoCategory.comp1"),
    pytest.param(zoo.walking_arrow_two_category, "vcomp2", "twocells", id="TwoCategory.vcomp2"),
    pytest.param(zoo.walking_arrow_two_category, "hcomp2", "twocells", id="TwoCategory.hcomp2"),
    pytest.param(zoo.two_object_bicategory, "comp1", "onecells", id="Bicategory.comp1"),
    pytest.param(zoo.two_object_bicategory, "vcomp2", "twocells", id="Bicategory.vcomp2"),
    pytest.param(zoo.two_object_bicategory, "hcomp2", "twocells", id="Bicategory.hcomp2"),
]


def _rebuild(obj, table_name, table):
    """Call the constructor again on ``obj``'s own data, one table replaced
    (the parameters of every constructor up the class hierarchy)."""
    named = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    params = [
        p.name
        for cls in type(obj).__mro__[:-1]
        for p in inspect.signature(cls.__init__).parameters.values()
        if p.kind in named and p.name != "self"
    ]
    args = {p: getattr(obj, p) for p in params}
    args[table_name] = table
    return type(obj)(**args)


@pytest.mark.parametrize("damage", ["drop", "non-composable", "out-of-range"])
@pytest.mark.parametrize("make,table_name,cells", TABLES)
def test_constructor_rejects_wrong_table_keys(make, table_name, cells, damage):
    obj = make()
    table = dict(getattr(obj, table_name))
    n = len(getattr(obj, cells))
    _rebuild(obj, table_name, table)  # the undamaged copy is accepted
    if damage == "drop":
        del table[min(table)]
    elif damage == "non-composable":
        key = next(k for k in itertools.product(range(n), repeat=2) if k not in table)
        table[key] = 0
    else:
        table[(n, 0)] = 0
    with pytest.raises(StructureError):
        _rebuild(obj, table_name, table)


def _pseudo_arrow():
    return as_pseudo(quintet(zoo.walking_arrow()))


def _strict_functor_arrow():
    return identity_functor(quintet(zoo.walking_arrow()))


def _pseudo_functor_arrow():
    return pseudo_from_strict(_strict_functor_arrow())


def _horizontal_arrow():
    return identity_horizontal(_pseudo_functor_arrow())


def _vertical_arrow():
    return identity_vertical(_pseudo_functor_arrow())


def out_of_range(cells):
    return [*cells[:-1], 99]


def too_short(cells):
    return cells[:-1]


def doubled(cells):
    return cells + cells


def bad_boundary(cells):
    return cells[:-1] + [(0, 5)]


def misplaced(cells):
    return [cells[-1]] * len(cells)


def misplaced_value(table):
    return {key: table[max(table)] for key in table}


def dropped_key(table):
    return {k: v for k, v in table.items() if k != min(table)}


def value_out_of_range(table):
    return {**table, min(table): 99}


def value_as_text(table):
    return {**table, min(table): "x"}


def value_as_float(table):
    return {**table, min(table): 1.5}


def value_as_none(table):
    return {**table, min(table): None}


def stray_key(table):
    key = min(table)
    return {**table, (99, 99) if isinstance(key, tuple) else 99: table[key]}


def over_long(cells):
    return cells[:-1] + [cells[-1] + (0,)]


def last_as_text(cells):
    return [*cells[:-1], str(cells[-1])]


def non_integer(n):
    return "x"


# (constructor, field, damage): each damaged field must be rejected with a
# StructureError, never a bare IndexError or a silent accept.  The verdict
# dump (scripts/verdict_dump.py) records the error of every case
DAMAGED = [
    (zoo.sign_two_category, "onecells", bad_boundary),
    (zoo.sign_two_category, "id1", out_of_range),
    (zoo.sign_two_category, "id1", doubled),
    (zoo.sign_two_category, "id2", out_of_range),
    (zoo.sign_bicategory, "onecells", bad_boundary),
    (zoo.sign_bicategory, "id1", out_of_range),
    (zoo.sign_bicategory, "id1", doubled),
    (zoo.sign_bicategory, "id2", out_of_range),
    (zoo.sign_bicategory, "id2", too_short),
    (zoo.sign_bicategory, "assoc", dropped_key),
    (zoo.sign_bicategory, "assoc", value_out_of_range),
    (zoo.sign_bicategory, "assoc_inv", value_out_of_range),
    (zoo.sign_bicategory, "assoc_inv", misplaced_value),
] + [
    (make, field, damage)
    for make in (zoo.sign_bicategory, _pseudo_arrow)
    for field in ("lunit", "lunit_inv", "runit", "runit_inv")
    for damage in (out_of_range, too_short, misplaced)
] + [
    (_pseudo_arrow, "assoc", value_out_of_range),
    (_pseudo_arrow, "assoc_inv", value_out_of_range),
    (_pseudo_arrow, "assoc", dropped_key),
    (_quintet_arrow, "hid", out_of_range),
    (_quintet_arrow, "vid", out_of_range),
    (_quintet_arrow, "hid", last_as_text),
    (_quintet_arrow, "hcells", over_long),
    (_quintet_arrow, "vcells", over_long),
    (_quintet_arrow, "squares", over_long),
    (zoo.walking_arrow, "mor", over_long),
    (zoo.sign_two_category, "onecells", over_long),
    (zoo.sign_two_category, "twocells", over_long),
    (zoo.sign_bicategory, "twocells", over_long),
] + [(make, "n_objects", non_integer) for make in (zoo.walking_arrow, _quintet_arrow, zoo.sign_two_category)] + [
    (make, field, damage)
    for make in (_strict_functor_arrow, _pseudo_functor_arrow)
    for field in ("ob_map", "h_map", "v_map", "sq_map")
    for damage in (out_of_range, last_as_text)
] + [(_pseudo_functor_arrow, "h_map", too_short)] + [
    (make, "delta_inv", damage)
    for make in (_horizontal_arrow, _vertical_arrow)
    for damage in (value_out_of_range, value_as_text, value_as_float)
] + [
    (_pseudo_functor_arrow, family, damage)
    for family in ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")
    for damage in (value_out_of_range, value_as_text, value_as_none, dropped_key, stray_key)
] + [(make, "delta_inv", stray_key) for make in (_horizontal_arrow, _vertical_arrow)]


@pytest.mark.parametrize(
    "make,field,damage",
    [pytest.param(make, field, damage, id=f"{make.__name__}.{field}:{damage.__name__}") for make, field, damage in DAMAGED],
)
def test_constructor_rejects_damaged_field(make, field, damage):
    obj = make()
    with pytest.raises(StructureError):
        _rebuild(obj, field, damage(getattr(obj, field)))


# every list of cell boundaries, with a last entry that is not a sequence;
# kept apart from DAMAGED, whose outcomes the verdict dump records
NON_SEQUENCE_BOUNDARIES = [
    (make, field, value)
    for make, field in (
        (zoo.walking_arrow, "mor"),
        (_quintet_arrow, "hcells"),
        (_quintet_arrow, "vcells"),
        (_quintet_arrow, "squares"),
        (zoo.sign_two_category, "onecells"),
        (zoo.sign_two_category, "twocells"),
        (zoo.sign_bicategory, "onecells"),
        (zoo.sign_bicategory, "twocells"),
    )
    for value in (99, None)
]


@pytest.mark.parametrize(
    "make,field,value",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}:{case[2]}") for case in NON_SEQUENCE_BOUNDARIES],
)
def test_a_boundary_that_is_not_a_sequence_is_named(make, field, value):
    obj = make()
    cells = [*getattr(obj, field)[:-1], value]
    with pytest.raises(StructureError, match=rf" {len(cells) - 1}: boundary {value} is not a sequence$"):
        _rebuild(obj, field, cells)


def _pseudo_quintet_arrow():
    return as_pseudo(_quintet_arrow())


# the constraint fields of the weak structures
_CONSTRAINTS = ("assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv")

# every field of a finite presentation but n_objects, as a value that is
# not a collection, and a table given as a list of pairs; kept apart from
# DAMAGED, as above
NON_COLLECTION_FIELDS = [
    (make, field, value)
    for make, fields, values in (
        (zoo.walking_arrow, ("mor", "comp", "ids"), (None,)),
        (_quintet_arrow, _PRESENTATION[1:], (None, 7)),
        (zoo.sign_two_category, ("onecells", "twocells", "comp1", "vcomp2", "hcomp2", "id1", "id2"), (None,)),
        (zoo.sign_bicategory, _CONSTRAINTS, (None,)),
        (_pseudo_quintet_arrow, _CONSTRAINTS, (None,)),
    )
    for field in fields
    for value in values
] + [(zoo.walking_arrow, "comp", [(1, 2)])]


@pytest.mark.parametrize(
    "make,field,value",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}:{case[2]}") for case in NON_COLLECTION_FIELDS],
)
def test_a_field_that_is_not_a_collection_is_named(make, field, value):
    with pytest.raises(StructureError, match=rf"^{field}: {re.escape(repr(value))} is not a (sequence|table)$"):
        _rebuild(make(), field, value)


def test_two_category_boundary_laws_agree_with_the_bicategory_raise():
    # both read the same table rows: on every single-entry mutant of the
    # sign tables, check_two_category reports a *-boundary violation exactly
    # when a Bicategory on the same tables raises on a wrong entry boundary
    sign = zoo.sign_bicategory()
    constraints = [getattr(sign, name) for name in ("assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv")]
    outcomes = collections.Counter()
    for t in _two_category_mutants(zoo.sign_two_category()):
        reported = any(v.axiom.endswith("-boundary") for v in check_two_category(t).violations)
        try:
            Bicategory(t.n_objects, t.onecells, t.twocells, t.comp1, t.vcomp2, t.hcomp2, t.id1, t.id2, *constraints)
            raised = False
        except StructureError as e:
            raised = re.fullmatch(r"(comp1|vcomp2|hcomp2) entry \(\d+, \d+\) has wrong boundary", str(e)) is not None
        assert reported == raised, t
        outcomes[reported] += 1
    assert outcomes[True] and outcomes[False]


def test_zero_object_category_is_vacuously_fine():
    empty = zoo.FiniteCategory(0, [], {}, [])
    d = quintet(empty)
    assert check_double_category(d).passed


@st.composite
def preorder_categories(draw):
    """Random finite preorders as categories (always associative/unital)."""
    n = draw(st.integers(min_value=1, max_value=3))
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j and draw(st.booleans()):
                rel[i][j] = True
    # transitive closure
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    mor = [(i, j) for i in range(n) for j in range(n) if rel[i][j]]
    index = {m: k for k, m in enumerate(mor)}
    comp = {
        (index[(i, j)], index[(j2, k)]): index[(i, k)]
        for (i, j) in mor
        for (j2, k) in mor
        if j2 == j
    }
    ids = [index[(i, i)] for i in range(n)]
    return FiniteCategory(n, mor, comp, ids)


@settings(max_examples=40, deadline=None)
@given(preorder_categories())
def test_quintet_of_random_preorder_passes(cat):
    assert check_double_category(quintet(cat)).passed


def test_nonpastable_lookup_raises():
    d = quintet(zoo.walking_arrow())
    sq = [s for s in range(len(d.squares)) if d.left(s) != d.right(s)]
    with pytest.raises(NonComposable):
        d.hpaste(0, sq[0]) if d.right(0) != d.left(sq[0]) else d.vpaste(sq[0], sq[0])


def test_law_level_mutation_names_a_law():
    # over the embedded sign 2-category single-entry mutations can keep all
    # boundaries intact; the checker must then name an equational law
    d = embed_two_category(zoo.sign_two_category())
    law_names = set()
    for slot, mutant in sample_mutants(d, 60, seed=3):
        rep = check_double_category(mutant)
        assert not rep.passed
        law_names.update(v.axiom for v in rep.violations)
    assert any(not name.endswith("-boundary") for name in law_names), law_names


# ---------------------------------------------------------------------------
# the checker's row-at-a-time enumeration against an oracle that evaluates
# and charges one law instance at a time through Collector.eq


def _starting_at(starts):
    out = {}
    for z, start in enumerate(starts):
        out.setdefault(start, []).append(z)
    return out


def _nested(table):
    out = {}
    for (x, y), z in table.items():
        out.setdefault(x, {})[y] = z
    return out


def oracle_check_double_category(d, budget=None):
    # where the checker derives a law (a thin category: no two squares on
    # one boundary), the oracle still evaluates every instance of it that
    # the budget reaches, asserts that each holds, and records the
    # checker's assumption.  Past the budget no instance is evaluated, and
    # the long loops stop
    col = Collector("double-category", budget)
    thin = len(set(d.squares)) == len(d.squares)
    hs, ht = [f[0] for f in d.hcells], [f[1] for f in d.hcells]
    vs, vt = [u[0] for u in d.vcells], [u[1] for u in d.vcells]
    top, bottom, left, right = ([s[i] for s in d.squares] for i in range(4))
    h1, v1, h2, v2 = d.hcomp1, d.vcomp1, d.hcomp2, d.vcomp2
    boundaries = [
        ("hcomp1-boundary", HCELL, h1, d.hcells, lambda f, g: (hs[f], ht[g])),
        ("vcomp1-boundary", VCELL, v1, d.vcells, lambda u, v: (vs[u], vt[v])),
        (
            "hcomp2-boundary",
            SQUARE,
            h2,
            d.squares,
            lambda a, b: (h1[(top[a], top[b])], h1[(bottom[a], bottom[b])], left[a], right[b]),
        ),
        (
            "vcomp2-boundary",
            SQUARE,
            v2,
            d.squares,
            lambda a, b: (top[a], bottom[b], v1[(left[a], left[b])], v1[(right[a], right[b])]),
        ),
    ]
    for law, kind, table, cells, expect in boundaries:
        for (x, y), z in sorted(table.items()):
            col.eq(law, ((kind, x), (kind, y)), cells[z], expect(x, y))
    if col.report.violations:
        col.assume("equational laws not evaluated: table entries have wrong boundaries")
        return col.done()

    def derived(line, checked):
        # the assumption, where an instance of the law was charged
        if col.report.checked > checked:
            col.assume(line)

    tables = [
        ("hcomp1", "-left-unit", "-right-unit", HCELL, h1, ht, hs, d.hid),
        ("vcomp1", "-left-unit", "-right-unit", VCELL, v1, vt, vs, d.vid),
        ("hcomp2", "-unit", "-unit", SQUARE, h2, right, left, d.sq_hid),
        ("vcomp2", "-unit", "-unit", SQUARE, v2, bottom, top, d.sq_vid),
    ]
    holds = {}
    for name, left_unit, right_unit, kind, table, ends, starts, unit in tables:
        after = _starting_at(starts)
        law, one_cell = name + "-associativity", name.replace("2", "1") + "-associativity"
        derive = thin and holds.get(one_cell, False)
        checked, found = col.report.checked, len(col.report.violations)
        for x, y in sorted(table):
            if col.report.status == "budget-exceeded":
                break
            for z in after.get(ends[y], ()):
                lhs, rhs = table[(table[(x, y)], z)], table[(x, table[(y, z)])]
                if not col.eq(law, ((kind, x), (kind, y), (kind, z)), lhs, rhs) and derive:
                    raise AssertionError(f"derived {law} fails at {(x, y, z)}")
        holds[law] = len(col.report.violations) == found
        if derive:
            derived(f"{law} derived from {one_cell}, not evaluated: each square is fixed by its boundary", checked)
        for x in range(len(ends)):
            col.eq(name + left_unit, ((kind, x),), table[(unit[starts[x]], x)], x)
            col.eq(name + right_unit, ((kind, x),), table[(x, unit[ends[x]])], x)
    for law, kind, table, paste, ident in [
        ("identity-functoriality-h", HCELL, h1, h2, d.sq_vid),
        ("identity-functoriality-v", VCELL, v1, v2, d.sq_hid),
    ]:
        for (f, g), fg in sorted(table.items()):
            col.eq(law, ((kind, f), (kind, g)), ident[fg], paste[(ident[f], ident[g])])
    for a in range(d.n_objects):
        col.eq("identity-coincidence", ((OBJECT, a),), d.sq_vid[d.hid[a]], d.sq_hid[d.vid[a]])
    # the grid is most of the instances: look its composites up one row of
    # a table at a time
    below, beside = _starting_at(top), _starting_at(list(zip(top, left)))
    ref, hrow, vrow = [(SQUARE, s) for s in range(len(d.squares))], _nested(h2), _nested(v2)
    eq, checked = col.eq, col.report.checked
    for (a, b), ab in sorted(h2.items()):
        if col.report.status == "budget-exceeded":
            break
        vb, vab = vrow[b], vrow[ab]
        for c in below.get(bottom[a], ()):
            ac, hc = hrow[v2[(a, c)]], hrow[c]
            for e in beside.get((bottom[b], right[c]), ()):
                if not eq("interchange", (ref[a], ref[b], ref[c], ref[e]), ac[vb[e]], vab[hc[e]]) and thin:
                    raise AssertionError(f"derived interchange fails at {(a, b, c, e)}")
    if thin:
        derived("interchange derived, not evaluated: each square is fixed by its boundary and every table entry has "
                "its boundary", checked)
    return col.done()


def _law_breaking_sign_mutants():
    d = embed_two_category(zoo.sign_two_category())
    return [m for _, m in sample_mutants(d, len(mutation_slots(d)))]


@pytest.mark.parametrize(
    "d",
    [pytest.param(d, id=name) for name, d in _generators()]
    + [pytest.param(m, id=f"mutant {slot}") for slot, m in _mutants()]
    + [pytest.param(m, id=f"sign mutant {i}") for i, m in enumerate(_law_breaking_sign_mutants())],
)
def test_checker_matches_per_instance_oracle(d):
    assert check_double_category(d).to_dict() == oracle_check_double_category(d).to_dict()


_C3 = quintet(zoo.cyclic_group_cat(3))
_C3_TABLES = sum(len(t) for t in (_C3.hcomp1, _C3.vcomp1, _C3.hcomp2, _C3.vcomp2))
# 11632 instances in all, the last 3**8 of them the interchange grid, in
# blocks of 27 per pair of squares (a, b), each 9 rows of 3.  Associativity
# comes in one block per left cell: 9 instances (3 rows of 3) for hcomp1,
# which starts right after the boundary laws, and 81 (9 rows of 9) for
# hcomp2, which starts after hcomp1's and vcomp1's 27 associativity and 6
# unit instances each.  The cuts fall before the first instance, after it,
# inside the first associativity row, exactly at the end of the first
# associativity block of hcomp1 and of hcomp2 and one past each, inside the
# first and the second interchange row, exactly at the end of the first
# interchange block and one past it, and one short of and exactly at the
# total
_HCOMP2_ASSOCIATIVITY = _C3_TABLES + 2 * (27 + 6)
_INTERCHANGE = 11632 - 3**8
_C3_CUTS = [
    0,
    1,
    _C3_TABLES + 1,
    _C3_TABLES + 9,
    _C3_TABLES + 10,
    _HCOMP2_ASSOCIATIVITY + 81,
    _HCOMP2_ASSOCIATIVITY + 82,
    _INTERCHANGE + 1,
    _INTERCHANGE + 4,
    _INTERCHANGE + 27,
    _INTERCHANGE + 28,
    11631,
    11632,
]


@pytest.mark.parametrize("cap", _C3_CUTS)
def test_budget_cutoff_matches_per_instance_oracle(cap):
    ours, theirs = Budget(cap), Budget(cap)
    rep = check_double_category(_C3, budget=ours)
    assert rep.to_dict() == oracle_check_double_category(_C3, budget=theirs).to_dict()
    assert ours.used == theirs.used
    assert rep.checked == min(cap, 11632)
    assert (rep.status == "budget-exceeded") == (cap < 11632)


def test_cutoff_inside_a_violated_interchange_block_matches_oracle():
    # this sign mutant breaks interchange first at instances 152 and 153 of
    # 210, the second row of the block 150..153 of one pair (a, b): every
    # cap, 153 between the two included, checks and records as the oracle
    m = _law_breaking_sign_mutants()[7]
    for cap in range(212):
        ours, theirs = Budget(cap), Budget(cap)
        rep = check_double_category(m, budget=ours)
        assert rep.to_dict() == oracle_check_double_category(m, budget=theirs).to_dict()
        assert ours.used == theirs.used
    capped = [v.axiom for v in check_double_category(m, budget=Budget(153)).violations]
    assert capped.count("interchange") == 1
    assert [v.axiom for v in check_double_category(m, budget=Budget(154)).violations].count("interchange") == 2


def test_cutoff_inside_a_violated_associativity_block_matches_oracle():
    # this sign mutant breaks vcomp2 associativity at instances 122 and 124
    # of 210, the last of each of the two rows of the block 121..124 of one
    # left square: every cap, both included, checks and records as the oracle
    m = _law_breaking_sign_mutants()[55]
    for cap in range(212):
        ours, theirs = Budget(cap), Budget(cap)
        rep = check_double_category(m, budget=ours)
        assert rep.to_dict() == oracle_check_double_category(m, budget=theirs).to_dict()
        assert ours.used == theirs.used
    for cap, count in ((121, 0), (122, 1), (123, 1), (124, 2)):
        capped = [v.axiom for v in check_double_category(m, budget=Budget(cap)).violations]
        assert capped.count("vcomp2-associativity") == count


def test_cutoff_inside_the_boundary_tables_matches_oracle():
    # this mutant of quintet(C2) moves one hcomp1 entry: 14 of the 64
    # hcomp2 entries get the wrong boundary, several of them in a row, and
    # no law past the boundary tables is evaluated; every cap checks and
    # records as the oracle
    d = quintet(zoo.cyclic_group_cat(2))
    m = apply_mutation(d, ("hcomp1", (0, 0), 1))
    full = check_double_category(m)
    assert len(full.violations) == 14 and full.checked == 72
    for cap in range(full.checked + 2):
        ours, theirs = Budget(cap), Budget(cap)
        rep = check_double_category(m, budget=ours)
        assert rep.to_dict() == oracle_check_double_category(m, budget=theirs).to_dict()
        assert ours.used == theirs.used


def _two_category_mutants(t):
    """Every 2-category that differs from ``t`` in one entry of ``comp1``,
    ``vcomp2`` or ``hcomp2``, the entry moved to any other cell of its kind."""
    for name, n in (("comp1", len(t.onecells)), ("vcomp2", len(t.twocells)), ("hcomp2", len(t.twocells))):
        for key, old in sorted(getattr(t, name).items()):
            for new in range(n):
                if new != old:
                    tables = {table: dict(getattr(t, table)) for table in ("comp1", "vcomp2", "hcomp2")}
                    tables[name][key] = new
                    yield TwoCategory(t.n_objects, t.onecells, t.twocells, tables["comp1"], tables["vcomp2"],
                                      tables["hcomp2"], t.id1, t.id2, names=t.names)


def test_every_cap_cuts_the_two_category_check_to_a_prefix(every_cap):
    # the sign 2-category and, for each law that fails first on one of its
    # single-entry mutants, the first such mutant
    t = zoo.sign_two_category()
    hosts = {"": t}
    for mutant in _two_category_mutants(t):
        hosts.setdefault(check_two_category(mutant).violations[0].axiom, mutant)
    reports = {law: every_cap(lambda budget, x=x: check_two_category(x, budget=budget))[0] for law, x in hosts.items()}
    assert reports.pop("").passed and len(reports) >= 4
    assert all(rep.status == "fail" for rep in reports.values())


def _table_boundary_instances(x):
    """The instances of ``x.table_boundary_violations``, each ``(law,
    witness, lhs, rhs)``, law by law and over the sorted keys of its table;
    the expected boundaries read the tables as dicts."""
    if isinstance(x, TwoCategory):
        s1, t1 = [f[0] for f in x.onecells], [f[1] for f in x.onecells]
        s2, t2 = [a[0] for a in x.twocells], [a[1] for a in x.twocells]
        c1 = x.comp1
        laws = [
            ("comp1-boundary", "onecell", c1, x.onecells, lambda f, g: (s1[f], t1[g])),
            ("vcomp2-boundary", "twocell", x.vcomp2, x.twocells, lambda a, b: (s2[a], t2[b])),
            ("hcomp2-boundary", "twocell", x.hcomp2, x.twocells, lambda a, b: (c1[(s2[a], s2[b])], c1[(t2[a], t2[b])])),
        ]
    else:
        hs, ht = [f[0] for f in x.hcells], [f[1] for f in x.hcells]
        vs, vt = [u[0] for u in x.vcells], [u[1] for u in x.vcells]
        top, bottom, left, right = ([s[i] for s in x.squares] for i in range(4))
        h1, v1 = x.hcomp1, x.vcomp1
        laws = [
            ("hcomp1-boundary", HCELL, h1, x.hcells, lambda f, g: (hs[f], ht[g])),
            ("vcomp1-boundary", VCELL, v1, x.vcells, lambda u, v: (vs[u], vt[v])),
            ("hcomp2-boundary", SQUARE, x.hcomp2, x.squares,
             lambda a, b: (h1[(top[a], top[b])], h1[(bottom[a], bottom[b])], left[a], right[b])),
            ("vcomp2-boundary", SQUARE, x.vcomp2, x.squares,
             lambda a, b: (top[a], bottom[b], v1[(left[a], left[b])], v1[(right[a], right[b])])),
        ]
    return [
        (law, ((kind, a), (kind, b)), cells[z], expect(a, b))
        for law, kind, table, cells, expect in laws
        for (a, b), z in sorted(table.items())
    ]


def _table_boundary_oracle(name, instances, budget):
    """The opening of a checker run: the table boundaries charged one
    instance at a time through ``Collector.eq``, then the assumption that
    ends the run where one of them failed."""
    col = Collector(name, budget)
    for law, witness, lhs, rhs in instances:
        col.eq(law, witness, lhs, rhs)
    if col.report.violations:
        col.assume("equational laws not evaluated: table entries have wrong boundaries")
    return col.done()


@pytest.mark.parametrize("host", ["embed(sign)", "embed(sign)^T", "sign", "quintet(arrow)"])
def test_table_boundaries_match_one_instance_at_a_time(host):
    # every single-entry mutant with every value in range.  Where a boundary
    # fails the run ends after the boundary laws, so every cap up to one
    # past the full count is compared; where they all hold, the equational
    # laws start at the cap that covers them, and the caps stop short of it
    # (the whole-checker oracle above covers what follows).  The squares of
    # sign are endomorphic, and parallel in pairs, so some of its mutants
    # keep every boundary; those of quintet(arrow) have four distinct sides,
    # and no other square shares them
    if host == "sign":
        t = zoo.sign_two_category()
        name, check, mutants = "two-category", check_two_category, list(_two_category_mutants(t))
    else:
        d = quintet(zoo.walking_arrow()) if host == "quintet(arrow)" else embed_two_category(zoo.sign_two_category())
        d = transpose(d) if host.endswith("^T") else d
        name, check, mutants = "double-category", check_double_category, [apply_mutation(d, s) for s in mutation_slots(d)]
    outcomes = set()
    for mutant in mutants:
        instances = _table_boundary_instances(mutant)
        failing = any(lhs != rhs for _, _, lhs, rhs in instances)
        outcomes.add(failing)
        for cap in range(len(instances) + 2 if failing else len(instances)):
            ours, theirs = Budget(cap), Budget(cap)
            rep, ref = check(mutant, budget=ours), _table_boundary_oracle(name, instances, theirs)
            assert (rep.status, rep.checked, ours.used) == (ref.status, ref.checked, theirs.used), cap
            assert (rep.violations, rep.assumptions) == (ref.violations, ref.assumptions), cap
    assert (len(mutants), outcomes) == ((116, {True}) if host == "quintet(arrow)" else (76, {True, False}))


def test_exhausted_shared_budget_matches_per_instance_oracle():
    ours, theirs = Budget(100), Budget(100)
    for _ in range(2):
        rep = check_double_category(_C3, budget=ours)
        assert rep.to_dict() == oracle_check_double_category(_C3, budget=theirs).to_dict()
        assert ours.used == theirs.used
    assert rep.checked == 0 and rep.status == "budget-exceeded"
    # the second run meets the budget exhausted and charges nothing more
    assert ours.used == 101


def _derived_spans(d, total):
    """Where the instances of each law that a thin ``d`` derives fall among
    the ``total`` instances of a check that passes the table boundaries:
    ``{law: (first, one past the last)}``, counted from the tables in the
    order the laws run."""
    hs, ht = [f[0] for f in d.hcells], [f[1] for f in d.hcells]
    vs, vt = [u[0] for u in d.vcells], [u[1] for u in d.vcells]
    top, bottom, left, right = ([s[i] for s in d.squares] for i in range(4))

    def triples(table, ends, starts):
        after = collections.Counter(starts)
        return sum(after[ends[y]] for _, y in table)

    units = 2 * len(d.squares)
    laws = [
        (None, sum(len(t) for t in (d.hcomp1, d.vcomp1, d.hcomp2, d.vcomp2))),
        (None, triples(d.hcomp1, ht, hs) + 2 * len(ht) + triples(d.vcomp1, vt, vs) + 2 * len(vt)),
        ("hcomp2-associativity", triples(d.hcomp2, right, left)),
        (None, units),
        ("vcomp2-associativity", triples(d.vcomp2, bottom, top)),
        (None, units + len(d.hcomp1) + len(d.vcomp1) + d.n_objects),
    ]
    spans, at = {}, 0
    for law, n in laws:
        if law:
            spans[law] = at, at + n
        at += n
    spans["interchange"] = at, total
    return spans


_DERIVED = {
    "hcomp2-associativity": "hcomp2-associativity derived from hcomp1-associativity, not evaluated",
    "vcomp2-associativity": "vcomp2-associativity derived from vcomp1-associativity, not evaluated",
    "interchange": "interchange derived, not evaluated",
}


def _derived(rep):
    """The laws whose derivation ``rep`` records."""
    return [law for law, line in _DERIVED.items() if any(a.startswith(line) for a in rep.assumptions)]


def _self_pullback():
    """The pullback of the projection ``quintet(arrow) x quintet(C2) ->
    quintet(arrow)`` along itself: a thin category of 4 objects."""
    qa, q2 = quintet(zoo.walking_arrow()), quintet(zoo.cyclic_group_cat(2))
    p1, _ = product_projections(qa, q2, product(qa, q2))
    return pullback(p1, p1)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _C3, id="quintet(C3)"),
    pytest.param(lambda: product(_C3, quintet(zoo.cyclic_group_cat(2))), id="quintet(C3) x quintet(C2)"),
    pytest.param(lambda: quintet(zoo.walking_arrow()), id="quintet(arrow)"),
    pytest.param(_self_pullback, id="pullback(p1,p1)"),
])
def test_caps_inside_each_derived_law_match_the_oracle(make):
    # a thin category derives three laws and charges them as the oracle
    # evaluates them: caps just before the first instance of each, at the
    # first, in the middle and at the last check and record as the oracle,
    # and the law's assumption appears once one of its instances is within
    # the cap.  The full run is the cap at the last instance of interchange.
    # quintet(C3) and its product have one object, so all their blocks and
    # grids have one size; the arrow and the pullback have several objects,
    # and their blocks and grids differ in size
    d = make()
    full = check_double_category(d)
    assert full.to_dict() == oracle_check_double_category(d).to_dict()
    assert _derived(full) == list(_DERIVED)
    for law, (start, end) in _derived_spans(d, full.checked).items():
        for cap in sorted({start, start + 1, (start + end) // 2, end} - {full.checked}):
            ours, theirs = Budget(cap), Budget(cap)
            rep = check_double_category(d, budget=ours)
            assert rep.to_dict() == oracle_check_double_category(d, budget=theirs).to_dict(), (law, cap)
            assert ours.used == theirs.used and rep.checked == cap
            assert (law in _derived(rep)) == (cap > start), (law, cap)


def _walked_counts(d):
    """The instances of interchange and of ``hcomp2-`` and
    ``vcomp2-associativity``, counted by walking the tables as the
    enumeration does: the grid of each key of ``hcomp2``, and the block of
    each left cell."""
    top, bottom, left, right = ([s[i] for s in d.squares] for i in range(4))
    below, beside = _starting_at(top), _starting_at(list(zip(top, left)))
    pairs = collections.Counter((bottom[a], bottom[b]) for a, b in d.hcomp2)
    grid = sum(n * sum(len(beside.get((y, right[c]), ())) for c in below.get(x, ())) for (x, y), n in pairs.items())

    def blocks(ends, starts):
        after = _starting_at(starts)
        return sum(len(after.get(ends[y], ())) for x in range(len(ends)) for y in after.get(ends[x], ()))

    return grid, blocks(right, left), blocks(bottom, top)


def _counted(d):
    """What the derived laws charge on ``d``, each run alone on a fresh
    budget: ``(checked, assumptions)`` of interchange and of ``hcomp2-``
    and ``vcomp2-associativity``."""
    top, bottom, left, right = ([s[i] for s in d.squares] for i in range(4))
    runs = [
        lambda col: kernel._interchange(col, d, None, None, "derived"),
        lambda col: kernel._associativity(col, "hcomp2-associativity", SQUARE, None, right, left, "derived"),
        lambda col: kernel._associativity(col, "vcomp2-associativity", SQUARE, None, bottom, top, "derived"),
    ]
    out = []
    for run in runs:
        col = Collector("double-category")
        run(col)
        out.append((col.report.checked, col.report.assumptions))
    return out


def test_derived_laws_are_counted_as_the_tables_are_walked():
    # on every thin input, the closed forms that charge the derived laws
    # count what a walk over the tables counts, and a thin check builds
    # neither square index that the enumeration reads
    quintets = [(name, quintet(c)) for name, c in zoo.small_category_catalog()]
    monoids = (zoo.braid_monoid_in_dbl, zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl, zoo.trivial_monoid_in_dbl)
    inputs = [
        *quintets,
        *((f"transpose({name})", transpose(d)) for name, d in quintets),
        ("quintet(C3) x quintet(C2)", product(quintet(zoo.cyclic_group_cat(3)), quintet(zoo.cyclic_group_cat(2)))),
        ("pullback(p1,p1)", _self_pullback()),
        *((make.__name__, make().carrier) for make in monoids),
        ("empty", DoubleCategory(0, [], [], [], {}, {}, {}, {}, [], [], [], [])),
    ]
    counts = {}
    for name, d in inputs:
        assert len(set(d.squares)) == len(d.squares), name
        walked = counts[name] = _walked_counts(d)
        assert _counted(d) == [(n, ["derived"] if n else []) for n in walked], name
        rep = check_double_category(d)
        assert rep.passed and _derived(rep) == [law for law, n in zip(_DERIVED, walked) if n], name
        assert d._sq_by_top is None and d._sq_by_tl is None, name
    assert counts["empty"] == (0, 0, 0) and min(counts["pullback(p1,p1)"]) > 0


def _doubled_square(d, s):
    """``d`` rebuilt through the constructor with one more square on the
    boundary of the square ``s``, which pastes as ``s`` does: the result is
    not thin, and its tables keep their boundaries."""
    x = len(d.squares)

    def doubled(table):
        out = dict(table)
        for (a, b), ab in table.items():
            for key in {(x if a == s else a, x if b == s else b)} - {(a, b)}:
                out[key] = ab
            if s in (a, b) and a == b:
                out[(x, s)] = out[(s, x)] = ab
        return out

    return DoubleCategory(d.n_objects, d.hcells, d.vcells, [*d.squares, d.squares[s]], d.hcomp1, d.vcomp1,
                          doubled(d.hcomp2), doubled(d.vcomp2), d.hid, d.vid, d.sq_vid, d.sq_hid)


def _magma_squares():
    """The thin double category of one object, one vcell and the unital
    magma ``{e, a, b}`` as its hcells, with one square on each hcell: its
    tables have their boundaries, but ``(a;a);b == a`` and ``a;(a;b) ==
    b``, so its hcomp1 associativity fails."""
    times = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
    hcomp1 = {(f, g): times[f][g] for f in range(3) for g in range(3)}
    return DoubleCategory(1, [(0, 0)] * 3, [(0, 0)], [(f, f, 0, 0) for f in range(3)], hcomp1, {(0, 0): 0},
                          hcomp1, {(f, f): f for f in range(3)}, [0], [0], [0, 1, 2], [0])


def test_laws_are_derived_only_over_a_thin_category_with_associative_1_cells():
    # embed(sign) has parallel squares, and so do its mutants in acceptance
    # criterion 1, which break interchange and square associativity; a thin
    # quintet with one square doubled keeps its boundaries but is not thin;
    # the magma category is thin, but its hcomp1 associativity fails, so
    # hcomp2 associativity is evaluated (and fails) while vcomp2
    # associativity and interchange are derived
    sign = embed_two_category(zoo.sign_two_category())
    _, sign_mutants = zip(*_mutants()[-20:])
    doubled = _doubled_square(_C3, 10)
    inputs = [sign, *sign_mutants, *_law_breaking_sign_mutants(), doubled]
    assert all(len(set(d.squares)) < len(d.squares) for d in inputs)
    laws = collections.Counter()
    for d in inputs:
        rep = check_double_category(d)
        assert rep.to_dict() == oracle_check_double_category(d).to_dict()
        assert _derived(rep) == []
        laws.update(v.axiom for v in rep.violations)
    assert min(laws["interchange"], laws["hcomp2-associativity"], laws["vcomp2-associativity"]) > 0
    assert {v.axiom for v in check_double_category(doubled).violations} >= {"hcomp2-unit", "vcomp2-unit"}
    magma = _magma_squares()
    rep = check_double_category(magma)
    assert rep.to_dict() == oracle_check_double_category(magma).to_dict()
    assert _derived(rep) == ["vcomp2-associativity", "interchange"]
    assert {v.axiom for v in rep.violations} == {"hcomp1-associativity", "hcomp2-associativity"}


def _pullback_of_unequal_maps(d, h_map, sq_map):
    """The pullback of the identity of ``d`` and a cell map of ``d`` that
    agrees with it on objects and need not preserve composition; a negative
    id sends a square to no cell, so the map is not a functor's."""
    g = SimpleNamespace(dom=d, cod=d, ob_map=range(d.n_objects), h_map=h_map, v_map=range(len(d.vcells)), sq_map=sq_map)
    return pullback(identity_functor(d), g)


def test_pullback_not_closed_names_the_first_unmatched_pair():
    # a square map that breaks a square's top: the cells do not close
    d = quintet(zoo.cyclic_group_cat(3))
    swapped = [9, 1, 2, 3, 4, 5, 6, 7, 8, 0] + list(range(10, 27))
    with pytest.raises(StructureError) as e:
        _pullback_of_unequal_maps(d, range(3), swapped)
    assert str(e.value) == "pullback not closed at square top: pair (0, 1) does not match; are both functors strict?"
    # g2 -> g1 on hcells keeps the identity, not hcomp1; a square goes to
    # the square on its image boundary, or to no cell
    collapse = (0, 1, 1)
    at = {s: i for i, s in enumerate(d.squares)}
    onto = [at.get((collapse[t], collapse[b], l, r), -1 - i) for i, (t, b, l, r) in enumerate(d.squares)]
    with pytest.raises(StructureError) as e:
        _pullback_of_unequal_maps(d, collapse, onto)
    assert str(e.value) == "pullback not closed at hcomp1: pair (2, 2) does not match; are both functors strict?"
    # the two 2-cells on `a` of the sign 2-category swapped: not vcomp2
    ds = embed_two_category(zoo.sign_two_category())
    with pytest.raises(StructureError) as e:
        _pullback_of_unequal_maps(ds, range(2), [0, 1, 3, 2])
    assert str(e.value) == "pullback not closed at vcomp2: pair (2, 2) does not match; are both functors strict?"
    # the same swap on the transpose, where that composition is hcomp2; the
    # square tables are built at their first read, but whether they close
    # is decided in the call, so the call itself raises
    with pytest.raises(StructureError) as e:
        _pullback_of_unequal_maps(transpose(ds), range(1), [0, 1, 3, 2])
    assert str(e.value) == "pullback not closed at hcomp2: pair (2, 2) does not match; are both functors strict?"


def test_pullback_square_tables_ignore_later_edits_of_a_factor():
    d = quintet(zoo.cyclic_group_cat(2))
    ident = identity_functor(d)
    expected = pullback(ident, ident)
    hcomp2, vcomp2 = list(expected.hcomp2.items()), list(expected.vcomp2.items())
    pb = pullback(ident, ident)
    for table in (d.hcomp2, d.vcomp2):
        key = next(iter(table))
        table[key] = (table[key] + 1) % len(d.squares)
    assert "hcomp2" not in vars(pb) and "vcomp2" not in vars(pb)
    assert (list(pb.hcomp2.items()), list(pb.vcomp2.items())) == (hcomp2, vcomp2)
    assert type(pb) is DoubleCategory and _held(pb, "hcomp2") is None


def test_only_pullbacks_and_parsed_categories_defer_their_square_tables():
    # a plain DoubleCategory keeps ordinary attribute access
    assert "__getattr__" not in vars(DoubleCategory) and not hasattr(DoubleCategory, "__getattr__")
    d = quintet(zoo.walking_arrow())
    fresh = DoubleCategory(
        d.n_objects, d.hcells, d.vcells, d.squares, d.hcomp1, d.vcomp1, d.hcomp2, d.vcomp2,
        d.hid, d.vid, d.sq_vid, d.sq_hid,
    )
    # the constructor, quintet and the transpose of a plain category build them
    for made_d in (d, fresh, transpose(d)):
        assert type(made_d) is DoubleCategory
        assert {"hcomp1", "vcomp1", "hcomp2", "vcomp2"} <= set(vars(made_d))
    # a product is the pullback over the terminal double category, so it
    # defers them as any pullback does; a parsed category defers them too
    for p in (product(d, d), _parsed(d)):
        assert type(p) is _Pending and not {"hcomp2", "vcomp2"} & set(vars(p))
        p.hcomp2
        assert type(p) is DoubleCategory and {"hcomp1", "vcomp1", "hcomp2", "vcomp2"} <= set(vars(p))


def _category_text(d):
    """``d`` written as the category block ``D``."""
    doc = dsl.Document()
    doc.add(_decl_category("D", d))
    return dsl.serialize(doc)


def _parsed(d):
    """``d`` written as a category block and parsed back."""
    return dsl.parse(_category_text(d)).decls["D"].obj


# a pending pullback's or parsed category's recipes: single pastes,
# transposes and comparisons read them without building the square tables

_MONOIDS = {
    "braid": zoo.braid_monoid_in_dbl,
    "cyclic2": zoo.commutative_monoid_in_dbl,
    "min": zoo.min_monoid_in_dbl,
    "trivial": zoo.trivial_monoid_in_dbl,
}
_QUINTETS = {
    "C2xarrow": (lambda: zoo.cyclic_group_cat(2), zoo.walking_arrow),
    "C3xiso": (lambda: zoo.cyclic_group_cat(3), zoo.walking_iso),
    "arrowxC2": (zoo.walking_arrow, lambda: zoo.cyclic_group_cat(2)),
}
# parsed categories: all square composites implied (the documents
# benchmark's product), and some written out (parallel squares)
_PARSED = {
    "parsed C3xarrow": lambda: product(quintet(zoo.cyclic_group_cat(3)), quintet(zoo.walking_arrow())),
    "parsed sign": lambda: embed_two_category(zoo.sign_two_category()),
}


@pytest.fixture(scope="module")
def fresh():
    """``fresh(case)``, a new pullback or parsed category of ``case``, its
    square tables not built: the bundle pullback or the left-bracketed
    triple pullback of a zoo monoid, the product of two zoo quintets, or a
    new parse of a category's text; ``T `` in front transposes it.
    ``fresh.bundle(name)`` is the monoid's bundle, built once per module,
    and so is each parsed category's text."""
    bundles, texts = {}, {}

    def bundle(name):
        if name not in bundles:
            bundles[name] = monoid_to_internal(_MONOIDS[name]())
        return bundles[name]

    def make(case):
        if case.startswith("T "):
            return transpose(make(case[2:]))
        if case in _PARSED:
            if case not in texts:
                texts[case] = _category_text(_PARSED[case]())
            return dsl.parse(texts[case]).decls["D"].obj
        name, _, part = case.partition(" ")
        if name in _QUINTETS:
            return product(*(quintet(cat()) for cat in _QUINTETS[name]))
        data = bundle(name)
        return pullback(data.t, data.s) if part == "p" else pullback(compose_strict(data.t, data.p2), data.s)

    make.bundle = bundle
    return make


_CASES = [f"{name} {part}" for name in _MONOIDS for part in ("p", "p3l")] + list(_QUINTETS) + list(_PARSED)
PENDING = _CASES + [f"T {case}" for case in _CASES]


def _pending(d):
    return type(d) is _Pending and not {"hcomp2", "vcomp2"} & set(vars(d))


def _outcome(paste, a, b):
    """What ``paste(a, b)`` returns, or the type, text and witness of what
    it raises."""
    try:
        return paste(a, b)
    except Exception as e:
        return type(e), str(e), getattr(e, "witness", None)


def _unpastable(table, n):
    """Keys that are not in ``table``: a few pairs of ids in range, then
    out-of-range and negative ids."""
    inside = [(a, b) for a in range(min(n, 6)) for b in range(n) if (a, b) not in table][:8]
    return inside + [(n, 0), (0, n), (n + 3, n), (-1, 0), (0, -1), (-n, -1)]


@pytest.mark.parametrize("case", PENDING)
def test_pending_pastes_read_single_entries(fresh, case):
    d, built = fresh(case), fresh(case)
    assert _pending(d) and _pending(built)
    for paste, name in ((d.hpaste, "hcomp2"), (d.vpaste, "vcomp2")):
        table = getattr(built, name)
        assert [paste(a, b) for a, b in table] == list(table.values())
    assert _pending(d)


@pytest.mark.parametrize("case", PENDING)
def test_pending_pastes_raise_as_the_built_tables(fresh, case):
    d, built = fresh(case), fresh(case)
    n = len(built.squares)
    for paste, name in (("hpaste", "hcomp2"), ("vpaste", "vcomp2")):
        keys = _unpastable(getattr(built, name), n)
        want = [_outcome(getattr(built, paste), a, b) for a, b in keys]
        assert {kind for kind, *_ in want} == {NonComposable, IndexError}
        assert [_outcome(getattr(d, paste), a, b) for a, b in keys] == want
    assert _pending(d)


@pytest.mark.parametrize("case", PENDING)
def test_pastes_bound_while_pending_answer_after_the_build(fresh, case):
    d, built = fresh(case), fresh(case)
    hp, vp = d.hpaste, d.vpaste
    # used while pending, they build nothing
    for paste, table in ((hp, built.hcomp2), (vp, built.vcomp2)):
        key = next(iter(table))
        assert paste(*key) == table[key]
    assert _pending(d)
    d.hcomp2
    assert type(d) is DoubleCategory
    n = len(d.squares)
    for paste, table in ((hp, d.hcomp2), (vp, d.vcomp2)):
        assert [paste(a, b) for a, b in table] == list(table.values())
        keys = _unpastable(table, n)
        assert [_outcome(paste, a, b) for a, b in keys] == [_outcome(getattr(d, paste.__name__), a, b) for a, b in keys]


@pytest.mark.parametrize("case", PENDING)
def test_pending_transpose_builds_the_transpose_of_a_built_copy(fresh, case):
    d = fresh(case)
    t = transpose(d)
    assert _pending(d) and _pending(t)
    built = fresh(case)
    built.hcomp2
    want = transpose(built)
    assert type(want) is DoubleCategory
    assert same_category(t, want)
    for name in ("hcomp2", "vcomp2"):
        assert list(getattr(t, name).items()) == list(getattr(want, name).items())
    # transposing twice gives back the category, tables in the same order
    again = transpose(transpose(fresh(case)))
    for name in ("hcomp2", "vcomp2"):
        assert list(getattr(again, name).items()) == list(getattr(built, name).items())


@pytest.mark.parametrize("name", list(_QUINTETS))
def test_pending_transpose_ignores_later_edits_of_a_factor(name):
    factors = [quintet(make()) for make in _QUINTETS[name]]
    want = transpose(product(*factors))
    want.hcomp2
    p = product(*factors)
    early = transpose(p)
    for d in factors:
        for table in (d.hcomp2, d.vcomp2):
            key = next(iter(table))
            table[key] = (table[key] + 1) % len(d.squares)
    late = transpose(p)
    for t in (early, late):
        assert _pending(t)
        assert [t.hpaste(a, b) for a, b in want.hcomp2] == list(want.hcomp2.values())
        for table in ("hcomp2", "vcomp2"):
            assert list(getattr(t, table).items()) == list(getattr(want, table).items())


def _pointed(d, base):
    """The pullback of the identity of ``d`` and the functor that picks the
    object 0 of ``base`` out of the terminal double category, both into
    ``d``, duck-typed: only the cells on 0 match."""
    o, term = base.hid[0], terminal_double_category()
    ident = SimpleNamespace(dom=d, cod=d, ob_map=range(d.n_objects), h_map=range(len(d.hcells)),
                            v_map=range(len(d.vcells)), sq_map=range(len(d.squares)))
    point = SimpleNamespace(dom=term, cod=d, ob_map=[0], h_map=[o], v_map=[base.vid[0]], sq_map=[base.sq_vid[o]])
    return pullback(ident, point)


def test_same_category_on_differing_recipes_agrees_with_the_built_tables(fresh):
    def edited(d, key, value):
        hcomp2 = dict(d.hcomp2)
        hcomp2[key] = value
        return DoubleCategory._unvalidated(d.n_objects, d.hcells, d.vcells, d.squares, d.hcomp1, d.vcomp1, hcomp2,
                                           d.vcomp2, d.hid, d.vid, d.sq_vid, d.sq_hid)

    d = quintet(zoo.walking_arrow())
    ident = identity_functor(d)
    # an hcomp2 entry the pullback reads, moved to another square: the
    # recipes and the tables differ in that entry
    key = next(iter(d.hcomp2))
    moved = identity_functor(edited(d, key, (d.hcomp2[key] + 1) % len(d.squares)))
    # an entry at a square that matches nothing: the recipes differ, the
    # tables do not
    unmatched = next(k for k in d.hcomp2 if k[0] != d.sq_vid[d.hid[0]])
    quiet = edited(d, unmatched, (d.hcomp2[unmatched] + 1) % len(d.squares))
    cyclic2 = fresh.bundle("cyclic2")
    # (a, b, whether they are equal, whether comparing them builds the tables)
    pairs = [
        (lambda: pullback(ident, ident), lambda: pullback(moved, moved), False, True),
        (lambda: _pointed(d, d), lambda: _pointed(quiet, d), True, True),
        (lambda: fresh("min p"), lambda: fresh("cyclic2 p"), False, False),
        (lambda: fresh("C2xarrow"), lambda: fresh("arrowxC2"), False, False),
        (lambda: fresh("T C3xiso"), lambda: fresh("C3xiso"), False, False),
        # over the terminal object part the triple pullback is the product
        (lambda: fresh("cyclic2 p3l"), lambda: product(cyclic2.p, cyclic2.d1), True, False),
        # a parsed category's recipes: two parses of one text, the
        # transpose of a parse and the parse of the transpose, and a parse
        # against the pullback it was written from (recipes of two kinds)
        (lambda: fresh("parsed sign"), lambda: fresh("parsed sign"), True, False),
        (lambda: fresh("T parsed sign"), lambda: _parsed(transpose(_PARSED["parsed sign"]())), True, False),
        (lambda: fresh("parsed C3xarrow"), _PARSED["parsed C3xarrow"], True, True),
        (lambda: fresh("parsed sign"), lambda: fresh("parsed C3xarrow"), False, False),
    ]
    for make_a, make_b, same, builds in pairs:
        a, b = make_a(), make_b()
        assert _pending(a) and _pending(b)
        built_a, built_b = make_a(), make_b()
        built_a.hcomp2, built_b.hcomp2
        assert all(getattr(built_a, n) == getattr(built_b, n) for n in _PRESENTATION) is same
        assert same_category(a, b) is same and same_category(b, a) is same
        # the tables are built only where the other fields agree and the
        # recipes do not
        assert _pending(a) is _pending(b) is not builds


@pytest.mark.parametrize("name", ["hcomp2", "vcomp2"])
@pytest.mark.parametrize("case", ["arrowxC2", "parsed sign", "T parsed sign"])
def test_a_square_table_assigned_while_pending_is_the_one_read(fresh, case, name):
    # the assignment builds both tables first, so the first read of the
    # other table does not build over it; every reader then sees the table
    # assigned, as on a category whose tables were read before the edit
    d, eager = fresh(case), fresh(case)
    eager.hcomp2
    table = dict(getattr(eager, name))
    key = next(iter(table))
    table[key] = (table[key] + 1) % len(eager.squares)
    assert _pending(d)
    setattr(d, name, table)
    setattr(eager, name, dict(table))
    other = "vcomp2" if name == "hcomp2" else "hcomp2"
    assert getattr(d, other) == getattr(eager, other)
    assert getattr(d, name) == table
    assert (d.hpaste if name == "hcomp2" else d.vpaste)(*key) == table[key]
    assert getattr(transpose(d), other) == table
    assert same_category(d, eager) and not same_category(d, fresh(case))
    assert _category_text(d) == _category_text(eager) != _category_text(fresh(case))
    rep = check_double_category(d)
    assert not rep.passed and rep.to_dict() == check_double_category(eager).to_dict()


@pytest.mark.parametrize("case", PENDING)
def test_a_pending_category_copies_and_pickles_as_an_eager_build(fresh, case):
    # copies and pickles build the square tables first, as those of a
    # pending pseudofunctor build its families; identity equality and
    # hashing read no table and build nothing
    eager = fresh(case)
    eager.hcomp2
    d = fresh(case)
    assert d != eager and d == d and hash(d) == object.__hash__(d) and _pending(d)
    assert repr(fresh(case)) == repr(eager)
    for copied in (copy.copy(fresh(case)), copy.deepcopy(fresh(case)), pickle.loads(pickle.dumps(fresh(case)))):
        assert type(copied) is DoubleCategory and same_category(copied, eager)
        for name in ("hcomp2", "vcomp2"):
            assert list(getattr(copied, name).items()) == list(getattr(eager, name).items())
    # a shallow copy shares the tables, as an eager build's does
    assert copy.copy(d).hcomp2 is d.hcomp2


# a report cut by its budget passes no guard


def test_quintet_rejects_a_capped_category_check(monkeypatch):
    original = FiniteCategory.check
    monkeypatch.setattr(FiniteCategory, "check", lambda self, budget=None: original(self, budget=Budget(0)))
    with pytest.raises(StructureError, match="quintet input is not a category"):
        quintet(zoo.walking_arrow())


def test_embedding_rejects_a_capped_two_category_check(monkeypatch):
    from dblkit import kernel

    original = kernel.check_two_category
    monkeypatch.setattr(kernel, "check_two_category", lambda t, budget=None: original(t, budget=Budget(0)))
    with pytest.raises(StructureError, match="embedding input is not a strict 2-category"):
        embed_two_category(zoo.sign_two_category())


def test_passed_means_status_pass():
    d = quintet(zoo.cyclic_group_cat(3))
    full = check_double_category(d)
    assert full.passed and full.status == "pass"
    capped = check_double_category(d, budget=Budget(10))
    assert capped.status == "budget-exceeded" and not capped.violations and not capped.passed
    assert capped.to_dict()["passed"] is False
    col = Collector("open")
    col.fail("law", ())
    assert col.report.status == "pass" and not col.report.passed  # not yet finished as fail


# _check_table on the walking arrow's 1-cells: id_0 (0, 0), id_1 (1, 1) and
# f (0, 1), composable when the end of the first is the start of the second
ARROW_ENDS, ARROW_STARTS = [0, 1, 1], [0, 1, 0]
ARROW_COMP = {(0, 0): 0, (0, 2): 2, (1, 1): 1, (2, 1): 2}
WRONG_KEYS = "keys wrong; extra={extra} missing={missing} bad={bad}"


def _arrow_table(**changes):
    table = dict(ARROW_COMP)
    for key, value in changes.get("replace", {}).items():
        del table[key]
        table[value[0]] = value[1]
    table.update(changes.get("add", {}))
    for key in changes.get("drop", ()):
        del table[key]
    return table


@pytest.mark.parametrize("table, message", [
    (_arrow_table(add={(1, 0): 0}), "keys wrong; extra=[(1, 0)] missing=[] bad=[(1, 0)]"),
    (_arrow_table(drop=[(2, 1)]), "keys wrong; extra=[] missing=[(2, 1)] bad=[(2, 1)]"),
    # as many keys as composable pairs, and ends[-1] == starts[1]: only the
    # sign tells the key apart from a composable pair
    (_arrow_table(replace={(2, 1): ((-1, 1), 2)}), "keys wrong; extra=[(-1, 1)] missing=[(2, 1)] bad=[(-1, 1), (2, 1)]"),
    (_arrow_table(add={7: 0}), "keys wrong; extra=[7] missing=[] bad=[7]"),
    (_arrow_table(replace={(0, 2): ((0, 3), 2)}), "keys wrong; extra=[(0, 3)] missing=[(0, 2)] bad=[(0, 2), (0, 3)]"),
    (_arrow_table(add={(0, 2): 3}), "composite of (0, 2): index 3 out of range 0..2"),
    (_arrow_table(add={(0, 2): -1}), "composite of (0, 2): index -1 out of range 0..2"),
    (_arrow_table(add={(1, 1): 1.0}), "composite of (1, 1): index 1.0 out of range 0..2"),
    (_arrow_table(add={(2, 1): "f"}), "composite of (2, 1): index 'f' out of range 0..2"),
])
def test_check_table_messages(table, message):
    with pytest.raises(StructureError) as err:
        _check_table(table, ARROW_ENDS, ARROW_STARTS, "composite of {}", WRONG_KEYS)
    assert str(err.value) == message


def test_check_table_accepts_what_equals_a_composable_pair():
    # keys and values are compared by equality, as in a set of pairs: a
    # bool or a tuple subclass passes where the int or the tuple would
    pair = collections.namedtuple("pair", "x y")
    for table in (
        ARROW_COMP,
        _arrow_table(add={(0, 2): True}),
        _arrow_table(replace={(1, 1): ((True, 1), 1)}),
        _arrow_table(replace={(2, 1): (pair(2, 1), 2)}),
    ):
        _check_table(table, ARROW_ENDS, ARROW_STARTS, "composite of {}", WRONG_KEYS)
    # but not where a bool is out of range
    with pytest.raises(StructureError, match=r"^composite of \(0, 0\): index True out of range 0\.\.0$"):
        _check_table({(0, 0): True}, [0], [0], "composite of {}", WRONG_KEYS)


def test_check_table_rejects_a_key_that_only_unpacks_to_a_pair():
    # a frozenset unpacks to a composable pair but is not one; the wrong key
    # set then mixes a frozenset and a tuple, which do not sort
    table = _arrow_table(replace={(0, 2): (frozenset({0, 2}), 2)})
    with pytest.raises(TypeError):
        _check_table(table, ARROW_ENDS, ARROW_STARTS, "composite of {}", WRONG_KEYS)


# ---------------------------------------------------------------------------
# the entry-by-entry comparison against a sorted walk


def _sorted_first_difference(sections, room=math.inf):
    """The oracle: every dict section read into two lists over the sorted
    union of its keys, then walked index by index like a list section."""
    n = 0
    for head, kind, left, right in sections:
        cut = room - n
        if left == right and len(left) <= cut:
            n += len(left)
            continue
        keys = sorted(left.keys() | right.keys()) if isinstance(left, dict) else None
        if keys is not None:
            left, right = [left.get(k) for k in keys], [right.get(k) for k in keys]
        i = kernel._mismatch(left, right, cut)
        if i is None:
            size = max(len(left), len(right))
            if size > cut:
                return room + 1, None, None, None
            n += size
            continue
        key = i if keys is None else keys[i]
        cells = () if kind is None else tuple((kind, c) for c in (key if isinstance(key, tuple) else (key,)))
        lhs = left[i] if i < len(left) else None
        rhs = right[i] if i < len(right) else None
        return n + i + 1, (*head, *cells), lhs, rhs
    return n, None, None, None


def _shuffled(table, rng):
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


def _differing_section(rng, shape):
    """Two dicts or lists that differ in the way ``shape`` names, the
    dicts inserted in a seeded shuffled order."""
    size = rng.randrange(1, 12)
    if shape == "list":
        left = [rng.randrange(4) for _ in range(size)]
        right = left[: rng.randrange(size + 1)] + [rng.randrange(4) for _ in range(rng.randrange(3))]
        return SQUARE, left, right
    keys = rng.sample([(x, y) for x in range(5) for y in range(5)], size) if rng.random() < 0.7 else list(range(size))
    left = {k: rng.randrange(4) for k in keys}
    right = dict(left)
    if shape == "values":
        for k in rng.sample(keys, min(len(keys), rng.randrange(1, 4))):
            right[k] = left[k] + 1 + rng.randrange(3)
    elif shape == "one side":
        for k in rng.sample(keys, min(len(keys), rng.randrange(1, 3))):
            del (left if rng.random() < 0.5 else right)[k]
    else:  # a None value against a missing key, maybe beside a real difference
        for k in rng.sample(keys, min(len(keys), rng.randrange(1, 3))):
            left[k] = None
            del right[k]
        if rng.random() < 0.5:
            k = rng.choice(keys)
            right[k] = 7
    return HCELL, _shuffled(left, rng), _shuffled(right, rng)


@pytest.mark.parametrize("seed", range(40))
def test_first_difference_matches_the_sorted_walk(seed):
    rng = random.Random(seed)
    sections = []
    for s in range(rng.randrange(1, 5)):
        shape = rng.choice(["equal", "values", "values", "one side", "none", "list", "head"])
        if shape == "equal":
            table = {(x, x + 1): rng.randrange(4) for x in range(rng.randrange(6))}
            sections.append(((f"t{s}",), VCELL, table, _shuffled(table, rng)))
        elif shape == "head":
            sections.append(((f"end{s}",), None, [rng.randrange(2)], [rng.randrange(2)]))
        else:
            sections.append(((f"t{s}",), *_differing_section(rng, shape)))
    total = sum(max(len(left), len(left.keys() | right.keys()) if isinstance(left, dict) else len(right))
                for _, _, left, right in sections)
    assert kernel._first_difference(sections) == _sorted_first_difference(sections)
    for room in range(total + 2):
        assert kernel._first_difference(sections, room) == _sorted_first_difference(sections, room), room


@pytest.mark.parametrize("make", [
    lambda: quintet(zoo.walking_iso()),
    lambda: embed_two_category(zoo.sign_two_category()),
    lambda: quintet(zoo.cyclic_group_cat(3)),
], ids=["walking-iso", "sign", "C3"])
def test_horizontal_inverse_is_the_first_match_of_a_scan_over_every_square(make):
    d = make()
    found = 0
    for s, (t, b, l, r) in enumerate(d.squares):
        scan = next((x for x, bnd in enumerate(d.squares) if bnd == (t, b, r, l)
                     and d.hpaste(s, x) == d.sq_hid[l] and d.hpaste(x, s) == d.sq_hid[r]), None)
        assert _horizontal_inverse(d, s) == scan
        found += scan is not None
    assert found
