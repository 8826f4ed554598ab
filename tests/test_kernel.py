import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit.kernel import (
    FiniteCategory,
    NonComposable,
    StructureError,
    check_double_category,
    embed_two_category,
    check_two_category,
    horizontal_two_category,
    product,
    pullback,
    quintet,
    terminal_double_category,
    transpose,
)
from dblkit.functors import identity_functor, product_projections, check_strict_functor
from dblkit.mutate import apply_mutation, mutation_slots, sample_mutants
from dblkit.report import Budget
from dblkit import zoo


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


def test_pullback_over_terminal_is_product():
    d1 = quintet(zoo.walking_arrow())
    d2 = quintet(zoo.cyclic_group_cat(2))
    term = terminal_double_category()

    def bang(d):
        from dblkit.functors import StrictDoubleFunctor

        return StrictDoubleFunctor(
            d,
            term,
            [0] * d.n_objects,
            [0] * len(d.hcells),
            [0] * len(d.vcells),
            [0] * len(d.squares),
            name="!",
        )

    pb = pullback(bang(d1), bang(d2))
    pr = product(d1, d2)
    assert pb.n_objects == pr.n_objects
    assert pb.hcells == pr.hcells
    assert pb.squares == pr.squares
    assert pb.hcomp2 == pr.hcomp2
    assert check_double_category(pb).passed


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
    """Call the constructor again on ``obj``'s own data, one table replaced."""
    params = [p for p in inspect.signature(type(obj).__init__).parameters if p != "self"]
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
