import copy
import pickle
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from dblkit import functors, internal, kernel, zoo
from dblkit.internal import diagonal_internal, monoid_to_internal
from dblkit.kernel import (
    HCELL, OBJECT, SQUARE, VCELL, StructureError, embed_two_category, product, pullback, quintet, transpose,
)
from dblkit.functors import (
    PSEUDO_FUNCTOR_AXIOMS,
    StrictDoubleFunctor,
    check_cubical,
    check_double_pseudo_functor,
    check_strict_functor,
    compose_pseudo,
    compose_strict,
    cubical_from_product_functor,
    curry,
    identity_functor,
    identity_pseudo,
    product_projections,
    pseudo_from_strict,
    pullback_projections,
    strict_equal,
    pseudo_equal,
    uncurry,
)
from dblkit.mutate import apply_mutation, mutation_slots
from dblkit.report import BUDGET_EXCEEDED, FAIL, Budget, Collector
from dblkit.transform import ComponentRegistry


@pytest.fixture(scope="module")
def setting():
    d1 = quintet(zoo.walking_arrow())
    d2 = quintet(zoo.cyclic_group_cat(2))
    p = product(d1, d2)
    return d1, d2, p


def test_identity_functor_strict(setting):
    d1, _, _ = setting
    assert check_strict_functor(identity_functor(d1)).passed


def test_projections_strict(setting):
    d1, d2, p = setting
    p1, p2 = product_projections(d1, d2, p)
    assert check_strict_functor(p1).passed
    assert check_strict_functor(p2).passed


def test_wrong_boundary_map_fails_its_boundary_law(setting):
    d1, _, _ = setting
    f = identity_functor(d1)
    # send the identity square on object 0 to the identity square on the
    # arrow 0 -> 1, whose boundary differs
    assert d1.squares[0] == (0, 0, 0, 0) and d1.squares[1] == (0, 2, 0, 2)
    bad = [1, *f.sq_map[1:]]
    rep = check_strict_functor(StrictDoubleFunctor(d1, d1, f.ob_map, f.h_map, f.v_map, bad))
    assert rep.status == FAIL
    assert [(v.axiom, v.witness, v.lhs, v.rhs) for v in rep.violations] == [
        ("sq-boundary", (("square", 0),), (0, 2, 0, 2), (0, 0, 0, 0))
    ]
    assert rep.assumptions == ["equational laws not evaluated: cell images have wrong boundaries"]


def test_strict_functor_law_violation_detected(setting):
    _, d2, _ = setting
    # twist the endomorphism double category by a non-functor map
    from dblkit.functors import StrictDoubleFunctor

    swap = {0: 1, 1: 0}
    broken = StrictDoubleFunctor(
        d2,
        d2,
        [0],
        [swap[f] for f in range(2)],
        [swap[u] for u in range(2)],
        [
            next(
                s2
                for s2, bnd in enumerate(d2.squares)
                if bnd
                == (
                    swap[d2.top(s)],
                    swap[d2.bottom(s)],
                    swap[d2.left(s)],
                    swap[d2.right(s)],
                )
            )
            for s in range(len(d2.squares))
        ],
    )
    rep = check_strict_functor(broken)
    assert not rep.passed
    assert any(v.axiom == "hid-preserved" for v in rep.violations)


def test_identity_pseudo_passes_and_flags(setting):
    d1, _, _ = setting
    f = identity_pseudo(d1)
    assert f.normalized and f.strict
    rep = check_double_pseudo_functor(f)
    assert rep.passed, rep.summary()


def test_axioms_individually_toggleable(setting):
    d1, _, _ = setting
    f = identity_pseudo(d1)
    for name in PSEUDO_FUNCTOR_AXIOMS:
        rep = check_double_pseudo_functor(f, axioms={name})
        assert rep.passed
    with pytest.raises(ValueError):
        check_double_pseudo_functor(f, axioms={"no-such-axiom"})


def test_unknown_axiom_names_are_rejected_by_every_selecting_checker(setting):
    from dblkit.companion import find_connection, four_identities
    from dblkit.modif import check_horizontal_side, check_modification, check_vertical_side, identity_modification
    from dblkit.transform import check_horizontal_pnt, check_vertical_pnt, identity_double, identity_horizontal, identity_vertical

    d1, d2, p = setting
    f = identity_pseudo(d1)
    m = identity_modification(identity_double(f))
    checks = {
        "pseudofunctor": lambda axioms: check_double_pseudo_functor(f, axioms=axioms),
        "cubical": lambda axioms: check_cubical(cubical_from_product_functor(d1, d2, identity_functor(p)), axioms=axioms),
        "horizontal": lambda axioms: check_horizontal_pnt(identity_horizontal(f), axioms=axioms),
        "vertical": lambda axioms: check_vertical_pnt(identity_vertical(f), axioms=axioms),
        "four-identities": lambda axioms: four_identities(identity_vertical(f), find_connection(d1), axioms=axioms),
        "modification": lambda axioms: check_modification(m, axioms=axioms),
        "vertical-side": lambda axioms: check_vertical_side(m.src.v0, m.tgt.v0, m.a0, axioms=axioms),
        "horizontal-side": lambda axioms: check_horizontal_side(m.src.h1, m.tgt.h1, m.a1, axioms=axioms),
    }
    for name, check in checks.items():
        assert check(set()).passed, name
        with pytest.raises(StructureError, match="unknown axiom names"):
            check({"hcell-asoc"})


def test_structure_cell_mutation_fails_invertibility():
    # the embedded sign 2-category has two parallel squares per boundary,
    # so a comp_h cell can be swapped for a non-inverse one
    t = zoo.sign_two_category()
    from dblkit.kernel import embed_two_category

    d = embed_two_category(t)
    f = identity_pseudo(d)
    (key, cell) = sorted(f.comp_h.items())[0]
    alt = [s for s in range(len(d.squares)) if d.squares[s] == d.squares[cell] and s != cell]
    assert alt
    f.comp_h[key] = alt[0]
    rep = check_double_pseudo_functor(f)
    assert not rep.passed
    assert any(v.axiom == "invertibility" for v in rep.violations)


def test_compose_with_identity_and_strictness(setting):
    d1, d2, p = setting
    p1, _ = product_projections(d1, d2, p)
    pf = pseudo_from_strict(p1)
    left = compose_pseudo(identity_pseudo(d1), pf)
    right = compose_pseudo(pf, identity_pseudo(p))
    assert pseudo_equal(left, pf) and pseudo_equal(right, pf)
    assert left.strict
    assert check_double_pseudo_functor(left).passed


def test_compose_strict_functors_strict(setting):
    d1, d2, p = setting
    p1, _ = product_projections(d1, d2, p)
    diag = compose_strict(p1, identity_functor(p))
    assert strict_equal(diag, p1)
    comp = compose_pseudo(pseudo_from_strict(p1), pseudo_from_strict(identity_functor(p)))
    assert comp.strict


def test_compose_pseudo_associative_on_the_nose(setting):
    d1, d2, p = setting
    p1, _ = product_projections(d1, d2, p)
    a = pseudo_from_strict(p1)
    b = identity_pseudo(p)
    c = identity_pseudo(p)
    lhs = compose_pseudo(a, compose_pseudo(b, c))
    rhs = compose_pseudo(compose_pseudo(a, b), c)
    assert pseudo_equal(lhs, rhs)


COMPOSITION_FAMILIES = ("comp_h", "comp_h_inv", "comp_v", "comp_v_inv")


def _per_key_families(g, f):
    """The composition families of ``compose_pseudo(g, f)``, each as its
    list of entries, built one family at a time, f's cell looked up at each
    key of the domain's table and each distinct triple pasted once: the
    oracle for the one pass."""
    cod, conj_v, conj_h = g.cod, functors.conj_v, functors.conj_h

    def family(table, cells, images, paste):
        made, out = {}, {}
        for key in table:
            x, y = key
            k = (cells[key], images[x], images[y])
            if k not in made:
                made[k] = paste(*k)
            out[key] = made[k]
        return out

    hcomp1, vcomp1 = f.dom.hcomp1, f.dom.vcomp1
    families = {
        "comp_h": family(hcomp1, f.comp_h, f.h_map, lambda s, x, y: cod.vpaste(conj_v(g, s), g.comp_h[(x, y)])),
        "comp_h_inv": family(hcomp1, f.comp_h_inv, f.h_map,
                             lambda s, x, y: cod.vpaste(g.comp_h_inv[(x, y)], conj_v(g, s))),
        "comp_v": family(vcomp1, f.comp_v, f.v_map, lambda s, u, v: cod.hpaste(g.comp_v[(u, v)], conj_h(g, s))),
        "comp_v_inv": family(vcomp1, f.comp_v_inv, f.v_map,
                             lambda s, u, v: cod.hpaste(conj_h(g, s), g.comp_v_inv[(u, v)])),
    }
    return {name: list(cells.items()) for name, cells in families.items()}


def _families(f):
    """The composition families of ``f``, each as its list of entries."""
    return {name: list(getattr(f, name).items()) for name in COMPOSITION_FAMILIES}


def _keyed(table, cells):
    """The list ``cells``, aligned with ``table``, as a dict keyed by it."""
    assert len(cells) == len(table)
    return dict(zip(table, cells))


@pytest.mark.parametrize("make", [zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl])
def test_composition_families_equal_the_per_key_oracle(monkeypatch, make):
    # every composite the internalization builds, the nested ones among
    # them, compared entry by entry and in key order: the list core is
    # recorded where the nested chain and compose_pseudo both call it, its
    # families read at the keys of the domain's tables
    calls = []
    core = functors._compose_lists

    def recorded(g, f):
        calls.append((g, f, core(g, f)))
        return calls[-1][2]

    monkeypatch.setattr(functors, "_compose_lists", recorded)
    monkeypatch.setattr(internal, "_compose_lists", recorded)
    monoid_to_internal(make())
    assert len(calls) == 8  # four for the nested composites, four for the unit-sided ones
    for g, f, composite in calls:
        tables = {name: f.dom.hcomp1 if name.startswith("comp_h") else f.dom.vcomp1 for name in COMPOSITION_FAMILIES}
        f = SimpleNamespace(**{**vars(f), **{name: _keyed(tables[name], getattr(f, name)) for name in COMPOSITION_FAMILIES}})
        assert {name: list(_keyed(tables[name], getattr(composite, name)).items())
                for name in COMPOSITION_FAMILIES} == _per_key_families(g, f)


def _every_other_inverse_moved(f):
    """``f`` with every other stored inverse of a composition cell moved to
    another square on its boundary, where there is one."""
    sq = f.cod.squares

    def moved(cells):
        return {key: next((x for x in range(len(sq)) if x != s and sq[x] == sq[s] and i % 2), s)
                for i, (key, s) in enumerate(cells.items())}

    return replace(f, comp_h_inv=moved(f.comp_h_inv), comp_v_inv=moved(f.comp_v_inv))


def test_composition_families_paste_each_cell_with_its_own_inverse():
    # over a projection many keys share a cell and the images of their
    # pair but not the inverse, which the embedded sign 2-category's
    # parallel squares let differ
    es = embed_two_category(zoo.sign_two_category())
    d, e = product(es, transpose(es)), quintet(zoo.walking_arrow())
    f = _every_other_inverse_moved(pseudo_from_strict(product_projections(d, e, product(d, e))[0]))
    assert f.comp_h != f.comp_h_inv and f.comp_v != f.comp_v_inv
    for g in (identity_pseudo(d), _every_other_inverse_moved(identity_pseudo(d))):
        assert _families(compose_pseudo(g, f)) == _per_key_families(g, f)


def _reordered(f, names):
    """``f`` with each family of ``names`` listing its keys in reverse."""
    return replace(f, **{name: dict(reversed(getattr(f, name).items())) for name in names})


@pytest.mark.parametrize("names", [COMPOSITION_FAMILIES, ("comp_h_inv", "comp_v")])
@pytest.mark.parametrize("make", [zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl])
def test_reordered_composition_families_compose_in_the_domain_tables_order(make, names):
    # the min bundle's cells differ between a key and its mirror in the
    # reversed order, so a cell read at the wrong key shows there
    data = monoid_to_internal(make())
    m_x_id = internal.triple_pullbacks(data)[2]
    for g in (data.m, identity_pseudo(m_x_id.cod)):
        want = _families(compose_pseudo(g, m_x_id))
        assert [key for key, _ in want["comp_h"]] == list(m_x_id.dom.hcomp1)
        assert [key for key, _ in want["comp_v"]] == list(m_x_id.dom.vcomp1)
        assert _families(compose_pseudo(g, _reordered(m_x_id, names))) == want


@pytest.mark.parametrize("name", COMPOSITION_FAMILIES)
def test_composition_family_missing_a_key_raises_key_error(name):
    f = diagonal_internal(quintet(zoo.cyclic_group_cat(2))).m
    cells = dict(getattr(f, name))
    del cells[list(cells)[len(cells) // 2]]
    with pytest.raises(StructureError, match=f"{name} must be keyed on exactly"):
        replace(f, **{name: cells})
    damaged = replace(f)
    setattr(damaged, name, cells)  # edited after the constructor's check
    with pytest.raises(KeyError):
        compose_pseudo(identity_pseudo(f.cod), damaged)


def test_pullback_projections_strict(setting):
    d1, d2, p = setting
    p1, p2 = product_projections(d1, d2, p)
    pb = pullback(p2, p2)
    q1, q2 = pullback_projections(p2, p2, pb)
    assert check_strict_functor(q1).passed
    assert check_strict_functor(q2).passed


def test_cubical_from_diagonal_passes(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    rep = check_cubical(h)
    assert rep.passed, rep.summary()


def test_cubical_view_refuses_a_domain_one_square_composite_off_the_product(setting):
    # the domain is compared with the fiber product over the terminal double
    # category table by table, the square tables included
    d1, d2, p = setting
    bad = apply_mutation(p, next(slot for slot in mutation_slots(p) if slot[0] == "hcomp2"))
    with pytest.raises(StructureError, match="functor domain is not the product of the two factors"):
        cubical_from_product_functor(d1, d2, identity_functor(bad))


def test_cubical_domain_check_builds_no_square_table(square_table_builds):
    """The domain of a projection of an unbuilt product is compared with a
    second product by their recipes, so neither builds its square tables."""
    d = quintet(zoo.cyclic_group_cat(3))
    prod = product(d, d)
    f = product_projections(d, d, prod)[0]
    h = cubical_from_product_functor(d, d, f)
    assert square_table_builds == [] and "hcomp2" not in vars(prod)
    assert check_cubical(h).passed


def test_cubical_unit_law_example(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    # the mixed square at (identity hcell, any hcell) is the identity square
    for f in range(len(d2.hcells)):
        for a in range(d1.n_objects):
            assert h.hh[(d1.hid[a], f)] == p.sq_vid[h.h2(a, f)]


def test_cubical_mutation_detected():
    # the embedded sign 2-category has parallel squares, so a mixed-family
    # entry can be swapped for a same-boundary wrong one
    from dblkit.kernel import embed_two_category

    d = embed_two_category(zoo.sign_two_category())
    p = product(d, d)
    h = cubical_from_product_functor(d, d, identity_functor(p))
    mutated = False
    for key in sorted(h.hh):
        cell = h.hh[key]
        for alt in range(len(p.squares)):
            if alt != cell and p.squares[alt] == p.squares[cell]:
                h.hh[key] = alt
                mutated = True
                break
        if mutated:
            break
    assert mutated
    rep = check_cubical(h)
    assert not rep.passed
    assert any(v.witness and v.axiom for v in rep.violations)


def test_curry_uncurry_roundtrip(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    c = curry(h)
    h2 = uncurry(c, d1, d2, p)
    assert h2.hh == h.hh and h2.vv == h.vv and h2.hv == h.hv and h2.vh == h.vh
    assert all(strict_equal(x, y) for x, y in zip(h2.row_functors, h.row_functors))
    assert all(strict_equal(x, y) for x, y in zip(h2.col_functors, h.col_functors))


def test_curry_boundary_shapes(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    c = curry(h)
    cod = p
    for F, data in c.on_hcells.items():
        A, B = d1.hs(F), d1.ht(F)
        for f, s in data["hh"].items():
            top = cod.hcomp(h.h1(F, d2.hs(f)), h.h2(B, f))
            bot = cod.hcomp(h.h2(A, f), h.h1(F, d2.ht(f)))
            assert cod.squares[s][0] == top and cod.squares[s][1] == bot
        for u, s in data["hv"].items():
            assert cod.squares[s][0] == h.h1(F, d2.vs(u))
            assert cod.squares[s][1] == h.h1(F, d2.vt(u))


def test_curry_of_identity_mixed_squares_is_constant(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    c = curry(h)
    # identity mixed squares curry to identity transformation data
    for F, data in c.on_hcells.items():
        for f, s in data["hh"].items():
            assert s == p.sq_vid[p.top(s)]
    for U, data in c.on_vcells.items():
        for u, s in data["vv"].items():
            assert s == p.sq_hid[p.left(s)]


# ---------------------------------------------------------------------------
# mutants of the functor checkers' hosts: every single entry of a structure or
# mixed family, or of a square map, swapped for another square on its boundary

STRUCTURE_FAMILIES = ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")
MIXED_FAMILIES = ("hh", "hh_inv", "vv", "vv_inv", "hv", "vh")


def _swaps(cod, cells):
    """``(key, s)`` for each entry of ``cells`` and each other square s of
    ``cod`` on its boundary."""
    items = sorted(cells.items()) if isinstance(cells, dict) else enumerate(cells)
    return [
        (key, s) for key, cell in items for s, bnd in enumerate(cod.squares) if s != cell and bnd == cod.squares[cell]
    ]


def _with(seq, i, s):
    seq = list(seq)
    seq[i] = s
    return seq


def _family_mutants(x, families):
    return [
        replace(x, **{fam: {**getattr(x, fam), key: s}}) for fam in families for key, s in _swaps(x.cod, getattr(x, fam))
    ]


def _pseudo_mutants(f):
    return _family_mutants(f, STRUCTURE_FAMILIES) + [
        replace(f, sq_map=_with(f.sq_map, i, s)) for i, s in _swaps(f.cod, f.sq_map)
    ]


def _cubical_mutants(h):
    out = _family_mutants(h, MIXED_FAMILIES)
    for a, row in enumerate(h.row_functors):
        for i, s in _swaps(h.cod, row.sq_map):
            rows = _with(h.row_functors, a, replace(row, sq_map=_with(row.sq_map, i, s)))
            out.append(replace(h, row_functors=tuple(rows)))
    return out


def _sign():
    return embed_two_category(zoo.sign_two_category())


def _walking_two_cell():
    return embed_two_category(zoo.walking_two_cell())


def _pseudo_host():
    """The identity pseudofunctor of sign x transposed sign: both directions
    have parallel squares, so every structure family has mutants."""
    return identity_pseudo(product(_sign(), transpose(_sign())))


def _cubical_host(d1, d2):
    p = product(d1, d2)
    return cubical_from_product_functor(d1, d2, identity_functor(p))


def _violates(rep, law):
    if law == "partial-strictness":
        return any(v.axiom.startswith(("row[", "col[")) for v in rep.violations)
    return any(v.axiom == law for v in rep.violations)


def test_every_pseudofunctor_law_is_caught_by_a_single_entry_mutant():
    mutants = _pseudo_mutants(_pseudo_host())
    for law in PSEUDO_FUNCTOR_AXIOMS:
        assert any(_violates(check_double_pseudo_functor(m, axioms={law}), law) for m in mutants), law


def test_every_single_entry_structure_cell_mutant_fails():
    # each entry of the eight structure-cell families moved to any other
    # square: 240 of the 300 break a boundary, the rest a law; none may
    # raise, and none may pass
    f = _pseudo_host()
    statuses = {
        (family, key, s): check_double_pseudo_functor(replace(f, **{family: {**cells, key: s}})).status
        for family in STRUCTURE_FAMILIES
        for cells in [getattr(f, family)]
        for key, old in sorted(cells.items())
        for s in range(len(f.cod.squares))
        if s != old
    }
    assert len(statuses) == 300
    assert {slot: status for slot, status in statuses.items() if status != FAIL} == {}


def test_structure_cell_with_the_wrong_boundary_fails_its_boundary_law():
    f = _pseudo_host()
    key, old = sorted(f.comp_h.items())[0]
    wrong = next(s for s, bnd in enumerate(f.cod.squares) if bnd != f.cod.squares[old])
    rep = check_double_pseudo_functor(replace(f, comp_h={**f.comp_h, key: wrong}))
    assert [(v.axiom, v.witness) for v in rep.violations] == [("structure-boundary", ((HCELL, key[0]), (HCELL, key[1])))]
    assert rep.assumptions == ["equational laws not evaluated: structure cells have wrong boundaries"]
    with pytest.raises(StructureError):
        check_double_pseudo_functor(replace(f, comp_h_inv={}))


def test_cubical_laws_caught_by_single_entry_mutants_of_sign_squared():
    mutants = _cubical_mutants(_cubical_host(_sign(), _sign()))
    for law in ("a11", "a21", "a12", "a22", "b11", "b21", "b12", "b22", "invertibility", "partial-strictness"):
        assert any(_violates(check_cubical(m, axioms={law}), law) for m in mutants), law
    # sign has one object and only endomorphic 2-cells, which commute: a
    # single swapped entry enters both sides of c11 and c22 alike
    for law in ("c11", "c22", "corner-agreement"):
        assert not any(_violates(check_cubical(m, axioms={law}), law) for m in mutants), law


def test_c11_and_c22_caught_where_a_factor_has_a_nonidentity_square():
    mutants = _cubical_mutants(_cubical_host(_sign(), _walking_two_cell()))
    for law in ("c11", "c22"):
        assert any(_violates(check_cubical(m, axioms={law}), law) for m in mutants), law


def test_corner_agreement_caught_by_a_row_object_mutant(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, identity_functor(p))
    row = h.row_functors[0]
    moved = replace(row, ob_map=_with(row.ob_map, 0, (row.ob_map[0] + 1) % p.n_objects))
    rep = check_cubical(replace(h, row_functors=(moved, *h.row_functors[1:])), axioms={"corner-agreement"})
    assert _violates(rep, "corner-agreement")


# ---------------------------------------------------------------------------
# budget cutoffs


def _one_instance_at_a_time(col, kinds, rows, *laws, count=None):
    """The laws charged through ``Collector.eq``, one instance at a time."""
    for row in rows:
        for law, lhs, rhs in laws:
            col.eq(law, tuple(zip(kinds, row)), lhs(*row), rhs(*row))


def _failing(name):
    """A check on a failing mutant, as a function of the budget."""
    if name == "strict":
        f = _pseudo_host()
        i, s = _swaps(f.cod, f.sq_map)[0]
        strict = StrictDoubleFunctor(f.dom, f.cod, f.ob_map, f.h_map, f.v_map, _with(f.sq_map, i, s))
        return lambda budget: check_strict_functor(strict, budget=budget)
    if name == "pseudo":
        f = _pseudo_host()
        key, s = _swaps(f.cod, f.comp_h)[0]
        mutant = replace(f, comp_h={**f.comp_h, key: s}, unit_v={**f.unit_v, 0: _swaps(f.cod, f.unit_v)[0][1]})
        return lambda budget: check_double_pseudo_functor(mutant, budget=budget)
    h = _cubical_host(_sign(), _walking_two_cell())
    row = h.row_functors[0]
    i, s = _swaps(h.cod, row.sq_map)[0]
    key, t = _swaps(h.cod, h.hh)[0]
    mutant = replace(h, row_functors=(replace(row, sq_map=_with(row.sq_map, i, s)),), hh={**h.hh, key: t})
    return lambda budget: check_cubical(mutant, budget=budget)


@pytest.mark.parametrize("name", ["strict", "pseudo", "cubical"])
def test_every_cap_cuts_like_one_charge_per_instance(name, monkeypatch, every_cap):
    check = _failing(name)
    full, runs = every_cap(check)
    assert full.status == FAIL and len(full.violations) > 1
    for cap, (budget, rep) in enumerate(runs):
        assert rep.checked == min(cap, full.checked)
        with monkeypatch.context() as m:
            m.setattr(functors, "_laws", _one_instance_at_a_time)
            one_by_one = Budget(cap)
            ref = check(one_by_one)
        assert (rep.to_dict(), budget.used) == (ref.to_dict(), one_by_one.used)


# ---------------------------------------------------------------------------
# the strict functor's laws as whole lists, against one instance at a time


def _strict_instances(f):
    """The law instances of ``check_strict_functor`` on ``f`` in enumeration
    order, each ``(law, witness, lhs, rhs)``: the three boundary laws cell
    by cell, and the eight preservation laws over the sorted table keys,
    hid and vid together at each object.  The second list is empty unless
    every boundary holds: only then can its sides be pasted."""
    dom, cod, ob, h, v, sq = f.dom, f.cod, f.ob_map, f.h_map, f.v_map, f.sq_map
    boundaries = [
        (law, ((kind, x),), ends[image[x]], expect(*cell))
        for law, kind, cells, image, ends, expect in (
            ("h-boundary", HCELL, dom.hcells, h, cod.hcells, lambda s, t: (ob[s], ob[t])),
            ("v-boundary", VCELL, dom.vcells, v, cod.vcells, lambda s, t: (ob[s], ob[t])),
            ("sq-boundary", SQUARE, dom.squares, sq, cod.squares, lambda t, b, l, r: (h[t], h[b], v[l], v[r])),
        )
        for x, cell in enumerate(cells)
    ]
    if any(lhs != rhs for _, _, lhs, rhs in boundaries):
        return boundaries, []
    preservation = []
    for law, kind, name, cell in (
        ("hcomp1-preserved", HCELL, "hcomp1", h),
        ("vcomp1-preserved", VCELL, "vcomp1", v),
        ("hcomp2-preserved", SQUARE, "hcomp2", sq),
        ("vcomp2-preserved", SQUARE, "vcomp2", sq),
    ):
        image = getattr(cod, name)
        for (x, y), z in sorted(getattr(dom, name).items()):
            preservation.append((law, ((kind, x), (kind, y)), cell[z], image[(cell[x], cell[y])]))
    for a in range(dom.n_objects):
        preservation.append(("hid-preserved", ((OBJECT, a),), h[dom.hid[a]], cod.hid[ob[a]]))
        preservation.append(("vid-preserved", ((OBJECT, a),), v[dom.vid[a]], cod.vid[ob[a]]))
    for x in range(len(dom.hcells)):
        preservation.append(("sq-vid-preserved", ((HCELL, x),), sq[dom.sq_vid[x]], cod.sq_vid[h[x]]))
    for u in range(len(dom.vcells)):
        preservation.append(("sq-hid-preserved", ((VCELL, u),), sq[dom.sq_hid[u]], cod.sq_hid[v[u]]))
    return boundaries, preservation


def _strict_oracle(instances, budget):
    """``check_strict_functor`` over ``_strict_instances``, charged one
    instance at a time through ``Collector.eq`` and stopped at the budget;
    the preservation laws run only where no boundary instance failed."""
    col = Collector("strict-functor", budget)

    def record(part):
        for law, witness, lhs, rhs in part:
            if col.report.status == BUDGET_EXCEEDED:
                return
            col.eq(law, witness, lhs, rhs)

    boundaries, preservation = instances
    record(boundaries)
    if col.report.violations:
        col.assume("equational laws not evaluated: cell images have wrong boundaries")
    else:
        record(preservation)
    return col.done()


def _cell_map_mutants(f):
    """``f`` and every functor that differs from it in one entry of one
    cell map, the entry set to any other cell of the codomain."""
    cod = f.cod
    yield f
    for name, n in (("ob_map", cod.n_objects), ("h_map", len(cod.hcells)),
                    ("v_map", len(cod.vcells)), ("sq_map", len(cod.squares))):
        cells = getattr(f, name)
        for i, old in enumerate(cells):
            for new in range(n):
                if new != old:
                    yield replace(f, **{name: tuple(_with(cells, i, new))})


@pytest.mark.parametrize("host", ["diagonal leg", "sign x sign^T"])
def test_strict_functor_matches_one_instance_at_a_time(host):
    # the diagonal bundle's leg has no parallel squares, so no mutant of it
    # keeps every boundary and fails a preservation law
    if host == "diagonal leg":
        f, reached = diagonal_internal(quintet(zoo.cyclic_group_cat(2))).s, {("pass", False), (FAIL, True)}
    else:
        f = identity_functor(product(_sign(), transpose(_sign())))
        reached = {("pass", False), (FAIL, True), (FAIL, False)}
    outcomes = set()
    for mutant in _cell_map_mutants(f):
        full, instances = check_strict_functor(mutant), _strict_instances(mutant)
        outcomes.add((full.status, bool(full.assumptions)))
        for cap in range(full.checked + 2):
            ours, theirs = Budget(cap), Budget(cap)
            rep, ref = check_strict_functor(mutant, budget=ours), _strict_oracle(instances, theirs)
            assert (rep.status, rep.checked, ours.used) == (ref.status, ref.checked, theirs.used), cap
            assert (rep.violations, rep.assumptions) == (ref.violations, ref.assumptions), cap
    # a pass, a boundary failure and (where one exists) a preservation failure
    assert outcomes == reached


# ---------------------------------------------------------------------------
# structure families kept as lists until one is read

FAMILIES = ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")
PLAIN = ("dom", "cod", "ob_map", "h_map", "v_map", "sq_map", "name")


def _structure(f):
    """Every field of ``f``, each structure family as its list of entries,
    in insertion order."""
    return {n: list(getattr(f, n).items()) if n in FAMILIES else getattr(f, n) for n in PLAIN + FAMILIES}


def _bundles():
    sign = embed_two_category(zoo.sign_two_category())
    yield from (monoid_to_internal(make()) for make in (
        zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl, zoo.trivial_monoid_in_dbl))
    yield from (diagonal_internal(d) for d in (quintet(zoo.cyclic_group_cat(2)), sign))


def test_every_producer_reads_back_as_an_eager_build(monkeypatch):
    # each result of the list cores, recorded at the call beside the dicts
    # the families zip into there, then read one family at a time
    made, pending = [], functors._as_pseudo

    def recorded(f, keys=None):
        ks = functors._family_keys(f.dom) if keys is None else keys
        eager = functors.DoublePseudoFunctor(
            **{n: getattr(f, n) for n in PLAIN}, **{n: dict(zip(k, getattr(f, n))) for n, k in zip(FAMILIES, ks)})
        result = pending(f, keys)
        made.append((type(result), result, eager))
        return result

    monkeypatch.setattr(functors, "_as_pseudo", recorded)
    monkeypatch.setattr(internal, "_as_pseudo", recorded)
    for data in _bundles():
        internal.triple_pullbacks(data)
        internal.check_internal(data, registry=ComponentRegistry.of(), deep=False)
    assert len(made) > 50
    for i, (kind, f, eager) in enumerate(made):
        assert kind is functors._PendingFunctor
        getattr(f, FAMILIES[i % 8])
        assert type(f) is functors.DoublePseudoFunctor and kernel._held(f, "comp_h") is None
        assert list(vars(f)) == list(vars(eager)) == [field.name for field in fields(eager)]
        assert _structure(f) == _structure(eager) and f == eager


def test_the_constructor_check_builds_no_pending_family(family_builds):
    # the results of the list cores are not walked again: their keys are
    # snapshots of the domain's tables, their values pasted in the codomain
    d = quintet(zoo.cyclic_group_cat(3))
    leg = identity_functor(d)
    f = identity_pseudo(d)
    made = [f, compose_pseudo(identity_pseudo(d), f),
            functors.pair_pseudo_into_pullback(leg, leg, pullback(leg, leg), identity_pseudo(d), identity_pseudo(d))]
    # the composite reads its outer factor's families, and only those
    assert len(family_builds) == 1 and not any(g is h for g in family_builds for h in made)
    assert all(type(g) is functors._PendingFunctor for g in made)


# fields reassigned after construction, which are plain attributes: the
# checker runs the constructor's checks again and raises what it raises
EDITS = {
    "stray comp_h key": (lambda g: {"comp_h": {**g.comp_h, (9, 9): 0}},
                         "comp_h must be keyed on exactly the composable hcell pairs: stray key (9, 9)"),
    "dropped comp_h key": (lambda g: {"comp_h": dict(list(g.comp_h.items())[1:])},
                           "comp_h must be keyed on exactly the composable hcell pairs: missing key (0, 0)"),
    "h_map id out of range": (lambda g: {"h_map": g.h_map[:-1] + (99,)}, "h_map 2: index 99 out of range 0..2"),
}


@pytest.mark.parametrize("case", EDITS.values(), ids=EDITS.keys())
def test_a_family_or_map_edited_after_construction_raises_the_constructors_error(case):
    edit, message = case
    g = replace(identity_pseudo(quintet(zoo.walking_arrow())))
    for name, value in edit(g).items():
        setattr(g, name, value)
    with pytest.raises(StructureError) as built:
        replace(g)
    with pytest.raises(StructureError) as checked:
        check_double_pseudo_functor(g)
    assert str(checked.value) == str(built.value) == message


def test_a_cell_map_edited_after_construction_raises_the_constructors_error():
    d = quintet(zoo.walking_arrow())
    # a strict functor, and a pending pseudofunctor, whose families the
    # checker leaves unbuilt
    f, g = identity_functor(d), identity_pseudo(d)
    for functor, check in ((f, check_strict_functor), (g, check_double_pseudo_functor)):
        functor.h_map = functor.h_map[:-1] + (99,)
        with pytest.raises(StructureError) as checked:
            check(functor)
        assert str(checked.value) == "h_map 2: index 99 out of range 0..2"
    assert type(g) is functors._PendingFunctor


def _functor_text(f):
    from dblkit import dsl
    from dblkit.cli import _decl_category

    doc = dsl.Document()
    doc.add(_decl_category("Q", f.dom))
    doc.add(dsl.Declaration("functor", "F", f, meta={"strict": False, "dom": "Q", "cod": "Q"}))
    return dsl.serialize(doc)


def test_a_family_assigned_while_pending_is_the_one_read():
    # the assignment builds every family first, so the first read of
    # another family does not build over it; every reader then sees the
    # family assigned, as on a functor whose families were read first
    q = quintet(zoo.walking_arrow())
    qt = transpose(q)
    g, eager = identity_pseudo(q), identity_pseudo(q)
    eager.comp_h
    key, cell = next(iter(eager.comp_h.items()))
    moved = {**eager.comp_h, key: next(s for s, bnd in enumerate(q.squares) if bnd != q.squares[cell])}
    g.comp_h, eager.comp_h = moved, dict(moved)
    assert g.comp_v == eager.comp_v and g.comp_h == moved
    assert functors.transpose_pseudo(g, qt, qt).comp_v_inv == moved
    assert pseudo_equal(g, eager) and not pseudo_equal(g, identity_pseudo(q))
    assert _functor_text(g) == _functor_text(eager) != _functor_text(identity_pseudo(q))
    rep = check_double_pseudo_functor(g)
    assert not rep.passed and rep.to_dict() == check_double_pseudo_functor(eager).to_dict()
    # a stray key assigned is kept, and the checker raises the constructor's error on it
    g = identity_pseudo(q)
    g.comp_h = {(9, 9): 0}
    assert g.comp_v == eager.comp_v and g.comp_h == {(9, 9): 0}
    with pytest.raises(StructureError, match="comp_h must be keyed on exactly the composable hcell pairs"):
        check_double_pseudo_functor(g)


def test_a_pending_functor_compares_prints_replaces_and_copies_as_an_eager_build(setting):
    d = setting[0]
    eager = identity_pseudo(d)
    eager.comp_h
    other = replace(eager, name="other")
    fresh = lambda: identity_pseudo(d)  # noqa: E731
    f = fresh()
    # a probe for another attribute builds nothing
    assert not hasattr(f, "names") and type(f) is functors._PendingFunctor
    assert fresh() == eager and eager == fresh() and fresh() == fresh() and not fresh() != eager
    assert fresh() != other and other != fresh() and not fresh() == other
    assert repr(fresh()) == repr(eager)
    everything = {field.name: getattr(eager, field.name) for field in fields(eager)}
    for copied in (replace(fresh(), name="id"), replace(fresh(), **everything), copy.copy(fresh()),
                   copy.deepcopy(fresh()), pickle.loads(pickle.dumps(fresh()))):
        assert type(copied) is functors.DoublePseudoFunctor
        assert list(vars(copied)) == list(vars(eager))
        assert {n: list(getattr(copied, n).items()) for n in FAMILIES} == {n: list(getattr(eager, n).items()) for n in FAMILIES}
    # a shallow copy shares the families, as an eager build's does
    f = fresh()
    assert copy.copy(f).comp_h is f.comp_h


def test_editing_the_domain_tables_after_construction_does_not_reach_the_families():
    d = quintet(zoo.cyclic_group_cat(3))
    made = [identity_pseudo(d), compose_pseudo(identity_pseudo(d), identity_pseudo(d))]
    want = [identity_pseudo(d), compose_pseudo(identity_pseudo(d), identity_pseudo(d))]
    for f in want:
        f.comp_h
    for table in (d.hcomp1, d.vcomp1):
        entries = list(table.items())
        table.clear()
        table.update(reversed(entries[1:]))
    assert all(type(f) is functors._PendingFunctor for f in made)
    assert [_structure(f) for f in made] == [_structure(f) for f in want]


def _remade(f, name=None, at=None):
    """A fresh pending copy of the pending functor ``f``, on the same key
    snapshots; with ``name``, that family's entry ``at`` moved to the next
    square, or with ``at`` None its keys listed in reverse beside the same
    values."""
    held = {n: kernel._held(f, n) for n in FAMILIES}
    keys, lists = {n: held[n].keys for n in FAMILIES}, {n: list(held[n].values) for n in FAMILIES}
    if name is not None and at is None:
        keys[name] = keys[name][::-1]
    elif name is not None:
        lists[name][at] = (lists[name][at] + 1) % len(f.cod.squares)
    return functors._as_pseudo(SimpleNamespace(**{n: getattr(f, n) for n in PLAIN}, **lists), list(keys.values()))


def _built(f):
    f.comp_h
    return f


def test_pending_comparisons_agree_with_the_dict_path(every_cap):
    # equal pairs, single-entry mutants of each family's list against the
    # unmutated functor, and equal lists on keys listed in reverse (unequal
    # dicts), compared while pending and once built, under every cap
    ident = identity_pseudo(quintet(zoo.cyclic_group_cat(2)))
    left, right, _ = internal.nested_composition_functors(monoid_to_internal(zoo.min_monoid_in_dbl()))
    middle = len(kernel._held(left, "comp_h").keys) // 2
    pairs = [(ident, None, None, None), (left, None, right, None), (left, "comp_h", right, None)]
    pairs += [(ident, name, None, len(kernel._held(ident, name).keys) // 2) for name in FAMILIES]
    pairs += [(left, name, right, middle) for name in ("comp_h", "comp_v_inv")]
    for f, name, g, at in pairs:

        def make(ready=lambda f: f):
            return ready(_remade(f)), ready(_remade(g or f, name, at))

        def sweep(ready):
            def check(budget):
                col = Collector("compare", budget)
                kernel._compare_entries(col, "differ", kernel._cell_map_sections(*make(ready)))
                return col.done()

            full, runs = every_cap(check)
            return full.to_dict(), [(budget.used, rep.to_dict()) for budget, rep in runs]

        assert sweep(lambda f: f) == sweep(_built)
        assert pseudo_equal(*make()) == pseudo_equal(*make(_built))
        equal = name in (None, "comp_h_inv", "unit_h_inv", "comp_v_inv", "unit_v_inv")
        assert pseudo_equal(*make()) == equal, (name, at)
        if equal:
            # compared by their lists, the functors stay pending
            a, b = make()
            assert kernel._first_difference(kernel._cell_map_sections(a, b))[1] is None and pseudo_equal(a, b)
            assert type(a) is type(b) is functors._PendingFunctor
