import pytest

from dblkit import zoo
from dblkit.kernel import StructureError, product, pullback, quintet
from dblkit.functors import (
    PSEUDO_FUNCTOR_AXIOMS,
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


def test_wrong_boundary_map_is_structural_error(setting):
    d1, _, _ = setting
    f = identity_functor(d1)
    bad = list(f.sq_map)
    # send a square to one with a different boundary when possible
    for s in range(len(d1.squares)):
        for s2 in range(len(d1.squares)):
            if d1.squares[s2] != d1.squares[s]:
                bad[s] = s2
                from dblkit.functors import StrictDoubleFunctor

                broken = StrictDoubleFunctor(d1, d1, f.ob_map, f.h_map, f.v_map, bad)
                with pytest.raises(StructureError):
                    check_strict_functor(broken)
                return


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
        "cubical": lambda axioms: check_cubical(cubical_from_product_functor(d1, d2, p, identity_functor(p)), axioms=axioms),
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


def test_pullback_projections_strict(setting):
    d1, d2, p = setting
    p1, p2 = product_projections(d1, d2, p)
    pb = pullback(p2, p2)
    q1, q2 = pullback_projections(p2, p2, pb)
    assert check_strict_functor(q1).passed
    assert check_strict_functor(q2).passed


def test_cubical_from_diagonal_passes(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, p, identity_functor(p))
    rep = check_cubical(h)
    assert rep.passed, rep.summary()


def test_cubical_unit_law_example(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, p, identity_functor(p))
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
    h = cubical_from_product_functor(d, d, p, identity_functor(p))
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
    h = cubical_from_product_functor(d1, d2, p, identity_functor(p))
    c = curry(h)
    h2 = uncurry(c, d1, d2, p)
    assert h2.hh == h.hh and h2.vv == h.vv and h2.hv == h.hv and h2.vh == h.vh
    assert all(strict_equal(x, y) for x, y in zip(h2.row_functors, h.row_functors))
    assert all(strict_equal(x, y) for x, y in zip(h2.col_functors, h.col_functors))


def test_curry_boundary_shapes(setting):
    d1, d2, p = setting
    h = cubical_from_product_functor(d1, d2, p, identity_functor(p))
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
    h = cubical_from_product_functor(d1, d2, p, identity_functor(p))
    c = curry(h)
    # identity mixed squares curry to identity transformation data
    for F, data in c.on_hcells.items():
        for f, s in data["hh"].items():
            assert s == p.sq_vid[p.top(s)]
    for U, data in c.on_vcells.items():
        for u, s in data["vv"].items():
            assert s == p.sq_hid[p.left(s)]
