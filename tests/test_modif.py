import itertools
from dataclasses import replace


from dblkit import zoo
from dblkit.kernel import embed_two_category, quintet
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.builders import theta_from_plain_vertical
from dblkit.companion import CompanionPair
from dblkit.modif import (
    DoubleModification,
    ThetaModification,
    check_horizontal_side,
    check_modification,
    check_theta_modification,
    check_vertical_side,
    hcomp_modif,
    identity_modification,
    tcomp_modif,
    vcomp_modif,
    vertical_modif_to_horizontal,
)
from dblkit.transform import (
    ComponentRegistry,
    DoublePNT,
    HorizontalPNT,
    identity_double,
    identity_horizontal,
    identity_theta,
    identity_vertical,
    theta_to_double,
)


def sign_doubles(sign_setting):
    t, d, F = sign_setting
    out = {}
    for c_sign in (0, 1):
        for d_sign in (0, 1):
            tt = [2 * f + c_sign for f in range(len(d.hcells))]
            rr = [d_sign]
            out[(c_sign, d_sign)] = DoublePNT(
                identity_vertical(F), identity_horizontal(F), tt, rr
            )
    return out


def sign_modification(sign_setting, src_key, tgt_key, a0_sign, a1_sign):
    t, d, F = sign_setting
    doubles = sign_doubles(sign_setting)
    return DoubleModification(
        doubles[src_key],
        doubles[tgt_key],
        [a0_sign],  # the signed square on the unit boundary
        [a1_sign],
    )


def test_identity_modification_passes(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    for a0 in verts:
        dd = theta_to_double(theta_from_plain_vertical(a0, conn, dom_conn=conn))
        m = identity_modification(dd)
        assert check_modification(m).passed


def test_sign_modifications_exist_and_check(sign_setting):
    # between the (c,d) and (c',d') coupled pairs a modification with
    # component signs (s0, s1) exists exactly when s0*s1 = c/c' = d/d'
    for (c1, d1), (c2, d2) in itertools.product(
        itertools.product((0, 1), repeat=2), repeat=2
    ):
        for s0, s1 in itertools.product((0, 1), repeat=2):
            m_valid = (s0 ^ s1) == (c1 ^ c2) and (c1 ^ c2) == (d1 ^ d2)
            try:
                m = sign_modification(sign_setting, (c1, d1), (c2, d2), s0, s1)
            except Exception:
                continue
            rep = check_modification(m)
            assert rep.passed == m_valid, (
                (c1, d1),
                (c2, d2),
                (s0, s1),
                rep.summary(),
            )


def test_sign_mutation_of_a1_breaks_coupling(sign_setting):
    m = sign_modification(sign_setting, (1, 1), (0, 0), 1, 0)
    assert check_modification(m).passed
    mutated = DoubleModification(m.src, m.tgt, m.a0, [1])
    rep = check_modification(mutated)
    assert not rep.passed
    assert any(v.axiom in ("coupling-t", "coupling-r") for v in rep.violations)


def test_one_sided_checks(sign_setting):
    t, d, F = sign_setting
    a1s = identity_horizontal(F)
    # the minus square on each hcell is a nonidentity modification from the
    # identity transformation to itself
    rep = check_horizontal_side(a1s, a1s, [1])
    assert rep.passed
    rep = check_vertical_side(identity_vertical(F), identity_vertical(F), [1])
    assert rep.passed


def test_theta_modification_is_modification(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    th = theta_from_plain_vertical(verts[0], conn, dom_conn=conn)
    cod = d
    m = ThetaModification(
        th,
        th,
        [cod.sq_hid[th.v0.comp[o]] for o in range(d.n_objects)],
        [cod.sq_vid[th.h1.comp[o]] for o in range(d.n_objects)],
    )
    rep = check_theta_modification(m)
    assert rep.passed, rep.summary()


def test_every_cap_cuts_the_theta_modification_check_to_a_prefix(sign_setting, every_cap):
    # the identity modification of the identity theta pair on the embedded
    # sign 2-category, and the same with its first a0 cell moved to the
    # parallel square
    _, d, F = sign_setting
    th = identity_theta(F)
    m = ThetaModification(th, th, [d.sq_hid[u] for u in th.v0.comp], [d.sq_vid[f] for f in th.h1.comp])
    moved = next(x for x in range(len(d.squares)) if x != m.a0[0] and d.squares[x] == d.squares[m.a0[0]])
    reports = [every_cap(lambda budget, a=a: check_theta_modification(a, budget=budget))[0]
               for a in (m, replace(m, a0=[moved, *m.a0[1:]]))]
    assert [(rep.status, len(rep.violations) > 1) for rep in reports] == [("pass", False), ("fail", True)]


def test_theta_modification_on_collapse_monoid():
    t2 = zoo.collapse_monoid_two_category()
    d = embed_two_category(t2)
    F = pseudo_from_strict(identity_functor(d))
    from dblkit.transform import ThetaPNT, VerticalPNT

    # theta pair with component x and generating square the collapse cell
    K = 2  # index of k : x => 1 among the squares
    X = 1  # the 1-cell x as an hcell
    v0 = identity_vertical(F)
    h1 = HorizontalPNT(
        F,
        F,
        [X],
        [d.sq_vid[X]],
        [d.sq_vid[X], d.sq_vid[X]],
        {0: d.sq_vid[X], 1: d.sq_vid[X]},
    )
    alpha = ThetaPNT(v0, h1, [K])
    reg = ComponentRegistry.of(hcells={X}, vcells={d.vid[0]})
    from dblkit.transform import check_theta

    assert check_theta(alpha, reg).passed
    ident = ThetaPNT(identity_vertical(F), identity_horizontal(F), [d.sq_vid[d.hid[0]]])
    # the collapse cell is a modification from alpha to the identity pair
    m = ThetaModification(alpha, ident, [d.sq_hid[d.vid[0]]], [K])
    rep = check_theta_modification(m)
    assert rep.passed, rep.summary()


def test_three_compositions_identity_absorption(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    dd = theta_to_double(theta_from_plain_vertical(verts[1], conn, dom_conn=conn))
    m = identity_modification(dd)
    assert tcomp_modif(m, m).a0 == m.a0
    v = vcomp_modif(m, identity_modification(identity_double(F)))
    assert check_modification(v).passed
    h = hcomp_modif(identity_modification(identity_double(F)), m)
    rep = check_modification(h)
    assert rep.passed, rep.summary()


def test_transversal_composition_strictly_associative(sign_setting):
    doubles = sign_doubles(sign_setting)
    # endomodifications of the (0,0) pair: signs with s0 == s1
    mods = [
        sign_modification(sign_setting, (0, 0), (0, 0), s, s) for s in (0, 1)
    ]
    for a, b, c in itertools.product(mods, repeat=3):
        lhs = tcomp_modif(c, tcomp_modif(b, a))
        rhs = tcomp_modif(tcomp_modif(c, b), a)
        assert lhs.a0 == rhs.a0 and lhs.a1 == rhs.a1
        assert check_modification(lhs).passed


def test_vertical_composition_strictly_associative(sign_setting):
    mods = [sign_modification(sign_setting, (0, 0), (0, 0), s, s) for s in (0, 1)]
    for a, b, c in itertools.product(mods, repeat=3):
        lhs = vcomp_modif(a, vcomp_modif(b, c))
        rhs = vcomp_modif(vcomp_modif(a, b), c)
        assert lhs.a0 == rhs.a0 and lhs.a1 == rhs.a1
        assert check_modification(lhs).passed


def test_horizontal_composition_associative_on_strict(sign_setting):
    mods = [sign_modification(sign_setting, (0, 0), (0, 0), s, s) for s in (0, 1)]
    for a, b, c in itertools.product(mods, repeat=3):
        lhs = hcomp_modif(c, hcomp_modif(b, a))
        rhs = hcomp_modif(hcomp_modif(c, b), a)
        assert lhs.a0 == rhs.a0 and lhs.a1 == rhs.a1
        assert check_modification(rhs).passed


def test_interchange_of_vertical_and_transversal(sign_setting):
    mods = [sign_modification(sign_setting, (0, 0), (0, 0), s, s) for s in (0, 1)]
    for a, b, a2, b2 in itertools.product(mods, repeat=4):
        lhs = vcomp_modif(tcomp_modif(b, a), tcomp_modif(b2, a2))
        rhs = tcomp_modif(vcomp_modif(b, b2), vcomp_modif(a, a2))
        assert lhs.a0 == rhs.a0 and lhs.a1 == rhs.a1


def test_vertical_modif_to_horizontal(sign_setting):
    t, d, F = sign_setting
    doubles = sign_doubles(sign_setting)
    pair_plus = CompanionPair(d.vid[0], d.hid[0], 0, 0)
    src = doubles[(0, 0)]
    # an invertible nonidentity vertical-side component: the minus square
    m, a1_inv = vertical_modif_to_horizontal([1], src, src, [pair_plus], [pair_plus])
    rep = check_modification(m)
    assert rep.passed, rep.summary()
    # the produced horizontal side inverts against the returned inverse
    for o in range(d.n_objects):
        assert d.vpaste(m.a1[o], a1_inv[o]) == d.sq_vid[d.top(m.a1[o])]
        assert d.vpaste(a1_inv[o], m.a1[o]) == d.sq_vid[d.bottom(m.a1[o])]


def test_hcomp_modif_accepts_equal_categories_built_apart():
    # two construction calls give two equal category objects
    mods = []
    for _ in range(2):
        F = pseudo_from_strict(identity_functor(quintet(zoo.cyclic_group_cat(3))))
        mods.append(identity_modification(identity_double(F)))
    rep = check_modification(hcomp_modif(mods[1], mods[0]))
    assert rep.passed, rep.summary()
