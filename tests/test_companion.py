import itertools

import pytest

from dblkit import zoo
from dblkit.kernel import StructureError, quintet
from dblkit.functors import pseudo_from_strict
from dblkit.builders import (
    enumerate_cat_functors,
    enumerate_companion_horizontals,
    enumerate_plain_verticals,
    quintet_functor,
    registry_for,
    theta_from_plain_vertical,
)
from dblkit.companion import (
    CompanionPair,
    Connection,
    check_companion,
    check_connection,
    delta_inverse,
    find_connection,
    four_identities,
    horizontal_to_vertical,
    image_companion,
    roundtrip_check,
    vertical_to_horizontal,
    vertical_transformation_to_double,
)
from dblkit.transform import check_double_pnt, check_horizontal_pnt, check_vertical_pnt, theta_to_double


def test_identity_companion_trivial():
    d = quintet(zoo.walking_arrow())
    for a in range(d.n_objects):
        p = CompanionPair(d.vid[a], d.hid[a], d.sq_vid[d.hid[a]], d.sq_vid[d.hid[a]])
        assert check_companion(d, p).passed


def test_quintet_admits_total_connection():
    for name, c in zoo.small_category_catalog():
        d = quintet(c)
        conn = find_connection(d)
        rep = check_connection(conn)
        assert rep.passed, f"{name}: {rep.summary()}"
        # the canonical choice: the companion hcell of a morphism is itself
        for u, p in conn.items():
            assert p.hcell == u


def test_mutated_binding_cell_fails(bz3_setting):
    _, d, _, _, conn = bz3_setting
    p = conn[1]
    # any other square with eta's boundary shape fails the snake laws
    bad_eta = None
    for s in range(len(d.squares)):
        if s != p.eta and d.squares[s] == d.squares[p.eta]:
            bad_eta = s
    if bad_eta is None:
        # unique per boundary here, so take a different vcell's eta shape
        with pytest.raises(StructureError):
            Connection(d, [CompanionPair(p.vcell, p.hcell, p.eps, conn[2].eta)])
    else:
        assert not check_companion(d, CompanionPair(p.vcell, p.hcell, p.eps, bad_eta)).passed


def test_trade_output_passes(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    for a0 in verts:
        a1 = vertical_to_horizontal(a0, conn, dom_conn=conn)
        rep = check_horizontal_pnt(a1)
        assert rep.passed, rep.summary()
        assert a1.strong


def test_identity_trade_is_identity(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    ident = [a0 for a0 in verts if all(a0.comp[o] == d.vid[o] for o in range(d.n_objects))]
    assert ident
    a1 = vertical_to_horizontal(ident[0], conn)
    assert all(a1.comp[o] == d.hid[o] for o in range(d.n_objects))
    assert all(a1.delta[f] == d.sq_vid[f] for f in range(len(d.hcells)))


def test_roundtrips_exhaustive(bz3_setting):
    c, d, F, verts, conn = bz3_setting
    for a0 in verts:
        rep = roundtrip_check(a0, conn)
        assert rep.passed, rep.summary()


def test_roundtrips_between_distinct_functors():
    c = zoo.chain(2)
    d = quintet(c)
    arrows = zoo.walking_arrow()
    da = quintet(arrows)
    pairs = enumerate_cat_functors(arrows, c)
    assert len(pairs) >= 2
    conn = find_connection(d)
    total = 0
    for (ob1, mor1), (ob2, mor2) in itertools.product(pairs, repeat=2):
        F = pseudo_from_strict(quintet_functor(arrows, c, da, d, ob1, mor1))
        G = pseudo_from_strict(quintet_functor(arrows, c, da, d, ob2, mor2))
        for a0 in enumerate_plain_verticals(F, G):
            rep = roundtrip_check(a0, conn)
            assert rep.passed, rep.summary()
            total += 1
    assert total > 0


def test_reverse_direction_on_eligible_horizontals(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    found = enumerate_companion_horizontals(F, F, conn)
    assert len(found) == len(verts)
    for a1, ps in found:
        a0 = horizontal_to_vertical(a1, ps)
        assert check_vertical_pnt(a0).passed
        again = vertical_to_horizontal(a0, conn)
        assert again.comp == a1.comp
        assert again.nat == a1.nat
        assert again.delta == a1.delta


def test_horizontal_to_vertical_rejects_non_companion_component(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    a1, ps = enumerate_companion_horizontals(F, F, conn)[0]
    wrong = [conn[(p.vcell + 1) % 3] for p in ps]
    with pytest.raises(StructureError):
        horizontal_to_vertical(a1, wrong)


def test_four_identities_hold_and_mutations_break(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    for a0 in verts:
        rep = four_identities(a0, conn)
        assert rep.passed, rep.summary()
    # corrupt one eps: identities must fail
    a0 = verts[1]
    p = conn[a0.comp[0]]
    swapped = {u: q for u, q in conn.items()}
    # use the eta of a different companion as eps, boundary-adjusted via
    # the group structure: pick the unique other square of eps shape if any,
    # otherwise just permute the companion assignment
    other = conn[(a0.comp[0] + 1) % 3]
    try:
        broken = Connection(d, [CompanionPair(p.vcell, other.hcell, other.eps, other.eta)])
    except StructureError:
        broken = None
    if broken is not None:
        rep = four_identities(a0, broken)
        assert not rep.passed


def test_four_identities_individually_toggleable(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    from dblkit.companion import FOUR_IDENTITIES

    for name in FOUR_IDENTITIES:
        rep = four_identities(verts[1], conn, axioms={name})
        assert rep.passed
        assert rep.checked > 0


def test_delta_inverse_both_ways(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    for a0 in verts:
        a1 = vertical_to_horizontal(a0, conn)
        for u, pair in conn.items():
            inv = delta_inverse(a0, conn, pair)
            fwd = a1.delta[pair.hcell]
            assert d.vpaste(fwd, inv) == d.sq_vid[d.top(fwd)]
            assert d.vpaste(inv, fwd) == d.sq_vid[d.bottom(fwd)]


def test_delta_inverse_matches_transport_pasting(bz3_setting):
    # the inverse is the horizontal transport of the naturality square
    # through the image companions
    _, d, F, verts, conn = bz3_setting
    a0 = verts[2]
    a1 = vertical_to_horizontal(a0, conn)
    for u, pair in conn.items():
        inv = delta_inverse(a0, conn, pair)
        fp = image_companion(F, pair)
        gp = image_companion(F, pair)
        direct = d.hrow(fp.eta, a1.nat[pair.vcell], gp.eps)
        assert inv == direct


def test_image_companion_is_companion(bz3_setting):
    _, d, F, _, conn = bz3_setting
    for u, pair in conn.items():
        img = image_companion(F, pair)
        assert check_companion(d, img).passed


def test_lift_to_double_with_correspondences(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    for a0 in verts:
        dd, th, corr = vertical_transformation_to_double(a0, conn, dom_conn=conn)
        assert corr.passed, corr.summary()
        reg = registry_for(dd.v0, dd.h1)
        rep = check_double_pnt(dd, reg)
        assert rep.passed, rep.summary()


def test_lift_requires_plain_input(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    a0 = verts[1]
    # twist one comparison square to a non-identity parallel one if possible
    from dblkit.transform import VerticalPNT

    delta = list(a0.delta)
    cell = delta[0]
    alt = [s for s in range(len(d.squares)) if s != cell and d.squares[s] == d.squares[cell]]
    if alt:
        delta[0] = alt[0]
        twisted = VerticalPNT(a0.F, a0.G, a0.comp, a0.nat, delta, dict(a0.delta_inv))
        with pytest.raises(StructureError):
            vertical_transformation_to_double(twisted, conn)


def test_missing_companion_is_loud(bz3_setting):
    _, d, F, verts, conn = bz3_setting
    partial = Connection(d, [conn[0]])
    a0 = verts[1]  # its component is not vcell 0
    with pytest.raises(StructureError):
        vertical_to_horizontal(a0, partial)


def test_binding_cell_sign_mutation_breaks_identities(sign_setting):
    # the sign setting has parallel binding-cell candidates, so eta can be
    # corrupted without touching boundaries
    t, d, F = sign_setting
    good = Connection(d, [CompanionPair(d.vid[0], d.hid[0], 0, 0)])  # e+ both
    assert check_connection(good).passed
    verts = enumerate_plain_verticals(F, F)
    assert verts
    for a0 in verts:
        assert four_identities(a0, good).passed
    bad = Connection(d, [CompanionPair(d.vid[0], d.hid[0], 0, 1)])  # eta = e-
    assert not check_companion(d, bad[d.vid[0]]).passed
    broken = four_identities(verts[0], bad)
    assert not broken.passed


def test_minus_pair_is_companion_but_not_functorial(sign_setting):
    # (e-, e-) satisfies both snake laws, so it is a legitimate companion
    # pair; a functorial connection must still assign the identity companion
    # to the identity vcell, and the checker tells the two apart
    t, d, F = sign_setting
    minus_pair = CompanionPair(d.vid[0], d.hid[0], 1, 1)
    assert check_companion(d, minus_pair).passed
    minus = Connection(d, [minus_pair])
    rep = check_connection(minus)
    assert not rep.passed
    assert all(v.axiom in ("identity-companion", "composite-companion") for v in rep.violations)
    # distinct choices are distinct data; the stated laws still hold for them
    for a0 in enumerate_plain_verticals(F, F):
        assert four_identities(a0, minus).passed
        assert roundtrip_check(a0, minus).passed


def test_three_way_naturality_equivalence(sign_setting):
    # the naturality axiom for the traded horizontal side, the coupling
    # naturality for the generated t-squares, and the naturality axiom for
    # the vertical side stand or fall together
    from dblkit.builders import theta_from_plain_vertical
    from dblkit.functors import StrictDoubleFunctor, pseudo_from_strict
    from dblkit.transform import (
        VerticalPNT,
        check_double_pnt,
        check_horizontal_pnt,
        check_vertical_pnt,
        theta_to_double,
    )
    from dblkit.builders import registry_for

    t, d, F = sign_setting
    conn = Connection(d, [CompanionPair(d.vid[0], d.hid[0], 0, 0)])

    # a functor twist that swaps the signed squares on the unit 1-cell
    swap = list(range(len(d.squares)))
    swap[0], swap[1] = 1, 0
    twisted = pseudo_from_strict(
        StrictDoubleFunctor(d, d, [0], range(len(d.hcells)), [0], swap, name="twist")
    )

    def instance(G):
        a0 = VerticalPNT(
            F,
            G,
            [d.vid[0]],
            [d.sq_vid[f] for f in range(len(d.hcells))],
            [d.sq_hid[d.vid[0]]],
            {0: d.sq_hid[d.vid[0]]},
        )
        a1 = vertical_to_horizontal(a0, conn)
        dd = theta_to_double(theta_from_plain_vertical(a0, conn))
        return a0, a1, dd

    for G, expect in ((F, True), (twisted, False)):
        a0, a1, dd = instance(G)
        ax1_h = not [
            v
            for v in check_horizontal_pnt(a1, axioms={"pnt-naturality"}).violations
        ]
        ax1_v = not [
            v for v in check_vertical_pnt(a0, axioms={"pnt-naturality"}).violations
        ]
        coupling = not [
            v
            for v in check_double_pnt(dd, registry_for(dd.v0, dd.h1)).violations
            if v.axiom == "coupling-naturality-t"
        ]
        assert ax1_h == ax1_v == coupling == expect


def test_delta_mutation_breaks_comparison_axioms(sign_setting):
    # swapping one comparison square for its parallel twin must surface in
    # the comparison-functoriality axioms
    from dblkit.transform import HorizontalPNT, check_horizontal_pnt, identity_horizontal

    t, d, F = sign_setting
    a = identity_horizontal(F)
    delta = list(a.delta)
    delta[0] = 1  # minus square on the unit 1-cell
    mutated = HorizontalPNT(F, F, a.comp, a.nat, delta, {})
    rep = check_horizontal_pnt(mutated)
    assert not rep.passed
    assert any(v.axiom in ("pnt-hcomp-delta", "pnt-hunit-delta") for v in rep.violations)


# a report cut by its budget passes no guard


def test_find_connection_rejects_capped_snake_reports(monkeypatch):
    from dblkit import companion
    from dblkit.report import Budget

    original = companion.check_companion
    monkeypatch.setattr(companion, "check_companion", lambda d, p, budget=None: original(d, p, budget=Budget(0)))
    with pytest.raises(StructureError, match="admits no companion"):
        find_connection(quintet(zoo.cyclic_group_cat(2)))


def _scanned_connection(d, wanted):
    """The first companion pair of each vcell of ``wanted`` in a full scan:
    the hcells on its boundary, then the binding squares eta and eps, each
    in ascending id order."""
    pairs = []
    for u in wanted:
        a, b = d.vcells[u]
        candidates = (
            CompanionPair(u, f, eps, eta)
            for f, h in enumerate(d.hcells) if h == (a, b)
            for eta, s in enumerate(d.squares) if s == (d.hid[a], f, d.vid[a], u)
            for eps, s in enumerate(d.squares) if s == (f, d.hid[b], u, d.vid[b])
        )
        pairs.append(next(p for p in candidates if check_companion(d, p).passed))
    return pairs


def test_find_connection_picks_the_pairs_of_a_full_scan(sign_setting):
    from dblkit.internal import diagonal_internal, monoid_to_internal, nested_composition_functors

    _, sign, _ = sign_setting  # parallel binding squares: the first one found must be kept
    diagonal = diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    monoid = zoo.commutative_monoid_in_dbl()
    bundle = monoid_to_internal(monoid)
    hosts = [sign, quintet(zoo.walking_iso()), diagonal.p, monoid.carrier, bundle.p, nested_composition_functors(bundle)[2]]
    hosts += [quintet(c) for _, c in zoo.small_category_catalog()]
    for d in hosts:
        assert list(find_connection(d).pairs.values()) == _scanned_connection(d, range(len(d.vcells)))
    odd = [u for u in range(len(sign.vcells)) if u % 2]
    assert list(find_connection(sign, reversed(odd)).pairs.values()) == _scanned_connection(sign, odd)


def test_roundtrip_cut_by_its_budget_adds_no_diagnosis(bz3_setting):
    from dblkit.report import Budget

    c, d, F, verts, conn = bz3_setting
    for cap in (0, 1, 5):
        budget = Budget(cap)
        rep = roundtrip_check(verts[0], conn, budget=budget)
        assert rep.status == "budget-exceeded" and not rep.violations
        assert rep.checked == cap and budget.used == cap + 1
