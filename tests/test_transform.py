import itertools
import random
from dataclasses import replace

import pytest

from dblkit import transform, zoo
from dblkit.kernel import embed_two_category, quintet
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.report import Budget
from dblkit.builders import (
    quintet_functor,
    random_theta_instance,
    registry_for,
    theta_from_plain_vertical,
)
from dblkit.transform import (
    DOUBLE_PNT_AXIOMS,
    ComponentRegistry,
    DoublePNT,
    HorizontalPNT,
    ThetaPNT,
    check_double_pnt,
    check_horizontal_pnt,
    check_theta,
    check_vertical_pnt,
    hcomp_double,
    hcomp_horizontal,
    hcomp_theta,
    hcomp_vertical,
    identity_double,
    identity_horizontal,
    identity_theta,
    identity_vertical,
    theta_candidates_from_double,
    theta_to_double,
    transpose_double,
    vcomp_double,
    vcomp_horizontal,
    vcomp_theta,
    vcomp_vertical,
    whisker_functor,
)


@pytest.fixture(scope="module")
def bz3(bz3_setting):
    return bz3_setting


def all_doubles(bz3):
    c, d, F, verts, conn = bz3
    out = []
    for a0 in verts:
        th = theta_from_plain_vertical(a0, conn, dom_conn=conn)
        out.append(theta_to_double(th))
    return out


def test_identity_transformations_pass(bz3):
    _, d, F, _, _ = bz3
    assert check_horizontal_pnt(identity_horizontal(F)).passed
    assert check_vertical_pnt(identity_vertical(F)).passed
    reg = ComponentRegistry.of(hcells=set(identity_horizontal(F).comp), vcells=set(identity_vertical(F).comp))
    assert check_double_pnt(identity_double(F), reg).passed


def test_identity_double_components_are_identity_squares(bz3):
    _, d, F, _, _ = bz3
    idd = identity_double(F)
    for f in range(len(d.hcells)):
        assert idd.t[f] == d.sq_vid[F.h(f)]
        assert idd.v0.nat[f] == d.sq_vid[F.h(f)]
    for u in range(len(d.vcells)):
        assert idd.r[u] == d.sq_hid[F.v(u)]
        assert idd.v0.delta[u] == d.sq_hid[F.v(u)]


def test_registry_required_for_pass(bz3):
    _, _, F, _, _ = bz3
    rep = check_double_pnt(identity_double(F), registry=None)
    assert rep.status == "inconclusive"
    assert rep.assumptions


def test_enumerated_verticals_pass_and_trade(bz3):
    c, d, F, verts, conn = bz3
    assert len(verts) == 3
    for a0 in verts:
        assert check_vertical_pnt(a0).passed
        th = theta_from_plain_vertical(a0, conn, dom_conn=conn)
        assert check_horizontal_pnt(th.h1).passed


def test_theta_checks_and_expansion(bz3):
    c, d, F, verts, conn = bz3
    for a0 in verts:
        th = theta_from_plain_vertical(a0, conn, dom_conn=conn)
        reg = registry_for(th.v0, th.h1)
        assert check_theta(th, reg).passed
        dd = theta_to_double(th)
        rep = check_double_pnt(dd, reg)
        assert rep.passed, rep.summary()


def test_theta_reverse_candidates_recover_t(bz3):
    c, d, F, verts, conn = bz3
    for a0 in verts:
        dd = theta_to_double(theta_from_plain_vertical(a0, conn, dom_conn=conn))
        t_theta, r_theta = theta_candidates_from_double(dd)
        rebuilt = ThetaPNT(dd.v0, dd.h1, t_theta)
        assert theta_to_double(rebuilt).t == dd.t
        rebuilt_r = ThetaPNT(dd.v0, dd.h1, r_theta)
        assert theta_to_double(rebuilt_r).r == dd.r


def test_randomized_theta_instances_pass():
    rng = random.Random(20240817)
    cats = zoo.small_category_catalog()
    seen = 0
    while seen < 40:
        inst = random_theta_instance(rng, cats)
        if inst is None:
            continue
        th, conn, reg = inst
        assert check_theta(th, reg).passed
        dd = theta_to_double(th)
        rep = check_double_pnt(dd, reg)
        assert rep.passed, rep.summary()
        seen += 1


def test_missing_inverses_are_charged_instances(bz3, every_cap):
    # a registered component with no stored inverse is one violated
    # instance: a capped run charges it before recording it
    _, d, F, _, _ = bz3
    h = identity_horizontal(F)
    h1 = HorizontalPNT(h.F, h.G, h.comp, h.nat, h.delta, {f: s for f, s in h.delta_inv.items() if f != 0})
    dd, th = identity_double(F), identity_theta(F)
    reg = ComponentRegistry.of(hcells={0})
    checks = {
        "double": lambda budget: check_double_pnt(DoublePNT(dd.v0, h1, dd.t, dd.r), reg, budget=budget),
        "theta": lambda budget: check_theta(ThetaPNT(th.v0, h1, th.theta), reg, budget=budget),
    }
    for name, check in checks.items():
        full, runs = every_cap(check)
        assert [v.axiom for v in full.violations] == ["component-invertibility"], name
        assert [rep.checked for _, rep in runs] == [*range(full.checked + 1), full.checked], name
        assert all(len(rep.violations) <= rep.checked for _, rep in runs), name


def test_every_cap_cuts_the_pair_checks_to_a_prefix(sign_setting, every_cap):
    # the coupled and the theta check on the embedded sign 2-category, as
    # built and with one cell moved to its parallel square: the horizontal
    # half's first delta cell, or (coupled) the t-square at hcell 1
    _, d, F = sign_setting
    reg = ComponentRegistry.of(hcells={d.hid[0]}, vcells={d.vid[0]})
    dd, th = sign_doubles(sign_setting)[(0, 0)], identity_theta(F)

    def parallel(s):
        return next(x for x in range(len(d.squares)) if x != s and d.squares[x] == d.squares[s])

    h1 = replace(th.h1, delta=(parallel(th.h1.delta[0]), *th.h1.delta[1:]))
    t = [*dd.t[:1], parallel(dd.t[1]), *dd.t[2:]]
    doubles = (dd, DoublePNT(dd.v0, h1, dd.t, dd.r), DoublePNT(dd.v0, dd.h1, t, dd.r))
    thetas = (th, ThetaPNT(th.v0, h1, th.theta))
    reports = [every_cap(lambda budget, a=a: check_double_pnt(a, reg, budget=budget))[0] for a in doubles]
    reports += [every_cap(lambda budget, a=a: check_theta(a, reg, budget=budget))[0] for a in thetas]
    assert [(rep.status, len(rep.violations) > 1) for rep in reports] == [
        ("pass", False), ("fail", True), ("fail", True), ("pass", False), ("fail", True)]


def test_double_pnt_evaluates_nothing_past_its_budget(bz3, monkeypatch):
    # only coupling-composite pastes a t-composite, one per instance, so a
    # capped run pastes at most one per unit of budget
    _, d, F, _, _ = bz3
    reg = ComponentRegistry.of(hcells=set(identity_horizontal(F).comp), vcells=set(identity_vertical(F).comp))
    dd = identity_double(F)
    calls = []
    paste = transform._t_composite
    monkeypatch.setattr(transform, "_t_composite", lambda *args: calls.append(1) or paste(*args))
    full = check_double_pnt(dd, reg)
    assert full.passed and calls
    for cap in (0, 1, 7, full.checked // 2, full.checked - 1):
        calls.clear()
        rep = check_double_pnt(dd, reg, budget=Budget(cap))
        assert rep.status == "budget-exceeded" and rep.checked == cap
        assert len(calls) <= cap, (cap, len(calls))


def _t_assoc_failures(a):
    """The triples (x, y, z) of the domain's hcells at which the t-composite
    pasted over (x;y, z) differs from the one pasted over (x, y;z): the
    instances at which the law ``coupling-assoc`` failed, before
    ``check_double_pnt`` stopped stating it."""
    comp = a.F.dom.hcomp1
    return [(x, y, z) for (x, y), xy in sorted(comp.items()) for z in range(len(a.F.dom.hcells))
            if (xy, z) in comp and (y, z) in comp
            and transform._t_composite(a, xy, z) != transform._t_composite(a, x, comp[(y, z)])]


def test_coupling_composite_fails_wherever_the_t_composites_are_not_associative(verdict_dump):
    # the seeded inputs of the verdict dump's transformation mutants (the
    # sign pairs over the identity and the cocycle functor, the identity
    # theta pairs there, the collapse theta pairs, and every boundary-keeping
    # single-square mutant of each): wherever the t-composites fail to
    # associate, coupling-composite-t fails, which is why the associativity
    # is implied and no longer enumerated
    sign = embed_two_category(zoo.sign_two_category())
    settings = []
    for G in (pseudo_from_strict(identity_functor(sign)), zoo.sign_cocycle_pseudofunctor()):
        reg = ComponentRegistry.of(hcells={sign.hid[0]}, vcells={sign.vid[0]})
        settings += [(sign, a, reg) for _, a in sorted(verdict_dump._sign_pairs(G).items())]
        settings.append((sign, identity_theta(G), reg))
    dc, _, alpha, ident, creg = verdict_dump._collapse_theta()
    settings += [(dc, alpha, creg), (dc, ident, creg)]
    inputs = [(a, reg) for d, a0, reg in settings for a in (a0, *(m for _, m in verdict_dump._square_mutants(d, a0)))]
    failing = 0
    for a, reg in inputs:
        a = theta_to_double(a) if isinstance(a, ThetaPNT) else a
        if _t_assoc_failures(a):
            failing += 1
            assert "coupling-composite-t" in {v.axiom for v in check_double_pnt(a, reg).violations}
    # the 32 inputs whose coupling-assoc failed, each recorded registered and
    # unregistered in the dump's sign cocycle and sign identity series
    assert failing == 32 and len(inputs) > failing


def test_breaking_t_breaks_coupling(sign_setting):
    # needs parallel squares on one boundary, which the sign setting has
    t2, d, F = sign_setting
    doubles = sign_doubles(sign_setting)
    dd = doubles[(0, 0)]
    reg = ComponentRegistry.of(hcells={d.hid[0]}, vcells={d.vid[0]})
    assert check_double_pnt(dd, reg).passed
    t = list(dd.t)
    cell = t[1]
    alt = next(s for s in range(len(d.squares)) if s != cell and d.squares[s] == d.squares[cell])
    t[1] = alt
    broken = DoublePNT(dd.v0, dd.h1, t, dd.r)
    rep = check_double_pnt(broken, reg)
    assert not rep.passed
    assert any(v.axiom.startswith("coupling") for v in rep.violations)


def test_vertical_composition_strictly_associative(bz3):
    doubles = all_doubles(bz3)
    reg = registry_for(*[x.v0 for x in doubles], *[x.h1 for x in doubles])
    for a, b in itertools.product(doubles, repeat=2):
        assert check_double_pnt(vcomp_double(a, b), reg).passed
    for a, b, c in itertools.product(doubles, repeat=3):
        lhs = vcomp_double(vcomp_double(a, b), c)
        rhs = vcomp_double(a, vcomp_double(b, c))
        assert lhs.t == rhs.t and lhs.r == rhs.r
        assert lhs.v0.nat == rhs.v0.nat and lhs.h1.delta == rhs.h1.delta


def test_vertical_composition_unital(bz3):
    _, _, F, _, _ = bz3
    for dd in all_doubles(bz3):
        ident = identity_double(F)
        left = vcomp_double(ident, dd)
        right = vcomp_double(dd, ident)
        assert left.t == dd.t and right.t == dd.t
        assert left.r == dd.r and right.r == dd.r


def test_horizontal_composites_pass(bz3):
    doubles = all_doubles(bz3)
    reg = registry_for(*[x.v0 for x in doubles], *[x.h1 for x in doubles])
    for a, b in itertools.product(doubles, repeat=2):
        rep = check_double_pnt(hcomp_double(b, a), reg)
        assert rep.passed, rep.summary()


def test_pnt_compositions_pass(bz3):
    doubles = all_doubles(bz3)
    hors = [x.h1 for x in doubles]
    vers = [x.v0 for x in doubles]
    for a, b in itertools.product(hors, repeat=2):
        assert check_horizontal_pnt(vcomp_horizontal(a, b)).passed
        assert check_horizontal_pnt(hcomp_horizontal(b, a)).passed
    for a, b in itertools.product(vers, repeat=2):
        assert check_vertical_pnt(vcomp_vertical(a, b)).passed
        assert check_vertical_pnt(hcomp_vertical(b, a)).passed


def test_strict_case_reduces_to_classical_composition(bz3):
    # with identity comparison data, the stacked composite's components are
    # the table composites and the comparison squares stay pasted identities
    c, d, F, verts, conn = bz3
    hors = [theta_from_plain_vertical(v, conn, dom_conn=conn).h1 for v in verts]
    for a, b in itertools.product(hors, repeat=2):
        v = vcomp_horizontal(a, b)
        for o in range(d.n_objects):
            assert v.comp[o] == d.hcomp(a.comp[o], b.comp[o])
        for u in range(len(d.vcells)):
            assert v.nat[u] == d.hpaste(a.nat[u], b.nat[u])


def test_whisker_by_strict_functor_maps_delta(bz3):
    c, d, F, verts, conn = bz3
    a1 = theta_from_plain_vertical(verts[1], conn, dom_conn=conn).h1
    w = whisker_functor(F, a1)
    # identity functor with identity structure cells: images on the nose
    assert w.comp == a1.comp
    assert w.delta == a1.delta
    assert check_horizontal_pnt(w).passed


def test_whisker_by_nonidentity_endofunctor(bz3):
    c, d, F, verts, conn = bz3
    # inversion is a group automorphism, hence a strict endofunctor
    inv_map = tuple((3 - m) % 3 for m in range(3))
    H = pseudo_from_strict(quintet_functor(c, c, d, d, (0,), inv_map))
    a1 = theta_from_plain_vertical(verts[1], conn, dom_conn=conn).h1
    w = whisker_functor(H, a1)
    rep = check_horizontal_pnt(w)
    assert rep.passed, rep.summary()
    assert w.comp[0] == H.h(a1.comp[0])


def test_theta_compositions(bz3):
    c, d, F, verts, conn = bz3
    thetas = [theta_from_plain_vertical(v, conn, dom_conn=conn) for v in verts]
    reg = registry_for(*[t.v0 for t in thetas], *[t.h1 for t in thetas])
    for a, b in itertools.product(thetas, repeat=2):
        vv = vcomp_theta(a, b)
        assert check_theta(vv, reg).passed
        hh = hcomp_theta(b, a)
        rep = check_theta(hh, reg)
        assert rep.passed, rep.summary()


def test_identity_theta_expands_to_identity_double(bz3):
    _, _, F, _, _ = bz3
    th = identity_theta(F)
    dd = theta_to_double(th)
    ident = identity_double(F)
    assert dd.t == ident.t and dd.r == ident.r


def test_transpose_double_is_involution(bz3):
    c, d, F, verts, conn = bz3
    dd = theta_to_double(theta_from_plain_vertical(verts[2], conn, dom_conn=conn))
    tt = transpose_double(transpose_double(dd))
    assert tt.t == dd.t and tt.r == dd.r
    assert tt.v0.comp == dd.v0.comp and tt.h1.comp == dd.h1.comp


# ---------------------------------------------------------------------------
# sign-category coupled pairs: nonidentity coupling data


def sign_doubles(sign_setting):
    """The four coupled pairs on the embedded sign 2-category with identity
    components but freely signed coupling squares."""
    t, d, F = sign_setting
    out = {}
    for c_sign in (0, 1):
        for d_sign in (0, 1):
            v0 = identity_vertical(F)
            h1 = identity_horizontal(F)
            tt = [2 * f + c_sign for f in range(len(d.hcells))]
            rr = [d_sign]  # the signed square on the unit 1-cell
            out[(c_sign, d_sign)] = DoublePNT(v0, h1, tt, rr)
    return out


def test_sign_doubles_pass(sign_setting):
    t, d, F = sign_setting
    doubles = sign_doubles(sign_setting)
    reg = ComponentRegistry.of(hcells={d.hid[0]}, vcells={d.vid[0]})
    for key, dd in doubles.items():
        rep = check_double_pnt(dd, reg)
        assert rep.passed, (key, rep.summary())


def test_sign_doubles_compose(sign_setting):
    doubles = sign_doubles(sign_setting)
    t, d, F = sign_setting
    reg = ComponentRegistry.of(hcells={d.hid[0]}, vcells={d.vid[0]})
    # stacking multiplies the coupling signs
    a = doubles[(1, 0)]
    b = doubles[(1, 1)]
    ab = vcomp_double(a, b)
    assert check_double_pnt(ab, reg).passed
    assert ab.t == list(doubles[(0, 1)].t) or tuple(ab.t) == doubles[(0, 1)].t


def test_theta_composition_commutes_with_expansion_on_strict(bz3):
    # over strict functors the expansion of a composite equals the composite
    # of the expansions on the nose
    c, d, F, verts, conn = bz3
    thetas = [theta_from_plain_vertical(v, conn, dom_conn=conn) for v in verts]
    for a, b in itertools.product(thetas, repeat=2):
        via_theta = theta_to_double(vcomp_theta(a, b))
        direct = vcomp_double(theta_to_double(a), theta_to_double(b))
        assert via_theta.t == direct.t and via_theta.r == direct.r
        via_theta = theta_to_double(hcomp_theta(b, a))
        direct = hcomp_double(theta_to_double(b), theta_to_double(a))
        assert via_theta.t == direct.t and via_theta.r == direct.r


def test_right_unit_normalization_on_cocycle_functor():
    from dblkit.transform import right_unit_constraint
    from dblkit.zoo import sign_cocycle_pseudofunctor
    from dblkit.functors import check_double_pseudo_functor

    F = sign_cocycle_pseudofunctor()
    assert not F.normalized
    assert check_double_pseudo_functor(F).passed
    a = identity_horizontal(F)
    composite, normalization, rep = right_unit_constraint(a)
    assert rep.passed, rep.summary()
    d = F.cod
    assert any(s != d.sq_vid[d.top(s)] for s in normalization)
    assert any("normalized" in x for x in rep.assumptions)


def test_right_unit_identity_on_normalized(bz3):
    from dblkit.transform import right_unit_constraint

    c, d, F, verts, conn = bz3
    a1 = theta_from_plain_vertical(verts[1], conn, dom_conn=conn).h1
    composite, normalization, rep = right_unit_constraint(a1)
    assert rep.passed
    assert all(s == d.sq_vid[d.top(s)] for s in normalization)


def test_stacked_composition_of_sides_associative(bz3):
    doubles = all_doubles(bz3)
    hors = [x.h1 for x in doubles]
    vers = [x.v0 for x in doubles]
    for a, b, c in itertools.product(hors, repeat=3):
        lhs = vcomp_horizontal(vcomp_horizontal(a, b), c)
        rhs = vcomp_horizontal(a, vcomp_horizontal(b, c))
        assert lhs.comp == rhs.comp and lhs.nat == rhs.nat and lhs.delta == rhs.delta
    for a, b, c in itertools.product(vers, repeat=3):
        lhs = vcomp_vertical(vcomp_vertical(a, b), c)
        rhs = vcomp_vertical(a, vcomp_vertical(b, c))
        assert lhs.comp == rhs.comp and lhs.nat == rhs.nat and lhs.delta == rhs.delta


def test_vertical_composites_stay_on_the_callers_categories(bz3):
    from dblkit.modif import check_modification, hcomp_modif, identity_modification, vcomp_modif
    from dblkit.transform import _TransposedContext, whisker_functor_vertical

    _, _, F, _, _ = bz3
    a, b = all_doubles(bz3)[:2]
    # one context maps each category to its transpose and back
    ctx = _TransposedContext()
    twice = transpose_double(transpose_double(a, ctx), ctx)
    for made in (
        vcomp_vertical(a.v0, b.v0),
        hcomp_vertical(b.v0, a.v0),
        whisker_functor_vertical(F, a.v0),
        vcomp_double(a, b),
        hcomp_double(b, a),
        twice,
    ):
        assert made.F.dom is a.F.dom and made.F.cod is a.F.cod
        assert made.G.dom is a.F.dom and made.G.cod is a.F.cod
    stacked = vcomp_modif(identity_modification(a), identity_modification(b))
    chain = hcomp_modif(stacked, identity_modification(twice))
    rep = check_modification(chain)
    assert rep.passed, rep.summary()


def _one_square_mutants(d, a):
    """Coupled pairs that differ from ``a`` in one square of one family
    (t, r, or a leg's naturality or comparison squares), the new square on
    the same boundary."""

    def swaps(cells):
        for i, cell in enumerate(cells):
            for s, bnd in enumerate(d.squares):
                if s != cell and bnd == d.squares[cell]:
                    yield [*cells[:i], s, *cells[i + 1:]]

    def legs(x):
        for cells in swaps(list(x.nat)):
            yield type(x)(x.F, x.G, x.comp, cells, x.delta, x.delta_inv)
        for cells in swaps(list(x.delta)):
            yield type(x)(x.F, x.G, x.comp, x.nat, cells, x.delta_inv)

    yield from (DoublePNT(a.v0, a.h1, t, a.r) for t in swaps(list(a.t)))
    yield from (DoublePNT(a.v0, a.h1, a.t, r) for r in swaps(list(a.r)))
    yield from (DoublePNT(v0, a.h1, a.t, a.r) for v0 in legs(a.v0))
    yield from (DoublePNT(a.v0, h1, a.t, a.r) for h1 in legs(a.h1))


def test_double_pnt_axioms_name_every_reported_law(sign_setting):
    t, d, F = sign_setting
    reg = ComponentRegistry.of(hcells={d.hid[0]}, vcells={d.vid[0]})
    seen = set()
    for a in sign_doubles(sign_setting).values():
        for mutant in _one_square_mutants(d, a):
            seen |= {v.axiom for v in check_double_pnt(mutant, reg).violations}
    assert seen <= set(DOUBLE_PNT_AXIOMS), sorted(seen - set(DOUBLE_PNT_AXIOMS))
    # both coupling sides and both legs were reached
    assert {"coupling-hcomp-t", "coupling-hcomp-r"} <= seen
    assert any(x.startswith("v0: ") for x in seen) and any(x.startswith("h1: ") for x in seen)
