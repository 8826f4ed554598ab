"""The acceptance battery: nine exit criteria, each a function returning
(ok, detail).  ``run_all`` executes them in order and prints one pass/fail
line per criterion; the pytest wrapper asserts each one.

Criteria 1, 2 and 9 must also finish within their bound in ``TIME_BOUNDS``,
timed on a monotonic clock; everything else is exact (tolerances are zero
throughout, all comparisons are cell-id equality)."""

from __future__ import annotations

import itertools
import random
import time

from . import zoo
from .builders import (
    enumerate_cat_functors,
    enumerate_companion_horizontals,
    enumerate_plain_verticals,
    quintet_functor,
    random_theta_instance,
    registry_for,
    theta_from_plain_vertical,
)
from .companion import (
    CompanionPair,
    Connection,
    check_companion,
    delta_inverse,
    find_connection,
    four_identities,
    horizontal_to_vertical,
    roundtrip_check,
    vertical_to_horizontal,
)
from .functors import (
    StrictDoubleFunctor,
    identity_functor,
    product_projections,
    pseudo_from_strict,
)
from .graytensor import (
    Letter,
    SquareCalculus,
    check_monoid,
    check_monoidal_embedding,
    compare_interleavings,
    two_category_tensor_context,
)
from .internal import (
    InternalCategoryData,
    check_coproduct_pullback,
    check_internal,
    diagonal_internal,
    internalize_bicategory,
    monoid_to_internal,
    nested_composition_functors,
    pseudomonoid_to_internal,
)
from .kernel import (
    check_double_category,
    embed_two_category,
    product,
    pullback,
    quintet,
    transpose,
)
from .modif import identity_modification, tcomp_modif, vcomp_modif, check_modification, DoubleModification
from .mutate import sample_mutants
from .report import FAIL
from .transform import (
    ComponentRegistry,
    DoublePNT,
    check_double_pnt,
    check_horizontal_pnt,
    check_theta,
    check_vertical_pnt,
    hcomp_double,
    hcomp_horizontal,
    hcomp_vertical,
    identity_double,
    identity_horizontal,
    identity_vertical,
    theta_to_double,
    vcomp_double,
    vcomp_horizontal,
    vcomp_vertical,
)
from .weak import check_pseudo_double_category
from .zoo import sign_two_category


def _generators():
    """The kernel generator family: commuting-square categories of the
    catalog, embeddings of the small 2-categories (each with at most two
    nonidentity 2-cells), a product, a pullback, and transposes."""
    out = []
    for name, c in zoo.small_category_catalog():
        out.append((f"squares({name})", quintet(c)))
    for name, t in [
        ("trivial", zoo.trivial_two_category()),
        ("walking-arrow", zoo.walking_arrow_two_category()),
        ("walking-2cell", zoo.walking_two_cell()),
        ("walking-iso-2cell", zoo.walking_two_cell(invertible=True)),
        ("sign", zoo.sign_two_category()),
    ]:
        out.append((f"embed({name})", embed_two_category(t)))
    d1 = quintet(zoo.walking_arrow())
    d2 = quintet(zoo.cyclic_group_cat(2))
    prod = product(d1, d2)
    out.append(("product(arrow,cyclic2)", prod))
    p1, _ = product_projections(d1, d2, prod)
    out.append(("pullback(p1,p1)", pullback(p1, p1)))
    base = list(out)
    for name, d in base:
        out.append((f"transpose({name})", transpose(d)))
    return out


def _mutants():
    """The kernel mutant family: 20 seeded single-entry mutants of each of
    five hosts, as ``(slot, mutant)`` pairs."""
    hosts = [
        quintet(zoo.cyclic_group_cat(2)),
        quintet(zoo.walking_iso()),
        quintet(zoo.parallel_pair()),
        quintet(zoo.idempotent_monoid_cat()),
        # parallel squares here, so some mutants break laws rather than
        # table boundaries
        embed_two_category(zoo.sign_two_category()),
    ]
    out = []
    for host in hosts:
        out += sample_mutants(host, 20, seed=len(out))
    return out


# seconds each time-bounded criterion may take, keyed by its name in CRITERIA
TIME_BOUNDS = {"1 kernel soundness": 10.0, "2 companion bijection": 30.0, "9 weak internalization": 5.0}


def _elapsed(name, start):
    """The seconds since ``start`` (a ``time.perf_counter()`` reading) and
    the failure detail when they reach the bound of criterion ``name``,
    else None."""
    elapsed = time.perf_counter() - start
    bound = TIME_BOUNDS[name]
    return elapsed, (f"took {elapsed:.1f}s (budget {bound:g}s)" if elapsed >= bound else None)


def criterion_1_kernel_soundness():
    start = time.perf_counter()
    gens = _generators()
    for name, d in gens:
        rep = check_double_category(d)
        if not rep.passed:
            return False, f"{name} failed: {rep.summary()}"
    tested = 0
    for slot, mutant in _mutants():
        rep = check_double_category(mutant)
        if rep.status != FAIL:
            return False, f"undetected mutation {slot}"
        if not all(v.axiom for v in rep.violations):
            return False, "violation without a law name"
        tested += 1
    elapsed, late = _elapsed("1 kernel soundness", start)
    if late:
        return False, late
    return True, f"{len(gens)} generators, {tested} mutations detected, {elapsed:.1f}s"


def _correspondence_settings():
    """(functor pair, connection, domain connection) instances with every
    strong vertical transformation between them enumerable."""
    settings = []
    cz3 = zoo.cyclic_group_cat(3)
    dz3 = quintet(cz3)
    idf = pseudo_from_strict(identity_functor(dz3))
    conn = find_connection(dz3)
    settings.append(("cyclic3-id-pair", idf, idf, conn, conn))
    arrow = zoo.walking_arrow()
    chain = zoo.chain(2)
    da, dc = quintet(arrow), quintet(chain)
    fs = enumerate_cat_functors(arrow, chain)
    conn_c = find_connection(dc)
    conn_a = find_connection(da)
    for i, (ob1, mor1) in enumerate(fs):
        for j, (ob2, mor2) in enumerate(fs):
            F = pseudo_from_strict(quintet_functor(arrow, chain, da, dc, ob1, mor1))
            G = pseudo_from_strict(quintet_functor(arrow, chain, da, dc, ob2, mor2))
            settings.append((f"arrow->chain[{i},{j}]", F, G, conn_c, conn_a))
    return settings


def criterion_2_companion_bijection():
    start = time.perf_counter()
    total = 0
    for name, F, G, conn, dom_conn in _correspondence_settings():
        verts = enumerate_plain_verticals(F, G)
        for a0 in verts:
            rep = roundtrip_check(a0, conn)
            if not rep.passed:
                return False, f"{name}: {rep.summary()}"
            total += 1
        for a1, ps in enumerate_companion_horizontals(F, G, conn):
            back = horizontal_to_vertical(a1, ps)
            again = vertical_to_horizontal(back, conn)
            if (again.comp, again.nat, again.delta) != (a1.comp, a1.nat, a1.delta):
                return False, f"{name}: reverse round trip moved a horizontal transformation"
            total += 1
    elapsed, late = _elapsed("2 companion bijection", start)
    if late:
        return False, late
    if total == 0:
        return False, "no transformations enumerated"
    return True, f"{total} transformations round-tripped exactly, {elapsed:.1f}s"


def criterion_3_four_identities():
    checked = 0
    for name, F, G, conn, dom_conn in _correspondence_settings():
        for a0 in enumerate_plain_verticals(F, G):
            rep = four_identities(a0, conn)
            if not rep.passed:
                return False, f"{name}: {rep.summary()}"
            a1 = vertical_to_horizontal(a0, conn)
            cod = F.cod
            for u, pair in dom_conn.items():
                inv = delta_inverse(a0, conn, pair)
                fwd = a1.delta[pair.hcell]
                if cod.vpaste(fwd, inv) != cod.sq_vid[cod.top(fwd)]:
                    return False, f"{name}: inverse fails on one side at at {u}"
                if cod.vpaste(inv, fwd) != cod.sq_vid[cod.bottom(fwd)]:
                    return False, f"{name}: inverse fails on the other side at {u}"
                checked += 1
    # binding-cell mutations break at least one identity
    t = sign_two_category()
    d = embed_two_category(t)
    F = pseudo_from_strict(identity_functor(d))
    verts = enumerate_plain_verticals(F, F)
    broken_pairs = [
        CompanionPair(d.vid[0], d.hid[0], 0, 1),  # eta flipped
        CompanionPair(d.vid[0], d.hid[0], 1, 0),  # eps flipped
    ]
    for pair in broken_pairs:
        if check_companion(d, pair).status != FAIL:
            return False, "corrupted binding cells passed the snake laws"
        bad = Connection(d, [pair])
        rep = four_identities(verts[0], bad)
        if rep.status != FAIL:
            return False, "corrupted binding cells passed the four identities"
    return True, f"four identities and both inverse laws on {checked} companions; mutations detected"


def criterion_4_theta_embedding(n_instances=200, seed=20240817):
    rng = random.Random(seed)
    cats = zoo.small_category_catalog()
    done = 0
    while done < n_instances:
        inst = random_theta_instance(rng, cats)
        if inst is None:
            continue
        th, conn, reg = inst
        rep = check_theta(th, reg)
        if not rep.passed:
            return False, f"instance {done}: {rep.summary()}"
        dd = theta_to_double(th)
        rep = check_double_pnt(dd, reg)
        if not rep.passed:
            return False, f"instance {done}: {rep.summary()}"
        redundant = [
            v
            for v in rep.violations
            if v.axiom.startswith(("coupling-hcomp", "coupling-composite"))
        ]
        if redundant:
            return False, f"instance {done}: redundant coupling axioms failed"
        done += 1
    return True, f"{done} generated instances pass every coupling axiom"


def criterion_5_composition_laws():
    name, F, G, conn, dom_conn = _correspondence_settings()[0]
    verts = enumerate_plain_verticals(F, G)
    doubles = [
        theta_to_double(theta_from_plain_vertical(a0, conn, dom_conn=dom_conn))
        for a0 in verts
    ]
    hors = [dd.h1 for dd in doubles]
    reg = registry_for(*[dd.v0 for dd in doubles], *hors)
    for a, b in itertools.product(doubles, repeat=2):
        for made, checker in (
            (vcomp_double(a, b), lambda x: check_double_pnt(x, reg)),
            (hcomp_double(b, a), lambda x: check_double_pnt(x, reg)),
        ):
            rep = checker(made)
            if not rep.passed:
                return False, rep.summary()
    for a, b in itertools.product(hors, repeat=2):
        if not check_horizontal_pnt(vcomp_horizontal(a, b)).passed:
            return False, "stacked horizontal composite failed"
        if not check_horizontal_pnt(hcomp_horizontal(b, a)).passed:
            return False, "side-by-side horizontal composite failed"
    vers = [dd.v0 for dd in doubles]
    for a, b in itertools.product(vers, repeat=2):
        if not check_vertical_pnt(vcomp_vertical(a, b)).passed:
            return False, "stacked vertical composite failed"
        if not check_vertical_pnt(hcomp_vertical(b, a)).passed:
            return False, "side-by-side vertical composite failed"
    for a, b, c in itertools.product(doubles, repeat=3):
        lhs = vcomp_double(vcomp_double(a, b), c)
        rhs = vcomp_double(a, vcomp_double(b, c))
        if lhs.t != rhs.t or lhs.r != rhs.r:
            return False, "stacked composition of coupled pairs is not associative"
    # modification compositions: identities on the quintet instances plus
    # the signed endomodifications for a nonidentity associativity workout
    mods = [identity_modification(dd) for dd in doubles]
    for m in mods:
        if not check_modification(vcomp_modif(m, identity_modification(identity_double(m.F)))).passed:
            return False, "stacked modification composite failed"
        if not check_modification(tcomp_modif(m, m)).passed:
            return False, "transversal modification composite failed"
    t = sign_two_category()
    d = embed_two_category(t)
    Fs = pseudo_from_strict(identity_functor(d))
    sign_pairs = {
        (c, r): DoublePNT(
            identity_vertical(Fs),
            identity_horizontal(Fs),
            [2 * f + c for f in range(len(d.hcells))],
            [r],
        )
        for c in (0, 1)
        for r in (0, 1)
    }
    smods = [
        DoubleModification(sign_pairs[(0, 0)], sign_pairs[(0, 0)], [s], [s]) for s in (0, 1)
    ]
    for a, b, c in itertools.product(smods, repeat=3):
        t1 = tcomp_modif(c, tcomp_modif(b, a))
        t2 = tcomp_modif(tcomp_modif(c, b), a)
        if t1.a0 != t2.a0 or t1.a1 != t2.a1:
            return False, "transversal composition of modifications not associative"
        v1 = vcomp_modif(a, vcomp_modif(b, c))
        v2 = vcomp_modif(vcomp_modif(a, b), c)
        if v1.a0 != v2.a0 or v1.a1 != v2.a1:
            return False, "stacked composition of modifications not associative"
    return True, f"{len(doubles)}^2 composites checker-passing; triple associativity exhaustive"


def criterion_6_monoidal_embedding():
    cats = zoo.acyclic_two_category_catalog()
    pairs = 0
    for (n1, a), (n2, b) in itertools.product(cats, repeat=2):
        rep = check_monoidal_embedding(a, b, cap=4)
        if not rep.passed:
            return False, f"{n1} x {n2}: {rep.summary()}"
        if any(v.axiom == "square-word-inconclusive" for v in rep.violations):
            return False, f"{n1} x {n2}: inconclusive word comparison"
        pairs += 1
    a = zoo.walking_arrow_two_category()
    tensor_verdict, cartesian_verdict = compare_interleavings(a, a, 2, 2)
    if tensor_verdict != "distinct" or cartesian_verdict != "equal":
        return False, f"interleavings: tensor {tensor_verdict}, cartesian {cartesian_verdict}"
    return True, f"{pairs} factor pairs agree cell for cell; interleavings distinct in tensor, equal in product"


def criterion_7_rewriting_sanity(n_words=10_000, seed=7):
    rng = random.Random(seed)
    a = zoo.walking_two_cell()
    b = zoo.chain(2)
    from .graytensor import SideSpec, TensorContext

    ctx = TensorContext(
        SideSpec(a.n_objects, a.onecells, a.comp1, a.id1),
        SideSpec(b.n_objects, b.mor, b.comp, b.ids),
    )
    for i in range(n_words):
        coords = [rng.randrange(a.n_objects), rng.randrange(b.n_objects)]
        letters = []
        for _ in range(rng.randrange(0, 7)):
            side = rng.choice("LR")
            spec = ctx.spec(side)
            here = coords[0] if side == "L" else coords[1]
            options = [c for c in range(len(spec.cells)) if spec.src(c) == here]
            if not options:
                continue
            cell = rng.choice(options)
            letters.append(Letter(side, cell))
            if side == "L":
                coords[0] = spec.tgt(cell)
            else:
                coords[1] = spec.tgt(cell)
        start = (
            coords[0] if not letters else None,
            coords[1] if not letters else None,
        )
        # recompute the true start by replaying the letters backwards
        sa, sb = coords
        for let in reversed(letters):
            if let.side == "L":
                sa = ctx.a.src(let.cell)
            else:
                sb = ctx.b.src(let.cell)
        once = ctx.normalize((sa, sb), tuple(letters))
        twice = ctx.normalize(once.start, once.letters)
        if once != twice:
            return False, f"normalization not idempotent on word {i}"
    arrow = zoo.walking_arrow_two_category()
    cell2 = zoo.walking_two_cell()
    ctx2 = two_category_tensor_context(arrow, cell2)
    calc = SquareCalculus(ctx2, arrow, cell2)
    words = rewritten = 0
    for top in ctx2.enumerate_words(3):
        for e in calc.enumerate_square_words(top, 3):
            calc.rewrite(e, assert_measure=True)
            rewritten += 1
        fails = calc.critical_pairs_join(top)
        if fails:
            return False, f"critical pair does not join over {ctx2.describe(top)}"
        words += 1
    return True, f"{n_words} random words idempotent; {rewritten} square words terminate; all critical pairs join"


def internal_mutations():
    """Criterion 8's compatibility mutations: the diagonal bundle of the
    walking arrow's squares, and a dict of bundles that each break one
    compatibility: its unit section, its composite's sources and its
    pullback (a product in its place), and, over the diagonal bundle of
    ``embed(sign)``, a unit comparison that whiskers to a nonidentity."""
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
    diag_s = diagonal_internal(embed_two_category(sign_two_category()))
    minus_lunit = DoublePNT(
        identity_vertical(diag_s.lunit.F),
        identity_horizontal(diag_s.lunit.F),
        [2 * f + 1 for f in range(len(diag_s.d1.hcells))],
        [1],
    )
    return good, {
        "unit-section": InternalCategoryData(
            good.d0, good.d1, good.s, good.t, pseudo_from_strict(constant), good.p,
            good.p1, good.p2, good.m, assoc=good.assoc, lunit=good.lunit, runit=good.runit,
        ),
        "composite-sources": InternalCategoryData(
            good.d0, good.d1, good.s, good.t, good.u, good.p,
            good.p1, good.p2, pseudo_from_strict(constant), assoc=good.assoc,
        ),
        "pullback": InternalCategoryData(
            good.d0, good.d1, good.s, good.t, good.u, product(dq, dq),
            good.p1, good.p2, good.m, assoc=good.assoc, lunit=good.lunit, runit=good.runit,
        ),
        "whisker": InternalCategoryData(
            diag_s.d0, diag_s.d1, diag_s.s, diag_s.t, diag_s.u, diag_s.p,
            diag_s.p1, diag_s.p2, diag_s.m, assoc=diag_s.assoc, lunit=minus_lunit, runit=diag_s.runit,
        ),
    }


def criterion_8_internalization():
    empty = ComponentRegistry.of()
    for name, mk in (
        ("trivial", zoo.trivial_monoid_in_dbl),
        ("cyclic2", zoo.commutative_monoid_in_dbl),
        ("min", zoo.min_monoid_in_dbl),
    ):
        monoid = mk()
        if not check_monoid(monoid).passed:
            return False, f"{name}: multiplication data rejected"
        data = monoid_to_internal(monoid)
        rep = check_internal(data, registry=empty)
        if not rep.passed:
            return False, f"{name}: {rep.summary()}"
        if not all("defaulted to the identity" in x for x in rep.assumptions if "cell" in x):
            return False, f"{name}: identity constraints not recorded"
    # nonstrict instance over the square category of the order-two group
    monoid = zoo.commutative_monoid_in_dbl()
    d = monoid.carrier
    base = monoid_to_internal(monoid)
    left_nested, right_nested, p3l = nested_composition_functors(base)
    verts = enumerate_plain_verticals(right_nested, left_nested)
    nonid = [v for v in verts if any(v.comp[o] != d.vid[0] for o in range(d.n_objects))]
    if not nonid:
        return False, "no nonidentity associativity comparison found"
    conn = find_connection(d)
    data = pseudomonoid_to_internal(monoid, nonid[0], conn, dom_conn=find_connection(p3l))
    rep = check_internal(data, registry=empty)
    if not rep.passed:
        return False, f"pseudomonoid: {rep.summary()}"

    # compatibility equations, one mutation each, over a bundle with a
    # nontrivial object part
    good, mutations = internal_mutations()
    if not check_internal(good, registry=empty, deep=False).passed:
        return False, "diagonal bundle rejected"
    expected = {
        "unit-section": {"unit-section-s", "unit-section-t"},
        "composite-sources": {"src-of-composite", "tgt-of-composite", "comparison-construction"},
        "pullback": {"pullback-canonical"},
    }
    for label, laws in expected.items():
        rep = check_internal(mutations[label], registry=empty, deep=False)
        if rep.status != FAIL:
            return False, f"mutation {label} went undetected"
        hit = {v.axiom for v in rep.violations}
        if not (hit & laws):
            return False, f"mutation {label} flagged {sorted(hit)} instead of {sorted(laws)}"
    # whiskering of a corrupted unit comparison
    rep = check_internal(mutations["whisker"], registry=empty, deep=False)
    if rep.status != FAIL or not any(v.axiom.startswith("whisker") for v in rep.violations):
        return False, "corrupted unit comparison not caught by whiskering"
    return True, "three multiplications and one pseudo instance pass; all compatibility mutations detected"


def criterion_9_weak_internalization():
    start = time.perf_counter()
    b = zoo.sign_bicategory()
    p = internalize_bicategory(b)
    rep = check_pseudo_double_category(p)
    if not rep.passed:
        return False, rep.summary()
    if all(s == p.sq_vid[p.top(s)] for s in p.assoc.values()):
        return False, "associator degenerated to the identity"
    for name, bb in (("two-object", zoo.two_object_bicategory()), ("sign", b)):
        rep = check_coproduct_pullback(bb)
        if not rep.passed:
            return False, f"{name}: {rep.summary()}"
    elapsed, late = _elapsed("9 weak internalization", start)
    if late:
        return False, late
    return True, f"nonidentity associator preserved; pair and triple counts exact; {elapsed:.1f}s"


CRITERIA = (
    ("1 kernel soundness", criterion_1_kernel_soundness),
    ("2 companion bijection", criterion_2_companion_bijection),
    ("3 four identities and inverses", criterion_3_four_identities),
    ("4 generated coupling squares", criterion_4_theta_embedding),
    ("5 composition laws", criterion_5_composition_laws),
    ("6 monoidal embedding", criterion_6_monoidal_embedding),
    ("7 rewriting sanity", criterion_7_rewriting_sanity),
    ("8 internalization", criterion_8_internalization),
    ("9 weak internalization", criterion_9_weak_internalization),
)


def run_all(verbose=True):
    """Run every criterion in order; return one JSON-ready record per
    criterion: ``name``, ``ok``, ``detail``, ``elapsed_s`` (seconds), and
    ``bound_s`` and ``margin_s`` (``bound_s - elapsed_s``), both None where
    ``TIME_BOUNDS`` has no entry.  The verbose line of a time-bounded
    criterion also gives its bound and the margin left."""
    results = []
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - t0
        bound = TIME_BOUNDS.get(name)
        margin = None if bound is None else bound - elapsed
        results.append(
            {"name": name, "ok": ok, "detail": detail, "elapsed_s": elapsed, "bound_s": bound, "margin_s": margin}
        )
        if verbose:
            status = "PASS" if ok else "FAIL"
            timing = f"{elapsed:.1f}s" if bound is None else f"{elapsed:.1f}s of {bound:g}s, margin {margin:.1f}s"
            print(f"[{status}] criterion {name}: {detail} ({timing})")
    return results


if __name__ == "__main__":
    bad = [r for r in run_all() if not r["ok"]]
    raise SystemExit(1 if bad else 0)
