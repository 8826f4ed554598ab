import itertools
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit import zoo
from dblkit.kernel import StructureError, quintet
from dblkit.report import Budget
from dblkit.functors import check_double_pseudo_functor
from dblkit.graytensor import (
    GrayTensorSkeleton,
    Letter,
    Move,
    SquareCalculus,
    SquareWord,
    WordCapExceeded,
    _swapped,
    cartesian_collapse,
    check_monoid,
    check_monoidal_embedding,
    compare_interleavings,
    derive_interleaved_functor,
    two_category_tensor_context,
)


@pytest.fixture(scope="module")
def arrow_pair_ctx():
    a = zoo.walking_arrow_two_category()
    b = zoo.walking_arrow_two_category()
    return a, b, two_category_tensor_context(a, b)


def test_identity_letters_vanish(arrow_pair_ctx):
    a, b, ctx = arrow_pair_ctx
    w = ctx.normalize((0, 0), (Letter("L", 0),))
    assert w.letters == ()
    w = ctx.normalize((0, 0), (Letter("L", 0), Letter("R", 0)))
    assert w.letters == ()
    with pytest.raises(StructureError):
        ctx.normalize((0, 0), (Letter("R", 1),))  # does not chain


def test_same_side_letters_merge(arrow_pair_ctx):
    a, b, ctx = arrow_pair_ctx
    # f then id1 merges to f on the left side
    w = ctx.normalize((0, 0), (Letter("L", 2), Letter("L", 1)))
    assert w.letters == (Letter("L", 2),)


def test_merge_through_inverses_collapses():
    a = zoo.walking_arrow_two_category()
    iso = zoo.walking_iso()
    from dblkit.graytensor import SideSpec, TensorContext

    ctx = TensorContext(
        SideSpec(iso.n_objects, iso.mor, iso.comp, iso.ids),
        SideSpec(a.n_objects, a.onecells, a.comp1, a.id1),
    )
    w = ctx.normalize((0, 0), (Letter("L", 2), Letter("L", 3)))
    assert w.letters == ()


def test_interleavings_are_distinct_in_tensor_equal_in_product(arrow_pair_ctx):
    a, b, ctx = arrow_pair_ctx
    tensor, cartesian = compare_interleavings(a, b, 2, 2)
    assert tensor == "distinct"
    assert cartesian == "equal"
    # the Cartesian verdict reads the words: each factor's letters composed
    w1 = ctx.normalize((0, 0), (Letter("L", 2), Letter("R", 2)))
    w2 = ctx.normalize((0, 0), (Letter("R", 2), Letter("L", 2)))
    assert w1 != w2 and cartesian_collapse(ctx, w1) == cartesian_collapse(ctx, w2) == (2, 2)
    # an identity letter normalizes away, leaving one word
    assert compare_interleavings(a, b, 2, 0) == ("equal", "equal")


def test_the_cartesian_collapse_composes_each_factors_letters():
    # on sign x sign, a;a = e: a word with two a's on the left and the word
    # of its right letter alone are distinct in the tensor, but both map to
    # (e, a) in the Cartesian product
    sign = zoo.sign_two_category()
    ctx = two_category_tensor_context(sign, sign)
    e, a = sign.id1[0], 1  # the identity and the other 1-cell
    w1 = ctx.normalize((0, 0), (Letter("L", a), Letter("R", a), Letter("L", a)))
    w2 = ctx.normalize((0, 0), (Letter("R", a),))
    assert w1 != w2
    assert cartesian_collapse(ctx, w1) == cartesian_collapse(ctx, w2) == (e, a)
    assert cartesian_collapse(ctx, ctx.normalize((0, 0), ())) == (e, e)


def test_word_counts_shuffle_oracle():
    # chains are acyclic; interleaving words between corners are counted by
    # an independent recursion over which side moves last
    a = zoo.chain(2)
    b = zoo.chain(2)
    da, db = quintet(a), quintet(b)
    skel = GrayTensorSkeleton(da, db, cap=8)
    words = skel.hwords()

    def count_words(dx, dy):
        # number of alternating interleavings of one jump-sequence on each
        # axis: compositions of dx and dy interleaved with no two adjacent
        # same-side letters; count by last-moved side
        from functools import lru_cache

        @lru_cache(None)
        def comps(n, k):
            # compositions of n into exactly k positive parts
            if k == 0:
                return 1 if n == 0 else 0
            if n <= 0:
                return 0
            return sum(comps(n - i, k - 1) for i in range(1, n + 1))

        total = 0
        for ka in range(0, dx + 1):
            for kb in range(0, dy + 1):
                if abs(ka - kb) > 1:
                    continue
                if ka == kb == 0:
                    total += 1 if (dx == 0 and dy == 0) else 0
                    continue
                ways = comps(dx, ka) * comps(dy, kb)
                if ka == kb and ka > 0:
                    ways *= 2  # either side may start
                total += ways
        return total

    for ax in range(3):
        for ay in range(3):
            for bx in range(ax, 3):
                for by in range(ay, 3):
                    expect = count_words(bx - ax, by - ay)
                    got = sum(
                        1
                        for w in words
                        if w.start == (skel_index(a, ax, ay)[0], skel_index(a, ax, ay)[1])
                        and False
                    )
    # direct comparison on the corner-to-corner words
    full = [
        w
        for w in words
        if w.start == (0, 0)
        and skel.hctx.coords_after(w) == (2, 2)
    ]
    assert len(full) == count_words(2, 2)


def skel_index(chain_cat, x, y):
    return (x, y)


def test_skeleton_with_unit_factor_is_identity():
    d = quintet(zoo.walking_arrow())
    from dblkit.kernel import terminal_double_category

    term = terminal_double_category()
    skel = GrayTensorSkeleton(d, term, cap=6)
    words = skel.hwords()
    # one word per nonidentity 1-cell chain of d plus the empty words
    singles = [w for w in words if len(w.letters) == 1]
    assert all(let.side == "L" for w in singles for let in w.letters)
    nonid = [f for f in range(len(d.hcells)) if f not in set(d.hid)]
    assert len(singles) == len(nonid)


def test_cap_overflow_is_explicit():
    d = quintet(zoo.cyclic_group_cat(2))
    skel = GrayTensorSkeleton(d, d, cap=3)
    words = skel.hwords()
    long_word = max(words, key=lambda w: len(w.letters))
    assert len(long_word.letters) == 3
    with pytest.raises(WordCapExceeded):
        skel.compose_h(long_word, skel.hctx.normalize(
            skel.hctx.coords_after(long_word),
            (Letter("R", 1),) if long_word.letters[-1].side == "L" else (Letter("L", 1),),
        ))


def test_cyclic_factors_require_cap():
    d = quintet(zoo.cyclic_group_cat(2))
    with pytest.raises(StructureError):
        GrayTensorSkeleton(d, d, cap=0)
    assert not GrayTensorSkeleton(d, d, cap=3).hctx.is_acyclic()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_idempotent_on_random_words(data):
    a = zoo.walking_two_cell()
    b = zoo.chain(2)
    from dblkit.graytensor import SideSpec, TensorContext

    ctx = TensorContext(
        SideSpec(a.n_objects, a.onecells, a.comp1, a.id1),
        SideSpec(b.n_objects, b.mor, b.comp, b.ids),
    )
    start = (
        data.draw(st.integers(min_value=0, max_value=a.n_objects - 1)),
        data.draw(st.integers(min_value=0, max_value=b.n_objects - 1)),
    )
    coords = list(start)
    letters = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        side = data.draw(st.sampled_from("LR"))
        spec = ctx.spec(side)
        here = coords[0] if side == "L" else coords[1]
        options = [c for c in range(len(spec.cells)) if spec.src(c) == here]
        if not options:
            continue
        cell = data.draw(st.sampled_from(options))
        letters.append(Letter(side, cell))
        if side == "L":
            coords[0] = spec.tgt(cell)
        else:
            coords[1] = spec.tgt(cell)
    once = ctx.normalize(start, tuple(letters))
    twice = ctx.normalize(once.start, once.letters)
    assert once == twice


def test_monoidal_embedding_all_acyclic_pairs():
    cats = zoo.acyclic_two_category_catalog()
    for (n1, a), (n2, b) in itertools.product(cats, repeat=2):
        rep = check_monoidal_embedding(a, b, cap=4)
        assert rep.passed, f"{n1} x {n2}: {rep.summary()}"
        assert not any(v.axiom == "square-word-inconclusive" for v in rep.violations)


@pytest.mark.parametrize("cap", [0, 1, 5, 20, 40])
def test_monoidal_embedding_charges_every_square_word_comparison(cap):
    a, b = zoo.walking_arrow_two_category(), zoo.walking_two_cell()
    assert check_monoidal_embedding(a, b, cap=4).checked == 63
    budget = Budget(cap)
    rep = check_monoidal_embedding(a, b, cap=4, budget=budget)
    assert rep.status == "budget-exceeded"
    assert (rep.checked, budget.used) == (cap, cap + 1)


def test_square_word_rewriting_basics(arrow_pair_ctx):
    a, b, ctx = arrow_pair_ctx
    calc = SquareCalculus(ctx, a, b)
    top = ctx.normalize((0, 0), (Letter("L", 2), Letter("R", 2)))
    # interchange then its inverse cancels
    e = SquareWord(top, (Move("flip", 0), Move("unflip", 0)))
    assert calc.rewrite(e).moves == ()
    # identity rewrites drop
    e = SquareWord(top, (Move("appL", 0, a.id2[2]),))
    assert calc.rewrite(e).moves == ()


def test_rewrites_commute_past_interchanges():
    a = zoo.walking_arrow_two_category()
    b = zoo.walking_two_cell()
    ctx = two_category_tensor_context(a, b)
    calc = SquareCalculus(ctx, a, b)
    top = ctx.normalize((0, 0), (Letter("L", 2), Letter("R", 2)))
    e = SquareWord(top, (Move("flip", 0), Move("appR", 0, 4)))
    n = calc.rewrite(e)
    assert n.moves[0].kind == "appR" and n.moves[1].kind == "flip"
    # same bottom either way
    assert calc.bottom(n) == calc.bottom(e)


REWRITING_PAIRS = {
    "2-cell x 2-cell": (zoo.walking_two_cell, zoo.walking_two_cell),
    "arrow x 2-cell": (zoo.walking_arrow_two_category, zoo.walking_two_cell),
    "sign x sign": (zoo.sign_two_category, zoo.sign_two_category),
    "iso-2-cell x iso-2-cell": (lambda: zoo.walking_two_cell(True), lambda: zoo.walking_two_cell(True)),
}


@pytest.mark.parametrize("pair", ["2-cell x 2-cell", "sign x sign", "iso-2-cell x iso-2-cell"])
def test_rewrite_measure_strictly_decreases(pair):
    a, b = (make() for make in REWRITING_PAIRS[pair])
    ctx = two_category_tensor_context(a, b)
    calc = SquareCalculus(ctx, a, b)
    tops = [w for w in ctx.enumerate_words(3)]
    count = 0
    for top in tops:
        for e in calc.enumerate_square_words(top, 3):
            calc.rewrite(e, assert_measure=True)
            count += 1
    assert count > 100


@pytest.mark.parametrize("pair", ["arrow x 2-cell", "sign x sign", "iso-2-cell x iso-2-cell"])
def test_critical_pairs_join_up_to_three_moves(pair):
    a, b = (make() for make in REWRITING_PAIRS[pair])
    ctx = two_category_tensor_context(a, b)
    calc = SquareCalculus(ctx, a, b)
    for top in ctx.enumerate_words(3):
        fails = calc.critical_pairs_join(top)
        assert not fails, fails[:2]


def test_compare_verdicts(arrow_pair_ctx):
    a, b, ctx = arrow_pair_ctx
    calc = SquareCalculus(ctx, a, b)
    top = ctx.normalize((0, 0), (Letter("L", 2), Letter("R", 2)))
    flip = SquareWord(top, (Move("flip", 0),))
    wrapped = SquareWord(top, (Move("flip", 0), Move("unflip", 0), Move("flip", 0)))
    assert calc.compare(flip, wrapped) == "equal"
    nothing = SquareWord(top, ())
    assert calc.compare(flip, nothing) == "distinct"


# ---------------------------------------------------------------------------
# monoid structures


@pytest.mark.parametrize(
    "name,mk",
    [
        ("trivial", zoo.trivial_monoid_in_dbl),
        ("cyclic2", zoo.commutative_monoid_in_dbl),
        ("min", zoo.min_monoid_in_dbl),
        ("braid", zoo.braid_monoid_in_dbl),
    ],
)
def test_monoids_check(name, mk):
    rep = check_monoid(mk())
    assert rep.passed, f"{name}: {rep.summary()}"


def test_interleaved_functor_strict_iff_identity_flips():
    for mk, expect_strict in [
        (zoo.commutative_monoid_in_dbl, True),
        (zoo.min_monoid_in_dbl, True),
        (zoo.braid_monoid_in_dbl, False),
    ]:
        f = derive_interleaved_functor(mk())
        assert f.strict == expect_strict
        rep = check_double_pseudo_functor(f)
        assert rep.passed, rep.summary()
        assert f.normalized


def test_both_readings_pass():
    for mk in (zoo.commutative_monoid_in_dbl, zoo.braid_monoid_in_dbl):
        f = derive_interleaved_functor(mk(), first_factor_first=False)
        rep = check_double_pseudo_functor(f)
        assert rep.passed, rep.summary()


ZOO_MONOIDS = [zoo.trivial_monoid_in_dbl, zoo.commutative_monoid_in_dbl, zoo.min_monoid_in_dbl,
               zoo.braid_monoid_in_dbl]


def _reading_oracle(m, first_factor_first):
    """Every cell-map entry and structure cell of a reading, each from its
    own pointwise formula."""
    d = m.carrier
    nh, nv, no = len(d.hcells), len(d.vcells), d.n_objects
    hl, hr, vl, vr, sl, sr = m.mul_h_left, m.mul_h_right, m.mul_v_left, m.mul_v_right, m.mul_sq_left, m.mul_sq_right
    out = {"ob_map": [m.mul_ob[(a, b)] for a in range(no) for b in range(no)], "sq_map": []}
    if first_factor_first:
        out["h_map"] = [d.hcomp(hl[(f, d.hs(g))], hr[(d.ht(f), g)]) for f in range(nh) for g in range(nh)]
        out["v_map"] = [d.vcomp(vl[(u, d.vs(v))], vr[(d.vt(u), v)]) for u in range(nv) for v in range(nv)]
    else:
        out["h_map"] = [d.hcomp(hr[(d.hs(f), g)], hl[(f, d.ht(g))]) for f in range(nh) for g in range(nh)]
        out["v_map"] = [d.vcomp(vr[(d.vs(u), v)], vl[(u, d.vt(v))]) for u in range(nv) for v in range(nv)]
    for (z, (zt, zb, zl, zr)), (w, (wt, wb, wl, wr)) in itertools.product(enumerate(d.squares), repeat=2):
        if first_factor_first:
            row1 = d.hpaste(sl[(z, d.hs(wt))], m.mixed_vh[(zr, wt)])
            row2 = d.hpaste(m.mixed_hv[(zb, wl)], sr[(d.ht(zb), w)])
        else:
            row1 = d.hpaste(sr[(d.hs(zt), w)], m.mixed_hv[(zt, wr)])
            row2 = d.hpaste(m.mixed_vh[(zl, wb)], sl[(z, d.ht(wb))])
        out["sq_map"].append(d.vpaste(row1, row2))
    for name in ("comp_h", "comp_h_inv", "comp_v", "comp_v_inv"):
        out[name] = {}
    for (f1, f2), (g1, g2) in itertools.product(d.hcomp1, repeat=2):
        key = (f1 * nh + g1, f2 * nh + g2)
        if first_factor_first:
            left, right = d.sq_vid[hl[(f1, d.hs(g1))]], d.sq_vid[hr[(d.ht(f2), g2)]]
            flip, flip_inv = m.flip_hh[(f2, g1)], m.flip_hh_inv[(f2, g1)]
        else:
            left, right = d.sq_vid[hr[(d.hs(f1), g1)]], d.sq_vid[hl[(f2, d.ht(g2))]]
            flip, flip_inv = m.flip_hh_inv[(f1, g2)], m.flip_hh[(f1, g2)]
        out["comp_h"][key] = d.hrow(left, flip, right)
        out["comp_h_inv"][key] = d.hrow(left, flip_inv, right)
    for (u1, u2), (v1, v2) in itertools.product(d.vcomp1, repeat=2):
        key = (u1 * nv + v1, u2 * nv + v2)
        if first_factor_first:
            top, bottom = d.sq_hid[vl[(u1, d.vs(v1))]], d.sq_hid[vr[(d.vt(u2), v2)]]
            flip, flip_inv = m.flip_vv_inv[(u2, v1)], m.flip_vv[(u2, v1)]
        else:
            top, bottom = d.sq_hid[vr[(d.vs(u1), v1)]], d.sq_hid[vl[(u2, d.vt(v2))]]
            flip, flip_inv = m.flip_vv[(u1, v2)], m.flip_vv_inv[(u1, v2)]
        out["comp_v"][key] = d.vcol(top, flip, bottom)
        out["comp_v_inv"][key] = d.vcol(top, flip_inv, bottom)
    for name in ("unit_h", "unit_h_inv"):
        out[name] = {a * no + b: d.sq_vid[d.hid[m.mul_ob[(a, b)]]] for a in range(no) for b in range(no)}
    for name in ("unit_v", "unit_v_inv"):
        out[name] = {a * no + b: d.sq_hid[d.vid[m.mul_ob[(a, b)]]] for a in range(no) for b in range(no)}
    return out


@pytest.mark.parametrize("first_factor_first", [True, False])
@pytest.mark.parametrize("mk", ZOO_MONOIDS, ids=["trivial", "cyclic2", "min", "braid"])
def test_both_readings_match_their_pointwise_formulas(mk, first_factor_first):
    m = mk()
    f = derive_interleaved_functor(m, first_factor_first=first_factor_first)
    for name, table in _reading_oracle(m, first_factor_first).items():
        got = getattr(f, name)
        assert (got if isinstance(table, dict) else list(got)) == table, name
        if first_factor_first:
            assert list(got) == list(table), name  # and in the same insertion order


@pytest.mark.parametrize("mk", ZOO_MONOIDS, ids=["trivial", "cyclic2", "min", "braid"])
def test_swapping_factors_twice_gives_the_monoid_back(mk):
    m = mk()
    twice = _swapped(_swapped(m))
    for field in fields(m):
        assert getattr(twice, field.name) == getattr(m, field.name), field.name


def test_braid_readings_differ_exactly_by_flip():
    m = zoo.braid_monoid_in_dbl()
    d = m.carrier
    f1 = derive_interleaved_functor(m)
    A, B = 1, 2  # the 1-cells a and b
    nh = len(d.hcells)
    # image of the pair (a, b) under the two readings
    first = f1.h(A * nh + B)
    f2 = derive_interleaved_functor(m, first_factor_first=False)
    second = f2.h(A * nh + B)
    assert first != second
    assert d.hcomp(m.mul_h_left[(A, 0)], m.mul_h_right[(0, B)]) == first
    # the composition structure cell on ((a,1),(1,b)) is the whiskered flip
    key = (A * nh + 0, 0 * nh + B)
    assert f1.comp_h[key] == d.hrow(
        d.sq_vid[m.mul_h_left[(A, 0)]], m.flip_hh[(0, 0)], d.sq_vid[m.mul_h_right[(0, B)]]
    )
    key2 = (A * nh + d.hid[0], d.hid[0] * nh + B)
    assert f1.comp_h[key2] == f1.comp_h[key]


def test_braid_flip_cell_appears_in_structure():
    m = zoo.braid_monoid_in_dbl()
    d = m.carrier
    f = derive_interleaved_functor(m)
    S = 6
    nh = len(d.hcells)
    # composing (1,b) after (a,1) versus the pointwise images differ by s
    key = (d.hid[0] * nh + 2, 1 * nh + d.hid[0])  # pair (1,b) then (a,1)
    cell = f.comp_h[key]
    assert cell == S or d.squares[cell] == d.squares[S]


def test_monoid_law_violation_detected():
    m = zoo.braid_monoid_in_dbl()
    m.mul_h_left[(3, 0)] = 4  # image of ab at the unit coordinate -> ba
    rep = check_monoid(m)
    assert not rep.passed


@pytest.mark.parametrize("alt", [1, 2])
def test_monoid_checks_vertical_image_boundaries(alt):
    # the image of the vcell 0 -> 1 at the frozen object 0 must be the
    # identity on 0 * 0 = 0 * 1 = 0; an image off that boundary went
    # unnoticed while only the horizontal images had boundary laws.  It is
    # row 0's image of the vcell 2, and with it the image of each square
    # with the side 2 has the wrong boundary
    m = zoo.min_monoid_in_dbl()
    m.mul_v_right[(0, 2)] = alt
    rep = check_monoid(m)
    assert rep.status == "fail"
    assert [(v.axiom, v.witness) for v in rep.violations] == [
        ("row[0]: v-boundary", (("vcell", 2),)),
        *[("row[0]: sq-boundary", (("square", s),)) for s in (1, 2, 5)],
    ]
    assert rep.assumptions == [
        "equational laws not evaluated: cell images have wrong boundaries",
        "interchange laws not evaluated: structural violations present",
    ]



def _single_entry_mutants(m):
    """Every monoid that differs from ``m`` in one entry of one of its 13
    tables, the entry moved to any other cell of its kind."""
    d = m.carrier
    sizes = {"ob": d.n_objects, "h": len(d.hcells), "v": len(d.vcells)}
    for family in ("mul_ob", "mul_h_left", "mul_h_right", "mul_v_left", "mul_v_right", "mul_sq_left",
                   "mul_sq_right", "flip_hh", "flip_hh_inv", "flip_vv", "flip_vv_inv", "mixed_hv", "mixed_vh"):
        n = sizes.get(family.split("_")[1], len(d.squares))
        for key, value in sorted(getattr(m, family).items()):
            for alt in range(n):
                if alt != value:
                    yield f"{family}[{key}]={alt}", replace(m, **{family: {**getattr(m, family), key: alt}})


def test_every_single_entry_mutant_of_the_min_monoid_fails():
    # 4 object, 48 one-sided cell, 120 one-sided square, 180 flip and 90
    # mixed mutants; none may raise, and none may pass
    statuses = {slot: check_monoid(mutant).status for slot, mutant in _single_entry_mutants(zoo.min_monoid_in_dbl())}
    assert len(statuses) == 442
    assert {slot: s for slot, s in statuses.items() if s != "fail"} == {}
