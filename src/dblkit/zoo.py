"""A small catalog of finite categories, 2-categories, and bicategories.

These are the desk-scale instances the test suite and the acceptance run
enumerate over.  Every generator is deterministic.  The catalog is curated:
the library checks every structure it produces, so the value of each entry
is that it exercises a different shape (posets, groups, free arrows,
noncommuting 1-cell monoids, a nontrivial associator), not that it exhausts
all categories of a given size.
"""

from __future__ import annotations

from .kernel import FiniteCategory, TwoCategory

# ---------------------------------------------------------------------------
# finite categories (all have <= 3 objects and <= 9 morphisms)


def terminal_cat() -> FiniteCategory:
    return FiniteCategory(1, [(0, 0)], {(0, 0): 0}, [0], names={"mor": ["id"]})


def walking_arrow() -> FiniteCategory:
    # objects 0, 1; morphisms id0, id1, f: 0 -> 1
    mor = [(0, 0), (1, 1), (0, 1)]
    comp = {
        (0, 0): 0,
        (1, 1): 1,
        (0, 2): 2,
        (2, 1): 2,
    }
    return FiniteCategory(2, mor, comp, [0, 1], names={"mor": ["id0", "id1", "f"]})


def chain(n: int) -> FiniteCategory:
    """Poset category 0 < 1 < ... < n; morphisms are intervals i <= j."""
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    index = {p: k for k, p in enumerate(pairs)}
    comp = {
        (index[(i, j)], index[(j2, k)]): index[(i, k)]
        for (i, j) in pairs
        for (j2, k) in pairs
        if j2 == j
    }
    ids = [index[(i, i)] for i in range(n + 1)]
    names = {"mor": [f"[{i}->{j}]" for (i, j) in pairs]}
    return FiniteCategory(n + 1, pairs, comp, ids, names=names)


def parallel_pair() -> FiniteCategory:
    # two objects, two parallel nonidentity arrows
    mor = [(0, 0), (1, 1), (0, 1), (0, 1)]
    comp = {
        (0, 0): 0,
        (1, 1): 1,
        (0, 2): 2,
        (2, 1): 2,
        (0, 3): 3,
        (3, 1): 3,
    }
    return FiniteCategory(2, mor, comp, [0, 1], names={"mor": ["id0", "id1", "f", "g"]})


def walking_iso() -> FiniteCategory:
    mor = [(0, 0), (1, 1), (0, 1), (1, 0)]
    comp = {
        (0, 0): 0,
        (1, 1): 1,
        (0, 2): 2,
        (2, 1): 2,
        (1, 3): 3,
        (3, 0): 3,
        (2, 3): 0,
        (3, 2): 1,
    }
    return FiniteCategory(2, mor, comp, [0, 1], names={"mor": ["id0", "id1", "f", "finv"]})


def monoid_cat(table: list[list[int]], names: list[str] | None = None) -> FiniteCategory:
    """One-object category from a finite monoid multiplication table.

    ``table[x][y]`` is "x then y"; element 0 must be the unit.
    """
    n = len(table)
    comp = {(x, y): table[x][y] for x in range(n) for y in range(n)}
    return FiniteCategory(1, [(0, 0)] * n, comp, [0], names={"mor": names} if names else None)


def cyclic_group_cat(n: int) -> FiniteCategory:
    return monoid_cat(
        [[(x + y) % n for y in range(n)] for x in range(n)],
        names=[f"g{x}" for x in range(n)],
    )


def idempotent_monoid_cat() -> FiniteCategory:
    # {1, e} with e*e = e
    return monoid_cat([[0, 1], [1, 1]], names=["id", "e"])


def span_poset() -> FiniteCategory:
    # objects a <- c -> b (three objects, five morphisms)
    mor = [(0, 0), (1, 1), (2, 2), (2, 0), (2, 1)]
    comp = {
        (0, 0): 0,
        (1, 1): 1,
        (2, 2): 2,
        (2, 3): 3,
        (3, 0): 3,
        (2, 4): 4,
        (4, 1): 4,
    }
    return FiniteCategory(3, mor, comp, [0, 1, 2], names={"mor": ["ida", "idb", "idc", "p", "q"]})


def small_category_catalog() -> list[tuple[str, FiniteCategory]]:
    """Curated catalog used by the kernel acceptance run (<= 3 objects,
    <= 9 morphisms each)."""
    return [
        ("terminal", terminal_cat()),
        ("walking-arrow", walking_arrow()),
        ("parallel-pair", parallel_pair()),
        ("walking-iso", walking_iso()),
        ("chain2", chain(2)),
        ("span-poset", span_poset()),
        ("cyclic2", cyclic_group_cat(2)),
        ("cyclic3", cyclic_group_cat(3)),
        ("idempotent-monoid", idempotent_monoid_cat()),
    ]


# ---------------------------------------------------------------------------
# strict 2-categories


def trivial_two_category() -> TwoCategory:
    return TwoCategory(
        1,
        [(0, 0)],
        [(0, 0)],
        {(0, 0): 0},
        {(0, 0): 0},
        {(0, 0): 0},
        [0],
        [0],
        names={"objects": ["*"], "onecell": ["1"], "twocell": ["Id"]},
    )


def walking_arrow_two_category() -> TwoCategory:
    c = walking_arrow()
    return TwoCategory(
        2,
        list(c.mor),
        [(f, f) for f in range(len(c.mor))],
        dict(c.comp),
        {(f, f): f for f in range(len(c.mor))},
        {(a, b): c.comp[(a, b)] for (a, b) in c.comp},
        [0, 1],
        [0, 1, 2],
        names={"objects": ["0", "1"], "onecell": ["id0", "id1", "f"], "twocell": ["Id0", "Id1", "Idf"]},
    )


def _free_iso_vcomp(twocells):
    """Vertical composition where each 2-cell is the only one on its
    boundary, so a composite is the 2-cell from the first source to the
    second target."""
    index = {pair: i for i, pair in enumerate(twocells)}
    out = {}
    for a, (fa, ga) in enumerate(twocells):
        for b, (fb, gb) in enumerate(twocells):
            if ga == fb:
                out[(a, b)] = index[(fa, gb)]
    return out


def _free_iso_hcomp(onecells, twocells, comp1):
    """Horizontal composition, likewise: the 2-cell between the composites
    of the sources and of the targets."""
    index = {pair: i for i, pair in enumerate(twocells)}
    out = {}
    for a, (fa, ga) in enumerate(twocells):
        for b, (fb, gb) in enumerate(twocells):
            if onecells[fa][1] == onecells[fb][0]:
                out[(a, b)] = index[(comp1[(fa, fb)], comp1[(ga, gb)])]
    return out


def walking_two_cell(invertible: bool = False) -> TwoCategory:
    """Two objects, parallel 1-cells f, g : 0 -> 1, one 2-cell s: f => g
    (plus its inverse when requested)."""
    onecells = [(0, 0), (1, 1), (0, 1), (0, 1)]  # id0, id1, f, g
    comp1 = {
        (0, 0): 0,
        (1, 1): 1,
        (0, 2): 2,
        (2, 1): 2,
        (0, 3): 3,
        (3, 1): 3,
    }
    twocells = [(0, 0), (1, 1), (2, 2), (3, 3), (2, 3)]  # identities + s
    names2 = ["Id0", "Id1", "Idf", "Idg", "s"]
    if invertible:
        twocells.append((3, 2))
        names2.append("sinv")
    return TwoCategory(
        2,
        onecells,
        twocells,
        comp1,
        _free_iso_vcomp(twocells),
        _free_iso_hcomp(onecells, twocells, comp1),
        [0, 1],
        [0, 1, 2, 3],
        names={"objects": ["0", "1"], "onecell": ["id0", "id1", "f", "g"], "twocell": names2},
    )


def braid_monoid_two_category() -> TwoCategory:
    """One object; 1-cells the length-graded monoid {1, a, b, ab, ba, 0} where
    every product of length >= 3 collapses to 0; one invertible 2-cell
    s : ab => ba.  The smallest setting where the two interleavings of a pair
    of 1-cells are related by a nonidentity 2-cell."""
    E, A, B, AB, BA, Z = range(6)
    names1 = ["1", "a", "b", "ab", "ba", "0"]

    def mult(x, y):
        if x == E:
            return y
        if y == E:
            return x
        if (x, y) == (A, B):
            return AB
        if (x, y) == (B, A):
            return BA
        return Z

    onecells = [(0, 0)] * 6
    comp1 = {(x, y): mult(x, y) for x in range(6) for y in range(6)}
    twocells = [(f, f) for f in range(6)] + [(AB, BA), (BA, AB)]
    S, SINV = 6, 7
    names2 = [f"Id{names1[f]}" for f in range(6)] + ["s", "sinv"]
    n2 = len(twocells)

    def classify(src, tgt):
        if src == tgt:
            return src  # identity 2-cell on that 1-cell
        if (src, tgt) == (AB, BA):
            return S
        if (src, tgt) == (BA, AB):
            return SINV
        raise AssertionError((src, tgt))

    vcomp2 = {}
    for a in range(n2):
        for b in range(n2):
            if twocells[a][1] == twocells[b][0]:
                vcomp2[(a, b)] = classify(twocells[a][0], twocells[b][1])
    hcomp2 = {}
    for a in range(n2):
        for b in range(n2):
            src = mult(twocells[a][0], twocells[b][0])
            tgt = mult(twocells[a][1], twocells[b][1])
            # whiskering any nonidentity 2-cell kills the composite to 0
            # unless the other factor is the unit 1-cell
            hcomp2[(a, b)] = classify(src, tgt) if (src, tgt) != (Z, Z) else Z
    return TwoCategory(
        1,
        onecells,
        twocells,
        comp1,
        vcomp2,
        hcomp2,
        [E],
        list(range(6)),
        names={"objects": ["*"], "onecell": names1, "twocell": names2},
    )


def acyclic_two_category_catalog() -> list[tuple[str, TwoCategory]]:
    """2-categories with <= 2 objects whose nonidentity 1-cells form an
    acyclic graph; the tensor-word skeleta over these are finite."""
    return [
        ("trivial", trivial_two_category()),
        ("walking-arrow", walking_arrow_two_category()),
        ("walking-2cell", walking_two_cell()),
    ]


# ---------------------------------------------------------------------------
# bicategories


def sign_bicategory():
    """The cells and tables of :func:`sign_two_category`, weakened: the
    associator at (a,a,a) is the -1 cell and +1 everywhere else, the
    classical nontrivial normalized 3-cocycle, so the pentagon holds while
    the associator does not reduce to the identity."""
    from .weak import Bicategory

    t = sign_two_category()
    # the 2-cell 2*x + (0 for +1, 1 for -1) lives on the 1-cell x
    assoc = {
        (x, y, z): 2 * ((x + y + z) % 2) + (x == y == z == 1) for x in range(2) for y in range(2) for z in range(2)
    }
    return Bicategory(
        t.n_objects, t.onecells, t.twocells, t.comp1, t.vcomp2, t.hcomp2, t.id1, t.id2,
        assoc, dict(assoc), *(t.id2,) * 4, names=t.names,
    )


def two_object_bicategory():
    """Two objects X, Y; hom(X,Y) has parallel 1-cells p, q with an
    invertible 2-cell between them; all other homs are units only.  Strict:
    the invertible walking 2-cell, renamed.  Used for the composable-pair
    counting checks."""
    from .weak import bicategory_from_two_category

    b = bicategory_from_two_category(walking_two_cell(invertible=True))
    b.names = {
        "objects": ["X", "Y"], "onecell": ["1X", "1Y", "p", "q"], "twocell": ["I1X", "I1Y", "Ip", "Iq", "t", "tinv"]
    }
    return b


def sign_two_category() -> TwoCategory:
    """One object; 1-cells the group {e, a}; every 1-cell carries a sign
    group {+1, -1} of endo-2-cells, with both compositions multiplying
    signs.  Strict, and the smallest setting with two parallel squares on
    the same boundary."""
    onecells = [(0, 0), (0, 0)]  # e, a
    twocells = [(x, x) for x in (0, 0, 1, 1)]  # e+, e-, a+, a-
    names2 = ["e+", "e-", "a+", "a-"]

    def cell(onecell, sign):
        return onecell * 2 + (0 if sign > 0 else 1)

    def sign_of(c):
        return 1 if c % 2 == 0 else -1

    comp1 = {(x, y): (x + y) % 2 for x in range(2) for y in range(2)}
    vcomp2 = {
        (a, b): cell(a // 2, sign_of(a) * sign_of(b))
        for a in range(4)
        for b in range(4)
        if a // 2 == b // 2
    }
    hcomp2 = {
        (a, b): cell(comp1[(a // 2, b // 2)], sign_of(a) * sign_of(b))
        for a in range(4)
        for b in range(4)
    }
    return TwoCategory(
        1,
        onecells,
        twocells,
        comp1,
        vcomp2,
        hcomp2,
        [0],
        [0, 2],
        names={"objects": ["*"], "onecell": ["e", "a"], "twocell": names2},
    )


def collapse_monoid_two_category() -> TwoCategory:
    """One object; 1-cells {1, x} with x idempotent; one 2-cell k : x => 1.
    The smallest setting where a coupled transformation has a nonidentity
    generating square.  (A second parallel collapse cell is impossible:
    interchange forces any two to coincide.)"""
    onecells = [(0, 0), (0, 0)]  # 1, x
    comp1 = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    twocells = [(0, 0), (1, 1), (1, 0)]  # Id1, Idx, k
    names2 = ["Id1", "Idx", "k"]
    n2 = len(twocells)

    def is_collapse(a):
        return twocells[a] == (1, 0)

    vcomp2 = {}
    for a in range(n2):
        for b in range(n2):
            if twocells[a][1] != twocells[b][0]:
                continue
            if a < 2:
                vcomp2[(a, b)] = b
            elif b < 2:
                vcomp2[(a, b)] = a
    hcomp2 = {}
    for a in range(n2):
        for b in range(n2):
            src = comp1[(twocells[a][0], twocells[b][0])]
            tgt = comp1[(twocells[a][1], twocells[b][1])]
            if src == tgt:
                hcomp2[(a, b)] = src  # Id on that 1-cell (ids are 0, 1)
            else:
                hcomp2[(a, b)] = a if is_collapse(a) else b
    return TwoCategory(
        1,
        onecells,
        twocells,
        comp1,
        vcomp2,
        hcomp2,
        [0],
        [0, 1],
        names={"objects": ["*"], "onecell": ["1", "x"], "twocell": names2},
    )


def braid_monoid_in_dbl():
    """Multiplication structure on the embedded braid monoid: the two
    interleavings of (a, b) differ as 1-cells and the interchanger image is
    the braiding cell s."""
    from .graytensor import MonoidInDbl
    from .kernel import embed_two_category

    t = braid_monoid_two_category()
    d = embed_two_category(t)
    nh = len(d.hcells)
    S, SINV = 6, 7

    def flip_cell(F, f):
        top = d.hcomp(F, f)
        bot = d.hcomp(f, F)
        if top == bot:
            return d.sq_vid[top]
        if (top, bot) == (3, 4):  # ab => ba
            return S
        if (top, bot) == (4, 3):
            return SINV
        raise AssertionError((F, f))

    mul_ob = {(0, 0): 0}
    mul_h_left = {(f, 0): f for f in range(nh)}
    mul_h_right = {(0, f): f for f in range(nh)}
    mul_v_left = {(0, 0): 0}
    mul_v_right = {(0, 0): 0}
    mul_sq_left = {(s, 0): s for s in range(len(d.squares))}
    mul_sq_right = {(0, s): s for s in range(len(d.squares))}
    flip_hh = {(F, f): flip_cell(F, f) for F in range(nh) for f in range(nh)}
    flip_hh_inv = {
        (F, f): {S: SINV, SINV: S}.get(cell, cell) for (F, f), cell in flip_hh.items()
    }
    flip_vv = {(0, 0): d.sq_hid[0]}
    mixed_hv = {(F, 0): d.sq_vid[F] for F in range(nh)}
    mixed_vh = {(0, f): d.sq_vid[f] for f in range(nh)}
    return MonoidInDbl(
        d,
        0,
        mul_ob,
        mul_h_left,
        mul_h_right,
        mul_v_left,
        mul_v_right,
        mul_sq_left,
        mul_sq_right,
        flip_hh,
        flip_hh_inv,
        flip_vv,
        dict(flip_vv),
        mixed_hv,
        mixed_vh,
    )


def commutative_monoid_in_dbl(c=None):
    """Monoid on the square category of an abelian group (order two by
    default): the genuinely commuting case, all interchanger images are
    identity squares."""
    from .functors import StrictDoubleFunctor
    from .graytensor import monoid_from_functor
    from .kernel import product, quintet

    c = c if c is not None else cyclic_group_cat(2)
    d = quintet(c)
    p = product(d, d)
    nm = len(c.mor)

    # one-object group: multiplication is composition itself
    ob_map = [0] * p.n_objects
    h_map = [c.comp[(x // nm, x % nm)] for x in range(len(p.hcells))]
    v_map = [c.comp[(x // nm, x % nm)] for x in range(len(p.vcells))]
    sq_map = []
    ns = len(d.squares)
    for s in range(len(p.squares)):
        s1, s2 = s // ns, s % ns
        t = c.comp[(d.top(s1), d.top(s2))]
        b = c.comp[(d.bottom(s1), d.bottom(s2))]
        l = c.comp[(d.left(s1), d.left(s2))]
        r = c.comp[(d.right(s1), d.right(s2))]
        target = next(i for i, bnd in enumerate(d.squares) if bnd == (t, b, l, r))
        sq_map.append(target)
    mul = StrictDoubleFunctor(p, d, ob_map, h_map, v_map, sq_map, name="mul")
    return monoid_from_functor(d, mul, 0)


def min_monoid_in_dbl():
    """Meet multiplication on the square category of the walking arrow."""
    from .functors import StrictDoubleFunctor
    from .graytensor import monoid_from_functor
    from .kernel import product, quintet

    c = walking_arrow()
    d = quintet(c)
    p = product(d, d)
    nm = len(c.mor)

    def meet_mor(x, y):
        # morphisms of the chain 0 <= 1: intervals; meet componentwise
        ix, jx = c.mor[x]
        iy, jy = c.mor[y]
        lo, hi = min(ix, iy), min(jx, jy)
        return next(k for k, m in enumerate(c.mor) if m == (lo, hi))

    ob_map = [min(a // 2, a % 2) for a in range(p.n_objects)]
    h_map = [meet_mor(x // nm, x % nm) for x in range(len(p.hcells))]
    v_map = list(h_map)
    sq_map = []
    ns = len(d.squares)
    for s in range(len(p.squares)):
        s1, s2 = s // ns, s % ns
        bnd = (
            meet_mor(d.top(s1), d.top(s2)),
            meet_mor(d.bottom(s1), d.bottom(s2)),
            meet_mor(d.left(s1), d.left(s2)),
            meet_mor(d.right(s1), d.right(s2)),
        )
        sq_map.append(next(i for i, b in enumerate(d.squares) if b == bnd))
    mul = StrictDoubleFunctor(p, d, ob_map, h_map, v_map, sq_map, name="meet")
    return monoid_from_functor(d, mul, 1)


def trivial_monoid_in_dbl():
    from .functors import StrictDoubleFunctor
    from .graytensor import monoid_from_functor
    from .kernel import product, terminal_double_category

    d = terminal_double_category()
    p = product(d, d)
    mul = StrictDoubleFunctor(p, d, [0], [0], [0], [0], name="!")
    return monoid_from_functor(d, mul, 0)


def sign_cocycle_pseudofunctor():
    """Identity cell maps on the embedded sign 2-category with every
    horizontal composition and unit comparison cell the minus square: the
    constant nontrivial 2-cocycle, hence coherent but not normalized."""
    from dataclasses import replace

    from .functors import identity_functor, pseudo_from_strict
    from .kernel import embed_two_category

    d = embed_two_category(sign_two_category())

    def minus_on(h):
        # squares are indexed 2*onecell + sign bit
        return 2 * h + 1

    comp_h = {(f, g): minus_on(d.hcomp(f, g)) for (f, g) in d.hcomp1}
    unit_h = {0: minus_on(d.hid[0])}
    strict = pseudo_from_strict(identity_functor(d))
    return replace(strict, comp_h=comp_h, comp_h_inv=dict(comp_h), unit_h=unit_h, unit_h_inv=dict(unit_h), name="sign-cocycle")
