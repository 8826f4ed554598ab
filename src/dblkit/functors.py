"""Functors of double categories.

Strict functors are four cell maps preserving all eight table operations on
the nose.  A double pseudofunctor keeps the cell maps but preserves the two
1-cell compositions and identities only up to stored invertible globular
squares, one family per direction:

    comp_h[(f, g)] : F(f.g)      =>  F(f).F(g)      vertically globular
    unit_h[A]      : F(1_A)      =>  1_{F(A)}       vertically globular
    comp_v[(u, v)] : F(u);F(v)   =>  F(u;v)         horizontally globular
    unit_v[A]      : 1^{F(A)}    =>  F(1^A)         horizontally globular

(note the two directions run opposite ways; this matches how the cells are
used in pasting formulas).  Inverses are stored, never solved for, and the
checker verifies them.  The coherence catalog is named per axiom and each
axiom can be toggled individually, which is what the mutation tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    _columns,
    _triples,
    pullback_pairs,
    same_category,
)
from .report import AxiomReport, Budget, Collector, live_axioms

PSEUDO_FUNCTOR_AXIOMS = (
    "hcell-assoc",
    "hcell-unit-left",
    "hcell-unit-right",
    "vcell-assoc",
    "vcell-unit-left",
    "vcell-unit-right",
    "square-hcomp-naturality",
    "square-hunit-naturality",
    "square-vcomp-naturality",
    "square-vunit-naturality",
    "invertibility",
)


@dataclass
class StrictDoubleFunctor:
    dom: DoubleCategory
    cod: DoubleCategory
    ob_map: tuple
    h_map: tuple
    v_map: tuple
    sq_map: tuple
    name: str = ""

    def __post_init__(self):
        self.ob_map = tuple(self.ob_map)
        self.h_map = tuple(self.h_map)
        self.v_map = tuple(self.v_map)
        self.sq_map = tuple(self.sq_map)
        if len(self.ob_map) != self.dom.n_objects:
            raise StructureError("object map has wrong length")
        if (
            len(self.h_map) != len(self.dom.hcells)
            or len(self.v_map) != len(self.dom.vcells)
            or len(self.sq_map) != len(self.dom.squares)
        ):
            raise StructureError("cell map has wrong length")

    def ob(self, a):
        return self.ob_map[a]

    def h(self, f):
        return self.h_map[f]

    def v(self, u):
        return self.v_map[u]

    def sq(self, s):
        return self.sq_map[s]


def identity_functor(d: DoubleCategory) -> StrictDoubleFunctor:
    return StrictDoubleFunctor(
        d,
        d,
        range(d.n_objects),
        range(len(d.hcells)),
        range(len(d.vcells)),
        range(len(d.squares)),
        name="id",
    )


def compose_strict(g: StrictDoubleFunctor, f: StrictDoubleFunctor) -> StrictDoubleFunctor:
    if not same_category(f.cod, g.dom):
        raise StructureError("strict functors not composable")
    return StrictDoubleFunctor(
        f.dom,
        g.cod,
        [g.ob(x) for x in f.ob_map],
        [g.h(x) for x in f.h_map],
        [g.v(x) for x in f.v_map],
        [g.sq(x) for x in f.sq_map],
        name=f"{g.name}.{f.name}" if g.name or f.name else "",
    )


def strict_equal(f: StrictDoubleFunctor, g: StrictDoubleFunctor) -> bool:
    return (
        same_category(f.dom, g.dom)
        and same_category(f.cod, g.cod)
        and f.ob_map == g.ob_map
        and f.h_map == g.h_map
        and f.v_map == g.v_map
        and f.sq_map == g.sq_map
    )


def _boundary_violations(f):
    """Cell maps must commute with boundaries; violations are structural."""
    dom, cod = f.dom, f.cod
    for x in range(len(dom.hcells)):
        if (cod.hs(f.h(x)), cod.ht(f.h(x))) != (f.ob(dom.hs(x)), f.ob(dom.ht(x))):
            raise StructureError(f"hcell {x} image has wrong boundary")
    for x in range(len(dom.vcells)):
        if (cod.vs(f.v(x)), cod.vt(f.v(x))) != (f.ob(dom.vs(x)), f.ob(dom.vt(x))):
            raise StructureError(f"vcell {x} image has wrong boundary")
    for s in range(len(dom.squares)):
        t, b, l, r = dom.squares[s]
        if cod.squares[f.sq(s)] != (f.h(t), f.h(b), f.v(l), f.v(r)):
            raise StructureError(f"square {s} image has wrong boundary")


def check_strict_functor(f: StrictDoubleFunctor, budget: Budget | None = None) -> AxiomReport:
    """The eight strict preservation equations, over all composable pairs."""
    col = Collector("strict-functor", budget)
    _boundary_violations(f)
    dom, cod = f.dom, f.cod
    for (x, y) in sorted(dom.hcomp1):
        col.eq("hcomp1-preserved", ((HCELL, x), (HCELL, y)), f.h(dom.hcomp(x, y)), cod.hcomp(f.h(x), f.h(y)))
    for (x, y) in sorted(dom.vcomp1):
        col.eq("vcomp1-preserved", ((VCELL, x), (VCELL, y)), f.v(dom.vcomp(x, y)), cod.vcomp(f.v(x), f.v(y)))
    for (x, y) in sorted(dom.hcomp2):
        col.eq("hcomp2-preserved", ((SQUARE, x), (SQUARE, y)), f.sq(dom.hpaste(x, y)), cod.hpaste(f.sq(x), f.sq(y)))
    for (x, y) in sorted(dom.vcomp2):
        col.eq("vcomp2-preserved", ((SQUARE, x), (SQUARE, y)), f.sq(dom.vpaste(x, y)), cod.vpaste(f.sq(x), f.sq(y)))
    for a in range(dom.n_objects):
        col.eq("hid-preserved", ((OBJECT, a),), f.h(dom.hid[a]), cod.hid[f.ob(a)])
        col.eq("vid-preserved", ((OBJECT, a),), f.v(dom.vid[a]), cod.vid[f.ob(a)])
    for x in range(len(dom.hcells)):
        col.eq("sq-vid-preserved", ((HCELL, x),), f.sq(dom.sq_vid[x]), cod.sq_vid[f.h(x)])
    for u in range(len(dom.vcells)):
        col.eq("sq-hid-preserved", ((VCELL, u),), f.sq(dom.sq_hid[u]), cod.sq_hid[f.v(u)])
    return col.done()


# ---------------------------------------------------------------------------
# double pseudofunctors


@dataclass
class DoublePseudoFunctor:
    dom: DoubleCategory
    cod: DoubleCategory
    ob_map: tuple
    h_map: tuple
    v_map: tuple
    sq_map: tuple
    comp_h: dict
    comp_h_inv: dict
    unit_h: dict
    unit_h_inv: dict
    comp_v: dict
    comp_v_inv: dict
    unit_v: dict
    unit_v_inv: dict
    name: str = ""

    def __post_init__(self):
        self.ob_map = tuple(self.ob_map)
        self.h_map = tuple(self.h_map)
        self.v_map = tuple(self.v_map)
        self.sq_map = tuple(self.sq_map)

    def ob(self, a):
        return self.ob_map[a]

    def h(self, f):
        return self.h_map[f]

    def v(self, u):
        return self.v_map[u]

    def sq(self, s):
        return self.sq_map[s]

    @property
    def normalized(self) -> bool:
        """True when both unit-cell families are identity squares."""
        cod = self.cod
        return all(
            cell == cod.sq_vid[cod.top(cell)] for cell in self.unit_h.values()
        ) and all(cell == cod.sq_hid[cod.left(cell)] for cell in self.unit_v.values())

    @property
    def strict(self) -> bool:
        cod = self.cod
        return (
            self.normalized
            and all(c == cod.sq_vid[cod.top(c)] for c in self.comp_h.values())
            and all(c == cod.sq_hid[cod.left(c)] for c in self.comp_v.values())
        )


def pseudo_equal(f: DoublePseudoFunctor, g: DoublePseudoFunctor) -> bool:
    return (
        same_category(f.dom, g.dom)
        and same_category(f.cod, g.cod)
        and f.ob_map == g.ob_map
        and f.h_map == g.h_map
        and f.v_map == g.v_map
        and f.sq_map == g.sq_map
        and f.comp_h == g.comp_h
        and f.unit_h == g.unit_h
        and f.comp_v == g.comp_v
        and f.unit_v == g.unit_v
    )


def pseudo_from_strict(f: StrictDoubleFunctor) -> DoublePseudoFunctor:
    dom, cod = f.dom, f.cod
    sq_vid, sq_hid, h_map, v_map = cod.sq_vid, cod.sq_hid, f.h_map, f.v_map
    comp_h = {key: sq_vid[h_map[z]] for key, z in dom.hcomp1.items()}
    comp_v = {key: sq_hid[v_map[z]] for key, z in dom.vcomp1.items()}
    unit_h = {a: sq_vid[h_map[z]] for a, z in enumerate(dom.hid)}
    unit_v = {a: sq_hid[v_map[z]] for a, z in enumerate(dom.vid)}
    return DoublePseudoFunctor(
        dom,
        cod,
        f.ob_map,
        f.h_map,
        f.v_map,
        f.sq_map,
        comp_h,
        dict(comp_h),
        unit_h,
        dict(unit_h),
        comp_v,
        dict(comp_v),
        unit_v,
        dict(unit_v),
        name=f.name,
    )


def identity_pseudo(d: DoubleCategory) -> DoublePseudoFunctor:
    return pseudo_from_strict(identity_functor(d))


def _structure_boundaries(f: DoublePseudoFunctor):
    """Raise unless every structure cell has its required boundary."""
    dom, cod = f.dom, f.cod
    _boundary_violations(f)
    h_pairs = set(dom.hcomp1)
    v_pairs = set(dom.vcomp1)
    objs = set(range(dom.n_objects))
    if set(f.comp_h) != h_pairs or set(f.comp_h_inv) != h_pairs:
        raise StructureError("comp_h must be keyed on exactly the composable hcell pairs")
    if set(f.comp_v) != v_pairs or set(f.comp_v_inv) != v_pairs:
        raise StructureError("comp_v must be keyed on exactly the composable vcell pairs")
    if set(f.unit_h) != objs or set(f.unit_h_inv) != objs or set(f.unit_v) != objs or set(f.unit_v_inv) != objs:
        raise StructureError("unit cells must be keyed on exactly the objects")
    for (x, y), s in f.comp_h.items():
        a, b = f.ob(dom.hs(x)), f.ob(dom.ht(y))
        expect = (f.h(dom.hcomp(x, y)), cod.hcomp(f.h(x), f.h(y)), cod.vid[a], cod.vid[b])
        if cod.squares[s] != expect:
            raise StructureError(f"comp_h cell at {(x, y)} has wrong boundary")
        if cod.squares[f.comp_h_inv[(x, y)]] != (expect[1], expect[0], expect[2], expect[3]):
            raise StructureError(f"comp_h inverse at {(x, y)} has wrong boundary")
    for (u, v), s in f.comp_v.items():
        a, b = f.ob(dom.vs(u)), f.ob(dom.vt(v))
        expect = (cod.hid[a], cod.hid[b], cod.vcomp(f.v(u), f.v(v)), f.v(dom.vcomp(u, v)))
        if cod.squares[s] != expect:
            raise StructureError(f"comp_v cell at {(u, v)} has wrong boundary")
        if cod.squares[f.comp_v_inv[(u, v)]] != (expect[0], expect[1], expect[3], expect[2]):
            raise StructureError(f"comp_v inverse at {(u, v)} has wrong boundary")
    for a, s in f.unit_h.items():
        fa = f.ob(a)
        expect = (f.h(dom.hid[a]), cod.hid[fa], cod.vid[fa], cod.vid[fa])
        if cod.squares[s] != expect:
            raise StructureError(f"unit_h cell at {a} has wrong boundary")
        if cod.squares[f.unit_h_inv[a]] != (expect[1], expect[0], expect[2], expect[3]):
            raise StructureError(f"unit_h inverse at {a} has wrong boundary")
    for a, s in f.unit_v.items():
        fa = f.ob(a)
        expect = (cod.hid[fa], cod.hid[fa], cod.vid[fa], f.v(dom.vid[a]))
        if cod.squares[s] != expect:
            raise StructureError(f"unit_v cell at {a} has wrong boundary")
        if cod.squares[f.unit_v_inv[a]] != (expect[0], expect[1], expect[3], expect[2]):
            raise StructureError(f"unit_v inverse at {a} has wrong boundary")


def check_double_pseudo_functor(
    f: DoublePseudoFunctor,
    budget: Budget | None = None,
    axioms=None,
) -> AxiomReport:
    """Verify the named coherence catalog plus invertibility of all four
    structure-cell families.  ``axioms`` restricts the run to a subset of
    :data:`PSEUDO_FUNCTOR_AXIOMS`; the default runs everything."""
    live = live_axioms(PSEUDO_FUNCTOR_AXIOMS, axioms)
    col = Collector("double-pseudo-functor", budget)
    _structure_boundaries(f)
    dom, cod = f.dom, f.cod
    nh, nv = len(dom.hcells), len(dom.vcells)

    if "invertibility" in live:
        for (x, y) in sorted(f.comp_h):
            cell, inv = f.comp_h[(x, y)], f.comp_h_inv[(x, y)]
            col.eq("invertibility", ((HCELL, x), (HCELL, y)), cod.vpaste(cell, inv), cod.sq_vid[cod.top(cell)])
            col.eq("invertibility", ((HCELL, x), (HCELL, y)), cod.vpaste(inv, cell), cod.sq_vid[cod.bottom(cell)])
        for (u, v) in sorted(f.comp_v):
            cell, inv = f.comp_v[(u, v)], f.comp_v_inv[(u, v)]
            col.eq("invertibility", ((VCELL, u), (VCELL, v)), cod.hpaste(cell, inv), cod.sq_hid[cod.left(cell)])
            col.eq("invertibility", ((VCELL, u), (VCELL, v)), cod.hpaste(inv, cell), cod.sq_hid[cod.right(cell)])
        for a in sorted(f.unit_h):
            cell, inv = f.unit_h[a], f.unit_h_inv[a]
            col.eq("invertibility", ((OBJECT, a),), cod.vpaste(cell, inv), cod.sq_vid[cod.top(cell)])
            col.eq("invertibility", ((OBJECT, a),), cod.vpaste(inv, cell), cod.sq_vid[cod.bottom(cell)])
        for a in sorted(f.unit_v):
            cell, inv = f.unit_v[a], f.unit_v_inv[a]
            col.eq("invertibility", ((OBJECT, a),), cod.hpaste(cell, inv), cod.sq_hid[cod.left(cell)])
            col.eq("invertibility", ((OBJECT, a),), cod.hpaste(inv, cell), cod.sq_hid[cod.right(cell)])

    if "hcell-assoc" in live:
        hs, ht = _columns(dom.hcells, 2)
        for x, y, z in _triples(dom.hcomp1, ht, hs):
            lhs = cod.vpaste(
                f.comp_h[(dom.hcomp(x, y), z)],
                cod.hpaste(f.comp_h[(x, y)], cod.sq_vid[f.h(z)]),
            )
            rhs = cod.vpaste(
                f.comp_h[(x, dom.hcomp(y, z))],
                cod.hpaste(cod.sq_vid[f.h(x)], f.comp_h[(y, z)]),
            )
            col.eq("hcell-assoc", ((HCELL, x), (HCELL, y), (HCELL, z)), lhs, rhs)
    if "hcell-unit-left" in live:
        for x in range(nh):
            a = dom.hs(x)
            lhs = cod.vpaste(
                f.comp_h[(dom.hid[a], x)],
                cod.hpaste(f.unit_h[a], cod.sq_vid[f.h(x)]),
            )
            col.eq("hcell-unit-left", ((HCELL, x),), lhs, cod.sq_vid[f.h(x)])
    if "hcell-unit-right" in live:
        for x in range(nh):
            b = dom.ht(x)
            lhs = cod.vpaste(
                f.comp_h[(x, dom.hid[b])],
                cod.hpaste(cod.sq_vid[f.h(x)], f.unit_h[b]),
            )
            col.eq("hcell-unit-right", ((HCELL, x),), lhs, cod.sq_vid[f.h(x)])

    if "vcell-assoc" in live:
        vs, vt = _columns(dom.vcells, 2)
        for u, v, w in _triples(dom.vcomp1, vt, vs):
            lhs = cod.hpaste(
                cod.vpaste(f.comp_v[(u, v)], cod.sq_hid[f.v(w)]),
                f.comp_v[(dom.vcomp(u, v), w)],
            )
            rhs = cod.hpaste(
                cod.vpaste(cod.sq_hid[f.v(u)], f.comp_v[(v, w)]),
                f.comp_v[(u, dom.vcomp(v, w))],
            )
            col.eq("vcell-assoc", ((VCELL, u), (VCELL, v), (VCELL, w)), lhs, rhs)
    if "vcell-unit-left" in live:
        for u in range(nv):
            a = dom.vs(u)
            lhs = cod.hpaste(
                cod.vpaste(f.unit_v[a], cod.sq_hid[f.v(u)]),
                f.comp_v[(dom.vid[a], u)],
            )
            col.eq("vcell-unit-left", ((VCELL, u),), lhs, cod.sq_hid[f.v(u)])
    if "vcell-unit-right" in live:
        for u in range(nv):
            b = dom.vt(u)
            lhs = cod.hpaste(
                cod.vpaste(cod.sq_hid[f.v(u)], f.unit_v[b]),
                f.comp_v[(u, dom.vid[b])],
            )
            col.eq("vcell-unit-right", ((VCELL, u),), lhs, cod.sq_hid[f.v(u)])

    if "square-hcomp-naturality" in live:
        for (s, t) in sorted(dom.hcomp2):
            lhs = cod.vpaste(
                f.comp_h[(dom.top(s), dom.top(t))],
                cod.hpaste(f.sq(s), f.sq(t)),
            )
            rhs = cod.vpaste(
                f.sq(dom.hpaste(s, t)),
                f.comp_h[(dom.bottom(s), dom.bottom(t))],
            )
            col.eq("square-hcomp-naturality", ((SQUARE, s), (SQUARE, t)), lhs, rhs)
    if "square-hunit-naturality" in live:
        for u in range(nv):
            a, b = dom.vs(u), dom.vt(u)
            rhs = cod.vcol(f.unit_h[a], cod.sq_hid[f.v(u)], f.unit_h_inv[b])
            col.eq("square-hunit-naturality", ((VCELL, u),), f.sq(dom.sq_hid[u]), rhs)
    if "square-vcomp-naturality" in live:
        for (s, t) in sorted(dom.vcomp2):
            lhs = cod.hpaste(
                cod.vpaste(f.sq(s), f.sq(t)),
                f.comp_v[(dom.right(s), dom.right(t))],
            )
            rhs = cod.hpaste(
                f.comp_v[(dom.left(s), dom.left(t))],
                f.sq(dom.vpaste(s, t)),
            )
            col.eq("square-vcomp-naturality", ((SQUARE, s), (SQUARE, t)), lhs, rhs)
    if "square-vunit-naturality" in live:
        for x in range(nh):
            a, b = dom.hs(x), dom.ht(x)
            rhs = cod.hrow(f.unit_v_inv[a], cod.sq_vid[f.h(x)], f.unit_v[b])
            col.eq("square-vunit-naturality", ((HCELL, x),), f.sq(dom.sq_vid[x]), rhs)
    return col.done()


# -- conjugation helpers: make the image of a globular square globular again


def conj_v(g: DoublePseudoFunctor, s: int) -> int:
    """Image under g of a vertically globular square of g.dom, conjugated by
    the unit_v cells so the result is vertically globular in g.cod."""
    dom, cod = g.dom, g.cod
    a, b = dom.hs(dom.top(s)), dom.ht(dom.top(s))
    return cod.hrow(g.unit_v[a], g.sq(s), g.unit_v_inv[b])


def conj_h(g: DoublePseudoFunctor, s: int) -> int:
    """Image under g of a horizontally globular square, conjugated by the
    unit_h cells so the result is horizontally globular in g.cod."""
    dom, cod = g.dom, g.cod
    a, b = dom.vs(dom.left(s)), dom.vt(dom.left(s))
    return cod.vcol(g.unit_h_inv[a], g.sq(s), g.unit_h[b])


def compose_pseudo(g: DoublePseudoFunctor, f: DoublePseudoFunctor) -> DoublePseudoFunctor:
    """Composite double pseudofunctor; structure cells are the standard
    pastings of g's cells with the g-images of f's cells.

    The structure cells of f take few distinct values (on the braid bundle's
    triple pullback, some 900,000 conjugations cover 511 squares), so each
    conjugation, and each pasting keyed by f's cell and the images of the
    pair, is built once per call."""
    if not same_category(f.cod, g.dom):
        raise StructureError("pseudofunctors not composable")
    cod = g.cod
    ob_map = [g.ob(x) for x in f.ob_map]
    h_map = [g.h(x) for x in f.h_map]
    v_map = [g.v(x) for x in f.v_map]
    sq_map = [g.sq(x) for x in f.sq_map]
    conj_vs, conj_hs = {}, {}

    def cv(s):
        cell = conj_vs.get(s)
        if cell is None:
            cell = conj_vs[s] = conj_v(g, s)
        return cell

    def ch(s):
        cell = conj_hs.get(s)
        if cell is None:
            cell = conj_hs[s] = conj_h(g, s)
        return cell

    def family(table, cells, images, paste):
        """``paste(cell, x', y')`` for each key (x, y) of ``table``, with
        ``cell`` f's structure cell at the key and x', y' the images of x
        and y; each distinct triple is pasted once."""
        made = {}
        get = made.get
        out = {}
        for key in table:
            x, y = key
            k = (cells[key], images[x], images[y])
            cell = get(k)
            if cell is None:
                cell = made[k] = paste(*k)
            out[key] = cell
        return out

    hcomp1, vcomp1 = f.dom.hcomp1, f.dom.vcomp1
    comp_h = family(hcomp1, f.comp_h, f.h_map, lambda s, x, y: cod.vpaste(cv(s), g.comp_h[(x, y)]))
    comp_h_inv = family(hcomp1, f.comp_h_inv, f.h_map, lambda s, x, y: cod.vpaste(g.comp_h_inv[(x, y)], cv(s)))
    comp_v = family(vcomp1, f.comp_v, f.v_map, lambda s, u, v: cod.hpaste(g.comp_v[(u, v)], ch(s)))
    comp_v_inv = family(vcomp1, f.comp_v_inv, f.v_map, lambda s, u, v: cod.hpaste(ch(s), g.comp_v_inv[(u, v)]))
    unit_h, unit_h_inv, unit_v, unit_v_inv = {}, {}, {}, {}
    for a in range(f.dom.n_objects):
        unit_h[a] = cod.vpaste(cv(f.unit_h[a]), g.unit_h[f.ob(a)])
        unit_h_inv[a] = cod.vpaste(g.unit_h_inv[f.ob(a)], cv(f.unit_h_inv[a]))
        unit_v[a] = cod.hpaste(g.unit_v[f.ob(a)], ch(f.unit_v[a]))
        unit_v_inv[a] = cod.hpaste(ch(f.unit_v_inv[a]), g.unit_v_inv[f.ob(a)])
    return DoublePseudoFunctor(
        f.dom,
        g.cod,
        ob_map,
        h_map,
        v_map,
        sq_map,
        comp_h,
        comp_h_inv,
        unit_h,
        unit_h_inv,
        comp_v,
        comp_v_inv,
        unit_v,
        unit_v_inv,
        name=f"{g.name}.{f.name}" if g.name or f.name else "",
    )


def transpose_pseudo(f: DoublePseudoFunctor, dom_t: DoubleCategory, cod_t: DoubleCategory) -> DoublePseudoFunctor:
    """Transposed functor between pre-transposed categories.

    Transposition reverses the orientation of the structure cells (the
    horizontal families of the transpose come from the inverses of the
    vertical families), which is why the inverses are stored.
    """
    return DoublePseudoFunctor(
        dom_t,
        cod_t,
        f.ob_map,
        f.v_map,
        f.h_map,
        f.sq_map,
        comp_h=dict(f.comp_v_inv),
        comp_h_inv=dict(f.comp_v),
        unit_h=dict(f.unit_v_inv),
        unit_h_inv=dict(f.unit_v),
        comp_v=dict(f.comp_h_inv),
        comp_v_inv=dict(f.comp_h),
        unit_v=dict(f.unit_h_inv),
        unit_v_inv=dict(f.unit_h),
        name=f.name,
    )


# ---------------------------------------------------------------------------
# projections for products and pullbacks


def product_projections(d1: DoubleCategory, d2: DoubleCategory, prod: DoubleCategory):
    no, nh, nv, ns = d2.n_objects, len(d2.hcells), len(d2.vcells), len(d2.squares)
    p1 = StrictDoubleFunctor(
        prod,
        d1,
        [i // no for i in range(prod.n_objects)],
        [i // nh for i in range(len(prod.hcells))],
        [i // nv for i in range(len(prod.vcells))],
        [i // ns for i in range(len(prod.squares))],
        name="p1",
    )
    p2 = StrictDoubleFunctor(
        prod,
        d2,
        [i % no for i in range(prod.n_objects)],
        [i % nh for i in range(len(prod.hcells))],
        [i % nv for i in range(len(prod.vcells))],
        [i % ns for i in range(len(prod.squares))],
        name="p2",
    )
    return p1, p2


def pullback_projections(f, g, pb: DoubleCategory):
    pairs = pullback_pairs(f, g)
    p1 = StrictDoubleFunctor(
        pb,
        f.dom,
        [a for (a, _) in pairs[OBJECT]],
        [x for (x, _) in pairs[HCELL]],
        [x for (x, _) in pairs[VCELL]],
        [x for (x, _) in pairs[SQUARE]],
        name="p1",
    )
    p2 = StrictDoubleFunctor(
        pb,
        g.dom,
        [b for (_, b) in pairs[OBJECT]],
        [y for (_, y) in pairs[HCELL]],
        [y for (_, y) in pairs[VCELL]],
        [y for (_, y) in pairs[SQUARE]],
        name="p2",
    )
    return p1, p2


# ---------------------------------------------------------------------------
# cubical functors of two variables


@dataclass
class CubicalDoubleFunctor:
    """Two-variable functor given by partial strict functors that agree on
    corners plus four mixed square families keyed by (cell of dom1, cell of
    dom2).  ``hh[(F, f)]`` is vertically invertible, ``vv[(U, u)]``
    horizontally invertible."""

    dom1: DoubleCategory
    dom2: DoubleCategory
    cod: DoubleCategory
    row_functors: tuple  # per object a of dom1: dom2 -> cod
    col_functors: tuple  # per object b of dom2: dom1 -> cod
    hh: dict
    hh_inv: dict
    vv: dict
    vv_inv: dict
    hv: dict  # (hcell of dom1, vcell of dom2)
    vh: dict  # (vcell of dom1, hcell of dom2)

    def ob(self, a, b):
        return self.row_functors[a].ob(b)

    def h2(self, a, f):
        """Image of (object a of dom1, hcell f of dom2)."""
        return self.row_functors[a].h(f)

    def h1(self, F, b):
        return self.col_functors[b].h(F)

    def v2(self, a, u):
        return self.row_functors[a].v(u)

    def v1(self, U, b):
        return self.col_functors[b].v(U)

    def sq2(self, a, s):
        return self.row_functors[a].sq(s)

    def sq1(self, s, b):
        return self.col_functors[b].sq(s)


CUBICAL_AXIOMS = ("corner-agreement", "partial-strictness", "a11", "a21", "a12", "a22",
                  "b11", "b21", "b12", "b22", "c11", "c22", "invertibility")


def check_cubical(h: CubicalDoubleFunctor, budget: Budget | None = None, axioms=None) -> AxiomReport:
    live = live_axioms(CUBICAL_AXIOMS, axioms)
    col = Collector("cubical-functor", budget)
    d1, d2, cod = h.dom1, h.dom2, h.cod

    if "corner-agreement" in live:
        for a in range(d1.n_objects):
            for b in range(d2.n_objects):
                col.eq(
                    "corner-agreement",
                    ((OBJECT, a), (OBJECT, b)),
                    h.row_functors[a].ob(b),
                    h.col_functors[b].ob(a),
                )
    if "partial-strictness" in live:
        for a, rf in enumerate(h.row_functors):
            col.report.absorb(check_strict_functor(rf, budget=col.budget), prefix=f"row[{a}]: ")
        for b, cf in enumerate(h.col_functors):
            col.report.absorb(check_strict_functor(cf, budget=col.budget), prefix=f"col[{b}]: ")
    for (F, f), cell in sorted(h.hh.items()):
        A, A2 = d1.hs(F), d1.ht(F)
        B, B2 = d2.hs(f), d2.ht(f)
        expect = (
            cod.hcomp(h.h1(F, B), h.h2(A2, f)),
            cod.hcomp(h.h2(A, f), h.h1(F, B2)),
            cod.vid[h.ob(A, B)],
            cod.vid[h.ob(A2, B2)],
        )
        col.eq("hh-boundary", ((HCELL, F), (HCELL, f)), cod.squares[cell], expect)
    for (U, u), cell in sorted(h.vv.items()):
        A, A2 = d1.vs(U), d1.vt(U)
        B, B2 = d2.vs(u), d2.vt(u)
        expect = (
            cod.hid[h.ob(A, B)],
            cod.hid[h.ob(A2, B2)],
            cod.vcomp(h.v1(U, B), h.v2(A2, u)),
            cod.vcomp(h.v2(A, u), h.v1(U, B2)),
        )
        col.eq("vv-boundary", ((VCELL, U), (VCELL, u)), cod.squares[cell], expect)
    for (F, u), cell in sorted(h.hv.items()):
        A, A2 = d1.hs(F), d1.ht(F)
        expect = (h.h1(F, d2.vs(u)), h.h1(F, d2.vt(u)), h.v2(A, u), h.v2(A2, u))
        col.eq("hv-boundary", ((HCELL, F), (VCELL, u)), cod.squares[cell], expect)
    for (U, f), cell in sorted(h.vh.items()):
        B, B2 = d2.hs(f), d2.ht(f)
        expect = (h.h2(d1.vs(U), f), h.h2(d1.vt(U), f), h.v1(U, B), h.v1(U, B2))
        col.eq("vh-boundary", ((VCELL, U), (HCELL, f)), cod.squares[cell], expect)
    if col.report.violations:
        col.assume("interchange laws not evaluated: structural violations present")
        return col.done()

    def hh(F, f):
        return h.hh[(F, f)]

    def vv(U, u):
        return h.vv[(U, u)]

    def hv(F, u):
        return h.hv[(F, u)]

    def vh(U, f):
        return h.vh[(U, f)]

    if "invertibility" in live:
        for (F, f), cell in sorted(h.hh.items()):
            inv = h.hh_inv[(F, f)]
            col.eq("invertibility", ((HCELL, F), (HCELL, f)), cod.vpaste(cell, inv), cod.sq_vid[cod.top(cell)])
            col.eq("invertibility", ((HCELL, F), (HCELL, f)), cod.vpaste(inv, cell), cod.sq_vid[cod.bottom(cell)])
        for (U, u), cell in sorted(h.vv.items()):
            inv = h.vv_inv[(U, u)]
            col.eq("invertibility", ((VCELL, U), (VCELL, u)), cod.hpaste(cell, inv), cod.sq_hid[cod.left(cell)])
            col.eq("invertibility", ((VCELL, U), (VCELL, u)), cod.hpaste(inv, cell), cod.sq_hid[cod.right(cell)])

    n1h, n1v, n2h, n2v = len(d1.hcells), len(d1.vcells), len(d2.hcells), len(d2.vcells)

    if "a11" in live:
        for F in range(n1h):
            for b in range(d2.n_objects):
                col.eq("a11", ((HCELL, F), (OBJECT, b)), hh(F, d2.hid[b]), cod.sq_vid[h.h1(F, b)])
        for f in range(n2h):
            for a in range(d1.n_objects):
                col.eq("a11", ((OBJECT, a), (HCELL, f)), hh(d1.hid[a], f), cod.sq_vid[h.h2(a, f)])
    if "a21" in live:
        for F in range(n1h):
            for b in range(d2.n_objects):
                col.eq("a21", ((HCELL, F), (OBJECT, b)), hv(F, d2.vid[b]), cod.sq_vid[h.h1(F, b)])
        for u in range(n2v):
            for a in range(d1.n_objects):
                col.eq("a21", ((OBJECT, a), (VCELL, u)), hv(d1.hid[a], u), cod.sq_hid[h.v2(a, u)])
    if "a12" in live:
        for f in range(n2h):
            for a in range(d1.n_objects):
                col.eq("a12", ((OBJECT, a), (HCELL, f)), vh(d1.vid[a], f), cod.sq_vid[h.h2(a, f)])
        for U in range(n1v):
            for b in range(d2.n_objects):
                col.eq("a12", ((VCELL, U), (OBJECT, b)), vh(U, d2.hid[b]), cod.sq_hid[h.v1(U, b)])
    if "a22" in live:
        for U in range(n1v):
            for b in range(d2.n_objects):
                col.eq("a22", ((VCELL, U), (OBJECT, b)), vv(U, d2.vid[b]), cod.sq_hid[h.v1(U, b)])
        for u in range(n2v):
            for a in range(d1.n_objects):
                col.eq("a22", ((OBJECT, a), (VCELL, u)), vv(d1.vid[a], u), cod.sq_hid[h.v2(a, u)])

    if "b11" in live:
        for F in range(n1h):
            A, A2 = d1.hs(F), d1.ht(F)
            for (f, f2) in sorted(d2.hcomp1):
                B, B2, B3 = d2.hs(f), d2.ht(f), d2.ht(f2)
                lhs = hh(F, d2.hcomp(f, f2))
                rhs = cod.vpaste(
                    cod.hpaste(hh(F, f), cod.sq_vid[h.h2(A2, f2)]),
                    cod.hpaste(cod.sq_vid[h.h2(A, f)], hh(F, f2)),
                )
                col.eq("b11", ((HCELL, F), (HCELL, f), (HCELL, f2)), lhs, rhs)
        for (F, F2) in sorted(d1.hcomp1):
            for f in range(n2h):
                B, B2 = d2.hs(f), d2.ht(f)
                lhs = hh(d1.hcomp(F, F2), f)
                rhs = cod.vpaste(
                    cod.hpaste(cod.sq_vid[h.h1(F, B)], hh(F2, f)),
                    cod.hpaste(hh(F, f), cod.sq_vid[h.h1(F2, B2)]),
                )
                col.eq("b11", ((HCELL, F), (HCELL, F2), (HCELL, f)), lhs, rhs)
    if "b21" in live:
        for F in range(n1h):
            for (u, u2) in sorted(d2.vcomp1):
                col.eq(
                    "b21",
                    ((HCELL, F), (VCELL, u), (VCELL, u2)),
                    hv(F, d2.vcomp(u, u2)),
                    cod.vpaste(hv(F, u), hv(F, u2)),
                )
        for (F, F2) in sorted(d1.hcomp1):
            for u in range(n2v):
                col.eq(
                    "b21",
                    ((HCELL, F), (HCELL, F2), (VCELL, u)),
                    hv(d1.hcomp(F, F2), u),
                    cod.hpaste(hv(F, u), hv(F2, u)),
                )
    if "b12" in live:
        for U in range(n1v):
            for (f, f2) in sorted(d2.hcomp1):
                col.eq(
                    "b12",
                    ((VCELL, U), (HCELL, f), (HCELL, f2)),
                    vh(U, d2.hcomp(f, f2)),
                    cod.hpaste(vh(U, f), vh(U, f2)),
                )
        for (U, U2) in sorted(d1.vcomp1):
            for f in range(n2h):
                col.eq(
                    "b12",
                    ((VCELL, U), (VCELL, U2), (HCELL, f)),
                    vh(d1.vcomp(U, U2), f),
                    cod.vpaste(vh(U, f), vh(U2, f)),
                )
    if "b22" in live:
        for (U, U2) in sorted(d1.vcomp1):
            B = None
            for u in range(n2v):
                b, b2 = d2.vs(u), d2.vt(u)
                lhs = vv(d1.vcomp(U, U2), u)
                rhs = cod.hpaste(
                    cod.vpaste(cod.sq_hid[h.v1(U, b)], vv(U2, u)),
                    cod.vpaste(vv(U, u), cod.sq_hid[h.v1(U2, b2)]),
                )
                col.eq("b22", ((VCELL, U), (VCELL, U2), (VCELL, u)), lhs, rhs)
        for U in range(n1v):
            A, A2 = d1.vs(U), d1.vt(U)
            for (u, u2) in sorted(d2.vcomp1):
                lhs = vv(U, d2.vcomp(u, u2))
                rhs = cod.hpaste(
                    cod.vpaste(vv(U, u), cod.sq_hid[h.v2(A2, u2)]),
                    cod.vpaste(cod.sq_hid[h.v2(A, u)], vv(U, u2)),
                )
                col.eq("b22", ((VCELL, U), (VCELL, u), (VCELL, u2)), lhs, rhs)

    if "c11" in live:
        for F in range(n1h):
            A, A2 = d1.hs(F), d1.ht(F)
            for w in range(len(d2.squares)):
                t, b, l, r = d2.squares[w]
                lhs = cod.vpaste(hh(F, t), cod.hpaste(h.sq2(A, w), hv(F, r)))
                rhs = cod.vpaste(cod.hpaste(hv(F, l), h.sq2(A2, w)), hh(F, b))
                col.eq("c11", ((HCELL, F), (SQUARE, w)), lhs, rhs)
        for f in range(n2h):
            B, B2 = d2.hs(f), d2.ht(f)
            for z in range(len(d1.squares)):
                T, Bo, L, R = d1.squares[z]
                lhs = cod.vpaste(hh(T, f), cod.hpaste(vh(L, f), h.sq1(z, B2)))
                rhs = cod.vpaste(cod.hpaste(h.sq1(z, B), vh(R, f)), hh(Bo, f))
                col.eq("c11", ((SQUARE, z), (HCELL, f)), lhs, rhs)
    if "c22" in live:
        for U in range(n1v):
            A, A2 = d1.vs(U), d1.vt(U)
            for w in range(len(d2.squares)):
                t, b, l, r = d2.squares[w]
                lhs = cod.hpaste(vv(U, l), cod.vpaste(h.sq2(A, w), vh(U, b)))
                rhs = cod.hpaste(cod.vpaste(vh(U, t), h.sq2(A2, w)), vv(U, r))
                col.eq("c22", ((VCELL, U), (SQUARE, w)), lhs, rhs)
        for u in range(n2v):
            B, B2 = d2.vs(u), d2.vt(u)
            for z in range(len(d1.squares)):
                T, Bo, L, R = d1.squares[z]
                lhs = cod.hpaste(vv(L, u), cod.vpaste(hv(T, u), h.sq1(z, B2)))
                rhs = cod.hpaste(cod.vpaste(h.sq1(z, B), hv(Bo, u)), vv(R, u))
                col.eq("c22", ((SQUARE, z), (VCELL, u)), lhs, rhs)
    return col.done()


@dataclass
class CurriedFunctor:
    """One strict functor per object of the first variable, plus the
    transformation-shaped data one 1-cell or square of the first variable
    induces on the second."""

    base: tuple  # per object of dom1: StrictDoubleFunctor dom2 -> cod
    on_hcells: dict  # F -> {"cells": {b: hcell}, "hh": {f: sq}, "hv": {u: sq}}
    on_vcells: dict  # U -> {"cells": {b: vcell}, "vh": {f: sq}, "vv": {u: sq}}
    on_squares: dict  # z -> {b: square}
    hh_inv: dict
    vv_inv: dict


def curry(h: CubicalDoubleFunctor) -> CurriedFunctor:
    d1, d2 = h.dom1, h.dom2
    on_h = {
        F: {
            "cells": {b: h.h1(F, b) for b in range(d2.n_objects)},
            "hh": {f: h.hh[(F, f)] for f in range(len(d2.hcells))},
            "hv": {u: h.hv[(F, u)] for u in range(len(d2.vcells))},
        }
        for F in range(len(d1.hcells))
    }
    on_v = {
        U: {
            "cells": {b: h.v1(U, b) for b in range(d2.n_objects)},
            "vh": {f: h.vh[(U, f)] for f in range(len(d2.hcells))},
            "vv": {u: h.vv[(U, u)] for u in range(len(d2.vcells))},
        }
        for U in range(len(d1.vcells))
    }
    on_sq = {
        z: {b: h.sq1(z, b) for b in range(d2.n_objects)} for z in range(len(d1.squares))
    }
    return CurriedFunctor(
        tuple(h.row_functors),
        on_h,
        on_v,
        on_sq,
        {k: v for k, v in h.hh_inv.items()},
        {k: v for k, v in h.vv_inv.items()},
    )


def uncurry(c: CurriedFunctor, dom1: DoubleCategory, dom2: DoubleCategory, cod: DoubleCategory) -> CubicalDoubleFunctor:
    col_functors = tuple(
        StrictDoubleFunctor(
            dom1,
            cod,
            [c.base[a].ob(b) for a in range(dom1.n_objects)],
            [c.on_hcells[F]["cells"][b] for F in range(len(dom1.hcells))],
            [c.on_vcells[U]["cells"][b] for U in range(len(dom1.vcells))],
            [c.on_squares[z][b] for z in range(len(dom1.squares))],
            name=f"col{b}",
        )
        for b in range(dom2.n_objects)
    )
    hh = {(F, f): c.on_hcells[F]["hh"][f] for F in c.on_hcells for f in c.on_hcells[F]["hh"]}
    hv = {(F, u): c.on_hcells[F]["hv"][u] for F in c.on_hcells for u in c.on_hcells[F]["hv"]}
    vh = {(U, f): c.on_vcells[U]["vh"][f] for U in c.on_vcells for f in c.on_vcells[U]["vh"]}
    vv = {(U, u): c.on_vcells[U]["vv"][u] for U in c.on_vcells for u in c.on_vcells[U]["vv"]}
    return CubicalDoubleFunctor(
        dom1,
        dom2,
        cod,
        tuple(c.base),
        col_functors,
        hh,
        dict(c.hh_inv),
        vv,
        dict(c.vv_inv),
        hv,
        vh,
    )


def cubical_from_product_functor(d1: DoubleCategory, d2: DoubleCategory, prod, f: StrictDoubleFunctor) -> CubicalDoubleFunctor:
    """Cubical functor induced by a strict functor off the product, with all
    four mixed families the evident identity squares."""
    no, nh, nv, ns = d2.n_objects, len(d2.hcells), len(d2.vcells), len(d2.squares)
    cod = f.cod

    def pair_ob(a, b):
        return a * no + b

    rows = tuple(
        StrictDoubleFunctor(
            d2,
            cod,
            [f.ob(pair_ob(a, b)) for b in range(no)],
            [f.h(d1.hid[a] * nh + x) for x in range(nh)],
            [f.v(d1.vid[a] * nv + x) for x in range(nv)],
            [f.sq(d1.sq_vid[d1.hid[a]] * ns + x) for x in range(ns)],
            name=f"row{a}",
        )
        for a in range(d1.n_objects)
    )
    cols = tuple(
        StrictDoubleFunctor(
            d1,
            cod,
            [f.ob(pair_ob(a, b)) for a in range(d1.n_objects)],
            [f.h(x * nh + d2.hid[b]) for x in range(len(d1.hcells))],
            [f.v(x * nv + d2.vid[b]) for x in range(len(d1.vcells))],
            [f.sq(x * ns + d2.sq_vid[d2.hid[b]]) for x in range(len(d1.squares))],
            name=f"col{b}",
        )
        for b in range(d2.n_objects)
    )
    hh = {}
    hh_inv = {}
    for F in range(len(d1.hcells)):
        for x in range(nh):
            # image of the pair square (sq_vid on F, sq_vid on x)
            cell = f.sq(d1.sq_vid[F] * ns + d2.sq_vid[x])
            hh[(F, x)] = cell
            hh_inv[(F, x)] = cell
    vv = {}
    vv_inv = {}
    for U in range(len(d1.vcells)):
        for u in range(nv):
            cell = f.sq(d1.sq_hid[U] * ns + d2.sq_hid[u])
            vv[(U, u)] = cell
            vv_inv[(U, u)] = cell
    hv = {
        (F, u): f.sq(d1.sq_vid[F] * ns + d2.sq_hid[u])
        for F in range(len(d1.hcells))
        for u in range(nv)
    }
    vh = {
        (U, x): f.sq(d1.sq_hid[U] * ns + d2.sq_vid[x])
        for U in range(len(d1.vcells))
        for x in range(nh)
    }
    return CubicalDoubleFunctor(d1, d2, cod, rows, cols, hh, hh_inv, vv, vv_inv, hv, vh)
