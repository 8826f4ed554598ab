"""Pseudo double categories and bicategories with stored constraint cells.

The vertical direction of a pseudo double category is strict; the horizontal
composition carries associator and unitor squares, globular and vertically
invertible, with their inverses stored rather than searched for.  Orientation
conventions (left-argument-first tables throughout):

    assoc[(f, g, h)] : (f.g).h  =>  f.(g.h)
    lunit[f]         : 1_A . f  =>  f
    runit[f]         : f . 1_B  =>  f

A bicategory is the globular special case and gets its own independent
checker so the two can cross-validate each other.
"""

from __future__ import annotations

from .kernel import (
    HCELL,
    SQUARE,
    VCELL,
    DoubleCategory,
    NonComposable,
    StructureError,
    _associativity,
    _by,
    _check_globular,
    _check_index,
    _columns,
    _dense_rows,
    _globular_interchange,
    _identity_functoriality,
    _interchange,
    _triples,
    _units,
)
from .report import AxiomReport, Budget, Collector


class PseudoDoubleCategory(DoubleCategory):
    """As DoubleCategory, but the horizontal 1-cell composition need not be
    associative or unital; constraint squares make up the difference."""

    def __init__(self, *args, assoc, assoc_inv, lunit, lunit_inv, runit, runit_inv, **kwargs):
        # the strict-case validation is purely structural (key sets and
        # boundaries), so it applies verbatim here
        super().__init__(*args, **kwargs)
        self.assoc = dict(assoc)
        self.assoc_inv = dict(assoc_inv)
        self.lunit = list(lunit)
        self.lunit_inv = list(lunit_inv)
        self.runit = list(runit)
        self.runit_inv = list(runit_inv)
        self._validate_pseudo()

    def _validate_pseudo(self):
        nh, ns = len(self.hcells), len(self.squares)
        unitors = {"lunit": self.lunit, "lunit_inv": self.lunit_inv, "runit": self.runit, "runit_inv": self.runit_inv}
        if any(len(cells) != nh for cells in unitors.values()):
            raise StructureError("left and right unitors and their inverses per hcell required")
        for name, cells in unitors.items():
            for f, s in enumerate(cells):
                _check_index(s, ns, f"{name} of hcell {f}")
        hs, ht = _columns(self.hcells, 2)
        triples = set(_triples(self.hcomp1, ht, hs))
        if set(self.assoc) != triples or set(self.assoc_inv) != triples:
            raise StructureError("associator must be keyed on exactly the composable hcell triples")
        for key in sorted(triples):
            _check_index(self.assoc[key], ns, f"associator at {key}")
            _check_index(self.assoc_inv[key], ns, f"inverse associator at {key}")
        # the stored inverses run the other way round
        for (f, g, h), s in self.assoc.items():
            lhs = self.hcomp(self.hcomp(f, g), h)
            rhs = self.hcomp(f, self.hcomp(g, h))
            sides = (self.vid[self.hs(f)], self.vid[self.ht(h)])
            if self.squares[s] != (lhs, rhs, *sides) or self.squares[self.assoc_inv[(f, g, h)]] != (rhs, lhs, *sides):
                raise StructureError(f"associator at {(f, g, h)} has wrong boundary")
        for f in range(nh):
            a, b = self.hcells[f]
            sides = (self.vid[a], self.vid[b])
            left, right = self.hcomp(self.hid[a], f), self.hcomp(f, self.hid[b])
            if self.squares[self.lunit[f]] != (left, f, *sides) or self.squares[self.lunit_inv[f]] != (f, left, *sides):
                raise StructureError(f"left unitor at {f} has wrong boundary")
            if self.squares[self.runit[f]] != (right, f, *sides) or self.squares[self.runit_inv[f]] != (f, right, *sides):
                raise StructureError(f"right unitor at {f} has wrong boundary")


def as_pseudo(d: DoubleCategory) -> PseudoDoubleCategory:
    """View a strict double category as a pseudo one with identity constraints."""
    hs, ht = _columns(d.hcells, 2)
    assoc = {(f, g, h): d.sq_vid[d.hcomp(d.hcomp(f, g), h)] for f, g, h in _triples(d.hcomp1, ht, hs)}
    return PseudoDoubleCategory(
        d.n_objects,
        d.hcells,
        d.vcells,
        d.squares,
        d.hcomp1,
        d.vcomp1,
        d.hcomp2,
        d.vcomp2,
        d.hid,
        d.vid,
        d.sq_vid,
        d.sq_hid,
        names=d.names,
        assoc=assoc,
        assoc_inv=dict(assoc),
        lunit=list(d.sq_vid),
        lunit_inv=list(d.sq_vid),
        runit=list(d.sq_vid),
        runit_inv=list(d.sq_vid),
    )


def _vertically_inverse(d, cell, inv, col, axiom, witness):
    t, b = d.top(cell), d.bottom(cell)
    col.eq(axiom, witness, d.vpaste(cell, inv), d.sq_vid[t])
    col.eq(axiom, witness, d.vpaste(inv, cell), d.sq_vid[b])


def check_pseudo_double_category(p: PseudoDoubleCategory, budget: Budget | None = None) -> AxiomReport:
    """Pentagon, triangle, naturality of the constraints, functoriality of
    horizontal pasting, and the strict vertical laws, all by enumeration."""
    col = Collector("pseudo-double-category", budget)
    nh, ns = len(p.hcells), len(p.squares)
    p.table_boundary_violations(col)
    if col.report.violations:
        col.assume("equational laws not evaluated: table entries have wrong boundaries")
        return col.done()

    hs, ht = _columns(p.hcells, 2)
    vs, vt = _columns(p.vcells, 2)
    top, bottom, left, right = _columns(p.squares, 4)
    _associativity(col, "vcomp1-associativity", VCELL, _dense_rows(p.vcomp1, len(vt)), vt, vs)
    _units(col, "vcomp1-left-unit", "vcomp1-right-unit", VCELL, p.vcomp1, vt, vs, p.vid)
    vrows = _dense_rows(p.vcomp2, ns)
    _associativity(col, "vcomp2-associativity", SQUARE, vrows, bottom, top)
    _units(col, "vcomp2-unit", "vcomp2-unit", SQUARE, p.vcomp2, bottom, top, p.sq_vid)

    _identity_functoriality(col, "hpaste-identity-functoriality", HCELL, p.hcomp1, p.hcomp2, p.sq_vid)
    _interchange(col, p, _dense_rows(p.hcomp2, ns), vrows)

    for key in sorted(p.assoc):
        _vertically_inverse(
            p, p.assoc[key], p.assoc_inv[key], col, "associator-invertibility", tuple((HCELL, x) for x in key)
        )
    for f in range(nh):
        _vertically_inverse(p, p.lunit[f], p.lunit_inv[f], col, "left-unitor-invertibility", ((HCELL, f),))
        _vertically_inverse(p, p.runit[f], p.runit_inv[f], col, "right-unitor-invertibility", ((HCELL, f),))

    # naturality of the three constraint families
    for a, b, c in _triples(p.hcomp2, right, left):
        tri = (top[a], top[b], top[c])
        bot = (bottom[a], bottom[b], bottom[c])
        col.eq(
            "associator-naturality",
            ((SQUARE, a), (SQUARE, b), (SQUARE, c)),
            p.vpaste(p.assoc[tri], p.hpaste(a, p.hpaste(b, c))),
            p.vpaste(p.hpaste(p.hpaste(a, b), c), p.assoc[bot]),
        )
    for s in range(ns):
        t, b, l, r = p.squares[s]
        col.eq(
            "left-unitor-naturality",
            ((SQUARE, s),),
            p.vpaste(p.lunit[t], s),
            p.vpaste(p.hpaste(p.sq_hid[l], s), p.lunit[b]),
        )
        col.eq(
            "right-unitor-naturality",
            ((SQUARE, s),),
            p.vpaste(p.runit[t], s),
            p.vpaste(p.hpaste(s, p.sq_hid[r]), p.runit[b]),
        )

    # pentagon and triangle
    by_hs = _by(hs)
    for f, g, h in _triples(p.hcomp1, ht, hs):
        for k in by_hs.get(ht[h], ()):
            col.eq(
                "pentagon",
                ((HCELL, f), (HCELL, g), (HCELL, h), (HCELL, k)),
                p.vcol(p.assoc[(p.hcomp(f, g), h, k)], p.assoc[(f, g, p.hcomp(h, k))]),
                p.vcol(
                    p.hpaste(p.assoc[(f, g, h)], p.sq_vid[k]),
                    p.assoc[(f, p.hcomp(g, h), k)],
                    p.hpaste(p.sq_vid[f], p.assoc[(g, h, k)]),
                ),
            )
    for (f, g) in sorted(p.hcomp1):
        mid = p.ht(f)
        col.eq(
            "triangle",
            ((HCELL, f), (HCELL, g)),
            p.vpaste(p.assoc[(f, p.hid[mid], g)], p.hpaste(p.sq_vid[f], p.lunit[g])),
            p.hpaste(p.runit[f], p.sq_vid[g]),
        )
    return col.done()


# ---------------------------------------------------------------------------
# bicategories


class Bicategory:
    """Finite bicategory: hom-categories given by globular 2-cells, weak
    horizontal composition with stored associator/unitor isomorphisms."""

    def __init__(
        self,
        n_objects,
        onecells,
        twocells,
        comp1,
        vcomp2,
        hcomp2,
        id1,
        id2,
        assoc,
        assoc_inv,
        lunit,
        lunit_inv,
        runit,
        runit_inv,
        names=None,
    ):
        self.n_objects = int(n_objects)
        self.onecells = [tuple(x) for x in onecells]
        self.twocells = [tuple(x) for x in twocells]
        self.comp1 = dict(comp1)
        self.vcomp2 = dict(vcomp2)
        self.hcomp2 = dict(hcomp2)
        self.id1 = list(id1)
        self.id2 = list(id2)
        self.assoc = dict(assoc)
        self.assoc_inv = dict(assoc_inv)
        self.lunit = list(lunit)
        self.lunit_inv = list(lunit_inv)
        self.runit = list(runit)
        self.runit_inv = list(runit_inv)
        self.names = names or {}
        self._validate()

    def s1(self, f):
        return self.onecells[f][0]

    def t1(self, f):
        return self.onecells[f][1]

    def s2(self, a):
        return self.twocells[a][0]

    def t2(self, a):
        return self.twocells[a][1]

    def then1(self, f, g):
        try:
            return self.comp1[(f, g)]
        except KeyError:
            raise NonComposable(f"1-cells {f} and {g} not composable") from None

    def vert(self, a, b):
        try:
            return self.vcomp2[(a, b)]
        except KeyError:
            raise NonComposable(f"2-cells {a} and {b} not vertically composable") from None

    def vert_list(self, onecell, cells):
        out = self.id2[onecell]
        for a in cells:
            out = self.vert(out, a)
        return out

    def horiz(self, a, b):
        try:
            return self.hcomp2[(a, b)]
        except KeyError:
            raise NonComposable(f"2-cells {a} and {b} not horizontally composable") from None

    def name_of(self, kind, index):
        kind_names = self.names.get(kind)
        if kind_names is not None and 0 <= index < len(kind_names):
            return kind_names[index]
        return f"{kind}{index}"

    def _validate(self):
        n1, n2 = len(self.onecells), len(self.twocells)
        _check_globular(self)
        for (f, g), h in self.comp1.items():
            if self.onecells[h] != (self.s1(f), self.t1(g)):
                raise StructureError(f"comp1 entry {(f, g)} has wrong boundary")
        unitors = {"lunit": self.lunit, "lunit_inv": self.lunit_inv, "runit": self.runit, "runit_inv": self.runit_inv}
        if any(len(cells) != n1 for cells in unitors.values()):
            raise StructureError("left and right unitors and their inverses per 1-cell required")
        for name, cells in unitors.items():
            for f, x in enumerate(cells):
                _check_index(x, n2, f"{name} of 1-cell {f}")
        s1, t1 = _columns(self.onecells, 2)
        triples = set(_triples(self.comp1, t1, s1))
        if set(self.assoc) != triples or set(self.assoc_inv) != triples:
            raise StructureError("associator must be keyed on exactly the composable 1-cell triples")
        for key in sorted(triples):
            _check_index(self.assoc[key], n2, f"associator at {key}")
            _check_index(self.assoc_inv[key], n2, f"inverse associator at {key}")
        for (a, b), c in self.vcomp2.items():
            if self.twocells[c] != (self.s2(a), self.t2(b)):
                raise StructureError(f"vcomp2 entry {(a, b)} has wrong boundary")
        for (a, b), c in self.hcomp2.items():
            expect = (self.then1(self.s2(a), self.s2(b)), self.then1(self.t2(a), self.t2(b)))
            if self.twocells[c] != expect:
                raise StructureError(f"hcomp2 entry {(a, b)} has wrong boundary")
        # the stored inverses run the other way round
        for (f, g, h), a in self.assoc.items():
            lhs = self.then1(self.then1(f, g), h)
            rhs = self.then1(f, self.then1(g, h))
            if self.twocells[a] != (lhs, rhs) or self.twocells[self.assoc_inv[(f, g, h)]] != (rhs, lhs):
                raise StructureError(f"associator at {(f, g, h)} has wrong boundary")
        for f in range(n1):
            left, right = self.then1(self.id1[self.s1(f)], f), self.then1(f, self.id1[self.t1(f)])
            if self.twocells[self.lunit[f]] != (left, f) or self.twocells[self.lunit_inv[f]] != (f, left):
                raise StructureError(f"left unitor at {f} has wrong boundary")
            if self.twocells[self.runit[f]] != (right, f) or self.twocells[self.runit_inv[f]] != (f, right):
                raise StructureError(f"right unitor at {f} has wrong boundary")


def bicategory_from_two_category(t) -> Bicategory:
    s1, t1 = _columns(t.onecells, 2)
    id_assoc = {(f, g, h): t.id2[t.then1(t.then1(f, g), h)] for f, g, h in _triples(t.comp1, t1, s1)}
    return Bicategory(
        t.n_objects,
        t.onecells,
        t.twocells,
        t.comp1,
        t.vcomp2,
        t.hcomp2,
        t.id1,
        t.id2,
        id_assoc,
        dict(id_assoc),
        list(t.id2),
        list(t.id2),
        list(t.id2),
        list(t.id2),
        names=t.names,
    )


def check_bicategory(b: Bicategory, budget: Budget | None = None) -> AxiomReport:
    col = Collector("bicategory", budget)
    n1, n2 = len(b.onecells), len(b.twocells)
    s1, t1 = _columns(b.onecells, 2)
    s2, t2 = _columns(b.twocells, 2)
    _associativity(col, "hom-category-associativity", "twocell", _dense_rows(b.vcomp2, n2), t2, s2)
    _units(col, "hom-category-unit", "hom-category-unit", "twocell", b.vcomp2, t2, s2, b.id2)

    _identity_functoriality(col, "composition-identity-functoriality", "onecell", b.comp1, b.hcomp2, b.id2)
    _globular_interchange(col, "composition-interchange", b)

    def invertible(axiom, witness, cell, inv):
        col.eq(axiom, witness, b.vert(cell, inv), b.id2[b.s2(cell)])
        col.eq(axiom, witness, b.vert(inv, cell), b.id2[b.t2(cell)])

    for key in sorted(b.assoc):
        invertible("associator-invertibility", tuple(("onecell", x) for x in key), b.assoc[key], b.assoc_inv[key])
    for f in range(n1):
        invertible("left-unitor-invertibility", (("onecell", f),), b.lunit[f], b.lunit_inv[f])
        invertible("right-unitor-invertibility", (("onecell", f),), b.runit[f], b.runit_inv[f])

    for x, y, z in _triples(b.hcomp2, [t1[f] for f in s2], [s1[f] for f in s2]):
        tri = (s2[x], s2[y], s2[z])
        bot = (t2[x], t2[y], t2[z])
        col.eq(
            "associator-naturality",
            (("twocell", x), ("twocell", y), ("twocell", z)),
            b.vert(b.assoc[tri], b.horiz(x, b.horiz(y, z))),
            b.vert(b.horiz(b.horiz(x, y), z), b.assoc[bot]),
        )
    for x in range(n2):
        f, g = b.twocells[x]
        col.eq(
            "left-unitor-naturality",
            (("twocell", x),),
            b.vert(b.lunit[f], x),
            b.vert(b.horiz(b.id2[b.id1[b.s1(f)]], x), b.lunit[g]),
        )
        col.eq(
            "right-unitor-naturality",
            (("twocell", x),),
            b.vert(b.runit[f], x),
            b.vert(b.horiz(x, b.id2[b.id1[b.t1(f)]]), b.runit[g]),
        )

    by_s1 = _by(s1)
    for f, g, h in _triples(b.comp1, t1, s1):
        for k in by_s1.get(t1[h], ()):
            col.eq(
                "pentagon",
                (("onecell", f), ("onecell", g), ("onecell", h), ("onecell", k)),
                b.vert(b.assoc[(b.then1(f, g), h, k)], b.assoc[(f, g, b.then1(h, k))]),
                b.vert_list(
                    b.then1(b.then1(b.then1(f, g), h), k),
                    [
                        b.horiz(b.assoc[(f, g, h)], b.id2[k]),
                        b.assoc[(f, b.then1(g, h), k)],
                        b.horiz(b.id2[f], b.assoc[(g, h, k)]),
                    ],
                ),
            )
    for (f, g) in sorted(b.comp1):
        mid = b.t1(f)
        col.eq(
            "triangle",
            (("onecell", f), ("onecell", g)),
            b.vert(b.assoc[(f, b.id1[mid], g)], b.horiz(b.id2[f], b.lunit[g])),
            b.horiz(b.runit[f], b.id2[g]),
        )
    return col.done()
