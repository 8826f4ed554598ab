"""Pseudo double categories and bicategories with stored constraint cells.

The vertical direction of a pseudo double category is strict; the horizontal
composition carries associator and unitor squares, globular and vertically
invertible, with their inverses stored rather than searched for.  Orientation
conventions (left-argument-first tables throughout):

    assoc[(f, g, h)] : (f.g).h  =>  f.(g.h)
    lunit[f]         : 1_A . f  =>  f
    runit[f]         : f . 1_B  =>  f

A bicategory is the globular special case: a ``kernel.TwoCategory``'s cells
and tables plus the six constraint fields, where a table value with the
wrong boundary raises StructureError instead of failing a law.
``internal.internalize_bicategory`` embeds it through the body of
``kernel.embed_two_category``.  It gets its own independent checker so the
two checkers can cross-validate each other.  Both checkers state
their laws through the kernel enumerators: the strict ones for the
vertical (hom-category) laws, ``kernel._invertibility`` and
``kernel._inverse_laws`` for the stored inverses, and ``kernel._laws`` for
naturality, pentagon and triangle.  The bicategory's hom laws
(``_hom_laws``) and its pentagon and triangle (``_pentagon_triangle``) are
stated once: the enriched view of ``internal.check_enriched_over_cat``
reads them under its own law names.
"""

from __future__ import annotations

from .kernel import (
    HCELL,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    TwoCategory,
    _associativity,
    _check_index,
    _check_values,
    _columns,
    _dense_rows,
    _globular_interchange,
    _identity_functoriality,
    _interchange,
    _inverse_laws,
    _invertibility,
    _laws,
    _paths,
    _units,
    _vertical,
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
        hs, ht = _columns(self.hcells, 2)
        _check_constraint_cells(self, "hcell", len(self.squares), self.hcomp1, ht, hs)
        vid = self.vid
        _check_constraint_boundaries(
            self, self.squares, self.hcomp, ht, hs, self.hid, lambda x, y, a, b: (x, y, vid[a], vid[b])
        )


def _check_constraint_cells(x, noun, ncells, comp, ends, starts):
    """Raise StructureError unless ``x`` stores a left and a right unitor
    and their inverses per ``noun`` (hcell or 1-cell) and an associator and
    its inverse on exactly the composable triples of ``comp``, each a cell
    id below ``ncells``."""
    unitors = {"lunit": x.lunit, "lunit_inv": x.lunit_inv, "runit": x.runit, "runit_inv": x.runit_inv}
    if any(len(cells) != len(ends) for cells in unitors.values()):
        raise StructureError(f"left and right unitors and their inverses per {noun} required")
    for name, cells in unitors.items():
        for f, c in enumerate(cells):
            _check_index(c, ncells, f"{name} of {noun} {f}")
    triples = set(_paths(comp, ends, starts)[1])
    if set(x.assoc) != triples or set(x.assoc_inv) != triples:
        raise StructureError(f"associator must be keyed on exactly the composable {noun} triples")
    for key in sorted(triples):
        _check_index(x.assoc[key], ncells, f"associator at {key}")
        _check_index(x.assoc_inv[key], ncells, f"inverse associator at {key}")


def _check_constraint_boundaries(x, cells, then, ends, starts, ids, boundary):
    """Raise StructureError unless each constraint cell of ``x`` runs
    between the composites it relates and its stored inverse the other way
    round: ``cells[c] == boundary(source, target, a, b)`` for a cell c
    between composites from the object a to the object b."""
    for (f, g, h), c in x.assoc.items():
        lhs, rhs, a, b = then(then(f, g), h), then(f, then(g, h)), starts[f], ends[h]
        if cells[c] != boundary(lhs, rhs, a, b) or cells[x.assoc_inv[(f, g, h)]] != boundary(rhs, lhs, a, b):
            raise StructureError(f"associator at {(f, g, h)} has wrong boundary")
    for f, (a, b) in enumerate(zip(starts, ends)):
        left, right = then(ids[a], f), then(f, ids[b])
        if cells[x.lunit[f]] != boundary(left, f, a, b) or cells[x.lunit_inv[f]] != boundary(f, left, a, b):
            raise StructureError(f"left unitor at {f} has wrong boundary")
        if cells[x.runit[f]] != boundary(right, f, a, b) or cells[x.runit_inv[f]] != boundary(f, right, a, b):
            raise StructureError(f"right unitor at {f} has wrong boundary")


def as_pseudo(d: DoubleCategory) -> PseudoDoubleCategory:
    """View a strict double category as a pseudo one with identity constraints."""
    hs, ht = _columns(d.hcells, 2)
    assoc = {(f, g, h): d.sq_vid[d.hcomp(d.hcomp(f, g), h)] for f, g, h in _paths(d.hcomp1, ht, hs)[1]}
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

    inverse = _vertical(p)
    _invertibility(col, "associator-invertibility", (HCELL,) * 3, p.assoc, p.assoc_inv, *inverse)
    _laws(col, (HCELL,), [(f, p.lunit[f], p.lunit_inv[f], p.runit[f], p.runit_inv[f]) for f in range(nh)],
          *_inverse_laws("left-unitor-invertibility", 1, *inverse),
          *_inverse_laws("right-unitor-invertibility", 3, *inverse))

    # naturality of the three constraint families
    vp, hp, hc, assoc, sq_vid, sq_hid = p.vpaste, p.hpaste, p.hcomp, p.assoc, p.sq_vid, p.sq_hid
    count, rows = _paths(p.hcomp2, right, left)
    _laws(col, (SQUARE,) * 3, rows, (
        "associator-naturality",
        lambda a, b, c: vp(assoc[(top[a], top[b], top[c])], hp(a, hp(b, c))),
        lambda a, b, c: vp(hp(hp(a, b), c), assoc[(bottom[a], bottom[b], bottom[c])]),
    ), count=count)
    _laws(col, (SQUARE,), [(s, *bnd) for s, bnd in enumerate(p.squares)],
          ("left-unitor-naturality",
           lambda s, t, b, l, r: vp(p.lunit[t], s), lambda s, t, b, l, r: vp(hp(sq_hid[l], s), p.lunit[b])),
          ("right-unitor-naturality",
           lambda s, t, b, l, r: vp(p.runit[t], s), lambda s, t, b, l, r: vp(hp(s, sq_hid[r]), p.runit[b])))

    # pentagon and triangle
    count, rows = _paths(p.hcomp1, ht, hs, 4)
    _laws(col, (HCELL,) * 4, rows, (
        "pentagon",
        lambda f, g, h, k: p.vcol(assoc[(hc(f, g), h, k)], assoc[(f, g, hc(h, k))]),
        lambda f, g, h, k: p.vcol(
            hp(assoc[(f, g, h)], sq_vid[k]), assoc[(f, hc(g, h), k)], hp(sq_vid[f], assoc[(g, h, k)])
        ),
    ), count=count)
    _laws(col, (HCELL, HCELL), sorted(p.hcomp1), (
        "triangle",
        lambda f, g: vp(assoc[(f, p.hid[ht[f]], g)], hp(sq_vid[f], p.lunit[g])),
        lambda f, g: hp(p.runit[f], sq_vid[g]),
    ))
    return col.done()


# ---------------------------------------------------------------------------
# bicategories


class Bicategory(TwoCategory):
    """Finite bicategory: a 2-category's cells and tables, with weak
    horizontal composition made up for by stored associator/unitor
    isomorphisms and their inverses.  Where a 2-category states a table
    value with the wrong boundary as a law, a bicategory raises
    StructureError on it."""

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
        super().__init__(n_objects, onecells, twocells, comp1, vcomp2, hcomp2, id1, id2, names=names)
        self.assoc = dict(assoc)
        self.assoc_inv = dict(assoc_inv)
        self.lunit = list(lunit)
        self.lunit_inv = list(lunit_inv)
        self.runit = list(runit)
        self.runit_inv = list(runit_inv)
        self._validate_bicategory()

    def vert_list(self, onecell, cells):
        out = self.id2[onecell]
        for a in cells:
            out = self.vert(out, a)
        return out

    def _validate_bicategory(self):
        _check_values(self._tables())
        s1, t1 = _columns(self.onecells, 2)
        _check_constraint_cells(self, "1-cell", len(self.twocells), self.comp1, t1, s1)
        _check_constraint_boundaries(self, self.twocells, self.then1, t1, s1, self.id1, lambda x, y, a, b: (x, y))


def bicategory_from_two_category(t) -> Bicategory:
    s1, t1 = _columns(t.onecells, 2)
    id_assoc = {(f, g, h): t.id2[t.then1(t.then1(f, g), h)] for f, g, h in _paths(t.comp1, t1, s1)[1]}
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


def _hom_laws(col, b: Bicategory, names):
    """The laws of the hom-data of ``b``, each under its name in ``names``:
    hom-category associativity and units, composition's identity
    functoriality and interchange, then the associator's and the left and
    right unitors' invertibility against their stored inverses.  The
    constructor's checks run first again, so fields reassigned since
    construction raise its StructureError."""
    b._validate()
    b._validate_bicategory()
    assoc, unit, identity, interchange, associator, left, right = names
    s2, t2 = _columns(b.twocells, 2)
    _associativity(col, assoc, "twocell", _dense_rows(b.vcomp2, len(t2)), t2, s2)
    _units(col, unit, unit, "twocell", b.vcomp2, t2, s2, b.id2)

    _identity_functoriality(col, identity, "onecell", b.comp1, b.hcomp2, b.id2)
    _globular_interchange(col, interchange, b)

    inverse = (b.vert, b.id2, b.s2, b.t2)
    _invertibility(col, associator, ("onecell",) * 3, b.assoc, b.assoc_inv, *inverse)
    unitors = [(f, b.lunit[f], b.lunit_inv[f], b.runit[f], b.runit_inv[f]) for f in range(len(b.onecells))]
    _laws(col, ("onecell",), unitors, *_inverse_laws(left, 1, *inverse), *_inverse_laws(right, 3, *inverse))


def check_bicategory(b: Bicategory, budget: Budget | None = None) -> AxiomReport:
    col = Collector("bicategory", budget)
    _hom_laws(col, b, ("hom-category-associativity", "hom-category-unit", "composition-identity-functoriality",
                       "composition-interchange", "associator-invertibility", "left-unitor-invertibility",
                       "right-unitor-invertibility"))
    s1, t1 = _columns(b.onecells, 2)
    s2, t2 = _columns(b.twocells, 2)
    vert, horiz, assoc, id2, id1 = b.vert, b.horiz, b.assoc, b.id2, b.id1
    count, rows = _paths(b.hcomp2, [t1[f] for f in s2], [s1[f] for f in s2])
    _laws(col, ("twocell",) * 3, rows, (
        "associator-naturality",
        lambda x, y, z: vert(assoc[(s2[x], s2[y], s2[z])], horiz(x, horiz(y, z))),
        lambda x, y, z: vert(horiz(horiz(x, y), z), assoc[(t2[x], t2[y], t2[z])]),
    ), count=count)
    _laws(col, ("twocell",), [(x, f, g) for x, (f, g) in enumerate(b.twocells)],
          ("left-unitor-naturality",
           lambda x, f, g: vert(b.lunit[f], x), lambda x, f, g: vert(horiz(id2[id1[s1[f]]], x), b.lunit[g])),
          ("right-unitor-naturality",
           lambda x, f, g: vert(b.runit[f], x), lambda x, f, g: vert(horiz(x, id2[id1[t1[f]]]), b.runit[g])))
    _pentagon_triangle(col, b)
    return col.done()


def _pentagon_triangle(col, b: Bicategory):
    """The pentagon and the triangle of the bicategory ``b``."""
    s1, t1 = _columns(b.onecells, 2)
    then, vert, horiz, assoc, id2 = b.then1, b.vert, b.horiz, b.assoc, b.id2
    count, rows = _paths(b.comp1, t1, s1, 4)
    _laws(col, ("onecell",) * 4, rows, (
        "pentagon",
        lambda f, g, h, k: vert(assoc[(then(f, g), h, k)], assoc[(f, g, then(h, k))]),
        lambda f, g, h, k: b.vert_list(
            then(then(then(f, g), h), k),
            [horiz(assoc[(f, g, h)], id2[k]), assoc[(f, then(g, h), k)], horiz(id2[f], assoc[(g, h, k)])],
        ),
    ), count=count)
    _laws(col, ("onecell",) * 2, sorted(b.comp1), (
        "triangle",
        lambda f, g: vert(assoc[(f, b.id1[t1[f]], g)], horiz(id2[f], b.lunit[g])),
        lambda f, g: horiz(b.runit[f], id2[g]),
    ))
