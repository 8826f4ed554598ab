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

Every law is stated once, as index rows and two sides for the shared
enumerator ``kernel._laws``.  The vertical half of a pseudofunctor's
coherence and the mirrored half of the cubical interchange laws are the
horizontal statements run on the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

from .kernel import (
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    _bang,
    _check_index,
    _columns,
    _defer,
    _Deferred,
    _entries,
    _family_sides,
    _held,
    _invertibility,
    _laws,
    _paths,
    _whole,
    _vertical,
    product,
    pullback_pairs,
    same_category,
    terminal_double_category,
    transpose,
)
from .report import BUDGET_EXCEEDED, AxiomReport, Budget, Collector, live_axioms

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
_MAPS = ("ob_map", "h_map", "v_map", "sq_map")


class _CellMaps:
    """The four cell maps of a functor, stored as tuples: one id per cell of
    the domain, each an int naming a cell of the codomain."""

    def __post_init__(self):
        self.ob_map, self.h_map, self.v_map, self.sq_map = map(tuple, (self.ob_map, self.h_map, self.v_map, self.sq_map))
        _check_maps(self)

    def ob(self, a):
        return self.ob_map[a]

    def h(self, f):
        return self.h_map[f]

    def v(self, u):
        return self.v_map[u]

    def sq(self, s):
        return self.sq_map[s]


def _check_maps(f):
    """Raise StructureError unless each cell map of ``f`` has one id per
    domain cell, each an int naming a codomain cell.  The constructor's
    check; the checkers run it again, since the fields are plain
    attributes and may be reassigned after construction."""
    maps = (f.ob_map, f.h_map, f.v_map, f.sq_map)
    sizes = tuple(map(len, maps))
    if sizes[0] != f.dom.n_objects:
        raise StructureError("object map has wrong length")
    if sizes != _counts(f.dom):
        raise StructureError("cell map has wrong length")
    for name, ids, limit in zip(_MAPS, maps, _counts(f.cod)):
        for x, i in enumerate(ids):
            if not isinstance(i, int) or not 0 <= i < limit:
                _check_index(i, limit, f"{name} {x}")


@dataclass
class StrictDoubleFunctor(_CellMaps):
    dom: DoubleCategory
    cod: DoubleCategory
    ob_map: tuple
    h_map: tuple
    v_map: tuple
    sq_map: tuple
    name: str = ""


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


def _map_boundaries(col, f, head=(), skipped="equational laws not evaluated") -> bool:
    """The cell maps of ``f`` commute with boundaries: ``h-boundary``,
    ``v-boundary`` and ``sq-boundary``, each compared as two whole lists
    (``kernel._whole``), a witness led by ``head``.  True when every
    instance was evaluated and held; where one fails, an assumption says
    what is ``skipped`` of the laws that paste the images."""
    dom, cod, ob, h, v = f.dom, f.cod, f.ob_map, f.h_map, f.v_map
    found = len(col.report.violations)
    # each side reads the first len(r) cells of the range r
    for law, kind, cells, image, ends, expect in (
        ("h-boundary", HCELL, dom.hcells, h, cod.hcells, lambda bnds: [(ob[s], ob[t]) for s, t in bnds]),
        ("v-boundary", VCELL, dom.vcells, v, cod.vcells, lambda bnds: [(ob[s], ob[t]) for s, t in bnds]),
        ("sq-boundary", SQUARE, dom.squares, f.sq_map, cod.squares,
         lambda bnds: [(h[t], h[b], v[l], v[r]) for t, b, l, r in bnds]),
    ):
        _whole(col, (kind,), range(len(cells)),
               (law, lambda r: [ends[x] for x in image[:len(r)]], lambda r: expect(cells[:len(r)])), head=head)
    if len(col.report.violations) > found:
        col.assume(f"{skipped}: cell images have wrong boundaries")
        return False
    return col.report.status != BUDGET_EXCEEDED


def check_strict_functor(f: StrictDoubleFunctor, budget: Budget | None = None) -> AxiomReport:
    """The eight strict preservation equations, over all composable pairs,
    each compared as two whole lists (``kernel._whole``)."""
    _check_maps(f)
    col = Collector("strict-functor", budget)
    if not _map_boundaries(col, f):
        return col.done()
    dom, cod = f.dom, f.cod
    ob, h, v, sq = f.ob_map, f.h_map, f.v_map, f.sq_map
    for law, kind, table, cell in (
        ("hcomp1-preserved", HCELL, "hcomp1", h),
        ("vcomp1-preserved", VCELL, "vcomp1", v),
        ("hcomp2-preserved", SQUARE, "hcomp2", sq),
        ("vcomp2-preserved", SQUARE, "vcomp2", sq),
    ):
        image = getattr(cod, table)
        _whole(col, (kind, kind), getattr(dom, table),
               (law, lambda t: [cell[z] for z in t.values()], lambda t: [image[(cell[x], cell[y])] for x, y in t]))
    # each side maps the first len(r) cells of the range r
    _whole(col, (OBJECT,), range(dom.n_objects),
           ("hid-preserved", lambda r: [h[x] for x in dom.hid[:len(r)]], lambda r: [cod.hid[a] for a in ob[:len(r)]]),
           ("vid-preserved", lambda r: [v[u] for u in dom.vid[:len(r)]], lambda r: [cod.vid[a] for a in ob[:len(r)]]))
    _whole(col, (HCELL,), range(len(dom.hcells)), ("sq-vid-preserved",
           lambda r: [sq[s] for s in dom.sq_vid[:len(r)]], lambda r: [cod.sq_vid[x] for x in h[:len(r)]]))
    _whole(col, (VCELL,), range(len(dom.vcells)), ("sq-hid-preserved",
           lambda r: [sq[s] for s in dom.sq_hid[:len(r)]], lambda r: [cod.sq_hid[u] for u in v[:len(r)]]))
    return col.done()


# ---------------------------------------------------------------------------
# double pseudofunctors


@dataclass
class DoublePseudoFunctor(_CellMaps):
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
        super().__post_init__()
        self._check_structure_cells()

    def _check_structure_cells(self):
        """Raise StructureError unless each structure family is keyed on
        exactly its keys (``_family_keys``), each value an int naming a
        square of the codomain: one pass per family.  The constructor's
        check, after the cell maps'; :func:`check_double_pseudo_functor`
        runs it again on a functor that is not pending, whose families may
        have been reassigned since."""
        limit = len(self.cod.squares)
        for name, keys, kind in zip(_FAMILIES, _family_keys(self.dom), _KINDS):
            family = getattr(self, name)
            keys = keys.keys() if isinstance(keys, dict) else set(keys)
            if family.keys() != keys:
                missing = [k for k in keys if k not in family]
                key = missing[0] if missing else next(k for k in family if k not in keys)
                raise StructureError(f"{name} must be keyed on exactly the {_KEY_NOUNS[kind]}: "
                                     f"{'missing' if missing else 'stray'} key {key!r}")
            for key, s in family.items():
                if not isinstance(s, int) or not 0 <= s < limit:
                    _check_index(s, limit, f"{name} at {key!r}")

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
    """Equal domains, codomains, cell maps and structure cells (the inverses
    left aside).  Two pending families (:class:`_PendingFunctor`) with equal
    keys and values are equal without their dicts (``_family_sides``)."""
    return strict_equal(f, g) and all(a == b for a, b in (
        _family_sides(f, g, name) for name in ("comp_h", "unit_h", "comp_v", "unit_v")))


# The structure families in field order, and the kind of cell each is keyed
# on.  ``pseudo_from_strict``, ``compose_pseudo`` and
# ``pair_pseudo_into_pullback`` each wrap a list core that takes and returns
# them as lists aligned with their keys; the functor they return keeps them
# as lists (:class:`_PendingFunctor`) until one of them is read.
_FAMILIES = ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")
_KINDS = (HCELL, HCELL, OBJECT, OBJECT, VCELL, VCELL, OBJECT, OBJECT)
_KEY_NOUNS = {HCELL: "composable hcell pairs", VCELL: "composable vcell pairs", OBJECT: "objects"}
# the other fields, in the order a pending functor holds them
_PLAIN = ("dom", "cod", "ob_map", "h_map", "v_map", "sq_map", "name")


class _Family(NamedTuple):
    """A structure family held by a :class:`_PendingFunctor`: a snapshot of
    its keys, shared with its inverse, and its values; equal by both."""

    keys: list
    values: list

    def table(self):
        return dict(zip(self.keys, self.values))


class _PendingFunctor(_Deferred, DoublePseudoFunctor):
    """A pseudofunctor whose eight structure families are held as
    :class:`_Family` recipes (``kernel._Deferred``).  The build places
    them in field order, before ``name``.  Only :func:`_as_pseudo` makes
    one."""

    def _place(self, families):
        name = vars(self).pop("name")
        vars(self).update(families, name=name)


def _family_keys(dom: DoubleCategory):
    """The keys of the families of a pseudofunctor off ``dom``, in
    ``_FAMILIES`` order and in the domain's table order."""
    tables = {HCELL: dom.hcomp1, VCELL: dom.vcomp1, OBJECT: range(dom.n_objects)}
    return [tables[kind] for kind in _KINDS]


def _as_lists(f: DoublePseudoFunctor, keys) -> SimpleNamespace:
    """``f``'s fields, each structure family read at its ``keys``: a pending
    family's list as it is when it holds exactly those keys, in that order;
    a dict straight off its values when it does; else key by key (a missing
    key raises ``KeyError``)."""

    def read(name, ks):
        ks, held = list(ks), _held(f, name)
        if held is not None and held.keys == ks:
            return held.values
        family = getattr(f, name)
        return list(family.values()) if list(family) == ks else [family[k] for k in ks]

    return SimpleNamespace(**{n: getattr(f, n) for n in _PLAIN}, **{n: read(n, ks) for n, ks in zip(_FAMILIES, keys)})


def _as_pseudo(f: SimpleNamespace, keys=None) -> DoublePseudoFunctor:
    """List-level ``f`` as a :class:`_PendingFunctor`, each family held with
    a snapshot of its ``keys`` (by default its domain's, ``_family_keys``),
    so a later edit of the domain's tables does not reach it.  Only the
    cell maps are checked: the list cores key the families on snapshots of
    the domain's tables and paste their values in the codomain."""
    keys = _family_keys(f.dom) if keys is None else keys
    snapshots = {id(ks): list(ks) for ks in {id(ks): ks for ks in keys}.values()}
    p = object.__new__(_PendingFunctor)
    vars(p).update({n: getattr(f, n) for n in _PLAIN})
    _defer(p, **{n: _Family(snapshots[id(ks)], getattr(f, n)) for n, ks in zip(_FAMILIES, keys)})
    _CellMaps.__post_init__(p)
    return p


def _strict_lists(f: StrictDoubleFunctor) -> SimpleNamespace:
    """The list core of :func:`pseudo_from_strict`: the identity squares on
    the images of the domain's composites and identities, in table order;
    each family is its own inverse, the same list."""
    dom, sq_vid, sq_hid, h, v = f.dom, f.cod.sq_vid, f.cod.sq_hid, f.h_map, f.v_map
    comp_h, unit_h = [sq_vid[h[z]] for z in dom.hcomp1.values()], [sq_vid[h[z]] for z in dom.hid]
    comp_v, unit_v = [sq_hid[v[z]] for z in dom.vcomp1.values()], [sq_hid[v[z]] for z in dom.vid]
    families = (comp_h, comp_h, unit_h, unit_h, comp_v, comp_v, unit_v, unit_v)
    return SimpleNamespace(**vars(f), **dict(zip(_FAMILIES, families)))


def pseudo_from_strict(f: StrictDoubleFunctor) -> DoublePseudoFunctor:
    """``f`` with identity squares as structure cells, each family keyed in
    the domain's table order, its inverse the same cells in a dict of its
    own; wraps the list core ``_strict_lists``, dicts built when read."""
    return _as_pseudo(_strict_lists(f))


def identity_pseudo(d: DoubleCategory) -> DoublePseudoFunctor:
    return pseudo_from_strict(identity_functor(d))


# the laws ``_structure_boundaries`` states, in their order
_BOUNDARY_LAWS = ("h-boundary", "v-boundary", "sq-boundary", "structure-boundary")


def _structure_boundaries(col, f: DoublePseudoFunctor, head=(), skipped="equational laws not evaluated") -> bool:
    """State the cell maps' boundary laws (``_map_boundaries``) and, where
    they hold, ``structure-boundary``: each structure cell has its required
    boundary and its stored inverse the reverse one, compared as whole lists
    (``kernel._whole``), a witness led by ``head``.  True when every
    instance was evaluated and held; where one fails, an assumption says
    what is ``skipped`` of the laws that paste the structure cells."""
    dom, cod = f.dom, f.cod
    if not _map_boundaries(col, f, head, skipped):
        return False
    ob, h, v, hid, vid, sq = f.ob_map, f.h_map, f.v_map, cod.hid, cod.vid, cod.squares
    hs, ht = _columns(dom.hcells, 2)
    vs, vt = _columns(dom.vcells, 2)
    found = len(col.report.violations)
    # the families, each with its inverses, the boundary of its cell at a
    # key, and the reverse boundary: a vertically globular cell's inverse
    # trades top and bottom, a horizontally globular one's left and right
    vertical, horizontal = (lambda b: (b[1], b[0], b[2], b[3])), (lambda b: (b[0], b[1], b[3], b[2]))
    for kinds, cells, invs, boundary, reverse in (
        ((HCELL, HCELL), f.comp_h, f.comp_h_inv, lambda k: (
            h[dom.hcomp1[k]], cod.hcomp1[h[k[0]], h[k[1]]], vid[ob[hs[k[0]]]], vid[ob[ht[k[1]]]]), vertical),
        ((VCELL, VCELL), f.comp_v, f.comp_v_inv, lambda k: (
            hid[ob[vs[k[0]]]], hid[ob[vt[k[1]]]], cod.vcomp1[v[k[0]], v[k[1]]], v[dom.vcomp1[k]]), horizontal),
        ((OBJECT,), f.unit_h, f.unit_h_inv, lambda a: (h[dom.hid[a]], hid[ob[a]], vid[ob[a]], vid[ob[a]]), vertical),
        ((OBJECT,), f.unit_v, f.unit_v_inv, lambda a: (hid[ob[a]], hid[ob[a]], vid[ob[a]], v[dom.vid[a]]), horizontal),
    ):
        _whole(col, kinds, cells, ("structure-boundary", lambda t: [(sq[s], sq[invs[key]]) for key, s in t.items()],
                                   lambda t: [(b, reverse(b)) for b in map(boundary, t)]), head=head)
    if len(col.report.violations) > found:
        col.assume(f"{skipped}: structure cells have wrong boundaries")
        return False
    return col.report.status != BUDGET_EXCEEDED


# The coherence laws are stated once, for the vertically globular cells of a
# functor g.  The horizontal half of f reads them downwards on g = f, where
# comp_h : F(x.y) => F(x).F(y) sits above what it is pasted to.  The vertical
# half reads them upwards on g = transpose_pseudo(f): there comp_v, which runs
# the other way, is comp_h_inv, so each vertical pasting takes its two
# squares in the opposite order and tops and bottoms trade roles.


def _coherence(col, live, names, kind, g, up):
    """Associativity and the two unit laws of g's composition cells."""
    dom, cod = g.dom, g.cod
    comp, unit = (g.comp_h_inv, g.unit_h_inv) if up else (g.comp_h, g.unit_h)
    vp = (lambda a, b: cod.vpaste(b, a)) if up else cod.vpaste
    h, hp, sq_vid, hcomp, hid = g.h_map, cod.hpaste, cod.sq_vid, dom.hcomp1, dom.hid
    hs, ht = _columns(dom.hcells, 2)
    assoc, left, right = names
    if assoc in live:
        count, rows = _paths(hcomp, ht, hs)
        _laws(col, (kind,) * 3, rows, (
            assoc,
            lambda x, y, z: vp(comp[(hcomp[(x, y)], z)], hp(comp[(x, y)], sq_vid[h[z]])),
            lambda x, y, z: vp(comp[(x, hcomp[(y, z)])], hp(sq_vid[h[x]], comp[(y, z)])),
        ), count=count)
    cells = [(x,) for x in range(len(hs))]
    if left in live:
        _laws(col, (kind,), cells, (
            left, lambda x: vp(comp[(hid[hs[x]], x)], hp(unit[hs[x]], sq_vid[h[x]])), lambda x: sq_vid[h[x]],
        ))
    if right in live:
        _laws(col, (kind,), cells, (
            right, lambda x: vp(comp[(x, hid[ht[x]])], hp(sq_vid[h[x]], unit[ht[x]])), lambda x: sq_vid[h[x]],
        ))


def _naturality(col, live, names, kind, g, up):
    """g's composition cells commute with the images of pasted squares, and
    its unit cells conjugate the images of identity squares.  The second
    law reads the same upwards: unit and inverse, source and target and the
    order of pasting all trade places."""
    dom, cod = g.dom, g.cod
    comp = g.comp_h_inv if up else g.comp_h
    vp = (lambda a, b: cod.vpaste(b, a)) if up else cod.vpaste
    sq = g.sq_map
    top, bottom = _columns(dom.squares, 2)
    if up:
        top, bottom = bottom, top
    comp_law, unit_law = names
    if comp_law in live:
        _laws(col, (SQUARE, SQUARE), _entries(dom.hcomp2), (
            comp_law,
            lambda s, t, st: vp(comp[(top[s], top[t])], cod.hpaste(sq[s], sq[t])),
            lambda s, t, st: vp(sq[st], comp[(bottom[s], bottom[t])]),
        ))
    if unit_law in live:
        _laws(col, (kind,), [(u,) for u in range(len(dom.vcells))], (
            unit_law,
            lambda u: sq[dom.sq_hid[u]],
            lambda u: cod.vcol(g.unit_h[dom.vs(u)], cod.sq_hid[g.v_map[u]], g.unit_h_inv[dom.vt(u)]),
        ))


def check_double_pseudo_functor(
    f: DoublePseudoFunctor,
    budget: Budget | None = None,
    axioms=None,
) -> AxiomReport:
    """Verify the named coherence catalog plus invertibility of all four
    structure-cell families.  ``axioms`` restricts the run to a subset of
    :data:`PSEUDO_FUNCTOR_AXIOMS`; the default runs everything.  The
    boundaries come first, whatever ``axioms`` says: those of the cell maps,
    then ``structure-boundary``, each structure cell and its stored inverse
    at one key; where one fails, nothing is pasted.  The constructor's
    checks run first again, on cell maps or families reassigned since; a
    pending functor's families are left as its list core made them."""
    _check_maps(f)
    if not isinstance(f, _PendingFunctor):
        f._check_structure_cells()
    live = live_axioms(PSEUDO_FUNCTOR_AXIOMS, axioms)
    col = Collector("double-pseudo-functor", budget)
    if not _structure_boundaries(col, f):
        return col.done()
    g = transpose_pseudo(f, transpose(f.dom), transpose(f.cod))
    if "invertibility" in live:
        _invertibility(col, "invertibility", (HCELL, HCELL), f.comp_h, f.comp_h_inv, *_vertical(f.cod))
        _invertibility(col, "invertibility", (VCELL, VCELL), f.comp_v, f.comp_v_inv, *_vertical(g.cod))
        _invertibility(col, "invertibility", (OBJECT,), f.unit_h, f.unit_h_inv, *_vertical(f.cod))
        _invertibility(col, "invertibility", (OBJECT,), f.unit_v, f.unit_v_inv, *_vertical(g.cod))
    names = PSEUDO_FUNCTOR_AXIOMS
    _coherence(col, live, names[0:3], HCELL, f, False)
    _coherence(col, live, names[3:6], VCELL, g, True)
    _naturality(col, live, names[6:8], VCELL, f, False)
    _naturality(col, live, names[8:10], HCELL, g, True)
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


def _compose_lists(g: DoublePseudoFunctor, f: SimpleNamespace) -> SimpleNamespace:
    """The list core of :func:`compose_pseudo`: g after list-level ``f``,
    its families aligned with ``_family_keys(f.dom)`` as are the result's.

    Each composition family and its inverse are built in one pass over the
    domain's table (``hcomp1``, resp. ``vcomp1``).  The structure cells of
    f take few distinct values (on the braid bundle's triple pullback, some
    900,000 conjugations cover 511 squares), so each conjugation, and each
    pair of pastings keyed by f's cell, its inverse and the images of the
    pair, is built once per call."""
    if not same_category(f.cod, g.dom):
        raise StructureError("pseudofunctors not composable")
    cod = g.cod
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

    def family(table, cells, inverses, images, paste):
        """The family and its inverse: ``paste(cell, inverse, x', y')`` for
        each key (x, y) of ``table``, with ``cell`` and ``inverse`` f's
        structure cells at the key and x', y' the images of x and y; each
        distinct quadruple is pasted once."""
        made = {}
        get = made.get
        out, out_inv = [], []
        for (x, y), cell, inverse in zip(table, cells, inverses):
            k = (cell, inverse, images[x], images[y])
            pair = get(k)
            if pair is None:
                pair = made[k] = paste(*k)
            out.append(pair[0])
            out_inv.append(pair[1])
        return out, out_inv

    comp_h, comp_h_inv = family(f.dom.hcomp1, f.comp_h, f.comp_h_inv, f.h_map, lambda s, t, x, y: (
        cod.vpaste(cv(s), g.comp_h[(x, y)]), cod.vpaste(g.comp_h_inv[(x, y)], cv(t))))
    comp_v, comp_v_inv = family(f.dom.vcomp1, f.comp_v, f.comp_v_inv, f.v_map, lambda s, t, u, v: (
        cod.hpaste(g.comp_v[(u, v)], ch(s)), cod.hpaste(ch(t), g.comp_v_inv[(u, v)])))
    obs = f.ob_map
    families = (
        comp_h, comp_h_inv,
        [cod.vpaste(cv(s), g.unit_h[b]) for s, b in zip(f.unit_h, obs)],
        [cod.vpaste(g.unit_h_inv[b], cv(s)) for s, b in zip(f.unit_h_inv, obs)],
        comp_v, comp_v_inv,
        [cod.hpaste(g.unit_v[b], ch(s)) for s, b in zip(f.unit_v, obs)],
        [cod.hpaste(ch(s), g.unit_v_inv[b]) for s, b in zip(f.unit_v_inv, obs)],
    )
    maps = {name: [getattr(g, name)[x] for x in getattr(f, name)] for name in ("ob_map", "h_map", "v_map", "sq_map")}
    name = f"{g.name}.{f.name}" if g.name or f.name else ""
    return SimpleNamespace(dom=f.dom, cod=cod, **maps, **dict(zip(_FAMILIES, families)), name=name)


def compose_pseudo(g: DoublePseudoFunctor, f: DoublePseudoFunctor) -> DoublePseudoFunctor:
    """Composite double pseudofunctor; structure cells are the standard
    pastings of g's cells with the g-images of f's cells.  Every family is
    keyed in the order of ``f.dom``'s tables (``hcomp1``, ``vcomp1``, the
    objects), whatever order f's families list their keys in; one of f's
    that misses a key raises ``KeyError``.  Wraps the list core
    ``_compose_lists``; its families become dicts at their first read."""
    return _as_pseudo(_compose_lists(g, _as_lists(f, _family_keys(f.dom))))


def _pair_lists(f, g, pb, left: SimpleNamespace, right: SimpleNamespace, keys=None, name="") -> SimpleNamespace:
    """The list core of :func:`pair_pseudo_into_pullback`: each cell and
    structure cell of ``left`` paired with ``right``'s, as the index of the
    pair in the pullback, the families aligned with ``keys`` (by default
    ``_family_keys(left.dom)``) on both sides and in the result.  A pair that
    misses the pullback raises ``StructureError`` naming the domain cells at
    its key."""
    keys = _family_keys(left.dom) if keys is None else keys
    index = {kind: {p: i for i, p in enumerate(ps)} for kind, ps in pullback_pairs(f, g).items()}
    slots = [(field, index[kind], what, range(len(getattr(left, field))), (), kind) for field, kind, what in (
        ("ob_map", OBJECT, "object"), ("h_map", HCELL, "hcell"), ("v_map", VCELL, "vcell"), ("sq_map", SQUARE, "square"))]
    slots += [(family, index[SQUARE], "structure cell", ks, (family,), kind) for family, ks, kind in zip(_FAMILIES, keys, _KINDS)]
    out = {}
    for field, look, what, ks, head, kind in slots:
        cells = getattr(left, field), getattr(right, field)
        try:
            out[field] = list(map(look.__getitem__, zip(*cells)))
        except KeyError:
            key, pair = next((k, pair) for k, pair in zip(ks, zip(*cells)) if pair not in look)
            at = [(kind, c) for c in (key if isinstance(key, tuple) else (key,))]
            raise StructureError(f"pseudo pairing misses the pullback at {what} {pair}", (name, *head, *at)) from None
    return SimpleNamespace(dom=left.dom, cod=pb, **out, name=name)


def pair_pseudo_into_pullback(f, g, pb, left: DoublePseudoFunctor, right: DoublePseudoFunctor, name=""):
    """Pseudofunctor X -> pullback(f, g) induced by a matching pair of
    pseudofunctors; structure cells pair componentwise.  Each family is
    keyed in the left arm's own key order, read straight off its values, the
    right arm's read at those keys (one that misses a key raises
    ``KeyError``); wraps ``_pair_lists``, its families dicts when read."""
    keys = [held.keys if (held := _held(left, n)) else list(getattr(left, n)) for n in _FAMILIES]
    return _as_pseudo(_pair_lists(f, g, pb, _as_lists(left, keys), _as_lists(right, keys), keys, name), keys)


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


def _projections(dom, d1, d2, pairs):
    """The strict functors from ``dom`` to ``d1`` and to ``d2`` taking each
    cell to the first, resp. second, entry of its pair; ``pairs`` lists the
    pairs of the objects, hcells, vcells and squares of ``dom``."""
    return tuple(
        StrictDoubleFunctor(dom, d, *([pair[i] for pair in cells] for cells in pairs), name=f"p{i + 1}")
        for i, d in enumerate((d1, d2))
    )


def product_projections(d1: DoubleCategory, d2: DoubleCategory, prod: DoubleCategory):
    """The projections of ``prod``, the :func:`product` of ``d1`` and ``d2``:
    those of the pullback of their functors to the terminal double category."""
    term = terminal_double_category()
    return pullback_projections(_bang(d1, term), _bang(d2, term), prod)


def pullback_projections(f, g, pb: DoubleCategory):
    pairs = pullback_pairs(f, g)
    return _projections(pb, f.dom, g.dom, [pairs[kind] for kind in (OBJECT, HCELL, VCELL, SQUARE)])


def _counts(d: DoubleCategory):
    return d.n_objects, len(d.hcells), len(d.vcells), len(d.squares)


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

# The interchange laws a11, a21, b11, b21 and c11 are stated in _halves.  Each
# other one is the mirror of one of them: the same statement on the transposed
# functor, hcells and vcells trading places in its witnesses, with its two
# halves run in the order given.
_MIRRORS = {"a12": ("a21", (1, 0)), "a22": ("a11", (0, 1)), "b12": ("b21", (0, 1)),
            "b22": ("b11", (1, 0)), "c22": ("c11", (0, 1))}
_SWAP = {HCELL: VCELL, VCELL: HCELL}


def _transpose_cubical(h: CubicalDoubleFunctor) -> CubicalDoubleFunctor:
    """``h`` between the transposed categories: hh and vv, hv and vh trade
    places, and so do the h and v maps of the partial functors."""
    d1, d2, cod = transpose(h.dom1), transpose(h.dom2), transpose(h.cod)

    def flip(fs, dom):
        return tuple(StrictDoubleFunctor(dom, cod, p.ob_map, p.v_map, p.h_map, p.sq_map, p.name) for p in fs)

    return CubicalDoubleFunctor(
        d1, d2, cod, flip(h.row_functors, d2), flip(h.col_functors, d1), h.vv, h.vv_inv, h.hh, h.hh_inv, h.vh, h.hv
    )


def _halves(h: CubicalDoubleFunctor, law):
    """The two halves of ``law`` (a11, a21, b11, b21 or c11) on ``h``, each
    its witness kinds, index rows and two sides."""
    d1, d2, cod = h.dom1, h.dom2, h.cod
    hh, hv, vh, vpaste, hpaste, sq_vid = h.hh, h.hv, h.vh, cod.vpaste, cod.hpaste, cod.sq_vid
    hcells1, hcells2 = range(len(d1.hcells)), range(len(d2.hcells))

    def units(cells, ids2, kind2, cells2, ident2, image2):
        """``cells`` at an identity in either variable is an identity square."""
        return (
            ((HCELL, OBJECT), [(F, b) for F in hcells1 for b in range(d2.n_objects)],
             lambda F, b: cells[(F, ids2[b])], lambda F, b: sq_vid[h.h1(F, b)]),
            ((OBJECT, kind2), [(a, y) for y in cells2 for a in range(d1.n_objects)],
             lambda a, y: cells[(d1.hid[a], y)], lambda a, y: ident2[image2(a, y)]),
        )

    if law == "a11":
        return units(hh, d2.hid, HCELL, hcells2, sq_vid, h.h2)
    if law == "a21":
        return units(hv, d2.vid, VCELL, range(len(d2.vcells)), cod.sq_hid, h.v2)
    if law == "b11":
        return (
            ((HCELL,) * 3, [(F, *e) for F in hcells1 for e in _entries(d2.hcomp1)],
             lambda F, f, f2, ff2: hh[(F, ff2)],
             lambda F, f, f2, ff2: vpaste(
                 hpaste(hh[(F, f)], sq_vid[h.h2(d1.ht(F), f2)]), hpaste(sq_vid[h.h2(d1.hs(F), f)], hh[(F, f2)])
             )),
            ((HCELL,) * 3, [(*e[:2], f, e[2]) for e in _entries(d1.hcomp1) for f in hcells2],
             lambda F, F2, f, FF2: hh[(FF2, f)],
             lambda F, F2, f, FF2: vpaste(
                 hpaste(sq_vid[h.h1(F, d2.hs(f))], hh[(F2, f)]), hpaste(hh[(F, f)], sq_vid[h.h1(F2, d2.ht(f))])
             )),
        )
    if law == "b21":
        return (
            ((HCELL, VCELL, VCELL), [(F, *e) for F in hcells1 for e in _entries(d2.vcomp1)],
             lambda F, u, u2, uu2: hv[(F, uu2)], lambda F, u, u2, uu2: vpaste(hv[(F, u)], hv[(F, u2)])),
            ((HCELL, HCELL, VCELL), [(*e[:2], u, e[2]) for e in _entries(d1.hcomp1) for u in range(len(d2.vcells))],
             lambda F, F2, u, FF2: hv[(FF2, u)], lambda F, F2, u, FF2: hpaste(hv[(F, u)], hv[(F2, u)])),
        )
    return (  # c11
        ((HCELL, SQUARE), [(F, w, *d2.squares[w]) for F in hcells1 for w in range(len(d2.squares))],
         lambda F, w, t, b, l, r: vpaste(hh[(F, t)], hpaste(h.sq2(d1.hs(F), w), hv[(F, r)])),
         lambda F, w, t, b, l, r: vpaste(hpaste(hv[(F, l)], h.sq2(d1.ht(F), w)), hh[(F, b)])),
        ((SQUARE, HCELL), [(z, f, *d1.squares[z]) for f in hcells2 for z in range(len(d1.squares))],
         lambda z, f, t, b, l, r: vpaste(hh[(t, f)], hpaste(vh[(l, f)], h.sq1(z, d2.ht(f)))),
         lambda z, f, t, b, l, r: vpaste(hpaste(h.sq1(z, d2.hs(f)), vh[(r, f)]), hh[(b, f)])),
    )


def check_cubical(h: CubicalDoubleFunctor, budget: Budget | None = None, axioms=None) -> AxiomReport:
    live = live_axioms(CUBICAL_AXIOMS, axioms)
    col = Collector("cubical-functor", budget)
    d1, d2, cod = h.dom1, h.dom2, h.cod

    if "corner-agreement" in live:
        _laws(col, (OBJECT, OBJECT), [(a, b) for a in range(d1.n_objects) for b in range(d2.n_objects)],
              ("corner-agreement", lambda a, b: h.row_functors[a].ob(b), lambda a, b: h.col_functors[b].ob(a)))
    if "partial-strictness" in live:
        for a, rf in enumerate(h.row_functors):
            col.report.absorb(check_strict_functor(rf, budget=col.budget), prefix=f"row[{a}]: ")
        for b, cf in enumerate(h.col_functors):
            col.report.absorb(check_strict_functor(cf, budget=col.budget), prefix=f"col[{b}]: ")
    # the family boundaries compose images of the partial functors, so they
    # are formed only where those agree on corners and are strict
    for law, kinds, cells, expect in () if col.report.violations else (
        ("hh-boundary", (HCELL, HCELL), h.hh, lambda F, f: (
            cod.hcomp(h.h1(F, d2.hs(f)), h.h2(d1.ht(F), f)),
            cod.hcomp(h.h2(d1.hs(F), f), h.h1(F, d2.ht(f))),
            cod.vid[h.ob(d1.hs(F), d2.hs(f))],
            cod.vid[h.ob(d1.ht(F), d2.ht(f))],
        )),
        ("vv-boundary", (VCELL, VCELL), h.vv, lambda U, u: (
            cod.hid[h.ob(d1.vs(U), d2.vs(u))],
            cod.hid[h.ob(d1.vt(U), d2.vt(u))],
            cod.vcomp(h.v1(U, d2.vs(u)), h.v2(d1.vt(U), u)),
            cod.vcomp(h.v2(d1.vs(U), u), h.v1(U, d2.vt(u))),
        )),
        ("hv-boundary", (HCELL, VCELL), h.hv, lambda F, u: (
            h.h1(F, d2.vs(u)), h.h1(F, d2.vt(u)), h.v2(d1.hs(F), u), h.v2(d1.ht(F), u)
        )),
        ("vh-boundary", (VCELL, HCELL), h.vh, lambda U, f: (
            h.h2(d1.vs(U), f), h.h2(d1.vt(U), f), h.v1(U, d2.hs(f)), h.v1(U, d2.ht(f))
        )),
    ):
        _whole(col, kinds, cells,
               (law, lambda t: [cod.squares[z] for z in t.values()], lambda t: [expect(*key) for key in t]))
    if col.report.violations:
        col.assume("interchange laws not evaluated: structural violations present")
        return col.done()

    t = _transpose_cubical(h)
    if "invertibility" in live:
        _invertibility(col, "invertibility", (HCELL, HCELL), h.hh, h.hh_inv, *_vertical(cod))
        _invertibility(col, "invertibility", (VCELL, VCELL), h.vv, h.vv_inv, *_vertical(t.cod))
    for law in CUBICAL_AXIOMS[2:-1]:
        if law not in live:
            continue
        if law in _MIRRORS:
            stated, order = _MIRRORS[law]
            halves = [(tuple(_SWAP.get(k, k) for k in kinds), *rest) for kinds, *rest in _halves(t, stated)]
        else:
            halves, order = _halves(h, law), (0, 1)
        for i in order:
            kinds, rows, lhs, rhs = halves[i]
            _laws(col, kinds, rows, (law, lhs, rhs))
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


def cubical_from_product_functor(d1: DoubleCategory, d2: DoubleCategory, f: StrictDoubleFunctor) -> CubicalDoubleFunctor:
    """Cubical functor induced by a strict functor off the product, with all
    four mixed families the evident identity squares."""
    if not same_category(f.dom, product(d1, d2)):
        counts = "{} objects, {} hcells, {} vcells and {} squares".format
        raise StructureError(
            f"functor domain is not the product of the two factors: it has {counts(*_counts(f.dom))}, "
            f"the product has {counts(*(m * n for m, n in zip(_counts(d1), _counts(d2))))}"
        )
    counts, maps, cod = _counts(d2), (f.ob_map, f.h_map, f.v_map, f.sq_map), f.cod
    ns = counts[3]

    def ids(d, a):
        """Object a of d and its identity hcell, vcell and square."""
        return a, d.hid[a], d.vid[a], d.sq_vid[d.hid[a]]

    def restrict(dom, fixed, pair, name):
        """f on the cells of ``dom`` paired with ``fixed``, an object and its
        identities; ``pair(k, x, n)`` is the product's id of the pair of k
        and x, n the count of such cells of d2."""
        cells = ([m[pair(k, x, n)] for x in range(size)] for m, k, n, size in zip(maps, fixed, counts, _counts(dom)))
        return StrictDoubleFunctor(dom, cod, *cells, name=name)

    rows = tuple(restrict(d2, ids(d1, a), lambda k, x, n: k * n + x, f"row{a}") for a in range(d1.n_objects))
    cols = tuple(restrict(d1, ids(d2, b), lambda k, x, n: x * n + k, f"col{b}") for b in range(d2.n_objects))

    def pairs(ids1, n1, ids2, n2):
        """The image of the pair square (ids1[x], ids2[y]) at each (x, y)."""
        return {(x, y): f.sq(ids1[x] * ns + ids2[y]) for x in range(n1) for y in range(n2)}

    (_, n1h, n1v, _), (_, nh, nv, _) = _counts(d1), counts
    hh = pairs(d1.sq_vid, n1h, d2.sq_vid, nh)
    vv = pairs(d1.sq_hid, n1v, d2.sq_hid, nv)
    hv = pairs(d1.sq_vid, n1h, d2.sq_hid, nv)
    vh = pairs(d1.sq_hid, n1v, d2.sq_vid, nh)
    return CubicalDoubleFunctor(d1, d2, cod, rows, cols, hh, dict(hh), vv, dict(vv), hv, vh)
