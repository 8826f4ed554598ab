"""Category-shaped structures spread over two double categories.

The data is a span of strict functors s, t off an arrow-level double
category, a unit pseudofunctor the other way, and a composition
pseudofunctor off the pullback of the span, together with associativity and
unit comparison transformations and optional coherence modifications.  The
checker verifies the printed compatibility block cellwise:

    s.p2 == t.p1     s.u == id == t.u     s.c == s.p1     t.c == t.p2

plus the requirement that whiskering any comparison transformation or
coherence modification by s or t yields an identity.  Missing 3-cells are
treated as identities with a recorded assumption, never silently.

Genuine equivalence 2-cells that are not componentwise invertible are out
of desk scale; the checker requires stored inverses on the comparison
transformations' component registries and reports anything else as a
violation rather than attempting equivalence search.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import islice, product
from types import SimpleNamespace

from .kernel import (
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    _PRESENTATION,
    _bang,
    _by,
    _category_sections,
    _cell_map_sections,
    _columns,
    _compare_entries,
    _embedding,
    _first_difference,
    _laws,
    _whole,
    check_double_category,
    pullback,
    pullback_pairs,
    same_category,
    terminal_double_category,
)
from .functors import (
    _BOUNDARY_LAWS,
    DoublePseudoFunctor,
    StrictDoubleFunctor,
    _as_pseudo,
    _compose_lists,
    _pair_lists,
    _projections,
    _strict_lists,
    _structure_boundaries,
    check_double_pseudo_functor,
    check_strict_functor,
    compose_pseudo,
    compose_strict,
    identity_pseudo,
    pair_pseudo_into_pullback,
    pseudo_equal,
    pseudo_from_strict,
    pullback_projections,
)
from .modif import DoubleModification, check_modification
from .report import BUDGET_EXCEEDED, AxiomReport, Budget, Collector
from .transform import ComponentRegistry, DoublePNT, check_double_pnt, identity_double
from .weak import Bicategory, PseudoDoubleCategory, _hom_laws, _pentagon_triangle


@dataclass
class InternalCategoryData:
    """The data of a category internal to double categories.

    The span's check and canonical pullback, and the nested and unit-sided
    composites, are built once and kept with the fields they read, in a
    memo that ``dataclasses.replace`` hands on to the copy; a copy or a later
    call rebuilds only what reads a reassigned field.  The span is also
    rebuilt when a leg changed by value, but the composites are not: change
    a bundle by reassigning its fields, never by editing tables in place.
    """

    d0: DoubleCategory
    d1: DoubleCategory
    s: StrictDoubleFunctor
    t: StrictDoubleFunctor
    u: DoublePseudoFunctor
    p: DoubleCategory  # pullback of (t, s): pairs (x, y) with t(x) = s(y)
    p1: StrictDoubleFunctor
    p2: StrictDoubleFunctor
    m: DoublePseudoFunctor  # composition, off the pullback
    assoc: DoublePNT | None = None
    lunit: DoublePNT | None = None
    runit: DoublePNT | None = None
    pent: DoubleModification | None = None
    mid: DoubleModification | None = None
    lft: DoubleModification | None = None
    rgt: DoubleModification | None = None
    unit_compat: DoubleModification | None = None
    extra_threecell_equations: tuple = ()  # pluggable additional checks
    _memo: dict = field(default_factory=dict, repr=False, compare=False)


def _memoized(data: InternalCategoryData, key, reads, build, holds=lambda value: True):
    """``build()``, kept on ``data`` (and every ``replace`` copy of it) with
    the field objects it read, and reused while every one of them is still
    the field itself and ``holds(value)``."""
    current = tuple(getattr(data, name) for name in reads)
    kept = data._memo.get(key)
    if kept is not None and all(a is b for a, b in zip(kept[0], current)) and holds(kept[1]):
        return kept[1]
    value = build()
    data._memo[key] = (current, value)
    return value


def _leg_state(leg):
    """A span leg by value: its four cell maps, then every field of the
    presentations of its ``dom`` and ``cod`` (what :func:`same_category`
    compares), listed once when they are one object."""
    maps = [getattr(leg, name) for name in ("ob_map", "h_map", "v_map", "sq_map")]
    ends = (leg.dom,) if leg.dom is leg.cod else (leg.dom, leg.cod)
    return maps + [getattr(d, name) for d in ends for name in _PRESENTATION]


def _span(data: InternalCategoryData):
    """``(pullback_pairs(t, s), pullback(t, s))``, or None where a leg is not
    strict; kept while ``s`` and ``t`` are the same objects and equal by
    value (:func:`_leg_state`) to copies taken when the entry was made."""
    legs = (data.s,) if data.t is data.s else (data.s, data.t)

    def build():
        state = [[copy(x) for x in _leg_state(leg)] for leg in legs]
        if not all(check_strict_functor(leg).passed for leg in legs):
            return state, None
        return state, (pullback_pairs(data.t, data.s), pullback(data.t, data.s))

    return _memoized(data, "span", ("s", "t"), build, lambda kept: kept[0] == [_leg_state(leg) for leg in legs])[1]


def _left_bracketed(data: InternalCategoryData):
    """The left-bracketed triple pullback ((x, y), z), its two projections
    and the inner composite m x 1 into the binary pullback, list-level, its
    families aligned with the triple pullback's tables."""
    t_after_p2 = compose_strict(data.t, data.p2)
    p3l = pullback(t_after_p2, data.s)
    p3l_1, p3l_2 = pullback_projections(t_after_p2, data.s, p3l)
    m_x_id = _pair_lists(data.t, data.s, data.p, _compose_lists(data.m, _strict_lists(p3l_1)), _strict_lists(p3l_2),
                         name="m-x-id")
    return p3l, p3l_1, p3l_2, m_x_id


def triple_pullbacks(data: InternalCategoryData):
    """The two bracketings of the arrow category composed with itself twice,
    with the inner-composition functors into the binary pullback and the
    rebracketing isomorphism between them."""
    p3l, _, _, m_x_id = _left_bracketed(data)
    m_x_id = _as_pseudo(m_x_id)
    t_after_p2 = compose_strict(data.t, data.p2)
    s_after_p1 = compose_strict(data.s, data.p1)
    p3r = pullback(data.t, s_after_p1)  # (x, (y, z))
    p3r_1, p3r_2 = pullback_projections(data.t, s_after_p1, p3r)
    id_x_m = _as_pseudo(_pair_lists(data.t, data.s, data.p, _strict_lists(p3r_1),
                                    _compose_lists(data.m, _strict_lists(p3r_2)), name="id-x-m"))
    reindex = reindex_triples(data, p3l, t_after_p2, p3r, s_after_p1)
    return p3l, p3r, m_x_id, id_x_m, reindex


def reindex_triples(data, p3l, t_after_p2, p3r, s_after_p1) -> StrictDoubleFunctor:
    """Canonical strict isomorphism between the two bracketed pullbacks."""
    lpairs = pullback_pairs(t_after_p2, data.s)
    rpairs = pullback_pairs(data.t, s_after_p1)
    ppairs = pullback_pairs(data.t, data.s)
    maps = (_rebracket(lpairs[kind], ppairs[kind], rpairs[kind]) for kind in (OBJECT, HCELL, VCELL, SQUARE))
    return StrictDoubleFunctor(p3l, p3r, *maps, name="rebracket")


def _rebracket(lpairs, ppairs, rpairs):
    """The rebracketing ((x, y), z) -> (x, (y, z)) on indices: for each
    pair of ``lpairs``, its first member the index of (x, y) in ``ppairs``,
    the index in ``rpairs`` of (x, i), i that of (y, z) in ``ppairs``; None
    where a pair is missing."""
    pindex = {pr: i for i, pr in enumerate(ppairs)}
    rindex = {pr: i for i, pr in enumerate(rpairs)}
    return [rindex.get((ppairs[xy][0], pindex.get((ppairs[xy][1], z)))) for xy, z in lpairs]


def _last_two(data: InternalCategoryData, p3l, p3l_1, p3l_2) -> StrictDoubleFunctor:
    """The strict functor ((x, y), z) |-> (y, z) from the left-bracketed
    triple pullback to the binary one."""
    middle = compose_strict(data.p2, p3l_1)
    pairs = pullback_pairs(data.t, data.s)
    maps = []
    for kind, ys, zs in (
        (OBJECT, middle.ob_map, p3l_2.ob_map),
        (HCELL, middle.h_map, p3l_2.h_map),
        (VCELL, middle.v_map, p3l_2.v_map),
        (SQUARE, middle.sq_map, p3l_2.sq_map),
    ):
        index = {pair: i for i, pair in enumerate(pairs[kind])}
        maps.append([index[pair] for pair in zip(ys, zs)])
    return StrictDoubleFunctor(p3l, data.p, *maps, name="q")


def nested_composition_functors(data: InternalCategoryData):
    """(left-nested, right-nested) composites of the composition with itself,
    both with domain the left-bracketed triple pullback ((x, y), z):
    m.(m x 1), and m.(x, m(y, z)) through the functor ((x, y), z) |-> (y, z),
    so the right-bracketed pullback is never built.

    Built once per bundle: the result is kept on ``data`` and returned again
    while ``d1``, ``s``, ``t``, ``p``, ``p1``, ``p2`` and ``m`` are the same
    objects.  Reassign a field to change it; a functor's tables edited in
    place would leave the kept composites stale.  Their structure families
    stay lists until one is read: comparing the two builds no dict."""

    def build():
        p3l, p3l_1, p3l_2, m_x_id = _left_bracketed(data)
        id_x_m = _pair_lists(
            data.t, data.s, data.p, _strict_lists(compose_strict(data.p1, p3l_1)),
            _compose_lists(data.m, _strict_lists(_last_two(data, p3l, p3l_1, p3l_2))),
            name="id-x-m.rebracket",  # the name the rebracketing construction gave it
        )
        return _as_pseudo(_compose_lists(data.m, m_x_id)), _as_pseudo(_compose_lists(data.m, id_x_m)), p3l

    return _memoized(data, "nested", ("d1", "s", "t", "p", "p1", "p2", "m"), build)


def unit_sided_functors(data: InternalCategoryData):
    """(u x 1).c and (1 x u).c as endofunctors of the arrow category; kept
    on ``data`` like :func:`nested_composition_functors`, while ``d1``,
    ``s``, ``t``, ``p``, ``u`` and ``m`` are the same objects."""

    def build():
        u_s = compose_pseudo(data.u, pseudo_from_strict(data.s))
        u_t = compose_pseudo(data.u, pseudo_from_strict(data.t))
        ident = identity_pseudo(data.d1)
        left_arm = pair_pseudo_into_pullback(data.t, data.s, data.p, u_t, ident, name="u-x-id")
        right_arm = pair_pseudo_into_pullback(data.t, data.s, data.p, ident, u_s, name="id-x-u")
        return compose_pseudo(data.m, left_arm), compose_pseudo(data.m, right_arm)

    return _memoized(data, "unit-sided", ("d1", "s", "t", "p", "u", "m"), build)


def _whisker_cells_identity(col, prefix, s: StrictDoubleFunctor, a: DoublePNT):
    """Whiskering by the strict functor s must give the identity
    transformation: every component maps to an identity cell."""
    cod, dom = s.cod, a.F.dom
    ob, h, v, sq = s.ob_map, s.h_map, s.v_map, s.sq_map
    # each side reads the first len(r) cells of the range r
    _whole(col, (OBJECT,), range(dom.n_objects),
           (f"{prefix}-components", lambda r: [v[u] for u in a.v0.comp[:len(r)]],
            lambda r: [cod.vid[ob[x]] for x in a.F.ob_map[:len(r)]]),
           (f"{prefix}-components", lambda r: [h[f] for f in a.h1.comp[:len(r)]],
            lambda r: [cod.hid[ob[x]] for x in a.F.ob_map[:len(r)]]))
    # the image of a t-square (an r-square) is the identity on its top (left)
    for kind, n, squares, unit, edge in ((HCELL, len(dom.hcells), a.t, cod.sq_vid, 0),
                                         (VCELL, len(dom.vcells), a.r, cod.sq_hid, 2)):
        _whole(col, (kind,), range(n), (f"{prefix}-squares", lambda r: [sq[x] for x in squares[:len(r)]],
               lambda r: [unit[cod.squares[sq[x]][edge]] for x in squares[:len(r)]]))


def _whisker_modification_identity(col, prefix, s: StrictDoubleFunctor, m: DoubleModification):
    cod, sq = s.cod, s.sq_map
    _whole(col, (OBJECT,), range(m.F.dom.n_objects),
           (f"{prefix}-3cells", lambda r: [sq[x] for x in m.a0[:len(r)]],
            lambda r: [cod.sq_hid[cod.left(sq[x])] for x in m.a0[:len(r)]]),
           (f"{prefix}-3cells", lambda r: [sq[x] for x in m.a1[:len(r)]],
            lambda r: [cod.sq_vid[cod.top(sq[x])] for x in m.a1[:len(r)]]))


def _default(col, name, what, f, g):
    """A comparison left out of the bundle is the identity, which needs its
    two endpoint functors ``f`` and ``g`` to agree: recorded as an
    assumption when they do, else one violation at their first difference."""
    _, witness, lhs, rhs = _first_difference(_cell_map_sections(f, g))
    if witness is None:
        col.assume(f"{what} comparison defaulted to the identity")
    elif col.take(1):
        col.fail(f"{name}-default", witness, lhs, rhs)


def _is_canonical(data: InternalCategoryData, canonical, room):
    """Whether both legs run off ``d1`` and ``p`` is ``canonical`` in its
    first ``room`` entries, compared uncharged as ``pullback-canonical`` is."""
    if not all(same_category(leg.dom, data.d1) for leg in (data.s, data.t)):
        return False
    n, witness, _, _ = _first_difference(_category_sections(data.p, canonical), room)
    return witness is None and n <= room


def check_internal(
    data: InternalCategoryData,
    registry: ComponentRegistry | None = None,
    budget: Budget | None = None,
    deep: bool = True,
) -> AxiomReport:
    """The compatibility block, the whiskering conditions, and the delegated
    checks on every constituent.

    Every law that compares whole structures compares them entry by entry
    (``kernel._compare_entries``) and names its first difference: a cell
    ``(kind, id)``, or a table or structure-cell entry after the name of
    its table, with both values; two functors are compared on their
    domains and codomains first, a difference there named ``dom`` or
    ``cod``.  The legs' strictness, ``pullback_pairs(t, s)`` and the
    canonical ``pullback(t, s)`` are kept once per span, ``replace`` copies
    included (:func:`_span`); where a leg is not strict, the legs'
    ``check_strict_functor`` reports are absorbed (``s: ``, and ``t: `` for
    a distinct ``t``) and nothing else is evaluated.  The bundled pullback
    is compared with the canonical one's cells, then its four tables by key,
    then its identities, and the projections are read off the pairs.  A
    deep check enumerates the laws of ``p`` unless ``arrows: `` passed and
    :func:`_is_canonical` holds: they then hold componentwise in ``d1 x d1``,
    and an assumption says so.  The
    boundaries of ``u`` and ``m``, those of their cell maps and then
    ``structure-boundary`` (``functors._structure_boundaries``), are stated
    once before either is pasted, by the delegated pseudofunctor checks when
    ``deep``; where one fails, the comparisons that would paste them compare
    only their endpoints and nothing later is evaluated.  Each comparison is
    charged once, for the entries up to and including its first difference
    (every entry when it agrees), so under a budget cut only the entries
    that fit are compared."""
    col = Collector("internal-category", budget)
    span = _span(data)
    if span is None:
        for name in ("s",) if data.t is data.s else ("s", "t"):
            col.report.absorb(check_strict_functor(getattr(data, name), budget=col.budget), prefix=f"{name}: ")
        col.assume("remaining compatibilities not evaluated: the span legs did not check out as strict functors")
        return col.done()
    pairs, canonical = span

    if deep:
        col.report.absorb(check_double_category(data.d0, budget=col.budget), prefix="objects: ")
        arrows = check_double_category(data.d1, budget=col.budget)
        col.report.absorb(arrows, prefix="arrows: ")
        if arrows.passed and _is_canonical(data, canonical, col.room()):
            col.assume("pullback laws derived from arrows: and pullback-canonical over strict legs, not enumerated")
        else:
            col.report.absorb(check_double_category(data.p, budget=col.budget), prefix="pullback: ")
        delegated = {name: check_double_pseudo_functor(getattr(data, name), budget=col.budget) for name in ("u", "m")}
        col.report.absorb(delegated["u"], prefix="unit: ")
        col.report.absorb(delegated["m"], prefix="composition: ")

    # the pullback must be the canonical one; everything later is built on
    # top of it, so stop here when it is not (the constituents' violations,
    # absorbed above, say nothing about it)
    found = len(col.report.violations)
    _compare_entries(col, "pullback-canonical", _category_sections(data.p, canonical))
    if len(col.report.violations) > found:
        col.assume("remaining compatibilities not evaluated over a non-canonical pullback")
        return col.done()
    if col.report.status == BUDGET_EXCEEDED:
        # nothing later is evaluated, and its constructions need the pullback
        col.assume("remaining compatibilities not evaluated: the budget ran out before the pullback was verified")
        return col.done()
    q1, q2 = _projections(data.p, data.t.dom, data.s.dom, [pairs[kind] for kind in (OBJECT, HCELL, VCELL, SQUARE)])
    _compare_entries(col, "pullback-projections", _cell_map_sections(data.p1, q1, ("p1",)))
    _compare_entries(col, "pullback-projections", _cell_map_sections(data.p2, q2, ("p2",)))
    if len(col.report.violations) > found:
        col.assume("remaining compatibilities not evaluated over non-canonical projections")
        return col.done()

    # span compatibilities
    _compare_entries(
        col,
        "src-of-second-is-tgt-of-first",
        _cell_map_sections(compose_strict(data.s, data.p2), compose_strict(data.t, data.p1)),
    )
    # the unit and the composition are pasted from here on, so their cell
    # maps and structure cells must keep boundaries first; where they do
    # not, the comparisons that would paste them compare only their
    # endpoints, which need none; so do they where the budget ran out
    # before every boundary was stated.  m's boundaries are stated whether
    # or not u's held
    def keeps_boundaries(name):
        skipped = f"compatibilities that paste {name} not evaluated beyond their endpoints"
        if not deep:
            return _structure_boundaries(col, getattr(data, name), (name,), skipped)
        # the delegated check stated them first; its boundary failures are
        # the cell maps' or else the structure cells'
        report = delegated[name]
        broken = [v.axiom for v in report.violations if v.axiom in _BOUNDARY_LAWS]
        if broken:
            col.assume(f"{skipped}: {'structure cells' if broken[0] == 'structure-boundary' else 'cell images'} have wrong boundaries")
        return not broken and report.status != BUDGET_EXCEEDED

    pastes = all([keeps_boundaries(name) for name in ("u", "m")])

    def leg_after(leg, f, other):
        # the sections of leg . f against ``other``, or their endpoints
        if pastes:
            return _cell_map_sections(compose_pseudo(pseudo_from_strict(leg), f), other)
        return islice(_cell_map_sections(SimpleNamespace(dom=f.dom, cod=leg.cod), other), 2)

    ident0 = identity_pseudo(data.d0)
    for leg, law in ((data.s, "unit-section-s"), (data.t, "unit-section-t")):
        _compare_entries(col, law, leg_after(leg, data.u, ident0))
    for leg, proj, law in ((data.s, data.p1, "src-of-composite"), (data.t, data.p2, "tgt-of-composite")):
        _compare_entries(col, law, leg_after(leg, data.m, pseudo_from_strict(compose_strict(leg, proj))))
    if not pastes:
        return col.done()

    # comparison transformations: endpoints and the whiskering conditions;
    # over damaged data the comparison functors may fail to construct at
    # all, which is itself a violation of the compatibility block
    try:
        left_nested, right_nested, p3l = nested_composition_functors(data)
        lunit_f, runit_f = unit_sided_functors(data)
    except StructureError as e:
        if col.take(1):
            col.fail("comparison-construction", (str(e), *e.witness))
        col.assume("comparison endpoints not evaluated: construction failed")
        return col.done()
    if data.assoc is None:
        _default(col, "assoc", "associativity", left_nested, right_nested)
    else:
        _compare_entries(col, "assoc-endpoints", _cell_map_sections(data.assoc.F, right_nested, ("source",)))
        _compare_entries(col, "assoc-endpoints", _cell_map_sections(data.assoc.G, left_nested, ("target",)))
        if deep:
            col.report.absorb(
                check_double_pnt(data.assoc, registry=registry, budget=col.budget),
                prefix="assoc: ",
            )
        _whisker_cells_identity(col, "whisker-s-assoc", data.s, data.assoc)
        _whisker_cells_identity(col, "whisker-t-assoc", data.t, data.assoc)

    ident1 = identity_pseudo(data.d1)
    for name, alpha, func in (("lunit", data.lunit, lunit_f), ("runit", data.runit, runit_f)):
        if alpha is None:
            _default(col, name, name, func, ident1)
            continue
        _compare_entries(col, f"{name}-endpoints", _cell_map_sections(alpha.F, func, ("source",)))
        _compare_entries(col, f"{name}-endpoints", _cell_map_sections(alpha.G, ident1, ("target",)))
        if deep:
            col.report.absorb(
                check_double_pnt(alpha, registry=registry, budget=col.budget), prefix=f"{name}: "
            )
        _whisker_cells_identity(col, f"whisker-s-{name}", data.s, alpha)
        _whisker_cells_identity(col, f"whisker-t-{name}", data.t, alpha)

    # coherence 3-cells: whiskering conditions when present, a recorded
    # identity assumption when absent
    threecells = [
        ("pentagon-cell", data.pent),
        ("middle-unit-cell", data.mid),
        ("left-unit-cell", data.lft),
        ("right-unit-cell", data.rgt),
        ("unit-compat-cell", data.unit_compat),
    ]
    for name, cell in threecells:
        if cell is None:
            col.assume(f"{name} defaulted to the identity modification")
            continue
        if deep:
            col.report.absorb(check_modification(cell, budget=col.budget), prefix=f"{name}: ")
        _whisker_modification_identity(col, f"whisker-s-{name}", data.s, cell)
        _whisker_modification_identity(col, f"whisker-t-{name}", data.t, cell)
    for label, fn in data.extra_threecell_equations:
        _laws(col, lambda: (label,), [()], (f"extra-{label}", lambda: True, lambda: bool(fn(data))))
    return col.done()


# ---------------------------------------------------------------------------
# derived globular families


@dataclass
class GlobularActionData:
    chi: dict
    delta: dict
    mu: dict
    tau: dict
    chi_p: dict
    delta_p: dict
    mu_p: dict
    tau_p: dict
    left_nested: DoublePseudoFunctor
    right_nested: DoublePseudoFunctor


def derive_globular(data: InternalCategoryData) -> GlobularActionData:
    """The eight one-step globular families of the unit and composition, and
    the nested-composite functors whose structure cells are the derived
    left/right composites."""
    if not (data.u.normalized and data.m.normalized):
        raise StructureError("globular extraction requires normalized unit and composition")
    left_nested, right_nested, _ = nested_composition_functors(data)
    return GlobularActionData(
        chi=dict(data.m.comp_v),
        delta=dict(data.m.unit_v),
        mu=dict(data.u.comp_v),
        tau=dict(data.u.unit_v),
        chi_p=dict(data.m.comp_h),
        delta_p=dict(data.m.unit_h),
        mu_p=dict(data.u.comp_h),
        tau_p=dict(data.u.unit_h),
        left_nested=left_nested,
        right_nested=right_nested,
    )


# ---------------------------------------------------------------------------
# constructors


def _unit_functor(term: DoubleCategory, d: DoubleCategory, unit_ob: int) -> StrictDoubleFunctor:
    return StrictDoubleFunctor(
        term,
        d,
        [unit_ob],
        [d.hid[unit_ob]],
        [d.vid[unit_ob]],
        [d.sq_vid[d.hid[unit_ob]]],
        name="unit",
    )


def _monoid_bundle(monoid) -> InternalCategoryData:
    """The bundle of a tensor-monoid before its comparisons: the terminal
    object part, the carrier as arrow part, both legs the bang, the unit
    object as unit and the induced multiplication as composition."""
    from .graytensor import derive_interleaved_functor

    d = monoid.carrier
    term = terminal_double_category()
    s = t = StrictDoubleFunctor(**vars(_bang(d, term)), name="!")
    p = pullback(t, s)
    p1, p2 = pullback_projections(t, s, p)
    u = pseudo_from_strict(_unit_functor(term, d, monoid.unit_ob))
    return InternalCategoryData(term, d, s, t, u, p, p1, p2, derive_interleaved_functor(monoid, dom=p))


def monoid_to_internal(monoid) -> InternalCategoryData:
    """Internal structure of a tensor-monoid: trivial object part, the
    carrier as arrow part, multiplication as composition, and identity
    comparisons throughout (the strictly associative case)."""
    data = _monoid_bundle(monoid)
    d = data.d1
    left_nested, right_nested, _ = nested_composition_functors(data)
    if not pseudo_equal(left_nested, right_nested):
        raise StructureError(
            "identity associativity comparison requires the two nested composites to agree"
        )
    data.assoc = identity_double(left_nested)
    lunit_f, runit_f = unit_sided_functors(data)
    for func, slot in ((lunit_f, "lunit"), (runit_f, "runit")):
        if not pseudo_equal(func, identity_pseudo(d)):
            raise StructureError("identity unit comparison requires a strictly unital monoid")
    data.lunit = identity_double(identity_pseudo(d))
    data.runit = identity_double(identity_pseudo(d))
    return data


def pseudomonoid_to_internal(monoid, assoc_vertical, conn, dom_conn=None) -> InternalCategoryData:
    """Like :func:`monoid_to_internal` but with a nonidentity associativity
    comparison: a plain vertical transformation between the nested
    composites, traded for a coupled pair through the supplied companions."""
    from .companion import vertical_transformation_to_double

    data = _monoid_bundle(monoid)
    d = data.d1
    left_nested, right_nested, _ = nested_composition_functors(data)
    if not (pseudo_equal(assoc_vertical.F, right_nested) and pseudo_equal(assoc_vertical.G, left_nested)):
        raise StructureError("associativity comparison must run from the right-nested composite")
    dd, _, corr = vertical_transformation_to_double(assoc_vertical, conn, dom_conn=dom_conn)
    if not corr.passed:
        raise StructureError("companion correspondences failed: " + corr.summary())
    data.assoc = dd
    data.lunit = identity_double(identity_pseudo(d))
    data.runit = identity_double(identity_pseudo(d))
    return data


# ---------------------------------------------------------------------------
# weak structures from hom-data


def internalize_bicategory(b: Bicategory) -> PseudoDoubleCategory:
    """Pseudo double category with discrete object part: hcells the 1-cells,
    squares the 2-cells placed vertically globular, constraints inherited.
    The body of :func:`kernel.embed_two_category`, without its strictness
    gate."""
    return _embedding(
        b, PseudoDoubleCategory, assoc=b.assoc, assoc_inv=b.assoc_inv,
        lunit=b.lunit, lunit_inv=b.lunit_inv, runit=b.runit, runit_inv=b.runit_inv,
    )


def _leg(objects, ob_map, v_map=()):
    """A strict functor into the discrete double category ``objects``,
    duck-typed as :func:`kernel._bang` is, as far as
    :func:`kernel.pullback_pairs` reads it: the object and vcell maps
    ``ob_map`` and ``v_map``, and no hcell or square."""
    return SimpleNamespace(cod=objects, ob_map=ob_map, h_map=(), v_map=v_map, sq_map=())


def _coproduct(homs, length):
    """The coproduct, over the chains of ``length`` composable hom-sets, of
    their products, as tuples of cells; ``homs`` maps ``(source, target)``
    to the cells of that hom-set."""
    chains = [[key] for key in homs]
    for _ in range(length - 1):
        chains = [chain + [key] for chain in chains for key in homs if key[0] == chain[-1][1]]
    return [cells for chain in chains for cells in product(*(homs[key] for key in chain))]


def check_coproduct_pullback(b: Bicategory, budget: Budget | None = None) -> AxiomReport:
    """At the category level, the disjoint union of hom-pair (and hom-triple)
    sets is in canonical bijection with the pullback (and both bracketed
    triple pullbacks) of the arrow part over the discrete object part.

    The pullback side is :func:`kernel.pullback_pairs` of the source and
    target legs (``_leg``) of the arrow part, whose objects are the 1-cells
    and whose vcells are the 2-cells; the bracketed triples are the pairs of
    the legs after the pair projections, rebracketed as by
    :func:`reindex_triples`.  The coproduct side is read hom-set by hom-set.
    The constructor's checks run first again, so fields reassigned since
    construction raise its StructureError."""
    b._validate()
    b._validate_bicategory()
    col = Collector("coproduct-pullback", budget)
    objects = SimpleNamespace()  # the discrete object part, read only as the legs' codomain
    s1, t1 = _columns(b.onecells, 2)
    ends = [b.onecells[f] for f, _ in b.twocells]  # the hom-set of each 2-cell
    s, t = _leg(objects, s1, [a for a, _ in ends]), _leg(objects, t1, [c for _, c in ends])
    pairs = pullback_pairs(t, s)
    homs = _by(b.onecells)
    cell_pairs, twocell_pairs = _coproduct(homs, 2), _coproduct(_by(ends), 2)
    _laws(col, lambda: ("n=2",), [()],
          ("pair-object-count", lambda: len(cell_pairs), lambda: len(pairs[OBJECT])),
          ("pair-object-bijection", lambda: True, lambda: sorted(cell_pairs) == sorted(pairs[OBJECT])),
          ("pair-object-injective", lambda: True, lambda: len(set(cell_pairs)) == len(cell_pairs)),
          ("pair-morphism-count", lambda: len(twocell_pairs), lambda: len(pairs[VCELL])),
          ("pair-morphism-bijection", lambda: True, lambda: sorted(twocell_pairs) == sorted(pairs[VCELL])))

    # the legs after the pair projections, on objects
    left = pullback_pairs(_leg(objects, [t1[g] for _, g in pairs[OBJECT]]), s)[OBJECT]  # ((f, g), h)
    right = pullback_pairs(t, _leg(objects, [s1[f] for f, _ in pairs[OBJECT]]))[OBJECT]  # (f, (g, h))
    triples = _coproduct(homs, 3)
    rebracket = _rebracket(left, pairs[OBJECT], right)
    _laws(col, lambda: ("n=3",), [()],
          ("triple-count", lambda: len(left), lambda: len(right)),
          ("triple-count", lambda: len(triples), lambda: len(left)),
          ("triple-bijection", lambda: True, lambda: (
              None not in rebracket and sorted(rebracket) == list(range(len(right)))
          )))
    col.assume(
        "comparison cells kappa/zeta/xi and the prism and cylinder 3-cells are "
        "canonical identities at this level"
    )
    return col.done()


def check_enriched_over_cat(b: Bicategory, budget: Budget | None = None) -> AxiomReport:
    """Hom-data as enrichment in categories: the hom laws of
    :func:`weak.check_bicategory` (``weak._hom_laws``) under the
    enrichment's names, each hom-category associative and unital
    (``hom-category``), composition a functor, preserving identity 2-cells
    and interchanging with vertical composition (``composition-functor``),
    the associator and unitor cells invertible against their stored
    inverses (``constraint-equivalence``, after ``inverse-boundary``); then
    the pentagon and the triangle.  The constraints' naturality is not
    stated."""
    col = Collector("enriched-over-categories", budget)
    _hom_laws(col, b, ("hom-category",) * 2 + ("composition-functor",) * 2 + ("constraint-equivalence",) * 3)
    _pentagon_triangle(col, b)
    return col.done()


def diagonal_internal(d: DoubleCategory) -> InternalCategoryData:
    """The identity span on d: both legs the identity, the pullback the
    diagonal, composition the (common) projection.  The smallest bundle with
    a nontrivial object part, which the mutation tests lean on."""
    from .functors import identity_functor

    ident = identity_functor(d)
    p = pullback(ident, ident)
    p1, p2 = pullback_projections(ident, ident, p)
    data = InternalCategoryData(
        d,
        d,
        ident,
        ident,
        pseudo_from_strict(identity_functor(d)),
        p,
        p1,
        p2,
        pseudo_from_strict(p1),
    )
    left_nested, right_nested, _ = nested_composition_functors(data)
    if not pseudo_equal(left_nested, right_nested):
        raise StructureError("diagonal composites must agree")
    data.assoc = identity_double(left_nested)
    lunit_f, runit_f = unit_sided_functors(data)
    data.lunit = identity_double(lunit_f)
    data.runit = identity_double(runit_f)
    return data
