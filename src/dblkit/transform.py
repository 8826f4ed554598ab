"""Pseudonatural transformations between double pseudofunctors.

Four flavours live here.  A horizontal transformation has hcell components
and, per hcell f of the domain, an invertible comparison square

    delta[f] : F(f).alpha(B)  =>  alpha(A).G(f)        (vertically globular)

next to the naturality square ``nat[u]`` at each vcell.  A vertical
transformation is a horizontal one between the transposed functors.
Transposition (``kernel.transpose``, ``functors.transpose_pseudo``) trades
hcells for vcells and ``hpaste`` for ``vpaste``, and swaps each structure-cell
family of a functor with the inverse of its mirror: ``comp_h`` with
``comp_v_inv``, ``comp_h_inv`` with ``comp_v``, ``unit_h`` with ``unit_v_inv``
and ``unit_h_inv`` with ``unit_v``.  So the horizontal formulas hold on the
transpose on the nose, and every vertical check and construction here is the
horizontal one run on the transposed data, its result transposed back.  A
coupled transformation glues one of each along two extra square families

    t[f] : (F(f).alpha1(B)  =>  G(f))   with left side alpha0(A)
    r[u] : (alpha1(A) => 1)             with left side F(u);alpha0(A')

and transposition swaps the two legs and t with r, so the r-side of every
coupled check and construction is its t-side on the transpose.  A theta
transformation generates t and r from a single square per object.  All
composites below are eager pastings into the codomain's tables; they fail
loudly on any boundary mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from .kernel import (
    HCELL,
    OBJECT,
    SQUARE,
    VCELL,
    DoubleCategory,
    StructureError,
    _check_ids,
    _check_index,
    _invertibility,
    _laws,
    _whole,
    _vertical,
    same_category,
    transpose,
)
from .functors import DoublePseudoFunctor, compose_pseudo, conj_v, identity_pseudo, pseudo_equal, transpose_pseudo
from .report import AxiomReport, Budget, Collector, Violation, live_axioms


@dataclass
class _PNT:
    F: DoublePseudoFunctor
    G: DoublePseudoFunctor
    comp: tuple  # per object: a component cell F(A) -> G(A)
    nat: tuple  # per cell of the other direction: a naturality square
    delta: tuple  # per cell of the components' direction: a globular comparison square
    delta_inv: dict = field(default_factory=dict)  # optional stored inverses

    def __post_init__(self):
        self.comp = tuple(self.comp)
        self.nat = tuple(self.nat)
        self.delta = tuple(self.delta)
        _check_pnt_boundaries(self, horizontal=isinstance(self, HorizontalPNT))

    @property
    def strong(self) -> bool:
        return set(self.delta_inv) == set(range(len(self.delta)))


@dataclass
class HorizontalPNT(_PNT):
    """Horizontal pseudonatural transformation F => G: an hcell ``comp[A]``
    per object, a square ``nat[u]`` (top comp[A], bottom comp[A'], left
    F(u), right G(u)) per vcell u, and a vertically globular square
    ``delta[f]`` : F(f).comp[B] => comp[A].G(f) per hcell f."""


@dataclass
class VerticalPNT(_PNT):
    """Vertical pseudonatural transformation F => G, the transpose flavour:
    a vcell ``comp[A]`` per object, a square ``nat[f]`` (top F(f), bottom
    G(f), left comp[A], right comp[B]) per hcell f, and a horizontally
    globular square ``delta[u]`` : F(u);comp[A'] => comp[A];G(u) per vcell u."""


def _check_pnt_boundaries(a, horizontal: bool):
    F, G = a.F, a.G
    if not (same_category(F.dom, G.dom) and same_category(F.cod, G.cod)):
        raise StructureError("transformation endpoints must be parallel functors")
    dom, cod = F.dom, F.cod
    if len(a.comp) != dom.n_objects:
        raise StructureError("one component per object required")
    if horizontal:
        if len(a.nat) != len(dom.vcells) or len(a.delta) != len(dom.hcells):
            raise StructureError("missing component for some cell")
        _check_ids(a.comp, cod.hcells, ((F.ob(o), G.ob(o)) for o in range(dom.n_objects)), "component at object {}")
        _check_ids(a.nat, cod.squares, ((a.comp[A], a.comp[B], F.v(u), G.v(u)) for u, (A, B) in enumerate(dom.vcells)),
                   "naturality square at vcell {}")
        _check_ids(a.delta, cod.squares, ((cod.hcomp(F.h(f), a.comp[B]), cod.hcomp(a.comp[A], G.h(f)), cod.vid[F.ob(A)],
                                           cod.vid[G.ob(B)]) for f, (A, B) in enumerate(dom.hcells)),
                   "comparison square at hcell {}")
        for f, s in enumerate(a.delta):
            t, b, l, r = cod.squares[s]
            inv = a.delta_inv.get(f)
            if inv is None:
                continue
            _check_index(inv, len(cod.squares), f"comparison inverse at hcell {f}")
            if cod.squares[inv] != (b, t, l, r):
                raise StructureError(f"comparison inverse at hcell {f} has wrong boundary")
    else:
        if len(a.nat) != len(dom.hcells) or len(a.delta) != len(dom.vcells):
            raise StructureError("missing component for some cell")
        _check_ids(a.comp, cod.vcells, ((F.ob(o), G.ob(o)) for o in range(dom.n_objects)), "component at object {}")
        _check_ids(a.nat, cod.squares, ((F.h(f), G.h(f), a.comp[A], a.comp[B]) for f, (A, B) in enumerate(dom.hcells)),
                   "naturality square at hcell {}")
        _check_ids(a.delta, cod.squares, ((cod.hid[F.ob(A)], cod.hid[G.ob(B)], cod.vcomp(F.v(u), a.comp[B]),
                                           cod.vcomp(a.comp[A], G.v(u))) for u, (A, B) in enumerate(dom.vcells)),
                   "comparison square at vcell {}")
        for u, s in enumerate(a.delta):
            t, b, l, r = cod.squares[s]
            inv = a.delta_inv.get(u)
            if inv is None:
                continue
            _check_index(inv, len(cod.squares), f"comparison inverse at vcell {u}")
            if cod.squares[inv] != (t, b, r, l):
                raise StructureError(f"comparison inverse at vcell {u} has wrong boundary")
    cells = range(len(a.delta))
    stray = [key for key in a.delta_inv if key not in cells]
    if stray:
        raise StructureError(f"comparison inverse keyed by {stray[0]!r}, which is no {'hcell' if horizontal else 'vcell'}")


# ---------------------------------------------------------------------------
# identities and transposition


def identity_horizontal(F: DoublePseudoFunctor) -> HorizontalPNT:
    cod, dom = F.cod, F.dom
    return HorizontalPNT(
        F,
        F,
        [cod.hid[F.ob(a)] for a in range(dom.n_objects)],
        [cod.sq_hid[F.v(u)] for u in range(len(dom.vcells))],
        [cod.sq_vid[F.h(f)] for f in range(len(dom.hcells))],
        {f: cod.sq_vid[F.h(f)] for f in range(len(dom.hcells))},
    )


def identity_vertical(F: DoublePseudoFunctor) -> VerticalPNT:
    cod, dom = F.cod, F.dom
    return VerticalPNT(
        F,
        F,
        [cod.vid[F.ob(a)] for a in range(dom.n_objects)],
        [cod.sq_vid[F.h(f)] for f in range(len(dom.hcells))],
        [cod.sq_hid[F.v(u)] for u in range(len(dom.vcells))],
        {u: cod.sq_hid[F.v(u)] for u in range(len(dom.vcells))},
    )


class _TransposedContext:
    """The transposes of the pieces of one call: categories, functors,
    transformations and coupled or theta pairs.  Each piece is transposed
    at most once and mapped both ways, so transposing a result back lands on
    the caller's own objects."""

    def __init__(self):
        self._seen = {}

    def __call__(self, x):
        t = self._seen.get(id(x))
        if t is None:
            t = self._transpose(x)
            self._seen[id(x)] = t
            self._seen[id(t)] = x
        return t

    def _transpose(self, x):
        if isinstance(x, DoubleCategory):
            return transpose(x)
        if isinstance(x, DoublePseudoFunctor):
            return transpose_pseudo(x, self(x.dom), self(x.cod))
        if isinstance(x, _PNT):
            flavour = VerticalPNT if isinstance(x, HorizontalPNT) else HorizontalPNT
            return flavour(self(x.F), self(x.G), x.comp, x.nat, x.delta, dict(x.delta_inv))
        if isinstance(x, ThetaPNT):
            return ThetaPNT(self(x.h1), self(x.v0), x.theta)
        return DoublePNT(self(x.h1), self(x.v0), x.r, x.t)


def _mirror(op, *args):
    """``op``, written for horizontal transformations, on vertical ones: run
    on the transposed arguments, its result transposed back."""
    tr = _TransposedContext()
    return tr(op(*map(tr, args)))


def _remap_transposed_witness(report: AxiomReport, start: int = 0) -> AxiomReport:
    """Name the witnesses of the violations from ``start`` on, found on the
    transpose, in the caller's directions: hcells and vcells trade kinds."""
    swap = {HCELL: VCELL, VCELL: HCELL}
    for i in range(start, len(report.violations)):
        v = report.violations[i]
        witness = []
        for w in v.witness:
            if isinstance(w, tuple) and len(w) == 2:
                w = (swap.get(w[0], w[0]), w[1])
            witness.append(w)
        report.violations[i] = Violation(v.axiom, tuple(witness), v.lhs, v.rhs)
    return report


def _on_transpose(col, check, *args):
    """``check(col, *args)`` on transposed data, naming its witnesses in the
    caller's directions."""
    start = len(col.report.violations)
    check(col, *args)
    _remap_transposed_witness(col.report, start)


# ---------------------------------------------------------------------------
# the horizontal checker (the vertical one runs through transposition)

HORIZONTAL_PNT_AXIOMS = (
    "pnt-naturality",
    "pnt-vcomp",
    "pnt-vunit",
    "pnt-hcomp-delta",
    "pnt-hunit-delta",
    "delta-invertibility",
)


def check_horizontal_pnt(a: HorizontalPNT, budget: Budget | None = None, axioms=None) -> AxiomReport:
    live = live_axioms(HORIZONTAL_PNT_AXIOMS, axioms)
    col = Collector("horizontal-transformation", budget)
    F, G = a.F, a.G
    dom, cod = F.dom, F.cod

    hp, vp, vcol, sq_vid = cod.hpaste, cod.vpaste, cod.vcol, cod.sq_vid
    if "pnt-naturality" in live:
        # squares of the domain slide through the components via delta
        _laws(col, (SQUARE,), [(s, *bnd) for s, bnd in enumerate(dom.squares)], (
            "pnt-naturality",
            lambda s, t, b, l, r: vp(hp(F.sq(s), a.nat[r]), a.delta[b]),
            lambda s, t, b, l, r: vp(a.delta[t], hp(a.nat[l], G.sq(s))),
        ))
    if "pnt-vcomp" in live:
        _laws(col, (VCELL, VCELL), sorted(dom.vcomp1), (
            "pnt-vcomp",
            lambda u, v: hp(F.comp_v[(u, v)], a.nat[dom.vcomp(u, v)]),
            lambda u, v: hp(vp(a.nat[u], a.nat[v]), G.comp_v[(u, v)]),
        ))
    objects = [(o,) for o in range(dom.n_objects)]
    if "pnt-vunit" in live:
        _laws(col, (OBJECT,), objects, (
            "pnt-vunit",
            lambda o: hp(F.unit_v[o], a.nat[dom.vid[o]]),
            lambda o: hp(sq_vid[a.comp[o]], G.unit_v[o]),
        ))
    if "pnt-hcomp-delta" in live:
        _laws(col, (HCELL, HCELL), sorted(dom.hcomp1), (
            "pnt-hcomp-delta",
            lambda f, g: a.delta[dom.hcomp(f, g)],
            lambda f, g: vcol(
                hp(F.comp_h[(f, g)], sq_vid[a.comp[dom.ht(g)]]),
                hp(sq_vid[F.h(f)], a.delta[g]),
                hp(a.delta[f], sq_vid[G.h(g)]),
                hp(sq_vid[a.comp[dom.hs(f)]], G.comp_h_inv[(f, g)]),
            ),
        ))
    if "pnt-hunit-delta" in live:
        _laws(col, (OBJECT,), objects, (
            "pnt-hunit-delta",
            lambda o: vcol(
                hp(F.unit_h_inv[o], sq_vid[a.comp[o]]), a.delta[dom.hid[o]], hp(sq_vid[a.comp[o]], G.unit_h[o])
            ),
            lambda o: sq_vid[a.comp[o]],
        ))
    if "delta-invertibility" in live:
        _delta_invertibility(col, a, sorted(a.delta_inv), "delta-invertibility")
    return col.done()


def _delta_invertibility(col, a: HorizontalPNT, hcells, law: str):
    """The comparison square of ``a`` at each of ``hcells`` has its stored
    inverse on both sides; a missing inverse is a violation, charged as one
    instance.  The hcells are taken in runs with and without an inverse."""
    for stored, run in groupby(hcells, lambda f: a.delta_inv.get(f) is not None):
        run = list(run)
        if stored:
            _invertibility(col, law, (HCELL,), {f: a.delta[f] for f in run}, a.delta_inv, *_vertical(a.F.cod))
        else:
            for f in run[:col.take(len(run))]:
                col.fail(law, ((HCELL, f),))


def check_vertical_pnt(a: VerticalPNT, budget: Budget | None = None, axioms=None) -> AxiomReport:
    """The horizontal checker on the transpose."""
    rep = check_horizontal_pnt(_TransposedContext()(a), budget=budget, axioms=axioms)
    rep.subject = "vertical-transformation"
    return _remap_transposed_witness(rep)


# ---------------------------------------------------------------------------
# whiskering by a functor and the four composition laws


def whisker_functor(H: DoublePseudoFunctor, a: HorizontalPNT) -> HorizontalPNT:
    """Postcompose a horizontal transformation with a pseudofunctor H.

    Components map through H; the comparison square conjugates H's image of
    delta by H's composition and vertical-unit cells."""
    if not same_category(a.F.cod, H.dom):
        raise StructureError("whiskering functor does not start at the transformation's codomain")
    F, G = a.F, a.G
    dom = F.dom
    cod = H.cod
    comp = [H.h(a.comp[o]) for o in range(dom.n_objects)]
    nat = [H.sq(a.nat[u]) for u in range(len(dom.vcells))]
    delta = []
    delta_inv = {}
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        middle = conj_v(H, a.delta[f])
        delta.append(
            cod.vcol(
                H.comp_h_inv[(F.h(f), a.comp[B])],
                middle,
                H.comp_h[(a.comp[A], G.h(f))],
            )
        )
        inv = a.delta_inv.get(f)
        if inv is not None:
            delta_inv[f] = cod.vcol(
                H.comp_h_inv[(a.comp[A], G.h(f))],
                conj_v(H, inv),
                H.comp_h[(F.h(f), a.comp[B])],
            )
    return HorizontalPNT(compose_pseudo(H, F), compose_pseudo(H, G), comp, nat, delta, delta_inv)


def whisker_functor_vertical(H: DoublePseudoFunctor, a: VerticalPNT) -> VerticalPNT:
    """Transpose flavour of :func:`whisker_functor`."""
    return _mirror(whisker_functor, H, a)


def hcomp_horizontal(b: HorizontalPNT, a: HorizontalPNT) -> HorizontalPNT:
    """Side-by-side composite of a: F => G (into the domain of b) with
    b: F' => G'; component at A is F'(a(A)) then b(G(A))."""
    if not same_category(a.F.cod, b.F.dom):
        raise StructureError("transformations not horizontally composable")
    F, G, Fp, Gp = a.F, a.G, b.F, b.G
    dom = F.dom
    cod = Fp.cod
    wa = whisker_functor(Fp, a)
    comp = [cod.hcomp(wa.comp[o], b.comp[G.ob(o)]) for o in range(dom.n_objects)]
    nat = [
        cod.hpaste(wa.nat[u], b.nat[G.v(u)])
        for u in range(len(dom.vcells))
    ]
    delta = []
    delta_inv = {}
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        row1 = cod.hpaste(wa.delta[f], cod.sq_vid[b.comp[G.ob(B)]])
        row2 = cod.hpaste(cod.sq_vid[wa.comp[A]], b.delta[G.h(f)])
        delta.append(cod.vpaste(row1, row2))
        inv_a = wa.delta_inv.get(f)
        inv_b = b.delta_inv.get(G.h(f))
        if inv_a is not None and inv_b is not None:
            delta_inv[f] = cod.vpaste(
                cod.hpaste(cod.sq_vid[wa.comp[A]], inv_b),
                cod.hpaste(inv_a, cod.sq_vid[b.comp[G.ob(B)]]),
            )
    return HorizontalPNT(compose_pseudo(Fp, F), compose_pseudo(Gp, G), comp, nat, delta, delta_inv)


def hcomp_vertical(b: VerticalPNT, a: VerticalPNT) -> VerticalPNT:
    """Transpose flavour of :func:`hcomp_horizontal`."""
    return _mirror(hcomp_horizontal, b, a)


def vcomp_horizontal(a: HorizontalPNT, b: HorizontalPNT) -> HorizontalPNT:
    """Stacked composite a then b of a: F => G, b: G => H.  Strictly
    associative and unital with the identity transformation."""
    if not pseudo_equal(a.G, b.F):
        raise StructureError("transformations not vertically composable")
    F, H = a.F, b.G
    dom, cod = F.dom, F.cod
    comp = [cod.hcomp(a.comp[o], b.comp[o]) for o in range(dom.n_objects)]
    nat = [cod.hpaste(a.nat[u], b.nat[u]) for u in range(len(dom.vcells))]
    delta = []
    delta_inv = {}
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        delta.append(
            cod.vpaste(
                cod.hpaste(a.delta[f], cod.sq_vid[b.comp[B]]),
                cod.hpaste(cod.sq_vid[a.comp[A]], b.delta[f]),
            )
        )
        inv_a, inv_b = a.delta_inv.get(f), b.delta_inv.get(f)
        if inv_a is not None and inv_b is not None:
            delta_inv[f] = cod.vpaste(
                cod.hpaste(cod.sq_vid[a.comp[A]], inv_b),
                cod.hpaste(inv_a, cod.sq_vid[b.comp[B]]),
            )
    return HorizontalPNT(F, H, comp, nat, delta, delta_inv)


def vcomp_vertical(a: VerticalPNT, b: VerticalPNT) -> VerticalPNT:
    """Transpose flavour of :func:`vcomp_horizontal`."""
    return _mirror(vcomp_horizontal, a, b)


# ---------------------------------------------------------------------------
# coupled pairs (the 2-cells of the ambient three-layer structure)


@dataclass
class DoublePNT:
    """Quadruple (v0, h1, t, r): a vertical and a horizontal transformation
    between the same functors, coupled by two extra square families."""

    v0: VerticalPNT
    h1: HorizontalPNT
    t: tuple  # per hcell f
    r: tuple  # per vcell u

    def __post_init__(self):
        self.t = tuple(self.t)
        self.r = tuple(self.r)
        if not (pseudo_equal(self.v0.F, self.h1.F) and pseudo_equal(self.v0.G, self.h1.G)):
            raise StructureError("the two legs must share their endpoint functors")
        F, G = self.F, self.G
        dom, cod = F.dom, F.cod
        if len(self.t) != len(dom.hcells) or len(self.r) != len(dom.vcells):
            raise StructureError("missing coupling square for some cell")
        _check_ids(self.t, cod.squares, ((cod.hcomp(F.h(f), self.h1.comp[B]), G.h(f), self.v0.comp[A], cod.vid[G.ob(B)])
                                          for f, (A, B) in enumerate(dom.hcells)), "t-square at hcell {}")
        _check_ids(self.r, cod.squares, ((self.h1.comp[A], cod.hid[G.ob(B)], cod.vcomp(F.v(u), self.v0.comp[B]), G.v(u))
                                          for u, (A, B) in enumerate(dom.vcells)), "r-square at vcell {}")

    @property
    def F(self):
        return self.v0.F

    @property
    def G(self):
        return self.v0.G


@dataclass
class ThetaPNT:
    """Pair of transformations generated by one square per object,

        theta[A] : (alpha1(A) => 1)  with left side alpha0(A),

    from which the coupling squares of a DoublePNT are pasted."""

    v0: VerticalPNT
    h1: HorizontalPNT
    theta: tuple  # per object

    def __post_init__(self):
        self.theta = tuple(self.theta)
        if not (pseudo_equal(self.v0.F, self.h1.F) and pseudo_equal(self.v0.G, self.h1.G)):
            raise StructureError("the two legs must share their endpoint functors")
        F, G = self.v0.F, self.v0.G
        dom, cod = F.dom, F.cod
        if len(self.theta) != dom.n_objects:
            raise StructureError("one generating square per object required")
        _check_ids(self.theta, cod.squares, ((self.h1.comp[o], cod.hid[G.ob(o)], self.v0.comp[o], cod.vid[G.ob(o)])
                                              for o in range(dom.n_objects)), "generating square at object {}")


@dataclass(frozen=True)
class ComponentRegistry:
    """Which domain cells count as components of transformations in play.

    The invertibility requirement on comparison squares quantifies over
    exactly these cells; the caller supplies them because only the caller
    knows which transformations exist in the ambient situation."""

    hcells: frozenset = frozenset()
    vcells: frozenset = frozenset()

    @classmethod
    def of(cls, hcells=(), vcells=()):
        return cls(frozenset(hcells), frozenset(vcells))

    def transposed(self):
        return ComponentRegistry(self.vcells, self.hcells)


def identity_double(F: DoublePseudoFunctor) -> DoublePNT:
    cod, dom = F.cod, F.dom
    return DoublePNT(
        identity_vertical(F),
        identity_horizontal(F),
        [cod.sq_vid[F.h(f)] for f in range(len(dom.hcells))],
        [cod.sq_hid[F.v(u)] for u in range(len(dom.vcells))],
    )


def transpose_double(a, ctx: _TransposedContext | None = None):
    """The transpose of a coupled or theta pair: its legs trade places and
    transpose, and so do t and r."""
    return (ctx or _TransposedContext())(a)


# every law name a check_double_pnt report can carry: the coupling laws,
# their r-side twins (the t-side laws on the transpose) and the leg laws
DOUBLE_PNT_AXIOMS = (
    "component-invertibility",
    "coupling-naturality-t",
    "coupling-naturality-r",
    "coupling-hcomp-t",
    "coupling-hcomp-r",
    "coupling-composite-t",
    "coupling-composite-r",
) + tuple(f"{leg}: {law}" for leg in ("v0", "h1") for law in HORIZONTAL_PNT_AXIOMS)


def _check_legs(col, a, at):
    """The leg checks of a coupled or theta pair ``a``; its transpose ``at``
    carries the v0 leg as a horizontal one."""
    col.report.absorb(_remap_transposed_witness(check_horizontal_pnt(at.h1, budget=col.budget)), prefix="v0: ")
    col.report.absorb(check_horizontal_pnt(a.h1, budget=col.budget), prefix="h1: ")


def _t_composite(a: DoublePNT, f, g):
    """The t-square of f.g pasted from v0's naturality square at f, t[g] and
    the functors' composition cells."""
    F, G = a.F, a.G
    cod = F.cod
    return cod.vcol(
        cod.hpaste(F.comp_h[(f, g)], cod.sq_vid[a.h1.comp[F.dom.ht(g)]]),
        cod.hpaste(a.v0.nat[f], a.t[g]),
        G.comp_h_inv[(f, g)],
    )


def _check_t_side(col, a: DoublePNT, suffix: str):
    """The t-side coupling axioms; the r-side is this on the transpose."""
    F, G = a.F, a.G
    dom, cod = F.dom, F.cod
    v0, h1, t = a.v0, a.h1, a.t
    hp, vp, sq_vid = cod.hpaste, cod.vpaste, cod.sq_vid
    _laws(col, (SQUARE,), [(s, *bnd) for s, bnd in enumerate(dom.squares)], (
        f"coupling-naturality-{suffix}",
        lambda s, t_, b_, l_, r_: vp(hp(F.sq(s), h1.nat[r_]), t[b_]),
        lambda s, t_, b_, l_, r_: hp(v0.delta[l_], vp(t[t_], G.sq(s))),
    ))
    pairs = sorted(dom.hcomp1)
    _laws(col, (HCELL, HCELL), pairs, (
        f"coupling-hcomp-{suffix}",
        lambda f, g: vp(hp(sq_vid[F.h(f)], h1.delta[g]), hp(t[f], sq_vid[G.h(g)])),
        lambda f, g: hp(v0.nat[f], t[g]),
    ))
    _laws(col, (HCELL, HCELL), pairs, (
        f"coupling-composite-{suffix}",
        lambda f, g: t[dom.hcomp(f, g)],
        lambda f, g: _t_composite(a, f, g),
    ))


def check_double_pnt(
    a: DoublePNT,
    registry: ComponentRegistry | None = None,
    budget: Budget | None = None,
) -> AxiomReport:
    """All coupling axioms plus the two delegated leg checks.

    Without a registry the invertibility-at-components requirement cannot be
    evaluated; the report then carries a recorded assumption and the
    ``inconclusive`` status rather than passing silently.

    The t-composites over the two bracketings of a triple (x, y, z) agree
    without a law of their own: where ``coupling-composite-t`` holds at
    (x;y, z) and at (x, y;z) they are ``t[(x;y);z]`` and ``t[x;(y;z)]``,
    one square by the premise ``hcomp1-associativity`` of ``a.F.dom``,
    which ``check_double_category`` states."""
    col = Collector("double-transformation", budget)
    at = transpose_double(a)
    _check_legs(col, a, at)
    if registry is None:
        col.assume("component-invertibility skipped: no component registry supplied")
        col.inconclusive()
    else:
        _delta_invertibility(col, a.h1, sorted(registry.hcells), "component-invertibility")
        _on_transpose(col, _delta_invertibility, at.h1, sorted(registry.vcells), "component-invertibility")
    _check_t_side(col, a, "t")
    _on_transpose(col, _check_t_side, at, "r")
    return col.done()


# ---------------------------------------------------------------------------
# theta-generated transformations


def _theta_slide(col, th: ThetaPNT, law: str):
    """The generating squares slide along every hcell; the slide along the
    vcells is this on the transpose."""
    F, G = th.v0.F, th.v0.G
    dom, cod = F.dom, F.cod
    _laws(col, (HCELL,), [(f,) for f in range(len(dom.hcells))], (
        law,
        lambda f: cod.hpaste(th.v0.nat[f], th.theta[dom.ht(f)]),
        lambda f: cod.vpaste(th.h1.delta[f], cod.hpaste(th.theta[dom.hs(f)], cod.sq_vid[G.h(f)])),
    ))


def check_theta(
    th: ThetaPNT,
    registry: ComponentRegistry | None = None,
    budget: Budget | None = None,
) -> AxiomReport:
    col = Collector("theta-transformation", budget)
    tht = transpose_double(th)
    _check_legs(col, th, tht)
    if registry is None:
        col.assume("component-invertibility skipped: no component registry supplied")
        col.inconclusive()
    else:
        for leg, cells, kind in ((th.h1, registry.hcells, HCELL), (th.v0, registry.vcells, VCELL)):
            for x in sorted(cells):
                if leg.delta_inv.get(x) is None and col.take(1):
                    col.fail("component-invertibility", ((kind, x),))
    _theta_slide(col, th, "theta-slide-h")
    _on_transpose(col, _theta_slide, tht, "theta-slide-v")
    return col.done()


def _theta_t(th: ThetaPNT):
    """The t-squares generated by the theta squares."""
    dom, cod = th.v0.F.dom, th.v0.F.cod
    return [cod.hpaste(th.v0.nat[f], th.theta[dom.ht(f)]) for f in range(len(dom.hcells))]


def theta_to_double(th: ThetaPNT) -> DoublePNT:
    """Expand the generating squares into the two coupling families."""
    return DoublePNT(th.v0, th.h1, _theta_t(th), _theta_t(transpose_double(th)))


def identity_theta(F: DoublePseudoFunctor) -> ThetaPNT:
    cod, dom = F.cod, F.dom
    return ThetaPNT(
        identity_vertical(F),
        identity_horizontal(F),
        [cod.sq_vid[cod.hid[F.ob(o)]] for o in range(dom.n_objects)],
    )


def theta_candidates_from_double(a: DoublePNT):
    """The two reverse candidates: generating squares pasted from the
    coupling squares at identity cells.  They satisfy the two slide laws but
    need not agree with each other, which is exactly why not every coupled
    pair is theta-generated."""
    return _theta_candidate(a), _theta_candidate(transpose_double(a))


def _theta_candidate(a: DoublePNT):
    """The generating squares pasted from the t-squares at identity hcells."""
    F, G = a.F, a.G
    dom, cod = F.dom, F.cod
    return [
        cod.vcol(cod.hpaste(F.unit_h_inv[o], cod.sq_vid[a.h1.comp[o]]), a.t[dom.hid[o]], G.unit_h[o])
        for o in range(dom.n_objects)
    ]


def hcomp_theta(b: ThetaPNT, a: ThetaPNT) -> ThetaPNT:
    """Side-by-side composite of theta-generated transformations."""
    if not same_category(a.v0.F.cod, b.v0.F.dom):
        raise StructureError("transformations not horizontally composable")
    Fp, Gp = b.v0.F, b.v0.G
    G = a.v0.G
    dom = a.v0.F.dom
    cod = Fp.cod
    h1 = hcomp_horizontal(b.h1, a.h1)
    v0 = hcomp_vertical(b.v0, a.v0)
    theta = []
    for o in range(dom.n_objects):
        go = G.ob(o)
        x = cod.vcol(
            cod.hpaste(Fp.sq(a.theta[o]), Fp.unit_v_inv[go]),
            Fp.unit_h[go],
        )
        theta.append(
            cod.vpaste(
                cod.hpaste(x, cod.sq_vid[b.h1.comp[go]]),
                b.theta[go],
            )
        )
    return ThetaPNT(v0, h1, theta)


def vcomp_theta(a: ThetaPNT, b: ThetaPNT) -> ThetaPNT:
    """Stacked composite of theta-generated transformations a then b."""
    if not pseudo_equal(a.v0.G, b.v0.F):
        raise StructureError("transformations not vertically composable")
    dom = a.v0.F.dom
    cod = a.v0.F.cod
    h1 = vcomp_horizontal(a.h1, b.h1)
    v0 = vcomp_vertical(a.v0, b.v0)
    theta = [
        cod.vpaste(cod.hpaste(a.theta[o], cod.sq_vid[b.h1.comp[o]]), b.theta[o])
        for o in range(dom.n_objects)
    ]
    return ThetaPNT(v0, h1, theta)


# ---------------------------------------------------------------------------
# compositions of coupled pairs


def _coupled(side, *pairs):
    """The coupled pair whose h1 leg and t-squares ``side`` builds from
    ``pairs``; its v0 leg and r-squares are ``side`` on the transposes."""
    tr = _TransposedContext()
    h1, t = side(*pairs)
    v0, r = side(*map(tr, pairs))
    return DoublePNT(tr(v0), h1, t, r)


def _hcomp_t(b: DoublePNT, a: DoublePNT):
    """The h1 leg and the t-squares of :func:`hcomp_double`."""
    h1 = hcomp_horizontal(b.h1, a.h1)
    F, G, Gp = a.F, a.G, b.G
    dom = F.dom
    cod = Gp.cod
    t = []
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        row1 = cod.hpaste(b.v0.nat[F.h(f)], b.t[a.h1.comp[B]])
        row2 = Gp.comp_h_inv[(F.h(f), a.h1.comp[B])]
        row3 = cod.hpaste(Gp.sq(a.t[f]), Gp.unit_v_inv[G.ob(B)])
        t.append(cod.hpaste(b.v0.delta[a.v0.comp[A]], cod.vcol(row1, row2, row3)))
    return h1, t


def hcomp_double(b: DoublePNT, a: DoublePNT) -> DoublePNT:
    """Side-by-side composite; the coupling squares thread the second
    transformation's comparison cells through the images of the first."""
    return _coupled(_hcomp_t, b, a)


def _vcomp_t(a: DoublePNT, b: DoublePNT):
    """The h1 leg and the t-squares of :func:`vcomp_double`."""
    h1 = vcomp_horizontal(a.h1, b.h1)
    dom, cod = a.F.dom, a.F.cod
    t = [cod.vpaste(cod.hpaste(a.t[f], cod.sq_vid[b.h1.comp[dom.ht(f)]]), b.t[f]) for f in range(len(dom.hcells))]
    return h1, t


def vcomp_double(a: DoublePNT, b: DoublePNT) -> DoublePNT:
    """Stacked composite a then b; strictly associative and unital."""
    return _coupled(_vcomp_t, a, b)


def _agree(col, x, y, *families):
    """Record that the transformations ``x`` and ``y`` agree cell for cell,
    for each ``(law, field, kind)`` of ``families`` in turn: ``x.field[i]
    == y.field[i]``, witnessed by ``(kind, i)``."""
    for law, cells, kind in families:
        xs, ys = getattr(x, cells), getattr(y, cells)
        _whole(col, (kind,), range(min(len(xs), len(ys))),
               (law, lambda r: list(xs[:len(r)]), lambda r: list(ys[:len(r)])))


def right_unit_constraint(a: HorizontalPNT):
    """Compose with the identity 2-cell on the domain's identity functor and
    normalize back.

    The left-sided composite is the original transformation on the nose.
    The right-sided one picks up the domain functor's unit comparison cells;
    the returned per-object squares are exactly those cells whiskered by the
    components, and the report verifies they form a modification from the
    composite back to ``a`` (the normalization applied).  Both collapse to
    identities when the functor is normalized."""
    F = a.F
    dom, cod = F.dom, F.cod
    ident = identity_horizontal(identity_pseudo(dom))
    composite = hcomp_horizontal(a, ident)
    col = Collector("right-unit-normalization")
    normalization = [cod.hpaste(F.unit_h[o], cod.sq_vid[a.comp[o]]) for o in range(dom.n_objects)]
    _whole(col, (OBJECT,), range(len(normalization)), (
        "normalization-boundary",
        lambda r: [(cod.top(cell), cod.bottom(cell)) for cell in normalization[:len(r)]],
        lambda r: [(composite.comp[o], a.comp[o]) for o in r],
    ))
    from .modif import check_horizontal_side

    col.report.absorb(check_horizontal_side(composite, a, normalization))
    col.assume("right unit normalized through the recorded unit comparison cells")
    left = hcomp_horizontal(identity_horizontal(identity_pseudo(cod)), a)
    _agree(col, left, a, ("left-unit-strict", "comp", OBJECT), ("left-unit-strict", "delta", HCELL),
           ("left-unit-strict", "nat", VCELL))
    return composite, normalization, col.done()
