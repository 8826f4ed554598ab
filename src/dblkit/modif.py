"""Modifications: the cells between parallel transformations.

A modification between coupled pairs alpha => beta consists of one
horizontally globular square a0[A] : alpha0(A) => beta0(A) and one
vertically globular square a1[A] : alpha1(A) => beta1(A) per object,
compatible with the naturality and comparison data of both sides and with
the coupling squares.  Equality of modifications is componentwise square
equality after pasting; there is no weaker comparison at this layer.

Transposition (see :mod:`dblkit.transform`) swaps the two legs of a coupled
pair, its t- and r-squares and the a0 and a1 components, so the vertical
side and the ``coupling-r`` law are checked as the horizontal side and
``coupling-t`` on the transposed modification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import HCELL, OBJECT, VCELL, StructureError, _check_ids, _horizontal_inverse, _laws, same_category
from .report import AxiomReport, Budget, Collector, live_axioms
from .transform import (
    DoublePNT,
    ThetaPNT,
    _on_transpose,
    _TransposedContext,
    hcomp_double,
    theta_to_double,
    vcomp_double,
)
from .functors import conj_v, conj_h


@dataclass
class DoubleModification:
    src: DoublePNT
    tgt: DoublePNT
    a0: tuple  # per object: horizontally globular square alpha0(A) => beta0(A)
    a1: tuple  # per object: vertically globular square alpha1(A) => beta1(A)

    def __post_init__(self):
        self.a0 = tuple(self.a0)
        self.a1 = tuple(self.a1)
        _check_modification_boundaries(self)

    @property
    def F(self):
        return self.src.F

    @property
    def G(self):
        return self.src.G


def _check_modification_boundaries(m):
    from .functors import pseudo_equal

    if not (pseudo_equal(m.src.F, m.tgt.F) and pseudo_equal(m.src.G, m.tgt.G)):
        raise StructureError("modification endpoints must be parallel transformations")
    F, G = m.F, m.G
    dom, cod = F.dom, F.cod
    if len(m.a0) != dom.n_objects or len(m.a1) != dom.n_objects:
        raise StructureError("one component square of each kind per object required")
    v_src, v_tgt, h_src, h_tgt = m.src.v0.comp, m.tgt.v0.comp, m.src.h1.comp, m.tgt.h1.comp
    objects = range(dom.n_objects)
    _check_ids(m.a0, cod.squares, [(cod.hid[F.ob(o)], cod.hid[G.ob(o)], v_src[o], v_tgt[o]) for o in objects],
               "vertical-side component at object {}")
    _check_ids(m.a1, cod.squares, [(h_src[o], h_tgt[o], cod.vid[F.ob(o)], cod.vid[G.ob(o)]) for o in objects],
               "horizontal-side component at object {}")


@dataclass
class ThetaModification:
    """Between theta-generated transformations; one extra compatibility with
    the generating squares replaces the two coupling compatibilities."""

    src: ThetaPNT
    tgt: ThetaPNT
    a0: tuple
    a1: tuple

    def __post_init__(self):
        self.a0 = tuple(self.a0)
        self.a1 = tuple(self.a1)
        shadow = DoubleModification(
            theta_to_double(self.src), theta_to_double(self.tgt), self.a0, self.a1
        )
        self._shadow = shadow


MODIFICATION_AXIOMS = (
    "slide-v-nat",
    "slide-v-delta",
    "slide-h-nat",
    "slide-h-delta",
    "coupling-t",
    "coupling-r",
)


def _check_side(col, src, tgt, a1, live, law: str):
    """The two equations, ``law``-nat and ``law``-delta, of a modification
    between horizontal transformations."""
    F, G = src.F, src.G
    dom, cod = F.dom, F.cod
    hp, vp, sq_vid = cod.hpaste, cod.vpaste, cod.sq_vid
    if f"{law}-nat" in live:
        _laws(col, (VCELL,), [(u, *bnd) for u, bnd in enumerate(dom.vcells)], (
            f"{law}-nat", lambda u, A, B: vp(a1[A], tgt.nat[u]), lambda u, A, B: vp(src.nat[u], a1[B]),
        ))
    if f"{law}-delta" in live:
        _laws(col, (HCELL,), [(f, *bnd) for f, bnd in enumerate(dom.hcells)], (
            f"{law}-delta",
            lambda f, A, B: vp(hp(sq_vid[F.h(f)], a1[B]), tgt.delta[f]),
            lambda f, A, B: vp(src.delta[f], hp(a1[A], sq_vid[G.h(f)])),
        ))


def check_vertical_side(src, tgt, a0, budget: Budget | None = None, axioms=None) -> AxiomReport:
    """The two equations of a modification between vertical transformations."""
    col = Collector("vertical-modification", budget)
    tr = _TransposedContext()
    _on_transpose(col, _check_side, tr(src), tr(tgt), a0, live_axioms(MODIFICATION_AXIOMS, axioms), "slide-v")
    return col.done()


def check_horizontal_side(src, tgt, a1, budget: Budget | None = None, axioms=None) -> AxiomReport:
    """The two equations of a modification between horizontal transformations."""
    col = Collector("horizontal-modification", budget)
    _check_side(col, src, tgt, a1, live_axioms(MODIFICATION_AXIOMS, axioms), "slide-h")
    return col.done()


def _coupling(col, m: DoubleModification, law: str):
    """The compatibility of the components with the t-squares; with the
    r-squares it is this on the transpose."""
    F = m.F
    dom, cod = F.dom, F.cod
    _laws(col, (HCELL,), [(f, *bnd) for f, bnd in enumerate(dom.hcells)], (
        law,
        lambda f, A, B: cod.hpaste(m.a0[A], cod.vpaste(cod.hpaste(cod.sq_vid[F.h(f)], m.a1[B]), m.tgt.t[f])),
        lambda f, A, B: m.src.t[f],
    ))


def check_modification(m: DoubleModification, budget: Budget | None = None, axioms=None) -> AxiomReport:
    live = live_axioms(MODIFICATION_AXIOMS, axioms)
    col = Collector("modification", budget)
    tr = _TransposedContext()
    mt = DoubleModification(tr(m.src), tr(m.tgt), m.a1, m.a0)
    _on_transpose(col, _check_side, mt.src.h1, mt.tgt.h1, mt.a1, live, "slide-v")
    _check_side(col, m.src.h1, m.tgt.h1, m.a1, live, "slide-h")
    if "coupling-t" in live:
        _coupling(col, m, "coupling-t")
    if "coupling-r" in live:
        _on_transpose(col, _coupling, mt, "coupling-r")
    return col.done()


def check_theta_modification(m: ThetaModification, budget: Budget | None = None) -> AxiomReport:
    """The single generator compatibility; the coupled-pair equations follow
    and are rechecked through the shadow modification."""
    col = Collector("theta-modification", budget)
    dom, cod = m.src.v0.F.dom, m.src.v0.F.cod
    _laws(col, (OBJECT,), [(o,) for o in range(dom.n_objects)], (
        "theta-compat",
        lambda o: cod.hpaste(m.a0[o], cod.vpaste(m.a1[o], m.tgt.theta[o])),
        lambda o: m.src.theta[o],
    ))
    col.report.absorb(check_modification(m._shadow, budget=col.budget), prefix="as-coupled: ")
    return col.done()


def identity_modification(a: DoublePNT) -> DoubleModification:
    cod = a.F.cod
    return DoubleModification(
        a,
        a,
        [cod.sq_hid[a.v0.comp[o]] for o in range(a.F.dom.n_objects)],
        [cod.sq_vid[a.h1.comp[o]] for o in range(a.F.dom.n_objects)],
    )


# ---------------------------------------------------------------------------
# the three compositions


def hcomp_modif(b: DoubleModification, a: DoubleModification) -> DoubleModification:
    """Side-by-side composite along horizontally composable transformations."""
    Fp = b.F
    G = a.G
    if not same_category(a.F.cod, Fp.dom):
        raise StructureError("modifications not horizontally composable")
    dom = a.F.dom
    cod = Fp.cod
    src = hcomp_double(b.src, a.src)
    tgt = hcomp_double(b.tgt, a.tgt)
    a0 = []
    a1 = []
    for o in range(dom.n_objects):
        go = G.ob(o)
        a0.append(
            cod.vcol(
                conj_h(Fp, a.a0[o]),
                b.a0[go],
            )
        )
        a1.append(
            cod.hrow(
                conj_v(Fp, a.a1[o]),
                b.a1[go],
            )
        )
    return DoubleModification(src, tgt, a0, a1)


def vcomp_modif(a: DoubleModification, b: DoubleModification) -> DoubleModification:
    """Stacked composite along vertically composable transformations."""
    from .functors import pseudo_equal

    if not pseudo_equal(a.G, b.F):
        raise StructureError("modifications not vertically composable")
    dom = a.F.dom
    cod = a.F.cod
    src = vcomp_double(a.src, b.src)
    tgt = vcomp_double(a.tgt, b.tgt)
    a0 = [cod.vpaste(a.a0[o], b.a0[o]) for o in range(dom.n_objects)]
    a1 = [cod.hpaste(a.a1[o], b.a1[o]) for o in range(dom.n_objects)]
    return DoubleModification(src, tgt, a0, a1)


def tcomp_modif(b: DoubleModification, a: DoubleModification) -> DoubleModification:
    """Transversal composite: a then b between stacked parallel pairs."""
    if a.tgt is not b.src and (a.tgt.t != b.src.t or a.tgt.r != b.src.r or a.tgt.v0.comp != b.src.v0.comp):
        raise StructureError("modifications not transversally composable")
    dom = a.F.dom
    cod = a.F.cod
    a0 = [cod.hpaste(a.a0[o], b.a0[o]) for o in range(dom.n_objects)]
    a1 = [cod.vpaste(a.a1[o], b.a1[o]) for o in range(dom.n_objects)]
    return DoubleModification(a.src, b.tgt, a0, a1)


# ---------------------------------------------------------------------------
# trading a vertical-side modification for a horizontal-side one


def vertical_modif_to_horizontal(a0_cells, src: DoublePNT, tgt: DoublePNT, src_pairs, tgt_pairs):
    """Build the horizontal components from invertible vertical ones using
    the binding cells of the component companions on both sides.

    ``src_pairs[o]``/``tgt_pairs[o]`` are the companion pairs exhibiting the
    components of src/tgt; ``a0_cells[o]`` must be horizontally invertible,
    with the inverse found on the finite instance by boundary search."""
    F, G = src.F, src.G
    dom, cod = F.dom, F.cod
    a0_inv = []
    for o, cell in enumerate(a0_cells):
        inv = _horizontal_inverse(cod, cell)
        if inv is None:
            raise StructureError(f"vertical-side component at object {o} is not invertible")
        a0_inv.append(inv)
    a1 = [
        cod.hrow(tgt_pairs[o].eta, a0_inv[o], src_pairs[o].eps)
        for o in range(dom.n_objects)
    ]
    a1_inv = [
        cod.hrow(src_pairs[o].eta, a0_cells[o], tgt_pairs[o].eps)
        for o in range(dom.n_objects)
    ]
    return DoubleModification(src, tgt, a0_cells, a1), a1_inv
