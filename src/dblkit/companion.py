"""Companion pairs, connections, and trading vertical transformations for
horizontal ones.

A companion pair binds a vcell u to an hcell u_* through two squares

    eta : (1_A => u_*)  with right side u       (the folding-in cell)
    eps : (u_* => 1_A') with left side u        (the folding-out cell)

subject to the two snake laws ``eta | eps == Id_{u_*}`` (horizontal pasting)
and ``eta / eps == Id^u`` (vertical pasting).  A connection is an explicit
choice of companion per vcell; it is data the caller supplies, never
something these operations search for.  In a commuting-square double
category every vcell m has the companion m with both binding cells the
evident commuting squares, which makes those categories the main testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import HCELL, OBJECT, VCELL, DoubleCategory, StructureError, _by, _horizontal_inverse, _laws
from .functors import DoublePseudoFunctor
from .report import AxiomReport, Budget, Collector, live_axioms
from .transform import (
    HorizontalPNT,
    _agree,
    ThetaPNT,
    VerticalPNT,
    theta_to_double,
)


@dataclass(frozen=True)
class CompanionPair:
    vcell: int
    hcell: int
    eps: int
    eta: int


class Connection:
    """Partial map from vcells to companion pairs over one double category."""

    def __init__(self, d: DoubleCategory, pairs):
        self.d = d
        self.pairs = {}
        for p in pairs:
            if p.vcell in self.pairs:
                raise StructureError(f"two companions supplied for vcell {p.vcell}")
            _check_pair_boundaries(d, p)
            self.pairs[p.vcell] = p

    def __contains__(self, u):
        return u in self.pairs

    def __getitem__(self, u) -> CompanionPair:
        try:
            return self.pairs[u]
        except KeyError:
            raise StructureError(f"no companion supplied for vcell {u}") from None

    def items(self):
        return sorted(self.pairs.items())


def _check_pair_boundaries(d: DoubleCategory, p: CompanionPair):
    a, b = d.vcells[p.vcell]
    if d.hcells[p.hcell] != (a, b):
        raise StructureError(f"companion hcell of vcell {p.vcell} has wrong endpoints")
    eta_expect = (d.hid[a], p.hcell, d.vid[a], p.vcell)
    if d.squares[p.eta] != eta_expect:
        raise StructureError(f"binding cell eta of vcell {p.vcell} has wrong boundary")
    eps_expect = (p.hcell, d.hid[b], p.vcell, d.vid[b])
    if d.squares[p.eps] != eps_expect:
        raise StructureError(f"binding cell eps of vcell {p.vcell} has wrong boundary")


def check_companion(d: DoubleCategory, p: CompanionPair, budget: Budget | None = None) -> AxiomReport:
    col = Collector("companion-pair", budget)
    _check_pair_boundaries(d, p)
    _laws(col, (VCELL,), [(p.vcell,)],
          ("snake-h", lambda u: d.hpaste(p.eta, p.eps), lambda u: d.sq_vid[p.hcell]),
          ("snake-v", lambda u: d.vpaste(p.eta, p.eps), lambda u: d.sq_hid[u]))
    return col.done()


def check_connection(conn: Connection, budget: Budget | None = None) -> AxiomReport:
    """Each pair's snake laws, plus functoriality on identities and on those
    composites whose companions are also in the connection."""
    d = conn.d
    col = Collector("connection", budget)
    for u, p in conn.items():
        col.report.absorb(check_companion(d, p, budget=col.budget))
    _laws(col, (OBJECT,), [(a, conn[d.vid[a]]) for a in range(d.n_objects) if d.vid[a] in conn],
          ("identity-companion", lambda a, p: p.hcell, lambda a, p: d.hid[a]),
          ("identity-companion", lambda a, p: p.eta, lambda a, p: d.sq_vid[d.hid[a]]),
          ("identity-companion", lambda a, p: p.eps, lambda a, p: d.sq_vid[d.hid[a]]))
    rows = [
        (u, v, conn[u], conn[v], conn[w])
        for (u, v), w in sorted(d.vcomp1.items())
        if u in conn and v in conn and w in conn
    ]
    _laws(col, (VCELL, VCELL), rows,
          ("composite-companion", lambda u, v, pu, pv, pw: pw.hcell,
           lambda u, v, pu, pv, pw: d.hcomp(pu.hcell, pv.hcell)),
          ("composite-companion", lambda u, v, pu, pv, pw: pw.eta,
           lambda u, v, pu, pv, pw: d.vpaste(pu.eta, d.hpaste(d.sq_vid[pu.hcell], pv.eta))),
          ("composite-companion", lambda u, v, pu, pv, pw: pw.eps,
           lambda u, v, pu, pv, pw: d.vpaste(d.hpaste(pu.eps, d.sq_vid[pv.hcell]), pv.eps)))
    return col.done()


def find_connection(d: DoubleCategory, vcells=None) -> Connection:
    """Search helper for building the explicit data on finite instances.

    Prefers the companion derived from composing the identity choice, so
    commuting-square categories get their canonical connection (the one with
    companion hcell equal to the vcell as a morphism)."""
    wanted = range(len(d.vcells)) if vcells is None else sorted(vcells)
    hcells, squares = _by(d.hcells), _by(d.squares)  # each list ascending, as a scan meets them
    pairs = []
    for u in wanted:
        a, b = d.vcells[u]
        candidates = (
            CompanionPair(u, f, eps, eta)
            for f in hcells.get((a, b), ())
            for eta in squares.get((d.hid[a], f, d.vid[a], u), ())
            for eps in squares.get((f, d.hid[b], u, d.vid[b]), ())
        )
        found = next((p for p in candidates if check_companion(d, p).passed), None)
        if found is None:
            raise StructureError(f"vcell {u} admits no companion")
        pairs.append(found)
    return Connection(d, pairs)


# ---------------------------------------------------------------------------
# vertical <-> horizontal


def _components(a0: VerticalPNT, conn: Connection):
    return [conn[a0.comp[o]] for o in range(a0.F.dom.n_objects)]


def vertical_to_horizontal(a0: VerticalPNT, conn: Connection, dom_conn: Connection | None = None) -> HorizontalPNT:
    """Horizontal transformation whose component at A is the chosen
    companion hcell of a0(A); requires a0's comparison squares invertible.

    With ``dom_conn`` (companions in the domain), the comparison square at
    each companion hcell gets its inverse filled in by the image-companion
    formula; the checker then verifies those fills like any stored inverse."""
    if not a0.strong:
        raise StructureError("only a strong vertical transformation trades sides")
    F, G = a0.F, a0.G
    dom, cod = F.dom, F.cod
    ps = _components(a0, conn)
    comp = [p.hcell for p in ps]
    nat = []
    for u in range(len(dom.vcells)):
        A, B = dom.vs(u), dom.vt(u)
        left = cod.hpaste(
            cod.vpaste(cod.sq_hid[F.v(u)], ps[B].eta),
            a0.delta[u],
        )
        nat.append(cod.hpaste(left, cod.vpaste(ps[A].eps, cod.sq_hid[G.v(u)])))
    delta = []
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        delta.append(cod.hrow(ps[A].eta, a0.nat[f], ps[B].eps))
    delta_inv = {}
    if dom_conn is not None:
        for u, pair in dom_conn.items():
            eta_fu = image_companion(F, pair)
            eps_gu = image_companion(G, pair)
            delta_inv[pair.hcell] = cod.hrow(eta_fu.eta, nat[u], eps_gu.eps)
    return HorizontalPNT(F, G, comp, nat, delta, delta_inv)


def horizontal_to_vertical(a1: HorizontalPNT, choices) -> VerticalPNT:
    """Inverse direction: every component hcell must be the companion hcell
    of the pair chosen for its object."""
    F, G = a1.F, a1.G
    dom, cod = F.dom, F.cod
    ps = list(choices)
    if len(ps) != dom.n_objects:
        raise StructureError("one companion choice per object required")
    for o, p in enumerate(ps):
        if p.hcell != a1.comp[o]:
            raise StructureError(f"component at object {o} is not the chosen companion hcell")
    comp = [p.vcell for p in ps]
    nat = []
    for f in range(len(dom.hcells)):
        A, B = dom.hs(f), dom.ht(f)
        nat.append(
            cod.vcol(
                cod.hpaste(cod.sq_vid[F.h(f)], ps[B].eta),
                a1.delta[f],
                cod.hpaste(ps[A].eps, cod.sq_vid[G.h(f)]),
            )
        )
    delta = []
    delta_inv = {}
    for u in range(len(dom.vcells)):
        A, B = dom.vs(u), dom.vt(u)
        delta.append(cod.vcol(ps[A].eta, a1.nat[u], ps[B].eps))
        # on finite instances the snake laws force the inverse when a square
        # of the mirrored boundary exists; record it if so, by search
        inv = _horizontal_inverse(cod, delta[u])
        if inv is not None:
            delta_inv[u] = inv
    return VerticalPNT(F, G, comp, nat, delta, delta_inv)


def roundtrip_check(a0: VerticalPNT, conn: Connection, budget: Budget | None = None) -> AxiomReport:
    """Both directions of the trade are mutually inverse on the nose."""
    col = Collector("companion-roundtrip", budget)
    ps = _components(a0, conn)
    a1 = vertical_to_horizontal(a0, conn)
    back = horizontal_to_vertical(a1, ps)
    _agree(col, back, a0, ("roundtrip-component", "comp", OBJECT), ("roundtrip-naturality", "nat", HCELL),
           ("roundtrip-comparison", "delta", VCELL))
    if col.report.violations:
        # say which snake law broke, if one did
        for o, p in enumerate(ps):
            sub = check_companion(a0.F.cod, p)
            col.report.absorb(sub, prefix=f"companion at object {o}: ")
    again = vertical_to_horizontal(back, conn) if back.strong else None
    if again is not None:
        _agree(col, again, a1, ("roundtrip-reverse-component", "comp", OBJECT),
               ("roundtrip-reverse-naturality", "nat", VCELL), ("roundtrip-reverse-comparison", "delta", HCELL))
    else:
        col.assume("reverse trip skipped: recovered vertical transformation not strong")
        col.inconclusive()
    return col.done()


FOUR_IDENTITIES = ("slide-nat-h", "bind-nat-h", "slide-nat-v", "bind-nat-v")


def four_identities(a0: VerticalPNT, conn: Connection, budget: Budget | None = None, axioms=None) -> AxiomReport:
    """The four exchange laws tying the constructed horizontal data to the
    binding cells; each is individually toggleable for mutation tests."""
    live = live_axioms(FOUR_IDENTITIES, axioms)
    col = Collector("companion-identities", budget)
    F, G = a0.F, a0.G
    dom, cod = F.dom, F.cod
    ps = _components(a0, conn)
    a1 = vertical_to_horizontal(a0, conn)
    hp, vp, sq_vid, sq_hid = cod.hpaste, cod.vpaste, cod.sq_vid, cod.sq_hid
    _laws(col, (HCELL,), [(f, ps[dom.hs(f)], ps[dom.ht(f)]) for f in range(len(dom.hcells))], *[law for law in (
        ("slide-nat-h",
         lambda f, pa, pb: hp(a0.nat[f], pb.eps), lambda f, pa, pb: vp(a1.delta[f], hp(pa.eps, sq_vid[G.h(f)]))),
        ("bind-nat-h",
         lambda f, pa, pb: hp(pa.eta, a0.nat[f]), lambda f, pa, pb: vp(hp(sq_vid[F.h(f)], pb.eta), a1.delta[f])),
    ) if law[0] in live])
    _laws(col, (VCELL,), [(u, ps[dom.vs(u)], ps[dom.vt(u)]) for u in range(len(dom.vcells))], *[law for law in (
        ("slide-nat-v",
         lambda u, pa, pb: vp(a1.nat[u], pb.eps), lambda u, pa, pb: hp(a0.delta[u], vp(pa.eps, sq_hid[G.v(u)]))),
        ("bind-nat-v",
         lambda u, pa, pb: vp(pa.eta, a1.nat[u]), lambda u, pa, pb: hp(vp(sq_hid[F.v(u)], pb.eta), a0.delta[u])),
    ) if law[0] in live])
    return col.done()


def image_companion(F: DoublePseudoFunctor, p: CompanionPair) -> CompanionPair:
    """Pseudofunctors carry companions to companions; the binding cells of
    the image pair conjugate the image squares by F's unit cells."""
    dom, cod = F.dom, F.cod
    a, b = dom.vcells[p.vcell]
    eta = cod.vpaste(F.unit_h_inv[a], cod.hpaste(F.unit_v[a], F.sq(p.eta)))
    eps = cod.vpaste(cod.hpaste(F.sq(p.eps), F.unit_v_inv[b]), F.unit_h[b])
    return CompanionPair(F.v(p.vcell), F.h(p.hcell), eps, eta)


def delta_inverse(a0: VerticalPNT, conn: Connection, pair: CompanionPair) -> int:
    """Inverse of the constructed comparison square at a companion hcell.

    ``pair`` lives in the domain; the binding cells for the images of its
    vcell come from the endpoint functors, not from ``conn`` (which supplies
    the component companions only)."""
    F, G = a0.F, a0.G
    cod = F.cod
    u = pair.vcell
    a1 = vertical_to_horizontal(a0, conn)
    eta_fu = image_companion(F, pair)
    eps_gu = image_companion(G, pair)
    return cod.hrow(eta_fu.eta, a1.nat[u], eps_gu.eps)


# ---------------------------------------------------------------------------
# plain vertical transformations as coupled pairs


def is_plain(a0: VerticalPNT) -> bool:
    """All comparison squares are horizontal identity squares."""
    cod = a0.F.cod
    return all(
        a0.delta[u] == cod.sq_hid[cod.left(a0.delta[u])] for u in range(len(a0.delta))
    )


def vertical_transformation_to_double(a0: VerticalPNT, conn: Connection, dom_conn: Connection | None = None):
    """Lift a plain vertical transformation to a coupled pair by taking the
    folding-out binding cells as the generating squares.  Returns the pair
    together with a report of the three generator/coupling correspondences,
    each verified in both directions."""
    if not is_plain(a0):
        raise StructureError("lifting requires identity comparison squares")
    F, G = a0.F, a0.G
    dom, cod = F.dom, F.cod
    ps = _components(a0, conn)
    a1 = vertical_to_horizontal(a0, conn, dom_conn=dom_conn)
    th = ThetaPNT(a0, a1, [p.eps for p in ps])
    dd = theta_to_double(th)
    col = Collector("vertical-to-double")
    hp, vp, sq_vid = cod.hpaste, cod.vpaste, cod.sq_vid
    _laws(col, (HCELL,), [(f, ps[dom.hs(f)], ps[dom.ht(f)]) for f in range(len(dom.hcells))],
          ("t-from-delta", lambda f, pa, pb: dd.t[f], lambda f, pa, pb: vp(a1.delta[f], hp(pa.eps, sq_vid[G.h(f)]))),
          ("delta-from-t", lambda f, pa, pb: a1.delta[f], lambda f, pa, pb: hp(pa.eta, dd.t[f])),
          ("nat-from-t", lambda f, pa, pb: a0.nat[f], lambda f, pa, pb: vp(hp(sq_vid[F.h(f)], pb.eta), dd.t[f])),
          ("t-from-nat", lambda f, pa, pb: dd.t[f], lambda f, pa, pb: hp(a0.nat[f], pb.eps)))
    return dd, th, col.done()
