"""Line-oriented declaration format and its parser/serializer.

A document is an ordered sequence of named blocks::

    fincategory C {
      objects X Y
      mor f : X -> Y
      comp f g = h
    }

    category D { ... }          twocategory T { ... }      bicategory B { ... }
    functor F : C -> D { ... }  transformation a : F => G { ... }
    connection k on D { ... }   modification m : a => b { ... }
    monoid M on D { ... }       tensor AB { left A  right B  cap 4 }
    internal I { d0 = ...  }

Names are unique per document, later blocks may reference earlier ones, and
forward references are rejected at the use site.  Every symbol resolves to a
dense index on load; serialization regenerates canonical text, so parsing a
serialized document is the identity up to whitespace.  Errors carry
1-indexed line and column positions.

Identity cells in category-like blocks are declared implicitly (named
``1_A``, ``1^A``, ``I_f``, ``I^u``) and unit table entries are filled in
automatically; only the non-unit entries need spelling out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .kernel import (
    DoubleCategory,
    FiniteCategory,
    StructureError,
    TwoCategory,
)
from .weak import Bicategory
from .functors import StrictDoubleFunctor, pseudo_from_strict
from .transform import DoublePNT, HorizontalPNT, ThetaPNT, VerticalPNT
from .companion import CompanionPair, Connection
from .modif import DoubleModification
from .graytensor import MonoidInDbl


class ParseError(ValueError):
    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class TensorDecl:
    left: str
    right: str
    cap: int


@dataclass
class InternalDecl:
    refs: dict


@dataclass
class Declaration:
    kind: str
    name: str
    obj: object
    names: dict = field(default_factory=dict)  # per cell kind: name -> index
    meta: dict = field(default_factory=dict)


class Document:
    def __init__(self):
        self.order = []
        self.decls = {}

    def add(self, decl: Declaration, line=0):
        if decl.name in self.decls:
            raise ParseError(f"duplicate name {decl.name!r}", line)
        self.decls[decl.name] = decl
        self.order.append(decl.name)

    def get(self, name, kind=None, line=0, column=1):
        if name not in self.decls:
            raise ParseError(f"unresolved reference {name!r}", line, column)
        decl = self.decls[name]
        if kind is not None and decl.kind != kind:
            kinds = kind if isinstance(kind, str) else "/".join(kind)
            if isinstance(kind, str):
                ok = decl.kind == kind
            else:
                ok = decl.kind in kind
            if not ok:
                raise ParseError(
                    f"{name!r} is a {decl.kind}, expected {kinds}", line, column
                )
        return decl

    def __contains__(self, name):
        return name in self.decls


_TOKEN = re.compile(r"\S+")


def _tokens(raw_line):
    text = raw_line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(text)]


class _Cursor:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.i = 0

    def next_tokens(self):
        while self.i < len(self.lines):
            toks = _tokens(self.lines[self.i])
            self.i += 1
            if toks:
                return self.i, toks
        return None, None


class _NameTable:
    """Per-kind symbolic names with dense indices, built incrementally."""

    def __init__(self):
        self.names = {}
        self.index = {}

    def kind(self, kind):
        self.names.setdefault(kind, [])
        self.index.setdefault(kind, {})
        return self

    def add(self, kind, name, line, column):
        self.kind(kind)
        if name in self.index[kind]:
            raise ParseError(f"duplicate {kind} name {name!r}", line, column)
        self.index[kind][name] = len(self.names[kind])
        self.names[kind].append(name)
        return self.index[kind][name]

    def get(self, kind, name, line, column):
        try:
            return self.index[kind][name]
        except KeyError:
            raise ParseError(f"unknown {kind} {name!r}", line, column) from None


def _expect(cond, message, line, column=1):
    if not cond:
        raise ParseError(message, line, column)


# ---------------------------------------------------------------------------
# block parsers


def _parse_fincategory_block(cur, doc, name, header_line):
    nt = _NameTable().kind("object").kind("mor")
    mor_decl = []
    comp_decl = []
    id_decl = []
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "objects":
            for t, c in toks[1:]:
                nt.add("object", t, line, c)
        elif head == "mor":
            _expect(
                len(toks) == 6 and toks[2][0] == ":" and toks[4][0] == "->",
                "expected: mor f : A -> B",
                line,
                col,
            )
            nt.add("mor", toks[1][0], line, toks[1][1])
            mor_decl.append((toks[1], toks[3], toks[5], line))
        elif head == "comp":
            _expect(
                len(toks) == 5 and toks[3][0] == "=",
                "expected: comp f g = h",
                line,
                col,
            )
            comp_decl.append((toks[1], toks[2], toks[4], line))
        elif head == "idm":
            _expect(len(toks) == 4 and toks[2][0] == "=", "expected: idm A = f", line, col)
            id_decl.append((toks[1], toks[3], line))
        else:
            raise ParseError(f"unknown keyword {head!r} in fincategory", line, col)
    n = len(nt.names["object"])
    # identities: explicitly assigned, otherwise created implicitly
    ids = [None] * n
    for (an, ac), (fn, fc), line in id_decl:
        ids[nt.get("object", an, line, ac)] = nt.get("mor", fn, line, fc)
    for a, obname in enumerate(nt.names["object"]):
        if ids[a] is None:
            ids[a] = nt.add("mor", f"id_{obname}", header_line, 1)
    boundaries = [None] * len(nt.names["mor"])
    for (mn, mc), (sn, sc), (tn, tc), line in mor_decl:
        boundaries[nt.get("mor", mn, line, mc)] = (
            nt.get("object", sn, line, sc),
            nt.get("object", tn, line, tc),
        )
    for a, i in enumerate(ids):
        if boundaries[i] is None:
            boundaries[i] = (a, a)
    comp = {}
    for (fn, fc), (gn, gc), (hn, hc), line in comp_decl:
        f = nt.get("mor", fn, line, fc)
        g = nt.get("mor", gn, line, gc)
        h = nt.get("mor", hn, line, hc)
        _expect(boundaries[f][1] == boundaries[g][0], f"{fn} and {gn} not composable", line, fc)
        comp[(f, g)] = h
    # every unit entry first: an identity may be listed before a morphism
    # it composes with
    for f, (a, b) in enumerate(boundaries):
        comp.setdefault((ids[a], f), f)
        comp.setdefault((f, ids[b]), f)
    for f, (a, b) in enumerate(boundaries):
        for g, (a2, b2) in enumerate(boundaries):
            if b == a2 and (f, g) not in comp:
                raise ParseError(
                    f"missing composition entry for {nt.names['mor'][f]} {nt.names['mor'][g]}",
                    header_line,
                )
    cat = FiniteCategory(n, boundaries, comp, ids, names={"objects": nt.names["object"], "mor": nt.names["mor"]})
    return Declaration("fincategory", name, cat, names=nt.index)


def _parse_category_block(cur, doc, name, header_line):
    nt = _NameTable().kind("object").kind("hcell").kind("vcell").kind("square")
    h_decl, v_decl, sq_decl = [], [], []
    table_decl = {"hcomp": [], "vcomp": [], "hsq": [], "vsq": []}
    id_decl = {"idh": [], "idv": [], "idsq": [], "idsqv": []}
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "objects":
            for t, c in toks[1:]:
                nt.add("object", t, line, c)
        elif head in ("hcell", "vcell"):
            _expect(
                len(toks) == 6 and toks[2][0] == ":" and toks[4][0] == "->",
                f"expected: {head} f : A -> B",
                line,
                col,
            )
            nt.add(head, toks[1][0], line, toks[1][1])
            (h_decl if head == "hcell" else v_decl).append((toks[1], toks[3], toks[5], line))
        elif head == "square":
            # square s : top bottom | left right
            _expect(
                len(toks) == 8 and toks[2][0] == ":" and toks[5][0] == "|",
                "expected: square s : top bottom | left right",
                line,
                col,
            )
            nt.add("square", toks[1][0], line, toks[1][1])
            sq_decl.append((toks[1], toks[3], toks[4], toks[6], toks[7], line))
        elif head in ("hcomp", "vcomp", "hsq", "vsq"):
            _expect(len(toks) == 5 and toks[3][0] == "=", f"expected: {head} a b = c", line, col)
            table_decl[head].append((toks[1], toks[2], toks[4], line))
        elif head in ("idh", "idv", "idsq", "idsqv"):
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} x = y", line, col)
            id_decl[head].append((toks[1], toks[3], line))
        else:
            raise ParseError(f"unknown keyword {head!r} in category", line, col)

    n = len(nt.names["object"])
    hid, vid = [None] * n, [None] * n
    for (an, ac), (cn, cc), line in id_decl["idh"]:
        hid[nt.get("object", an, line, ac)] = nt.get("hcell", cn, line, cc)
    for (an, ac), (cn, cc), line in id_decl["idv"]:
        vid[nt.get("object", an, line, ac)] = nt.get("vcell", cn, line, cc)
    for a, obname in enumerate(nt.names["object"]):
        if hid[a] is None:
            hid[a] = nt.add("hcell", f"1_{obname}", header_line, 1)
        if vid[a] is None:
            vid[a] = nt.add("vcell", f"1^{obname}", header_line, 1)
    hcells = [None] * len(nt.names["hcell"])
    vcells = [None] * len(nt.names["vcell"])
    for (cn, cc), (sn, sc), (tn, tc), line in h_decl:
        hcells[nt.get("hcell", cn, line, cc)] = (
            nt.get("object", sn, line, sc),
            nt.get("object", tn, line, tc),
        )
    for (cn, cc), (sn, sc), (tn, tc), line in v_decl:
        vcells[nt.get("vcell", cn, line, cc)] = (
            nt.get("object", sn, line, sc),
            nt.get("object", tn, line, tc),
        )
    for a in range(n):
        if hcells[hid[a]] is None:
            hcells[hid[a]] = (a, a)
        if vcells[vid[a]] is None:
            vcells[vid[a]] = (a, a)
    squares = [None] * len(nt.names["square"])
    for (qn, qc), t, b, l, r, line in sq_decl:
        squares[nt.get("square", qn, line, qc)] = (
            nt.get("hcell", t[0], line, t[1]),
            nt.get("hcell", b[0], line, b[1]),
            nt.get("vcell", l[0], line, l[1]),
            nt.get("vcell", r[0], line, r[1]),
        )
    sq_vid = [None] * len(nt.names["hcell"])
    for (fn, fc), (qn, qc), line in id_decl["idsq"]:
        sq_vid[nt.get("hcell", fn, line, fc)] = nt.get("square", qn, line, qc)
    sq_hid = [None] * len(nt.names["vcell"])
    for (un, uc), (qn, qc), line in id_decl["idsqv"]:
        sq_hid[nt.get("vcell", un, line, uc)] = nt.get("square", qn, line, qc)
    vid_pos = {u: a for a, u in enumerate(vid)}
    for f, fname in enumerate(nt.names["hcell"]):
        if sq_vid[f] is None:
            idx = nt.add("square", f"I_{fname}", header_line, 1)
            squares.append((f, f, vid[hcells[f][0]], vid[hcells[f][1]]))
            sq_vid[f] = idx
    for u, uname in enumerate(nt.names["vcell"]):
        if sq_hid[u] is not None:
            continue
        if u in vid_pos:
            # shared identity square on the object
            sq_hid[u] = sq_vid[hid[vid_pos[u]]]
            continue
        idx = nt.add("square", f"I^{uname}", header_line, 1)
        squares.append((hid[vcells[u][0]], hid[vcells[u][1]], u, u))
        sq_hid[u] = idx

    hcomp1 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["hcomp"]:
        hcomp1[(nt.get("hcell", an, line, ac), nt.get("hcell", bn, line, bc))] = nt.get(
            "hcell", cn, line, cc
        )
    vcomp1 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["vcomp"]:
        vcomp1[(nt.get("vcell", an, line, ac), nt.get("vcell", bn, line, bc))] = nt.get(
            "vcell", cn, line, cc
        )
    for f, (a, b) in enumerate(hcells):
        hcomp1.setdefault((hid[a], f), f)
        hcomp1.setdefault((f, hid[b]), f)
    for u, (a, b) in enumerate(vcells):
        vcomp1.setdefault((vid[a], u), u)
        vcomp1.setdefault((u, vid[b]), u)
    hcomp2 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["hsq"]:
        hcomp2[(nt.get("square", an, line, ac), nt.get("square", bn, line, bc))] = nt.get(
            "square", cn, line, cc
        )
    vcomp2 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["vsq"]:
        vcomp2[(nt.get("square", an, line, ac), nt.get("square", bn, line, bc))] = nt.get(
            "square", cn, line, cc
        )
    counts = {}
    for bnd in squares:
        counts[bnd] = counts.get(bnd, 0) + 1
    sq_index = {bnd: i for i, bnd in enumerate(squares) if counts[bnd] == 1}

    def auto_fill(table, pastable, composite):
        for x, bx in enumerate(squares):
            for y, by in enumerate(squares):
                if pastable(bx, by) and (x, y) not in table:
                    bnd = composite(bx, by)
                    if bnd in sq_index:
                        table[(x, y)] = sq_index[bnd]

    auto_fill(
        hcomp2,
        lambda bx, by: bx[3] == by[2],
        lambda bx, by: (
            hcomp1.get((bx[0], by[0])),
            hcomp1.get((bx[1], by[1])),
            bx[2],
            by[3],
        ),
    )
    auto_fill(
        vcomp2,
        lambda bx, by: bx[1] == by[0],
        lambda bx, by: (
            bx[0],
            by[1],
            vcomp1.get((bx[2], by[2])),
            vcomp1.get((bx[3], by[3])),
        ),
    )
    try:
        cat = DoubleCategory(
            n,
            hcells,
            vcells,
            squares,
            hcomp1,
            vcomp1,
            hcomp2,
            vcomp2,
            hid,
            vid,
            sq_vid,
            sq_hid,
            names={
                "object": nt.names["object"],
                "hcell": nt.names["hcell"],
                "vcell": nt.names["vcell"],
                "square": nt.names["square"],
            },
        )
    except StructureError as e:
        raise ParseError(str(e), header_line) from None
    return Declaration("category", name, cat, names=nt.index)


def _parse_twocategory_block(cur, doc, name, header_line, bicategory=False):
    nt = _NameTable().kind("object").kind("onecell").kind("twocell")
    one_decl, two_decl = [], []
    table_decl = {"comp": [], "vcc": [], "hcc": []}
    id_decl = {"id1": [], "id2": []}
    constraint_decl = {"assoc": [], "associnv": [], "lunit": [], "lunitinv": [], "runit": [], "runitinv": []}
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "objects":
            for t, c in toks[1:]:
                nt.add("object", t, line, c)
        elif head == "onecell":
            _expect(
                len(toks) == 6 and toks[2][0] == ":" and toks[4][0] == "->",
                "expected: onecell f : A -> B",
                line,
                col,
            )
            nt.add("onecell", toks[1][0], line, toks[1][1])
            one_decl.append((toks[1], toks[3], toks[5], line))
        elif head == "twocell":
            _expect(
                len(toks) == 6 and toks[2][0] == ":" and toks[4][0] == "=>",
                "expected: twocell s : f => g",
                line,
                col,
            )
            nt.add("twocell", toks[1][0], line, toks[1][1])
            two_decl.append((toks[1], toks[3], toks[5], line))
        elif head in table_decl:
            _expect(len(toks) == 5 and toks[3][0] == "=", f"expected: {head} a b = c", line, col)
            table_decl[head].append((toks[1], toks[2], toks[4], line))
        elif head in ("id1", "id2"):
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} x = y", line, col)
            id_decl[head].append((toks[1], toks[3], line))
        elif bicategory and head in ("assoc", "associnv"):
            _expect(len(toks) == 6 and toks[4][0] == "=", f"expected: {head} f g h = s", line, col)
            constraint_decl[head].append((toks[1], toks[2], toks[3], toks[5], line))
        elif bicategory and head in ("lunit", "lunitinv", "runit", "runitinv"):
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} f = s", line, col)
            constraint_decl[head].append((toks[1], toks[3], line))
        else:
            raise ParseError(f"unknown keyword {head!r}", line, col)
    n = len(nt.names["object"])
    id1 = [None] * n
    for (an, ac), (cn, cc), line in id_decl["id1"]:
        id1[nt.get("object", an, line, ac)] = nt.get("onecell", cn, line, cc)
    for a, ob in enumerate(nt.names["object"]):
        if id1[a] is None:
            id1[a] = nt.add("onecell", f"1_{ob}", header_line, 1)
    onecells = [None] * len(nt.names["onecell"])
    for (cn, cc), (sn, sc), (tn, tc), line in one_decl:
        onecells[nt.get("onecell", cn, line, cc)] = (
            nt.get("object", sn, line, sc),
            nt.get("object", tn, line, tc),
        )
    for a, i in enumerate(id1):
        if onecells[i] is None:
            onecells[i] = (a, a)
    id2 = [None] * len(nt.names["onecell"])
    for (fn, fc), (cn, cc), line in id_decl["id2"]:
        id2[nt.get("onecell", fn, line, fc)] = nt.get("twocell", cn, line, cc)
    for f, fname in enumerate(nt.names["onecell"]):
        if id2[f] is None:
            id2[f] = nt.add("twocell", f"I_{fname}", header_line, 1)
    twocells = [None] * len(nt.names["twocell"])
    for (cn, cc), (sn, sc), (tn, tc), line in two_decl:
        twocells[nt.get("twocell", cn, line, cc)] = (
            nt.get("onecell", sn, line, sc),
            nt.get("onecell", tn, line, tc),
        )
    for f, i in enumerate(id2):
        if twocells[i] is None:
            twocells[i] = (f, f)
    comp1 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["comp"]:
        comp1[(nt.get("onecell", an, line, ac), nt.get("onecell", bn, line, bc))] = nt.get(
            "onecell", cn, line, cc
        )
    for f, (a, b) in enumerate(onecells):
        comp1.setdefault((id1[a], f), f)
        comp1.setdefault((f, id1[b]), f)
    vcomp2 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["vcc"]:
        vcomp2[(nt.get("twocell", an, line, ac), nt.get("twocell", bn, line, bc))] = nt.get(
            "twocell", cn, line, cc
        )
    for x, (f, g) in enumerate(twocells):
        vcomp2.setdefault((id2[f], x), x)
        vcomp2.setdefault((x, id2[g]), x)
    hcomp2 = {}
    for (an, ac), (bn, bc), (cn, cc), line in table_decl["hcc"]:
        hcomp2[(nt.get("twocell", an, line, ac), nt.get("twocell", bn, line, bc))] = nt.get(
            "twocell", cn, line, cc
        )
    id2_set = set(id2)
    for x in id2_set:
        for y in id2_set:
            f, g = twocells[x][0], twocells[y][0]
            if onecells[f][1] == onecells[g][0]:
                hcomp2.setdefault((x, y), id2[comp1[(f, g)]])
    for x, (f, g) in enumerate(twocells):
        a, b = onecells[f]
        hcomp2.setdefault((id2[id1[a]], x), x)
        hcomp2.setdefault((x, id2[id1[b]]), x)
    names = {
        "objects": nt.names["object"],
        "onecell": nt.names["onecell"],
        "twocell": nt.names["twocell"],
    }
    try:
        if not bicategory:
            obj = TwoCategory(n, onecells, twocells, comp1, vcomp2, hcomp2, id1, id2, names=names)
            return Declaration("twocategory", name, obj, names=nt.index)
        assoc, assoc_inv = {}, {}
        for key, target in (("assoc", assoc), ("associnv", assoc_inv)):
            for (fn, fc), (gn, gc), (hn, hc), (sn, sc), line in constraint_decl[key]:
                target[
                    (
                        nt.get("onecell", fn, line, fc),
                        nt.get("onecell", gn, line, gc),
                        nt.get("onecell", hn, line, hc),
                    )
                ] = nt.get("twocell", sn, line, sc)
        n1 = len(onecells)
        lunit = [None] * n1
        lunit_inv = [None] * n1
        runit = [None] * n1
        runit_inv = [None] * n1
        for key, target in (
            ("lunit", lunit),
            ("lunitinv", lunit_inv),
            ("runit", runit),
            ("runitinv", runit_inv),
        ):
            for (fn, fc), (sn, sc), line in constraint_decl[key]:
                target[nt.get("onecell", fn, line, fc)] = nt.get("twocell", sn, line, sc)
        # unspecified constraints default to identities
        for f in range(n1):
            a, b = onecells[f]
            if lunit[f] is None:
                lunit[f] = id2[comp1[(id1[a], f)]]
            if lunit_inv[f] is None:
                lunit_inv[f] = lunit[f] if twocells[lunit[f]][0] == twocells[lunit[f]][1] else None
            if runit[f] is None:
                runit[f] = id2[comp1[(f, id1[b])]]
            if runit_inv[f] is None:
                runit_inv[f] = runit[f] if twocells[runit[f]][0] == twocells[runit[f]][1] else None
        for (f, g) in list(comp1):
            for h in range(n1):
                if onecells[g][1] == onecells[h][0]:
                    key = (f, g, h)
                    if key not in assoc:
                        assoc[key] = id2[comp1[(comp1[(f, g)], h)]]
                        assoc_inv.setdefault(key, assoc[key])
        obj = Bicategory(
            n,
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
            names=names,
        )
        return Declaration("bicategory", name, obj, names=nt.index)
    except StructureError as e:
        raise ParseError(str(e), header_line) from None


def _parse_functor_block(cur, doc, name, sig, header_line):
    _expect(len(sig) == 3 and sig[1][0] == "->", "expected: functor F : C -> D {", header_line)
    dom_decl = doc.get(sig[0][0], ("category",), header_line, sig[0][1])
    cod_decl = doc.get(sig[2][0], ("category",), header_line, sig[2][1])
    dom, cod = dom_decl.obj, cod_decl.obj
    kind = "strict"
    maps = {"ob": {}, "hcell": {}, "vcell": {}, "square": {}}
    cells = {k: {} for k in ("comph", "comphinv", "unith", "unithinv", "compv", "compvinv", "unitv", "unitvinv")}
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "kind":
            _expect(len(toks) == 2 and toks[1][0] in ("strict", "pseudo"), "expected: kind strict|pseudo", line, col)
            kind = toks[1][0]
        elif head in ("ob", "hcell", "vcell", "square"):
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} x = y", line, col)
            dk = "object" if head == "ob" else head
            src = dom_decl.names[dk].get(toks[1][0])
            _expect(src is not None, f"unknown {dk} {toks[1][0]!r}", line, toks[1][1])
            tgt = cod_decl.names[dk].get(toks[3][0])
            _expect(tgt is not None, f"unknown {dk} {toks[3][0]!r}", line, toks[3][1])
            maps[head][src] = tgt
        elif head in ("comph", "comphinv", "compv", "compvinv"):
            _expect(len(toks) == 5 and toks[3][0] == "=", f"expected: {head} x y = s", line, col)
            dk = "hcell" if head.startswith("comph") else "vcell"
            a = dom_decl.names[dk].get(toks[1][0])
            b = dom_decl.names[dk].get(toks[2][0])
            s = cod_decl.names["square"].get(toks[4][0])
            _expect(None not in (a, b, s), "unresolved cell in structure entry", line, col)
            cells[head][(a, b)] = s
        elif head in ("unith", "unithinv", "unitv", "unitvinv"):
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} A = s", line, col)
            a = dom_decl.names["object"].get(toks[1][0])
            s = cod_decl.names["square"].get(toks[3][0])
            _expect(None not in (a, s), "unresolved cell in structure entry", line, col)
            cells[head][a] = s
        else:
            raise ParseError(f"unknown keyword {head!r} in functor", line, col)

    def total(mapping, count, what):
        out = []
        for i in range(count):
            _expect(i in mapping, f"missing image for {what} {i}", header_line)
            out.append(mapping[i])
        return out

    ob_map = total(maps["ob"], dom.n_objects, "object")
    h_map = total(maps["hcell"], len(dom.hcells), "hcell")
    v_map = total(maps["vcell"], len(dom.vcells), "vcell")
    sq_map = total(maps["square"], len(dom.squares), "square")
    try:
        strict = StrictDoubleFunctor(dom, cod, ob_map, h_map, v_map, sq_map, name=name)
        if kind == "strict":
            return Declaration("functor", name, pseudo_from_strict(strict), meta={"strict": True, "dom": sig[0][0], "cod": sig[2][0]})
        base = pseudo_from_strict(strict)
        for key, table in (
            ("comph", base.comp_h),
            ("comphinv", base.comp_h_inv),
            ("compv", base.comp_v),
            ("compvinv", base.comp_v_inv),
            ("unith", base.unit_h),
            ("unithinv", base.unit_h_inv),
            ("unitv", base.unit_v),
            ("unitvinv", base.unit_v_inv),
        ):
            table.update(cells[key])
        return Declaration("functor", name, base, meta={"strict": False, "dom": sig[0][0], "cod": sig[2][0]})
    except StructureError as e:
        raise ParseError(str(e), header_line) from None


def _parse_transformation_block(cur, doc, name, sig, header_line):
    _expect(len(sig) == 3 and sig[1][0] == "=>", "expected: transformation a : F => G {", header_line)
    f_decl = doc.get(sig[0][0], "functor", header_line, sig[0][1])
    g_decl = doc.get(sig[2][0], "functor", header_line, sig[2][1])
    F, G = f_decl.obj, g_decl.obj
    dom_decl = doc.get(f_decl.meta["dom"], None, header_line)
    cod_decl = doc.get(f_decl.meta["cod"], None, header_line)
    kind = None
    slots = {
        k: {}
        for k in (
            "comp0",
            "nat0",
            "delta0",
            "delta0inv",
            "comp1",
            "nat1",
            "delta1",
            "delta1inv",
            "t",
            "r",
            "theta",
        )
    }
    keyspec = {
        "comp0": ("object", "vcell"),
        "nat0": ("hcell", "square"),
        "delta0": ("vcell", "square"),
        "delta0inv": ("vcell", "square"),
        "comp1": ("object", "hcell"),
        "nat1": ("vcell", "square"),
        "delta1": ("hcell", "square"),
        "delta1inv": ("hcell", "square"),
        "t": ("hcell", "square"),
        "r": ("vcell", "square"),
        "theta": ("object", "square"),
    }
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "kind":
            _expect(
                len(toks) == 2 and toks[1][0] in ("horizontal", "vertical", "double", "theta"),
                "expected: kind horizontal|vertical|double|theta",
                line,
                col,
            )
            kind = toks[1][0]
        elif head in slots:
            _expect(len(toks) == 4 and toks[2][0] == "=", f"expected: {head} x = y", line, col)
            dk, ck = keyspec[head]
            key = dom_decl.names[dk].get(toks[1][0])
            _expect(key is not None, f"unknown {dk} {toks[1][0]!r}", line, toks[1][1])
            val = cod_decl.names[ck].get(toks[3][0])
            _expect(val is not None, f"unknown {ck} {toks[3][0]!r}", line, toks[3][1])
            slots[head][key] = val
        else:
            raise ParseError(f"unknown keyword {head!r} in transformation", line, col)
    _expect(kind is not None, "transformation block needs a kind line", header_line)
    dom = F.dom

    def full(slot, count, what):
        data = slots[slot]
        out = []
        for i in range(count):
            _expect(i in data, f"missing {slot} entry for {what} {i}", header_line)
            out.append(data[i])
        return tuple(out)

    try:
        if kind in ("vertical", "double", "theta"):
            v0 = VerticalPNT(
                F,
                G,
                full("comp0", dom.n_objects, "object"),
                full("nat0", len(dom.hcells), "hcell"),
                full("delta0", len(dom.vcells), "vcell"),
                dict(slots["delta0inv"]),
            )
        if kind in ("horizontal", "double", "theta"):
            h1 = HorizontalPNT(
                F,
                G,
                full("comp1", dom.n_objects, "object"),
                full("nat1", len(dom.vcells), "vcell"),
                full("delta1", len(dom.hcells), "hcell"),
                dict(slots["delta1inv"]),
            )
        if kind == "vertical":
            obj = v0
        elif kind == "horizontal":
            obj = h1
        elif kind == "double":
            obj = DoublePNT(v0, h1, full("t", len(dom.hcells), "hcell"), full("r", len(dom.vcells), "vcell"))
        else:
            obj = ThetaPNT(v0, h1, full("theta", dom.n_objects, "object"))
    except StructureError as e:
        raise ParseError(str(e), header_line) from None
    return Declaration(
        "transformation",
        name,
        obj,
        meta={"kind": kind, "from": sig[0][0], "to": sig[2][0], "dom": f_decl.meta["dom"], "cod": f_decl.meta["cod"]},
    )


def _parse_connection_block(cur, doc, name, sig, header_line):
    _expect(len(sig) == 2 and sig[0][0] == "on", "expected: connection k on D {", header_line)
    cat_decl = doc.get(sig[1][0], "category", header_line, sig[1][1])
    d = cat_decl.obj
    pairs = []
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        _expect(head == "pair" and len(toks) == 6 and toks[2][0] == "=", "expected: pair u = ustar eps eta", line, col)
        u = cat_decl.names["vcell"].get(toks[1][0])
        f = cat_decl.names["hcell"].get(toks[3][0])
        eps = cat_decl.names["square"].get(toks[4][0])
        eta = cat_decl.names["square"].get(toks[5][0])
        _expect(None not in (u, f, eps, eta), "unresolved cell in pair", line, col)
        pairs.append(CompanionPair(u, f, eps, eta))
    try:
        conn = Connection(d, pairs)
    except StructureError as e:
        raise ParseError(str(e), header_line) from None
    return Declaration("connection", name, conn, meta={"on": sig[1][0]})


def _parse_modification_block(cur, doc, name, sig, header_line):
    _expect(len(sig) == 3 and sig[1][0] == "=>", "expected: modification m : a => b {", header_line)
    a_decl = doc.get(sig[0][0], "transformation", header_line, sig[0][1])
    b_decl = doc.get(sig[2][0], "transformation", header_line, sig[2][1])
    _expect(
        a_decl.meta["kind"] == "double" and b_decl.meta["kind"] == "double",
        "modifications relate coupled (kind double) transformations",
        header_line,
    )
    dom_decl = doc.get(a_decl.meta["dom"], None, header_line)
    cod_decl = doc.get(a_decl.meta["cod"], None, header_line)
    a0, a1 = {}, {}
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        _expect(head in ("a0", "a1") and len(toks) == 4 and toks[2][0] == "=", "expected: a0 A = s", line, col)
        key = dom_decl.names["object"].get(toks[1][0])
        val = cod_decl.names["square"].get(toks[3][0])
        _expect(None not in (key, val), "unresolved cell in modification", line, col)
        (a0 if head == "a0" else a1)[key] = val
    n = a_decl.obj.F.dom.n_objects
    try:
        obj = DoubleModification(
            a_decl.obj,
            b_decl.obj,
            [a0[i] for i in range(n)],
            [a1[i] for i in range(n)],
        )
    except (StructureError, KeyError) as e:
        raise ParseError(str(e), header_line) from None
    return Declaration("modification", name, obj, meta={"from": sig[0][0], "to": sig[2][0]})


def _parse_monoid_block(cur, doc, name, sig, header_line):
    _expect(len(sig) == 2 and sig[0][0] == "on", "expected: monoid M on D {", header_line)
    cat_decl = doc.get(sig[1][0], "category", header_line, sig[1][1])
    d = cat_decl.obj
    nm = cat_decl.names
    unit = None
    tables = {
        "obmul": {},
        "hleft": {},
        "hright": {},
        "vleft": {},
        "vright": {},
        "sqleft": {},
        "sqright": {},
        "fliph": {},
        "fliphinv": {},
        "flipv": {},
        "flipvinv": {},
        "mixhv": {},
        "mixvh": {},
    }
    spec = {
        "obmul": ("object", "object", "object"),
        "hleft": ("hcell", "object", "hcell"),
        "hright": ("object", "hcell", "hcell"),
        "vleft": ("vcell", "object", "vcell"),
        "vright": ("object", "vcell", "vcell"),
        "sqleft": ("square", "object", "square"),
        "sqright": ("object", "square", "square"),
        "fliph": ("hcell", "hcell", "square"),
        "fliphinv": ("hcell", "hcell", "square"),
        "flipv": ("vcell", "vcell", "square"),
        "flipvinv": ("vcell", "vcell", "square"),
        "mixhv": ("hcell", "vcell", "square"),
        "mixvh": ("vcell", "hcell", "square"),
    }
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head == "unit":
            _expect(len(toks) == 2, "expected: unit I", line, col)
            unit = nm["object"].get(toks[1][0])
            _expect(unit is not None, f"unknown object {toks[1][0]!r}", line, toks[1][1])
        elif head in tables:
            _expect(len(toks) == 5 and toks[3][0] == "=", f"expected: {head} x y = z", line, col)
            k1, k2, k3 = spec[head]
            a = nm[k1].get(toks[1][0])
            b = nm[k2].get(toks[2][0])
            c = nm[k3].get(toks[4][0])
            _expect(None not in (a, b, c), "unresolved cell in monoid entry", line, col)
            tables[head][(a, b)] = c
        else:
            raise ParseError(f"unknown keyword {head!r} in monoid", line, col)
    _expect(unit is not None, "monoid block needs a unit line", header_line)
    obj = MonoidInDbl(
        d,
        unit,
        tables["obmul"],
        tables["hleft"],
        tables["hright"],
        tables["vleft"],
        tables["vright"],
        tables["sqleft"],
        tables["sqright"],
        tables["fliph"],
        tables["fliphinv"],
        tables["flipv"],
        tables["flipvinv"],
        tables["mixhv"],
        tables["mixvh"],
    )
    return Declaration("monoid", name, obj, meta={"on": sig[1][0]})


def _parse_tensor_block(cur, doc, name, header_line):
    left = right = None
    cap = 4
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        if head in ("left", "right"):
            _expect(len(toks) == 2, f"expected: {head} NAME", line, col)
            doc.get(toks[1][0], "twocategory", line, toks[1][1])
            if head == "left":
                left = toks[1][0]
            else:
                right = toks[1][0]
        elif head == "cap":
            _expect(len(toks) == 2 and toks[1][0].isdigit(), "expected: cap N", line, col)
            cap = int(toks[1][0])
        else:
            raise ParseError(f"unknown keyword {head!r} in tensor", line, col)
    _expect(left is not None and right is not None, "tensor block needs left and right", header_line)
    return Declaration("tensor", name, TensorDecl(left, right, cap))


def _parse_internal_block(cur, doc, name, header_line):
    refs = {}
    wanted = {"d0", "d1", "s", "t", "u", "p", "p1", "p2", "m", "assoc", "lunit", "runit"}
    while True:
        line, toks = cur.next_tokens()
        _expect(toks is not None, "unterminated block", header_line)
        head, col = toks[0]
        if head == "}":
            break
        _expect(head in wanted and len(toks) == 3 and toks[1][0] == "=", "expected: <slot> = NAME", line, col)
        doc.get(toks[2][0], None, line, toks[2][1])
        refs[head] = toks[2][0]
    for slot in ("d0", "d1", "s", "t", "u", "p", "p1", "p2", "m"):
        _expect(slot in refs, f"internal block is missing slot {slot!r}", header_line)
    return Declaration("internal", name, InternalDecl(refs))


# ---------------------------------------------------------------------------
# entry points

_BLOCK_KINDS = frozenset(
    {
        "fincategory",
        "category",
        "twocategory",
        "bicategory",
        "tensor",
        "internal",
        "functor",
        "transformation",
        "connection",
        "modification",
        "monoid",
    }
)


def parse(text: str) -> Document:
    doc = Document()
    cur = _Cursor(text)
    while True:
        line, toks = cur.next_tokens()
        if toks is None:
            return doc
        head, col = toks[0]
        if head not in _BLOCK_KINDS:
            raise ParseError(f"unknown block kind {head!r}", line, col)
        _expect(len(toks) >= 3 and toks[-1][0] == "{", "block header must end with '{'", line, col)
        name = toks[1][0]
        sig = toks[2:-1]
        if head == "fincategory":
            _expect(not sig, "fincategory header takes no signature", line, col)
            decl = _parse_fincategory_block(cur, doc, name, line)
        elif head == "category":
            _expect(not sig, "category header takes no signature", line, col)
            decl = _parse_category_block(cur, doc, name, line)
        elif head == "twocategory":
            _expect(not sig, "twocategory header takes no signature", line, col)
            decl = _parse_twocategory_block(cur, doc, name, line)
        elif head == "bicategory":
            _expect(not sig, "bicategory header takes no signature", line, col)
            decl = _parse_twocategory_block(cur, doc, name, line, bicategory=True)
        elif head == "tensor":
            decl = _parse_tensor_block(cur, doc, name, line)
        elif head == "internal":
            decl = _parse_internal_block(cur, doc, name, line)
        elif head == "functor":
            _expect(sig and sig[0][0] == ":", "expected: functor F : C -> D {", line, col)
            decl = _parse_functor_block(cur, doc, name, sig[1:], line)
        elif head == "transformation":
            _expect(sig and sig[0][0] == ":", "expected: transformation a : F => G {", line, col)
            decl = _parse_transformation_block(cur, doc, name, sig[1:], line)
        elif head == "connection":
            decl = _parse_connection_block(cur, doc, name, sig, line)
        elif head == "modification":
            _expect(sig and sig[0][0] == ":", "expected: modification m : a => b {", line, col)
            decl = _parse_modification_block(cur, doc, name, sig[1:], line)
        elif head == "monoid":
            decl = _parse_monoid_block(cur, doc, name, sig, line)
        doc.add(decl, line)


# ---------------------------------------------------------------------------
# serialization


def canonical_cell_names(decl: Declaration) -> dict:
    """The declaration's cell names; every cell is serialized explicitly so
    the stored names are authoritative."""
    obj = decl.obj
    if decl.kind == "fincategory":
        return {"object": obj.names["objects"], "mor": obj.names["mor"]}
    if decl.kind == "category":
        return {
            "object": obj.names["object"],
            "hcell": obj.names["hcell"],
            "vcell": obj.names["vcell"],
            "square": obj.names["square"],
        }
    if decl.kind in ("twocategory", "bicategory"):
        return {
            "objects": obj.names["objects"],
            "object": obj.names["objects"],
            "onecell": obj.names["onecell"],
            "twocell": obj.names["twocell"],
        }
    raise StructureError(f"no cell names for declaration kind {decl.kind}")


def serialize(doc: Document) -> str:
    out = []
    for name in doc.order:
        decl = doc.decls[name]
        out.append(_serialize_decl(doc, decl))
    return "\n".join(out)


def _serialize_decl(doc: Document, decl: Declaration) -> str:
    w = []
    if decl.kind == "fincategory":
        c = decl.obj
        obs = c.names.get("objects") or [f"o{a}" for a in range(c.n_objects)]
        mors = c.names["mor"]
        w.append(f"fincategory {decl.name} {{")
        w.append("  objects " + " ".join(obs))
        for f, (a, b) in enumerate(c.mor):
            w.append(f"  mor {mors[f]} : {obs[a]} -> {obs[b]}")
        for a, i in enumerate(c.ids):
            w.append(f"  idm {obs[a]} = {mors[i]}")
        for (f, g), h in sorted(c.comp.items()):
            if (f == c.ids[c.src(f)] and h == g) or (g == c.ids[c.tgt(f)] and h == f):
                continue
            w.append(f"  comp {mors[f]} {mors[g]} = {mors[h]}")
        w.append("}")
    elif decl.kind == "category":
        d = decl.obj
        obs = d.names["object"]
        hs, vs, sq = d.names["hcell"], d.names["vcell"], d.names["square"]
        w.append(f"category {decl.name} {{")
        w.append("  objects " + " ".join(obs))
        for f, (a, b) in enumerate(d.hcells):
            w.append(f"  hcell {hs[f]} : {obs[a]} -> {obs[b]}")
        for u, (a, b) in enumerate(d.vcells):
            w.append(f"  vcell {vs[u]} : {obs[a]} -> {obs[b]}")
        for s, (t, b, l, r) in enumerate(d.squares):
            w.append(f"  square {sq[s]} : {hs[t]} {hs[b]} | {vs[l]} {vs[r]}")
        for a in range(d.n_objects):
            w.append(f"  idh {obs[a]} = {hs[d.hid[a]]}")
            w.append(f"  idv {obs[a]} = {vs[d.vid[a]]}")
        for f in range(len(d.hcells)):
            w.append(f"  idsq {hs[f]} = {sq[d.sq_vid[f]]}")
        for u in range(len(d.vcells)):
            w.append(f"  idsqv {vs[u]} = {sq[d.sq_hid[u]]}")
        for (f, g), h in sorted(d.hcomp1.items()):
            if (f == d.hid[d.hs(f)] and h == g) or (g == d.hid[d.ht(f)] and h == f):
                continue
            w.append(f"  hcomp {hs[f]} {hs[g]} = {hs[h]}")
        for (u, v), x in sorted(d.vcomp1.items()):
            if (u == d.vid[d.vs(u)] and x == v) or (v == d.vid[d.vt(u)] and x == u):
                continue
            w.append(f"  vcomp {vs[u]} {vs[v]} = {vs[x]}")
        # only entries the loader cannot rederive from unique boundaries
        derivable = _derivable_square_entries(d)
        for (a, b), c in sorted(d.hcomp2.items()):
            if ("h", a, b) in derivable:
                continue
            w.append(f"  hsq {sq[a]} {sq[b]} = {sq[c]}")
        for (a, b), c in sorted(d.vcomp2.items()):
            if ("v", a, b) in derivable:
                continue
            w.append(f"  vsq {sq[a]} {sq[b]} = {sq[c]}")
        w.append("}")
    elif decl.kind in ("twocategory", "bicategory"):
        t = decl.obj
        obs = t.names["objects"]
        ones, twos = t.names["onecell"], t.names["twocell"]
        w.append(f"{decl.kind} {decl.name} {{")
        w.append("  objects " + " ".join(obs))
        for f, (a, b) in enumerate(t.onecells):
            w.append(f"  onecell {ones[f]} : {obs[a]} -> {obs[b]}")
        for x, (f, g) in enumerate(t.twocells):
            w.append(f"  twocell {twos[x]} : {ones[f]} => {ones[g]}")
        for a in range(t.n_objects):
            w.append(f"  id1 {obs[a]} = {ones[t.id1[a]]}")
        for f in range(len(t.onecells)):
            w.append(f"  id2 {ones[f]} = {twos[t.id2[f]]}")
        for (f, g), h in sorted(t.comp1.items()):
            if (f == t.id1[t.s1(f)] and h == g) or (g == t.id1[t.t1(f)] and h == f):
                continue
            w.append(f"  comp {ones[f]} {ones[g]} = {ones[h]}")
        for (x, y), z in sorted(t.vcomp2.items()):
            if (x == t.id2[t.s2(x)] and z == y) or (y == t.id2[t.t2(x)] and z == x):
                continue
            w.append(f"  vcc {twos[x]} {twos[y]} = {twos[z]}")
        id2_set = set(t.id2)
        for (x, y), z in sorted(t.hcomp2.items()):
            if x in id2_set and y in id2_set and z == t.id2[t.then1(t.s2(x), t.s2(y))]:
                continue
            if x == t.id2[t.id1[t.s1(t.s2(y))]] and z == y:
                continue
            if y == t.id2[t.id1[t.t1(t.s2(x))]] and z == x:
                continue
            w.append(f"  hcc {twos[x]} {twos[y]} = {twos[z]}")
        if decl.kind == "bicategory":
            for (f, g, h), s in sorted(t.assoc.items()):
                if s != t.id2[t.then1(t.then1(f, g), h)]:
                    w.append(f"  assoc {ones[f]} {ones[g]} {ones[h]} = {twos[s]}")
                    w.append(f"  associnv {ones[f]} {ones[g]} {ones[h]} = {twos[t.assoc_inv[(f, g, h)]]}")
            for f in range(len(t.onecells)):
                if t.lunit[f] != t.id2[t.then1(t.id1[t.s1(f)], f)]:
                    w.append(f"  lunit {ones[f]} = {twos[t.lunit[f]]}")
                    w.append(f"  lunitinv {ones[f]} = {twos[t.lunit_inv[f]]}")
                if t.runit[f] != t.id2[t.then1(f, t.id1[t.t1(f)])]:
                    w.append(f"  runit {ones[f]} = {twos[t.runit[f]]}")
                    w.append(f"  runitinv {ones[f]} = {twos[t.runit_inv[f]]}")
        w.append("}")
    elif decl.kind == "functor":
        f = decl.obj
        dom_decl = doc.decls[decl.meta["dom"]]
        cod_decl = doc.decls[decl.meta["cod"]]
        dn, cn = canonical_cell_names(dom_decl), canonical_cell_names(cod_decl)
        w.append(f"functor {decl.name} : {decl.meta['dom']} -> {decl.meta['cod']} {{")
        w.append("  kind " + ("strict" if decl.meta.get("strict") else "pseudo"))
        for a in range(f.dom.n_objects):
            w.append(f"  ob {dn['object'][a]} = {cn['object'][f.ob(a)]}")
        for x in range(len(f.dom.hcells)):
            w.append(f"  hcell {dn['hcell'][x]} = {cn['hcell'][f.h(x)]}")
        for x in range(len(f.dom.vcells)):
            w.append(f"  vcell {dn['vcell'][x]} = {cn['vcell'][f.v(x)]}")
        for x in range(len(f.dom.squares)):
            w.append(f"  square {dn['square'][x]} = {cn['square'][f.sq(x)]}")
        if not decl.meta.get("strict"):
            for (a, b), s in sorted(f.comp_h.items()):
                w.append(f"  comph {dn['hcell'][a]} {dn['hcell'][b]} = {cn['square'][s]}")
                w.append(f"  comphinv {dn['hcell'][a]} {dn['hcell'][b]} = {cn['square'][f.comp_h_inv[(a, b)]]}")
            for (a, b), s in sorted(f.comp_v.items()):
                w.append(f"  compv {dn['vcell'][a]} {dn['vcell'][b]} = {cn['square'][s]}")
                w.append(f"  compvinv {dn['vcell'][a]} {dn['vcell'][b]} = {cn['square'][f.comp_v_inv[(a, b)]]}")
            for a, s in sorted(f.unit_h.items()):
                w.append(f"  unith {dn['object'][a]} = {cn['square'][s]}")
                w.append(f"  unithinv {dn['object'][a]} = {cn['square'][f.unit_h_inv[a]]}")
            for a, s in sorted(f.unit_v.items()):
                w.append(f"  unitv {dn['object'][a]} = {cn['square'][s]}")
                w.append(f"  unitvinv {dn['object'][a]} = {cn['square'][f.unit_v_inv[a]]}")
        w.append("}")
    elif decl.kind == "transformation":
        obj = decl.obj
        dom_decl = doc.decls[decl.meta["dom"]]
        cod_decl = doc.decls[decl.meta["cod"]]
        dn, cn = canonical_cell_names(dom_decl), canonical_cell_names(cod_decl)
        w.append(
            f"transformation {decl.name} : {decl.meta['from']} => {decl.meta['to']} {{"
        )
        kind = decl.meta["kind"]
        w.append(f"  kind {kind}")

        def dump_vertical(v0):
            for o, c in enumerate(v0.comp):
                w.append(f"  comp0 {dn['object'][o]} = {cn['vcell'][c]}")
            for x, s in enumerate(v0.nat):
                w.append(f"  nat0 {dn['hcell'][x]} = {cn['square'][s]}")
            for x, s in enumerate(v0.delta):
                w.append(f"  delta0 {dn['vcell'][x]} = {cn['square'][s]}")
            for x, s in sorted(v0.delta_inv.items()):
                w.append(f"  delta0inv {dn['vcell'][x]} = {cn['square'][s]}")

        def dump_horizontal(h1):
            for o, c in enumerate(h1.comp):
                w.append(f"  comp1 {dn['object'][o]} = {cn['hcell'][c]}")
            for x, s in enumerate(h1.nat):
                w.append(f"  nat1 {dn['vcell'][x]} = {cn['square'][s]}")
            for x, s in enumerate(h1.delta):
                w.append(f"  delta1 {dn['hcell'][x]} = {cn['square'][s]}")
            for x, s in sorted(h1.delta_inv.items()):
                w.append(f"  delta1inv {dn['hcell'][x]} = {cn['square'][s]}")

        if kind == "vertical":
            dump_vertical(obj)
        elif kind == "horizontal":
            dump_horizontal(obj)
        elif kind == "double":
            dump_vertical(obj.v0)
            dump_horizontal(obj.h1)
            for x, s in enumerate(obj.t):
                w.append(f"  t {dn['hcell'][x]} = {cn['square'][s]}")
            for x, s in enumerate(obj.r):
                w.append(f"  r {dn['vcell'][x]} = {cn['square'][s]}")
        else:
            dump_vertical(obj.v0)
            dump_horizontal(obj.h1)
            for o, s in enumerate(obj.theta):
                w.append(f"  theta {dn['object'][o]} = {cn['square'][s]}")
        w.append("}")
    elif decl.kind == "connection":
        conn = decl.obj
        cat_decl = doc.decls[decl.meta["on"]]
        nm = canonical_cell_names(cat_decl)
        w.append(f"connection {decl.name} on {decl.meta['on']} {{")
        for u, p in conn.items():
            w.append(
                f"  pair {nm['vcell'][u]} = {nm['hcell'][p.hcell]} {nm['square'][p.eps]} {nm['square'][p.eta]}"
            )
        w.append("}")
    elif decl.kind == "modification":
        m = decl.obj
        from_decl = doc.decls[decl.meta["from"]]
        dom_decl = doc.decls[from_decl.meta["dom"]]
        cod_decl = doc.decls[from_decl.meta["cod"]]
        dn, cn = canonical_cell_names(dom_decl), canonical_cell_names(cod_decl)
        w.append(f"modification {decl.name} : {decl.meta['from']} => {decl.meta['to']} {{")
        for o, s in enumerate(m.a0):
            w.append(f"  a0 {dn['object'][o]} = {cn['square'][s]}")
        for o, s in enumerate(m.a1):
            w.append(f"  a1 {dn['object'][o]} = {cn['square'][s]}")
        w.append("}")
    elif decl.kind == "monoid":
        mo = decl.obj
        cat_decl = doc.decls[decl.meta["on"]]
        nm = canonical_cell_names(cat_decl)
        w.append(f"monoid {decl.name} on {decl.meta['on']} {{")
        w.append(f"  unit {nm['object'][mo.unit_ob]}")
        rows = [
            ("obmul", mo.mul_ob, "object", "object", "object"),
            ("hleft", mo.mul_h_left, "hcell", "object", "hcell"),
            ("hright", mo.mul_h_right, "object", "hcell", "hcell"),
            ("vleft", mo.mul_v_left, "vcell", "object", "vcell"),
            ("vright", mo.mul_v_right, "object", "vcell", "vcell"),
            ("sqleft", mo.mul_sq_left, "square", "object", "square"),
            ("sqright", mo.mul_sq_right, "object", "square", "square"),
            ("fliph", mo.flip_hh, "hcell", "hcell", "square"),
            ("fliphinv", mo.flip_hh_inv, "hcell", "hcell", "square"),
            ("flipv", mo.flip_vv, "vcell", "vcell", "square"),
            ("flipvinv", mo.flip_vv_inv, "vcell", "vcell", "square"),
            ("mixhv", mo.mixed_hv, "hcell", "vcell", "square"),
            ("mixvh", mo.mixed_vh, "vcell", "hcell", "square"),
        ]
        for key, table, k1, k2, k3 in rows:
            for (a, b), c in sorted(table.items()):
                w.append(f"  {key} {nm[k1][a]} {nm[k2][b]} = {nm[k3][c]}")
        w.append("}")
    elif decl.kind == "tensor":
        t = decl.obj
        w.append(f"tensor {decl.name} {{")
        w.append(f"  left {t.left}")
        w.append(f"  right {t.right}")
        w.append(f"  cap {t.cap}")
        w.append("}")
    elif decl.kind == "internal":
        w.append(f"internal {decl.name} {{")
        for slot, ref in decl.obj.refs.items():
            w.append(f"  {slot} = {ref}")
        w.append("}")
    else:
        raise StructureError(f"cannot serialize declaration kind {decl.kind}")
    w.append("")
    return "\n".join(w)


def _derivable_square_entries(d: DoubleCategory):
    """Entries the loader's unit auto-fill reconstructs from boundaries."""
    out = set()
    counts = {}
    for bnd in d.squares:
        counts[bnd] = counts.get(bnd, 0) + 1
    sq_index = {bnd: i for i, bnd in enumerate(d.squares) if counts[bnd] == 1}
    for (a, b), c in d.hcomp2.items():
        bnd = (
            d.hcomp1.get((d.top(a), d.top(b))),
            d.hcomp1.get((d.bottom(a), d.bottom(b))),
            d.left(a),
            d.right(b),
        )
        if sq_index.get(bnd) == c:
            out.add(("h", a, b))
    for (a, b), c in d.vcomp2.items():
        bnd = (
            d.top(a),
            d.bottom(b),
            d.vcomp1.get((d.left(a), d.left(b))),
            d.vcomp1.get((d.right(a), d.right(b))),
        )
        if sq_index.get(bnd) == c:
            out.add(("v", a, b))
    return out
