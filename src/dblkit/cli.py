"""Command line: check declared structures, construct derived ones, compare
tensor words, and explain axiom names.

Exit codes: 0 all checks pass, 1 at least one violation, 2 inconclusive or
budget exceeded, 3 usage/parse/structure error.  Defaults for --max-tuples
and --word-cap can be overridden with the DBLKIT_MAX_TUPLES and
DBLKIT_WORD_CAP environment variables, read at each call of ``main`` (the
argument parser is built once per process, at the first call); a negative
or non-integer value is ignored there, and is a usage error as an option.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from . import dsl
from .dsl import Declaration, Document, InternalDecl, ParseError, TensorDecl
from .kernel import (
    StructureError,
    check_double_category,
    check_two_category,
    embed_two_category,
    horizontal_two_category,
    product,
    pullback,
    quintet,
    transpose,
)
from .functors import (
    check_double_pseudo_functor,
    check_strict_functor,
    check_cubical,
    cubical_from_product_functor,
    curry,
    uncurry,
    pseudo_from_strict,
    pullback_projections,
    StrictDoubleFunctor,
)
from .graytensor import (
    Letter,
    cartesian_collapse,
    check_monoid,
    check_monoidal_embedding,
    derive_interleaved_functor,
    two_category_tensor_context,
)
from .companion import check_connection
from .internal import (
    InternalCategoryData,
    check_coproduct_pullback,
    check_enriched_over_cat,
    check_internal,
    derive_globular,
    internalize_bicategory,
    monoid_to_internal,
)
from .modif import check_modification
from .report import BUDGET_EXCEEDED, FAIL, INCONCLUSIVE, PASS, AxiomReport, Budget, Violation
from .transform import (
    ComponentRegistry,
    HorizontalPNT,
    VerticalPNT,
    check_double_pnt,
    check_horizontal_pnt,
    check_theta,
    check_vertical_pnt,
)
from .weak import check_bicategory, check_pseudo_double_category

REPORT_FORMAT_VERSION = 1

EXPLANATIONS = {
    "interchange": "pasting a 2x2 grid of squares row-first and column-first must agree",
    "hcomp1-associativity": "horizontal 1-cell composition is associative on every composable triple",
    "identity-coincidence": "the two identity squares on an object are the same square",
    "hcell-assoc": "the composition comparison squares of a functor satisfy the associativity pasting",
    "hcell-unit-left": "composing with an identity 1-cell first is absorbed by the unit comparison cell",
    "square-hcomp-naturality": "the composition comparison cells commute with images of pasted squares",
    "square-vcomp-naturality": "the vertical composition comparison cells commute with images of stacked squares",
    "structure-boundary": "a functor's structure cell runs between the composites it compares, its stored inverse the other way",
    "pentagon": "the two reassociation routes across four 1-cells agree",
    "triangle": "reassociating past an identity matches the two unitors",
    "snake-h": "the two binding cells of a companion paste horizontally to the identity square on the companion 1-cell",
    "snake-v": "the two binding cells of a companion paste vertically to the identity square on the vertical cell",
    "coupling-naturality-t": "the t-family of a coupled transformation slides across every square",
    "coupling-composite-t": "the t-square of a composite 1-cell is the stated pasting of the factors'",
    "component-invertibility": "comparison squares at registered component cells have stored inverses",
    "theta-compat": "a modification between generated pairs respects the generating squares",
    "slide-v-nat": "the vertical-side components slide across naturality squares",
    "coupling-t": "modification components are compatible with the t-family",
    "embedding-identity": "tensor of embedded structures equals the embedded tensor, cell for cell",
    "square-word-normalization": "rewriting a square word to its normal form preserves its value",
    "pullback-canonical": "the bundled pullback is the canonical cellwise one; the witness is its first cell or table entry that differs",
    "unit-section-s": "the source functor retracts the unit functor; the witness is dom or cod when the two run between other categories, else the first cell or structure cell where they differ",
    "src-of-composite": "the source of a composite is the source of the first factor; the witness is dom or cod when the two run between other categories, else the first cell or structure cell where they differ",
    "pair-object-bijection": "hom pairs and the pullback are in canonical bijection",
}


def _budget(args):
    return Budget(max_tuples=args.max_tuples)


def _namer_for(doc: Document, decl: Declaration):
    target = None
    if decl.kind in ("category",):
        target = decl
    elif decl.kind in ("functor", "transformation", "modification"):
        dom = decl.meta.get("dom")
        if decl.kind == "modification":
            src = doc.decls[decl.meta["from"]]
            dom = src.meta.get("dom")
        if dom:
            target = doc.decls.get(dom)
    elif decl.kind in ("connection", "monoid"):
        target = doc.decls.get(decl.meta.get("on"))
    if target is None or not hasattr(target.obj, "names"):
        return None
    names = target.obj.names

    def namer(ref):
        if isinstance(ref, tuple) and len(ref) == 2 and isinstance(ref[1], int):
            kind, idx = ref
            lst = names.get(kind) if isinstance(names, dict) else None
            if lst and 0 <= idx < len(lst):
                return f"{kind}:{lst[idx]}"
        return str(ref)

    return namer


def _registry_for_target(doc: Document, decl: Declaration) -> ComponentRegistry:
    """Component cells of every declared transformation whose codomain is
    the target's domain category."""
    dom_name = decl.meta.get("dom")
    hcells, vcells = set(), set()
    for other_name in doc.order:
        other = doc.decls[other_name]
        if other.kind != "transformation":
            continue
        if other.meta.get("cod") != dom_name:
            continue
        obj = other.obj
        if isinstance(obj, HorizontalPNT):
            hcells.update(obj.comp)
        elif isinstance(obj, VerticalPNT):
            vcells.update(obj.comp)
        else:
            hcells.update(obj.h1.comp)
            vcells.update(obj.v0.comp)
    return ComponentRegistry.of(hcells, vcells)


def _takes_axioms(decl: Declaration, args) -> bool:
    """Whether the checker run for ``decl`` selects its laws by name."""
    if decl.kind == "functor":
        return bool(args.cubical) or not decl.meta.get("strict")
    if decl.kind == "transformation":
        return decl.meta["kind"] in ("horizontal", "vertical")
    return decl.kind == "modification"


def _check_declaration(doc: Document, decl: Declaration, args) -> list[AxiomReport]:
    if args.axioms is not None and not _takes_axioms(decl, args):
        raise StructureError(
            f"--axioms does not apply to {decl.kind} {decl.name}: only pseudofunctors, the --cubical view, "
            "horizontal and vertical transformations and modifications select laws by name"
        )
    budget = _budget(args)
    if decl.kind == "fincategory":
        return [decl.obj.check(budget)]
    if decl.kind == "category":
        return [check_double_category(decl.obj, budget=budget)]
    if decl.kind == "twocategory":
        return [check_two_category(decl.obj, budget=budget)]
    if decl.kind == "bicategory":
        reports = [check_bicategory(decl.obj, budget=budget)]
        inner = internalize_bicategory(decl.obj)
        rep = check_pseudo_double_category(inner, budget=budget)
        rep.subject = "internalized-pseudo-double-category"
        reports.append(rep)
        reports.append(check_coproduct_pullback(decl.obj, budget=budget))
        reports.append(check_enriched_over_cat(decl.obj, budget=budget))
        return reports
    if decl.kind == "functor":
        if args.cubical:
            return [_check_cubical_view(doc, decl, args)]
        if decl.meta.get("strict"):
            return [check_strict_functor(_as_strict(decl.obj, decl.name), budget=budget)]
        return [check_double_pseudo_functor(decl.obj, budget=budget, axioms=args.axioms)]
    if decl.kind == "transformation":
        kind = decl.meta["kind"]
        if kind == "horizontal":
            return [check_horizontal_pnt(decl.obj, budget=budget, axioms=args.axioms)]
        if kind == "vertical":
            return [check_vertical_pnt(decl.obj, budget=budget, axioms=args.axioms)]
        registry = _registry_for_target(doc, decl)
        if kind == "double":
            return [check_double_pnt(decl.obj, registry=registry, budget=budget)]
        return [check_theta(decl.obj, registry=registry, budget=budget)]
    if decl.kind == "connection":
        return [check_connection(decl.obj, budget=budget)]
    if decl.kind == "modification":
        return [check_modification(decl.obj, budget=budget, axioms=args.axioms)]
    if decl.kind == "monoid":
        reports = [check_monoid(decl.obj, budget=budget)]
        if not reports[0].passed:
            # the readings compose one-sided images, which need the laws
            reports[0].assumptions.append("interleaved readings not derived: the monoid check did not pass")
            return reports
        for flag, label in ((True, "first-factor-first"), (False, "second-factor-first")):
            f = derive_interleaved_functor(decl.obj, first_factor_first=flag)
            rep = check_double_pseudo_functor(f, budget=budget)
            rep.subject = f"interleaved-multiplication ({label})"
            reports.append(rep)
        return reports
    if decl.kind == "tensor":
        left = doc.get(decl.obj.left, "twocategory")
        right = doc.get(decl.obj.right, "twocategory")
        cap = args.word_cap if args.word_cap is not None else decl.obj.cap
        return [check_monoidal_embedding(left.obj, right.obj, cap=cap, budget=budget)]
    if decl.kind == "internal":
        data = _resolve_internal(doc, decl)
        reports = [check_internal(data, registry=ComponentRegistry.of(), budget=budget)]
        if data.u.normalized and data.m.normalized:
            glob = derive_globular(data)
            rep = AxiomReport("derived-globular-cells", PASS)
            rep.checked = sum(
                len(t)
                for t in (
                    glob.chi,
                    glob.delta,
                    glob.mu,
                    glob.tau,
                    glob.chi_p,
                    glob.delta_p,
                    glob.mu_p,
                    glob.tau_p,
                )
            )
            reports.append(rep)
        return reports
    raise StructureError(f"no checker for declaration kind {decl.kind}")


def _check_cubical_view(doc: Document, decl: Declaration, args):
    d1 = doc.get(args.cubical[0], "category").obj
    d2 = doc.get(args.cubical[1], "category").obj
    f = decl.obj
    h = cubical_from_product_functor(d1, d2, _as_strict(f, decl.name))
    rep = check_cubical(h, budget=_budget(args), axioms=args.axioms)
    c = curry(h)
    h2 = uncurry(c, d1, d2, f.cod)
    if h2.hh != h.hh or h2.vv != h.vv or h2.hv != h.hv or h2.vh != h.vh:
        rep.violations.append(Violation("curry-roundtrip", ("curry",)))
    return rep.finish()


def _resolve_internal(doc: Document, decl: Declaration) -> InternalCategoryData:
    refs = decl.obj.refs

    def grab(slot, kind):
        return doc.get(refs[slot], kind).obj

    return InternalCategoryData(
        grab("d0", "category"),
        grab("d1", "category"),
        _as_strict(grab("s", "functor"), refs["s"]),
        _as_strict(grab("t", "functor"), refs["t"]),
        grab("u", "functor"),
        grab("p", "category"),
        _as_strict(grab("p1", "functor"), refs["p1"]),
        _as_strict(grab("p2", "functor"), refs["p2"]),
        grab("m", "functor"),
        assoc=doc.get(refs["assoc"], "transformation").obj if "assoc" in refs else None,
        lunit=doc.get(refs["lunit"], "transformation").obj if "lunit" in refs else None,
        runit=doc.get(refs["runit"], "transformation").obj if "runit" in refs else None,
    )


def _exit_code(reports) -> int:
    statuses = {r.status for r in reports}
    if FAIL in statuses:
        return 1
    if BUDGET_EXCEEDED in statuses or INCONCLUSIVE in statuses:
        return 2
    return 0


def _emit(reports, args, namer=None):
    if args.format == "tree":
        payload = {
            "format_version": REPORT_FORMAT_VERSION,
            "reports": [r.to_dict(namer) for r in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.summary(namer))


def cmd_check(args) -> int:
    doc = _load(args.doc)
    decl = doc.get(args.target)
    reports = _check_declaration(doc, decl, args)
    _emit(reports, args, _namer_for(doc, decl))
    return _exit_code(reports)


# ---------------------------------------------------------------------------
# construct


def _decl_category(name, d):
    _ensure_names(d)
    return Declaration("category", name, d, names={k: {n: i for i, n in enumerate(v)} for k, v in d.names.items()})


def _ensure_names(d):
    defaults = {
        "object": d.n_objects,
        "hcell": len(d.hcells),
        "vcell": len(d.vcells),
        "square": len(d.squares),
    }
    names = dict(d.names or {})
    for kind, count in defaults.items():
        lst = list(names.get(kind) or [])
        seen = set()
        fixed = []
        for i in range(count):
            base = lst[i] if i < len(lst) else f"{kind[0]}{i}"
            cand = base
            k = 0
            while cand in seen:
                k += 1
                cand = f"{base}~{k}"
            seen.add(cand)
            fixed.append(cand)
        names[kind] = fixed
    d.names = names


def _decl_strict_functor(doc, name, strict, dom_name, cod_name):
    return Declaration(
        "functor",
        name,
        pseudo_from_strict(strict),
        meta={"strict": True, "dom": dom_name, "cod": cod_name},
    )


def cmd_construct(args) -> int:
    doc = _load(args.doc)
    recipe = args.recipe
    name = args.as_name
    new = []
    if recipe == "quintet":
        c = doc.get(args.args[0], "fincategory").obj
        new.append(_decl_category(name, quintet(c)))
    elif recipe == "embed":
        t = doc.get(args.args[0], "twocategory").obj
        new.append(_decl_category(name, embed_two_category(t)))
    elif recipe == "horizontal":
        d = doc.get(args.args[0], "category").obj
        t = horizontal_two_category(d)
        new.append(Declaration("twocategory", name, t, names={k: {n: i for i, n in enumerate(v)} for k, v in t.names.items()}))
    elif recipe == "product":
        d1 = doc.get(args.args[0], "category").obj
        d2 = doc.get(args.args[1], "category").obj
        p = product(d1, d2)
        new.append(_decl_category(name, p))
    elif recipe == "pullback":
        f_decl = doc.get(args.args[0], "functor")
        g_decl = doc.get(args.args[1], "functor")
        f = _as_strict(f_decl.obj, f_decl.name)
        g = _as_strict(g_decl.obj, g_decl.name)
        pb = pullback(f, g)
        p1, p2 = pullback_projections(f, g, pb)
        new.append(_decl_category(name, pb))
        new.append(_decl_strict_functor(doc, f"{name}_p1", p1, name, f_decl.meta["dom"]))
        new.append(_decl_strict_functor(doc, f"{name}_p2", p2, name, g_decl.meta["dom"]))
    elif recipe == "transpose":
        d = doc.get(args.args[0], "category").obj
        new.append(_decl_category(name, transpose(d)))
    elif recipe == "tensor":
        doc.get(args.args[0], "twocategory")
        doc.get(args.args[1], "twocategory")
        cap = args.word_cap if args.word_cap is not None else 4
        new.append(Declaration("tensor", name, TensorDecl(args.args[0], args.args[1], cap)))
    elif recipe == "interleave":
        m_decl = doc.get(args.args[0], "monoid")
        monoid = m_decl.obj
        dom = product(monoid.carrier, monoid.carrier)
        dom_name = f"{name}_dom"
        new.append(_decl_category(dom_name, dom))
        f = derive_interleaved_functor(monoid, dom=dom)
        new.append(
            Declaration(
                "functor", name, f, meta={"strict": False, "dom": dom_name, "cod": m_decl.meta["on"]}
            )
        )
    elif recipe == "monoid-internal":
        m_decl = doc.get(args.args[0], "monoid")
        data = monoid_to_internal(m_decl.obj)
        new.extend(_internal_bundle_decls(doc, name, data, m_decl.meta["on"]))
    else:
        raise StructureError(f"unknown recipe {recipe!r}")
    for decl in new:
        doc.add(decl)
    text = dsl.serialize(doc)
    out_path = args.output or args.doc
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(new)} declaration(s) to {out_path}: " + ", ".join(d.name for d in new))
    return 0


def _as_strict(f, name):
    """The strict functor on the cell maps of the functor ``f``."""
    return StrictDoubleFunctor(f.dom, f.cod, f.ob_map, f.h_map, f.v_map, f.sq_map, name=name)


def _internal_bundle_decls(doc, name, data: InternalCategoryData, carrier_name):
    decls = []
    d0_name = f"{name}_obs"
    pb_name = f"{name}_pb"
    decls.append(_decl_category(d0_name, data.d0))
    decls.append(_decl_category(pb_name, data.p))
    decls.append(_decl_strict_functor(doc, f"{name}_s", data.s, carrier_name, d0_name))
    decls.append(_decl_strict_functor(doc, f"{name}_t", data.t, carrier_name, d0_name))
    decls.append(
        Declaration(
            "functor",
            f"{name}_u",
            data.u,
            meta={"strict": data.u.strict, "dom": d0_name, "cod": carrier_name},
        )
    )
    decls.append(_decl_strict_functor(doc, f"{name}_p1", data.p1, pb_name, carrier_name))
    decls.append(_decl_strict_functor(doc, f"{name}_p2", data.p2, pb_name, carrier_name))
    decls.append(
        Declaration(
            "functor",
            f"{name}_m",
            data.m,
            meta={"strict": data.m.strict, "dom": pb_name, "cod": carrier_name},
        )
    )
    refs = {
        "d0": d0_name,
        "d1": carrier_name,
        "s": f"{name}_s",
        "t": f"{name}_t",
        "u": f"{name}_u",
        "p": pb_name,
        "p1": f"{name}_p1",
        "p2": f"{name}_p2",
        "m": f"{name}_m",
    }
    decls.append(Declaration("internal", name, InternalDecl(refs)))
    return decls


# ---------------------------------------------------------------------------
# compare


def _parse_word(ctx, decl_left, decl_right, start_spec, text_word, line=1):
    try:
        a_name, b_name = start_spec.split(",")
    except ValueError:
        raise StructureError("start must be OBJECT,OBJECT") from None
    a = decl_left.names["object"].get(a_name)
    b = decl_right.names["object"].get(b_name)
    if a is None or b is None:
        raise StructureError(f"unknown start objects {start_spec!r}")
    letters = []
    for part in text_word.split():
        if ":" not in part:
            raise StructureError(f"letter {part!r} must look like L:cell or R:cell")
        side, cell_name = part.split(":", 1)
        if side not in ("L", "R"):
            raise StructureError(f"letter side must be L or R in {part!r}")
        table = decl_left if side == "L" else decl_right
        cell = table.names["onecell"].get(cell_name)
        if cell is None:
            raise StructureError(f"unknown 1-cell {cell_name!r}")
        letters.append(Letter(side, cell))
    return ctx.normalize((a, b), tuple(letters))


def _parse_moves(ctx, left, right, spec):
    """Move syntax: semicolon list of flip:POS, unflip:POS, appL:POS:CELL,
    appR:POS:CELL (CELL a 2-cell name of the matching factor)."""
    from .graytensor import Move

    moves = []
    if not spec.strip():
        return ()
    for part in spec.split(";"):
        bits = part.strip().split(":")
        kind = bits[0]
        if kind in ("flip", "unflip"):
            if len(bits) != 2:
                raise StructureError(f"bad move {part!r}")
            moves.append(Move(kind, int(bits[1])))
        elif kind in ("appL", "appR"):
            if len(bits) != 3:
                raise StructureError(f"bad move {part!r}")
            table = left if kind == "appL" else right
            cell = table.names["twocell"].get(bits[2])
            if cell is None:
                raise StructureError(f"unknown 2-cell {bits[2]!r}")
            moves.append(Move(kind, int(bits[1]), cell))
        else:
            raise StructureError(f"unknown move kind {kind!r}")
    return tuple(moves)


def cmd_compare(args) -> int:
    doc = _load(args.doc)
    tensor = doc.get(args.tensor, "tensor")
    left = doc.get(tensor.obj.left, "twocategory")
    right = doc.get(tensor.obj.right, "twocategory")
    ctx = two_category_tensor_context(left.obj, right.obj)
    w1 = _parse_word(ctx, left, right, args.start, args.word1)
    w2 = _parse_word(ctx, left, right, args.start, args.word2)
    if args.moves1 is not None or args.moves2 is not None:
        from .graytensor import SquareCalculus, SquareWord

        calc = SquareCalculus(ctx, left.obj, right.obj)
        e1 = SquareWord(w1, _parse_moves(ctx, left, right, args.moves1 or ""))
        e2 = SquareWord(w2, _parse_moves(ctx, left, right, args.moves2 or ""))
        verdict = calc.compare(e1, e2)
        print(f"{verdict}: square words over {ctx.describe(w1)} and {ctx.describe(w2)}")
        return {"equal": 0, "distinct": 1}.get(verdict, 2)
    verdict = "equal" if w1 == w2 else "distinct"
    if args.cartesian:
        verdict = "equal" if cartesian_collapse(ctx, w1) == cartesian_collapse(ctx, w2) else "distinct"
    print(f"{verdict}: {ctx.describe(w1)}  vs  {ctx.describe(w2)}")
    return 0 if verdict == "equal" else 1


def cmd_explain(args) -> int:
    if args.name in EXPLANATIONS:
        print(f"{args.name}: {EXPLANATIONS[args.name]}")
        return 0
    print(f"no explanation recorded for {args.name!r}; known names:")
    for k in sorted(EXPLANATIONS):
        print(f"  {k}")
    return 3


def _load(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def _int_env(name, default):
    try:
        return _cap(os.environ[name])
    except (KeyError, ValueError, argparse.ArgumentTypeError):
        return default


def _cap(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, its subparsers' too, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    """The argument parser; the environment defaults are not in it."""
    parser = _Parser(prog="dblkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-tuples", type=_cap, default=None)
        p.add_argument("--word-cap", type=_cap, default=None)
        p.add_argument("--format", choices=("summary", "tree"), default="summary")

    p = sub.add_parser("check", help="run the checker for a named declaration")
    p.add_argument("doc")
    p.add_argument("target")
    p.add_argument("--axioms", type=lambda s: set(s.split(",")), default=None)
    p.add_argument(
        "--cubical",
        nargs=2,
        metavar=("D1", "D2"),
        default=None,
        help="treat the target functor (off the product of D1 and D2) as a two-variable functor",
    )
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="add a derived declaration to a document")
    p.add_argument("doc")
    p.add_argument(
        "recipe",
        choices=(
            "quintet",
            "embed",
            "horizontal",
            "product",
            "pullback",
            "transpose",
            "tensor",
            "interleave",
            "monoid-internal",
        ),
    )
    p.add_argument("args", nargs="*")
    p.add_argument("--as", dest="as_name", required=True)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("compare", help="compare two tensor words")
    p.add_argument("doc")
    p.add_argument("tensor")
    p.add_argument("--start", required=True, help="start coordinates, e.g. A,B")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument(
        "--cartesian",
        action="store_true",
        help="compare the componentwise collapses instead of tensor words",
    )
    p.add_argument("--moves1", default=None, help="square-word moves over word1")
    p.add_argument("--moves2", default=None, help="square-word moves over word2")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("explain", help="describe a named axiom or check")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.max_tuples is None:
        args.max_tuples = _int_env("DBLKIT_MAX_TUPLES", 5_000_000)
    if args.word_cap is None:
        args.word_cap = _int_env("DBLKIT_WORD_CAP", None)
    # A command's objects form no reference cycles, so reference counting
    # frees them; the cyclic collector would only traverse the many small
    # tuples a parse allocates.  Pause it for the command, and restore the
    # caller's setting.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ParseError, StructureError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
