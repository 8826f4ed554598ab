"""Workload ``documents``: seeded CLI sessions run in-process through
``dblkit.cli.main``.

A round writes the seeded base document, grows it with ``construct``
(quintet, product, transpose, embed and interleave recipes), reads it back
and round-trips it through ``dsl.parse``/``dsl.serialize``, checks every
small declaration with ``check --format tree``, compares tensor
interleavings with ``compare``, and round-trips each finite category of
``zoo.small_category_catalog()`` through ``dsl.serialize``/``dsl.parse``.

Those last round trips fail on 8 of the 9 catalog entries: the parser fills
unit entries and checks completeness in the same pass, so an identity
declared before a morphism it composes with is reported missing.  They are
counted as failed operations; their inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import dblkit.cli
import dblkit.dsl
import dblkit.kernel
from dblkit import zoo
from dblkit.dsl import Declaration, ParseError
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.kernel import quintet
from dblkit.mutate import sample_mutants

from . import reference as ref
from .common import Round

# (owner, attribute, span name) of what the CLI calls into: the traced run
# wraps these so each command span has its dsl and checker children
CLI_CHILDREN = (
    (dblkit.dsl, "parse", "dsl.parse"),
    (dblkit.dsl, "serialize", "dsl.serialize"),
    (dblkit.kernel.FiniteCategory, "check", "kernel.check_fincategory"),
    (dblkit.cli, "check_double_category", "kernel.check"),
    (dblkit.cli, "check_two_category", "kernel.check_two_category"),
    (dblkit.cli, "quintet", "kernel.quintet"),
    (dblkit.cli, "product", "kernel.product"),
    (dblkit.cli, "transpose", "kernel.transpose"),
    (dblkit.cli, "embed_two_category", "kernel.embed"),
    (dblkit.cli, "check_bicategory", "weak.check_bicategory"),
    (dblkit.cli, "check_pseudo_double_category", "weak.check_pseudo_double"),
    (dblkit.cli, "internalize_bicategory", "internal.internalize_bicategory"),
    (dblkit.cli, "check_coproduct_pullback", "internal.check_coproduct_pullback"),
    (dblkit.cli, "check_enriched_over_cat", "internal.check_enriched_over_cat"),
    (dblkit.cli, "check_strict_functor", "functors.check_strict_functor"),
    (dblkit.cli, "check_double_pseudo_functor", "functors.check_pseudo_functor"),
    (dblkit.cli, "check_monoid", "graytensor.check_monoid"),
    (dblkit.cli, "derive_interleaved_functor", "graytensor.derive_interleaved_functor"),
    (dblkit.cli, "check_monoidal_embedding", "graytensor.embedding"),
    (dblkit.cli, "two_category_tensor_context", "graytensor.tensor_context"),
)

CONSTRUCTS = (
    ("quintet", ("Z3",), "Q3"),
    ("quintet", ("Walk",), "QW"),
    ("product", ("Q3", "QW"), "P"),
    ("transpose", ("QW",), "QWT"),
    ("embed", ("Sign",), "ES"),
    ("interleave", ("Meet",), "Mul"),
)
# every small declaration of the grown document, with its known exit code;
# Bad is a single-entry mutant of a commuting-square category (squares are
# unique per boundary there, so every such mutant violates a law)
CHECKS = {
    "Walk": 0, "Z3": 0, "Arrow": 0, "TwoCell": 0, "Sign": 0, "SignB": 0, "WalkSq": 0, "Meet": 0,
    "IdW": 0, "AB": 0, "Q3": 0, "QW": 0, "QWT": 0, "ES": 0, "Mul": 0, "Bad": 1,
}


def _names(rng, count, taken):
    out = []
    while len(out) < count:
        name = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(5))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _hand_written(rng):
    """Finite categories and 2-categories written as text by the benchmark,
    with seeded cell names; identities are left implicit."""
    taken = set()
    x, y, o, p, q, a1, a2, b1, s = _names(rng, 9, taken)
    f, g1, g2 = _names(rng, 3, taken)
    text = f"""
fincategory Walk {{
  objects {x} {y}
  mor {f} : {x} -> {y}
}}

fincategory Z3 {{
  objects {o}
  mor {g1} : {o} -> {o}
  mor {g2} : {o} -> {o}
  comp {g1} {g1} = {g2}
  comp {g1} {g2} = id_{o}
  comp {g2} {g1} = id_{o}
  comp {g2} {g2} = {g1}
}}

twocategory Arrow {{
  objects {p} {q}
  onecell {a1} : {p} -> {q}
}}

twocategory TwoCell {{
  objects {p} {q}
  onecell {a2} : {p} -> {q}
  onecell {b1} : {p} -> {q}
  twocell {s} : {a2} => {b1}
}}

tensor AB {{
  left Arrow
  right TwoCell
  cap 4
}}
"""
    return text, p, a1, (a2, b1)


def _category_decl(name, d):
    for kind, count in (("object", d.n_objects), ("hcell", len(d.hcells)), ("vcell", len(d.vcells)), ("square", len(d.squares))):
        if not (d.names or {}).get(kind):
            d.names = dict(d.names or {})
            d.names[kind] = [f"{kind[0]}{i}" for i in range(count)]
    return Declaration("category", name, d, names={k: {n: i for i, n in enumerate(v)} for k, v in d.names.items()})


def _catalog_documents():
    docs = []
    for name, c in zoo.small_category_catalog():
        c.names = {"objects": [f"o{i}" for i in range(c.n_objects)], "mor": c.names["mor"]}
        doc = dblkit.dsl.Document()
        doc.add(Declaration("fincategory", name.replace("-", "_"), c))
        docs.append((name, doc))
    return docs


def setup(seed, tr, small=False):
    rng = random.Random(seed)
    text, start, left_cell, right_cells = _hand_written(rng)
    doc = dblkit.dsl.parse(text)
    doc.add(Declaration("twocategory", "Sign", zoo.sign_two_category()))
    doc.add(Declaration("bicategory", "SignB", zoo.sign_bicategory()))
    monoid = zoo.min_monoid_in_dbl()
    doc.add(_category_decl("WalkSq", monoid.carrier))
    doc.add(Declaration("monoid", "Meet", monoid, meta={"on": "WalkSq"}))
    ident = pseudo_from_strict(identity_functor(monoid.carrier))
    doc.add(Declaration("functor", "IdW", ident, meta={"strict": True, "dom": "WalkSq", "cod": "WalkSq"}))
    host = quintet(zoo.walking_iso())
    (_, bad), = sample_mutants(host, 1, seed=rng.randrange(2**31))
    doc.add(_category_decl("Bad", bad))
    targets = list(CHECKS)
    rng.shuffle(targets)
    compares = [(left_cell, rng.choice(right_cells)) for _ in range(2)]
    return {
        "base": dblkit.dsl.serialize(doc),
        "start": f"{start},{start}",
        "targets": targets,
        "compares": compares,
        "catalog": _catalog_documents(),
        "seed": seed,
        "workdir": None,
    }


def reference(inputs):
    return {}


def _cli(tr, kind, argv):
    out = io.StringIO()
    with tr.span(f"cli.{kind}"), tr.wrapped(CLI_CHILDREN), contextlib.redirect_stdout(out):
        code = dblkit.cli.main(argv)
    return code, out.getvalue()


def _own_count(decl):
    if decl.kind == "category":
        return ref.expected_checked(decl.obj, ref.law_counts(decl.obj))
    if decl.kind == "fincategory":
        return ref.fincategory_law_count(decl.obj)
    return None


def run_round(inputs, expected, tr):
    r = Round()
    mark = inputs["clock"].mark
    path = os.path.join(inputs["workdir"], "session.dbl")
    results = []
    r.start = time.perf_counter()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs["base"])
    for recipe, args, name in CONSTRUCTS:
        code, out = _cli(tr, "construct", ["construct", path, recipe, *args, "--as", name, "-o", path])
        results.append((f"construct {name}", code, 0, out))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("dsl.parse", bytes=len(text.encode("utf-8"))):
        doc = dblkit.dsl.parse(text)
    with tr.span("dsl.serialize", bytes=len(text.encode("utf-8"))):
        again = dblkit.dsl.serialize(doc)
    checks = []
    for target in inputs["targets"]:
        mark()
        t = time.perf_counter()
        code, out = _cli(tr, "check", ["check", path, target, "--format", "tree"])
        r.verdicts.append((t, time.perf_counter()))
        checks.append((target, code, out))
    compares = []
    for f, g in inputs["compares"]:
        words = [f"L:{f} R:{g}", f"R:{g} L:{f}"]
        for flags, want in (([], 1), (["--cartesian"], 0)):
            mark()
            t = time.perf_counter()
            code, out = _cli(tr, "compare", ["compare", path, "AB", "--start", inputs["start"], *flags, *words])
            r.verdicts.append((t, time.perf_counter()))
            compares.append((" ".join(flags + words), code, want, out))
    catalog = []
    for name, cdoc in inputs["catalog"]:
        with tr.span("dsl.serialize"):
            ctext = dblkit.dsl.serialize(cdoc)
        try:
            with tr.span("dsl.parse"):
                parsed = dblkit.dsl.parse(ctext)
        except ParseError as e:
            catalog.append((name, ctext, None, e))
            continue
        catalog.append((name, ctext, parsed, None))
    r.end = time.perf_counter()

    r.attempted = len(CONSTRUCTS) + 1 + len(checks) + len(compares) + len(catalog)
    for label, code, want, out in results:
        r.expect(code == want, f"{label}: exit {code}")
    r.expect(again == text, "serialize(parse(text)) differs from the text")
    r.expect(all(name in doc for _, _, name in CONSTRUCTS), "constructed declarations missing")
    for target, code, out in checks:
        want = CHECKS[target]
        r.expect(code == want, f"check {target}: exit {code}, expected {want}")
        if code not in (0, 1):
            continue
        reports = json.loads(out)["reports"]
        statuses = {rep["status"] for rep in reports}
        r.expect(statuses == {"pass"} if want == 0 else "fail" in statuses, f"check {target}: {sorted(statuses)}")
        own = _own_count(doc.decls[target])
        if own is not None:
            r.instances += own
            r.expect(reports[0]["checked"] == own, f"check {target}: checked {reports[0]['checked']}, counted {own}")
    for label, code, want, out in compares:
        verdict = "equal" if want == 0 else "distinct"
        r.expect(code == want and out.startswith(verdict), f"compare {label}: exit {code}: {out.strip()}")
    for name, ctext, parsed, error in catalog:
        if error is not None:
            r.failed += 1
            r.expect("missing composition entry" in str(error), f"catalog {name}: {error}")
            continue
        r.expect(dblkit.dsl.serialize(parsed) == ctext, f"catalog {name}: round trip differs")
    return r


def probe(inputs, tr):
    """Word normalization, which the CLI reaches only through ``compare``:
    seeded chainable words over the tensor of the sign 2-category with
    itself (one object, so every letter sequence chains)."""
    from dblkit.graytensor import L, R, Letter, two_category_tensor_context

    sign = zoo.sign_two_category()
    ctx = two_category_tensor_context(sign, sign)
    rng = random.Random(inputs["seed"])
    cells = range(len(sign.onecells))
    words = [tuple(Letter(rng.choice((L, R)), rng.choice(cells)) for _ in range(16)) for _ in range(2000)]
    for _ in range(3):
        tr.trace_id += 1
        with tr.span("graytensor.normalize", words=len(words)):
            for w in words:
                ctx.normalize((0, 0), w)
