#!/usr/bin/env python3
"""Write the verdicts of a fixed set of checker runs to one JSON file.

Usage: PYTHONPATH=src python scripts/verdict_dump.py OUT.json

Every entry is ``AxiomReport.to_dict()`` (law names, witnesses in order,
both sides, ``checked`` and status) under a stable key.  The runs:

- acceptance criterion 1: its 32 generators and its 100 mutants;
- ``FiniteCategory.check`` on ``zoo.small_category_catalog()``;
- ``check_two_category`` on the zoo 2-categories and on single-entry
  mutants of the sign 2-category;
- ``check_bicategory`` and ``check_pseudo_double_category`` (of the
  internalization) on the sign and two-object bicategories, and on the
  mutants of the sign bicategory that its constructor accepts;
- budget cutoffs: ``check_double_category`` on ``quintet(C3)`` and
  ``check_bicategory`` on the sign bicategory under a range of caps;
- the declaration format: ``dsl.parse`` on a document with a declaration
  of every block kind, on the square category of
  ``quintet(C3) x quintet(walking arrow)`` (162 squares) and on seeded line
  mutants of the first document (a line deleted, a token replaced or a line
  duplicated).  Each entry is ``serialize(parse(text))`` with every parsed
  table in insertion order (a digest of both for the mutants), or the
  exception's type, line, column and message.

The script uses only what every version of dblkit since the composition-
table primitive provides, so it can be run against two checkouts (point
``PYTHONPATH`` at each ``src``) and the two files compared with ``diff``:
a change that must not alter any verdict leaves them byte-identical.
"""

import hashlib
import json
import random
import sys

from dblkit import dsl, zoo
from dblkit.acceptance import _generators
from dblkit.cli import _decl_category, _internal_bundle_decls
from dblkit.companion import find_connection
from dblkit.functors import identity_functor, pseudo_from_strict
from dblkit.graytensor import derive_interleaved_functor
from dblkit.modif import identity_modification
from dblkit.transform import identity_double, identity_horizontal, identity_theta, identity_vertical
from dblkit.internal import internalize_bicategory, monoid_to_internal
from dblkit.kernel import StructureError, check_double_category, check_two_category, embed_two_category, product, quintet
from dblkit.mutate import sample_mutants
from dblkit.report import Budget
from dblkit.weak import Bicategory, check_bicategory, check_pseudo_double_category

BUDGETS = (0, 1, 2, 7, 100, 1000, 3000, 5000, 9000, 11000, 11631, 11632, 11633)


def criterion_1(out):
    for name, d in _generators():
        out[f"generator {name}"] = check_double_category(d).to_dict()
    # criterion 1's hosts, counts and seeds, written out rather than taken
    # from acceptance._mutants so that the script runs on older checkouts
    hosts = [
        ("squares(C2)", quintet(zoo.cyclic_group_cat(2))),
        ("squares(iso)", quintet(zoo.walking_iso())),
        ("squares(parallel)", quintet(zoo.parallel_pair())),
        ("squares(idempotent)", quintet(zoo.idempotent_monoid_cat())),
        ("embed(sign)", embed_two_category(zoo.sign_two_category())),
    ]
    tested, per_host = 0, (100 + len(hosts) - 1) // len(hosts)
    for host_name, host in hosts:
        for slot, mutant in sample_mutants(host, per_host, seed=tested):
            out[f"mutant {host_name} {slot}"] = check_double_category(mutant).to_dict()
            tested += 1


def _table_mutants(obj, tables, count, seed):
    """Seeded single-entry changes of ``obj``'s tables that its constructor
    accepts."""
    params = ("n_objects", "onecells", "twocells", "comp1", "vcomp2", "hcomp2", "id1", "id2")
    if isinstance(obj, Bicategory):
        params += ("assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv")
    slots = [
        (table, key, alt)
        for table in tables
        for key in sorted(getattr(obj, table))
        for alt in range(len(obj.twocells))
        if alt != getattr(obj, table)[key]
    ]
    out = []
    for table, key, alt in random.Random(seed).sample(slots, min(count, len(slots))):
        args = {p: getattr(obj, p) for p in params}
        args[table] = dict(args[table])
        args[table][key] = alt
        try:
            out.append(((table, key, alt), type(obj)(**args, names=obj.names)))
        except StructureError:
            continue
    return out


def small_structures(out):
    for name, c in zoo.small_category_catalog():
        out[f"fincategory {name}"] = c.check().to_dict()
    twos = [
        ("trivial", zoo.trivial_two_category()),
        ("walking-arrow", zoo.walking_arrow_two_category()),
        ("walking-2cell", zoo.walking_two_cell()),
        ("walking-iso-2cell", zoo.walking_two_cell(invertible=True)),
        ("sign", zoo.sign_two_category()),
        ("braid", zoo.braid_monoid_two_category()),
        ("collapse", zoo.collapse_monoid_two_category()),
    ]
    twos += [(f"acyclic {name}", t) for name, t in zoo.acyclic_two_category_catalog()]
    for name, t in twos:
        out[f"two-category {name}"] = check_two_category(t).to_dict()
    sign = zoo.sign_two_category()
    for slot, t in _table_mutants(sign, ("vcomp2", "hcomp2"), 40, seed=1):
        out[f"two-category mutant sign {slot}"] = check_two_category(t).to_dict()
    bicategories = [("sign", zoo.sign_bicategory()), ("two-object", zoo.two_object_bicategory())]
    bicategories += [
        (f"mutant sign {slot}", b) for slot, b in _table_mutants(bicategories[0][1], ("vcomp2", "hcomp2"), 40, seed=2)
    ]
    for name, b in bicategories:
        out[f"bicategory {name}"] = check_bicategory(b).to_dict()
        out[f"pseudo-double {name}"] = check_pseudo_double_category(internalize_bicategory(b)).to_dict()


def cutoffs(out):
    q = quintet(zoo.cyclic_group_cat(3))
    sign = zoo.sign_bicategory()
    for k in BUDGETS:
        budget = Budget(k)
        out[f"cutoff quintet(C3) {k}"] = check_double_category(q, budget=budget).to_dict()
        out[f"cutoff quintet(C3) {k} used"] = budget.used
        budget = Budget(k // 20)
        out[f"cutoff bicategory sign {k // 20}"] = check_bicategory(sign, budget=budget).to_dict()
        out[f"cutoff bicategory sign {k // 20} used"] = budget.used


HAND_WRITTEN = """
fincategory Walk {
  objects X Y
  mor f : X -> Y
}

fincategory Z3 {
  objects O
  mor g : O -> O
  mor h : O -> O
  comp g g = h
  comp g h = id_O
  comp h g = id_O
  comp h h = g
}

twocategory Arrow {
  objects P Q
  onecell a : P -> Q
}

twocategory TwoCell {
  objects P Q
  onecell a : P -> Q
  onecell b : P -> Q
  twocell s : a => b
}

tensor AB {
  left Arrow
  right TwoCell
  cap 4
}
"""

MUTANTS = 400


def every_kind_document():
    """Serialized text with a declaration of every block kind."""
    doc = dsl.parse(HAND_WRITTEN)
    doc.add(dsl.Declaration("twocategory", "Sign", zoo.sign_two_category()))
    doc.add(dsl.Declaration("bicategory", "SignB", zoo.sign_bicategory()))
    doc.add(dsl.Declaration("bicategory", "TwoOb", zoo.two_object_bicategory()))
    q = quintet(doc.decls["Walk"].obj)
    doc.add(_decl_category("Q", q))
    doc.add(dsl.Declaration("functor", "IdQ", pseudo_from_strict(identity_functor(q)), meta={"strict": True, "dom": "Q", "cod": "Q"}))
    doc.add(dsl.Declaration("connection", "K", find_connection(q), meta={"on": "Q"}))
    monoid = zoo.min_monoid_in_dbl()
    doc.add(_decl_category("WalkSq", monoid.carrier))
    doc.add(dsl.Declaration("monoid", "Meet", monoid, meta={"on": "WalkSq"}))
    dom = product(monoid.carrier, monoid.carrier)
    doc.add(_decl_category("Mul_dom", dom))
    mul = derive_interleaved_functor(monoid, dom=dom)
    doc.add(dsl.Declaration("functor", "Mul", mul, meta={"strict": False, "dom": "Mul_dom", "cod": "WalkSq"}))
    meta = {"from": "Mul", "to": "Mul", "dom": "Mul_dom", "cod": "WalkSq"}
    double = identity_double(mul)
    for kind, a in (
        ("vertical", identity_vertical(mul)),
        ("horizontal", identity_horizontal(mul)),
        ("double", double),
        ("theta", identity_theta(mul)),
    ):
        doc.add(dsl.Declaration("transformation", f"T{kind}", a, meta={"kind": kind, **meta}))
    doc.add(dsl.Declaration("modification", "M", identity_modification(double), meta={"from": "Tdouble", "to": "Tdouble"}))
    es = embed_two_category(zoo.sign_two_category())
    doc.add(_decl_category("ES", es))
    cocycle = zoo.sign_cocycle_pseudofunctor()
    cocycle.dom = cocycle.cod = es
    doc.add(dsl.Declaration("functor", "Cocycle", cocycle, meta={"strict": False, "dom": "ES", "cod": "ES"}))
    for decl in _internal_bundle_decls(doc, "IM", monoid_to_internal(monoid), "WalkSq"):
        doc.add(decl)
    return dsl.serialize(doc)


def big_category_document():
    doc = dsl.Document()
    doc.add(_decl_category("Big", product(quintet(zoo.cyclic_group_cat(3)), quintet(zoo.walking_arrow()))))
    return dsl.serialize(doc)


def line_mutants(text, count, seed):
    """Seeded mutants of ``text``: a line deleted, a token replaced by
    another token of the text or by a fresh one, or a line duplicated."""
    rng = random.Random(seed)
    lines = text.splitlines()
    vocabulary = sorted(set(text.split()))
    out = []
    for _ in range(count):
        i = rng.randrange(len(lines))
        new = list(lines)
        op = rng.choice(("delete", "replace", "duplicate"))
        if op == "delete":
            del new[i]
        elif op == "duplicate":
            new.insert(i, lines[i])
        else:
            words = lines[i].split() or ["}"]
            j = rng.randrange(len(words))
            words[j] = rng.choice(vocabulary + ["zzz", "0", "=", "->"])
            new[i] = "  " + " ".join(words)
        out.append((f"{op} {i}", "\n".join(new) + "\n"))
    return out


def _data(value, decl_objs, seen):
    """``value`` as JSON, dicts as lists of pairs in insertion order;
    another declaration's object by its name."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if id(value) in decl_objs:
        return f"<decl {decl_objs[id(value)]}>"
    if isinstance(value, dict):
        return [[_data(k, decl_objs, seen), _data(v, decl_objs, seen)] for k, v in value.items()]
    if isinstance(value, (list, tuple, range)):
        return [_data(v, decl_objs, seen) for v in value]
    if hasattr(value, "__dict__") and id(value) not in seen:
        seen.add(id(value))
        return {k: _data(v, decl_objs, seen) for k, v in vars(value).items() if not callable(v)}
    return repr(value)


def _parsed(text):
    try:
        doc = dsl.parse(text)
    except Exception as e:  # the exception's type is part of the record
        return {"error": type(e).__name__, "line": getattr(e, "line", None), "column": getattr(e, "column", None), "message": str(e)}
    decl_objs = {id(decl.obj): name for name, decl in doc.decls.items()}
    decls = []
    for name in doc.order:
        decl = doc.decls[name]
        own = dict(decl_objs)
        del own[id(decl.obj)]
        decls.append([name, decl.kind, _data(decl.names, own, set()), _data(decl.meta, own, set()), _data(decl.obj, own, set())])
    try:
        again = dsl.serialize(doc)
    except Exception as e:
        again = f"{type(e).__name__}: {e}"
    return {"text": again, "decls": decls}


def dsl_section(out):
    inputs = [("every-kind", every_kind_document()), ("big-category", big_category_document())]
    for name, text in inputs:
        out[f"dsl {name} input"] = text
        out[f"dsl {name}"] = _parsed(text)
    for slot, text in line_mutants(inputs[0][1], MUTANTS, seed=4):
        entry = _parsed(text)
        if "error" not in entry:
            blob = json.dumps(entry, sort_keys=True).encode()
            entry = {"digest": hashlib.sha256(blob).hexdigest(), "fixpoint": dsl.serialize(dsl.parse(entry["text"])) == entry["text"]}
        out[f"dsl mutant {slot}"] = entry


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = {}
    criterion_1(out)
    small_structures(out)
    cutoffs(out)
    dsl_section(out)
    with open(argv[1], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reports = sum(1 for k, v in out.items() if isinstance(v, dict) and not k.startswith("dsl "))
    print(f"{reports} reports and {sum(1 for k in out if k.startswith('dsl '))} dsl entries written to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
