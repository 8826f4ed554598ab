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
  exception's type, line, column and message.  A round trip of a block of
  each zoo double category (the quintets of the finite-category catalogue,
  the embeddings of the zoo 2-categories and their transposes, the zoo
  monoids' carriers and ``quintet(C3) x quintet(walking arrow)``): the text
  ``serialize(parse(text))``, whether it is ``text``, and whether the
  parse and the serialize built any deferred square table;
- transformations and modifications: ``to_dict()`` of the vertical,
  horizontal, coupled and theta checkers, ``check_modification`` and both
  side checkers (all laws and a subset) on the bz3 setting (identity functor
  on ``quintet(C3)``), the sign setting (``embed(sign)``, with the identity
  and the cocycle functor), the collapse-monoid theta pair and criterion 4's
  seeded theta instances; a digest of every vertical, coupled, theta and
  modification composite (components, naturality and comparison squares,
  stored inverses, coupling squares, generating squares, modification
  components and both endpoint functors' cell maps and structure cells, in
  insertion order); and every single-square mutant of a naturality,
  comparison, inverse, coupling or modification family that keeps the
  boundary;
- internal bundles: ``check_internal`` reports, deep and shallow, of the
  bundles of the four zoo tensor-monoids and of the pseudomonoid bundle of
  acceptance criterion 8, shallow reports of criterion 8's compatibility
  mutations and of seeded single-entry mutants of the pullbacks of the
  diagonal bundles of ``quintet(C2)`` and ``quintet(walking iso)`` and of
  the cyclic-2 monoid bundle (a product, its legs into the terminal
  category), shallow reports of seeded multi-entry mutants of the first of
  these pullbacks (two or three entries of one table changed, every table
  re-inserted in a shuffled order), and
  digests of every bundle's nested and unit-sided composites (cell maps,
  structure cells and the triple pullback's tables), taken after the
  check; on a fresh copy of each of those five bundles, the ``vars()``
  order of the nested and unit-sided composites and of m x 1 and 1 x m of
  ``triple_pullbacks`` after one read of a structure family; digests, on the same bundles, of the square tables of the
  transposes of the pullback and of both triple pullbacks, in insertion
  order, and of ``hpaste`` and ``vpaste`` at every key of those tables, on
  each pullback and on its transpose, each made anew; and, on the diagonal
  bundles of ``quintet(C2)`` and ``embed(sign)``, shallow reports of single-entry mutants of the
  projections' cell maps, of the unit's and the composition's cell maps
  and boundary-keeping structure cells (with the comparisons given and
  defaulted), of every single-entry mutant of the unit's and the
  composition's structure cells, any other square as the new value, and
  of the endpoint functor of each comparison transformation; and, on the
  diagonal bundle of ``quintet(C2)`` with the composition's first
  ``comp_h`` entry moved to square 1 (a wrong boundary), shallow and deep
  reports under the ``BUDGETS`` caps and every cap up to one past the
  instance count, with ``budget.used``; and shallow reports of every
  single-entry mutant of that bundle's leg ``s`` (one cell map entry, any
  other cell of the codomain as the new value);
- deep internal: the status, ``checked`` and assumptions of a deep
  ``check_internal`` at the default budget on the bundle of
  ``commutative_monoid_in_dbl(monoid_cat(t))`` for each of the 12
  commutative monoid tables ``t`` of order at most 3 with unit 0, and on
  the braid bundle;
- square-word rewriting: over arrow x 2-cell, sign x sign and 2-cell x
  invertible 2-cell, every square word of at most 3 moves on every top
  word of at most 3 letters, with its ``rewrite`` normal form, the
  ``compare`` verdict against that normal form and its first ``len(moves)``
  one-step rewrites in the normalizer's priority order (the step
  ``rewrite`` takes, then the alternatives ``critical_pairs_join`` joins
  with it); the same for the top words ``S:x T:y T:z S:w`` whose middle
  pair is left unmerged (sign x sign has two), where a flip and an unflip
  at different positions both keep the length; ``critical_pairs_join`` of
  every top word; and the
  ``check_monoidal_embedding`` reports of acceptance criterion 6's factor
  pairs;
- the interleaved multiplication: digests of both readings of
  ``derive_interleaved_functor`` (cell maps and structure families, each
  family's entries sorted by key) on the four zoo monoids, and
  ``compare_interleavings`` on criterion 6's factor pairs at every pair of
  1-cells;
- functors: ``check_double_pseudo_functor`` on all laws and on each law
  alone, on the identity pseudofunctors of ``embed(sign) x
  transpose(embed(sign))`` and of ``embed(sign) x transpose(embed(walking
  2-cell))`` (whose squares have distinct sides), on their
  ``transpose_pseudo`` and on every
  boundary-keeping single-entry mutant of either in one of the eight
  structure-cell families or in ``sq_map``; ``check_double_pseudo_functor``
  on every single-entry mutant of the identity of ``embed(sign) x
  transpose(embed(sign))`` in one of the eight structure-cell families,
  any other square as the new value; ``check_strict_functor`` on the
  ``sq_map`` mutants; ``check_cubical`` the same way on the cubical functor
  of the identity on each of the four products of ``embed(sign)`` and its
  transpose and on ``embed(sign) x embed(walking 2-cell)``, its transpose
  and their swaps (where single-entry mutants break c11 and c22), and on every boundary-keeping single-entry mutant of its six
  mixed families and of a row functor's ``sq_map`` (with
  ``check_strict_functor`` on the mutated row functor); and each of the
  three checkers on its first failing mutant under the ``BUDGETS`` caps and
  every cap up to one past its instance count, with ``budget.used``;
- the remaining law checkers: ``check_enriched_over_cat`` and
  ``check_coproduct_pullback`` on the sign, two-object and walking-arrow
  bicategories and the sign mutants above, with ``check_bicategory``,
  ``check_pseudo_double_category`` (of the internalization) and
  ``check_enriched_over_cat`` under every cap up to one past their
  instance counts on each; ``check_companion`` and ``check_connection``
  on the canonical connections of the finite-category catalogue's square
  categories and on the four sign pairs; ``roundtrip_check``,
  ``four_identities`` (all laws and each alone) and the correspondence
  report of ``vertical_transformation_to_double`` on the plain vertical
  transformations of the bz3 and sign settings, under each connection and
  on every single-square mutant of a naturality or comparison family
  that keeps the boundary; ``right_unit_constraint`` on the horizontal
  sides of those and on the boundary-keeping mutants of the sign identity;
  ``check_monoid`` on the four zoo monoids and on every single-entry
  mutant of the min monoid; ``check_monoidal_embedding`` on criterion 6's
  factor pairs under the word caps 1 to 3; the extra three-cell equations
  of a bundle; and each budgeted one of these checkers, with the horizontal
  transformation and modification checkers, on its first failing input
  (or a passing one where none fails) under every cap up to one past its
  instance count;
- constructor damage: the exception type and message (or ``accepted``) of
  every ``DAMAGED`` case of ``tests/test_kernel.py`` in the checkout that
  holds this script, whose imports the library under ``PYTHONPATH`` must
  provide;
- pending copies: digests of ``pickle.loads(pickle.dumps(x))`` and of
  ``copy.deepcopy(x)``, each of a new ``x`` whose largest fields are not
  built yet: the pullback and the left-bracketed triple pullback of the
  cyclic-2 and braid bundles, ``quintet(C3) x quintet(walking arrow)``, a
  parse of ``embed(sign)`` and the transposes of all of these (their cells
  and tables), and ``identity_pseudo`` of ``quintet(C3)`` and its
  composite with itself (cell maps and structure cells), or the
  exception's type and message.

The script uses only what every version of dblkit since the composition-
table primitive provides, so it can be run against two checkouts (point
``PYTHONPATH`` at each ``src``) and the two files compared with ``diff``:
a change that must not alter any verdict leaves them byte-identical.  The
one exception is the one-step rewrites, which are private: they are read
from ``SquareCalculus._steps`` where it exists and from the older
``_simplify_nth`` otherwise.
"""

import copy
import hashlib
import importlib.util
import itertools
import json
import pickle
import random
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from dblkit import dsl, kernel, modif, transform, zoo
from dblkit.acceptance import _generators
from dblkit.builders import (
    enumerate_plain_verticals,
    quintet_functor,
    random_theta_instance,
    registry_for,
    theta_from_plain_vertical,
)
from dblkit.cli import _decl_category, _internal_bundle_decls
from dblkit.companion import (
    FOUR_IDENTITIES,
    CompanionPair,
    Connection,
    check_companion,
    check_connection,
    find_connection,
    four_identities,
    roundtrip_check,
    vertical_to_horizontal,
    vertical_transformation_to_double,
)
from dblkit.functors import (
    CUBICAL_AXIOMS,
    PSEUDO_FUNCTOR_AXIOMS,
    StrictDoubleFunctor,
    check_cubical,
    check_double_pseudo_functor,
    check_strict_functor,
    compose_pseudo,
    compose_strict,
    cubical_from_product_functor,
    identity_functor,
    identity_pseudo,
    pseudo_from_strict,
    transpose_pseudo,
)
from dblkit.graytensor import (
    L,
    R,
    GrayWord,
    Letter,
    SquareCalculus,
    check_monoid,
    check_monoidal_embedding,
    compare_interleavings,
    derive_interleaved_functor,
    two_category_tensor_context,
)
from dblkit.modif import identity_modification
from dblkit.transform import identity_double, identity_horizontal, identity_theta, identity_vertical
from dblkit.internal import (
    check_coproduct_pullback,
    check_enriched_over_cat,
    check_internal,
    diagonal_internal,
    internalize_bicategory,
    monoid_to_internal,
    nested_composition_functors,
    pseudomonoid_to_internal,
    triple_pullbacks,
    unit_sided_functors,
)
from dblkit.kernel import (
    DoubleCategory,
    StructureError,
    check_double_category,
    check_two_category,
    embed_two_category,
    product,
    pullback,
    quintet,
    transpose,
)
from dblkit.mutate import TABLES, mutation_slots, sample_mutants
from dblkit.report import Budget
from dblkit.weak import Bicategory, bicategory_from_two_category, check_bicategory, check_pseudo_double_category

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
# the fields of a double category's presentation
PRESENTATION = ("n_objects", "hcells", "vcells", "squares", "hcomp1", "vcomp1", "hcomp2", "vcomp2", "hid", "vid", "sq_vid", "sq_hid")


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
        # a dataclass's fields or a double category's presentation first,
        # read by attribute access, so that one which builds some of them at
        # their first read dumps them too
        names = [f.name for f in fields(value)] if is_dataclass(value) else PRESENTATION if isinstance(value, DoubleCategory) else ()
        read = {name: getattr(value, name) for name in names}
        return {k: _data(v, decl_objs, seen) for k, v in {**read, **vars(value)}.items() if not callable(v)}
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


def zoo_categories():
    """(name, double category) of the zoo: the quintets of the finite
    category catalogue, the embeddings of the zoo 2-categories and their
    transposes, the carriers of the zoo monoids and the product of the
    quintets of C3 and of the walking arrow."""
    out = [(f"quintet {name}", lambda c=c: quintet(c)) for name, c in zoo.small_category_catalog()]
    twos = [*zoo.acyclic_two_category_catalog(), ("walking-iso-2cell", zoo.walking_two_cell(invertible=True)),
            ("sign", zoo.sign_two_category()), ("collapse", zoo.collapse_monoid_two_category()),
            ("braid", zoo.braid_monoid_two_category())]
    for name, t in twos:
        out += [(f"embed {name}", lambda t=t: embed_two_category(t)),
                (f"transpose embed {name}", lambda t=t: transpose(embed_two_category(t)))]
    for name in ("braid", "commutative", "min", "trivial"):
        out.append((f"carrier {name}", lambda name=name: getattr(zoo, f"{name}_monoid_in_dbl")().carrier))
    out.append(("product C3 x walking-arrow", lambda: product(quintet(zoo.cyclic_group_cat(3)), quintet(zoo.walking_arrow()))))
    return out


def _round_trip(d):
    """``serialize(parse(text))`` of the text of a block of ``d``, and
    whether that parse and serialize built any deferred square table (of a
    ``kernel._Pending`` category)."""
    doc = dsl.Document()
    doc.add(_decl_category("D", d))
    text = dsl.serialize(doc)
    built, original = [], kernel._Deferred._build

    def counted(self):
        if type(self) is kernel._Pending:
            built.append(self)
        original(self)

    kernel._Deferred._build = counted
    try:
        again = dsl.serialize(dsl.parse(text))
    finally:
        kernel._Deferred._build = original
    return {"text": again, "fixpoint": again == text, "built": bool(built)}


def dsl_section(out):
    for name, make in zoo_categories():
        out[f"dsl round trip {name}"] = _round_trip(make())
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


FUNCTOR_FIELDS = (
    "ob_map", "h_map", "v_map", "sq_map", "comp_h", "comp_h_inv", "unit_h", "unit_h_inv",
    "comp_v", "comp_v_inv", "unit_v", "unit_v_inv", "name",
)
CELL_FIELDS = ("comp", "nat", "delta", "delta_inv", "t", "r", "theta", "a0", "a1")


def _cells(x):
    """JSON of a transformation, a pair or a modification: its square
    families and, for each endpoint functor, its maps and structure cells
    (dicts as lists of pairs, in insertion order)."""
    if isinstance(x, (list, tuple)):
        return [_cells(y) for y in x]
    if not hasattr(x, "__dict__"):
        return _data(x, {}, set())
    if hasattr(x, "sq_map"):
        return {k: _data(getattr(x, k), {}, set()) for k in FUNCTOR_FIELDS}
    out = {"type": type(x).__name__}
    for k in CELL_FIELDS:
        if hasattr(x, k):
            out[k] = _data(getattr(x, k), {}, set())
    for k in ("F", "G", "v0", "h1", "src", "tgt"):
        if k in vars(x):
            out[k] = _cells(vars(x)[k])
    return out


def _digest(make):
    try:
        value = make()
    except Exception as e:  # the exception's type is part of the record
        return {"error": type(e).__name__, "message": str(e)}
    blob = json.dumps(_cells(value), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(check):
    try:
        return check().to_dict()
    except Exception as e:
        return {"error": type(e).__name__, "message": str(e)}


def _bz3():
    c = zoo.cyclic_group_cat(3)
    d = quintet(c)
    F = pseudo_from_strict(identity_functor(d))
    conn = find_connection(d)
    thetas = [theta_from_plain_vertical(a0, conn, dom_conn=conn) for a0 in enumerate_plain_verticals(F, F)]
    inv_map = tuple((3 - m) % 3 for m in range(3))
    H = pseudo_from_strict(quintet_functor(c, c, d, d, (0,), inv_map))
    return d, F, H, thetas


def _sign_pairs(F):
    d = F.cod
    return {
        (c, r): transform.DoublePNT(
            identity_vertical(F), identity_horizontal(F), [2 * f + c for f in range(len(d.hcells))], [r]
        )
        for c in (0, 1)
        for r in (0, 1)
    }


def _collapse_theta():
    d = embed_two_category(zoo.collapse_monoid_two_category())
    F = pseudo_from_strict(identity_functor(d))
    X, K = 1, 2  # the 1-cell x as an hcell, the collapse cell k : x => 1
    h1 = transform.HorizontalPNT(F, F, [X], [d.sq_vid[X]], [d.sq_vid[X], d.sq_vid[X]], {0: d.sq_vid[X], 1: d.sq_vid[X]})
    alpha = transform.ThetaPNT(identity_vertical(F), h1, [K])
    ident = transform.ThetaPNT(identity_vertical(F), identity_horizontal(F), [d.sq_vid[d.hid[0]]])
    reg = transform.ComponentRegistry.of(hcells={X}, vcells={d.vid[0]})
    return d, F, alpha, ident, reg


def _pnt_reports(out, key, a, reg):
    """Every transformation checker on the coupled pair ``a`` and its legs."""
    out[f"{key} v0"] = _report(lambda: transform.check_vertical_pnt(a.v0))
    out[f"{key} h1"] = _report(lambda: transform.check_horizontal_pnt(a.h1))
    out[f"{key} v0 subset"] = _report(lambda: transform.check_vertical_pnt(a.v0, axioms=("pnt-naturality", "pnt-hcomp-delta", "delta-invertibility")))
    out[f"{key} h1 subset"] = _report(lambda: transform.check_horizontal_pnt(a.h1, axioms=("pnt-vcomp", "pnt-hunit-delta")))
    if isinstance(a, transform.ThetaPNT):
        out[f"{key} theta"] = _report(lambda: transform.check_theta(a, reg))
        out[f"{key} theta unregistered"] = _report(lambda: transform.check_theta(a))
        a = transform.theta_to_double(a)
        out[f"{key} expansion"] = _digest(lambda: a)
    out[f"{key} double"] = _report(lambda: transform.check_double_pnt(a, reg))
    out[f"{key} double unregistered"] = _report(lambda: transform.check_double_pnt(a))
    out[f"{key} candidates"] = _digest(lambda: transform.theta_candidates_from_double(a))
    out[f"{key} transpose"] = _digest(lambda: transform.transpose_double(a))
    out[f"{key} transpose twice"] = _digest(lambda: transform.transpose_double(transform.transpose_double(a)))


def _modification_reports(out, key, m):
    subset = ("slide-v-delta", "slide-h-nat", "coupling-r")
    out[f"{key} modification"] = _report(lambda: modif.check_modification(m))
    out[f"{key} modification subset"] = _report(lambda: modif.check_modification(m, axioms=subset))
    for axioms, tag in ((None, ""), (subset, " subset")):
        out[f"{key} vertical side{tag}"] = _report(lambda: modif.check_vertical_side(m.src.v0, m.tgt.v0, m.a0, axioms=axioms))
        out[f"{key} horizontal side{tag}"] = _report(lambda: modif.check_horizontal_side(m.src.h1, m.tgt.h1, m.a1, axioms=axioms))


def _composites(out, key, pairs, modifications=()):
    """Digests of every composite of the coupled pairs (and of their legs)
    and of the modifications, including the failures."""
    for (i, a), (j, b) in itertools.product(enumerate(pairs), repeat=2):
        for name, make in (
            ("vcomp vertical", lambda: transform.vcomp_vertical(a.v0, b.v0)),
            ("hcomp vertical", lambda: transform.hcomp_vertical(b.v0, a.v0)),
            ("vcomp horizontal", lambda: transform.vcomp_horizontal(a.h1, b.h1)),
            ("hcomp horizontal", lambda: transform.hcomp_horizontal(b.h1, a.h1)),
        ):
            out[f"{key} {name} {i} {j}"] = _digest(make)
        if isinstance(a, transform.ThetaPNT):
            out[f"{key} vcomp theta {i} {j}"] = _digest(lambda: transform.vcomp_theta(a, b))
            out[f"{key} hcomp theta {i} {j}"] = _digest(lambda: transform.hcomp_theta(b, a))
            a, b = transform.theta_to_double(a), transform.theta_to_double(b)
        out[f"{key} vcomp double {i} {j}"] = _digest(lambda: transform.vcomp_double(a, b))
        out[f"{key} hcomp double {i} {j}"] = _digest(lambda: transform.hcomp_double(b, a))
    for (i, m), (j, n) in itertools.product(enumerate(modifications), repeat=2):
        out[f"{key} vcomp modification {i} {j}"] = _digest(lambda: modif.vcomp_modif(m, n))
        out[f"{key} hcomp modification {i} {j}"] = _digest(lambda: modif.hcomp_modif(n, m))
        out[f"{key} tcomp modification {i} {j}"] = _digest(lambda: modif.tcomp_modif(n, m))


def _replace(seq, i, s):
    seq = list(seq)
    seq[i] = s
    return seq


def _square_mutants(d, a):
    """Each coupled pair (or theta pair) that differs from ``a`` in one
    square of one family, the new square on the same boundary."""
    v0, h1 = a.v0, a.h1
    theta = isinstance(a, transform.ThetaPNT)
    rest = (a.theta,) if theta else (a.t, a.r)

    def leg(x, family, i, s):
        fields = {"nat": x.nat, "delta": x.delta, "delta_inv": x.delta_inv}
        fields[family] = {**x.delta_inv, i: s} if family == "delta_inv" else _replace(fields[family], i, s)
        return type(x)(x.F, x.G, x.comp, fields["nat"], fields["delta"], fields["delta_inv"])

    slots = []
    for family in ("nat", "delta", "delta_inv"):
        slots.append((f"v0.{family}", getattr(v0, family), lambda i, s, f=family: (leg(v0, f, i, s), h1, *rest)))
        slots.append((f"h1.{family}", getattr(h1, family), lambda i, s, f=family: (v0, leg(h1, f, i, s), *rest)))
    if theta:
        slots.append(("theta", a.theta, lambda i, s: (v0, h1, _replace(a.theta, i, s))))
    else:
        slots.append(("t", a.t, lambda i, s: (v0, h1, _replace(a.t, i, s), a.r)))
        slots.append(("r", a.r, lambda i, s: (v0, h1, a.t, _replace(a.r, i, s))))
    out = []
    for family, cells, make in slots:
        items = sorted(cells.items()) if isinstance(cells, dict) else enumerate(cells)
        for i, cell in items:
            for s, bnd in enumerate(d.squares):
                if s != cell and bnd == d.squares[cell]:
                    out.append((f"{family}[{i}]={s}", type(a)(*make(i, s))))
    return out


def _modification_mutants(d, m):
    out = []
    for family in ("a0", "a1"):
        cells = getattr(m, family)
        for i, cell in enumerate(cells):
            for s, bnd in enumerate(d.squares):
                if s != cell and bnd == d.squares[cell]:
                    a0, a1 = (_replace(m.a0, i, s), m.a1) if family == "a0" else (m.a0, _replace(m.a1, i, s))
                    out.append((f"{family}[{i}]={s}", type(m)(m.src, m.tgt, a0, a1)))
    return out


def _mutant_reports(out, key, d, a, reg):
    for slot, mutant in _square_mutants(d, a):
        _pnt_reports(out, f"{key} mutant {slot}", mutant, reg)


THETA_INSTANCES = 40


def transformations(out):
    # bz3: three theta pairs on the identity of quintet(C3), the inversion
    # endofunctor for whiskering, identity modifications
    d, F, H, thetas = _bz3()
    reg = registry_for(*[th.v0 for th in thetas], *[th.h1 for th in thetas])
    doubles = [transform.theta_to_double(th) for th in thetas]
    for i, th in enumerate(thetas):
        _pnt_reports(out, f"bz3 {i}", th, reg)
        for name, G in (("F", F), ("inversion", H)):
            out[f"bz3 {i} whisker vertical {name}"] = _digest(lambda: transform.whisker_functor_vertical(G, th.v0))
            out[f"bz3 {i} whisker horizontal {name}"] = _digest(lambda: transform.whisker_functor(G, th.h1))
        m = identity_modification(doubles[i])
        _modification_reports(out, f"bz3 {i} identity", m)
        theta_m = modif.ThetaModification(th, th, m.a0, m.a1)
        out[f"bz3 {i} theta modification"] = _report(lambda: modif.check_theta_modification(theta_m))
        out[f"bz3 {i} right unit"] = _digest(lambda: transform.right_unit_constraint(th.h1)[:2])
        out[f"bz3 {i} right unit report"] = _report(lambda: transform.right_unit_constraint(th.h1)[2])
    _pnt_reports(out, "bz3 identity", transform.identity_theta(F), reg)
    mods = [identity_modification(dd) for dd in doubles] + [identity_modification(identity_double(F))]
    _composites(out, "bz3", thetas + [transform.identity_theta(F)], mods)
    # sign setting: four signed coupled pairs, on the identity functor and
    # on the cocycle functor, with every signed modification between them
    sign = embed_two_category(zoo.sign_two_category())
    cocycle = zoo.sign_cocycle_pseudofunctor()
    for fname, G in (("identity", pseudo_from_strict(identity_functor(sign))), ("cocycle", cocycle)):
        dd = G.cod
        sreg = transform.ComponentRegistry.of(hcells={dd.hid[0]}, vcells={dd.vid[0]})
        pairs = _sign_pairs(G)
        smods = []
        for key, a in sorted(pairs.items()):
            _pnt_reports(out, f"sign {fname} {key}", a, sreg)
            _mutant_reports(out, f"sign {fname} {key}", dd, a, sreg)
        for (k1, a), (k2, b) in itertools.product(sorted(pairs.items()), repeat=2):
            for s0, s1 in itertools.product((0, 1), repeat=2):
                try:
                    m = modif.DoubleModification(a, b, [s0], [s1])
                except StructureError:
                    continue
                tag = f"sign {fname} {k1}->{k2} {s0}{s1}"
                _modification_reports(out, tag, m)
                for slot, mutant in _modification_mutants(dd, m):
                    out[f"{tag} mutant {slot}"] = _report(lambda: modif.check_modification(mutant))
                if k1 == k2 == (0, 0):
                    smods.append(m)
        _composites(out, f"sign {fname}", [pairs[k] for k in sorted(pairs)], smods)
        out[f"sign {fname} whisker vertical"] = _digest(lambda: transform.whisker_functor_vertical(cocycle, identity_vertical(G)))
        out[f"sign {fname} whisker horizontal"] = _digest(lambda: transform.whisker_functor(cocycle, identity_horizontal(G)))
        out[f"sign {fname} right unit"] = _digest(lambda: transform.right_unit_constraint(identity_horizontal(G))[:2])
        out[f"sign {fname} right unit report"] = _report(lambda: transform.right_unit_constraint(identity_horizontal(G))[2])
        ident = transform.identity_theta(G)
        _pnt_reports(out, f"sign {fname} identity theta", ident, sreg)
        _mutant_reports(out, f"sign {fname} identity theta", dd, ident, sreg)
    # the collapse monoid: a nonidentity generating square
    dc, Fc, alpha, ident, creg = _collapse_theta()
    for name, th in (("alpha", alpha), ("identity", ident)):
        _pnt_reports(out, f"collapse {name}", th, creg)
        _mutant_reports(out, f"collapse {name}", dc, th, creg)
    _composites(out, "collapse", [alpha, ident])
    theta_m = modif.ThetaModification(alpha, ident, [dc.sq_hid[dc.vid[0]]], [2])
    out["collapse theta modification"] = _report(lambda: modif.check_theta_modification(theta_m))
    _modification_reports(out, "collapse theta modification", theta_m._shadow)
    # criterion 4's seeded instances
    rng = random.Random(20240817)
    cats = zoo.small_category_catalog()
    done = 0
    while done < THETA_INSTANCES:
        inst = random_theta_instance(rng, cats)
        if inst is None:
            continue
        th, conn, ireg = inst
        key = f"theta instance {done}"
        _pnt_reports(out, key, th, ireg)
        dd = transform.theta_to_double(th)
        Fi, Gi, cod = th.v0.F, th.v0.G, th.v0.F.cod
        out[f"{key} vcomp vertical"] = _digest(lambda: transform.vcomp_vertical(th.v0, identity_vertical(Gi)))
        out[f"{key} vcomp vertical left"] = _digest(lambda: transform.vcomp_vertical(identity_vertical(Fi), th.v0))
        out[f"{key} hcomp vertical"] = _digest(lambda: transform.hcomp_vertical(identity_vertical(identity_pseudo(cod)), th.v0))
        out[f"{key} whisker vertical"] = _digest(lambda: transform.whisker_functor_vertical(identity_pseudo(cod), th.v0))
        out[f"{key} vcomp double"] = _digest(lambda: transform.vcomp_double(dd, identity_double(Gi)))
        out[f"{key} hcomp double"] = _digest(lambda: transform.hcomp_double(identity_double(identity_pseudo(cod)), dd))
        out[f"{key} vcomp theta"] = _digest(lambda: transform.vcomp_theta(th, transform.identity_theta(Gi)))
        out[f"{key} hcomp theta"] = _digest(lambda: transform.hcomp_theta(transform.identity_theta(identity_pseudo(cod)), th))
        m = identity_modification(dd)
        _modification_reports(out, key, m)
        out[f"{key} hcomp modification"] = _digest(lambda: modif.hcomp_modif(identity_modification(identity_double(identity_pseudo(cod))), m))
        out[f"{key} vcomp modification"] = _digest(lambda: modif.vcomp_modif(m, identity_modification(identity_double(Gi))))
        done += 1


INTERNAL_MONOIDS = (
    ("braid", zoo.braid_monoid_in_dbl),
    ("cyclic2", zoo.commutative_monoid_in_dbl),
    ("min", zoo.min_monoid_in_dbl),
    ("trivial", zoo.trivial_monoid_in_dbl),
)
PULLBACK_MUTANTS = 40
ISO_PULLBACK_MUTANTS = 20
MONOID_PULLBACK_MUTANTS = 20
MULTI_ENTRY_MUTANTS = 40
MAPS = ("ob_map", "h_map", "v_map", "sq_map")


def _category(d):
    """The cells and tables of a double category, for a digest."""
    return {k: getattr(d, k) for k in PRESENTATION}


def _bundle(out, key, data, empty, deep=(True, False)):
    """The reports of ``check_internal`` on ``data`` and, after them, the
    digests of its nested and unit-sided composites."""
    for flag in deep:
        tag = "deep" if flag else "shallow"
        out[f"{key} {tag}"] = _report(lambda: check_internal(data, registry=empty, deep=flag))

    def nested():
        left, right, p3l = nested_composition_functors(data)
        return left, right, _category(p3l)

    out[f"{key} nested"] = _digest(nested)
    out[f"{key} unit-sided"] = _digest(lambda: unit_sided_functors(data))


def _field_order(out, key, data):
    """The ``vars()`` order of each pseudofunctor the bundle composes after
    one read of a structure family, on a bundle not checked yet: its nested
    and unit-sided composites, then m x 1 and 1 x m of ``triple_pullbacks``;
    the family read runs through the eight in turn."""
    left, right, _ = nested_composition_functors(data)
    _, _, m_x_id, id_x_m, _ = triple_pullbacks(data)
    order = []
    for i, f in enumerate((left, right, *unit_sided_functors(data), m_x_id, id_x_m)):
        getattr(f, FUNCTOR_FIELDS[4 + i % 8])
        order.append(list(vars(f)))
    out[f"{key} field order"] = order


def _square_tables(out, key, data):
    """On the bundle's pullback and both triple pullbacks, each made anew
    per entry: the square tables of its transpose in insertion order, and
    every square table entry of it and of its transpose read by a single
    ``hpaste`` or ``vpaste`` at its key, in key order."""
    t_after_p2, s_after_p1 = compose_strict(data.t, data.p2), compose_strict(data.s, data.p1)
    for part, pair in (("p", (data.t, data.s)), ("p3l", (t_after_p2, data.s)), ("p3r", (data.t, s_after_p1))):
        def tables(pair=pair):
            t = transpose(pullback(*pair))
            return [t.hcomp2, t.vcomp2]

        def pastes(pair=pair):
            h, v = (sorted(table) for table in tables())  # the transpose's keys
            d, t = pullback(*pair), transpose(pullback(*pair))
            return [[d.vpaste(a, b) for a, b in h], [d.hpaste(a, b) for a, b in v],
                    [t.hpaste(a, b) for a, b in h], [t.vpaste(a, b) for a, b in v]]

        out[f"{key} transpose {part} squares"] = _digest(tables)
        out[f"{key} {part} pastes"] = _digest(pastes)


def internal(out):
    empty = transform.ComponentRegistry.of()
    bundles = {}
    for name, make in INTERNAL_MONOIDS:
        _field_order(out, f"internal {name}", monoid_to_internal(make()))
        monoid = make()
        bundles[name] = (monoid, monoid_to_internal(monoid))
        _bundle(out, f"internal {name}", bundles[name][1], empty)
        _square_tables(out, f"internal {name}", bundles[name][1])
    # acceptance criterion 8's pseudomonoid bundle, written out rather than
    # taken from the acceptance module so that the script runs on older
    # checkouts
    monoid, base = bundles["cyclic2"]
    d = monoid.carrier
    left, right, p3l = nested_composition_functors(base)
    nonid = [v for v in enumerate_plain_verticals(right, left) if any(v.comp[o] != d.vid[0] for o in range(d.n_objects))]
    pseudo = pseudomonoid_to_internal(monoid, nonid[0], find_connection(d), dom_conn=find_connection(p3l))
    _field_order(out, "internal pseudomonoid", pseudomonoid_to_internal(monoid, nonid[0], find_connection(d), dom_conn=find_connection(p3l)))
    _bundle(out, "internal pseudomonoid", pseudo, empty)
    _square_tables(out, "internal pseudomonoid", pseudo)
    # criterion 8's compatibility mutations
    dq = quintet(zoo.walking_arrow())
    good = diagonal_internal(dq)
    constant = StrictDoubleFunctor(
        dq, dq, [0] * dq.n_objects, [dq.hid[0]] * len(dq.hcells), [dq.vid[0]] * len(dq.vcells),
        [dq.sq_vid[dq.hid[0]]] * len(dq.squares), name="const",
    )
    ds = embed_two_category(zoo.sign_two_category())
    diag_s = diagonal_internal(ds)
    minus_lunit = transform.DoublePNT(
        identity_vertical(diag_s.lunit.F), identity_horizontal(diag_s.lunit.F), [2 * f + 1 for f in range(len(ds.hcells))], [1]
    )
    mutations = (
        ("diagonal", good),
        ("unit-section", replace(good, u=pseudo_from_strict(constant))),
        ("composite-sources", replace(good, m=pseudo_from_strict(constant), lunit=None, runit=None)),
        ("pullback", replace(good, p=product(dq, dq))),
        ("whisker", replace(diag_s, lunit=minus_lunit)),
    )
    for name, data in mutations:
        _bundle(out, f"internal mutation {name}", data, empty, deep=(False,))
    host = diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    for slot, bad_p in sample_mutants(host.p, PULLBACK_MUTANTS, seed=6):
        out[f"internal pullback mutant {slot}"] = _report(lambda: check_internal(replace(host, p=bad_p), registry=empty, deep=False))
    for label, bad_p in _multi_entry_mutants(host.p, MULTI_ENTRY_MUTANTS, seed=9):
        out[f"internal multi-entry {label}"] = _report(lambda: check_internal(replace(host, p=bad_p), registry=empty, deep=False))
    iso = diagonal_internal(quintet(zoo.walking_iso()))
    for slot, bad_p in sample_mutants(iso.p, ISO_PULLBACK_MUTANTS, seed=7):
        out[f"internal iso pullback mutant {slot}"] = _report(lambda: check_internal(replace(iso, p=bad_p), registry=empty, deep=False))
    # a product pullback, its legs into the terminal category
    cyclic2 = bundles["cyclic2"][1]
    for slot, bad_p in sample_mutants(cyclic2.p, MONOID_PULLBACK_MUTANTS, seed=8):
        out[f"internal cyclic2 pullback mutant {slot}"] = _report(
            lambda: check_internal(replace(cyclic2, p=bad_p), registry=empty, deep=False)
        )
    _bundle_mutants(out, host, empty)
    _bundle_mutants(out, diag_s, empty)
    m = host.m
    moved = replace(host, m=replace(m, comp_h={**m.comp_h, min(m.comp_h): 1}))
    for flag, tag in ((False, "shallow"), (True, "deep")):
        _capped(out, f"internal cutoff {tag}", lambda budget, flag=flag: check_internal(moved, registry=empty, deep=flag, budget=budget))
    for label, s in _leg_mutants(host.s):
        out[f"internal leg mutant {label}"] = _report(lambda: check_internal(replace(host, s=s), registry=empty, deep=False))


def commutative_monoid_tables(order):
    """Every commutative monoid table on ``range(order)`` with unit 0, in
    lexicographic order of its products of nonzero elements."""
    pairs = [(x, y) for x in range(1, order) for y in range(x, order)]
    for values in itertools.product(range(order), repeat=len(pairs)):
        table = [[max(x, y) if 0 in (x, y) else None for y in range(order)] for x in range(order)]
        for (x, y), z in zip(pairs, values):
            table[x][y] = table[y][x] = z
        if all(table[table[x][y]][z] == table[x][table[y][z]] for x, y, z in itertools.product(range(order), repeat=3)):
            yield table


def deep_internal(out):
    """The deep check of the small commutative monoids' bundles and of the
    braid bundle, each under the default budget."""
    empty = transform.ComponentRegistry.of()
    cases = [(f"order {n} {t}", lambda t=t: zoo.commutative_monoid_in_dbl(zoo.monoid_cat(t)))
             for n in (1, 2, 3) for t in commutative_monoid_tables(n)]
    for name, make in cases + [("braid", zoo.braid_monoid_in_dbl)]:
        rep = _report(lambda: check_internal(monoid_to_internal(make()), registry=empty))
        out[f"deep internal {name}"] = {k: rep.get(k) for k in ("status", "checked", "assumptions", "error", "message") if k in rep}


def _multi_entry_mutants(d, count, seed):
    """``count`` seeded mutants of ``d``, each with two or three entries of
    one table changed and every table re-inserted in a seeded shuffled
    order, so that the first key changed is not the first met."""
    rng = random.Random(seed)
    slots = mutation_slots(d)
    out = []
    for _ in range(count):
        table, want, changed = rng.choice(slots)[0], rng.choice((2, 3)), {}
        same = [(k, a) for t, k, a in slots if t == table]
        for k, a in rng.sample(same, len(same)):
            changed.setdefault(k, a)
            if len(changed) == want:
                break
        tables = {name: dict(getattr(d, name)) for name in TABLES}
        tables[table].update(changed)
        tables = {name: dict(rng.sample(list(t.items()), len(t))) for name, t in tables.items()}
        bad = DoubleCategory(d.n_objects, d.hcells, d.vcells, d.squares, *tables.values(), d.hid, d.vid,
                             d.sq_vid, d.sq_hid, names=d.names)
        out.append((f"{table} {sorted(changed.items())}", bad))
    return out


def _map_sizes(cod):
    """The number of cells of ``cod`` each cell map takes its values in."""
    return {"ob_map": cod.n_objects, "h_map": len(cod.hcells), "v_map": len(cod.vcells), "sq_map": len(cod.squares)}


def _leg_mutants(f):
    """Every mutant of ``f`` in one entry of one cell map, any other cell of
    the codomain as the new value, as ``(label, mutant)``."""
    for name, n in _map_sizes(f.cod).items():
        values = getattr(f, name)
        for i, old in enumerate(values):
            for x in range(n):
                if x != old:
                    yield f"{name}[{i}]={x}", replace(f, **{name: _replace(values, i, x)})


def _map_mutants(f, maps=MAPS):
    """Single-entry mutants of the cell maps of ``f``: in each map of
    ``maps``, its first and its middle entry moved to the next cell of the
    codomain, as ``(label, mutant)``."""
    counts = _map_sizes(f.cod)
    for name in maps:
        values, n = getattr(f, name), counts[name]
        if n < 2:
            continue
        for i in sorted({0, len(values) // 2}):
            yield f"{name} {i}", replace(f, **{name: _replace(values, i, (values[i] + 1) % n)})


def _structure_mutants(f):
    """Single-entry mutants of the structure cells of ``f`` that keep the
    boundary: in each of the four families its first entry that has a
    parallel square, moved to the first such square."""
    cod = f.cod
    for name in ("comp_h", "unit_h", "comp_v", "unit_v"):
        cells = getattr(f, name)
        for key in sorted(cells):
            s = cells[key]
            alts = [x for x in range(len(cod.squares)) if x != s and cod.squares[x] == cod.squares[s]]
            if alts:
                yield f"{name} {key}", replace(f, **{name: {**cells, key: alts[0]}})
                break


def _bundle_mutants(out, data, empty):
    """Shallow reports of single-entry mutants of a diagonal bundle's
    projections, unit and composition, and of its comparison
    transformations' endpoints (the identity transformation on a mutated
    endpoint functor), defaulted or not; and of every single-entry mutant
    of a structure cell of the unit or the composition, any other square
    as the new value."""
    key = f"internal {len(data.d1.squares)}-square"

    def check(label, bundle):
        out[f"{key} {label}"] = _report(lambda: check_internal(bundle, registry=empty, deep=False))

    for side in ("p1", "p2"):
        for label, f in _map_mutants(getattr(data, side)):
            check(f"{side} mutant {label}", replace(data, **{side: f}))
    for side in ("u", "m"):
        f = getattr(data, side)
        for label, g in itertools.chain(_map_mutants(f, ("h_map", "sq_map")), _structure_mutants(f)):
            check(f"{side} mutant {label}", replace(data, **{side: g}))
            check(f"{side} mutant {label} defaulted", replace(data, **{side: g}, assoc=None, lunit=None, runit=None))
        for label, g in _any_structure_mutants(f):
            check(f"{side} structure mutant {label}", replace(data, **{side: g}))
    for side in ("assoc", "lunit", "runit"):
        F = getattr(data, side).F
        for label, g in _map_mutants(F, ("sq_map",)):
            check(f"{side} endpoint mutant {label}", replace(data, **{side: identity_double(g)}))


REWRITING_SETTINGS = (
    ("arrow x 2-cell", zoo.walking_arrow_two_category, zoo.walking_two_cell),
    ("sign x sign", zoo.sign_two_category, zoo.sign_two_category),
    ("2-cell x iso-2-cell", zoo.walking_two_cell, lambda: zoo.walking_two_cell(invertible=True)),
)


def _moves(moves):
    return " ".join(f"{m.kind}@{m.pos}" if m.cell is None else f"{m.kind}@{m.pos}:{m.cell}" for m in moves)


def _one_step_rewrites(calc, e):
    """The first ``len(e.moves)`` one-step rewrites of ``e`` in the
    normalizer's priority order."""
    if hasattr(calc, "_steps"):
        return list(itertools.islice(calc._steps(e), len(e.moves)))
    out = []
    for skip in range(len(e.moves)):
        step = calc._simplify_nth(e, skip)
        if step is None:
            break
        out.append(step)
    return out


def _unmerged_tops(ctx):
    """Top words ``S:x T:y T:z S:w`` of nonidentity letters whose middle
    pair is left unmerged.  On these an interchange at either end keeps the
    length, so a square word can hold a flip and an unflip at different
    positions, each at a stable length; on normalized words every
    length-keeping interchange sits in a two-letter word."""
    cells = {side: [c for c in range(len(ctx.spec(side).cells)) if not ctx.spec(side).is_id(c)] for side in (L, R)}
    tops = []
    for s, t in ((L, R), (R, L)):
        for start in itertools.product(range(ctx.a.n_objects), range(ctx.b.n_objects)):
            for x, y, z, w in itertools.product(cells[s], cells[t], cells[t], cells[s]):
                letters = (Letter(s, x), Letter(t, y), Letter(t, z), Letter(s, w))
                try:
                    ctx.check_chainable(start, letters)
                except StructureError:
                    continue
                tops.append(GrayWord(start, letters))
    return tops


def _or_error(make):
    """``make()``, or the error it raises: the rewriting rules raise on some
    words over an unmerged top, where a rewrite puts a move on a letter that
    normalization has merged away."""
    try:
        return make()
    except StructureError as err:
        return {"error": str(err)}


def _rewritten(calc, e):
    """The normal form of ``e``, its comparison with it and the one-step
    rewrites of ``e``."""
    normal = calc.rewrite(e)
    return {
        "normal": _moves(normal.moves),
        "compare": calc.compare(e, normal),
        "steps": [_moves(s.moves) for s in _one_step_rewrites(calc, e)],
    }


def rewriting(out):
    for setting, make_a, make_b in REWRITING_SETTINGS:
        a, b = make_a(), make_b()
        ctx = two_category_tensor_context(a, b)
        calc = SquareCalculus(ctx, a, b)
        unmerged = [(top, "unmerged ") for top in _unmerged_tops(ctx)]
        for top, tag in [(top, "") for top in ctx.enumerate_words(3)] + unmerged:
            key = f"rewriting {setting} {tag}{top.start} {ctx.describe(top)}"
            for e in calc.enumerate_square_words(top, 3):
                out[f"{key} [{_moves(e.moves)}]"] = _or_error(lambda: _rewritten(calc, e))
            out[f"{key} critical-pairs"] = _or_error(lambda: [
                [_moves(x.moves) for x in failure] for failure in calc.critical_pairs_join(top)
            ])
    cats = zoo.acyclic_two_category_catalog()
    for (n1, a), (n2, b) in itertools.product(cats, repeat=2):
        out[f"rewriting embedding {n1} x {n2}"] = _report(lambda: check_monoidal_embedding(a, b, cap=4))


def _sorted_digest(f):
    """A digest of a functor's cell maps and structure families, each
    family's entries sorted by key."""
    cells = {k: sorted(v.items()) if isinstance(v, dict) else v for k in FUNCTOR_FIELDS for v in [getattr(f, k)]}
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


def interleaved(out):
    for name, make in INTERNAL_MONOIDS:
        m = make()
        for flag, label in ((True, "first-factor-first"), (False, "second-factor-first")):
            out[f"graytensor interleaved {name} {label}"] = _sorted_digest(derive_interleaved_functor(m, first_factor_first=flag))
    cats = zoo.acyclic_two_category_catalog()
    for (n1, a), (n2, b) in itertools.product(cats, repeat=2):
        for f, g in itertools.product(range(len(a.onecells)), range(len(b.onecells))):
            out[f"graytensor interleaved compare {n1} x {n2} {f} {g}"] = list(compare_interleavings(a, b, f, g))


STRUCTURE_FAMILIES = ("comp_h", "comp_h_inv", "unit_h", "unit_h_inv", "comp_v", "comp_v_inv", "unit_v", "unit_v_inv")
MIXED_FAMILIES = ("hh", "hh_inv", "vv", "vv_inv", "hv", "vh")


def _cell_mutants(cod, cells):
    """``(key, square)`` for every entry of ``cells`` (a dict, or a sequence
    indexed by position) and every other square of ``cod`` on its boundary."""
    items = sorted(cells.items()) if isinstance(cells, dict) else enumerate(cells)
    return [(key, s) for key, cell in items for s, bnd in enumerate(cod.squares) if s != cell and bnd == cod.squares[cell]]


def _any_structure_mutants(f):
    """Every mutant of ``f`` in one entry of one structure family, any other
    square of the codomain as the new value."""
    for family in STRUCTURE_FAMILIES:
        cells = getattr(f, family)
        for key, old in sorted(cells.items()):
            for s in range(len(f.cod.squares)):
                if s != old:
                    yield f"{family}[{key}]={s}", replace(f, **{family: {**cells, key: s}})


def _pseudo_mutants(f):
    """Every mutant of ``f`` in one entry of one structure family or of
    ``sq_map`` that keeps the boundary."""
    out = []
    for family in STRUCTURE_FAMILIES:
        for key, s in _cell_mutants(f.cod, getattr(f, family)):
            out.append((f"{family}[{key}]={s}", replace(f, **{family: {**getattr(f, family), key: s}})))
    for i, s in _cell_mutants(f.cod, f.sq_map):
        out.append((f"sq_map[{i}]={s}", replace(f, sq_map=_replace(f.sq_map, i, s))))
    return out


def _cubical_mutants(h):
    """Every mutant of ``h`` in one entry of one mixed family or of one row
    functor's ``sq_map`` that keeps the boundary."""
    out = []
    for family in MIXED_FAMILIES:
        for key, s in _cell_mutants(h.cod, getattr(h, family)):
            out.append((f"{family}[{key}]={s}", replace(h, **{family: {**getattr(h, family), key: s}})))
    for a, row in enumerate(h.row_functors):
        for i, s in _cell_mutants(h.cod, row.sq_map):
            rows = _replace(h.row_functors, a, replace(row, sq_map=_replace(row.sq_map, i, s)))
            out.append((f"row[{a}].sq_map[{i}]={s}", replace(h, row_functors=tuple(rows))))
    return out


def _law_reports(out, key, check, laws):
    """``check`` on all laws, then on each law alone."""
    out[f"{key} all"] = _report(lambda: check(None))
    for law in laws:
        out[f"{key} {law}"] = _report(lambda: check({law}))


def _capped(out, key, check):
    """``check(budget)`` and the budget used under every cap in ``BUDGETS``
    and every cap up to one past the uncapped instance count."""
    total = check(Budget()).checked
    for k in sorted(set(BUDGETS) | set(range(total + 2))):
        budget = Budget(k)
        out[f"{key} {k}"] = _report(lambda: check(budget))
        out[f"{key} {k} used"] = budget.used


def functors(out):
    es = embed_two_category(zoo.sign_two_category())
    wtc = embed_two_category(zoo.walking_two_cell())
    et, wt = transpose(es), transpose(wtc)
    hosts = []
    for name, d in (("sign x sign^T", product(es, et)), ("sign x 2-cell^T", product(es, wt))):
        f, dt = identity_pseudo(d), transpose(d)
        hosts += [(name, f), (f"transposed {name}", transpose_pseudo(f, dt, dt))]
    failing = {}
    for name, host in hosts:
        for slot, mutant in [("unmutated", host)] + _pseudo_mutants(host):
            key = f"functors pseudo {name} {slot}"
            _law_reports(out, key, lambda axioms: check_double_pseudo_functor(mutant, axioms=axioms), PSEUDO_FUNCTOR_AXIOMS)
            if slot.startswith("sq_map"):
                strict = StrictDoubleFunctor(mutant.dom, mutant.cod, mutant.ob_map, mutant.h_map, mutant.v_map, mutant.sq_map)
                out[f"functors strict {name} {slot}"] = _report(lambda: check_strict_functor(strict))
                if out[f"functors strict {name} {slot}"].get("status") == "fail":
                    failing.setdefault("strict", strict)
            if out[f"{key} all"].get("status") == "fail":
                failing.setdefault("pseudo", mutant)
    for slot, mutant in _any_structure_mutants(hosts[0][1]):
        out[f"functors structure mutant sign x sign^T {slot}"] = _report(lambda: check_double_pseudo_functor(mutant))
    signs = (("sign", es), ("sign^T", et))
    factors = [(x, y) for x in signs for y in signs]
    factors += [(("sign", es), ("2-cell", wtc)), (("2-cell", wtc), ("sign", es))]
    factors += [(("sign^T", et), ("2-cell^T", wt)), (("2-cell^T", wt), ("sign^T", et))]
    for (n1, d1), (n2, d2) in factors:
        d = product(d1, d2)
        h = cubical_from_product_functor(d1, d2, identity_functor(d))
        for slot, mutant in [("unmutated", h)] + _cubical_mutants(h):
            key = f"functors cubical {n1} x {n2} {slot}"
            _law_reports(out, key, lambda axioms: check_cubical(mutant, axioms=axioms), CUBICAL_AXIOMS)
            for a, row in enumerate(mutant.row_functors):
                if row is not h.row_functors[a]:
                    out[f"functors strict {n1} x {n2} {slot}"] = _report(lambda: check_strict_functor(row))
            if out[f"{key} all"].get("status") == "fail":
                failing.setdefault("cubical", mutant)
    _capped(out, "functors cutoff strict", lambda budget: check_strict_functor(failing["strict"], budget=budget))
    _capped(out, "functors cutoff pseudo", lambda budget: check_double_pseudo_functor(failing["pseudo"], budget=budget))
    _capped(out, "functors cutoff cubical", lambda budget: check_cubical(failing["cubical"], budget=budget))


MONOID_FAMILIES = (
    ("mul_ob", "n_objects"),
    ("mul_h_left", "hcells"),
    ("mul_h_right", "hcells"),
    ("mul_v_left", "vcells"),
    ("mul_v_right", "vcells"),
    ("mul_sq_left", "squares"),
    ("mul_sq_right", "squares"),
    ("flip_hh", "squares"),
    ("flip_hh_inv", "squares"),
    ("flip_vv", "squares"),
    ("flip_vv_inv", "squares"),
    ("mixed_hv", "squares"),
    ("mixed_vh", "squares"),
)


def _monoid_mutants(m):
    """Every monoid that differs from ``m`` in one entry of one family, the
    entry moved to another cell of its kind."""
    d = m.carrier
    out = []
    for family, kind in MONOID_FAMILIES:
        n = d.n_objects if kind == "n_objects" else len(getattr(d, kind))
        for key, value in sorted(getattr(m, family).items()):
            for alt in range(n):
                if alt != value:
                    out.append((f"{family}[{key}]={alt}", replace(m, **{family: {**getattr(m, family), key: alt}})))
    return out


def _pnt_mutants(d, a):
    """Each transformation that differs from ``a`` in one square of its
    naturality or comparison family, the new square on the same boundary."""
    out = []
    for family in ("nat", "delta"):
        cells = getattr(a, family)
        for i, cell in enumerate(cells):
            for s, bnd in enumerate(d.squares):
                if s != cell and bnd == d.squares[cell]:
                    fields = {"nat": a.nat, "delta": a.delta, family: _replace(cells, i, s)}
                    out.append((f"{family}[{i}]={s}", type(a)(a.F, a.G, a.comp, fields["nat"], fields["delta"], dict(a.delta_inv))))
    return out


def _trade_reports(out, key, a0, conn, failing):
    """The companion trade checkers on the plain vertical transformation
    ``a0`` under the connection ``conn``."""
    out[f"{key} roundtrip"] = _report(lambda: roundtrip_check(a0, conn))
    _law_reports(out, f"{key} four identities", lambda axioms: four_identities(a0, conn, axioms=axioms), FOUR_IDENTITIES)
    out[f"{key} lift"] = _report(lambda: vertical_transformation_to_double(a0, conn, dom_conn=conn)[2])
    out[f"{key} right unit"] = _report(lambda: transform.right_unit_constraint(vertical_to_horizontal(a0, conn))[2])
    if out[f"{key} roundtrip"].get("status") == "fail":
        failing.setdefault("roundtrip", lambda budget: roundtrip_check(a0, conn, budget=budget))
    if out[f"{key} four identities all"].get("status") == "fail":
        failing.setdefault("four identities", lambda budget: four_identities(a0, conn, budget=budget))
    if not transform.check_vertical_pnt(a0).passed:
        failing.setdefault("vertical", lambda budget: transform.check_vertical_pnt(a0, budget=budget))


def laws(out):
    failing = {}
    # the bicategory checkers, each under every cap
    sign = zoo.sign_bicategory()
    bicategories = [
        ("sign", sign),
        ("two-object", zoo.two_object_bicategory()),
        ("walking-arrow", bicategory_from_two_category(zoo.walking_arrow_two_category())),
    ]
    bicategories += [(f"mutant sign {slot}", b) for slot, b in _table_mutants(sign, ("vcomp2", "hcomp2"), 40, seed=2)]
    for name, b in bicategories:
        key = f"laws bicategory {name}"
        out[f"{key} enriched"] = _report(lambda: check_enriched_over_cat(b))
        out[f"{key} coproduct"] = _report(lambda: check_coproduct_pullback(b))
        p = internalize_bicategory(b)
        _capped(out, f"{key} cutoff bicategory", lambda budget: check_bicategory(b, budget=budget))
        _capped(out, f"{key} cutoff pseudo-double", lambda budget: check_pseudo_double_category(p, budget=budget))
        _capped(out, f"{key} cutoff enriched", lambda budget: check_enriched_over_cat(b, budget=budget))
    _capped(out, "laws cutoff coproduct", lambda budget: check_coproduct_pullback(sign, budget=budget))

    # companions: the canonical connections of the square categories, and
    # the four pairs on the unit of the sign category
    for name, c in zoo.small_category_catalog():
        d = quintet(c)
        conn = find_connection(d)
        out[f"laws connection {name}"] = _report(lambda: check_connection(conn))
        for u, p in conn.items():
            out[f"laws companion {name} {u}"] = _report(lambda: check_companion(d, p))
    t = zoo.sign_two_category()
    ds = embed_two_category(t)
    Fs = pseudo_from_strict(identity_functor(ds))
    sign_conns = {}
    for eps, eta in itertools.product((0, 1), repeat=2):
        p = CompanionPair(ds.vid[0], ds.hid[0], eps, eta)
        conn = sign_conns[(eps, eta)] = Connection(ds, [p])
        out[f"laws companion sign {eps}{eta}"] = _report(lambda: check_companion(ds, p))
        out[f"laws connection sign {eps}{eta}"] = _report(lambda: check_connection(conn))
        if out[f"laws companion sign {eps}{eta}"].get("status") == "fail":
            failing.setdefault("companion", lambda budget, p=p: check_companion(ds, p, budget=budget))
        if out[f"laws connection sign {eps}{eta}"].get("status") == "fail":
            failing.setdefault("connection", lambda budget, conn=conn: check_connection(conn, budget=budget))

    # the companion trade, on the bz3 and sign settings
    d, F, _, _ = _bz3()
    conn = find_connection(d)
    verts = enumerate_plain_verticals(F, F)
    for i, a0 in enumerate(verts):
        _trade_reports(out, f"laws trade bz3 {i}", a0, conn, failing)
    for i, a0 in enumerate(enumerate_plain_verticals(Fs, Fs)):
        for tag, conn in sorted(sign_conns.items()):
            _trade_reports(out, f"laws trade sign {i} {tag}", a0, conn, failing)
        for slot, mutant in _pnt_mutants(ds, a0):
            _trade_reports(out, f"laws trade sign {i} mutant {slot}", mutant, sign_conns[(0, 0)], failing)
    a1 = identity_horizontal(Fs)
    for slot, mutant in _pnt_mutants(ds, a1):
        out[f"laws right unit sign mutant {slot}"] = _report(lambda: transform.right_unit_constraint(mutant)[2])
        if not transform.check_horizontal_pnt(mutant).passed:
            failing.setdefault("horizontal", lambda budget, a=mutant: transform.check_horizontal_pnt(a, budget=budget))

    # monoids
    for name, make in INTERNAL_MONOIDS:
        out[f"laws monoid {name}"] = _report(lambda: check_monoid(make()))
    for slot, mutant in _monoid_mutants(zoo.min_monoid_in_dbl()):
        out[f"laws monoid min mutant {slot}"] = _report(lambda: check_monoid(mutant))
        if out[f"laws monoid min mutant {slot}"].get("status") == "fail":
            failing.setdefault("monoid", lambda budget, m=mutant: check_monoid(m, budget=budget))

    # the monoidal embedding under smaller word caps
    cats = zoo.acyclic_two_category_catalog()
    for (n1, a), (n2, b) in itertools.product(cats, repeat=2):
        for cap in (1, 2, 3):
            out[f"laws embedding {n1} x {n2} cap {cap}"] = _report(lambda: check_monoidal_embedding(a, b, cap=cap))
    arrow, two_cell = zoo.walking_arrow_two_category(), zoo.walking_two_cell()
    failing["embedding"] = lambda budget: check_monoidal_embedding(arrow, two_cell, cap=4, budget=budget)

    # the extra three-cell equations of a bundle
    host = diagonal_internal(quintet(zoo.cyclic_group_cat(2)))
    extra = replace(host, extra_threecell_equations=(("holds", lambda data: True), ("fails", lambda data: False)))
    out["laws internal extra equations"] = _report(lambda: check_internal(extra, registry=transform.ComponentRegistry.of(), deep=False))

    # modifications: the first failing sign mutant
    m = identity_modification(_sign_pairs(Fs)[(0, 0)])
    for slot, mutant in _modification_mutants(ds, m):
        if not modif.check_modification(mutant).passed:
            failing.setdefault("modification", lambda budget, m=mutant: modif.check_modification(m, budget=budget))
    # no roundtrip fails on these inputs: sweep a passing one
    failing.setdefault("roundtrip", lambda budget, a0=verts[0], conn=find_connection(d): roundtrip_check(a0, conn, budget=budget))
    for name, check in sorted(failing.items()):
        _capped(out, f"laws cutoff {name}", check)


def constructor_damage(out):
    path = Path(__file__).resolve().parent.parent / "tests" / "test_kernel.py"
    spec = importlib.util.spec_from_file_location("test_kernel", path)
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    for make, field, damage in tests.DAMAGED:
        obj = make()
        key = f"constructor damage {make.__name__}.{field}:{damage.__name__}"
        try:
            tests._rebuild(obj, field, damage(getattr(obj, field)))
            out[key] = "accepted"
        except Exception as e:
            out[key] = {"type": type(e).__name__, "message": str(e)}


def pending_copies(out):
    d, sign = quintet(zoo.cyclic_group_cat(3)), embed_two_category(zoo.sign_two_category())
    doc = dsl.Document()
    doc.add(_decl_category("D", sign))
    text = dsl.serialize(doc)
    cases = [("product C3 x walking-arrow", lambda: product(d, quintet(zoo.walking_arrow()))),
             ("parsed sign", lambda: dsl.parse(text).decls["D"].obj)]
    for name, make in INTERNAL_MONOIDS[:2]:
        data = monoid_to_internal(make())
        cases += [(f"{name} p", lambda data=data: pullback(data.t, data.s)),
                  (f"{name} p3l", lambda data=data: pullback(compose_strict(data.t, data.p2), data.s))]
    cases += [(f"transpose {name}", lambda make=make: transpose(make())) for name, make in cases]
    cases += [("identity_pseudo C3", lambda: identity_pseudo(d)),
              ("compose_pseudo C3", lambda: compose_pseudo(identity_pseudo(d), identity_pseudo(d)))]
    for name, make in cases:
        for how, copied in (("pickle", lambda x: pickle.loads(pickle.dumps(x))), ("deepcopy", copy.deepcopy)):
            def value(make=make, copied=copied):
                x = copied(make())
                return _category(x) if isinstance(x, DoubleCategory) else x

            out[f"pending copies {name} {how}"] = _digest(value)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = {}
    criterion_1(out)
    small_structures(out)
    cutoffs(out)
    dsl_section(out)
    transformations(out)
    internal(out)
    deep_internal(out)
    rewriting(out)
    interleaved(out)
    functors(out)
    laws(out)
    constructor_damage(out)
    pending_copies(out)
    with open(argv[1], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reports = sum(1 for k, v in out.items() if isinstance(v, dict) and "subject" in v)
    digests = sum(1 for k, v in out.items() if isinstance(v, str) and not k.startswith("dsl "))
    dsl_entries = sum(1 for k in out if k.startswith("dsl "))
    words = sum(1 for k, v in out.items() if k.startswith("rewriting ") and "subject" not in v)
    print(f"{reports} reports, {digests} digests, {dsl_entries} dsl entries and {words} rewriting entries written to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
