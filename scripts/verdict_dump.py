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
  ``check_bicategory`` on the sign bicategory under a range of caps.

The script uses only what every version of dblkit since the composition-
table primitive provides, so it can be run against two checkouts (point
``PYTHONPATH`` at each ``src``) and the two files compared with ``diff``:
a change that must not alter any verdict leaves them byte-identical.
"""

import json
import random
import sys

from dblkit import zoo
from dblkit.acceptance import _generators
from dblkit.internal import internalize_bicategory
from dblkit.kernel import StructureError, check_double_category, check_two_category, embed_two_category, quintet
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


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = {}
    criterion_1(out)
    small_structures(out)
    cutoffs(out)
    with open(argv[1], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{sum(1 for v in out.values() if isinstance(v, dict))} reports written to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
