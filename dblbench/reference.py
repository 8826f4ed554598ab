"""Answers the benchmark computes apart from dblkit's checkers.

Nothing here calls ``check_double_category`` or any other dblkit checker.
The structures are read as plain data: the cell boundary lists, the four
composition tables and the identity lists of a ``DoubleCategory``.

* :func:`law_counts` counts the law instances of the strict double-category
  battery from table key sets and boundary indexes alone; it never looks up
  a composite.
* :func:`brute_force_violations` evaluates every law instance by brute-force
  enumeration of cell tuples.  It is meant for small hosts only (the
  interchange law is enumerated over all quadruples of squares).
* :func:`evaluate` re-evaluates one reported witness on the tables, so that
  a reported violation can be confirmed as a real one.
* :func:`fiber_product_counts` counts the cells of a pullback of two strict
  functors from their cell maps.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as cartesian

OBJECT, HCELL, VCELL, SQUARE = "object", "hcell", "vcell", "square"
BOUNDARY_LAWS = ("hcomp1-boundary", "vcomp1-boundary", "hcomp2-boundary", "vcomp2-boundary")


def _group(items, key):
    out = {}
    for item in items:
        k = key(item)
        out[k] = out.get(k, 0) + 1
    return out


def law_counts(d) -> dict:
    """Instances per law of the strict double-category battery, counted from
    key sets and boundaries: the boundary law of every table entry, both
    associativities over composable triples, the units, identity
    functoriality, identity coincidence and the interchange grid."""
    hs_count = _group(d.hcells, lambda c: c[0])
    vs_count = _group(d.vcells, lambda c: c[0])
    by_left = _group(d.squares, lambda s: s[2])
    by_top = {}
    for s, (t, _, _, _) in enumerate(d.squares):
        by_top.setdefault(t, []).append(s)
    by_top_left = _group(d.squares, lambda s: (s[0], s[2]))
    sq = d.squares
    interchange = 0
    for (a, b) in d.hcomp2:
        bottom_b = sq[b][1]
        for c in by_top.get(sq[a][1], ()):
            interchange += by_top_left.get((bottom_b, sq[c][3]), 0)
    ns = len(sq)
    return {
        "hcomp1-boundary": len(d.hcomp1),
        "vcomp1-boundary": len(d.vcomp1),
        "hcomp2-boundary": len(d.hcomp2),
        "vcomp2-boundary": len(d.vcomp2),
        "hcomp1-associativity": sum(hs_count.get(d.hcells[g][1], 0) for (_, g) in d.hcomp1),
        "hcomp1-left-unit": len(d.hcells),
        "hcomp1-right-unit": len(d.hcells),
        "vcomp1-associativity": sum(vs_count.get(d.vcells[v][1], 0) for (_, v) in d.vcomp1),
        "vcomp1-left-unit": len(d.vcells),
        "vcomp1-right-unit": len(d.vcells),
        "hcomp2-associativity": sum(by_left.get(sq[b][3], 0) for (_, b) in d.hcomp2),
        "hcomp2-unit": 2 * ns,
        "vcomp2-associativity": sum(len(by_top.get(sq[b][1], ())) for (_, b) in d.vcomp2),
        "vcomp2-unit": 2 * ns,
        "identity-functoriality-h": len(d.hcomp1),
        "identity-functoriality-v": len(d.vcomp1),
        "identity-coincidence": d.n_objects,
        "interchange": interchange,
    }


def boundary_count(d) -> int:
    return len(d.hcomp1) + len(d.vcomp1) + len(d.hcomp2) + len(d.vcomp2)


def quintet_closed_form(n: int) -> int:
    """Law instances of the commuting-square double category of the cyclic
    group of order n: n^3 squares, n^5 composable square pairs per
    direction, n^8 interchange grids."""
    return n**8 + 2 * n**7 + 2 * n**5 + 6 * n**3 + 4 * n**2 + 4 * n + 1


# ---------------------------------------------------------------------------
# evaluation on the tables


def _boundary_sides(d, axiom, witness):
    (_, x), (_, y) = witness
    if axiom == "hcomp1-boundary":
        return d.hcells[d.hcomp1[(x, y)]], (d.hcells[x][0], d.hcells[y][1])
    if axiom == "vcomp1-boundary":
        return d.vcells[d.vcomp1[(x, y)]], (d.vcells[x][0], d.vcells[y][1])
    ta, ba, la, ra = d.squares[x]
    tb, bb, lb, rb = d.squares[y]
    if axiom == "hcomp2-boundary":
        return d.squares[d.hcomp2[(x, y)]], (d.hcomp1[(ta, tb)], d.hcomp1[(ba, bb)], la, rb)
    return d.squares[d.vcomp2[(x, y)]], (ta, bb, d.vcomp1[(la, lb)], d.vcomp1[(ra, rb)])


def evaluate(d, axiom, witness) -> list:
    """Every (lhs, rhs) pair the law ``axiom`` has at ``witness``, computed
    from the tables (two pairs for the square unit laws, one otherwise)."""
    h1, v1, h2, v2 = d.hcomp1, d.vcomp1, d.hcomp2, d.vcomp2
    ids = [w[1] for w in witness]
    if axiom in BOUNDARY_LAWS:
        return [_boundary_sides(d, axiom, witness)]
    if axiom == "hcomp1-associativity":
        f, g, h = ids
        return [(h1[(h1[(f, g)], h)], h1[(f, h1[(g, h)])])]
    if axiom == "vcomp1-associativity":
        u, v, w = ids
        return [(v1[(v1[(u, v)], w)], v1[(u, v1[(v, w)])])]
    if axiom == "hcomp2-associativity":
        a, b, c = ids
        return [(h2[(h2[(a, b)], c)], h2[(a, h2[(b, c)])])]
    if axiom == "vcomp2-associativity":
        a, b, c = ids
        return [(v2[(v2[(a, b)], c)], v2[(a, v2[(b, c)])])]
    if axiom == "interchange":
        a, b, c, e = ids
        return [(h2[(v2[(a, c)], v2[(b, e)])], v2[(h2[(a, b)], h2[(c, e)])])]
    if axiom == "identity-functoriality-h":
        f, g = ids
        return [(d.sq_vid[h1[(f, g)]], h2[(d.sq_vid[f], d.sq_vid[g])])]
    if axiom == "identity-functoriality-v":
        u, v = ids
        return [(d.sq_hid[v1[(u, v)]], v2[(d.sq_hid[u], d.sq_hid[v])])]
    (x,) = ids
    if axiom == "hcomp1-left-unit":
        return [(h1[(d.hid[d.hcells[x][0]], x)], x)]
    if axiom == "hcomp1-right-unit":
        return [(h1[(x, d.hid[d.hcells[x][1]])], x)]
    if axiom == "vcomp1-left-unit":
        return [(v1[(d.vid[d.vcells[x][0]], x)], x)]
    if axiom == "vcomp1-right-unit":
        return [(v1[(x, d.vid[d.vcells[x][1]])], x)]
    if axiom == "hcomp2-unit":
        _, _, l, r = d.squares[x]
        return [(h2[(d.sq_hid[l], x)], x), (h2[(x, d.sq_hid[r])], x)]
    if axiom == "vcomp2-unit":
        t, b, _, _ = d.squares[x]
        return [(v2[(d.sq_vid[t], x)], x), (v2[(x, d.sq_vid[b])], x)]
    if axiom == "identity-coincidence":
        return [(d.sq_vid[d.hid[x]], d.sq_hid[d.vid[x]])]
    raise KeyError(f"unknown law {axiom!r}")


def is_real_violation(d, violation) -> bool:
    """True when the reported (law, witness, lhs, rhs) is one of the law's
    instances at that witness and its two sides differ."""
    try:
        sides = evaluate(d, violation.axiom, tuple(violation.witness))
    except (KeyError, ValueError, IndexError, TypeError):
        return False
    pair = (violation.lhs, violation.rhs)
    return pair in sides and pair[0] != pair[1]


def _boundary_instances(d):
    for table, law, kind in (
        (d.hcomp1, "hcomp1-boundary", HCELL),
        (d.vcomp1, "vcomp1-boundary", VCELL),
        (d.hcomp2, "hcomp2-boundary", SQUARE),
        (d.vcomp2, "vcomp2-boundary", SQUARE),
    ):
        for (x, y) in table:
            yield law, ((kind, x), (kind, y))


def boundary_violation_count(d) -> int:
    n = 0
    for law, witness in _boundary_instances(d):
        lhs, rhs = _boundary_sides(d, law, witness)
        n += lhs != rhs
    return n


def expected_checked(d, counts: dict) -> int:
    """The instance count a complete run of the battery reports: only the
    boundary laws when some table entry has a wrong boundary (the remaining
    laws cannot be evaluated then), every law otherwise."""
    if boundary_violation_count(d):
        return boundary_count(d)
    return sum(counts.values())


def brute_force_violations(d) -> Counter:
    """Multiset of (law, witness, lhs, rhs) over all violated instances,
    found by enumerating every tuple of cells and testing composability on
    the boundaries.  As in the battery, the equational laws are evaluated
    only when every table entry has the right boundary."""
    found = Counter()

    def record(law, witness):
        for lhs, rhs in evaluate(d, law, witness):
            if lhs != rhs:
                found[(law, witness, lhs, rhs)] += 1

    nh, nv, ns = len(d.hcells), len(d.vcells), len(d.squares)
    for x, y in cartesian(range(nh), repeat=2):
        if d.hcells[x][1] == d.hcells[y][0]:
            record("hcomp1-boundary", ((HCELL, x), (HCELL, y)))
    for x, y in cartesian(range(nv), repeat=2):
        if d.vcells[x][1] == d.vcells[y][0]:
            record("vcomp1-boundary", ((VCELL, x), (VCELL, y)))
    sq = d.squares
    for x, y in cartesian(range(ns), repeat=2):
        if sq[x][3] == sq[y][2]:
            record("hcomp2-boundary", ((SQUARE, x), (SQUARE, y)))
        if sq[x][1] == sq[y][0]:
            record("vcomp2-boundary", ((SQUARE, x), (SQUARE, y)))
    if found:
        return found

    def hpair(x, y):
        return sq[x][3] == sq[y][2]

    def vpair(x, y):
        return sq[x][1] == sq[y][0]

    for f, g, h in cartesian(range(nh), repeat=3):
        if d.hcells[f][1] == d.hcells[g][0] and d.hcells[g][1] == d.hcells[h][0]:
            record("hcomp1-associativity", ((HCELL, f), (HCELL, g), (HCELL, h)))
    for u, v, w in cartesian(range(nv), repeat=3):
        if d.vcells[u][1] == d.vcells[v][0] and d.vcells[v][1] == d.vcells[w][0]:
            record("vcomp1-associativity", ((VCELL, u), (VCELL, v), (VCELL, w)))
    for f in range(nh):
        record("hcomp1-left-unit", ((HCELL, f),))
        record("hcomp1-right-unit", ((HCELL, f),))
    for u in range(nv):
        record("vcomp1-left-unit", ((VCELL, u),))
        record("vcomp1-right-unit", ((VCELL, u),))
    for a, b, c in cartesian(range(ns), repeat=3):
        if hpair(a, b) and hpair(b, c):
            record("hcomp2-associativity", ((SQUARE, a), (SQUARE, b), (SQUARE, c)))
        if vpair(a, b) and vpair(b, c):
            record("vcomp2-associativity", ((SQUARE, a), (SQUARE, b), (SQUARE, c)))
    for s in range(ns):
        record("hcomp2-unit", ((SQUARE, s),))
        record("vcomp2-unit", ((SQUARE, s),))
    for f, g in cartesian(range(nh), repeat=2):
        if d.hcells[f][1] == d.hcells[g][0]:
            record("identity-functoriality-h", ((HCELL, f), (HCELL, g)))
    for u, v in cartesian(range(nv), repeat=2):
        if d.vcells[u][1] == d.vcells[v][0]:
            record("identity-functoriality-v", ((VCELL, u), (VCELL, v)))
    for a in range(d.n_objects):
        record("identity-coincidence", ((OBJECT, a),))
    for a, b, c, e in cartesian(range(ns), repeat=4):
        if hpair(a, b) and vpair(a, c) and vpair(b, e) and hpair(c, e):
            record("interchange", ((SQUARE, a), (SQUARE, b), (SQUARE, c), (SQUARE, e)))
    return found


def report_violations(report) -> Counter:
    return Counter((v.axiom, tuple(v.witness), v.lhs, v.rhs) for v in report.violations)


# ---------------------------------------------------------------------------
# pullbacks and finite categories


def fiber_product_counts(f, g) -> tuple:
    """(objects, hcells, vcells, squares) of the pullback of strict functors
    f and g: for each kind, the pairs (x, y) with f(x) == g(y), counted by
    grouping both cell maps on their image."""
    out = []
    for fm, gm in ((f.ob_map, g.ob_map), (f.h_map, g.h_map), (f.v_map, g.v_map), (f.sq_map, g.sq_map)):
        right = Counter(gm)
        out.append(sum(right[image] for image in fm))
    return tuple(out)


def pullback_shape(d) -> tuple:
    return (d.n_objects, len(d.hcells), len(d.vcells), len(d.squares))


def fincategory_law_count(c) -> int:
    """Unit and associativity instances of a finite category: two unit laws
    per morphism, one associativity law per composable triple."""
    out_of = Counter(src for (src, _) in c.mor)
    return 2 * len(c.mor) + sum(out_of[c.mor[g][1]] for (_, g) in c.comp)
