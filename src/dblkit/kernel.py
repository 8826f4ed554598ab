"""Finite strict double categories given by total composition tables.

Cells are dense integer ids, one id space per kind (``object``, ``hcell``,
``vcell``, ``square``); cell equality is id equality.  All composition tables
are left-argument-first: ``hcomp1[(f, g)]`` is the composite "f then g",
defined exactly when ``tgt(f) == src(g)``, and likewise for vertical
composition and both square compositions.  Diagrams are therefore read left
to right and top to bottom.

Square boundaries use the compass convention::

            top (hcell)
         +--------------+
    left |              | right        left, right: vcells
         +--------------+
           bottom (hcell)

with matching corners: ``src(top) == src(left)``, ``tgt(top) == src(right)``,
``src(bottom) == tgt(left)``, ``tgt(bottom) == tgt(right)``.

``sq_vid[f]`` is the vertical identity square on an hcell f (the unit for
vertical pasting), ``sq_hid[u]`` the horizontal identity square on a vcell u
(the unit for horizontal pasting).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from itertools import islice
from types import SimpleNamespace

from .report import AxiomReport, Budget, Collector, StructureError

OBJECT, HCELL, VCELL, SQUARE = "object", "hcell", "vcell", "square"


class NonComposable(StructureError):
    """A pasting was attempted on cells whose boundaries do not match."""


def _check_index(value, limit, what):
    if not isinstance(value, int) or not 0 <= value < limit:
        raise StructureError(f"{what}: index {value!r} out of range 0..{limit - 1}")


def _count(n_objects):
    """``n_objects`` as an int, unless it is not one."""
    if not isinstance(n_objects, int):
        raise StructureError(f"n_objects: {n_objects!r} is not an integer")
    return int(n_objects)


def _check_cells(cells, what, limits, names, fits=None, misfit=""):
    """Raise StructureError unless, cell by cell in order, every boundary (a
    tuple) of ``cells`` has one id per entry of ``limits``, each an int
    below its limit, and ``fits(*boundary)`` holds where ``fits`` is given.
    ``what`` and ``names`` name a cell and its entries; ``misfit``, formatted
    with the cell's id and entries, is the message of a boundary that does
    not fit."""
    width = len(limits)
    for x, cell in enumerate(cells):
        if len(cell) != width:
            raise StructureError(f"{what} {x}: boundary {cell!r} must have {width} entries")
        for v, limit, name in zip(cell, limits, names):
            if not isinstance(v, int) or not 0 <= v < limit:
                _check_index(v, limit, f"{what} {x} {name}")
        if fits is not None and not fits(*cell):
            raise StructureError(misfit.format(x, *cell))


def _tuples(cells, what, field):
    """``cells``, the field ``field``, as a list of boundary tuples;
    StructureError naming the field where it is not a sequence, else the
    first cell (a ``what``) whose boundary is not one."""
    try:
        return [tuple(x) for x in cells]
    except TypeError:
        if not hasattr(cells, "__iter__"):
            raise StructureError(f"{field}: {cells!r} is not a sequence") from None
        for x, cell in enumerate(cells):
            if not hasattr(cell, "__iter__"):
                raise StructureError(f"{what} {x}: boundary {cell!r} is not a sequence") from None
        raise


def _list(cells, field):
    """The sequence ``cells``, the field ``field``, as a list; StructureError
    naming the field where it is not a sequence."""
    try:
        return list(cells)
    except TypeError:
        raise StructureError(f"{field}: {cells!r} is not a sequence") from None


def _table(table, field):
    """The mapping ``table``, the field ``field``, as a dict; StructureError
    naming the field where it is not a mapping."""
    if not isinstance(table, Mapping):
        raise StructureError(f"{field}: {table!r} is not a table")
    return dict(table)


def _check_ids(ids, cells, expect, what, wrong=" has wrong boundary"):
    """Raise StructureError unless every ``ids[a]`` (an identity, a
    component, ...) is the id of a cell of ``cells`` whose boundary is the
    a-th of ``expect``, in order; ``expect`` is read one boundary per entry,
    as the entries are checked.  ``what``, formatted with a, names the
    entry; ``what + wrong`` is the message of a wrong boundary, formatted
    with a and the boundary found."""
    n = len(cells)
    for a, (i, want) in enumerate(zip(ids, expect)):
        if not isinstance(i, int) or not 0 <= i < n:
            _check_index(i, n, what.format(a))
        if cells[i] != want:
            raise StructureError((what + wrong).format(a, cells[i]))


# ---------------------------------------------------------------------------
# composition tables
#
# Every table is a dict keyed by pairs (x, y) of cell ids, left argument
# first.  Which pairs compose is given by two boundary lists of the same
# length: (x, y) is composable exactly when ends[x] == starts[y] (target and
# source for 1-cells, right and left edge for horizontal pasting, ...).


# A structure states its tables once, as a list of rows ``(name, kind,
# table, ends, starts, cells, expect, entry, wrong_keys)``: the name of a
# table and the kind of the cells it keys and values, the table, its key
# columns, its cells, ``expect``, which maps the table's keys to the
# boundaries their values must have, and the messages ``_check_table``
# raises.  The validator reads the key columns (``_check_tables``), and the
# boundary laws (``_boundaries``) and the raising value check
# (``_check_values``) read ``expect``.  The rows are plain tuples because
# every checker run builds them again.


def _check_tables(rows):
    for _, _, table, ends, starts, _, _, entry, wrong_keys in rows:
        _check_table(table, ends, starts, entry, wrong_keys)


def _check_values(rows):
    """Raise StructureError at the first entry of a table of ``rows``, in
    table order, whose value does not have the boundary ``expect`` gives."""
    for _, _, table, _, _, cells, expect, entry, _ in rows:
        for key, z, want in zip(table, table.values(), expect(table)):
            if cells[z] != want:
                raise StructureError(entry.format(key) + " has wrong boundary")


def _columns(rows, width):
    """The positions of the boundary tuples ``rows``, one list each."""
    return [[row[i] for row in rows] for i in range(width)]


def _by(keys):
    """Boundary index: ``key -> ascending list of the ids x with keys[x] == key``."""
    index = {}
    for x, key in enumerate(keys):
        index.setdefault(key, []).append(x)
    return index


def _check_table(table, ends, starts, entry, wrong_keys):
    """Raise StructureError unless the keys of ``table`` are exactly the
    composable pairs and every value is a cell id below ``len(ends)``.

    ``wrong_keys`` is the message for a wrong key set, formatted with the
    sorted lists ``extra`` and ``missing`` and the first three ``bad`` keys;
    ``entry`` is formatted with the key of an out-of-range value.  The
    check is decided by count (``_exact_table``); only a table that fails
    it is compared with the set of composable pairs, for the message."""
    if _exact_table(table, ends, starts):
        return
    by_start = _by(starts)
    composable = {(x, y) for x, end in enumerate(ends) for y in by_start.get(end, ())}
    if table.keys() != composable:
        extra, missing = set(table) - composable, composable - set(table)
        raise StructureError(
            wrong_keys.format(extra=sorted(extra), missing=sorted(missing), bad=sorted(extra | missing)[:3])
        )
    n = len(ends)
    for key, z in table.items():
        if not isinstance(z, int) or not 0 <= z < n:
            _check_index(z, n, entry.format(key))


def _exact_table(table, ends, starts):
    """Whether ``table`` has as many entries as there are composable pairs,
    each keyed on a composable pair of ids and valued in a cell id below
    ``len(ends)``: then its keys are exactly the composable pairs."""
    n, per_start = len(ends), Counter(starts)
    if len(table) != sum([per_start.get(end, 0) for end in ends]):
        return False
    try:
        for key, z in table.items():
            if type(key) is not tuple:
                return False
            x, y = key
            # a negative id would index from the end
            if x < 0 or y < 0 or ends[x] != starts[y] or not isinstance(z, int) or not 0 <= z < n:
                return False
    except (TypeError, ValueError, IndexError):
        return False
    return True


def _paths(table, ends, starts, length=3):
    """The composable sequences of ``length`` cells whose first two cells
    are a key of ``table``, lexicographically: their number, and the
    sequences, produced only as far as they are read."""
    by_start = _by(starts)
    rows, tails = iter(sorted(table)), [1] * len(ends)
    for _ in range(length - 2):
        rows = ((*row, z) for row in rows for z in by_start.get(ends[row[-1]], ()))
        tails = [sum([tails[z] for z in by_start.get(end, ())]) for end in ends]
    return sum([tails[y] for _, y in table]), rows


def _entries(table):
    """The rows ``(x, y, table[(x, y)])`` of ``table``, in key order."""
    return sorted((x, y, z) for (x, y), z in table.items())


# The law enumerators below evaluate the laws straight from the tables and
# charge the budget with ``Collector.take``, never one instance at a time.
# ``_whole`` states a law whose two sides read as whole lists over a table
# (a dict, or a range of cell ids): the lists are built in the table's own
# order and compared whole, and only the entries where they differ are
# sorted into key order.  Only a budget cut inside the table makes it sort
# the keys and read the sides over the leading entries that fit.  ``_laws``
# is the general one, for laws given as index rows and two sides per row:
# it takes the row count, charges it at once and reads the rows, which may
# be produced lazily (``_paths``), only as far as the budget reaches.
# ``_associativity`` charges a left cell x once for its whole block of rows
# (which depends only on the end of x), and ``_interchange`` charges the
# grid once per pair of squares (a, b), all its rows together.  Both read
# dense rows (``_dense_rows``: one list per left cell, indexed by cell id),
# which a checker builds once per table and shares between them.  Given a
# law the caller has proved (``check_double_category`` over a thin
# category), both charge it alike and evaluate nothing.  The
# table boundaries read the composite 1-cells
# that a pasted square's boundary expects through dense rows too.  A
# Violation is built only where the two sides differ, and nothing past a
# budget cut is evaluated.  The enumerators assume complete tables with
# correct boundaries, which the constructors and the boundary laws establish.


def _rows(table):
    """``table`` as nested dicts, ``rows[x][y] == table[(x, y)]``."""
    rows = {}
    for (x, y), z in table.items():
        rows.setdefault(x, {})[y] = z
    return rows


def _dense_rows(table, n):
    """``table`` over ``n`` cells as one list per left cell, indexed by cell
    id: ``rows[x][y] == table[(x, y)]``, None where (x, y) does not compose."""
    rows = [[None] * n for _ in range(n)]
    for (x, y), z in table.items():
        rows[x][y] = z
    return rows


def _charged(col, row):
    """The leading part of ``row`` that the budget of ``col`` lets it
    evaluate, the whole row charged at once."""
    k = col.take(len(row))
    return row if k == len(row) else row[:k]


def _cut(rows, k):
    """The first ``k`` instances of ``rows``, a list of pairs ``(c, row)``
    (a block or a grid), in order."""
    out = []
    for c, row in rows:
        if k <= 0:
            break
        out.append((c, row[:k]))
        k -= len(row)
    return out


def _witness(kinds, key):
    """``kinds`` paired with the ids of ``key``, one id or a tuple of them."""
    return tuple(zip(kinds, key if isinstance(key, tuple) else (key,)))


def _whole(col, kinds, table, *laws, head=()):
    """Record, for each ``(law, lhs, rhs)`` of ``laws``, that the lists
    ``lhs(table)`` and ``rhs(table)`` agree entry by entry: a side maps a
    table (a dict, or a range of cell ids) to its values at the table's
    entries, in the table's order.  The instances run in key order and,
    at one key, in the order of ``laws``; a witness is ``head`` followed
    by ``kinds`` paired with the key.

    All instances are charged at once.  When the budget covers them, both
    sides are read over the table as it stands and compared whole, and only
    the entries where they differ are sorted.  Under a budget cut the keys
    are sorted, each side is read over the leading entries its law's
    instances reach, and those are walked in order."""
    width = len(laws)
    total = len(table) * width
    n = col.take(total)
    if n == total:
        differ = []
        for j, (law, lhs, rhs) in enumerate(laws):
            left, right = lhs(table), rhs(table)
            if left != right:
                differ += [(key, j, a, b) for key, a, b in zip(table, left, right) if a != b]
        if differ:
            differ.sort()
            for key, j, a, b in differ:
                col.fail(laws[j][0], (*head, *_witness(kinds, key)), a, b)
        return
    keys = sorted(table) if isinstance(table, dict) else table
    sides = []
    for j, (law, lhs, rhs) in enumerate(laws):
        lead = keys[:max(0, -(-(n - j) // width))]
        if isinstance(table, dict):
            lead = {key: table[key] for key in lead}
        sides.append((law, lhs(lead), rhs(lead)))
    for i, key in enumerate(keys):
        for law, left, right in sides:
            if not n:
                return
            n -= 1
            if left[i] != right[i]:
                col.fail(law, (*head, *_witness(kinds, key)), left[i], right[i])


def _laws(col, kinds, rows, *laws, count=None):
    """Record ``lhs(*row) == rhs(*row)`` for each index row in order and,
    within a row, for each ``(law, lhs, rhs)`` of ``laws`` in order, one
    instance each.  ``rows`` is a list, or any iterable of ``count`` rows
    (``_paths``).  The witness pairs ``kinds`` with the leading entries of
    the row, or is ``kinds(*row)`` when ``kinds`` is a function; a row may
    carry further entries for the sides.  All instances are charged at
    once, and the rows are read only as far as the budget reaches: past a
    budget cut no row is produced and no instance is evaluated."""
    n = col.take((len(rows) if count is None else count) * len(laws))
    if not n:
        return
    for row in islice(rows, -(-n // len(laws))):
        for law, lhs, rhs in laws:
            if not n:
                return
            n -= 1
            left, right = lhs(*row), rhs(*row)
            if left != right:
                col.fail(law, kinds(*row) if callable(kinds) else tuple(zip(kinds, row)), left, right)


def _inverse_laws(law, i, paste, unit, first, last):
    """The two instances of ``law`` saying that the cells ``row[i]`` and
    ``row[i + 1]`` of a row are mutually inverse under ``paste``: the cell
    then its inverse is ``unit[first(cell)]``, the inverse then the cell
    ``unit[last(cell)]``.  Vertically in a double category ``paste`` is
    ``vpaste``, ``unit`` the identity squares ``sq_vid`` and ``first``,
    ``last`` are ``top``, ``bottom``."""
    return (
        (law, lambda *r: paste(r[i], r[i + 1]), lambda *r: unit[first(r[i])]),
        (law, lambda *r: paste(r[i + 1], r[i]), lambda *r: unit[last(r[i])]),
    )


def _vertical(d):
    """``paste, unit, first, last`` of :func:`_inverse_laws` for vertical
    pasting in the double category ``d``."""
    return d.vpaste, d.sq_vid, d.top, d.bottom


def _invertibility(col, law, kinds, cells, invs, paste, unit, first, last):
    """Record that ``invs[key]`` is inverse to ``cells[key]`` on both sides
    (``_inverse_laws``), for each key of ``cells`` in order; the witness
    pairs ``kinds`` with the key.  The inverses must first run the other way
    (``inverse-boundary``); where one does not, nothing is pasted."""
    found = len(col.report.violations)
    _whole(col, kinds, cells, ("inverse-boundary",
           lambda t: [(first(invs[key]), last(invs[key])) for key in t],
           lambda t: [(last(cell), first(cell)) for cell in t.values()]))
    if len(col.report.violations) > found:
        col.assume(f"{law} not evaluated: stored inverses have wrong boundaries")
        return
    rows = [(*(key if isinstance(key, tuple) else (key,)), cells[key], invs[key]) for key in sorted(cells)]
    _laws(col, kinds, rows, *_inverse_laws(law, -2, paste, unit, first, last))


def _boundaries(col, rows):
    """Record, table by table of ``rows``, the law ``{name}-boundary``:
    ``cells[table[key]]`` is the boundary ``expect`` gives at every key
    (``_whole``)."""
    for name, kind, table, _, _, cells, expect, _, _ in rows:
        _whole(col, (kind, kind), table, (f"{name}-boundary", lambda t: [cells[z] for z in t.values()], expect))


def _associativity(col, law, kind, rows, ends, starts, derived=None):
    """Record ``(x;y);z == x;(y;z)`` for every composable triple, ``rows``
    the dense rows of the table.  The rows ``(y, *)`` of a left cell x
    depend only on ``ends[x]``, so they are listed once per end and charged
    together; where the budget runs out inside them, only the first
    instances that fit are evaluated.  Where the caller has proved the law
    (``derived``, the assumption that says so; ``rows`` unused), its
    ``Σ_e #{x: ends[x]=e}·B(e)`` instances, ``B(e) = Σ_{y: starts[y]=e}
    #{z: starts[z]=ends[y]}`` the block of an end e, are charged at once,
    as block by block (``Collector.take``), none is walked or evaluated,
    and ``derived`` is recorded where one fell within the budget."""
    if derived:
        n_ends, n_starts = Counter(ends), Counter(starts)
        if col.take(sum(n_ends[s] * n_starts[e] for s, e in zip(starts, ends))):
            col.assume(derived)
        return
    by_start, blocks = _by(starts), {}
    for x, end in enumerate(ends):
        if end not in blocks:
            block = [(y, by_start.get(ends[y], ())) for y in by_start.get(end, ())]
            blocks[end] = block, sum(len(zs) for _, zs in block)
        block, n = blocks[end]
        k = col.take(n)
        if not k:
            continue
        if k < n:
            block = _cut(block, k)
        rx = rows[x]
        for y, zs in block:
            ry, rxy = rows[y], rows[rx[y]]
            for z in zs:
                if rxy[z] != rx[ry[z]]:
                    col.fail(law, ((kind, x), (kind, y), (kind, z)), rxy[z], rx[ry[z]])


def _units(col, left_law, right_law, kind, table, ends, starts, unit):
    """Record ``unit[starts[x]];x == x`` and ``x;unit[ends[x]] == x`` for
    every cell x, the two laws of one cell together."""
    _whole(col, (kind,), range(len(ends)),
           (left_law, lambda r: [table[(unit[starts[x]], x)] for x in r], list),
           (right_law, lambda r: [table[(x, unit[ends[x]])] for x in r], list))


def _identity_functoriality(col, law, kind, table, paste, ident):
    """Record ``ident[f;g] == paste(ident[f], ident[g])`` for every
    composable pair: the identity cells on a composite are the composite of
    the identity cells."""
    _whole(col, (kind, kind), table,
           (law, lambda t: [ident[fg] for fg in t.values()], lambda t: [paste[(ident[f], ident[g])] for f, g in t]))


# ---------------------------------------------------------------------------
# finite categories (input to the commuting-square construction)


class FiniteCategory:
    """A finite category: dense morphism ids, total composition table.

    ``comp[(f, g)]`` is "f then g", present exactly for composable pairs.
    ``ids[A]`` is the identity morphism on object A.
    """

    def __init__(self, n_objects, mor, comp, ids, names=None):
        self.n_objects = _count(n_objects)
        self.mor = _tuples(mor, "morphism", "mor")
        self.comp = _table(comp, "comp")
        self.ids = _list(ids, "ids")
        self.names = names or {}
        self._validate()

    def src(self, f):
        return self.mor[f][0]

    def tgt(self, f):
        return self.mor[f][1]

    def then(self, f, g):
        try:
            return self.comp[(f, g)]
        except KeyError:
            raise NonComposable(f"morphisms {f} and {g} are not composable") from None

    def _validate(self):
        n = self.n_objects
        if len(self.ids) != n:
            raise StructureError("one identity morphism per object is required")
        _check_cells(self.mor, "morphism", (n, n), ("source", "target"))
        _check_ids(self.ids, self.mor, [(a, a) for a in range(n)], "identity of object {}", " has boundary {}")
        src, tgt = _columns(self.mor, 2)
        rows = [("comp", "mor", self.comp, tgt, src, self.mor, lambda keys: [(src[f], tgt[g]) for f, g in keys],
                 "composite of {}", "composition table keys wrong; extra={extra} missing={missing}")]
        _check_tables(rows)
        _check_values(rows)

    def check(self, budget=None) -> AxiomReport:
        """Unit and associativity laws, by enumeration."""
        col = Collector("finite-category", budget)
        src, tgt = _columns(self.mor, 2)
        _units(col, "left-unit", "right-unit", "mor", self.comp, tgt, src, self.ids)
        _associativity(col, "associativity", "mor", _dense_rows(self.comp, len(self.mor)), tgt, src)
        return col.done()


# ---------------------------------------------------------------------------
# strict double categories


class DoubleCategory:
    """Finite strict double category with total composition tables."""

    def __init__(
        self,
        n_objects,
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
        names=None,
    ):
        self._set(n_objects, hcells, vcells, squares, hcomp1, vcomp1, hcomp2, vcomp2, hid, vid, sq_vid, sq_hid, names)
        self._validate()

    @classmethod
    def _unvalidated(cls, *tables, names=None):
        """The category on ``tables`` without ``_validate``: only for a
        construction that keeps an already validated category valid."""
        d = object.__new__(cls)
        d._set(*tables, names)
        return d

    def _set(self, n_objects, hcells, vcells, squares, hcomp1, vcomp1, hcomp2, vcomp2, hid, vid, sq_vid, sq_hid, names):
        self.n_objects = _count(n_objects)
        self.hcells = _tuples(hcells, "hcell", "hcells")
        self.vcells = _tuples(vcells, "vcell", "vcells")
        self.squares = _tuples(squares, "square", "squares")
        self.hcomp1 = _table(hcomp1, "hcomp1")
        self.vcomp1 = _table(vcomp1, "vcomp1")
        self.hcomp2 = _table(hcomp2, "hcomp2")
        self.vcomp2 = _table(vcomp2, "vcomp2")
        self.hid = _list(hid, "hid")
        self.vid = _list(vid, "vid")
        self.sq_vid = _list(sq_vid, "sq_vid")
        self.sq_hid = _list(sq_hid, "sq_hid")
        self.names = names or {}
        self._sq_by_top = None
        self._sq_by_tl = None

    # -- boundary accessors

    def hs(self, f):
        return self.hcells[f][0]

    def ht(self, f):
        return self.hcells[f][1]

    def vs(self, u):
        return self.vcells[u][0]

    def vt(self, u):
        return self.vcells[u][1]

    def top(self, s):
        return self.squares[s][0]

    def bottom(self, s):
        return self.squares[s][1]

    def left(self, s):
        return self.squares[s][2]

    def right(self, s):
        return self.squares[s][3]

    # -- composition

    def hcomp(self, f, g):
        try:
            return self.hcomp1[(f, g)]
        except KeyError:
            raise NonComposable(f"hcells {f}:{self.hcells[f]} then {g}:{self.hcells[g]}", ((HCELL, f), (HCELL, g))) from None

    def vcomp(self, u, v):
        try:
            return self.vcomp1[(u, v)]
        except KeyError:
            raise NonComposable(f"vcells {u}:{self.vcells[u]} then {v}:{self.vcells[v]}", ((VCELL, u), (VCELL, v))) from None

    def hpaste(self, a, b):
        try:
            return self.hcomp2[(a, b)]
        except KeyError:
            raise self._unpasted(a, b, "|", "horizontally") from None

    def vpaste(self, a, b):
        try:
            return self.vcomp2[(a, b)]
        except KeyError:
            raise self._unpasted(a, b, "/", "vertically") from None

    def _unpasted(self, a, b, sep, way):
        return NonComposable(
            f"squares {a}:{self.squares[a]} {sep} {b}:{self.squares[b]} do not paste {way}", ((SQUARE, a), (SQUARE, b))
        )

    def hrow(self, *squares):
        """Left-to-right horizontal pasting of one or more squares."""
        out = squares[0]
        for s in squares[1:]:
            out = self.hpaste(out, s)
        return out

    def vcol(self, *squares):
        """Top-to-bottom vertical pasting of one or more squares."""
        out = squares[0]
        for s in squares[1:]:
            out = self.vpaste(out, s)
        return out

    def is_vglobular(self, s):
        t, b, l, r = self.squares[s]
        return l == self.vid[self.hs(t)] and r == self.vid[self.ht(t)]

    # -- derived indexes

    def squares_by_top(self):
        if self._sq_by_top is None:
            self._sq_by_top = _by([t for t, _, _, _ in self.squares])
        return self._sq_by_top

    def squares_by_top_left(self):
        if self._sq_by_tl is None:
            self._sq_by_tl = _by([(t, l) for t, _, l, _ in self.squares])
        return self._sq_by_tl

    def name_of(self, kind, index):
        kind_names = self.names.get(kind)
        if kind_names is not None and 0 <= index < len(kind_names):
            return kind_names[index]
        return f"{kind}{index}"

    def __repr__(self):
        return (
            f"DoubleCategory(objects={self.n_objects}, hcells={len(self.hcells)}, "
            f"vcells={len(self.vcells)}, squares={len(self.squares)})"
        )

    # -- structural validation

    def _validate(self, square_tables=True):
        n, nh, nv = self.n_objects, len(self.hcells), len(self.vcells)
        _check_cells(self.hcells, "hcell", (n, n), ("source", "target"))
        _check_cells(self.vcells, "vcell", (n, n), ("source", "target"))
        hs, ht = _columns(self.hcells, 2)
        vs, vt = _columns(self.vcells, 2)
        _check_cells(self.squares, "square", (nh, nh, nv, nv), ("top", "bottom", "left", "right"),
                     lambda t, b, l, r: hs[t] == vs[l] and ht[t] == vs[r] and hs[b] == vt[l] and ht[b] == vt[r],
                     "square {} has mismatched corners ({}, {}, {}, {})")
        if len(self.hid) != n or len(self.vid) != n:
            raise StructureError("one horizontal and one vertical identity per object required")
        loops = [(a, a) for a in range(n)]
        _check_ids(self.hid, self.hcells, loops, "horizontal identity of object {}")
        _check_ids(self.vid, self.vcells, loops, "vertical identity of object {}")
        if len(self.sq_vid) != nh or len(self.sq_hid) != nv:
            raise StructureError("one identity square per hcell and per vcell required")
        hid, vid = self.hid, self.vid
        _check_ids(self.sq_vid, self.squares, [(f, f, vid[hs[f]], vid[ht[f]]) for f in range(nh)],
                   "identity square on hcell {}", " has boundary {}")
        _check_ids(self.sq_hid, self.squares, [(hid[vs[u]], hid[vt[u]], u, u) for u in range(nv)],
                   "identity square on vcell {}", " has boundary {}")
        # table keys must be exactly the composable pairs (an entry keyed on a
        # non-composable pair is a structural error naming the entry); value
        # boundary correctness, by contrast, is a checkable law so that a
        # flipped entry surfaces as a named violation, not a crash; a caller
        # that decided hcomp2 and vcomp2 itself checks only hcomp1 and vcomp1
        _check_tables(self._tables()[: None if square_tables else 2])

    def _tables(self):
        """The table rows of ``hcomp1``, ``vcomp1``, ``hcomp2`` and ``vcomp2``."""
        hs, ht = _columns(self.hcells, 2)
        vs, vt = _columns(self.vcells, 2)
        top, bottom, left, right = _columns(self.squares, 4)

        def hcomp2(keys):
            h1 = _dense_rows(self.hcomp1, len(hs))
            return [(h1[top[a]][top[b]], h1[bottom[a]][bottom[b]], left[a], right[b]) for a, b in keys]

        def vcomp2(keys):
            v1 = _dense_rows(self.vcomp1, len(vs))
            return [(top[a], bottom[b], v1[left[a]][left[b]], v1[right[a]][right[b]]) for a, b in keys]

        return [
            ("hcomp1", HCELL, self.hcomp1, ht, hs, self.hcells, lambda keys: [(hs[f], ht[g]) for f, g in keys],
             "hcomp1 entry {}", "hcomp1 keys must be the composable hcell pairs; first bad: {bad}"),
            ("vcomp1", VCELL, self.vcomp1, vt, vs, self.vcells, lambda keys: [(vs[u], vt[v]) for u, v in keys],
             "vcomp1 entry {}", "vcomp1 keys must be the composable vcell pairs; first bad: {bad}"),
            ("hcomp2", SQUARE, self.hcomp2, right, left, self.squares, hcomp2,
             "hcomp2 entry {}", "hcomp2 keys must be the pastable square pairs; first bad: {bad}"),
            ("vcomp2", SQUARE, self.vcomp2, bottom, top, self.squares, vcomp2,
             "vcomp2 entry {}", "vcomp2 keys must be the pastable square pairs; first bad: {bad}"),
        ]

    def table_boundary_violations(self, col) -> None:
        """Record a violation for every table entry whose value has the wrong
        boundary.  Part of every checker run over this structure."""
        _boundaries(col, self._tables())


# ---------------------------------------------------------------------------
# the exhaustive checker


# the assumptions of the laws that a thin double category derives
_DERIVED_INTERCHANGE = (
    "interchange derived, not evaluated: each square is fixed by its boundary and every table entry has its boundary"
)
_DERIVED_ASSOCIATIVITY = (
    "{0}2-associativity derived from {0}1-associativity, not evaluated: each square is fixed by its boundary"
)


def check_double_category(d: DoubleCategory, budget: Budget | None = None) -> AxiomReport:
    """Verify every strict double-category law by exhaustive enumeration.

    Violations carry the law name and a minimal witness tuple; enumeration is
    lexicographic in cell ids so reports are deterministic.  The laws read
    each table's dense rows, those of ``hcomp2`` and ``vcomp2`` built once
    and shared by associativity and interchange.  The budget is charged once
    per row of instances rather than per instance, associativity once per
    block of a left cell, and the interchange grid once per pair of squares
    ``(a, b)``; the cutoff is still exact: with ``budget`` the report checks
    and records exactly the instances, the interchange grid included, that
    fit under its cap, in enumeration order.

    In a thin double category, where no two squares share a boundary, two
    squares with one boundary are one square, and three laws follow from
    laws checked before them.  By then every table entry has its boundary
    (the table-boundary laws come first, and the run ends there if one
    fails).  Writing ``t, b, l, r`` for a square's top, bottom, left and
    right and ``;`` for 1-cell composition:

    - interchange: by the boundaries of the ``hcomp2`` and ``vcomp2``
      entries, ``(a/c) | (b/e)`` and ``(a|b) / (c|e)`` both have the
      boundary ``(t_a;t_b, b_c;b_e, l_a;l_c, r_b;r_e)``;
    - ``hcomp2-associativity``, where ``hcomp1-associativity`` recorded no
      violation in this run: ``(a|b)|c`` has the boundary
      ``((t_a;t_b);t_c, (b_a;b_b);b_c, l_a, r_c)`` and ``a|(b|c)`` the
      boundary ``(t_a;(t_b;t_c), b_a;(b_b;b_c), l_a, r_c)``, which are
      equal by ``hcomp1-associativity`` at the triples of tops and of
      bottoms; ``vcomp2-associativity`` likewise from
      ``vcomp1-associativity``.  The 1-cell law runs first, so a budget
      that reaches the square law covered the 1-cell law in full.

    These laws are then charged at once, counted from the squares' edges
    (``Σ_{x,y} P(x,y)·G(x,y)`` in :func:`_interchange`, ``Σ_e #{x:
    ends[x]=e}·B(e)`` in :func:`_associativity`), and none of their
    instances is walked or evaluated, so ``checked``, the budget, the
    status and the violations are those of the full enumeration, whatever
    the cap.  Each derived law that has an instance within the budget
    records an assumption saying so.  In every other case, a category with
    two squares on one boundary or one whose 1-cell associativity fails,
    the laws are enumerated.
    """
    col = Collector("double-category", budget)
    d.table_boundary_violations(col)
    if col.report.violations:
        # laws cannot be evaluated over boundary-incoherent tables
        col.assume("equational laws not evaluated: table entries have wrong boundaries")
        return col.done()

    hs, ht = _columns(d.hcells, 2)
    vs, vt = _columns(d.vcells, 2)
    top, bottom, left, right = _columns(d.squares, 4)
    ns = len(d.squares)
    thin = len(set(d.squares)) == ns
    _associativity(col, "hcomp1-associativity", HCELL, _dense_rows(d.hcomp1, len(ht)), ht, hs)
    h_thin = thin and not col.report.violations
    _units(col, "hcomp1-left-unit", "hcomp1-right-unit", HCELL, d.hcomp1, ht, hs, d.hid)
    found = len(col.report.violations)
    _associativity(col, "vcomp1-associativity", VCELL, _dense_rows(d.vcomp1, len(vt)), vt, vs)
    v_thin = thin and len(col.report.violations) == found
    _units(col, "vcomp1-left-unit", "vcomp1-right-unit", VCELL, d.vcomp1, vt, vs, d.vid)
    # a thin category evaluates interchange nowhere, so it reads the dense
    # rows of a square table only for an associativity it does not derive
    hrows = None if h_thin else _dense_rows(d.hcomp2, ns)
    vrows = None if v_thin else _dense_rows(d.vcomp2, ns)
    _associativity(col, "hcomp2-associativity", SQUARE, hrows, right, left,
                   _DERIVED_ASSOCIATIVITY.format("hcomp") if h_thin else None)
    _units(col, "hcomp2-unit", "hcomp2-unit", SQUARE, d.hcomp2, right, left, d.sq_hid)
    _associativity(col, "vcomp2-associativity", SQUARE, vrows, bottom, top,
                   _DERIVED_ASSOCIATIVITY.format("vcomp") if v_thin else None)
    _units(col, "vcomp2-unit", "vcomp2-unit", SQUARE, d.vcomp2, bottom, top, d.sq_vid)
    _identity_functoriality(col, "identity-functoriality-h", HCELL, d.hcomp1, d.hcomp2, d.sq_vid)
    _identity_functoriality(col, "identity-functoriality-v", VCELL, d.vcomp1, d.vcomp2, d.sq_hid)
    _whole(col, (OBJECT,), range(d.n_objects), ("identity-coincidence",
           lambda r: [d.sq_vid[d.hid[a]] for a in r], lambda r: [d.sq_hid[d.vid[a]] for a in r]))
    _interchange(col, d, hrows, vrows, _DERIVED_INTERCHANGE if thin else None)
    return col.done()


def _interchange(col, d, hrows, vrows, derived=None):
    """Record ``(a/c) | (b/e) == (a|b) / (c|e)`` over every 2x2 grid of
    squares, ``hrows`` and ``vrows`` the dense rows of ``hcomp2`` and
    ``vcomp2``.  The rows ``(a, b, c, *)`` of a pair ``(a, b)`` depend only
    on the bottoms of ``a`` and ``b``, so they are listed once per pair of
    bottoms.  Each pair is charged once for all its rows; where the budget
    runs out inside them, only the first instances that fit are evaluated,
    so the cutoff is as exact as one charge per instance.  Where the caller
    has proved the law (``derived``, as for :func:`_associativity`; the
    rows unused), its ``Σ_{x,y} P(x,y)·G(x,y)`` instances are charged at
    once, as pair by pair, and none is walked or evaluated: with ``t, b, l,
    r`` a square's edges, ``P(x,y) = Σ_v #{a: r_a=v, b_a=x}·#{b: l_b=v,
    b_b=y}`` keys (a, b) of ``hcomp2``, which ``_validate`` makes exactly
    the pastable pairs, have the bottoms (x, y), each with a grid of
    ``G(x,y) = Σ_w #{c: t_c=x, r_c=w}·#{e: t_e=y, l_e=w}`` pairs (c, e)."""
    sq = d.squares
    if derived:
        top, bottom, left, right = _columns(sq, 4)
        pairs, grid = (_meet(Counter(zip(right, ends)), Counter(zip(left, ends))) for ends in (bottom, top))
        if col.take(sum(n * grid.get(bottoms, 0) for bottoms, n in pairs.items())):
            col.assume(derived)
        return
    by_top, by_tl, grids = d.squares_by_top(), d.squares_by_top_left(), {}
    for (a, b), ab in sorted(d.hcomp2.items()):
        x, y = sq[a][1], sq[b][1]
        if (x, y) not in grids:
            rows = [(c, by_tl.get((y, sq[c][3]), ())) for c in by_top.get(x, ())]
            grids[x, y] = rows, sum(len(row) for _, row in rows)
        rows, n = grids[x, y]
        k = col.take(n)
        if k < n:
            rows = _cut(rows, k)
        va, vb, vab = vrows[a], vrows[b], vrows[ab]
        for c, row in rows:
            hac, hc = hrows[va[c]], hrows[c]
            for e in row:
                if hac[vb[e]] != vab[hc[e]]:
                    witness = ((SQUARE, a), (SQUARE, b), (SQUARE, c), (SQUARE, e))
                    col.fail("interchange", witness, hac[vb[e]], vab[hc[e]])


def _meet(first, second):
    """``{(x, y): Σ_v first[(v, x)]·second[(v, y)]}`` for two counts of pairs."""
    by, out = {}, Counter()
    for (v, y), n in second.items():
        by.setdefault(v, []).append((y, n))
    for (v, x), m in first.items():
        for y, n in by.get(v, ()):
            out[x, y] += m * n
    return out


# ---------------------------------------------------------------------------
# constructions


# the fields of a finite presentation, in the order they are compared
_PRESENTATION = (
    "n_objects", "hcells", "vcells", "squares", "hcomp1", "vcomp1", "hcomp2", "vcomp2", "hid", "vid", "sq_vid", "sq_hid",
)


def same_category(a: DoubleCategory, b: DoubleCategory) -> bool:
    """Value equality of finite presentations (cells and all tables).

    Distinct construction calls produce distinct objects; operations that
    need matching categories accept either the same object or the same
    presentation.  When both sides hold their square tables as recipes
    (:class:`_Pending`), equal recipes stand for equal tables, so neither
    is built; other recipes, those of different kinds included (a
    pullback's and a parsed category's), are compared by their built
    tables."""
    if a is b:
        return True
    a2, b2 = ([_held(d, name) for name in ("hcomp2", "vcomp2")] for d in (a, b))
    if None in (a2[0], b2[0]):
        return all(getattr(a, name) == getattr(b, name) for name in _PRESENTATION)
    return all(getattr(a, name) == getattr(b, name) for name in _PRESENTATION if name not in ("hcomp2", "vcomp2")) and (
        a2 == b2 or (a.hcomp2 == b.hcomp2 and a.vcomp2 == b.vcomp2)
    )


def _horizontal_inverse(d: DoubleCategory, s: int):
    """The first square of the mirrored boundary of ``s`` (left and right
    swapped) that pastes with ``s`` both ways to a horizontal identity, or
    None."""
    t, b, l, r = d.squares[s]
    for x in d.squares_by_top_left().get((t, r), ()):
        if d.squares[x] == (t, b, r, l) and d.hpaste(s, x) == d.sq_hid[l] and d.hpaste(x, s) == d.sq_hid[r]:
            return x
    return None


def terminal_double_category() -> DoubleCategory:
    return DoubleCategory(
        1,
        [(0, 0)],
        [(0, 0)],
        [(0, 0, 0, 0)],
        {(0, 0): 0},
        {(0, 0): 0},
        {(0, 0): 0},
        {(0, 0): 0},
        [0],
        [0],
        [0],
        [0],
        names={OBJECT: ["*"], HCELL: ["1"], VCELL: ["1"], SQUARE: ["id"]},
    )


def quintet(c: FiniteCategory) -> DoubleCategory:
    """Double category of commuting squares of a finite category.

    Both hcells and vcells are the morphisms of ``c``; a square with boundary
    (top, bottom, left, right) exists exactly when ``top;right == left;bottom``
    in ``c``, and is unique for its boundary.
    """
    law = c.check()
    if not law.passed:
        raise StructureError("quintet input is not a category: " + law.summary())
    nm = len(c.mor)
    square_list = []
    square_index = {}
    for t in range(nm):
        for l in range(nm):
            if c.src(t) != c.src(l):
                continue
            for r in range(nm):
                if c.src(r) != c.tgt(t):
                    continue
                diag = c.then(t, r)
                for b in range(nm):
                    if (c.src(b), c.tgt(b)) == (c.tgt(l), c.tgt(r)) and c.then(l, b) == diag:
                        square_index[(t, b, l, r)] = len(square_list)
                        square_list.append((t, b, l, r))
    top, bottom, left, right = _columns(square_list, 4)
    by_left, by_top = _by(left), _by(top)
    hcomp2 = {
        (i, j): square_index[(c.then(t, top[j]), c.then(b, bottom[j]), l, right[j])]
        for i, (t, b, l, r) in enumerate(square_list)
        for j in by_left.get(r, ())
    }
    vcomp2 = {
        (i, j): square_index[(t, bottom[j], c.then(l, left[j]), c.then(r, right[j]))]
        for i, (t, b, l, r) in enumerate(square_list)
        for j in by_top.get(b, ())
    }
    mor_names = c.names.get("mor")
    names = None
    if mor_names:
        names = {
            OBJECT: [str(a) for a in c.names.get("objects", range(c.n_objects))],
            HCELL: list(mor_names),
            VCELL: list(mor_names),
            SQUARE: [f"[{mor_names[t]}/{mor_names[b]};{mor_names[l]}/{mor_names[r]}]" for (t, b, l, r) in square_list],
        }
    return DoubleCategory(
        c.n_objects,
        list(c.mor),
        list(c.mor),
        square_list,
        dict(c.comp),
        dict(c.comp),
        hcomp2,
        vcomp2,
        list(c.ids),
        list(c.ids),
        [square_index[(f, f, c.ids[c.src(f)], c.ids[c.tgt(f)])] for f in range(nm)],
        [square_index[(c.ids[c.src(u)], c.ids[c.tgt(u)], u, u)] for u in range(nm)],
        names=names,
    )


def _bang(d: DoubleCategory, term: DoubleCategory):
    """The functor from ``d`` to the terminal double category ``term``,
    duck-typed as :func:`pullback_pairs` reads it: every cell goes to 0."""
    return SimpleNamespace(
        dom=d,
        cod=term,
        ob_map=[0] * d.n_objects,
        h_map=[0] * len(d.hcells),
        v_map=[0] * len(d.vcells),
        sq_map=[0] * len(d.squares),
    )


def product(d1: DoubleCategory, d2: DoubleCategory) -> DoubleCategory:
    """Componentwise product; pair (x, y) gets index ``x * count2 + y``.

    It is the :func:`pullback` of the two functors to the terminal double
    category, so its square tables are built at their first read."""
    term = terminal_double_category()
    return pullback(_bang(d1, term), _bang(d2, term))


def pullback_pairs(f, g):
    """Matching cell pairs (per kind, lexicographic) of two functors into a
    common codomain; duck-typed over anything with the cell maps
    ``ob_map``, ``h_map``, ``v_map`` and ``sq_map`` (one image per cell of
    the domain)."""
    if not same_category(f.cod, g.cod):
        raise StructureError("pullback requires a common codomain")

    def matching(map1, map2):
        by_image = _by(map2)
        return [(x, y) for x, image in enumerate(map1) for y in by_image.get(image, ())]

    return {
        OBJECT: matching(f.ob_map, g.ob_map),
        HCELL: matching(f.h_map, g.h_map),
        VCELL: matching(f.v_map, g.v_map),
        SQUARE: matching(f.sq_map, g.sq_map),
    }


def _fiber_cells(pairs, d1, d2, find):
    """The cells of the fiber product of two functors out of ``d1`` and
    ``d2``, numbered by their index in ``pairs``, the functors'
    :func:`pullback_pairs`: yields in turn the boundaries of the hcells,
    vcells and squares, then ``hid``, ``vid``, ``sq_vid`` and ``sq_hid``,
    so a caller that stops early builds no more.  ``find(kind, what)`` is
    the lookup of a pair of ``kind`` cells, ``what`` naming the entry it
    serves."""
    def ends(kind, cells1, cells2, what):
        src, tgt = find(OBJECT, f"{what} source"), find(OBJECT, f"{what} target")
        return [(src((cells1[x][0], cells2[y][0])), tgt((cells1[x][1], cells2[y][1]))) for x, y in pairs[kind]]

    yield ends(HCELL, d1.hcells, d2.hcells, "hcell")
    yield ends(VCELL, d1.vcells, d2.vcells, "vcell")
    c1, c2 = d1.squares, d2.squares
    top, bottom = find(HCELL, "square top"), find(HCELL, "square bottom")
    left, right = find(VCELL, "square left"), find(VCELL, "square right")
    yield [
        (
            top((c1[x][0], c2[y][0])),
            bottom((c1[x][1], c2[y][1])),
            left((c1[x][2], c2[y][2])),
            right((c1[x][3], c2[y][3])),
        )
        for x, y in pairs[SQUARE]
    ]
    for name, kind, of in (
        ("hid", HCELL, OBJECT),
        ("vid", VCELL, OBJECT),
        ("sq_vid", SQUARE, HCELL),
        ("sq_hid", SQUARE, VCELL),
    ):
        look, ids1, ids2 = find(kind, name), getattr(d1, name), getattr(d2, name)
        yield [look((ids1[x], ids2[y])) for x, y in pairs[of]]


def _closes(table1, table2, map1, map2):
    """Whether every composite of the join of ``table1`` and ``table2`` (of
    :func:`pullback`) is a matching pair, ``map1`` and ``map2`` the square
    maps into the common codomain.  An entry of ``table1`` meets the
    entries of ``table2`` whose key has the same image, so its composite's
    image must be the image of each of theirs: ``table2`` is grouped by the
    image of its key, a group with two images of composites marked None."""
    images = {}
    for (y, y2), w in table2.items():
        at, image = (map2[y], map2[y2]), map2[w]
        if images.setdefault(at, image) != image:
            images[at] = None
    return all(images.get((map1[x], map1[x2]), map1[z]) == map1[z] for (x, x2), z in table1.items())


class _Join:
    """How :func:`pullback` builds one table of the fiber product, from what
    the call found: the matching pairs ``ps`` and their index ``at``, the
    factors' rows and each pair's start and end key; ``look`` raises on a
    composite that is not a matching pair.  Equal recipes build equal tables."""

    def __init__(self, ps, at, rows1, rows2, starts, ends, look):
        self.ps, self.at, self.rows1, self.rows2, self.starts, self.ends, self.look = ps, at, rows1, rows2, starts, ends, look

    def __eq__(self, other):
        if type(other) is not _Join:
            return NotImplemented
        return (self.ps, self.starts, self.ends, self.rows1, self.rows2) == (
            other.ps, other.starts, other.ends, other.rows1, other.rows2)

    def entry(self, i, j):
        """The composite of the pairs i and j, None where they do not compose."""
        n, ps = len(self.ps), self.ps
        if not (0 <= i < n and 0 <= j < n) or self.ends[i] != self.starts[j]:
            return None
        (x, y), (x2, y2) = ps[i], ps[j]
        p = (self.rows1[x][x2], self.rows2[y][y2])
        k = self.at.get(p)
        return self.look(p) if k is None else k

    def table(self):
        """The whole table, by a join on the start keys, keys in
        lexicographic order; ``look`` reruns only on a miss."""
        ps, at, rows1, rows2, ends, look = self.ps, self.at, self.rows1, self.rows2, self.ends, self.look
        by_start = _by(self.starts)
        table = {}
        for i, (x, y) in enumerate(ps):
            later = by_start.get(ends[i])
            if later:
                row1, row2 = rows1[x], rows2[y]
                for j in later:
                    x2, y2 = ps[j]
                    p = (row1[x2], row2[y2])
                    k = at.get(p)
                    table[(i, j)] = look(p) if k is None else k
        return table


class _Deferred:
    """``class P(_Deferred, Plain)``: objects of ``Plain`` that hold some
    fields as recipes (:func:`_defer`), each recipe's ``table()`` the
    field.  The first read of any held field builds them all and makes the
    object a plain ``Plain``; so does assigning one, before the assignment,
    and so do ``copy``, ``deepcopy``, pickling, and ``==`` and ``repr``
    where ``Plain`` defines them, so each gives what an eager build gives.
    :func:`_held` reads a recipe and builds nothing.  Calling ``P`` makes a
    plain object."""

    def __init_subclass__(cls):
        cls._plain = plain = cls.__bases__[1]
        for method in ("__eq__", "__repr__", "__reduce_ex__"):
            if method == "__reduce_ex__" or getattr(plain, method) is not getattr(object, method):
                setattr(cls, method, _on_built(method))

    def __new__(cls, *args, **kwargs):
        return cls._plain(*args, **kwargs)

    def __getattr__(self, name):
        # called only for an attribute the instance does not hold
        if _held(self, name) is None:
            raise AttributeError(f"'{self._plain.__name__}' object has no attribute '{name}'")
        self._build()
        return vars(self)[name]

    def __setattr__(self, name, value):
        if _held(self, name) is not None:
            self._build()
        object.__setattr__(self, name, value)

    def _build(self):
        """Build every held field and become the plain class."""
        self._place({name: recipe.table() for name, recipe in vars(self).pop("_recipes").items()})
        self.__class__ = self._plain

    def _place(self, fields):
        vars(self).update(fields)


def _on_built(method):
    def run(self, *args):
        self._build()
        return getattr(self, method)(*args)

    return run


def _defer(obj, **recipes):
    """``obj``, made by a :class:`_Deferred` subclass, holding ``recipes``
    in place of the fields they name."""
    for name in recipes:
        vars(obj).pop(name, None)
    vars(obj)["_recipes"] = recipes
    return obj


def _held(obj, name):
    """The recipe ``obj`` holds for its field ``name``, else None."""
    recipes = obj.__dict__.get("_recipes")
    return None if recipes is None else recipes.get(name)


class _Pending(_Deferred, DoubleCategory):
    """A pullback or a parsed category, or the transpose of one, holding
    ``hcomp2`` and ``vcomp2`` as a :class:`_Join` or a ``dsl._Composites``
    each.  A recipe's ``entry(i, j)`` is one entry (None where i and j do
    not compose), so ``hpaste`` and ``vpaste`` build nothing; equal recipes
    build equal tables, and recipes of different kinds are never equal."""

    def hpaste(self, a, b):
        return _Pending._paste(self, "hcomp2", a, b, DoubleCategory.hpaste, "|", "horizontally")

    def vpaste(self, a, b):
        return _Pending._paste(self, "vcomp2", a, b, DoubleCategory.vpaste, "/", "vertically")

    def _paste(self, name, a, b, built, sep, way):
        recipe = _held(self, name)
        if recipe is None or not (isinstance(a, int) and isinstance(b, int)):
            # built since this method was bound, or keys only a table reads
            return built(self, a, b)
        z = recipe.entry(a, b)
        if z is None:
            raise self._unpasted(a, b, sep, way)
        return z


def _deferred(tables, recipes, names=None):
    """The :class:`_Pending` category on ``tables`` (the constructor's
    arguments but ``hcomp2`` and ``vcomp2``) whose square tables the
    ``recipes`` build, validated as the constructor validates but for those
    two tables, which the caller has decided exact."""
    p = _Pending._unvalidated(*tables[:6], {}, {}, *tables[6:], names=names)
    p._validate(square_tables=False)
    return _defer(p, **recipes)


def pullback(f, g) -> DoubleCategory:
    """Cellwise pullback of two strict functors with a common codomain.

    Cells are matching pairs, composed componentwise.  Raises StructureError
    when the matching pairs are not closed under composition (which happens
    exactly when one of the inputs fails strictness).

    The cells, the identities, ``hcomp1`` and ``vcomp1`` are built here;
    the square tables, the largest by far, are held (:class:`_Pending`) as
    recipes taken from the factors as this call found them, so a later
    edit of a factor does not reach them.  Whether they close is decided
    here all the same, in one pass over each factor's table (``_closes``),
    so a pullback that does not close raises from this call, naming the
    same first pair as the join.

    The result is valid by construction, so it is built without
    ``_validate``: every cell boundary, identity and table value is the
    index of a matching pair (``look``), hence in range; square corners and
    the boundaries of the identity cells hold componentwise in the two
    validated domains; and a table's keys are, by the join, exactly the
    pairs that compose in both domains, which are the composable pairs of
    the pullback.
    """
    pairs = pullback_pairs(f, g)
    index = {kind: {p: i for i, p in enumerate(ps)} for kind, ps in pairs.items()}
    d1, d2 = f.dom, g.dom

    def find(kind, what):
        at = index[kind]

        def look(p):
            try:
                return at[p]
            except KeyError:
                raise StructureError(
                    f"pullback not closed at {what}: pair {p} does not match; are both functors strict?"
                ) from None

        return look

    cells = _fiber_cells(pairs, d1, d2, find)
    hcells, vcells, squares = next(cells), next(cells), next(cells)

    def join(kind, cells1, cells2, end, start, name):
        # pairs (i, j) of matching pairs that compose in both factors
        ps = pairs[kind]
        keys = [[(cells1[x][k], cells2[y][k]) for x, y in ps] for k in (start, end)]
        return _Join(ps, index[kind], _rows(getattr(d1, name)), _rows(getattr(d2, name)), *keys, find(kind, name))

    hcomp1 = join(HCELL, d1.hcells, d2.hcells, 1, 0, "hcomp1").table()
    vcomp1 = join(VCELL, d1.vcells, d2.vcells, 1, 0, "vcomp1").table()
    joins = {}
    for name, end, start in (("hcomp2", 3, 2), ("vcomp2", 1, 0)):
        joins[name] = join(SQUARE, d1.squares, d2.squares, end, start, name)
        if not _closes(getattr(d1, name), getattr(d2, name), f.sq_map, g.sq_map):
            joins[name].table()  # raises at the first pair that does not match
    names = {kind: [f"({d1.name_of(kind, x)},{d2.name_of(kind, y)})" for (x, y) in ps] for kind, ps in pairs.items()}
    p = _Pending._unvalidated(len(pairs[OBJECT]), hcells, vcells, squares, hcomp1, vcomp1, {}, {}, *cells, names=names)
    return _defer(p, **joins)


# ---------------------------------------------------------------------------
# entry-by-entry comparison with the canonical structure
#
# A comparison walks *sections* in a fixed order: ``(head, kind, left,
# right)``, two sequences indexed by cell id or two dicts keyed by a cell id
# or a pair of them, compared in key order.  The witness of an entry is
# ``head`` followed by ``(kind, c)`` for each cell c of its key, or ``head``
# alone when ``kind`` is None (a section of one entry); an entry present on
# one side only differs there, with None on the missing side.  A dict
# section's first difference is the least key whose two sides differ, at
# its rank among the keys of both dicts; no key is sorted to find it.


def _mismatch(left, right, stop):
    """The first index below ``stop`` at which ``left`` and ``right``
    differ, an entry present on one side only included; None if none."""
    common = min(len(left), len(right), stop)
    for i in range(common):
        if left[i] != right[i]:
            return i
    return common if common < stop and common < max(len(left), len(right)) else None


def _first_difference(sections, room=math.inf):
    """``(n, witness, lhs, rhs)`` for the first entry of ``sections`` that
    differs, n the number of entries up to and including it; only the first
    ``room`` entries (all by default) are compared.  Without a difference
    among them the witness and both sides are None and n is the number of
    entries, or ``room + 1`` when entries were left over.  A section that
    agrees within ``room`` is compared as a whole.  Otherwise a list section
    is walked index by index; a dict section lists the keys whose sides
    (read with ``get``) differ, over the shared keys or else their union,
    and the least of them is the difference, its rank among those keys its
    index, unless that rank is at or past the cut."""
    n = 0
    for head, kind, left, right in sections:
        cut = room - n
        if left == right and len(left) <= cut:
            n += len(left)
            continue
        if isinstance(left, dict):
            keys = left.keys() if left.keys() == right.keys() else left.keys() | right.keys()
            lget, rget = left.get, right.get
            differing = [k for k in keys if lget(k) != rget(k)]
            size, i = len(keys), None
            if differing:
                key = min(differing)
                i = len([k for k in keys if k < key])
                lhs, rhs = lget(key), rget(key)
        else:
            size = max(len(left), len(right))
            key = i = _mismatch(left, right, cut)
            if i is not None:
                lhs = left[i] if i < len(left) else None
                rhs = right[i] if i < len(right) else None
        if i is None or i >= cut:
            if size > cut:
                return room + 1, None, None, None
            n += size
            continue
        cells = () if kind is None else tuple((kind, c) for c in (key if isinstance(key, tuple) else (key,)))
        return n + i + 1, (*head, *cells), lhs, rhs
    return n, None, None, None


def _compare_entries(col, law, sections) -> None:
    """Record the first difference of ``sections`` as a violation of
    ``law``, charged with one ``Collector.take`` for the entries up to and
    including it (all of them when none differs); under a budget cut only
    the entries that fit are compared."""
    n, witness, lhs, rhs = _first_difference(sections, col.room())
    col.take(n)
    if witness is not None:
        col.fail(law, witness, lhs, rhs)


def _cell_map_sections(f, g, head=()):
    """The sections comparing two cell-map families ``f`` and ``g`` (strict
    functors, or pseudofunctors with their structure cells): the domains
    and the codomains, as presentations (:func:`same_category`), one entry
    each named ``dom`` and ``cod``; the four cell maps; then ``comp_h``,
    ``unit_h``, ``comp_v`` and ``unit_v`` by key, or as their value lists
    where both are pending and equal (:func:`_family_sides`)."""
    for end in ("dom", "cod"):
        a, b = getattr(f, end), getattr(g, end)
        yield (*head, end), None, [a], [a if same_category(a, b) else b]
    yield head, OBJECT, f.ob_map, g.ob_map
    yield head, HCELL, f.h_map, g.h_map
    yield head, VCELL, f.v_map, g.v_map
    yield head, SQUARE, f.sq_map, g.sq_map
    if _held(f, "comp_h") is not None or hasattr(f, "comp_h"):  # no probe builds a pending family
        for name, kind in (("comp_h", HCELL), ("unit_h", OBJECT), ("comp_v", VCELL), ("unit_v", OBJECT)):
            yield (*head, name), kind, *_family_sides(f, g, name)


def _family_sides(f, g, name):
    """The structure family ``name`` of pseudofunctors ``f`` and ``g``: both
    value lists where both hold it (``functors._Family``) with equal keys
    and values, as unique keys make equal dicts; else both dicts."""
    a, b = _held(f, name), _held(g, name)
    if a is not None and a == b:
        return a.values, b.values
    return getattr(f, name), getattr(g, name)


def _category_sections(a, b):
    """The sections comparing two categories' presentations: the objects,
    by count; the boundaries of the hcells, vcells and squares; the four
    tables by key; then ``hid``, ``vid``, ``sq_vid`` and ``sq_hid``."""
    yield (), OBJECT, range(a.n_objects), range(b.n_objects)
    for name, kind in (("hcells", HCELL), ("vcells", VCELL), ("squares", SQUARE)):
        yield (), kind, getattr(a, name), getattr(b, name)
    for name, kind in (("hcomp1", HCELL), ("vcomp1", VCELL), ("hcomp2", SQUARE), ("vcomp2", SQUARE),
                       ("hid", OBJECT), ("vid", OBJECT), ("sq_vid", HCELL), ("sq_hid", VCELL)):
        yield (name,), kind, getattr(a, name), getattr(b, name)


def transpose(d: DoubleCategory) -> DoubleCategory:
    """Swap the horizontal and vertical directions.

    Hcells and vcells trade places, square boundaries are reindexed
    (top, bottom, left, right) -> (left, right, top, bottom), and the two
    square compositions swap.  Involutive on the nose.  The transpose of a
    valid category is valid, so it is not validated again.  The transpose
    of a pullback or a parsed category that holds its square tables as
    recipes (:class:`_Pending`) is pending too, on the same two recipes
    swapped.
    """
    squares = [(l, r, t, b) for (t, b, l, r) in d.squares]
    names = None
    if d.names:
        names = dict(d.names)
        names[HCELL], names[VCELL] = d.names.get(VCELL), d.names.get(HCELL)
        names = {k: v for k, v in names.items() if v is not None}
    h, v = _held(d, "hcomp2"), _held(d, "vcomp2")
    t = (DoubleCategory if h is None else _Pending)._unvalidated(
        d.n_objects, d.vcells, d.hcells, squares, d.vcomp1, d.hcomp1,
        *((d.vcomp2, d.hcomp2) if h is None else ({}, {})), d.vid, d.hid, d.sq_hid, d.sq_vid, names=names)
    return t if h is None else _defer(t, hcomp2=v, vcomp2=h)


# ---------------------------------------------------------------------------
# strict 2-categories and the vertical-identity embedding


class TwoCategory:
    """Finite strict 2-category: objects, 1-cells, globular 2-cells.
    ``weak.Bicategory`` extends it with constraint cells."""

    def __init__(self, n_objects, onecells, twocells, comp1, vcomp2, hcomp2, id1, id2, names=None):
        self.n_objects = _count(n_objects)
        self.onecells = _tuples(onecells, "1-cell", "onecells")
        self.twocells = _tuples(twocells, "2-cell", "twocells")
        self.comp1 = _table(comp1, "comp1")
        self.vcomp2 = _table(vcomp2, "vcomp2")
        self.hcomp2 = _table(hcomp2, "hcomp2")
        self.id1 = _list(id1, "id1")
        self.id2 = _list(id2, "id2")
        self.names = names or {}
        self._validate()

    def s1(self, f):
        return self.onecells[f][0]

    def t1(self, f):
        return self.onecells[f][1]

    def s2(self, a):
        return self.twocells[a][0]

    def t2(self, a):
        return self.twocells[a][1]

    def then1(self, f, g):
        try:
            return self.comp1[(f, g)]
        except KeyError:
            raise NonComposable(f"1-cells {f} and {g} not composable") from None

    def vert(self, a, b):
        try:
            return self.vcomp2[(a, b)]
        except KeyError:
            raise NonComposable(f"2-cells {a} and {b} not vertically composable") from None

    def horiz(self, a, b):
        try:
            return self.hcomp2[(a, b)]
        except KeyError:
            raise NonComposable(f"2-cells {a} and {b} not horizontally composable") from None

    def name_of(self, kind, index):
        kind_names = self.names.get(kind)
        if kind_names is not None and 0 <= index < len(kind_names):
            return kind_names[index]
        return f"{kind}{index}"

    def _validate(self):
        n, n1, onecells = self.n_objects, len(self.onecells), self.onecells
        _check_cells(onecells, "1-cell", (n, n), ("source", "target"))
        _check_cells(self.twocells, "2-cell", (n1, n1), ("source", "target"),
                     lambda f, g: onecells[f] == onecells[g], "2-cell {} is not globular: {} vs {}")
        if len(self.id1) != n or len(self.id2) != n1:
            raise StructureError("identity 1-cells per object and 2-cells per 1-cell required")
        _check_ids(self.id1, onecells, [(a, a) for a in range(n)], "identity 1-cell of object {}")
        _check_ids(self.id2, self.twocells, [(f, f) for f in range(n1)], "identity 2-cell of 1-cell {}")
        _check_tables(self._tables())

    def _tables(self):
        """The table rows of ``comp1``, ``vcomp2`` and ``hcomp2``."""
        s1, t1 = _columns(self.onecells, 2)
        s2, t2 = _columns(self.twocells, 2)

        def hcomp2(keys):
            c1 = _dense_rows(self.comp1, len(s1))
            return [(c1[s2[a]][s2[b]], c1[t2[a]][t2[b]]) for a, b in keys]

        return [
            ("comp1", "onecell", self.comp1, t1, s1, self.onecells, lambda keys: [(s1[f], t1[g]) for f, g in keys],
             "comp1 entry {}", "comp1 must be keyed on exactly the composable 1-cell pairs"),
            ("vcomp2", "twocell", self.vcomp2, t2, s2, self.twocells, lambda keys: [(s2[a], t2[b]) for a, b in keys],
             "vcomp2 entry {}", "vcomp2 must be keyed on exactly the vertically composable pairs"),
            ("hcomp2", "twocell", self.hcomp2, [t1[f] for f in s2], [s1[f] for f in s2], self.twocells, hcomp2,
             "hcomp2 entry {}", "hcomp2 must be keyed on exactly the horizontally composable pairs"),
        ]

    def table_boundary_violations(self, col) -> None:
        _boundaries(col, self._tables())


def check_two_category(t: TwoCategory, budget: Budget | None = None) -> AxiomReport:
    col = Collector("two-category", budget)
    t.table_boundary_violations(col)
    if col.report.violations:
        col.assume("equational laws not evaluated: table entries have wrong boundaries")
        return col.done()
    s1, t1 = _columns(t.onecells, 2)
    s2, t2 = _columns(t.twocells, 2)
    h_ends, h_starts = [t1[f] for f in s2], [s1[f] for f in s2]
    _associativity(col, "comp1-associativity", "onecell", _dense_rows(t.comp1, len(t1)), t1, s1)
    _units(col, "comp1-left-unit", "comp1-right-unit", "onecell", t.comp1, t1, s1, t.id1)
    _associativity(col, "vcomp2-associativity", "twocell", _dense_rows(t.vcomp2, len(t2)), t2, s2)
    _units(col, "vcomp2-unit", "vcomp2-unit", "twocell", t.vcomp2, t2, s2, t.id2)
    _associativity(col, "hcomp2-associativity", "twocell", _dense_rows(t.hcomp2, len(t2)), h_ends, h_starts)
    _units(col, "hcomp2-unit", "hcomp2-unit", "twocell", t.hcomp2, h_ends, h_starts, [t.id2[f] for f in t.id1])
    _identity_functoriality(col, "identity-2-functoriality", "onecell", t.comp1, t.hcomp2, t.id2)
    _globular_interchange(col, "interchange", t)
    return col.done()


def _globular_interchange(col, law, t):
    """Record ``(a.a2) * (b.b2) == (a*b) . (a2*b2)`` (``.`` vertical, ``*``
    horizontal) for the 2-cells of a 2-category or bicategory ``t``, one row
    ``(a, b, a2, *)`` at a time."""
    s2, t2 = _columns(t.twocells, 2)
    by_s2, hrows, vrows = _by(s2), _rows(t.hcomp2), _rows(t.vcomp2)
    for (a, b), ab in sorted(t.hcomp2.items()):
        va, vb, vab, below_b = vrows[a], vrows[b], vrows[ab], by_s2.get(t2[b], ())
        for a2 in by_s2.get(t2[a], ()):
            haa2, ha2 = hrows[va[a2]], hrows[a2]
            for b2 in _charged(col, below_b):
                if haa2[vb[b2]] != vab[ha2[b2]]:
                    witness = (("twocell", a), ("twocell", b), ("twocell", a2), ("twocell", b2))
                    col.fail(law, witness, haa2[vb[b2]], vab[ha2[b2]])


def embed_two_category(t: TwoCategory) -> DoubleCategory:
    """Strict double category whose vcells are all identities and whose
    squares are the 2-cells of ``t``, placed vertically globular.  Injective
    on every kind of cell; rejected when ``t`` fails the strict laws."""
    law = check_two_category(t)
    if not law.passed:
        raise StructureError("embedding input is not a strict 2-category: " + law.summary())
    return _embedding(t, DoubleCategory)


def _embedding(t, cls, **constraints):
    """``cls`` on the cells of the 2-category or bicategory ``t``: its
    objects, its 1-cells as hcells, one identity vcell per object, and its
    2-cells as vertically globular squares, with ``constraints`` passed on
    as keywords.  Shared by :func:`embed_two_category` and
    ``internal.internalize_bicategory``."""
    n = t.n_objects
    return cls(
        n,
        list(t.onecells),
        [(a, a) for a in range(n)],
        [(f, g, t.s1(f), t.t1(f)) for (f, g) in t.twocells],
        dict(t.comp1),
        {(a, a): a for a in range(n)},
        dict(t.hcomp2),
        dict(t.vcomp2),
        list(t.id1),
        list(range(n)),
        list(t.id2),
        [t.id2[t.id1[a]] for a in range(n)],
        names={
            OBJECT: [t.name_of("objects", a) for a in range(n)],
            HCELL: [t.name_of("onecell", f) for f in range(len(t.onecells))],
            VCELL: [f"1^{t.name_of('objects', a)}" for a in range(n)],
            SQUARE: [t.name_of("twocell", x) for x in range(len(t.twocells))],
        },
        **constraints,
    )


def horizontal_two_category(d: DoubleCategory) -> TwoCategory:
    """Objects and hcells of ``d`` with the vertically globular squares as
    2-cells.  Applied after :func:`embed_two_category` this recovers the
    input cell for cell."""
    keep = [s for s in range(len(d.squares)) if d.is_vglobular(s)]
    reindex = {s: i for i, s in enumerate(keep)}
    twocells = [(d.top(s), d.bottom(s)) for s in keep]
    vcomp2 = {
        (reindex[a], reindex[b]): reindex[c]
        for (a, b), c in d.vcomp2.items()
        if a in reindex and b in reindex
    }
    hcomp2 = {
        (reindex[a], reindex[b]): reindex[c]
        for (a, b), c in d.hcomp2.items()
        if a in reindex and b in reindex
    }
    return TwoCategory(
        d.n_objects,
        list(d.hcells),
        twocells,
        dict(d.hcomp1),
        vcomp2,
        hcomp2,
        list(d.hid),
        [reindex[d.sq_vid[f]] for f in range(len(d.hcells))],
        names={
            "objects": [d.name_of(OBJECT, a) for a in range(d.n_objects)],
            "onecell": [d.name_of(HCELL, f) for f in range(len(d.hcells))],
            "twocell": [d.name_of(SQUARE, s) for s in keep],
        },
    )
