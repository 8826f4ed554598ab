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

Each block has one keyword table: keyword -> (shape, cell kinds, ...).  The
parser checks every line against its keyword's shape and the serializer
fills the same shape with names.

Identity cells in category-like blocks are declared implicitly (named
``id_A``, ``1_A``, ``1^A``, ``I_f``, ``I^u``) unless an ``id...`` line names
them.  A table entry may be left out when it is implied; one function per
rule gives the implied entries, the parser fills them in and the serializer
leaves them out:

- unit entries ``1 ; x = x`` and ``x ; 1 = x`` of every 1-cell and vertical
  2-cell table, and the identity whiskers of ``hcc``;
- ``hcc`` of two identity 2-cells: the identity 2-cell of the composite;
- ``hsq``/``vsq`` of two squares whose composite boundary is the boundary of
  exactly one square: that square;
- the associator and unitors of a bicategory: identity 2-cells.  A
  constraint is written with its inverse when either of them is not.

A missing composition entry, a missing table entry of a monoid, or a
missing component of a functor, transformation or modification is a
``ParseError`` at the block header; a table key given by two lines is one
at the second line.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import product
from operator import getitem

from .kernel import (
    DoubleCategory,
    FiniteCategory,
    StructureError,
    TwoCategory,
    _by,
    _columns,
    _deferred,
    _held,
    _rows,
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
        kinds = (kind,) if isinstance(kind, str) else kind
        if kinds is not None and decl.kind not in kinds:
            raise ParseError(f"{name!r} is a {decl.kind}, expected {'/'.join(kinds)}", line, column)
        return decl

    def __contains__(self, name):
        return name in self.decls


# ---------------------------------------------------------------------------
# grammar
#
# A shape spells the tokens after a keyword.  ``:``, ``->``, ``=>``, ``|``,
# ``=`` and ``on`` are literal; ``a|b`` is a choice, ``N`` a number, ``...``
# any number of tokens and every other word a placeholder.  The cell kinds
# name what each placeholder refers to; in a mapping block the placeholders
# before ``=`` are cells of the domain and those after it of the codomain.
# A line is read as its tokens and its text: the parser works on the tokens,
# and finds a token's column in the text only to report an error there.

_LITERALS = frozenset({":", "->", "=>", "|", "=", "on"})


def _token_lines(text):
    """(1-indexed line, tokens, text) of every line that has tokens: the
    maximal runs of non-whitespace before a ``#``, and the line up to it.
    A token's column is found only for an error (:func:`_column`)."""
    for line, raw in enumerate(text.splitlines(), 1):
        raw = raw.split("#", 1)[0]
        words = raw.split()
        if words:
            yield line, words, raw


def _column(src, i):
    """The 1-indexed column of the ``i``-th token of ``src``, a line of
    :func:`_token_lines`: its first occurrence after the token before it."""
    _, words, raw = src
    end = 0
    for word in words[:i]:
        end = raw.find(word, end) + len(word)
    return raw.find(words[i], end) + 1


def _error(message, src, i=0):
    """``message`` at the ``i``-th token of the line ``src``, or at its start
    when ``i`` is None (then ``src`` may be ``(line,)``)."""
    return ParseError(message, src[0], 1 if i is None else _column(src, i))


def _expect(cond, message, line, column=1):
    if not cond:
        raise ParseError(message, line, column)


@functools.lru_cache(maxsize=None)
def _compiled(shape):
    """``shape`` as (token count, literals, other checks, placeholder
    positions); the count is None for ``...``."""
    words = shape.split()
    if words == ["..."]:
        return None, (), (), ()
    literals = tuple((i, w) for i, w in enumerate(words) if w in _LITERALS)
    checks = tuple((i, frozenset(w.split("|")).__contains__) for i, w in enumerate(words) if "|" in w and w != "|")
    checks += tuple((i, str.isdigit) for i, w in enumerate(words) if w == "N")
    places = tuple(i for i, w in enumerate(words) if w not in _LITERALS)
    return len(words), literals, checks, places


def _fits(words, shape):
    """The tokens at the placeholders of ``shape``, or None if ``words`` do
    not fit it."""
    count, literals, checks, places = _compiled(shape)
    if count is None:
        return words
    if len(words) != count:
        return None
    for i, word in literals:
        if words[i] != word:
            return None
    for i, ok in checks:
        if not ok(words[i]):
            return None
    return [words[i] for i in places]


@functools.lru_cache(maxsize=None)
def _template(kw, shape):
    """The line of ``kw`` with a ``%s`` per placeholder of ``shape``, and
    the number of placeholders before its ``=`` (all if it has none)."""
    words = shape.split()
    line = " ".join([f"  {kw}"] + [w if w in _LITERALS else "%s" for w in words])
    return line, words.index("=") if "=" in words else len(words)


def _render(shape, words):
    """``shape`` with its placeholders replaced by ``words`` in order."""
    words = iter(words)
    return " ".join(w if w in _LITERALS else next(words) for w in shape.split())


def _block(lines, header_line, spec, unknown, once=()):
    """The lines of a block up to its ``}`` as (keyword, placeholder tokens,
    line from :func:`_token_lines`), each checked against the shape of its
    keyword in ``spec``; ``unknown`` is the message for any other keyword.
    A keyword in ``once`` names a single value: a second line is an error."""
    seen = set()
    for src in lines:
        words = src[1]
        head = words[0]
        if head == "}":
            return
        if head not in spec:
            raise _error(unknown.format(head), src)
        if head in once:
            if head in seen:
                raise _error(f"duplicate {head} line", src)
            seen.add(head)
        shape = spec[head][0]
        args = _fits(words[1:], shape)
        if args is None:
            raise _error(f"expected: {head} {shape}", src)
        yield head, args, src
    raise ParseError("unterminated block", header_line)


def _one(cells):
    return cells[0] if len(cells) == 1 else tuple(cells)


def _flat(cells):
    return cells if isinstance(cells, tuple) else (cells,)


def _lookups(spec, kw, dom, cod=None):
    """Per placeholder of ``kw``: its kind, the table of that kind (name ->
    index), in ``dom`` or, after an ``=``, in ``cod`` when given, and the
    place of its token on the line."""
    shape, kinds = spec[kw][:2]
    n, places = _template(kw, shape)[1], _compiled(shape)[3]
    return [(k, (dom if i < n or cod is None else cod)[k], 1 + places[i]) for i, k in enumerate(kinds)]


def _resolve(lookups, args, src, unresolved=None, first=0):
    """The index of each token of ``args``, the tokens from ``first`` on
    looked up first.  A miss is ``unknown KIND NAME`` at the token, or the
    message ``unresolved`` at the keyword when one is given."""
    found = [index.get(name) for (_, index, _), name in zip(lookups, args)]
    if None in found:
        if unresolved is not None:
            raise _error(unresolved, src)
        i = next(i for i in [*range(first, len(args)), *range(first)] if found[i] is None)
        kind, _, place = lookups[i]
        raise _error(f"unknown {kind} {args[i]!r}", src, place)
    return found


def _entry_reader(spec, dom, cod):
    """``entry(kw, args, src, unresolved=None) -> (key, value)`` for
    the lines of ``spec`` with an ``=``: the key cells before it, named in
    ``dom``, and the value cells after it, named in ``cod``."""
    split = {
        kw: (_lookups(spec, kw, dom, cod), _template(kw, shape[0])[1])
        for kw, shape in spec.items()
        if "=" in shape[0].split()
    }

    seen = {kw: set() for kw in split}

    def entry(kw, args, src, unresolved=None):
        lookups, n = split[kw]
        found = _resolve(lookups, args, src, unresolved)
        key = _one(found[:n])
        if key in seen[kw]:
            raise _repeated(kw, args[:n], src)
        seen[kw].add(key)
        return key, _one(found[n:])

    return entry


def _repeated(kw, args, src):
    """The error for a ``kw`` line whose key, the tokens ``args``, an earlier
    line gave: at the key's first token, which follows the keyword."""
    return _error(f"duplicate {kw} entry for {' '.join(args)}", src, 1)


def _line(spec, kw, *words):
    return _template(kw, spec[kw][0])[0] % words


def _writer(spec, dom, cod=None):
    """``write(kw, entries)``: the lines of ``kw`` for the (key, value)
    pairs ``entries``, cell names from ``dom`` and those after an ``=`` from
    ``cod`` when given.  A keyword's format and name tables are bound on its
    first use, once per writer.  A key or a value names one cell or, where
    its side of the shape has several placeholders, a tuple of cells; no
    shape has several on both sides."""
    bound = {}

    def bind(kw):
        shape, kinds = spec[kw][:2]
        line, n = _template(kw, shape)
        if n >= len(kinds):  # no "=": a cell and its boundary, all in dom
            return line, [dom[kinds[0]]], [dom[k] for k in kinds[1:]]
        return line, [dom[k] for k in kinds[:n]], [(dom if cod is None else cod)[k] for k in kinds[n:]]

    def write(kw, entries):
        if kw not in bound:
            bound[kw] = bind(kw)
        fmt, keys, values = bound[kw]
        if len(keys) > 1:
            (c,) = values
            return [fmt % (*map(getitem, keys, k), c[v]) for k, v in entries]
        (a,) = keys
        if len(values) > 1:
            return [fmt % (a[k], *map(getitem, values, v)) for k, v in entries]
        (b,) = values
        return [fmt % (a[k], b[v]) for k, v in entries]

    return write


def _interleave(*columns):
    return [line for row in zip(*columns) for line in row]


def _count(d, kind):
    """The number of cells of ``kind`` in the double category ``d``."""
    return d.n_objects if kind == "object" else len(getattr(d, kind + "s"))


def _total(entries, keys, missing, line):
    """``[entries[k] for k in keys]``; the first absent key is the error
    ``missing`` (formatted with the key) at ``line``."""
    out = []
    for k in keys:
        if k not in entries:
            raise ParseError(missing.format(*_flat(k)), line)
        out.append(entries[k])
    return out


def _build(line, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a StructureError reported at ``line``."""
    try:
        return make(*args, **kwargs)
    except StructureError as e:
        raise ParseError(str(e), line) from None


# ---------------------------------------------------------------------------
# implied table entries: one function per rule, filled in by the parser and
# left out by the serializer


def _fill_implied(table, *rules):
    """Add the entries of ``rules`` that ``table`` lacks, the first rule
    first: after the explicit entries, in rule order."""
    for rule in rules:
        for key, value in rule:
            table.setdefault(key, value)


def _explicit(table, *rules):
    """The entries of ``table`` that ``_fill_implied`` would not restore,
    sorted."""
    implied = {}
    _fill_implied(implied, *rules)
    return [(k, v) for k, v in sorted(table.items()) if implied.get(k) != v]


def _unit_entries(ids, cells):
    """``(ids[a], x) -> x`` and ``(x, ids[b]) -> x`` for each cell x with
    boundary (a, b)."""
    for x, (a, b) in enumerate(cells):
        yield (ids[a], x), x
        yield (x, ids[b]), x


def _composite_index(squares):
    """Boundary index of squares given as (top, bottom, left, right): left
    -> right -> top -> bottom -> the square, None when two squares share
    the boundary."""
    unique = {}
    for s, (t, b, l, r) in enumerate(squares):
        bottoms = unique.setdefault(l, {}).setdefault(r, {}).setdefault(t, {})
        bottoms[b] = None if b in bottoms else s
    return unique


def _unique_composites(squares, comp):
    """Side-by-side pastings (right edge of x = left edge of y) of squares
    given as (top, bottom, left, right), to the one square with the
    composite boundary if there is exactly one, as a list of (key, value).
    The transposed squares and the vertical 1-cell table give the vertical
    pastings."""
    unique, rows, none = _composite_index(squares), _rows(comp), {}
    by_left = {}
    for y, (t, b, l, r) in enumerate(squares):
        by_left.setdefault(l, []).append((y, t, b, r))
    out = []
    for x, (t, b, l, r) in enumerate(squares):
        then_t, then_b, by_right = rows.get(t, none), rows.get(b, none), unique[l]
        for y, t2, b2, r2 in by_left.get(r, ()):
            z = by_right.get(r2, none).get(then_t.get(t2), none).get(then_b.get(b2))
            if z is not None:
                out.append(((x, y), z))
    return out


def _transposed(squares):
    return [(l, r, t, b) for t, b, l, r in squares]


class _Composites:
    """How the parser fills a square table, kept by a parsed category
    (``kernel._Pending``) until the table is read: the ``explicit`` entries
    of its lines, then the unique composite (:func:`_unique_composites`) of
    every other pastable pair of ``squares`` under the 1-cell table
    ``comp``; ``vcomp2`` is this on the transposed squares and ``vcomp1``.
    The recipe holds the parser's own lists, so a later edit of the
    category does not reach it.  Equal recipes build equal tables.  The
    serializer writes any category's square tables through one, a built
    table taken as the explicit entries (:meth:`kept`)."""

    def __init__(self, squares, comp, explicit):
        self.squares, self.comp, self.explicit = squares, comp, explicit
        self.index = _composite_index(squares)

    def __eq__(self, other):
        if type(other) is not _Composites:
            return NotImplemented
        return (self.explicit, self.squares, self.comp) == (other.explicit, other.squares, other.comp)

    def implied(self, x, y):
        """The unique composite of x and y, None where they do not paste or
        have none."""
        (t, b, l, r), (t2, b2, l2, r2), none = self.squares[x], self.squares[y], {}
        if r != l2:
            return None
        return self.index[l].get(r2, none).get(self.comp.get((t, t2)), none).get(self.comp.get((b, b2)))

    def entry(self, i, j):
        """The entry at (i, j), None where i and j do not paste."""
        if not (0 <= i < len(self.squares) and 0 <= j < len(self.squares)):
            return None
        z = self.explicit.get((i, j))
        return self.implied(i, j) if z is None else z

    def table(self):
        """The whole table: the explicit entries in line order, then the
        implied ones in :func:`_unique_composites` order."""
        table = dict(self.explicit)
        _fill_implied(table, _unique_composites(self.squares, self.comp))
        return table

    def exact(self):
        """Whether the table's keys are exactly the pastable pairs (as
        ``kernel._exact_table`` decides it; every value is a square): each
        explicit key pastable, and the explicit entries and the implied
        ones they leave as many as the pastable pairs.  One pass over the
        pastable pairs counts them and their unique composites, and keeps
        nothing."""
        squares, index, rows, none = self.squares, self.index, _rows(self.comp), {}
        by_left = {}
        for t, b, l, r in squares:
            by_left.setdefault(l, []).append((t, b, r))
        pairs = implied = 0
        for t, b, l, r in squares:
            later = by_left.get(r)
            if later:
                then_t, then_b, by_right = rows.get(t, none), rows.get(b, none), index[l]
                pairs += len(later)
                for t2, b2, r2 in later:
                    if by_right.get(r2, none).get(then_t.get(t2), none).get(then_b.get(b2)) is not None:
                        implied += 1
        for x, y in self.explicit:
            if squares[x][3] != squares[y][2]:
                return False
            if self.implied(x, y) is not None:
                implied -= 1
        return len(self.explicit) + implied == pairs

    def kept(self):
        """The explicit entries that differ from their implied value, in
        key order: the lines the serializer writes."""
        return [(k, z) for k, z in sorted(self.explicit.items()) if self.implied(*k) != z]


def _identity_composites(onecells, twocells, comp1, id2):
    """``hcc`` of two composable identity 2-cells: the identity 2-cell of
    the composite 1-cell.  Pairs come in the iteration order of
    ``set(id2)``, which fixes the insertion order of the filled table."""
    ids = set(id2)
    by_start = {}
    for y in ids:
        by_start.setdefault(onecells[twocells[y][0]][0], []).append(y)
    for x in ids:
        f = twocells[x][0]
        for y in by_start.get(onecells[f][1], ()):
            yield (x, y), id2[comp1[(f, twocells[y][0])]]


def _hcc_rules(onecells, twocells, comp1, id1, id2):
    """The implied ``hcc`` entries: identity composites, then whiskers by
    the identity 2-cells of identity 1-cells."""
    whiskers = _unit_entries([id2[i] for i in id1], [onecells[f] for f, _ in twocells])
    return _identity_composites(onecells, twocells, comp1, id2), whiskers


def _identity_constraints(onecells, comp1, id1, id2):
    """A bicategory's implied constraint cells: the identity 2-cell of
    ``(f.g).h`` per composable triple, of ``1_A.f`` and of ``f.1_B`` per
    1-cell f."""
    by_source = _by([a for a, _ in onecells])
    assoc = {
        (f, g, h): id2[comp1[(fg, h)]]
        for (f, g), fg in comp1.items()
        for h in by_source.get(onecells[g][1], ())
        if (fg, h) in comp1
    }
    lunit = [id2[comp1[(id1[a], f)]] for f, (a, _) in enumerate(onecells)]
    runit = [id2[comp1[(f, id1[b])]] for f, (_, b) in enumerate(onecells)]
    return assoc, lunit, runit


def _complete(table, ends, starts, names, line):
    """Report the first composable pair (``ends[x] == starts[y]``) that
    ``table`` lacks."""
    by_start = _by(starts)
    for x, end in enumerate(ends):
        for y in by_start.get(end, ()):
            if (x, y) not in table:
                raise ParseError(f"missing composition entry for {names[x]} {names[y]}", line)


# ---------------------------------------------------------------------------
# structure blocks: fincategory, category, twocategory, bicategory
#
# A line whose keyword is the kind of its first placeholder declares that
# cell; every other line refers to cells and is resolved once all of them
# are named.


class _NameTable:
    """Per-kind symbolic names with dense indices, built incrementally."""

    def __init__(self, kinds):
        self.names = {k: [] for k in kinds}
        self.index = {k: {} for k in kinds}

    def add(self, kind, name, src, i=None):
        if name in self.index[kind]:
            raise _error(f"duplicate {kind} name {name!r}", src, i)
        self.index[kind][name] = len(self.names[kind])
        self.names[kind].append(name)
        return self.index[kind][name]


def _read_cells(lines, header_line, spec, kinds, unknown):
    """Read a structure block: objects and declared cells are named as they
    are read, the other lines kept per keyword.  Returns the names, the kept
    lines and ``entries(kw, first=-1)``, their resolution."""
    nt = _NameTable(kinds)
    kept = {kw: [] for kw in spec}
    for kw, args, src in _block(lines, header_line, spec, unknown):
        if kw == "objects":
            for i, name in enumerate(args, 1):
                nt.add("object", name, src, i)
            continue
        if spec[kw][1][0] == kw:
            nt.add(kw, args[0], src, 1)
        kept[kw].append((args, src))
    return nt, kept, functools.partial(_resolved, nt, spec, kept)


def _resolved(nt, spec, kept, kw, first=-1):
    """The indices of each kept ``kw`` line, in order.  Within a line the
    tokens from ``first`` on are looked up first, by default the value
    before the key: that decides which of two unknown names is reported.
    A key (the cells before the ``=``) given by two lines is an error; a
    line without ``=`` declares a cell, whose name is already unique."""
    lookups = _lookups(spec, kw, nt.index)
    n = _template(kw, spec[kw][0])[1]
    seen = set() if n < len(lookups) else None
    for args, src in kept[kw]:
        found = _resolve(lookups, args, src, first=first % len(args))
        if seen is not None:
            key = _one(found[:n])
            if key in seen:
                raise _repeated(kw, args[:n], src)
            seen.add(key)
        yield found


def _assigned(pairs, count):
    """``out[x] = y`` for each pair (x, y), None elsewhere."""
    out = [None] * count
    for x, y in pairs:
        out[x] = y
    return out


def _boundaries(nt, entries, kind):
    """The boundary of each ``kind`` cell declared so far; None for the
    cells without a declaration line."""
    return _assigned(((x, tuple(bnd)) for x, *bnd in entries(kind, 0)), len(nt.names[kind]))


def _identities(nt, ids, of, kind, prefix, header_line, shared=()):
    """Complete ``ids``, the identity ``kind`` cell of each ``of`` cell: from
    ``shared``, else a new cell named prefix + name (if free, else an error)."""
    for x, name in enumerate(nt.names[of]):
        if ids[x] is None:
            ids[x] = shared[x] if x in shared else nt.add(kind, prefix + name, (header_line,))
    return ids


def _fill(nt, kind, cells, ids, identity):
    """Extend the boundaries ``cells`` to every ``kind`` cell; an implicit
    identity cell ``ids[x]`` gets ``identity(x)``."""
    cells.extend([None] * (len(nt.names[kind]) - len(cells)))
    for x, i in enumerate(ids):
        if cells[i] is None:
            cells[i] = identity(x)
    return cells


def _table(entries):
    """``{key: value}`` of resolved entry lines, the value last."""
    return {_one(cells[:-1]): cells[-1] for cells in entries}


def _same(a):
    return (a, a)


_FINCATEGORY = {
    "objects": ("...",),
    "mor": ("f : A -> B", ("mor", "object", "object")),
    "comp": ("f g = h", ("mor", "mor", "mor")),
    "idm": ("A = f", ("object", "mor")),
}


def _parse_fincategory(lines, doc, name, sig, header_line):
    nt, kept, entries = _read_cells(
        lines, header_line, _FINCATEGORY, ("object", "mor"), "unknown keyword {!r} in fincategory"
    )
    n = len(nt.names["object"])
    ids = _identities(nt, _assigned(entries("idm"), n), "object", "mor", "id_", header_line)
    mor = _fill(nt, "mor", _boundaries(nt, entries, "mor"), ids, _same)
    comp = {}
    for (f, g, h), (args, src) in zip(entries("comp", 0), kept["comp"]):
        if mor[f][1] != mor[g][0]:
            raise _error(f"{args[0]} and {args[1]} not composable", src, 1)
        comp[(f, g)] = h
    # every unit entry first: an identity may be listed before a morphism
    # it composes with
    _fill_implied(comp, _unit_entries(ids, mor))
    src, tgt = _columns(mor, 2)
    _complete(comp, tgt, src, nt.names["mor"], header_line)
    names = {"objects": nt.names["object"], "mor": nt.names["mor"]}
    cat = _build(header_line, FiniteCategory, n, mor, comp, ids, names=names)
    return Declaration("fincategory", name, cat, names=nt.index)


def _write_fincategory(doc, decl):
    c = decl.obj
    names = {"object": c.names.get("objects") or [f"o{a}" for a in range(c.n_objects)], "mor": c.names["mor"]}
    write = _writer(_FINCATEGORY, names)
    w = [_line(_FINCATEGORY, "objects", " ".join(names["object"]))]
    w += write("mor", enumerate(c.mor))
    w += write("idm", enumerate(c.ids))
    return w + write("comp", _explicit(c.comp, _unit_entries(c.ids, c.mor)))


_CATEGORY = {
    "objects": ("...",),
    "hcell": ("f : A -> B", ("hcell", "object", "object")),
    "vcell": ("f : A -> B", ("vcell", "object", "object")),
    "square": ("s : top bottom | left right", ("square", "hcell", "hcell", "vcell", "vcell")),
    "idh": ("x = y", ("object", "hcell")),
    "idv": ("x = y", ("object", "vcell")),
    "idsq": ("x = y", ("hcell", "square")),
    "idsqv": ("x = y", ("vcell", "square")),
    "hcomp": ("a b = c", ("hcell",) * 3),
    "vcomp": ("a b = c", ("vcell",) * 3),
    "hsq": ("a b = c", ("square",) * 3),
    "vsq": ("a b = c", ("square",) * 3),
}


def _parse_category(lines, doc, name, sig, header_line):
    nt, _, entries = _read_cells(
        lines, header_line, _CATEGORY, ("object", "hcell", "vcell", "square"), "unknown keyword {!r} in category"
    )
    n = len(nt.names["object"])
    hid, vid = _assigned(entries("idh"), n), _assigned(entries("idv"), n)
    _identities(nt, hid, "object", "hcell", "1_", header_line)
    _identities(nt, vid, "object", "vcell", "1^", header_line)
    hcells = _fill(nt, "hcell", _boundaries(nt, entries, "hcell"), hid, _same)
    vcells = _fill(nt, "vcell", _boundaries(nt, entries, "vcell"), vid, _same)
    squares = _boundaries(nt, entries, "square")
    sq_vid = _assigned(entries("idsq"), len(hcells))
    sq_hid = _assigned(entries("idsqv"), len(vcells))
    _identities(nt, sq_vid, "hcell", "square", "I_", header_line)
    # an identity vcell shares the identity square of its object
    shared = {u: sq_vid[hid[a]] for a, u in enumerate(vid)}
    _identities(nt, sq_hid, "vcell", "square", "I^", header_line, shared)
    _fill(nt, "square", squares, sq_vid, lambda f: (f, f, vid[hcells[f][0]], vid[hcells[f][1]]))
    _fill(nt, "square", squares, sq_hid, lambda u: (hid[vcells[u][0]], hid[vcells[u][1]], u, u))
    hcomp1, vcomp1 = _table(entries("hcomp")), _table(entries("vcomp"))
    _fill_implied(hcomp1, _unit_entries(hid, hcells))
    _fill_implied(vcomp1, _unit_entries(vid, vcells))
    # the square tables are built at their first read, but whether they are
    # exact is decided here; one that is not is built now, so that the
    # constructor raises what it raises on it
    recipes = {
        "hcomp2": _Composites(squares, hcomp1, _table(entries("hsq"))),
        "vcomp2": _Composites(_transposed(squares), vcomp1, _table(entries("vsq"))),
    }
    tables = (n, hcells, vcells, squares, hcomp1, vcomp1, hid, vid, sq_vid, sq_hid)
    if all(recipe.exact() for recipe in recipes.values()):
        cat = _build(header_line, _deferred, tables, recipes, names=dict(nt.names))
    else:
        cat = _build(header_line, DoubleCategory, *tables[:6], *(r.table() for r in recipes.values()), *tables[6:],
                     names=dict(nt.names))
    return Declaration("category", name, cat, names=nt.index)


def _write_category(doc, decl):
    d = decl.obj
    nm = d.names
    write = _writer(_CATEGORY, nm)
    w = [_line(_CATEGORY, "objects", " ".join(nm["object"]))]
    for kw, cells in (("hcell", d.hcells), ("vcell", d.vcells), ("square", d.squares)):
        w += write(kw, enumerate(cells))
    w += _interleave(write("idh", enumerate(d.hid)), write("idv", enumerate(d.vid)))
    w += write("idsq", enumerate(d.sq_vid))
    w += write("idsqv", enumerate(d.sq_hid))
    w += write("hcomp", _explicit(d.hcomp1, _unit_entries(d.hid, d.hcells)))
    w += write("vcomp", _explicit(d.vcomp1, _unit_entries(d.vid, d.vcells)))
    # a parsed category whose square tables are not built is written from
    # its recipes, unless its squares or 1-cell tables were edited since
    recipes = _held(d, "hcomp2"), _held(d, "vcomp2")
    parsed = isinstance(recipes[0], _Composites)
    if not parsed or (recipes[0].squares, recipes[0].comp, recipes[1].comp) != (d.squares, d.hcomp1, d.vcomp1):
        recipes = _Composites(d.squares, d.hcomp1, d.hcomp2), _Composites(_transposed(d.squares), d.vcomp1, d.vcomp2)
    return w + write("hsq", recipes[0].kept()) + write("vsq", recipes[1].kept())


_TWOCATEGORY = {
    "objects": ("...",),
    "onecell": ("f : A -> B", ("onecell", "object", "object")),
    "twocell": ("s : f => g", ("twocell", "onecell", "onecell")),
    "id1": ("x = y", ("object", "onecell")),
    "id2": ("x = y", ("onecell", "twocell")),
    "comp": ("a b = c", ("onecell",) * 3),
    "vcc": ("a b = c", ("twocell",) * 3),
    "hcc": ("a b = c", ("twocell",) * 3),
}
_BICATEGORY = {
    **_TWOCATEGORY,
    "assoc": ("f g h = s", ("onecell",) * 3 + ("twocell",)),
    "associnv": ("f g h = s", ("onecell",) * 3 + ("twocell",)),
    **{kw: ("f = s", ("onecell", "twocell")) for kw in ("lunit", "lunitinv", "runit", "runitinv")},
}


def _parse_twocategory(lines, doc, name, sig, header_line, kind="twocategory"):
    spec = _BICATEGORY if kind == "bicategory" else _TWOCATEGORY
    nt, _, entries = _read_cells(lines, header_line, spec, ("object", "onecell", "twocell"), "unknown keyword {!r}")
    n = len(nt.names["object"])
    id1 = _identities(nt, _assigned(entries("id1"), n), "object", "onecell", "1_", header_line)
    onecells = _fill(nt, "onecell", _boundaries(nt, entries, "onecell"), id1, _same)
    n1 = len(onecells)
    id2 = _identities(nt, _assigned(entries("id2"), n1), "onecell", "twocell", "I_", header_line)
    twocells = _fill(nt, "twocell", _boundaries(nt, entries, "twocell"), id2, _same)
    comp1 = _table(entries("comp"))
    _fill_implied(comp1, _unit_entries(id1, onecells))
    vcomp2 = _table(entries("vcc"))
    _fill_implied(vcomp2, _unit_entries(id2, twocells))
    hcomp2 = _table(entries("hcc"))
    src, tgt = _columns(onecells, 2)
    _complete(comp1, tgt, src, nt.names["onecell"], header_line)
    _fill_implied(hcomp2, *_hcc_rules(onecells, twocells, comp1, id1, id2))
    names = {"objects": nt.names["object"], "onecell": nt.names["onecell"], "twocell": nt.names["twocell"]}
    tables = (n, onecells, twocells, comp1, vcomp2, hcomp2, id1, id2)
    if kind == "twocategory":
        return Declaration(kind, name, _build(header_line, TwoCategory, *tables, names=names), names=nt.index)
    assoc, assoc_inv = _table(entries("assoc")), _table(entries("associnv"))
    lunit, lunit_inv, runit, runit_inv = (
        _assigned(entries(kw), n1) for kw in ("lunit", "lunitinv", "runit", "runitinv")
    )
    implied_assoc, implied_lunit, implied_runit = _identity_constraints(onecells, comp1, id1, id2)
    for f in range(n1):
        for units, inverse, implied in ((lunit, lunit_inv, implied_lunit), (runit, runit_inv, implied_runit)):
            if units[f] is None:
                units[f] = implied[f]
            if inverse[f] is None and twocells[units[f]][0] == twocells[units[f]][1]:
                inverse[f] = units[f]
    for key, s in implied_assoc.items():
        if key not in assoc:
            assoc[key] = s
            assoc_inv.setdefault(key, s)
    obj = _build(header_line, Bicategory, *tables, assoc, assoc_inv, lunit, lunit_inv, runit, runit_inv, names=names)
    return Declaration(kind, name, obj, names=nt.index)


def _write_twocategory(doc, decl):
    t = decl.obj
    nm = {"object": t.names["objects"], "onecell": t.names["onecell"], "twocell": t.names["twocell"]}
    write = _writer(_BICATEGORY, nm)
    w = [_line(_BICATEGORY, "objects", " ".join(nm["object"]))]
    for kw, cells in (("onecell", t.onecells), ("twocell", t.twocells), ("id1", t.id1), ("id2", t.id2)):
        w += write(kw, enumerate(cells))
    for kw, table, rules in (
        ("comp", t.comp1, [_unit_entries(t.id1, t.onecells)]),
        ("vcc", t.vcomp2, [_unit_entries(t.id2, t.twocells)]),
        ("hcc", t.hcomp2, _hcc_rules(t.onecells, t.twocells, t.comp1, t.id1, t.id2)),
    ):
        w += write(kw, _explicit(table, *rules))
    if decl.kind == "bicategory":
        assoc, lunit, runit = _identity_constraints(t.onecells, t.comp1, t.id1, t.id2)
        keys = [
            key for key, s in sorted(t.assoc.items()) if s != assoc.get(key) or t.assoc_inv[key] != assoc.get(key)
        ]
        w += _interleave(
            write("assoc", [(k, t.assoc[k]) for k in keys]), write("associnv", [(k, t.assoc_inv[k]) for k in keys])
        )
        unitors = (("lunit", t.lunit, t.lunit_inv, lunit), ("runit", t.runit, t.runit_inv, runit))
        for f in range(len(t.onecells)):
            for kw, cells, inverse, implied in unitors:
                if cells[f] != implied[f] or inverse[f] != implied[f]:
                    w += write(kw, [(f, cells[f])]) + write(kw + "inv", [(f, inverse[f])])
    return w


# ---------------------------------------------------------------------------
# mapping blocks: functor, transformation, connection, modification, monoid


def _names(doc, ref):
    return doc.decls[ref].obj.names


_FUNCTOR = {
    "kind": ("strict|pseudo",),
    "ob": ("x = y", ("object", "object"), "ob_map"),
    "hcell": ("x = y", ("hcell", "hcell"), "h_map"),
    "vcell": ("x = y", ("vcell", "vcell"), "v_map"),
    "square": ("x = y", ("square", "square"), "sq_map"),
    "comph": ("x y = s", ("hcell", "hcell", "square"), "comp_h"),
    "comphinv": ("x y = s", ("hcell", "hcell", "square"), "comp_h_inv"),
    "compv": ("x y = s", ("vcell", "vcell", "square"), "comp_v"),
    "compvinv": ("x y = s", ("vcell", "vcell", "square"), "comp_v_inv"),
    "unith": ("A = s", ("object", "square"), "unit_h"),
    "unithinv": ("A = s", ("object", "square"), "unit_h_inv"),
    "unitv": ("A = s", ("object", "square"), "unit_v"),
    "unitvinv": ("A = s", ("object", "square"), "unit_v_inv"),
}
_FUNCTOR_MAPS = ("ob", "hcell", "vcell", "square")
_FUNCTOR_CELLS = ("comph", "compv", "unith", "unitv")  # each with its inverse, kw + "inv"


def _parse_functor(lines, doc, name, sig, header_line):
    (dom_name, dom_col), (cod_name, cod_col) = sig
    dom_decl = doc.get(dom_name, ("category",), header_line, dom_col)
    cod_decl = doc.get(cod_name, ("category",), header_line, cod_col)
    kind = "strict"
    entry = _entry_reader(_FUNCTOR, dom_decl.names, cod_decl.names)
    entries = {kw: {} for kw in _FUNCTOR}
    for kw, args, src in _block(lines, header_line, _FUNCTOR, "unknown keyword {!r} in functor", once=("kind",)):
        if kw == "kind":
            kind = args[0]
            continue
        unresolved = None if kw in _FUNCTOR_MAPS else "unresolved cell in structure entry"
        key, value = entry(kw, args, src, unresolved)
        entries[kw][key] = value
    maps = []
    for kw in _FUNCTOR_MAPS:
        what = _FUNCTOR[kw][1][0]
        count = _count(dom_decl.obj, what)
        maps.append(_total(entries[kw], range(count), f"missing image for {what} {{}}", header_line))
    f = pseudo_from_strict(_build(header_line, StrictDoubleFunctor, dom_decl.obj, cod_decl.obj, *maps, name=name))
    if kind == "pseudo":
        # the declared structure cells over the identity squares, checked
        # by the constructor
        f = _build(header_line, replace, f, **{_FUNCTOR[k][2]: {**getattr(f, _FUNCTOR[k][2]), **entries[k]}
                                               for kw in _FUNCTOR_CELLS for k in (kw, kw + "inv")})
    return Declaration("functor", name, f, meta={"strict": kind == "strict", "dom": dom_name, "cod": cod_name})


def _write_functor(doc, decl):
    f = decl.obj
    dn, cn = _names(doc, decl.meta["dom"]), _names(doc, decl.meta["cod"])
    strict = decl.meta.get("strict")
    write = _writer(_FUNCTOR, dn, cn)
    w = [_line(_FUNCTOR, "kind", "strict" if strict else "pseudo")]
    for kw in _FUNCTOR_MAPS:
        w += write(kw, enumerate(getattr(f, _FUNCTOR[kw][2])))
    if not strict:
        for kw in _FUNCTOR_CELLS:
            table, inverse = getattr(f, _FUNCTOR[kw][2]), getattr(f, _FUNCTOR[kw + "inv"][2])
            keys = sorted(table)
            w += _interleave(
                write(kw, [(k, table[k]) for k in keys]),
                write(kw + "inv", [(k, inverse[k]) for k in keys]),
            )
    return w


# keyword -> (shape, kinds, leg, field): the field of the leg it fills; the
# ``delta_inv`` fields are partial, every other field is total
_TRANSFORMATION = {
    "kind": ("horizontal|vertical|double|theta",),
    "comp0": ("x = y", ("object", "vcell"), "v0", "comp"),
    "nat0": ("x = y", ("hcell", "square"), "v0", "nat"),
    "delta0": ("x = y", ("vcell", "square"), "v0", "delta"),
    "delta0inv": ("x = y", ("vcell", "square"), "v0", "delta_inv"),
    "comp1": ("x = y", ("object", "hcell"), "h1", "comp"),
    "nat1": ("x = y", ("vcell", "square"), "h1", "nat"),
    "delta1": ("x = y", ("hcell", "square"), "h1", "delta"),
    "delta1inv": ("x = y", ("hcell", "square"), "h1", "delta_inv"),
    "t": ("x = y", ("hcell", "square"), "double", "t"),
    "r": ("x = y", ("vcell", "square"), "double", "r"),
    "theta": ("x = y", ("object", "square"), "theta", "theta"),
}


def _parse_transformation(lines, doc, name, sig, header_line):
    (from_name, from_col), (to_name, to_col) = sig
    f_decl = doc.get(from_name, "functor", header_line, from_col)
    g_decl = doc.get(to_name, "functor", header_line, to_col)
    F, G = f_decl.obj, g_decl.obj
    dom_decl = doc.get(f_decl.meta["dom"], None, header_line)
    cod_decl = doc.get(f_decl.meta["cod"], None, header_line)
    kind = None
    entry = _entry_reader(_TRANSFORMATION, dom_decl.names, cod_decl.names)
    slots = {kw: {} for kw in _TRANSFORMATION}
    for kw, args, src in _block(
        lines, header_line, _TRANSFORMATION, "unknown keyword {!r} in transformation", once=("kind",)
    ):
        if kw == "kind":
            kind = args[0]
            continue
        key, value = entry(kw, args, src)
        slots[kw][key] = value
    _expect(kind is not None, "transformation block needs a kind line", header_line)

    def fields(leg):
        out = []
        for kw, (_, (what, _), kw_leg, attr) in list(_TRANSFORMATION.items())[1:]:
            if kw_leg != leg:
                continue
            if attr == "delta_inv":
                out.append(dict(slots[kw]))
            else:
                count = _count(F.dom, what)
                out.append(tuple(_total(slots[kw], range(count), f"missing {kw} entry for {what} {{}}", header_line)))
        return out

    try:
        v0 = VerticalPNT(F, G, *fields("v0")) if kind != "horizontal" else None
        h1 = HorizontalPNT(F, G, *fields("h1")) if kind != "vertical" else None
        if kind == "double":
            obj = DoublePNT(v0, h1, *fields("double"))
        elif kind == "theta":
            obj = ThetaPNT(v0, h1, *fields("theta"))
        else:
            obj = v0 or h1
    except StructureError as e:
        raise ParseError(str(e), header_line) from None
    meta = {"kind": kind, "from": from_name, "to": to_name, "dom": f_decl.meta["dom"], "cod": f_decl.meta["cod"]}
    return Declaration("transformation", name, obj, meta=meta)


def _write_transformation(doc, decl):
    obj, kind = decl.obj, decl.meta["kind"]
    dn, cn = _names(doc, decl.meta["dom"]), _names(doc, decl.meta["cod"])
    legs = {"vertical": {"v0": obj}, "horizontal": {"h1": obj}}.get(kind) or {"v0": obj.v0, "h1": obj.h1, kind: obj}
    write = _writer(_TRANSFORMATION, dn, cn)
    w = [_line(_TRANSFORMATION, "kind", kind)]
    for kw, (_, _, leg, attr) in list(_TRANSFORMATION.items())[1:]:
        if leg in legs:
            cells = getattr(legs[leg], attr)
            items = sorted(cells.items()) if isinstance(cells, dict) else enumerate(cells)
            w += write(kw, items)
    return w


_CONNECTION = {"pair": ("u = ustar eps eta", ("vcell", "hcell", "square", "square"))}


def _parse_connection(lines, doc, name, sig, header_line):
    ((on, on_col),) = sig
    cat_decl = doc.get(on, "category", header_line, on_col)
    entry = _entry_reader(_CONNECTION, cat_decl.names, cat_decl.names)
    pairs = []
    for kw, args, src in _block(lines, header_line, _CONNECTION, "expected: pair u = ustar eps eta"):
        u, (f, eps, eta) = entry(kw, args, src, "unresolved cell in pair")
        pairs.append(CompanionPair(u, f, eps, eta))
    return Declaration("connection", name, _build(header_line, Connection, cat_decl.obj, pairs), meta={"on": on})


def _write_connection(doc, decl):
    nm = _names(doc, decl.meta["on"])
    return _writer(_CONNECTION, nm)("pair", [(u, (p.hcell, p.eps, p.eta)) for u, p in decl.obj.items()])


_MODIFICATION = {"a0": ("A = s", ("object", "square")), "a1": ("A = s", ("object", "square"))}


def _parse_modification(lines, doc, name, sig, header_line):
    (from_name, from_col), (to_name, to_col) = sig
    a_decl = doc.get(from_name, "transformation", header_line, from_col)
    b_decl = doc.get(to_name, "transformation", header_line, to_col)
    _expect(
        a_decl.meta["kind"] == "double" and b_decl.meta["kind"] == "double",
        "modifications relate coupled (kind double) transformations",
        header_line,
    )
    dom_decl = doc.get(a_decl.meta["dom"], None, header_line)
    cod_decl = doc.get(a_decl.meta["cod"], None, header_line)
    entry = _entry_reader(_MODIFICATION, dom_decl.names, cod_decl.names)
    comps = {kw: {} for kw in _MODIFICATION}
    for kw, args, src in _block(lines, header_line, _MODIFICATION, "expected: a0 A = s"):
        key, value = entry(kw, args, src, "unresolved cell in modification")
        comps[kw][key] = value
    objects = range(a_decl.obj.F.dom.n_objects)
    a0, a1 = (_total(comps[kw], objects, f"missing {kw} entry for object {{}}", header_line) for kw in _MODIFICATION)
    obj = _build(header_line, DoubleModification, a_decl.obj, b_decl.obj, a0, a1)
    return Declaration("modification", name, obj, meta={"from": from_name, "to": to_name})


def _write_modification(doc, decl):
    from_decl = doc.decls[decl.meta["from"]]
    dn, cn = _names(doc, from_decl.meta["dom"]), _names(doc, from_decl.meta["cod"])
    m = decl.obj
    write = _writer(_MODIFICATION, dn, cn)
    return write("a0", enumerate(m.a0)) + write("a1", enumerate(m.a1))


# keyword -> (shape, kinds, MonoidInDbl field); every table is total on the
# product of its two key kinds
_MONOID = {
    "unit": ("I", ("object",)),
    "obmul": ("x y = z", ("object", "object", "object"), "mul_ob"),
    "hleft": ("x y = z", ("hcell", "object", "hcell"), "mul_h_left"),
    "hright": ("x y = z", ("object", "hcell", "hcell"), "mul_h_right"),
    "vleft": ("x y = z", ("vcell", "object", "vcell"), "mul_v_left"),
    "vright": ("x y = z", ("object", "vcell", "vcell"), "mul_v_right"),
    "sqleft": ("x y = z", ("square", "object", "square"), "mul_sq_left"),
    "sqright": ("x y = z", ("object", "square", "square"), "mul_sq_right"),
    "fliph": ("x y = z", ("hcell", "hcell", "square"), "flip_hh"),
    "fliphinv": ("x y = z", ("hcell", "hcell", "square"), "flip_hh_inv"),
    "flipv": ("x y = z", ("vcell", "vcell", "square"), "flip_vv"),
    "flipvinv": ("x y = z", ("vcell", "vcell", "square"), "flip_vv_inv"),
    "mixhv": ("x y = z", ("hcell", "vcell", "square"), "mixed_hv"),
    "mixvh": ("x y = z", ("vcell", "hcell", "square"), "mixed_vh"),
}


def _parse_monoid(lines, doc, name, sig, header_line):
    ((on, on_col),) = sig
    cat_decl = doc.get(on, "category", header_line, on_col)
    d, nm = cat_decl.obj, cat_decl.names
    unit = None
    entry = _entry_reader(_MONOID, nm, nm)
    tables = {kw: {} for kw in list(_MONOID)[1:]}
    for kw, args, src in _block(lines, header_line, _MONOID, "unknown keyword {!r} in monoid", once=("unit",)):
        if kw == "unit":
            (unit,) = _resolve(_lookups(_MONOID, kw, nm), args, src)
            continue
        key, value = entry(kw, args, src, "unresolved cell in monoid entry")
        tables[kw][key] = value
    _expect(unit is not None, "monoid block needs a unit line", header_line)
    for kw, table in tables.items():
        k1, k2, _ = _MONOID[kw][1]
        keys = product(range(_count(d, k1)), range(_count(d, k2)))
        _total(table, keys, f"missing {kw} entry for {k1} {{}} {k2} {{}}", header_line)
    obj = MonoidInDbl(d, unit, **{_MONOID[kw][2]: table for kw, table in tables.items()})
    return Declaration("monoid", name, obj, meta={"on": on})


def _write_monoid(doc, decl):
    mo, nm = decl.obj, _names(doc, decl.meta["on"])
    write = _writer(_MONOID, nm)
    w = [_line(_MONOID, "unit", nm["object"][mo.unit_ob])]
    for kw, (_, _, attr) in list(_MONOID.items())[1:]:
        w += write(kw, sorted(getattr(mo, attr).items()))
    return w


# ---------------------------------------------------------------------------
# reference blocks: tensor, internal; a name's column is found as read, for Document.get

_TENSOR = {"left": ("NAME",), "right": ("NAME",), "cap": ("N",)}


def _parse_tensor(lines, doc, name, sig, header_line):
    refs, cap = {}, 4
    for kw, (tok,), src in _block(lines, header_line, _TENSOR, "unknown keyword {!r} in tensor", _TENSOR):
        if kw == "cap":
            cap = int(tok)
        else:
            doc.get(tok, "twocategory", src[0], _column(src, 1))
            refs[kw] = tok
    _expect(len(refs) == 2, "tensor block needs left and right", header_line)
    return Declaration("tensor", name, TensorDecl(refs["left"], refs["right"], cap))


def _write_tensor(doc, decl):
    t = decl.obj
    return [_line(_TENSOR, "left", t.left), _line(_TENSOR, "right", t.right), _line(_TENSOR, "cap", str(t.cap))]


_INTERNAL = {slot: ("= NAME",) for slot in ("d0", "d1", "s", "t", "u", "p", "p1", "p2", "m", "assoc", "lunit", "runit")}
_INTERNAL_REQUIRED = list(_INTERNAL)[:9]


def _parse_internal(lines, doc, name, sig, header_line):
    refs = {}
    for kw, (tok,), src in _block(lines, header_line, _INTERNAL, "expected: <slot> = NAME", _INTERNAL):
        doc.get(tok, None, src[0], _column(src, 2))
        refs[kw] = tok
    for slot in _INTERNAL_REQUIRED:
        _expect(slot in refs, f"internal block is missing slot {slot!r}", header_line)
    return Declaration("internal", name, InternalDecl(refs))


def _write_internal(doc, decl):
    return [_line(_INTERNAL, slot, ref) for slot, ref in decl.obj.refs.items()]


# ---------------------------------------------------------------------------
# entry points

# kind -> (parser, writer, header signature, meta keys it names).  The
# signature starts with the block name; None: the header is not checked.
_BLOCKS = {
    "fincategory": (_parse_fincategory, _write_fincategory, "", ()),
    "category": (_parse_category, _write_category, "", ()),
    "twocategory": (_parse_twocategory, _write_twocategory, "", ()),
    "bicategory": (functools.partial(_parse_twocategory, kind="bicategory"), _write_twocategory, "", ()),
    "tensor": (_parse_tensor, _write_tensor, None, ()),
    "internal": (_parse_internal, _write_internal, None, ()),
    "functor": (_parse_functor, _write_functor, "F : C -> D", ("dom", "cod")),
    "transformation": (_parse_transformation, _write_transformation, "a : F => G", ("from", "to")),
    "connection": (_parse_connection, _write_connection, "k on D", ("on",)),
    "modification": (_parse_modification, _write_modification, "m : a => b", ("from", "to")),
    "monoid": (_parse_monoid, _write_monoid, "M on D", ("on",)),
}


def parse(text: str) -> Document:
    doc = Document()
    lines = _token_lines(text)
    for src in lines:
        # a header's columns are found as it is read: they feed Document.get
        line, words = src[:2]
        toks = [(word, _column(src, i)) for i, word in enumerate(words)]
        head, col = toks[0]
        if head not in _BLOCKS:
            raise ParseError(f"unknown block kind {head!r}", line, col)
        _expect(len(toks) >= 3 and toks[-1][0] == "{", "block header must end with '{'", line, col)
        parser, _, signature, _ = _BLOCKS[head]
        sig = toks[2:-1]
        if signature == "":
            _expect(not sig, f"{head} header takes no signature", line, col)
        elif signature:
            message = f"expected: {head} {signature} {{"
            shape = signature.split(" ", 1)[1]
            # a missing ':' is reported at the keyword, any other misfit at
            # the start of the line
            if shape.startswith(":"):
                _expect(sig and sig[0][0] == ":", message, line, col)
            _expect(_fits(words[2:-1], shape) is not None, message, line)
            sig = [sig[i] for i in _compiled(shape)[3]]
        doc.add(parser(lines, doc, toks[1][0], sig, line), line)
    return doc


def serialize(doc: Document) -> str:
    return "\n".join(_serialize_decl(doc, doc.decls[name]) for name in doc.order)


def _serialize_decl(doc: Document, decl: Declaration) -> str:
    if decl.kind not in _BLOCKS:
        raise StructureError(f"cannot serialize declaration kind {decl.kind}")
    _, writer, signature, meta_keys = _BLOCKS[decl.kind]
    header = [decl.kind, decl.name]
    if signature:
        header.append(_render(signature.split(" ", 1)[1], [decl.meta[k] for k in meta_keys]))
    return "\n".join([" ".join(header + ["{"]), *writer(doc, decl), "}", ""])
