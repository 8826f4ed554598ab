"""Tensor-product words: interleavings of cells from two factors.

The 1-cells of the tensor of two structures are alternating words of
letters, each letter a nonidentity cell of one factor tagged with the frozen
coordinate of the other.  Words normalize by dropping identity letters and
merging adjacent same-side letters through the factor's composition table;
the two interleavings of a pair of letters are *distinct* normal forms,
which is the whole point of the construction (the comparison into the
Cartesian product collapses them).

2-cells between words are move sequences: per-letter cell rewrites and
adjacent-pair interchanges.  Move sequences normalize by an oriented
rewriting system (drop identity rewrites, cancel, merge, then push rewrites
before interchanges and sort independent moves by position) whose measure
strictly decreases per step.  Its rules are written once, in
``SquareCalculus._steps``, which yields every one-step rewrite in priority
order: normalization takes the first, and the local confluence test joins
it with the others.  The system is tested for local confluence on bounded
words rather than proven complete, so equality queries may return
``inconclusive``.

A monoid's multiplication induces a two-variable functor on the product of
its carrier with itself, read with either factor acting first.  The second
reading is the first reading of the factor-swapped monoid, so each of its
formulas is written once, in ``derive_interleaved_functor``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .functors import (
    CubicalDoubleFunctor,
    DoublePseudoFunctor,
    StrictDoubleFunctor,
    check_cubical,
    cubical_from_product_functor,
)
from .kernel import HCELL, OBJECT, SQUARE, VCELL, DoubleCategory, StructureError, TwoCategory, _laws, _whole, product
from .report import AxiomReport, Budget, Collector

L, R = "L", "R"


class WordCapExceeded(Exception):
    """A requested composition or enumeration left the configured cap."""


@dataclass(frozen=True, order=True)
class Letter:
    side: str
    cell: int


@dataclass(frozen=True)
class GrayWord:
    start: tuple  # (object of A, object of B)
    letters: tuple


class SideSpec:
    """Composition data of one factor's cells in one direction."""

    def __init__(self, n_objects, cells, comp, ids, names=None):
        self.n_objects = n_objects
        self.cells = cells  # list of (src, tgt)
        self.comp = comp
        self.ids = ids
        self.names = names

    def src(self, c):
        return self.cells[c][0]

    def tgt(self, c):
        return self.cells[c][1]

    def is_id(self, c):
        return c == self.ids[self.src(c)] and self.src(c) == self.tgt(c)

    def then(self, c1, c2):
        try:
            return self.comp[(c1, c2)]
        except KeyError:
            raise StructureError(f"letters {c1} and {c2} are not chainable") from None

    @classmethod
    def hcells_of(cls, d: DoubleCategory):
        return cls(d.n_objects, d.hcells, d.hcomp1, d.hid, d.names.get("hcell"))

    @classmethod
    def vcells_of(cls, d: DoubleCategory):
        return cls(d.n_objects, d.vcells, d.vcomp1, d.vid, d.names.get("vcell"))

    @classmethod
    def onecells_of(cls, t: TwoCategory):
        return cls(t.n_objects, t.onecells, t.comp1, t.id1, t.names.get("onecell"))


class TensorContext:
    """A pair of side specs; all word operations happen relative to one."""

    def __init__(self, spec_a: SideSpec, spec_b: SideSpec):
        self.a = spec_a
        self.b = spec_b

    def spec(self, side):
        return self.a if side == L else self.b

    def coords_after(self, word: GrayWord):
        a, b = word.start
        for let in word.letters:
            if let.side == L:
                a = self.a.tgt(let.cell)
            else:
                b = self.b.tgt(let.cell)
        return (a, b)

    def check_chainable(self, start, letters):
        a, b = start
        if not (0 <= a < self.a.n_objects and 0 <= b < self.b.n_objects):
            raise StructureError(f"start coordinates {start} out of range")
        for let in letters:
            spec = self.spec(let.side)
            here = a if let.side == L else b
            if spec.src(let.cell) != here:
                raise StructureError(
                    f"letter {let} does not chain: expected source {here}, got {spec.src(let.cell)}"
                )
            if let.side == L:
                a = spec.tgt(let.cell)
            else:
                b = spec.tgt(let.cell)

    def normalize(self, start, letters) -> GrayWord:
        """Drop identity letters, merge adjacent same-side letters; the
        merge stack makes the result a fixpoint in one pass."""
        self.check_chainable(start, letters)
        out = []
        for let in letters:
            spec = self.spec(let.side)
            if spec.is_id(let.cell):
                continue
            cell = let.cell
            while out and out[-1].side == let.side:
                cell = spec.then(out.pop().cell, cell)
                if spec.is_id(cell):
                    cell = None
                    break
            if cell is not None:
                out.append(Letter(let.side, cell))
        return GrayWord(tuple(start), tuple(out))

    def compose(self, w1: GrayWord, w2: GrayWord, cap=None) -> GrayWord:
        if self.coords_after(w1) != w2.start:
            raise StructureError("words are not composable")
        out = self.normalize(w1.start, w1.letters + w2.letters)
        if cap is not None and len(out.letters) > cap:
            raise WordCapExceeded(f"composite word length {len(out.letters)} exceeds cap {cap}")
        return out

    def describe(self, word: GrayWord) -> str:
        if not word.letters:
            return f"1@{word.start}"
        bits = []
        for let in word.letters:
            spec = self.spec(let.side)
            name = spec.names[let.cell] if spec.names else str(let.cell)
            bits.append(f"{let.side}:{name}")
        return " ".join(bits)

    def enumerate_words(self, cap, max_words=20000):
        """All normalized words of length <= cap, grouped by nothing (BFS).

        Raises WordCapExceeded when the factor graphs admit more than
        ``max_words`` words under the cap, which happens exactly when a
        nonidentity cycle exists and the cap is generous."""
        words = []
        frontier = [
            GrayWord((a, b), ())
            for a in range(self.a.n_objects)
            for b in range(self.b.n_objects)
        ]
        seen = set(frontier)
        words.extend(frontier)
        for _ in range(cap):
            nxt = []
            for w in frontier:
                a, b = self.coords_after(w)
                for side, spec, here in ((L, self.a, a), (R, self.b, b)):
                    for cell in range(len(spec.cells)):
                        if spec.src(cell) == here and not spec.is_id(cell):
                            w2 = self.normalize(w.start, w.letters + (Letter(side, cell),))
                            if w2 not in seen and len(w2.letters) <= cap:
                                seen.add(w2)
                                nxt.append(w2)
                if len(seen) > max_words:
                    raise WordCapExceeded(f"more than {max_words} words below cap {cap}")
            words.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return sorted(words, key=lambda w: (w.start, len(w.letters), w.letters))

    def is_acyclic(self):
        """No nonidentity cell cycles in either factor's cell graph."""

        def acyclic(spec):
            edges = {}
            for c in range(len(spec.cells)):
                if not spec.is_id(c):
                    edges.setdefault(spec.src(c), set()).add(spec.tgt(c))
            color = {}

            def visit(v):
                color[v] = 1
                for w in edges.get(v, ()):
                    if color.get(w) == 1:
                        return False
                    if color.get(w, 0) == 0 and not visit(w):
                        return False
                color[v] = 2
                return True

            return all(visit(v) for v in range(spec.n_objects) if color.get(v, 0) == 0)

        return acyclic(self.a) and acyclic(self.b)


# ---------------------------------------------------------------------------
# square words over the globular fragment


@dataclass(frozen=True)
class Move:
    kind: str  # "appL" | "appR" | "flip" | "unflip"
    pos: int
    cell: int | None = None  # 2-cell id for app moves


@dataclass(frozen=True)
class SquareWord:
    top: GrayWord
    moves: tuple


class SquareCalculus:
    """Move semantics and oriented normalization for 2-cell words between
    tensor words of two 2-categories (or of double categories whose squares
    in play are vertically globular)."""

    def __init__(self, ctx: TensorContext, two_a: TwoCategory, two_b: TwoCategory):
        self.ctx = ctx
        self.two = {L: two_a, R: two_b}

    def _apply_one(self, word: GrayWord, move: Move) -> GrayWord:
        letters = list(word.letters)
        if move.kind in ("appL", "appR"):
            side = L if move.kind == "appL" else R
            two = self.two[side]
            if not (0 <= move.pos < len(letters)):
                raise StructureError(f"move {move} off the end of the word")
            let = letters[move.pos]
            if let.side != side:
                raise StructureError(f"move {move} targets a letter of the other side")
            if two.s2(move.cell) != let.cell:
                raise StructureError(f"move {move} does not match letter cell {let.cell}")
            letters[move.pos] = Letter(side, two.t2(move.cell))
            return self.ctx.normalize(word.start, letters)
        if move.kind in ("flip", "unflip"):
            i = move.pos
            if not (0 <= i and i + 1 < len(letters)):
                raise StructureError(f"move {move} off the end of the word")
            first, second = letters[i], letters[i + 1]
            want = (L, R) if move.kind == "flip" else (R, L)
            if (first.side, second.side) != want:
                raise StructureError(f"move {move} needs adjacent sides {want}")
            letters[i], letters[i + 1] = second, first
            return self.ctx.normalize(word.start, letters)
        raise StructureError(f"unknown move kind {move.kind}")

    def bottom(self, e: SquareWord) -> GrayWord:
        w = e.top
        for m in e.moves:
            w = self._apply_one(w, m)
        return w

    def validate(self, e: SquareWord) -> None:
        self.bottom(e)

    def _length_stable(self, word: GrayWord, moves) -> bool:
        n = len(word.letters)
        w = word
        for m in moves:
            w = self._apply_one(w, m)
            if len(w.letters) != n:
                return False
        return True

    @staticmethod
    def _is_app(m: Move) -> bool:
        return m.kind in ("appL", "appR")

    def measure(self, e: SquareWord):
        """(length, rewrites-after-interchanges, app inversions, flip
        inversions); every normalization step strictly decreases it."""
        moves = e.moves
        phi = 0
        flips_seen = 0
        for m in moves:
            if self._is_app(m):
                phi += flips_seen
            else:
                flips_seen += 1
        apps = [m.pos for m in moves if self._is_app(m)]
        flips = [m.pos for m in moves if not self._is_app(m)]

        def inversions(xs):
            return sum(1 for i, j in itertools.combinations(range(len(xs)), 2) if xs[i] > xs[j])

        return (len(moves), phi, inversions(apps), inversions(flips))

    def _steps(self, e: SquareWord):
        """Every one-step rewrite of ``e``, in the normalizer's priority
        order: drop an identity rewrite; cancel an interchange pair or merge
        same-position rewrites; put rewrites before interchanges
        (naturality) or sort independent moves by position.  ``rewrite``
        takes the first; the boundary words are built only past the drops."""
        moves = list(e.moves)

        def replaced(i, n, repl):
            return SquareWord(e.top, tuple(moves[:i] + repl + moves[i + n :]))

        for i, m in enumerate(moves):
            if self._is_app(m):
                two = self.two[L if m.kind == "appL" else R]
                if m.cell == two.id2[two.s2(m.cell)]:
                    yield replaced(i, 1, [])
        lengths = [len(e.top.letters)]
        w = e.top
        for m in moves:
            w = self._apply_one(w, m)
            lengths.append(len(w.letters))
        for i in range(len(moves) - 1):
            m1, m2 = moves[i], moves[i + 1]
            if lengths[i] != lengths[i + 1]:
                continue
            if (
                m1.kind in ("flip", "unflip")
                and m2.kind in ("flip", "unflip")
                and m1.kind != m2.kind
                and m1.pos == m2.pos
            ):
                yield replaced(i, 2, [])
            if self._is_app(m1) and m1.kind == m2.kind and m1.pos == m2.pos:
                two = self.two[L if m1.kind == "appL" else R]
                yield replaced(i, 2, [Move(m1.kind, m1.pos, two.vert(m1.cell, m2.cell))])
        for i in range(len(moves) - 1):
            m1, m2 = moves[i], moves[i + 1]
            if not lengths[i] == lengths[i + 1] == lengths[i + 2]:
                continue
            if m1.kind in ("flip", "unflip") and self._is_app(m2):
                if m2.pos == m1.pos + 1:
                    yield replaced(i, 2, [Move(m2.kind, m1.pos, m2.cell), m1])
                elif m2.pos == m1.pos:
                    yield replaced(i, 2, [Move(m2.kind, m1.pos + 1, m2.cell), m1])
                elif abs(m2.pos - m1.pos) >= 2:
                    yield replaced(i, 2, [m2, m1])
            if self._is_app(m1) and self._is_app(m2) and m1.pos > m2.pos:
                yield replaced(i, 2, [m2, m1])
            if (
                m1.kind in ("flip", "unflip")
                and m2.kind in ("flip", "unflip")
                and m1.pos > m2.pos + 1
            ):
                yield replaced(i, 2, [m2, m1])

    def rewrite(self, e: SquareWord, assert_measure: bool = True) -> SquareWord:
        """Normalize; the measure strictly decreases at every step."""
        self.validate(e)
        current = e
        m = self.measure(current)
        while True:
            nxt = next(self._steps(current), None)
            if nxt is None:
                return current
            m2 = self.measure(nxt)
            if assert_measure and not m2 < m:
                raise AssertionError(f"rewriting measure did not decrease: {m} -> {m2}")
            current, m = nxt, m2

    def tame(self, e: SquareWord) -> bool:
        """No adjacent overlapping interchanges and no length changes: the
        fragment where distinct normal forms are known to mean distinct."""
        word = e.top
        if not self._length_stable(word, e.moves):
            return False
        flips = [m for m in e.moves if not self._is_app(m)]
        for m1, m2 in zip(flips, flips[1:]):
            if abs(m1.pos - m2.pos) == 1:
                return False
        return True

    def compare(self, e1: SquareWord, e2: SquareWord) -> str:
        n1 = self.rewrite(e1)
        n2 = self.rewrite(e2)
        if n1.top != n2.top or self.bottom(n1) != self.bottom(n2):
            return "distinct"
        if n1.moves == n2.moves:
            return "equal"
        if self.tame(n1) and self.tame(n2):
            return "distinct"
        return "inconclusive"

    def enumerate_square_words(self, top: GrayWord, max_moves: int):
        """All valid move sequences from a given top word, up to a length."""
        out = [SquareWord(top, ())]
        frontier = [((), top)]
        for _ in range(max_moves):
            nxt = []
            for moves, word in frontier:
                for m in self._moves_from(word):
                    seq = moves + (m,)
                    nxt.append((seq, self._apply_one(word, m)))
                    out.append(SquareWord(top, seq))
            frontier = nxt
        return out

    def _moves_from(self, word: GrayWord):
        ms = []
        for i, let in enumerate(word.letters):
            side = let.side
            two = self.two[side]
            for x in range(len(two.twocells)):
                if two.s2(x) == let.cell and x != two.id2[let.cell]:
                    ms.append(Move("appL" if side == L else "appR", i, x))
        for i in range(len(word.letters) - 1):
            s1, s2 = word.letters[i].side, word.letters[i + 1].side
            if (s1, s2) == (L, R):
                ms.append(Move("flip", i))
            elif (s1, s2) == (R, L):
                ms.append(Move("unflip", i))
        return ms

    def critical_pairs_join(self, top: GrayWord):
        """Empirical local confluence: for every square word of at most 3
        moves and every pair of distinct first rules the normalizer would
        apply, both one-step reducts must normalize to the same fixpoint."""
        failures = []
        for e in self.enumerate_square_words(top, 3):
            base = e
            seen = set()
            while True:
                steps = list(itertools.islice(self._steps(base), len(base.moves)))
                if not steps:
                    break
                step = steps[0]
                norm0 = self.rewrite(step, assert_measure=False)
                for other in steps[1:]:
                    if other.moves == step.moves:
                        continue
                    normo = self.rewrite(other, assert_measure=False)
                    if (norm0.moves, self.bottom(norm0)) != (normo.moves, self.bottom(normo)):
                        failures.append((e, base, step, other))
                if base.moves in seen:
                    break
                seen.add(base.moves)
                base = step
        return failures


# ---------------------------------------------------------------------------
# the tensor skeleton and the identity-embedding check


class GrayTensorSkeleton:
    """Lazy view of the tensor of two double categories at the 0/1-cell
    level: objects are coordinate pairs, 1-cells are normalized words in
    both directions, composition is concatenate-then-normalize under a cap."""

    def __init__(self, a: DoubleCategory, b: DoubleCategory, cap: int = 6):
        self.a = a
        self.b = b
        self.cap = cap
        self.hctx = TensorContext(SideSpec.hcells_of(a), SideSpec.hcells_of(b))
        self.vctx = TensorContext(SideSpec.vcells_of(a), SideSpec.vcells_of(b))
        if cap <= 0 and not (self.hctx.is_acyclic() and self.vctx.is_acyclic()):
            raise StructureError("a positive cap is required unless both skeleta are acyclic")

    def objects(self):
        return [(x, y) for x in range(self.a.n_objects) for y in range(self.b.n_objects)]

    def hwords(self, cap=None):
        return self.hctx.enumerate_words(self.cap if cap is None else cap)

    def vwords(self, cap=None):
        return self.vctx.enumerate_words(self.cap if cap is None else cap)

    def compose_h(self, w1, w2):
        return self.hctx.compose(w1, w2, cap=self.cap)


def two_category_tensor_context(a: TwoCategory, b: TwoCategory) -> TensorContext:
    return TensorContext(SideSpec.onecells_of(a), SideSpec.onecells_of(b))


def check_monoidal_embedding(
    a: TwoCategory, b: TwoCategory, cap: int = 4, budget: Budget | None = None
) -> AxiomReport:
    """The identity comparison between 'tensor, then embed' and
    'embed, then tensor' is cell-for-cell the identity.

    0/1-cells are compared exactly as normal-form word sets with their
    composition tables; 2-cell words of at most two moves, on top words of
    at most three letters, are compared through rewriting normal forms,
    with any inconclusive comparison reported as such."""
    from .kernel import embed_two_category

    col = Collector("monoidal-embedding", budget)
    ea, eb = embed_two_category(a), embed_two_category(b)
    ctx_two = two_category_tensor_context(a, b)
    skel = GrayTensorSkeleton(ea, eb, cap=cap)

    try:
        words_two = ctx_two.enumerate_words(cap)
        words_dbl = skel.hwords()
    except WordCapExceeded:
        col.report.status = "budget-exceeded"
        col.assume(f"word enumeration exceeded the cap {cap}")
        return col.done()

    # embed is the identity on indices, so the words must agree on the nose
    _laws(col, lambda: ("words",), [()], ("hcell-words-agree", lambda: list(words_two), lambda: list(words_dbl)))
    # the embedded factors have identity vcells only: every vertical word
    # normalizes away
    _laws(col, lambda w: (w.start,), [(w,) for w in skel.vwords()],
          ("vcell-words-trivial", lambda w: w.letters, lambda w: ()))
    # composition tables agree under the identity map; the composites are
    # formed only as far as the budget reaches, and one that leaves the cap
    # ends the check there
    pairs = [(w1, w2) for w1 in words_two for w2 in words_two if ctx_two.coords_after(w1) == w2.start]
    rows = []
    try:
        for w1, w2 in pairs[: col.room()]:
            rows.append((w1, w2, ctx_two.compose(w1, w2, cap=cap), skel.compose_h(w1, w2)))
        left_cap = False
    except WordCapExceeded:
        left_cap = True
    _laws(col, lambda w1, w2, *_: (ctx_two.describe(w1), ctx_two.describe(w2)),
          rows if left_cap else rows + [(*pair, None, None) for pair in pairs[len(rows):]],
          ("hcomp-table-agrees", lambda w1, w2, lhs, rhs: lhs, lambda w1, w2, lhs, rhs: rhs))
    if left_cap:
        col.report.status = "budget-exceeded"
        col.assume("a composite left the cap; raise it to finish the table check")
        return col.done()

    # 2-cell words: same generators on both sides, so the same calculus;
    # verify the normal forms coincide move-for-move and nothing comes back
    # inconclusive on this set
    calc = SquareCalculus(ctx_two, a, b)
    for top in words_two:
        if len(top.letters) > 3:
            continue
        for e in calc.enumerate_square_words(top, 2):
            if not col.take(1):
                return col.done()
            verdict = calc.compare(e, calc.rewrite(e))
            if verdict == "inconclusive":
                col.fail("square-word-inconclusive", (ctx_two.describe(top), tuple(e.moves)))
            elif verdict != "equal":
                col.fail("square-word-normalization", (ctx_two.describe(top), tuple(e.moves)))
    return col.done()


def cartesian_collapse(ctx: TensorContext, word: GrayWord):
    """The image of a word in the Cartesian product: each factor's letters
    composed in order, from the identity at the word's start coordinate."""
    return tuple(functools.reduce(ctx.spec(side).then, (let.cell for let in word.letters if let.side == side),
                                  ctx.spec(side).ids[x]) for side, x in zip((L, R), word.start))


def compare_interleavings(a: TwoCategory, b: TwoCategory, f: int, g: int):
    """The two interleavings of 1-cells f (left factor) and g (right).

    Returns (tensor_verdict, cartesian_verdict): whether the two normal
    forms are equal in the tensor, and whether their Cartesian collapses
    are; the first are distinct and the second equal when neither cell is
    an identity."""
    ctx = two_category_tensor_context(a, b)
    start = (a.s1(f), b.s1(g))
    w1 = ctx.normalize(start, (Letter(L, f), Letter(R, g)))
    w2 = ctx.normalize(start, (Letter(R, g), Letter(L, f)))
    tensor = "equal" if w1 == w2 else "distinct"
    cartesian = "equal" if cartesian_collapse(ctx, w1) == cartesian_collapse(ctx, w2) else "distinct"
    return tensor, cartesian


# ---------------------------------------------------------------------------
# monoid structures on one double category


@dataclass
class MonoidInDbl:
    """A strictly associative, strictly unital multiplication given by its
    one-sided generator images and the four mixed-cell image families.

    ``mul_h_left[(f, B)]`` is the image of (f at frozen coordinate B),
    ``mul_h_right[(A, g)]`` of (g at frozen A), and likewise vertically and
    on squares.  ``flip_hh[(F, f)]`` interchanges the order of (F at src(f))
    then (f at tgt(F)) into (f at src(F)) then (F at tgt(f)); stored with
    its inverse.  ``mixed_hv``/``mixed_vh`` are the mixed-direction images."""

    carrier: DoubleCategory
    unit_ob: int
    mul_ob: dict
    mul_h_left: dict
    mul_h_right: dict
    mul_v_left: dict
    mul_v_right: dict
    mul_sq_left: dict
    mul_sq_right: dict
    flip_hh: dict
    flip_hh_inv: dict
    flip_vv: dict
    flip_vv_inv: dict
    mixed_hv: dict
    mixed_vh: dict


def check_monoid(m: MonoidInDbl, budget: Budget | None = None) -> AxiomReport:
    """The unit and associativity laws of ``m``, then its multiplication as
    the cubical functor carrier x carrier -> carrier it is (``_cubical``):
    by the universal property of the Gray-type product, a multiplication
    M (x) M -> M is exactly a cubical two-variable functor."""
    col = Collector("tensor-monoid", budget)
    d, ob, unit, obs = m.carrier, m.mul_ob, m.unit_ob, range(m.carrier.n_objects)
    _whole(col, (OBJECT,), obs,
           ("unit-ob", lambda r: [ob[(a, unit)] for a in r], list),
           ("unit-ob", lambda r: [ob[(unit, a)] for a in r], list))
    _laws(col, (OBJECT,) * 3, [(x, y, z) for x, y in sorted(ob) for z in obs], (
        "assoc-ob", lambda x, y, z: ob[(ob[(x, y)], z)], lambda x, y, z: ob[(x, ob[(y, z)])],
    ))
    for x, kind, cells, left, right in (
        ("h", HCELL, d.hcells, m.mul_h_left, m.mul_h_right),
        ("v", VCELL, d.vcells, m.mul_v_left, m.mul_v_right),
        ("sq", SQUARE, d.squares, m.mul_sq_left, m.mul_sq_right),
    ):
        _whole(col, (kind,), range(len(cells)),
               (f"{x}-unit", lambda r: [left[(c, unit)] for c in r], list),
               (f"{x}-unit", lambda r: [right[(unit, c)] for c in r], list))
        if x != "sq":
            _laws(col, (kind, OBJECT), [(c, b) for c in range(len(cells)) for b in obs], (
                f"{x}-assoc", lambda c, b: left[(left[(c, b)], unit)], lambda c, b: left[(c, ob[(b, unit)])],
            ))
    col.report.absorb(check_cubical(_cubical(m), budget=col.budget))
    return col.done()


def _cubical(m: MonoidInDbl) -> CubicalDoubleFunctor:
    """The multiplication of ``m`` as a cubical functor: row a is the
    product with a on the left, column b with b on the right, and the flips
    and mixed images are its four mixed families."""
    d = m.carrier
    sizes = (d.n_objects, len(d.hcells), len(d.vcells), len(d.squares))

    def partial(tables, key, name):
        return StrictDoubleFunctor(d, d, *([t[key(x)] for x in range(n)] for t, n in zip(tables, sizes)), name=name)

    rows = tuple(partial((m.mul_ob, m.mul_h_right, m.mul_v_right, m.mul_sq_right), lambda x: (a, x), f"row{a}")
                 for a in range(d.n_objects))
    cols = tuple(partial((m.mul_ob, m.mul_h_left, m.mul_v_left, m.mul_sq_left), lambda x: (x, b), f"col{b}")
                 for b in range(d.n_objects))
    return CubicalDoubleFunctor(d, d, d, rows, cols, m.flip_hh, m.flip_hh_inv, m.flip_vv, m.flip_vv_inv,
                                m.mixed_hv, m.mixed_vh)


def monoid_from_functor(d: DoubleCategory, mul, unit_ob: int) -> MonoidInDbl:
    """Monoid whose multiplication is a strict functor ``mul`` off the
    Cartesian product square category, read off the cubical functor it
    induces; all interchanger images are identity squares (the strictly
    commuting case), so the two interleavings of a pair must agree."""
    h = cubical_from_product_functor(d, d, mul)
    obs = range(d.n_objects)
    tables = {}
    for x, n in (("h", len(d.hcells)), ("v", len(d.vcells)), ("sq", len(d.squares))):
        tables[f"mul_{x}_left"] = {(c, b): getattr(h.col_functors[b], x)(c) for c in range(n) for b in obs}
        tables[f"mul_{x}_right"] = {(a, c): getattr(h.row_functors[a], x)(c) for a in obs for c in range(n)}
    for flips, what, comp, ends, left, right in (
        (h.hh, "hcells", d.hcomp, d.hcells, tables["mul_h_left"], tables["mul_h_right"]),
        (h.vv, "vcells", d.vcomp, d.vcells, tables["mul_v_left"], tables["mul_v_right"]),
    ):
        for X, x in flips:
            if comp(left[(X, ends[x][0])], right[(ends[X][1], x)]) != comp(right[(ends[X][0], x)], left[(X, ends[x][1])]):
                raise StructureError(f"commuting multiplication expected: interleavings differ at {what} ({X}, {x})")
    mul_ob = {(a, b): h.ob(a, b) for a in obs for b in obs}
    return MonoidInDbl(d, unit_ob, mul_ob, **tables, flip_hh=h.hh, flip_hh_inv=h.hh_inv, flip_vv=h.vv,
                       flip_vv_inv=h.vv_inv, mixed_hv=h.hv, mixed_vh=h.vh)


def _swapped(m: MonoidInDbl) -> MonoidInDbl:
    """The factor-swapped monoid, whose product of (x, y) is the product of
    (y, x) in ``m``: the one-sided image tables trade places, each flip is
    the inverse of its mirror and the two mixed families trade places."""

    def swap(table):
        return {(y, x): c for (x, y), c in table.items()}

    return MonoidInDbl(
        m.carrier, m.unit_ob, swap(m.mul_ob),
        swap(m.mul_h_right), swap(m.mul_h_left), swap(m.mul_v_right), swap(m.mul_v_left),
        swap(m.mul_sq_right), swap(m.mul_sq_left),
        swap(m.flip_hh_inv), swap(m.flip_hh), swap(m.flip_vv_inv), swap(m.flip_vv),
        swap(m.mixed_vh), swap(m.mixed_hv),
    )


def derive_interleaved_functor(m: MonoidInDbl, first_factor_first: bool = True, dom=None):
    """The two-variable functor induced by a monoid multiplication on the
    Cartesian product of the carrier with itself.

    The image of a pair of 1-cells is the composite of the two one-sided
    images, first factor acting first by default; the two readings differ
    exactly by the interchanger image, which is what the composition
    structure cells are made of.  The second-factor-first reading is the
    first reading of the factor-swapped monoid (``_swapped``), its pair
    (x, y) stored at the index of (y, x).  With identity interchangers the
    result is strict."""
    d = m.carrier
    p = product(d, d) if dom is None else dom
    if not first_factor_first:
        m = _swapped(m)

    def at(n, x, y):
        return x * n + y if first_factor_first else y * n + x

    def grid(n):
        # the pairs (x, y) of cells of m, in the order of their index
        pairs = itertools.product(range(n), repeat=2)
        return pairs if first_factor_first else ((y, x) for x, y in pairs)

    ob_map = [m.mul_ob[xy] for xy in grid(d.n_objects)]

    def sq_img(z, w):
        zt, zb, zl, zr = d.squares[z]
        wt, wb, wl, wr = d.squares[w]
        row1 = d.hpaste(m.mul_sq_left[(z, d.hs(wt))], m.mixed_vh[(zr, wt)])
        row2 = d.hpaste(m.mixed_hv[(zb, wl)], m.mul_sq_right[(d.ht(zb), w)])
        return d.vpaste(row1, row2)

    sq_map = [sq_img(z, w) for z, w in grid(len(d.squares))]

    # per direction, the image of a pair (f, g) is (f at src(g)) then (g at
    # tgt(f)); the structure cells for the composite of a composable pair of
    # pair-cells ((f1, g1), (f2, g2)) whisker the flip of the middle letters
    # (f2, g1), by which the image of the composite and the composite of the
    # images differ; the units are identity squares
    maps, families = [], []
    for cells, comp1, compose, ids, ident, paste, left, right, flip, flip_inv in (
        (d.hcells, d.hcomp1, d.hcomp, d.hid, d.sq_vid, d.hrow, m.mul_h_left, m.mul_h_right, m.flip_hh, m.flip_hh_inv),
        (d.vcells, d.vcomp1, d.vcomp, d.vid, d.sq_hid, d.vcol, m.mul_v_left, m.mul_v_right, m.flip_vv_inv, m.flip_vv),
    ):
        n = len(cells)
        maps.append([compose(left[(f, cells[g][0])], right[(cells[f][1], g)]) for f, g in grid(n)])
        fwd, bwd = {}, {}
        for (f1, f2) in comp1:
            for (g1, g2) in comp1:
                key = (at(n, f1, g1), at(n, f2, g2))
                before, after = ident[left[(f1, cells[g1][0])]], ident[right[(cells[f2][1], g2)]]
                fwd[key] = paste(before, flip[(f2, g1)], after)
                bwd[key] = paste(before, flip_inv[(f2, g1)], after)
        unit = {i: ident[ids[o]] for i, o in enumerate(ob_map)}
        families += [fwd, bwd, unit, dict(unit)]
    return DoublePseudoFunctor(p, d, ob_map, *maps, sq_map, *families, name="interleaved-mul")
