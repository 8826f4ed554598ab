"""The parser's tokenizer and its implied table entries, against plain
oracles: the ``\\S+`` regex for tokens and for the columns of errors, and
the lines of a grown session document for the order of every composition
table."""

import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit import dsl
from dblkit.cli import main
from dblkit.dsl import parse, serialize

TOKEN = re.compile(r"\S+")
# tab, vertical tab, form feed, no-break space and em space split tokens;
# the vertical tab and the form feed also end a line
SPACES = " \t\x0b\x0c\xa0\u2003"


def regex_token_lines(text):
    out = []
    for line, raw in enumerate(text.splitlines(), 1):
        toks = [(m.group(0), m.start() + 1) for m in TOKEN.finditer(raw.split("#", 1)[0])]
        if toks:
            out.append((line, toks))
    return out


def test_tokens_match_the_regex_on_hand_picked_lines():
    text = "\n".join([
        "",
        "   ",
        "# a comment",
        "  hcomp f g = h  # trailing comment",
        "\tmor\tf : X\xa0-> Y\u2003",
        "a a = a",
        "aa a  a aaa a",
        "x\x0by\x0cz",
        "  comp #f g = h",
        "#",
        "}",
    ])
    expected = regex_token_lines(text)
    assert tokens_with_columns(text) == expected
    assert (6, [("a", 1), ("a", 3), ("=", 5), ("a", 7)]) in expected


def tokens_with_columns(text):
    """The tokenizer's lines as the regex oracle gives them: each line's
    tokens, and the column function's column for every token index."""
    out = []
    for src in dsl._token_lines(text):
        line, words, _ = src
        out.append((line, [(word, dsl._column(src, i)) for i, word in enumerate(words)]))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from(["a", "aa", "=", "->", "}", "{", "#", "a#b", "\n"]), st.text(SPACES, min_size=1, max_size=3)),
    max_size=40,
))
def test_tokens_match_the_regex(pieces):
    text = "".join(pieces)
    assert tokens_with_columns(text) == regex_token_lines(text)


def test_fill_implied_keeps_explicit_entries_first():
    table = {(5, 5): 1, (0, 1): 2}
    dsl._fill_implied(table, [((0, 1), 9), ((2, 2), 3)], [((2, 2), 4), ((1, 1), 0)])
    assert list(table.items()) == [((5, 5), 1), ((0, 1), 2), ((2, 2), 3), ((1, 1), 0)]


SESSION = """
fincategory Walk {
  objects x y
  mor f : x -> y
}

fincategory Z3 {
  objects o
  mor g1 : o -> o
  mor g2 : o -> o
  comp g1 g1 = g2
  comp g1 g2 = id_o
  comp g2 g1 = id_o
  comp g2 g2 = g1
}
"""


def _block(lines, name):
    start = lines.index(f"category {name} {{")
    return lines[start + 1:lines.index("}", start)]


def test_grown_session_document_round_trips_with_explicit_entries_first(tmp_path):
    # the session of the documents benchmark: P is the product of the
    # quintets of Z3 and of the walking arrow, 162 squares and 2 x 2,430
    # implied square composites
    path = tmp_path / "session.dbl"
    path.write_text(SESSION)
    for recipe, args, name in (
        ("quintet", ["Z3"], "Q3"),
        ("quintet", ["Walk"], "QW"),
        ("product", ["Q3", "QW"], "P"),
        ("transpose", ["QW"], "QWT"),
    ):
        assert main(["construct", str(path), recipe, *args, "--as", name, "-o", str(path)]) == 0
    text = path.read_text()
    doc = parse(text)
    assert serialize(doc) == text
    lines = text.splitlines()
    for name in ("Q3", "QW", "P", "QWT"):
        d, index = doc.decls[name].obj, doc.decls[name].names
        transposed = dsl._transposed(d.squares)
        for kw, kind, table, rule in (
            ("hcomp", "hcell", d.hcomp1, dsl._unit_entries(d.hid, d.hcells)),
            ("vcomp", "vcell", d.vcomp1, dsl._unit_entries(d.vid, d.vcells)),
            ("hsq", "square", d.hcomp2, dsl._unique_composites(d.squares, d.hcomp1)),
            ("vsq", "square", d.vcomp2, dsl._unique_composites(transposed, d.vcomp1)),
        ):
            cells = index[kind]
            explicit = {}
            for words in (line.split() for line in _block(lines, name)):
                if words[0] == kw:
                    explicit[cells[words[1]], cells[words[2]]] = cells[words[4]]
            expected = dict(explicit)
            for key, z in rule:
                expected.setdefault(key, z)
            assert list(table.items()) == list(expected.items()), (name, kw)
    assert len(doc.decls["P"].obj.squares) == 162
    assert len(dsl._unique_composites(doc.decls["P"].obj.squares, doc.decls["P"].obj.hcomp1)) == 2430


# body-line errors, each at the regex oracle's column of its offending
# token: (text, line, token index, message); the bad lines hold tabs, a
# no-break space, repeated tokens and trailing comments
FIN = "fincategory C {{\n  objects X Y\n  mor f : X -> Y\n{}\n}}\n"
LOOP = "fincategory C {{\n  objects X\n  mor f : X -> X\n  comp f f = f\n{}\n}}\n"
FUNCTOR = "category D {{\n  objects A\n}}\nfunctor F : D -> D {{\n  kind strict\n  ob A = A\n{}\n}}\n"
POINT = "category D {{\n  objects A\n}}\ntwocategory T {{\n  objects A\n}}\n{}"
BODY_ERRORS = {
    "unknown keyword": (FIN.format("\tfoo\xa0f f = f  # comp f f = f"), 4, 0, "unknown keyword 'foo' in fincategory"),
    "shape misfit": (FIN.format(" \t comp f f f = f # f"), 4, 0, "expected: comp f g = h"),
    "second single-valued line": (FUNCTOR.format("\tkind\xa0pseudo # kind"), 7, 0, "duplicate kind line"),
    "unknown value before key": (POINT.format("category E {\n  objects B\n  hcomp\tg g = g # g\n}\n"), 9, 4, "unknown hcell 'g'"),
    "unknown key": (FIN.format("  comp\tg f = f # g"), 4, 1, "unknown mor 'g'"),
    "unknown mapping key": (FUNCTOR.format("  hcell\xa0h = h # h"), 7, 1, "unknown hcell 'h'"),
    "unknown mapping value": (FUNCTOR.format("  hcell 1_A = h\xa0# 1_A = h"), 7, 3, "unknown hcell 'h'"),
    "unknown unit": (POINT.format("monoid M on D {\n\tunit\xa0B # A\n}\n"), 8, 1, "unknown object 'B'"),
    "unresolved structure cell": (FUNCTOR.format("  comph\t1_A 1_A = s # comph"), 7, 0, "unresolved cell in structure entry"),
    "duplicate table key": (LOOP.format("  comp\tf f = id_X # f f"), 5, 1, "duplicate comp entry for f f"),
    "duplicate mapping key": (FUNCTOR.format("\xa0ob A = A # ob"), 7, 1, "duplicate ob entry for A"),
    "duplicate cell name": (FIN.format("\tmor\xa0f : Y -> X # f"), 4, 1, "duplicate mor name 'f'"),
    "duplicate object name": (FIN.format("  objects\tZ Z # Z"), 4, 2, "duplicate object name 'Z'"),
    "not composable": (FIN.format("  comp f\xa0f = f  # f f"), 4, 1, "f and f not composable"),
    "tensor unresolved reference": (POINT.format("tensor AB {\n  left T\n  right\tZz # T\n}\n"), 9, 1, "unresolved reference 'Zz'"),
    "tensor wrong kind": (POINT.format("tensor AB {\n  left\xa0D # T\n}\n"), 8, 1, "'D' is a category, expected twocategory"),
    "internal unresolved reference": (POINT.format("internal I {\n  d0 =\xa0Zz # d0 = D\n}\n"), 8, 2, "unresolved reference 'Zz'"),
}


def regex_column(text, line, index):
    """The column of the ``index``-th token of ``line`` by the regex oracle."""
    return dict(regex_token_lines(text))[line][index][1]


@pytest.mark.parametrize("case", BODY_ERRORS.values(), ids=BODY_ERRORS.keys())
def test_body_line_errors_are_at_the_offending_token(case):
    text, line, index, message = case
    with pytest.raises(dsl.ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, regex_column(text, line, index))
    assert str(err.value).endswith(message)
