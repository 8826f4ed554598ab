"""The parser's tokenizer and its implied table entries, against plain
oracles: the ``\\S+`` regex for tokens and for the columns of errors, and
the lines of a grown session document for the order of every composition
table."""

import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit import dsl, kernel
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


def _grown(tmp_path):
    """The session of the documents benchmark, grown in a file: P is the
    product of the quintets of Z3 and of the walking arrow, 162 squares and
    2 x 2,430 implied square composites."""
    path = tmp_path / "session.dbl"
    path.write_text(SESSION)
    for recipe, args, name in (
        ("quintet", ["Z3"], "Q3"),
        ("quintet", ["Walk"], "QW"),
        ("product", ["Q3", "QW"], "P"),
        ("transpose", ["QW"], "QWT"),
    ):
        assert main(["construct", str(path), recipe, *args, "--as", name, "-o", str(path)]) == 0
    return path


# the walking arrow's quintet beside one more square on the identity of A,
# of order two: the square composites among s and the identity square of A
# share their boundary, so they are written out, and the others are implied
MIXED = """category M {
  objects A B
  vcell u : A -> B
  square s : 1_A 1_A | 1^A 1^A
  hsq s s = I_1_A
  hsq s I_1_A = s
  hsq I_1_A s = s
  hsq I_1_A I_1_A = I_1_A
  vsq s s = I_1_A
  vsq s I_1_A = s
  vsq I_1_A s = s
  vsq I_1_A I_1_A = I_1_A
}
"""


def _assert_tables_in_line_order(text, names):
    """Each composition table of the categories ``names`` of ``text``, as
    parsed: its explicit lines in order, then its implied entries."""
    doc = parse(text)
    lines = text.splitlines()
    for name in names:
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
    return doc


def test_grown_session_document_round_trips_with_explicit_entries_first(tmp_path):
    text = _grown(tmp_path).read_text()
    doc = _assert_tables_in_line_order(text, ("Q3", "QW", "P", "QWT"))
    assert serialize(doc) == text
    assert len(doc.decls["P"].obj.squares) == 162
    assert len(dsl._unique_composites(doc.decls["P"].obj.squares, doc.decls["P"].obj.hcomp1)) == 2430


def test_explicit_square_entries_come_before_the_implied_ones():
    doc = _assert_tables_in_line_order(MIXED, ("M",))
    d = doc.decls["M"].obj
    assert (len(d.hcomp2), len(d.vcomp2)) == (6, 8)
    assert serialize(parse(serialize(doc))) == serialize(doc)


# A parsed category builds its square tables at their first read: a command
# builds those of the categories it reads, and a round trip none.


@pytest.fixture
def parsed_docs(monkeypatch):
    """The documents ``dsl.parse`` returns while the test runs, in order."""
    docs, parse = [], dsl.parse

    def kept(text):
        docs.append(parse(text))
        return docs[-1]

    monkeypatch.setattr(dsl, "parse", kept)
    return docs


def _built(doc, builds):
    """The names in ``doc`` of the categories in ``builds``, in order."""
    names = {id(decl.obj): name for name, decl in doc.decls.items()}
    return [names[id(d)] for d in builds]


def test_a_check_builds_only_its_targets_square_tables(tmp_path, capsys, square_table_builds, parsed_docs):
    path = _grown(tmp_path)
    for target, built in (("Walk", []), ("Z3", []), ("Q3", ["Q3"]), ("QW", ["QW"]), ("QWT", ["QWT"]), ("P", ["P"])):
        parsed_docs.clear()
        square_table_builds.clear()
        assert main(["check", str(path), target, "--format", "tree"]) == 0
        (doc,) = parsed_docs
        assert _built(doc, square_table_builds) == _built(doc, square_table_builds.parsed) == built, target
    capsys.readouterr()


def test_a_round_trip_builds_no_square_table(tmp_path, capsys, square_table_builds):
    text = _grown(tmp_path).read_text()
    square_table_builds.clear()
    assert serialize(parse(text)) == text
    assert square_table_builds == []
    capsys.readouterr()


def test_a_product_builds_only_its_arguments_square_tables(tmp_path, capsys, square_table_builds, parsed_docs):
    path = _grown(tmp_path)
    parsed_docs.clear()
    square_table_builds.clear()
    out = tmp_path / "out.dbl"
    assert main(["construct", str(path), "product", "Q3", "QW", "--as", "P2", "-o", str(out)]) == 0
    (doc,) = parsed_docs
    # the new product is a pullback, built when it is written
    assert _built(doc, square_table_builds.parsed) == ["Q3", "QW"]
    assert _built(doc, square_table_builds) == ["Q3", "QW", "P2"]
    assert out.read_text().startswith(path.read_text())
    capsys.readouterr()


def test_a_category_edited_after_the_parse_keeps_its_tables_and_is_written_as_if_built(tmp_path):
    # a parsed category's square tables are those of its lines, however the
    # category is edited before their first read; the serializer writes an
    # edited category as it writes one whose tables were read first
    text = _grown(tmp_path).read_text()
    docs = [parse(text), parse(text)]
    early, late = (doc.decls["Q3"].obj for doc in docs)
    want = list(early.hcomp2.items()), list(early.vcomp2.items())
    for d in (early, late):
        key = next(k for k, z in d.hcomp1.items() if z != d.hid[0])
        d.hcomp1[key] = d.hid[0]
    assert kernel._held(late, "hcomp2") is not None
    assert serialize(docs[1]) == serialize(docs[0]) != text
    assert (list(late.hcomp2.items()), list(late.vcomp2.items())) == want


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
