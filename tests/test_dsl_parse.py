"""The parser's tokenizer and its implied table entries, against plain
oracles: the ``\\S+`` regex for tokens, and the lines of a grown session
document for the order of every composition table."""

import re

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
    assert list(dsl._token_lines(text)) == expected
    assert (6, [("a", 1), ("a", 3), ("=", 5), ("a", 7)]) in expected


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from(["a", "aa", "=", "->", "}", "{", "#", "a#b", "\n"]), st.text(SPACES, min_size=1, max_size=3)),
    max_size=40,
))
def test_tokens_match_the_regex(pieces):
    text = "".join(pieces)
    assert list(dsl._token_lines(text)) == regex_token_lines(text)


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
