import functools
import gc
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblkit import dsl, zoo
from dblkit.cli import _decl_category, main
from dblkit.companion import find_connection
from dblkit.dsl import Declaration, InternalDecl, ParseError, parse, serialize
from dblkit.functors import identity_functor, identity_pseudo, pseudo_from_strict
from dblkit.kernel import StructureError, check_double_category, product, quintet
from dblkit.modif import identity_modification
from dblkit.mutate import sample_mutants
from dblkit.transform import identity_double, identity_horizontal, identity_theta, identity_vertical
from dblkit.weak import check_bicategory

BASE_DOC = """
fincategory Walk {
  objects X Y
  mor f : X -> Y
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


def write_doc(tmp_path, text=BASE_DOC, name="doc.dbl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_document():
    doc = parse("")
    assert doc.order == []
    assert serialize(doc) == ""


def test_parse_serialize_fixpoint(tmp_path):
    docs = [parse(BASE_DOC), parse(_zoo_document())]
    # finite categories declared as zoo builds them: no object names, and
    # identities listed before the morphisms they compose with
    for name, cat in zoo.small_category_catalog():
        doc = dsl.Document()
        doc.add(Declaration("fincategory", name.replace("-", "_"), cat))
        docs.append(doc)
    for doc in docs:
        text = serialize(doc)
        doc2 = parse(text)
        assert serialize(doc2) == text


def test_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse("category X {\n  hcell f missing arrow\n}")
    assert err.value.line == 2


def test_resolution_error_position():
    with pytest.raises(ParseError) as err:
        parse("functor F : Nowhere -> Nowhere {\n}")
    assert err.value.line == 1
    assert "Nowhere" in str(err.value)


def test_forward_reference_rejected():
    text = """
functor F : D -> D {
}
category D {
  objects A
}
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unresolved reference" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("fincategory A {\n  objects X\n}\nfincategory A {\n  objects X\n}\n")


def test_construct_quintet_and_check(tmp_path):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    assert main(["construct", doc_path, "quintet", "Walk", "--as", "WalkSq", "-o", out]) == 0
    assert main(["check", out, "WalkSq"]) == 0
    doc = parse(open(out).read())
    assert check_double_category(doc.decls["WalkSq"].obj).passed


def test_construct_chain(tmp_path):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    assert main(["construct", doc_path, "quintet", "Walk", "--as", "Q", "-o", out]) == 0
    assert main(["construct", out, "embed", "TwoCell", "--as", "E", "-o", out]) == 0
    assert main(["construct", out, "product", "Q", "E", "--as", "P", "-o", out]) == 0
    assert main(["construct", out, "transpose", "Q", "--as", "QT", "-o", out]) == 0
    assert main(["construct", out, "horizontal", "E", "--as", "H", "-o", out]) == 0
    for target in ("Q", "E", "P", "QT", "H"):
        assert main(["check", out, target]) == 0, target


def test_construct_pullback_with_projections(tmp_path):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    assert main(["construct", doc_path, "quintet", "Walk", "--as", "Q", "-o", out]) == 0
    # identity functor on Q, written by hand through serialization
    doc = parse(open(out).read())
    q = doc.decls["Q"]
    from dblkit.functors import identity_functor, pseudo_from_strict

    ident = pseudo_from_strict(identity_functor(q.obj))
    doc.add(Declaration("functor", "IdQ", ident, meta={"strict": True, "dom": "Q", "cod": "Q"}))
    open(out, "w").write(serialize(doc))
    assert main(["check", out, "IdQ"]) == 0
    assert main(["construct", out, "pullback", "IdQ", "IdQ", "--as", "PB", "-o", out]) == 0
    assert main(["check", out, "PB"]) == 0
    assert main(["check", out, "PB_p1"]) == 0


def test_check_bicategory_runs_all_sub_reports(tmp_path):
    doc = dsl.Document()
    doc.add(Declaration("bicategory", "Sign", zoo.sign_bicategory()))
    path = tmp_path / "b.dbl"
    path.write_text(serialize(doc))
    reparsed = parse(path.read_text())
    assert reparsed.decls["Sign"].kind == "bicategory"
    assert main(["check", str(path), "Sign"]) == 0


@pytest.mark.parametrize("field, key, cell", [("lunit_inv", 1, 3), ("assoc_inv", (0, 0, 0), 1)])
def test_serialize_keeps_an_inverse_whose_constraint_is_implied(field, key, cell):
    # the constraint is the implied identity 2-cell, its stored inverse the
    # other 2-cell on the same boundary: a fixpoint of parse . serialize
    # that dropped the inverse would still be a fixpoint, so compare fields
    b = zoo.sign_bicategory()
    getattr(b, field)[key] = cell
    assert not check_bicategory(b).passed
    doc = dsl.Document()
    doc.add(Declaration("bicategory", "Sign", b))
    back = parse(serialize(doc)).decls["Sign"].obj
    for name in ("assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv"):
        assert getattr(back, name) == getattr(b, name), name
    assert check_bicategory(back) == check_bicategory(b)


def _statuses(capsys):
    return [r["status"] for r in json.loads(capsys.readouterr().out)["reports"]]


def test_tensor_check_honours_max_tuples(tmp_path, capsys):
    doc_path = write_doc(tmp_path)
    assert main(["check", doc_path, "AB", "--format", "tree"]) == 0
    assert _statuses(capsys) == ["pass"]
    assert main(["check", doc_path, "AB", "--max-tuples", "1", "--format", "tree"]) == 2
    assert _statuses(capsys) == ["budget-exceeded"]


def test_environment_defaults_are_read_at_each_call(tmp_path, capsys, monkeypatch):
    # one process, several calls: a default set or cleared between calls
    # applies to the next one, and no argument carries over
    doc_path = write_doc(tmp_path)
    check = ["check", doc_path, "AB", "--format", "tree"]
    monkeypatch.setenv("DBLKIT_MAX_TUPLES", "10")
    assert main(check) == 2
    assert _statuses(capsys) == ["budget-exceeded"]
    monkeypatch.delenv("DBLKIT_MAX_TUPLES")
    assert main(check) == 0
    assert _statuses(capsys) == ["pass"]
    monkeypatch.setenv("DBLKIT_MAX_TUPLES", "ten")
    assert main(check) == 0
    assert _statuses(capsys) == ["pass"]
    monkeypatch.setenv("DBLKIT_MAX_TUPLES", "10")
    assert main([*check, "--max-tuples", "5000000"]) == 0
    assert _statuses(capsys) == ["pass"]
    monkeypatch.setenv("DBLKIT_MAX_TUPLES", "5000000")
    assert main([*check, "--max-tuples", "10"]) == 2
    assert _statuses(capsys) == ["budget-exceeded"]
    assert main(["check", doc_path, "Walk", "--axioms", "X"]) == 3
    assert "--axioms does not apply" in capsys.readouterr().err
    assert main(["check", doc_path, "Walk"]) == 0


def test_bicategory_sub_reports_share_one_budget(tmp_path, capsys):
    doc = dsl.Document()
    doc.add(Declaration("bicategory", "Sign", zoo.sign_bicategory()))
    path = tmp_path / "b.dbl"
    path.write_text(serialize(doc))
    # the four sub-reports check 216, 248, 8 and 144 instances: each fits
    # under 248 alone, but not after the first has spent its share
    assert main(["check", str(path), "Sign", "--max-tuples", "248", "--format", "tree"]) == 2
    assert _statuses(capsys)[:2] == ["pass", "budget-exceeded"]
    assert main(["check", str(path), "Sign", "--max-tuples", "616", "--format", "tree"]) == 0
    assert _statuses(capsys) == ["pass"] * 4
    # the sum is exact: one less leaves the last report one instance short
    assert main(["check", str(path), "Sign", "--max-tuples", "615", "--format", "tree"]) == 2
    assert _statuses(capsys) == ["pass"] * 3 + ["budget-exceeded"]


def _meet_doc(tmp_path, monoid=None):
    # the monoid's tables index into its own carrier, so the carrier must be
    # declared from the same object
    from dblkit.cli import _decl_category

    doc = parse("")
    monoid = monoid or zoo.min_monoid_in_dbl()
    doc.add(_decl_category("WalkSq", monoid.carrier))
    doc.add(Declaration("monoid", "Meet", monoid, meta={"on": "WalkSq"}))
    out = str(tmp_path / "meet.dbl")
    open(out, "w").write(serialize(doc))
    return out


def test_monoid_block_roundtrip_and_check(tmp_path):
    out = _meet_doc(tmp_path)
    text = open(out).read()
    assert serialize(parse(text)) == text
    assert main(["check", out, "WalkSq"]) == 0
    assert main(["check", out, "Meet"]) == 0


def test_wrong_boundary_monoid_image_exits_1(tmp_path, capsys):
    # the image of the vcell 0 -> 1 at the frozen object 0 must be the
    # identity on 0; the interleaved readings would compose it
    monoid = zoo.min_monoid_in_dbl()
    monoid.mul_v_right[(0, 2)] = 1
    out = _meet_doc(tmp_path, monoid)
    assert main(["check", out, "Meet", "--format", "tree"]) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["status"] == "fail"
    assert report["violations"][0]["axiom"] == "row[0]: v-boundary"
    assert report["assumptions"][-1] == "interleaved readings not derived: the monoid check did not pass"


def test_wrong_boundary_functor_image_exits_1(tmp_path, capsys):
    from dblkit.cli import _decl_strict_functor
    from dblkit.functors import StrictDoubleFunctor

    d = quintet(zoo.walking_arrow())
    f = identity_functor(d)
    # the identity square on object 0 sent to the one on the arrow
    bad = StrictDoubleFunctor(d, d, f.ob_map, f.h_map, f.v_map, [1, *f.sq_map[1:]])
    doc = parse("")
    doc.add(_decl_category("Q", d))
    doc.add(_decl_strict_functor(doc, "F", bad, "Q", "Q"))
    out = tmp_path / "f.dbl"
    out.write_text(serialize(doc))
    assert main(["check", str(out), "F"]) == 1
    assert "violated: sq-boundary" in capsys.readouterr().out


def test_wrong_boundary_structure_cell_exits_1(tmp_path, capsys):
    from dataclasses import replace

    d = quintet(zoo.walking_arrow())
    f = identity_pseudo(d)
    # the composition cell at the first composable pair sent to a square
    # with another boundary
    key, cell = sorted(f.comp_h.items())[0]
    wrong = next(s for s, bnd in enumerate(d.squares) if bnd != d.squares[cell])
    doc = parse("")
    doc.add(_decl_category("Q", d))
    doc.add(Declaration("functor", "F", replace(f, comp_h={**f.comp_h, key: wrong}),
                        meta={"strict": False, "dom": "Q", "cod": "Q"}))
    out = tmp_path / "f.dbl"
    out.write_text(serialize(doc))
    assert main(["check", str(out), "F"]) == 1
    assert "violated: structure-boundary" in capsys.readouterr().out


def test_structure_cell_at_a_non_composable_pair_is_a_positioned_error(tmp_path, capsys):
    d = quintet(zoo.walking_arrow())
    doc = parse("")
    doc.add(_decl_category("Q", d))
    doc.add(Declaration("functor", "F", identity_pseudo(d), meta={"strict": False, "dom": "Q", "cod": "Q"}))
    text = serialize(doc).replace("  comph id0 id0 =", "  comph f f = [f/f;id0/id1]\n  comph id0 id0 =")
    header = text.splitlines().index("functor F : Q -> Q {") + 1
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == header
    assert str(err.value).endswith("comp_h must be keyed on exactly the composable hcell pairs: stray key (2, 2)")
    assert main(["check", write_doc(tmp_path, text), "F"]) == 3
    capsys.readouterr()


def test_construct_oast_and_monoid_internal(tmp_path):
    out = _meet_doc(tmp_path)
    assert main(["construct", out, "interleave", "Meet", "--as", "Mul", "-o", out]) == 0
    assert main(["check", out, "Mul"]) == 0
    assert main(["construct", out, "monoid-internal", "Meet", "--as", "IM", "-o", out]) == 0
    assert main(["check", out, "IM"]) == 0
    # internal bundle survives a reparse
    text = open(out).read()
    assert serialize(parse(text)) == text


def test_transformation_block_roundtrip(tmp_path):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    assert main(["construct", doc_path, "quintet", "Walk", "--as", "Q", "-o", out]) == 0
    doc = parse(open(out).read())
    q = doc.decls["Q"].obj
    from dblkit.functors import identity_functor, pseudo_from_strict
    from dblkit.transform import identity_double

    F = pseudo_from_strict(identity_functor(q))
    doc.add(Declaration("functor", "IdQ", F, meta={"strict": True, "dom": "Q", "cod": "Q"}))
    dd = identity_double(F)
    doc.add(
        Declaration(
            "transformation",
            "IdT",
            dd,
            meta={"kind": "double", "from": "IdQ", "to": "IdQ", "dom": "Q", "cod": "Q"},
        )
    )
    from dblkit.modif import identity_modification

    doc.add(
        Declaration(
            "modification",
            "IdM",
            identity_modification(dd),
            meta={"from": "IdT", "to": "IdT"},
        )
    )
    from dblkit.companion import find_connection

    doc.add(Declaration("connection", "K", find_connection(q), meta={"on": "Q"}))
    open(out, "w").write(serialize(doc))
    text = open(out).read()
    assert serialize(parse(text)) == text
    assert main(["check", out, "IdT"]) == 0
    assert main(["check", out, "IdM"]) == 0
    assert main(["check", out, "K"]) == 0


def _identity_on(tmp_path, on):
    """A document with the quintet Q of Walk, its square P = Q x Q and the
    identity functor on the category ``on`` declared as ``Id{on}``."""
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    assert main(["construct", doc_path, "quintet", "Walk", "--as", "Q", "-o", out]) == 0
    assert main(["construct", out, "product", "Q", "Q", "--as", "P", "-o", out]) == 0
    doc = parse(open(out).read())
    from dblkit.functors import identity_functor, pseudo_from_strict

    doc.add(
        Declaration(
            "functor",
            f"Id{on}",
            pseudo_from_strict(identity_functor(doc.decls[on].obj)),
            meta={"strict": True, "dom": on, "cod": on},
        )
    )
    open(out, "w").write(serialize(doc))
    return out


def test_cubical_view_through_cli(tmp_path):
    out = _identity_on(tmp_path, "P")
    assert main(["check", out, "IdP", "--cubical", "Q", "Q"]) == 0


def test_cubical_view_off_a_non_product_domain_exits_3(tmp_path, capsys):
    out = _identity_on(tmp_path, "Q")
    capsys.readouterr()
    assert main(["check", out, "IdQ", "--cubical", "Q", "Q"]) == 3
    err = capsys.readouterr().err
    assert "not the product of the two factors" in err
    assert "Traceback" not in err


def test_reports_deterministic(tmp_path, capsys):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    main(["construct", doc_path, "quintet", "Walk", "--as", "WalkSq", "-o", out])
    capsys.readouterr()
    main(["check", out, "WalkSq", "--format", "tree"])
    first = capsys.readouterr().out
    main(["check", out, "WalkSq", "--format", "tree"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["format_version"] == 1


def test_exit_codes(tmp_path, capsys, monkeypatch):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    main(["construct", doc_path, "quintet", "Walk", "--as", "WalkSq", "-o", out])
    capsys.readouterr()
    assert main(["check", out, "WalkSq"]) == 0
    assert main(["check", out, "WalkSq", "--max-tuples", "5"]) == 2
    assert main(["check", out, "Missing"]) == 3
    assert main(["compare", out, "AB", "--start", "P,P", "L:a R:a", "R:a L:a"]) == 1
    assert main(["compare", out, "AB", "--start", "P,P", "--cartesian", "L:a R:a", "R:a L:a"]) == 0
    assert main(["explain", "interchange"]) == 0
    assert main(["explain", "definitely-not-an-axiom"]) == 3
    assert main(["check", out, "AB", "--word-cap", "0"]) == 0
    # a usage error exits 3, as every other error does, not 2, the code of
    # an inconclusive or budget-exceeded verdict; a negative cap is one
    capsys.readouterr()
    for argv in (
        ["check", out],
        ["frobnicate"],
        ["check", out, "WalkSq", "--max-tuples", "abc"],
        ["check", out, "WalkSq", "--format", "xml"],
        ["check", out, "WalkSq", "--max-tuples", "-1"],
        ["check", out, "AB", "--word-cap", "-1"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 3, argv
        assert capsys.readouterr().err.startswith("usage: dblkit"), argv
    with pytest.raises(SystemExit) as e:
        main(["check", "-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dblkit check")
    # a negative default from the environment is ignored, as one that is
    # not an integer is
    monkeypatch.setenv("DBLKIT_MAX_TUPLES", "-1")
    assert main(["check", out, "WalkSq"]) == 0
    monkeypatch.setenv("DBLKIT_WORD_CAP", "-1")
    assert main(["check", out, "AB"]) == 0


def test_compare_cartesian_composes_each_factors_letters(tmp_path, capsys):
    # on sign x sign, a;a = e, so both words map to (e, a) in the Cartesian
    # product, though they are distinct in the tensor
    doc = dsl.Document()
    doc.add(Declaration("twocategory", "S", zoo.sign_two_category()))
    path = write_doc(tmp_path, serialize(doc) + "\ntensor SS {\n  left S\n  right S\n  cap 4\n}\n")
    assert main(["compare", path, "SS", "--start", "*,*", "L:a R:a L:a", "R:a"]) == 1
    assert main(["compare", path, "SS", "--start", "*,*", "--cartesian", "L:a R:a L:a", "R:a"]) == 0
    assert main(["compare", path, "SS", "--start", "*,*", "--cartesian", "L:a R:a", "R:a"]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith("equal: ")


@pytest.mark.parametrize(
    "target,law,typo",
    [("IdQ", "hcell-assoc", "hcell-asoc"), ("Th", "pnt-naturality", "pnt-naturalty"), ("Tv", "pnt-naturality", "pnt-naturalty")],
)
def test_unknown_axiom_names_exit_3(tmp_path, capsys, target, law, typo):
    q = quintet(zoo.walking_arrow())
    f = pseudo_from_strict(identity_functor(q))
    doc = dsl.Document()
    doc.add(Declaration("category", "Q", q))
    doc.add(Declaration("functor", "IdQ", f, meta={"strict": False, "dom": "Q", "cod": "Q"}))
    ends = {"from": "IdQ", "to": "IdQ", "dom": "Q", "cod": "Q"}
    doc.add(Declaration("transformation", "Th", identity_horizontal(f), meta={"kind": "horizontal", **ends}))
    doc.add(Declaration("transformation", "Tv", identity_vertical(f), meta={"kind": "vertical", **ends}))
    path = write_doc(tmp_path, serialize(doc))
    assert main(["check", path, target, "--axioms", law]) == 0
    capsys.readouterr()
    assert main(["check", path, target, "--axioms", f"{law},{typo}"]) == 3
    assert f"unknown axiom names: ['{typo}']" in capsys.readouterr().err


@pytest.fixture(scope="module")
def every_kind_path(tmp_path_factory):
    """The zoo document with a pseudofunctor and a functor off a product
    added, so that every checker the CLI runs has a target."""
    doc = parse(_zoo_document())
    q = doc.decls["Q"].obj
    doc.add(Declaration("functor", "PsQ", pseudo_from_strict(identity_functor(q)), meta={"strict": False, "dom": "Q", "cod": "Q"}))
    doc.add(_decl_category("P", product(q, q)))
    doc.add(Declaration("functor", "IdP", pseudo_from_strict(identity_functor(doc.decls["P"].obj)), meta={"strict": True, "dom": "P", "cod": "P"}))
    path = tmp_path_factory.mktemp("axioms") / "every.dbl"
    path.write_text(serialize(doc))
    return str(path)


@pytest.mark.parametrize(
    "target,extra,law",
    [
        ("PsQ", [], "hcell-assoc"),
        ("IdP", ["--cubical", "Q", "Q"], "a11"),
        ("Thorizontal", [], "pnt-naturality"),
        ("Tvertical", [], "pnt-naturality"),
        ("M", [], "coupling-t"),
    ],
)
def test_axioms_select_laws_where_the_checker_names_them(every_kind_path, capsys, target, extra, law):
    checked = []
    for selection in ([], ["--axioms", law]):
        assert main(["check", every_kind_path, target, *extra, *selection, "--format", "tree"]) == 0
        checked.append(json.loads(capsys.readouterr().out)["reports"][0]["checked"])
    assert 0 < checked[1] < checked[0]
    assert main(["check", every_kind_path, target, *extra, "--axioms", "no-such-law"]) == 3
    assert "unknown axiom names: ['no-such-law']" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["Walk", "Q", "Sign", "SignB", "IdQ", "Tdouble", "Ttheta", "K", "Meet", "AB", "I"])
def test_axioms_refused_where_the_checker_names_no_laws(every_kind_path, capsys, target):
    assert main(["check", every_kind_path, target, "--axioms", "no-such-law"]) == 3
    assert "--axioms does not apply" in capsys.readouterr().err


def test_violations_carry_symbolic_names(tmp_path, capsys):
    doc_path = write_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    main(["construct", doc_path, "quintet", "Walk", "--as", "WalkSq", "-o", out])
    doc = parse(open(out).read())
    from dblkit.mutate import apply_mutation, mutation_slots

    q = doc.decls["WalkSq"].obj
    mutant = apply_mutation(q, mutation_slots(q)[0])
    doc.decls["WalkSq"].obj = mutant
    open(out, "w").write(serialize(doc))
    capsys.readouterr()
    code = main(["check", out, "WalkSq"])
    output = capsys.readouterr().out
    assert code == 1
    assert "violated" in output
    # witnesses name cells symbolically, not by bare index
    assert "hcell:" in output or "vcell:" in output or "square:" in output


def test_cli_entrypoint_subprocess(tmp_path):
    doc_path = write_doc(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "dblkit.cli", "check", doc_path, "Walk"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


@functools.lru_cache(maxsize=None)
def _zoo_document():
    """Serialized text with a block of every kind: zoo structures, a strict
    functor with transformations of all four kinds, a modification, a
    connection, the meet monoid, a tensor and an internal bundle."""
    doc = parse(BASE_DOC)
    doc.add(Declaration("twocategory", "Sign", zoo.sign_two_category()))
    doc.add(Declaration("bicategory", "SignB", zoo.sign_bicategory()))
    q = quintet(doc.decls["Walk"].obj)
    doc.add(_decl_category("Q", q))
    F = pseudo_from_strict(identity_functor(q))
    doc.add(Declaration("functor", "IdQ", F, meta={"strict": True, "dom": "Q", "cod": "Q"}))
    meta = {"from": "IdQ", "to": "IdQ", "dom": "Q", "cod": "Q"}
    double = identity_double(F)
    for kind, a in (
        ("vertical", identity_vertical(F)),
        ("horizontal", identity_horizontal(F)),
        ("double", double),
        ("theta", identity_theta(F)),
    ):
        doc.add(Declaration("transformation", f"T{kind}", a, meta={"kind": kind, **meta}))
    doc.add(Declaration("modification", "M", identity_modification(double), meta={"from": "Tdouble", "to": "Tdouble"}))
    doc.add(Declaration("connection", "K", find_connection(q), meta={"on": "Q"}))
    monoid = zoo.min_monoid_in_dbl()
    doc.add(_decl_category("WalkSq", monoid.carrier))
    doc.add(Declaration("monoid", "Meet", monoid, meta={"on": "WalkSq"}))
    # parsing only resolves the names of an internal bundle
    refs = dict(d0="Q", d1="Q", s="IdQ", t="IdQ", u="IdQ", p="Q", p1="IdQ", p2="IdQ", m="IdQ")
    doc.add(Declaration("internal", "I", InternalDecl(refs)))
    return serialize(doc)


def _without(text, prefix):
    """``text`` without its first line starting with ``prefix`` (after the
    indent), and the line number of the header of the block it was in."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))
    header = max(j for j in range(i) if lines[j].endswith("{")) + 1
    return "\n".join(lines[:i] + lines[i + 1 :]) + "\n", header


@pytest.mark.parametrize("kind", ["twocategory", "bicategory"])
def test_missing_comp_entry_is_a_positioned_error(tmp_path, capsys, kind):
    text = f"{kind} T {{\n  objects A B C\n  onecell f : A -> B\n  onecell g : B -> C\n}}\n"
    assert main(["check", write_doc(tmp_path, text), "T"]) == 3
    assert "line 1, column 1: missing composition entry for f g" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("fincategory W {\n  objects X Y\n  mor f : X -> Y\n  idm X = f\n}\n", "identity of object 0 has boundary (0, 1)"),
        (
            "bicategory T {\n  objects A B\n  onecell f : A -> B\n  onecell g : B -> A\n"
            "  comp f g = f\n  comp g f = 1_B\n}\n",
            "comp1 entry (0, 1) has wrong boundary",
        ),
    ],
    ids=["fincategory", "bicategory"],
)
def test_constructor_errors_are_positioned(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 1, column 1: {message}"


def test_incomplete_monoid_block_rejected(tmp_path, capsys):
    text, header = _without(open(_meet_doc(tmp_path)).read(), "obmul")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == header
    assert "missing obmul entry for object" in str(err.value)
    assert main(["check", write_doc(tmp_path, text), "Meet"]) == 3


def test_modification_missing_component_message():
    text, header = _without(_zoo_document(), "a0")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {header}, column 1: missing a0 entry for object 0"


@st.composite
def line_mutants(draw):
    """The zoo document with one line deleted, one token replaced (by a
    token of the document or a stray one) or one line duplicated."""
    lines = _zoo_document().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "replace", "duplicate"]))
    if op == "delete":
        lines[i : i + 1] = []
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        words = lines[i].split() or ["}"]
        vocabulary = sorted(set(_zoo_document().split())) + ["zzz", "0", "=", "->", "{", "}"]
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(vocabulary))
        lines[i] = "  " + " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(line_mutants())
def test_parse_of_mutants_fails_cleanly_or_round_trips(text):
    try:
        doc = parse(text)
    except (ParseError, StructureError):
        return
    once = serialize(doc)
    assert serialize(parse(once)) == once


@pytest.mark.parametrize(
    "text,position,message",
    [
        (
            "fincategory Z {\n  objects O\n  mor g : O -> O\n  comp g g = id_O\n  comp g g = g\n}\n",
            (5, 8),
            "duplicate comp entry for g g",
        ),
        ("fincategory W {\n  objects X\n  mor e : X -> X\n  idm X = e\n  idm X = e\n}\n", (5, 7), "duplicate idm entry for X"),
        (
            "twocategory T {\n  objects A\n  onecell e : A -> A\n  comp e e = e\n  comp e e = 1_A\n}\n",
            (5, 8),
            "duplicate comp entry for e e",
        ),
    ],
    ids=["fincategory", "identity", "twocategory"],
)
def test_repeated_table_key_is_a_positioned_error(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == position
    assert str(err.value).endswith(message)


def test_repeated_mapping_entry_is_a_positioned_error():
    text = _zoo_document()
    lines = text.splitlines()
    for prefix in ("a0 ", "ob ", "obmul ", "comp1 "):
        i = next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))
        twice = "\n".join(lines[: i + 1] + lines[i:]) + "\n"
        with pytest.raises(ParseError) as err:
            parse(twice)
        assert err.value.line == i + 2
        assert f"duplicate {prefix.strip()} entry for" in str(err.value)


@pytest.mark.parametrize(
    "block,keyword",
    [("internal", "m"), ("tensor", "left"), ("tensor", "cap"), ("functor", "kind"), ("transformation", "kind"), ("monoid", "unit")],
)
def test_repeated_single_valued_line_is_a_positioned_error(block, keyword):
    lines = _zoo_document().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(f"{block} "))
    i = next(i for i in range(header, len(lines)) if lines[i].split()[0] == keyword)
    twice = "\n".join(lines[: i + 1] + lines[i:]) + "\n"
    with pytest.raises(ParseError) as err:
        parse(twice)
    assert (err.value.line, err.value.column) == (i + 2, 3)
    assert str(err.value).endswith(f"duplicate {keyword} line")


# ---------------------------------------------------------------------------
# the cyclic collector is paused while a command runs


def _session_doc(tmp_path):
    """The base document with a single-entry mutant of the walking iso's
    quintet added as ``Bad``: its squares are unique per boundary, so the
    mutant violates a law and ``check`` exits 1."""
    doc = parse(BASE_DOC)
    ((_, bad),) = sample_mutants(quintet(zoo.walking_iso()), 1, seed=0)
    doc.add(_decl_category("Bad", bad))
    return write_doc(tmp_path, serialize(doc))


@pytest.fixture
def collector_seen(monkeypatch):
    """``gc.isenabled()`` as each command function sees it, one entry per
    command run: the cached parser's ``parse_args`` wraps the function it
    returns."""
    from dblkit import cli

    seen, parser = [], cli._parser()
    parse_args = parser.parse_args

    def spying(argv=None):
        args = parse_args(argv)
        func = args.func

        def run(a):
            seen.append(gc.isenabled())
            return func(a)

        args.func = run
        return args

    monkeypatch.setattr(parser, "parse_args", spying)
    return seen


def test_commands_run_with_the_collector_paused_and_restore_it(tmp_path, capsys, collector_seen, monkeypatch):
    path = _session_doc(tmp_path)
    malformed = write_doc(tmp_path, "category X {\n  hcell f missing arrow\n}\n", "bad.dbl")
    assert gc.isenabled()
    for argv, code in (
        (["check", path, "Walk"], 0),
        (["check", path, "Bad"], 1),
        (["check", str(tmp_path / "missing.dbl"), "Walk"], 3),
        (["check", malformed, "X"], 3),
    ):
        assert main(argv) == code, argv
        assert gc.isenabled(), argv
    assert collector_seen == [False] * 4
    # an argparse usage error exits before any command runs
    with pytest.raises(SystemExit) as e:
        main(["check", path])
    assert e.value.code == 3
    assert gc.isenabled()
    assert len(collector_seen) == 4
    # an error no handler catches still restores it
    def broken(text):
        raise RuntimeError("broken parse")

    monkeypatch.setattr(dsl, "parse", broken)
    with pytest.raises(RuntimeError):
        main(["check", path, "Walk"])
    assert gc.isenabled()
    assert collector_seen == [False] * 5
    capsys.readouterr()


def test_a_caller_that_paused_the_collector_keeps_it_paused(tmp_path, capsys, collector_seen):
    path = _session_doc(tmp_path)
    gc.disable()
    try:
        assert main(["check", path, "Walk"]) == 0
        assert main(["check", path, "Bad"]) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert collector_seen == [False, False]
    capsys.readouterr()


def test_paused_commands_leave_no_dblkit_object_in_cyclic_garbage(tmp_path, capsys):
    # the premise of the pause: every object a command builds is freed by
    # reference counting, so a paused command holds no dblkit memory
    path = _session_doc(tmp_path)
    out = str(tmp_path / "out.dbl")
    commands = (
        ["construct", path, "quintet", "Walk", "--as", "WalkSq", "-o", out],
        ["check", out, "WalkSq", "--format", "tree"],
        ["check", out, "Bad", "--format", "tree"],
        ["compare", out, "AB", "--start", "P,P", "L:a R:a", "R:a L:a"],
        ["compare", out, "AB", "--start", "P,P", "--cartesian", "L:a R:a", "R:a L:a"],
    )
    for argv in commands:  # warm: caches and lazy imports filled
        main(argv)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in commands:
            main(argv)
        gc.collect()
        ours = [o for o in gc.garbage if type(o).__module__.startswith("dblkit")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert ours == []
    capsys.readouterr()


# Malformed category blocks through the command, each message as the eager
# parser gave it, position included; the parser decides the square tables
# at parse time whether or not it builds them then.
MALFORMED_CATEGORIES = {
    "composite shared by two squares, not written": (
        "category C {\n  objects A\n  square s : 1_A 1_A | 1^A 1^A\n  hsq I_1_A I_1_A = I_1_A\n"
        "  hsq I_1_A s = s\n  hsq s I_1_A = s\n  vsq I_1_A I_1_A = I_1_A\n  vsq I_1_A s = s\n"
        "  vsq s I_1_A = s\n  vsq s s = I_1_A\n}\n",
        "line 1, column 1: hcomp2 keys must be the pastable square pairs; first bad: [(0, 0)]",
    ),
    "hsq on squares that do not paste": (
        "category C {\n  objects A B\n  vcell u : A -> B\n  hsq I_1_A I_1_B = I_1_A\n}\n",
        "line 1, column 1: hcomp2 keys must be the pastable square pairs; first bad: [(0, 1)]",
    ),
    "vsq entry given twice": (
        "category C {\n  objects A B\n  vcell u : A -> B\n  vsq I_1_A I^u = I^u\n  vsq I_1_A I^u = I^u\n}\n",
        "line 5, column 7: duplicate vsq entry for I_1_A I^u",
    ),
    "hcomp on hcells that do not compose": (
        "category C {\n  objects A B\n  hcell f : A -> B\n  hcomp f f = f\n}\n",
        "line 1, column 1: hcomp1 keys must be the composable hcell pairs; first bad: [(0, 0)]",
    ),
    "identity with a wrong boundary": (
        "category C {\n  objects A B\n  hcell f : A -> B\n  idh A = f\n}\n",
        "line 1, column 1: horizontal identity of object 0 has wrong boundary",
    ),
    "square with mismatched corners": (
        "category C {\n  objects A B\n  vcell u : A -> B\n  square s : 1_A 1_A | u 1^A\n}\n",
        "line 1, column 1: square 0 has mismatched corners (0, 0, 0, 1)",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_CATEGORIES.values(), ids=MALFORMED_CATEGORIES.keys())
def test_malformed_category_blocks_exit_3_with_the_eager_message(tmp_path, capsys, case):
    text, message = case
    assert main(["check", write_doc(tmp_path, text), "C"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_explicit_square_entry_equal_to_its_implied_value_is_dropped(tmp_path, capsys):
    text = "category C {\n  objects A B\n  vcell u : A -> B\n  hsq I^u I^u = I^u\n  vsq I_1_A I^u = I^u\n}\n"
    path, out = write_doc(tmp_path, text), str(tmp_path / "out.dbl")
    assert main(["check", path, "C"]) == 0
    assert main(["construct", path, "transpose", "C", "--as", "CT", "-o", out]) == 0
    written = open(out).read()
    assert written == (
        "category C {\n  objects A B\n  hcell 1_A : A -> A\n  hcell 1_B : B -> B\n  vcell u : A -> B\n"
        "  vcell 1^A : A -> A\n  vcell 1^B : B -> B\n  square I_1_A : 1_A 1_A | 1^A 1^A\n"
        "  square I_1_B : 1_B 1_B | 1^B 1^B\n  square I^u : 1_A 1_B | u u\n  idh A = 1_A\n  idv A = 1^A\n"
        "  idh B = 1_B\n  idv B = 1^B\n  idsq 1_A = I_1_A\n  idsq 1_B = I_1_B\n  idsqv u = I^u\n"
        "  idsqv 1^A = I_1_A\n  idsqv 1^B = I_1_B\n}\n\n"
        "category CT {\n  objects A B\n  hcell u : A -> B\n  hcell 1^A : A -> A\n  hcell 1^B : B -> B\n"
        "  vcell 1_A : A -> A\n  vcell 1_B : B -> B\n  square I_1_A : 1^A 1^A | 1_A 1_A\n"
        "  square I_1_B : 1^B 1^B | 1_B 1_B\n  square I^u : u u | 1_A 1_B\n  idh A = 1^A\n  idv A = 1_A\n"
        "  idh B = 1^B\n  idv B = 1_B\n  idsq u = I^u\n  idsq 1^A = I_1_A\n  idsq 1^B = I_1_B\n"
        "  idsqv 1_A = I_1_A\n  idsqv 1_B = I_1_B\n}\n"
    )
    assert "hsq" not in written and "vsq" not in written
    capsys.readouterr()
