import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import catfrac.ambient
import catfrac.cli
from catfrac import (
    CleavageSet,
    FinCategory,
    FinSetMap,
    FinSetObject,
    FractionsInput,
    InternalCategory,
    cleavage,
    internal_elements,
    localize,
    pullback,
    verify_pairs_coequalizer,
)
from catfrac.cli import _positional_mismatch, load_pseudofunctor, main

FIX = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_category(capsys):
    code, out, _ = run(capsys, "validate", FIX / "two.json")
    assert code == 0
    assert "valid" in out


def test_validate_broken_category(capsys):
    code, out, _ = run(capsys, "validate", FIX / "bad_category.json")
    assert code == 1
    assert "hom" in out


def test_validate_malformed_file(capsys):
    code, out, _ = run(capsys, "validate", FIX / "malformed.json")
    assert code == 2
    assert "error" in out


@pytest.mark.parametrize(
    "kind,found",
    [(True, "true"), (None, "null"), (3, "a number"), (["category"], "a list"),
     ({"kind": "category"}, "an object"), ("graph", "'graph'")],
    ids=["true", "null", "number", "list", "object", "string"],
)
def test_validate_names_a_kind_that_is_not_a_string(capsys, tmp_path, kind, found):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind}), encoding="utf-8")
    code, out, _ = run(capsys, "validate", path)
    assert (code, out.split(";")[0]) == (2, f"error: unknown kind {found}")


def test_validate_names_a_missing_kind(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"objects": 1}), encoding="utf-8")
    code, out, _ = run(capsys, "validate", path)
    assert (code, out.split(";")[0]) == (2, "error: missing field 'kind'")


def test_validate_missing_file(capsys):
    code, out, _ = run(capsys, "validate", FIX / "no_such_file.json")
    assert code == 2


def test_validate_functor_and_diagram(capsys):
    assert run(capsys, "validate", FIX / "functor_pick.json")[0] == 0
    assert run(capsys, "validate", FIX / "diagram_contra_two.json")[0] == 0
    assert run(capsys, "validate", FIX / "diagram_swap.json")[0] == 0
    assert run(capsys, "validate", FIX / "bundle_contra.json")[0] == 0


def test_groth_text_and_cleavage(capsys):
    code, out, _ = run(capsys, "groth", FIX / "diagram_contra_two.json", "--contravariant")
    assert code == 0
    assert "3 objects" in out and "6 arrows" in out
    assert "(f;*;id:b)" in out


def test_groth_covariant_diagram(capsys):
    code, out, _ = run(capsys, "groth", FIX / "diagram_swap.json")
    assert code == 0
    assert "2 objects" in out and "4 arrows" in out
    # cleavage is a contravariant-only notion
    code, out, _ = run(capsys, "groth", FIX / "diagram_swap.json", "--contravariant")
    assert code == 2


def test_groth_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "groth", FIX / "diagram_contra_two.json", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "category"
    target = tmp_path / "carrier.json"
    target.write_text(out, encoding="utf-8")
    assert run(capsys, "validate", target)[0] == 0


def test_groth_contravariant_json_feeds_localize(capsys, tmp_path):
    code, out, _ = run(
        capsys, "groth", FIX / "diagram_contra_two.json", "--contravariant", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "fractions-input"
    target = tmp_path / "marked.json"
    target.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "localize", target)
    assert code == 0
    assert "7 arrows" in out


def test_groth_rejects_wrong_kind(capsys):
    assert run(capsys, "groth", FIX / "two.json")[0] == 2


def test_axioms_pass(capsys):
    code, out, _ = run(capsys, "axioms", FIX / "two_all.json")
    assert code == 0
    assert out.count("pass") == 4


def test_axioms_fail(capsys):
    code, out, _ = run(capsys, "axioms", FIX / "two_f.json")
    assert code == 1
    assert "FAIL" in out


def test_axioms_inline_category(capsys):
    code, out, _ = run(capsys, "axioms", FIX / "zipper.json")
    assert code == 1
    assert "axiom (4): FAIL" in out


def test_localize_text(capsys):
    code, out, _ = run(capsys, "localize", FIX / "two_all.json")
    assert code == 0
    assert "4 arrows" in out


def test_localize_reports_isomorphism_with_input(capsys):
    code, out, _ = run(capsys, "localize", FIX / "two_ids.json")
    assert code == 0
    assert "isomorphic to the input category" in out


def test_localize_refuses_bad_marks(capsys):
    code, out, _ = run(capsys, "localize", FIX / "two_f.json")
    assert code == 1
    assert "failed" in out


def test_localize_exhaustive_and_json(capsys, tmp_path):
    code, out, _ = run(capsys, "localize", FIX / "chain_f.json", "--exhaustive", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "category"
    assert len(doc["arrows"]) == 7
    assert "classes" in doc and "localization_functor" in doc
    target = tmp_path / "localized.json"
    target.write_text(out, encoding="utf-8")
    assert run(capsys, "validate", target)[0] == 0


def test_verify_oplax(capsys):
    code, out, _ = run(
        capsys, "verify", FIX / "diagram_contra_two.json", "oplax", "--against", FIX / "two.json"
    )
    assert code == 0
    assert "pass" in out


def test_verify_localization(capsys):
    code, out, _ = run(
        capsys, "verify", FIX / "two_all.json", "localization", "--against", FIX / "iso.json"
    )
    assert code == 0
    assert "pass" in out


def test_verify_pseudocolim_bundle(capsys):
    code, out, _ = run(capsys, "verify", FIX / "bundle_contra.json", "pseudocolim")
    assert code == 0
    assert out.count("pass") >= 3


def test_verify_pseudocolim_rejects_noncofiltered(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        FIX / "diagram_parallel.json",
        "pseudocolim",
        "--against",
        FIX / "one.json",
    )
    assert code == 2
    assert "cofiltered" in out


def test_verify_needs_a_test_category(capsys):
    code, out, _ = run(capsys, "verify", FIX / "diagram_contra_two.json", "oplax")
    assert code == 2


def test_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", FIX / "diagram_contra_two.json")
    assert code == 0
    for line in ("elements", "cleavage", "localization", "composable pairs"):
        assert line in out


def test_crosscheck_shuffle_control(capsys):
    code, out, _ = run(capsys, "crosscheck", FIX / "diagram_contra_two.json", "--shuffle")
    assert code == 1
    assert "hom" in out and "mismatch" in out


def test_crosscheck_rejects_covariant(capsys):
    code, out, _ = run(capsys, "crosscheck", FIX / "diagram_swap.json")
    assert code == 2
    assert "contravariant" in out


def test_two_calls_build_the_parser_once(monkeypatch, capsys):
    # one parser and one subparser per command make the tree
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    catfrac.cli._parser.cache_clear()
    assert run(capsys, "validate", FIX / "two.json")[0] == 0
    assert len(built) == 7
    assert run(capsys, "crosscheck", FIX / "diagram_contra_two.json")[0] == 0
    assert len(built) == 7


@pytest.mark.parametrize(
    "code,argv",
    [
        (0, ("validate", FIX / "two.json")),
        (1, ("validate", FIX / "bad_category.json")),
        (2, ("validate", FIX / "malformed.json")),
        (0, ("groth", FIX / "diagram_contra_two.json", "--contravariant")),
        (0, ("groth", FIX / "diagram_contra_two.json", "--json")),
        (2, ("groth", FIX / "two.json")),
        (0, ("axioms", FIX / "two_all.json")),
        (1, ("axioms", FIX / "two_f.json")),
        (0, ("localize", FIX / "chain_f.json", "--exhaustive", "--json")),
        (1, ("localize", FIX / "two_f.json")),
        (0, ("verify", FIX / "diagram_contra_two.json", "oplax", "--against", FIX / "two.json")),
        (0, ("verify", FIX / "two_all.json", "localization", "--against", FIX / "iso.json")),
        (0, ("verify", FIX / "bundle_contra.json", "pseudocolim")),
        (0, ("crosscheck", FIX / "diagram_contra_3x3.json")),
        (1, ("crosscheck", FIX / "diagram_contra_two.json", "--shuffle")),
        (2, ("crosscheck", FIX / "diagram_swap.json")),
    ],
    ids=lambda v: v if isinstance(v, int) else " ".join(getattr(a, "name", a) for a in v),
)
def test_repeated_commands_answer_alike(capsys, code, argv):
    # the kept parser hands each call fresh arguments
    first = run(capsys, *argv)
    assert first[0] == code
    assert run(capsys, *argv) == first


CATEGORY_ONE = {
    "kind": "category",
    "objects": ["a"],
    "arrows": [{"name": "ia", "src": "a", "tgt": "a"}],
    "identities": {"a": "ia"},
}


@pytest.mark.parametrize(
    "data,message",
    [
        pytest.param(b"[" * 100000 + b"]" * 100000, "nests too deeply", id="deep"),
        pytest.param(json.dumps(dict(CATEGORY_ONE, identities=["a"])).encode(),
                     "field 'identities' must be an object", id="identities_list"),
        pytest.param(json.dumps(dict(CATEGORY_ONE, objects="a")).encode(),
                     "field 'objects' must be a list", id="objects_string"),
        pytest.param(json.dumps({"kind": "fractions-input", "category": CATEGORY_ONE, "weq": "ia"}).encode(),
                     "field 'weq' must be a list", id="weq_string"),
        pytest.param(b'{"kind": ' + b"9" * 5000 + b"}", "not valid JSON", id="long_integer"),
        pytest.param(b'{"kind": "\xff"}', "not valid JSON", id="latin1"),
    ],
)
def test_malformed_inputs_exit_2_with_a_message(capsys, tmp_path, data, message):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert out.startswith("error: ") and message in out


MISTYPED_COMPOSITE = {
    "kind": "fractions-input",
    "category": {
        "kind": "category",
        "objects": ["a", "b"],
        "arrows": [
            {"name": "ia", "src": "a", "tgt": "a"},
            {"name": "ib", "src": "b", "tgt": "b"},
            {"name": "f", "src": "a", "tgt": "b"},
        ],
        "identities": {"a": "ia", "b": "ib"},
        "compose": [{"first": "ia", "then": "f", "equals": "ia"}],
    },
    "weq": ["ia", "ib", "f"],
}


@pytest.mark.parametrize("command", ["axioms", "localize"])
def test_mistyped_composite_is_named(capsys, tmp_path, command):
    # ia;f is tabled as ia, an arrow a -> a where hom(a, b) is due
    path = tmp_path / "input.json"
    path.write_text(json.dumps(MISTYPED_COMPOSITE), encoding="utf-8")
    code, out, _ = run(capsys, command, path)
    assert code == 2
    assert out.startswith("error: composite ('ia','f')='ia' lands in hom('a','a')")


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_json.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_json_output_matches_golden(capsys, case):
    command, *flags, fixture = case.split()
    code, out, _ = run(capsys, command, FIX / f"{fixture}.json", *flags)
    assert (code, out) == (GOLDEN[case]["code"], GOLDEN[case]["stdout"])


TWO = dict(MISTYPED_COMPOSITE["category"], compose=[])


@pytest.mark.parametrize("command", ["validate", "axioms", "localize"])
@pytest.mark.parametrize(
    "weq,message",
    [
        (["ia", "nope", "ib"], "error: marked arrow 'nope' is not in the category\n"),
        (["ia", "f", "ib", "f"], "error: marked arrow 'f' listed twice\n"),
        (["ia", None, "ib"], "error: fractions-input: field 'weq[1]' must be a string, got null\n"),
        (["ia", ["f"], "ib"], "error: fractions-input: field 'weq[1]' must be a string, got a list\n"),
    ],
)
def test_bad_marks_exit_2_with_a_message(capsys, tmp_path, command, weq, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"kind": "fractions-input", "category": TWO, "weq": weq}))
    assert run(capsys, command, path)[:2] == (2, message)


# a unital magma on one object: a;a = b and a;b = a, so (a;a);a = b;a = b
# while a;(a;a) = a;b = a
NON_ASSOCIATIVE = {
    "kind": "fractions-input",
    "category": {
        "kind": "category",
        "objects": ["*"],
        "arrows": [{"name": f, "src": "*", "tgt": "*"} for f in ("e", "a", "b")],
        "identities": {"*": "e"},
        "compose": [
            {"first": f, "then": g, "equals": h}
            for (f, g), h in {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "a"}.items()
        ],
    },
    "weq": ["e", "a", "b"],
}


EXTRA_ARGS = {"verify": ("localization", "--against", FIX / "iso.json")}


@pytest.mark.parametrize("command", ["axioms", "localize", "verify"])
def test_non_associative_table_exits_2(capsys, tmp_path, command):
    path = tmp_path / "magma.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE), encoding="utf-8")
    code, out, _ = run(capsys, command, path, *EXTRA_ARGS.get(command, ()))
    assert code == 2
    assert out == "error: associativity fails at ('a','a','a'): (aa)a='b', a(aa)='a'\n"
    # validate still prints every violated law
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert out.startswith("fractions-input: INVALID\n  associativity fails at ('a','a','a')")
    assert out.count("associativity fails") > 1


def test_explicit_compositor_is_loaded_and_accepted(capsys):
    # over chain(3), Z/2 everywhere: the generator s as the compositor at
    # (f, g) is natural, invertible and coherent, since Z/2 is abelian
    path = FIX / "diagram_chain_compositor.json"
    D = load_pseudofunctor(json.loads(path.read_text(encoding="utf-8")), FIX)
    assert D.compositors[("f", "g")].components == {"*": "s"}
    assert run(capsys, "validate", path)[:2] == (0, "pseudofunctor: valid\n")


def _drop(field, key):
    return lambda data: data[field].pop(key)


def _add(field, key, value):
    return lambda data: data[field].update({key: value})


@pytest.mark.parametrize(
    "fixture,edit,message",
    [
        ("diagram_chain_compositor", _add("compositors", "f", {"*": "s"}),
         "compositor key 'f' is not of the form 'phi;psi'"),
        ("diagram_chain_compositor", _add("compositors", "g;f", {"*": "s"}),
         "compositor key 'g;f' names a non-composable pair"),
        ("diagram_chain_compositor", _add("on_arrows", "k", {"on_objects": {}, "on_arrows": {}}),
         "on_arrows names unknown index arrow 'k'"),
        ("diagram_chain_compositor", _add("unitors", "w", {"*": "id:*"}),
         "unitor given for unknown index object 'w'"),
        ("diagram_chain_compositor", _drop("on_objects", "z"),
         "on_objects must cover the index objects exactly"),
        ("diagram_chain_compositor", _drop("on_arrows", "g"),
         "on_arrows must cover the index arrows exactly"),
        ("diagram_parallel", _drop("unitors", "b"), "no unitor at index object 'b'"),
    ],
    ids=["key_form", "non_composable_key", "unknown_index_arrow", "unknown_unitor_object",
         "on_objects_cover", "on_arrows_cover", "missing_unitor"],
)
def test_pseudofunctor_loader_names_the_defect(capsys, tmp_path, fixture, edit, message):
    data = json.loads((FIX / f"{fixture}.json").read_text(encoding="utf-8"))
    # the copy is read from elsewhere, so its file references point back here
    data["index"] = str(FIX / data["index"])
    data["on_objects"] = {A: str(FIX / ref) for A, ref in data["on_objects"].items()}
    edit(data)
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "validate", path)[:2] == (2, f"error: {message}\n")


def _bad_unitor_at_x(data):
    # explicit identity-leg compositors at x keep the loader from deriving
    # them out of the unitor, so the defect reaches validation
    data["unitors"]["x"] = {"*": "nope"}
    for key in ("id:x;id:x", "id:x;f", "id:x;h"):
        data["compositors"][key] = {"*": "id:*"}


@pytest.mark.parametrize(
    "edit,message",
    [
        (_add("on_arrows", "f", "x"),
         "pseudofunctor: field 'on_arrows[f]' must be an object, got a string"),
        (_add("on_arrows", "f", "on_objects"),
         "pseudofunctor: field 'on_arrows[f]' must be an object, got a string"),
        (_bad_unitor_at_x, "unitor at 'x': component at '*' is not an arrow of the codomain"),
        (_add("compositors", "f;g", {"*": "nope"}),
         "compositor at ('f', 'g'): component at '*' is not an arrow of the codomain"),
    ],
    ids=["on_arrows_entry_string", "on_arrows_entry_field_name", "unitor_component",
         "compositor_component"],
)
def test_pseudofunctor_defect_names_its_entry(capsys, tmp_path, edit, message):
    # a non-object on_arrows entry is refused before its fields are read,
    # and a structural defect of a unitor or compositor names that cell
    test_pseudofunctor_loader_names_the_defect(
        capsys, tmp_path, "diagram_chain_compositor", edit, message
    )


def _edit_on_arrows(phi, field, **entries):
    """Set ``entries`` in the ``field`` map of on_arrows[phi]."""
    return lambda data: data["on_arrows"][phi][field].update(entries)


@pytest.mark.parametrize(
    "edit,message",
    [
        (_add("unitors", "x", {"*": "nope"}),
         "unitor at 'x': component at '*' is not an arrow of the codomain"),
        (_add("unitors", "x", {}), "unitor at 'x': missing component at '*'"),
        (lambda data: data["on_arrows"]["f"].update(on_objects={}),
         "functor at 'f': functor object mapping not total: missing '*'"),
        (lambda data: data["on_arrows"]["id:x"]["on_arrows"].pop("s"),
         "functor at 'id:x': functor arrow mapping not total: missing 's'"),
        (_edit_on_arrows("f", "on_arrows", s="zz"),
         "functor at 'f': functor maps 's' to unknown arrow 'zz'"),
        (_edit_on_arrows("g", "on_objects", **{"*": "o"}),
         "functor at 'g': functor maps '*' to unknown object 'o'"),
    ],
    ids=["unitor_component", "unitor_empty", "functor_objects_empty", "functor_arrow_missing",
         "functor_arrow_unknown", "functor_object_unknown"],
)
def test_loader_checks_each_cell_before_deriving_from_it(capsys, tmp_path, edit, message):
    # the identity-leg compositors at x are left to the loader, which reads
    # the unitor at x and the functors of every pair to derive them
    test_pseudofunctor_loader_names_the_defect(
        capsys, tmp_path, "diagram_chain_compositor", edit, message
    )


def _relocated(fixture):
    """A fixture diagram whose file references point back here, so that a
    copy of it can be read from elsewhere."""
    data = json.loads((FIX / f"{fixture}.json").read_text(encoding="utf-8"))
    data["index"] = str(FIX / data["index"])
    data["on_objects"] = {A: str(FIX / ref) for A, ref in data["on_objects"].items()}
    return data


@pytest.mark.parametrize(
    "command,extra",
    [
        ("groth", ()),
        ("groth", ("--contravariant",)),
        ("crosscheck", ()),
        ("crosscheck", ("--shuffle",)),
        ("verify", ("oplax", "--against", FIX / "two.json")),
        ("verify", ("pseudocolim", "--against", FIX / "two.json")),
    ],
    ids=["groth", "groth_contravariant", "crosscheck", "crosscheck_shuffle", "verify_oplax",
         "verify_pseudocolim"],
)
def test_unlawful_diagram_is_refused(capsys, tmp_path, command, extra):
    # D(f) swaps the identity and the generator of Z/2: total and typed,
    # but not a functor, so no construction may start from it
    data = _relocated("diagram_chain_compositor")
    data["on_arrows"]["f"]["on_arrows"] = {"id:*": "s", "s": "id:*"}
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    first = "functor at 'f': functor breaks identity at '*'"
    assert run(capsys, command, path, *extra)[:2] == (2, f"error: {first}\n")
    # validate still lists every violated law
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert out.startswith(f"pseudofunctor: INVALID\n  {first}\n")
    assert out.count("functor at 'f'") == 5



@pytest.mark.parametrize(
    "command,extra",
    [
        ("validate", ()),
        ("groth", ()),
        ("crosscheck", ()),
        ("verify", ("oplax", "--against", FIX / "two.json")),
        ("verify", ("pseudocolim", "--against", FIX / "two.json")),
    ],
    ids=["validate", "groth", "crosscheck", "verify_oplax", "verify_pseudocolim"],
)
def test_misplaced_index_composite_is_refused(capsys, tmp_path, command, extra):
    # well typed, but f;id:b lands in hom(a, a): the identity-leg compositors
    # and the coherence laws are read off the index's composites, so the
    # index's laws are checked first, and even validate exits 2
    data = _relocated("diagram_contra_two")
    data["index"] = json.loads((FIX / "two.json").read_text(encoding="utf-8"))
    data["index"]["compose"] = [{"first": "f", "then": "id:b", "equals": "id:a"}]
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, command, path, *extra)[:2] == (
        2, "error: index: composite ('f','id:b')='id:a' lands in hom('a','a'), "
        "expected hom('a','b')\n"
    )


BAD_CATEGORY = "error: composite ('f','g')='id:z' lands in hom('z','z'), expected hom('x','z')\n"


@pytest.mark.parametrize(
    "path,which",
    [
        (FIX / "diagram_contra_two.json", "oplax"),
        (FIX / "diagram_contra_two.json", "pseudocolim"),
        (FIX / "two_all.json", "localization"),
    ],
)
def test_unlawful_test_category_is_refused(capsys, path, which):
    # the construction is not blamed for a test category that is none
    argv = ("verify", path, which, "--against", FIX / "bad_category.json")
    assert run(capsys, *argv)[:2] == (2, BAD_CATEGORY)


@pytest.mark.parametrize("which", ["oplax", "pseudocolim"])
def test_unlawful_bundle_test_category_is_refused(capsys, tmp_path, which):
    bundle = {
        "kind": "diagram-bundle",
        "diagram": _relocated("diagram_contra_two"),
        "against": [str(FIX / "two.json"), str(FIX / "bad_category.json")],
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert run(capsys, "verify", path, which)[:2] == (2, BAD_CATEGORY)
    # validate still lists every problem of the bundle
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert out.count("\n  ") == 2


def _bundle_in(directory, against):
    """A bundle in ``directory`` that names the fixture diagram and its test
    categories by paths relative to ``directory``; the diagram's own paths
    stay relative to the fixtures."""
    bundle = {
        "kind": "diagram-bundle",
        "diagram": os.path.relpath(FIX / "diagram_contra_two.json", directory),
        "against": [os.path.relpath(FIX / name, directory) for name in against],
    }
    path = directory / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command",
    [("validate",), ("verify", "oplax"), ("verify", "pseudocolim"), ("crosscheck",)],
    ids=" ".join,
)
def test_reference_resolves_against_the_file_that_names_it(capsys, tmp_path, command):
    # the diagram's "index": "two.json" sits beside the diagram, not the bundle
    path = _bundle_in(tmp_path, ["one.json", "two.json", "iso.json"])
    name, *rest = command
    moved = run(capsys, name, path, *rest)
    assert moved[0] == 0
    assert moved == run(capsys, name, FIX / "bundle_contra.json", *rest)


def test_validate_names_the_broken_test_category(capsys, tmp_path):
    path = _bundle_in(tmp_path, ["two.json", "bad_category.json"])
    assert run(capsys, "validate", path)[:2] == (1, (
        "diagram-bundle: INVALID\n"
        "  against[1]: composite ('f','g')='id:z' lands in hom('z','z'), expected hom('x','z')\n"
        "  against[1]: associativity fails at ('id:x','f','g'): (id:xf)g='id:z', id:x(fg)=None\n"
    ))


@pytest.mark.parametrize("which", ["oplax", "pseudocolim"])
def test_bundle_without_test_categories_is_refused(capsys, tmp_path, which):
    path = _bundle_in(tmp_path, [])
    assert run(capsys, "verify", path, which)[:2] == (
        2, "error: no test category: pass --against or use a diagram-bundle\n"
    )


def test_against_must_name_a_category(capsys):
    diagram = FIX / "diagram_contra_two.json"
    assert run(capsys, "verify", diagram, "oplax", "--against", diagram)[:2] == (
        2, "error: expected a category document, found kind 'pseudofunctor'\n"
    )


def test_crosscheck_reads_the_diagram_of_a_bundle(capsys):
    bundle = run(capsys, "crosscheck", FIX / "bundle_contra.json")
    assert bundle[0] == 0
    assert bundle == run(capsys, "crosscheck", FIX / "diagram_contra_two.json")


def _bundle_with(tmp_path, **fields):
    bundle = {"kind": "diagram-bundle", "diagram": str(FIX / "diagram_contra_two.json"), **fields}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "against,got",
    [({"two.json": 1}, "an object"), ("two.json", "a string"), (2, "a number"), (None, "null")],
    ids=["object", "string", "number", "null"],
)
@pytest.mark.parametrize(
    "command",
    [("validate",), ("verify", "pseudocolim"), ("verify", "oplax"),
     ("verify", "oplax", "--against", str(FIX / "two.json"))],
    ids=["validate", "verify pseudocolim", "verify oplax", "verify oplax --against"],
)
def test_bundle_against_must_be_a_list(capsys, tmp_path, command, against, got):
    # an object is not iterated by its keys, nor a string by its letters; a
    # list that --against replaces is still the bundle's, and still checked
    name, *rest = command
    assert run(capsys, name, _bundle_with(tmp_path, against=against), *rest)[:2] == (
        2, f"error: diagram-bundle: field 'against' must be a list, got {got}\n"
    )


@pytest.mark.parametrize(
    "diagram,got",
    [(None, "null"), (True, "true"), (3.5, "a number"), (["d.json"], "a list")],
    ids=["null", "true", "number", "list"],
)
def test_reference_of_the_wrong_type_is_named_by_its_json_type(capsys, tmp_path, diagram, got):
    path = _bundle_with(tmp_path, diagram=diagram, against=[str(FIX / "two.json")])
    assert run(capsys, "verify", path, "oplax")[:2] == (
        2, f"error: diagram-bundle: field 'diagram' must be an object or a file path, got {got}\n"
    )


@pytest.mark.parametrize(
    "kind,found", [(True, "true"), (False, "false"), (None, "null"), (7, "a number")],
    ids=["true", "false", "null", "number"],
)
def test_kind_that_is_not_a_string_is_named_by_its_json_type(capsys, tmp_path, kind, found):
    data = json.loads((FIX / "diagram_contra_two.json").read_text(encoding="utf-8"))
    data["kind"] = kind
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "verify", path, "oplax", "--against", FIX / "two.json")[:2] == (
        2, f"error: expected a pseudofunctor or diagram-bundle document, found kind {found}\n"
    )


def test_bundle_against_is_optional(capsys, tmp_path):
    path = _bundle_with(tmp_path)
    assert run(capsys, "validate", path)[:2] == (0, "diagram-bundle: valid\n")
    assert run(capsys, "verify", path, "oplax")[:2] == (
        2, "error: no test category: pass --against or use a diagram-bundle\n"
    )
    assert run(capsys, "verify", path, "oplax", "--against", FIX / "two.json")[0] == 0


DIAGRAM_KINDS = "a pseudofunctor or diagram-bundle document"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("verify", "bundle_contra.json", "localization"),
         "a fractions-input document, found kind 'diagram-bundle'"),
        (("verify", "two_all.json", "oplax", "--against", FIX / "two.json"),
         f"{DIAGRAM_KINDS}, found kind 'fractions-input'"),
        (("axioms", "two.json"), "a fractions-input document, found kind 'category'"),
        (("localize", "diagram_contra_two.json"),
         "a fractions-input document, found kind 'pseudofunctor'"),
        (("crosscheck", "two.json"), f"{DIAGRAM_KINDS}, found kind 'category'"),
        (("groth", "two_f.json"), "a pseudofunctor document, found kind 'fractions-input'"),
        (("groth", "bundle_contra.json"), "a pseudofunctor document, found kind 'diagram-bundle'"),
    ],
    ids=["verify_bundle_localization", "verify_fractions_oplax", "axioms_category",
         "localize_pseudofunctor", "crosscheck_category", "groth_fractions", "groth_bundle"],
)
def test_each_command_names_the_kind_it_takes(capsys, argv, expected):
    name, path, *rest = argv
    assert run(capsys, name, FIX / path, *rest)[:2] == (2, f"error: expected {expected}\n")


@pytest.mark.parametrize(
    "command",
    [("groth", "--contravariant"), ("crosscheck",),
     ("verify", "oplax", "--against", FIX / "two.json")],
    ids=lambda v: v[0],
)
def test_own_file_without_kind_reads_as_the_commands_kind(capsys, tmp_path, command):
    data = _relocated("diagram_contra_two")
    del data["kind"]
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    name, *rest = command
    unkinded = run(capsys, name, path, *rest)
    assert unkinded[0] == 0
    assert unkinded == run(capsys, name, FIX / "diagram_contra_two.json", *rest)



def _at(data, path):
    """The value at ``path`` in a document."""
    for key in path:
        data = data[key]
    return data


def _set(*path, value):
    return lambda data: _at(data, path[:-1]).__setitem__(path[-1], value)


def _delete(*path):
    return lambda data: _at(data, path[:-1]).pop(path[-1])


@pytest.mark.parametrize(
    "fixture,edit,message",
    [
        ("two", _set("objects", 0, value=["a"]),
         "category: field 'objects[0]' must be a string, got a list"),
        ("two", _set("arrows", 2, "src", value=3),
         "category: field 'arrows[2].src' must be a string, got a number"),
        ("two", _delete("arrows", 1, "tgt"), "category: missing field 'arrows[1].tgt'"),
        ("two", _set("identities", "a", value=["id:a"]),
         "category: field 'identities[a]' must be a string, got a list"),
        ("two", _set("compose", value=[{"first": "id:a", "then": "f", "equals": None}]),
         "category: field 'compose[0].equals' must be a string, got null"),
        ("functor_pick", _set("on_arrows", "f", value=1),
         "functor: field 'on_arrows[f]' must be a string, got a number"),
        ("diagram_chain_compositor", _set("on_arrows", "f", "on_objects", "*", value=True),
         "pseudofunctor: field 'on_arrows[f].on_objects[*]' must be a string, got true"),
        ("diagram_chain_compositor", _delete("on_arrows", "g", "on_arrows"),
         "pseudofunctor: missing field 'on_arrows[g].on_arrows'"),
        ("diagram_chain_compositor", _set("unitors", "x", "*", value=None),
         "pseudofunctor: field 'unitors[x][*]' must be a string, got null"),
        ("diagram_chain_compositor", _set("compositors", "f;g", value=["s"]),
         "pseudofunctor: field 'compositors[f;g]' must be an object, got a list"),
        ("diagram_chain_compositor", _set("on_objects", "y", value=3),
         "pseudofunctor: field 'on_objects[y]' must be an object or a file path, got a number"),
        ("diagram_chain_compositor", _set("variance", value=False),
         "pseudofunctor: field 'variance' must be a string, got false"),
        ("two_f", _set("category", value={"objects": ["a"], "arrows": ["ia"], "identities": {}}),
         "category: field 'arrows[0]' must be an object, got a string"),
        ("bundle_contra", _set("against", 1, value=1),
         "diagram-bundle: field 'against[1]' must be an object or a file path, got a number"),
    ],
    ids=["object_name", "arrow_src", "arrow_tgt_missing", "identity", "compose_row",
         "functor_map", "on_arrows_object_map", "on_arrows_maps_missing", "unitor_component",
         "compositor", "fiber_reference", "variance", "inline_category_arrow",
         "against_item"],
)
def test_nested_misfit_is_named_by_its_path(capsys, tmp_path, fixture, edit, message):
    # the first value that does not fit its kind's shape is named by its
    # JSON path and JSON type before any loader reads the document; an
    # inline sub-document is named by its own kind
    shutil.copytree(FIX, tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{fixture}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "validate", path)[:2] == (2, f"error: {message}\n")


def test_extra_fields_are_ignored(capsys, tmp_path):
    data = json.loads((FIX / "two.json").read_text(encoding="utf-8"))
    data["note"] = [None]
    data["arrows"][0]["tag"] = {"x": 1}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "validate", path)[:2] == (0, "category: valid\n")


@pytest.mark.parametrize(
    "flags,passed", [((), {}), (("--exhaustive",), {"exhaustive_limit": 10**9})],
    ids=["default", "exhaustive"],
)
def test_localize_takes_the_library_default_limit(monkeypatch, capsys, flags, passed):
    # only --exhaustive sets a limit; otherwise localize's own default holds
    seen = []
    exact = catfrac.cli.localize

    def spy(inp, **kwargs):
        seen.append(kwargs)
        return exact(inp, **kwargs)

    monkeypatch.setattr(catfrac.cli, "localize", spy)
    assert run(capsys, "localize", FIX / "chain_f.json", *flags)[0] == 0
    assert seen == [passed]


def test_entry_point_runs_as_a_module(tmp_path):
    # the real entry point, in a fresh interpreter: a name that is not a
    # string ends in a message naming its path, not a traceback
    src = Path(catfrac.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))

    def validate(path):
        return subprocess.run(
            [sys.executable, "-m", "catfrac", "validate", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )

    good = validate(FIX / "two.json")
    assert (good.returncode, good.stdout, good.stderr) == (0, "category: valid\n", "")
    data = json.loads((FIX / "two.json").read_text(encoding="utf-8"))
    data["objects"] = [["a"], "b"]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    bad = validate(path)
    assert bad.returncode == 2
    assert bad.stdout == "error: category: field 'objects[0]' must be a string, got a list\n"
    assert "Traceback" not in bad.stderr



def _objects_reversed(D):
    """The internal elements category with its objects listed backwards:
    lawful and isomorphic, but no longer aligned with the direct route."""
    IE = internal_elements(D)
    rev = tuple(reversed(range(IE.c0.size)))
    s = FinSetMap(IE.c1, IE.c0, tuple(rev[x] for x in IE.s.table))
    t = FinSetMap(IE.c1, IE.c0, tuple(rev[x] for x in IE.t.table))
    e = FinSetMap(IE.c0, IE.c1, tuple(IE.e.table[rev[x]] for x in range(IE.c0.size)))
    P, _, _ = pullback(t, s)
    return InternalCategory(IE.c0, IE.c1, s, t, e, FinSetMap(P, IE.c1, IE.c.table))


def _members_reversed(GD):
    return CleavageSet(tuple(reversed(cleavage(GD).members)))


def _all_marked(inp):
    return localize(FractionsInput(inp.category, inp.category.arrows))


def _one_class_pair_too_many(IC, w):
    exact = catfrac.ambient._span_machinery

    def wider(IC, w):
        M = exact(IC, w)
        M.P2 = FinSetObject("P2", M.P2.size + 1)
        return M

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catfrac.ambient, "_span_machinery", wider)
        return verify_pairs_coequalizer(IC, w)


ELEMENTS_OK = "elements: ok (3 objects, 6 arrows)\n"
CLEAVAGE_OK = "cleavage: ok (4 arrows)\n"
LOCALIZATION_OK = "localization: ok (3 objects, 7 arrows)\n"
PAIRS_OK = "composable pairs: pullback vs coequalizer: pass (pair classes=15, class pairs=15)\n"


@pytest.mark.parametrize(
    "name,fake,out",
    [
        ("internal_elements", _objects_reversed,
         "elements: FAIL: arrow (id:a;a;id:a) has different endpoints on the two routes\n"
         + CLEAVAGE_OK
         + "localization: FAIL: arrow [(id:a;a;id:a);(id:a;a;id:a)] has different endpoints "
         "on the two routes\n" + PAIRS_OK),
        ("cleavage", _members_reversed,
         ELEMENTS_OK
         + "cleavage: FAIL: ('(id:a;a;id:a)', '(id:a;b;id:b)', '(id:b;*;id:*)', '(f;*;id:b)') "
         "vs ('(f;*;id:b)', '(id:b;*;id:*)', '(id:a;b;id:b)', '(id:a;a;id:a)')\n"
         "localization: FAIL: arrow [(f;*;id:b);(id:a;b;id:b)] has different endpoints "
         "on the two routes\n" + PAIRS_OK),
        ("localize", _all_marked,
         ELEMENTS_OK + CLEAVAGE_OK
         + "localization: FAIL: size mismatch: 3/7 vs 3/9 objects/arrows\n" + PAIRS_OK),
        ("verify_pairs_coequalizer", _one_class_pair_too_many,
         ELEMENTS_OK + CLEAVAGE_OK + LOCALIZATION_OK
         + "composable pairs: pullback vs coequalizer: FAIL (pair classes=15, class pairs=16)\n"
         "  - comparison map is not surjective\n"),
    ],
    ids=["elements", "cleavage", "localization", "pairs"],
)
def test_crosscheck_reports_each_disagreement(monkeypatch, capsys, name, fake, out):
    # one route of one comparison is perturbed; what depends on it fails too
    monkeypatch.setattr(catfrac.cli, name, fake)
    assert run(capsys, "crosscheck", FIX / "diagram_contra_two.json")[:2] == (1, out)


def test_positional_mismatch_names_each_difference():
    two, z2 = corpus.two(), corpus.z2()
    assert _positional_mismatch(two, corpus.one()) == (
        "size mismatch: 2/3 vs 1/1 objects/arrows"
    )
    # the same arrows listed in another order: f sits where id:b was
    moved = FinCategory.build(
        list(two.objects), [(f, two.src[f], two.tgt[f]) for f in ("id:a", "f", "id:b")],
        dict(two.identity), {},
    )
    assert _positional_mismatch(two, moved) == "arrow f has different endpoints on the two routes"
    # one object, so every endpoint agrees, but the identity moved
    swapped = FinCategory.build(
        ["*"], [(f, "*", "*") for f in reversed(z2.arrows)], {"*": "id:*"}, {("s", "s"): "id:*"}
    )
    assert _positional_mismatch(z2, swapped) == "identity at * differs between the two routes"
