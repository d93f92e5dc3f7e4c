"""Every CLI command on documents drawn by hypothesis: fixtures with a
random kind, with top-level fields of the wrong JSON type, bundles whose
``against`` is not a list, and fixtures with their references read in place
and values deleted, replaced or renamed at nested paths that their kind's
fields in ``cli.KINDS`` type: arrow and compose rows, functor maps,
``on_arrows`` entries, unitor and compositor components, ``weq`` and
``against`` items, and the same inside an index, a fiber or a test
category.  A rename puts another name of the same document in a name's
place, so the document stays well typed but may break a law (a composite
in the wrong hom-set); one index is renamed exhaustively.  Whatever the
document, ``main`` returns an exit code, and an exit 2 says why on an
``error:`` line; any other exception escaping ``main`` is a library bug."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catfrac.cli import KINDS, main

FIX = Path(__file__).parent / "fixtures"

BASES = ["two", "two_all", "functor_pick", "diagram_contra_two", "bundle_contra"]
NESTED_BASES = ["chain", "z2", "two_all", "functor_pick", "diagram_chain_compositor",
                "diagram_contra_two", "bundle_contra"]
FIELDS = ["objects", "arrows", "identities", "compose", "dom", "cod", "on_objects", "on_arrows",
          "index", "variance", "unitors", "compositors", "category", "weq", "diagram", "against"]
COMMANDS = [
    ("validate",),
    ("groth", "--contravariant"),
    ("axioms",),
    ("localize",),
    ("verify", "oplax"),
    ("verify", "localization", "--against", str(FIX / "iso.json")),
    ("verify", "pseudocolim"),
    ("crosscheck",),
]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False),
    st.text("abfs.*", max_size=3),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.text("abfs", max_size=2), SCALARS, max_size=2),
)
KIND_VALUES = st.one_of(st.sampled_from([*KINDS, "bogus"]), VALUES)
AGAINST_VALUES = st.one_of(
    st.text("abjons.", max_size=8),
    st.dictionaries(st.sampled_from(["one.json", "two.json"]), SCALARS, max_size=2),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
)


@st.composite
def documents(draw):
    doc = json.loads((FIX / f"{draw(st.sampled_from(BASES))}.json").read_text(encoding="utf-8"))
    if draw(st.booleans()):
        doc.pop("kind")
    else:
        doc["kind"] = draw(KIND_VALUES)
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        doc[field] = draw(VALUES)
    return doc


@st.composite
def bundles(draw):
    doc = json.loads((FIX / "bundle_contra.json").read_text(encoding="utf-8"))
    doc["against"] = draw(AGAINST_VALUES)
    return doc


def _read(name: str) -> dict:
    return json.loads((FIX / name).read_text(encoding="utf-8"))


def typed_values(doc: dict, inline: bool = False) -> list:
    """(path, value, shape, home) for every value below the top level of
    ``doc`` that its kind's fields type, through inline references and
    wherever the document still fits; ``home`` is the path of the
    (sub-)document the value lies in. With ``inline``, a reference by path
    is first read in place, so that the paths reach into an index, a fiber
    or a test category."""
    todo, found = [((), doc, doc["kind"], ())], []
    for path, value, shape, home in todo:
        if path:
            found.append((path, value, shape, home))
        if isinstance(shape, str) and isinstance(value, dict):
            shape, home = KINDS[value.get("kind", shape)][2], path
        if isinstance(shape, list) and isinstance(value, list):
            children = [(i, shape[0]) for i in range(len(value))]
        elif isinstance(shape, dict) and isinstance(value, dict):
            children = [(key, shape[str]) for key in value] if str in shape else [
                (field.rstrip("?"), sub) for field, sub in shape.items()
                if field.rstrip("?") in value
            ]
        else:
            continue
        for key, sub in children:
            if inline and isinstance(sub, str) and isinstance(value[key], str):
                value[key] = _read(value[key])
            todo.append(((*path, key), value[key], sub, home))
    return found


# fixtures of the kinds a reference names, lawful or not
FILES = {
    "category": ["one.json", "two.json", "z2.json", "bad_category.json"],
    "pseudofunctor": ["diagram_contra_two.json", "diagram_chain_compositor.json"],
}


def fitting(shape, names: list):
    """Values that fit ``shape``, every name drawn from ``names``: a
    document misplaced in meaning rather than in type."""
    if shape is str:
        return st.sampled_from(names)
    if isinstance(shape, str):
        return st.sampled_from(FILES[shape])
    if isinstance(shape, list):
        return st.lists(fitting(shape[0], names), max_size=2)
    if str in shape:
        return st.dictionaries(st.sampled_from(names), fitting(shape[str], names), max_size=2)
    return st.fixed_dictionaries({
        field.rstrip("?"): fitting(sub, names) for field, sub in shape.items()
    })


def _parent(doc: dict, path: tuple):
    """The container of the value at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def nested(draw):
    """A fixture, references read in place, with one or two values below its
    top level deleted, replaced by any JSON value or one that fits, or
    renamed: a name replaced by another of its own (sub-)document, well
    typed but wrong in meaning. The (sub-)document is drawn first, so that
    a small index is reached as often as a large fiber."""
    doc = _read(f"{draw(st.sampled_from(NESTED_BASES))}.json")
    typed_values(doc, inline=True)
    for _ in range(draw(st.integers(1, 2))):
        values = [row for row in typed_values(doc) if len(row[0]) > 1]
        home = draw(st.sampled_from(sorted({row[3] for row in values})))
        path, _, shape, _ = draw(st.sampled_from([row for row in values if row[3] == home]))
        names = sorted({value for _, value, _, at in values
                        if at == home and isinstance(value, str)})
        parent = _parent(doc, path)
        edit = draw(st.sampled_from(["delete", "replace", "rename"]))
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "rename" and shape is str and names:
            parent[path[-1]] = draw(st.sampled_from(names))
        else:
            parent[path[-1]] = draw(st.one_of(VALUES, fitting(shape, names)))
    return doc


@pytest.fixture(scope="module")
def fixture_copy(tmp_path_factory):
    """A directory holding the fixtures, so a drawn document's references
    resolve; the document itself is written beside them."""
    directory = tmp_path_factory.mktemp("fuzz")
    for path in FIX.glob("*.json"):
        shutil.copy(path, directory)
    return directory


def answers(directory: Path, doc: dict, commands=COMMANDS) -> None:
    """Run every command on ``doc``, written to ``directory``: each returns
    0, 1 or 2, and an exit 2 prints an ``error:`` line."""
    path = directory / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for name, *rest in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([name, str(path), *rest])
        assert code in (0, 1, 2), (name, code)
        if code == 2:
            assert any(line.startswith("error:") for line in out.getvalue().splitlines()), (
                name, out.getvalue()
            )


@settings(max_examples=50, deadline=2000)
@given(doc=st.one_of(documents(), bundles()))
def test_every_command_answers_any_document(fixture_copy, doc):
    answers(fixture_copy, doc)


@settings(max_examples=100, deadline=2000)
@given(doc=nested())
def test_every_command_answers_any_nested_misfit(fixture_copy, doc):
    answers(fixture_copy, doc)


def test_validate_answers_every_renamed_index_name(fixture_copy):
    # each name of a pseudofunctor's index replaced in turn by each other
    # name of the index: arrows moved, identities and composites misplaced,
    # as the drawn renames reach too rarely to be sure of
    doc = _read("diagram_chain_compositor.json")
    typed_values(doc, inline=True)
    slots = [row for row in typed_values(doc) if row[2] is str and row[3] == ("index",)]
    for path, value, _, _ in slots:
        for name in sorted({row[1] for row in slots} - {value}):
            renamed = json.loads(json.dumps(doc))
            _parent(renamed, path)[path[-1]] = name
            answers(fixture_copy, renamed, [("validate",)])
