"""Every CLI command on top-level documents drawn by hypothesis: fixtures
with a random kind, with fields of the wrong JSON type, and bundles whose
``against`` is not a list.  Whatever the document, ``main`` returns an exit
code, and an exit 2 says why on an ``error:`` line."""

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


@pytest.fixture(scope="module")
def fixture_copy(tmp_path_factory):
    """A directory holding the fixtures, so a drawn document's references
    resolve; the document itself is written beside them."""
    directory = tmp_path_factory.mktemp("fuzz")
    for path in FIX.glob("*.json"):
        shutil.copy(path, directory)
    return directory


@settings(max_examples=50, deadline=2000)
@given(doc=st.one_of(documents(), bundles()))
def test_every_command_answers_any_document(fixture_copy, doc):
    path = fixture_copy / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for name, *rest in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([name, str(path), *rest])
        assert code in (0, 1, 2), (name, code)
        if code == 2:
            assert any(line.startswith("error:") for line in out.getvalue().splitlines()), (
                name, out.getvalue()
            )
