"""Raw tables against FinCategory.build: the raw constructor refuses with
InputError a table that has a structural defect, or that build would
complete, with build's message where build refuses it too; on every other
table, every public function of catfrac that takes a FinCategory answers
the raw constructor's category as it answers the category FinCategory.build
makes of the same table.  The functions are read off the package's exports,
so a new entry point has to join the table of calls below."""

import inspect
import typing

import pytest
from hypothesis import given, settings, strategies as st

import catfrac
import corpus
from catfrac import (
    FinCategory,
    FractionsInput,
    Functor,
    check_shape,
    compose,
    compose_many,
    derive_unit_compositors,
    enumerate_functors,
    enumerate_transformations,
    find_isomorphism,
    identity_functor,
    identity_nat_trans,
    internalize,
    nat_trans_search,
    opposite,
    strictify,
    two_sided_inverse,
    validate_category,
    verify_localization_up,
    verify_oplax_colimit,
    verify_pseudocolimit,
)
from catfrac.errors import InputError
from test_generated import build, categories

UNKNOWN = "zz"  # a name no drawn category declares

# the defects a drawn table carries, one at most: "misplaced" moves a
# composite to any arrow, a law violation (or none) that build accepts, and
# every other defect but "none" is structural
DEFECTS = (
    "none", "partial", "misplaced", "dangling_endpoint", "missing_endpoint", "duplicate_object",
    "duplicate_arrow", "stray_entry", "key_not_pair", "unknown_identity", "missing_identity",
    "extra_identity",
)


@st.composite
def raw_tables(draw) -> tuple:
    """A lawful category's table as the raw constructor's six fields, with
    one drawn defect written into it, or none."""
    C = build(draw(categories))
    objects, arrows = list(C.objects), list(C.arrows)
    src, tgt, identity, comp = dict(C.src), dict(C.tgt), dict(C.identity), dict(C.composition)
    arrow, obj, entry = st.sampled_from(arrows), st.sampled_from(objects), st.sampled_from(list(comp))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "partial":
        del comp[draw(entry)]
    elif defect == "misplaced":
        comp[draw(entry)] = draw(arrow)
    elif defect == "dangling_endpoint":
        draw(st.sampled_from([src, tgt]))[draw(arrow)] = UNKNOWN
    elif defect == "missing_endpoint":
        del draw(st.sampled_from([src, tgt]))[draw(arrow)]
    elif defect == "duplicate_object":
        objects.insert(draw(st.integers(0, len(objects))), draw(obj))
    elif defect == "duplicate_arrow":
        arrows.insert(draw(st.integers(0, len(arrows))), draw(arrow))
    elif defect == "stray_entry":
        # on a pair that does not compose, or naming an unknown arrow
        stray = [(f, g) for f in arrows for g in arrows if tgt[f] != src[g]]
        stray += [(f, UNKNOWN) for f in arrows] + [(UNKNOWN, f) for f in arrows]
        comp[draw(st.sampled_from(stray))] = draw(st.sampled_from(arrows + [UNKNOWN]))
    elif defect == "key_not_pair":
        f, g = pair = draw(entry)
        if draw(st.booleans()):
            del comp[pair]
        comp[draw(st.sampled_from([f + g, (f,), (f, g, f)]))] = draw(arrow)
    elif defect == "unknown_identity":
        identity[draw(obj)] = UNKNOWN
    elif defect == "missing_identity":
        del identity[draw(obj)]
    elif defect == "extra_identity":
        identity[UNKNOWN] = draw(arrow)
    return tuple(objects), tuple(arrows), src, tgt, identity, comp


def built(table: tuple):
    """FinCategory.build's category of the table, or the message it refuses
    the table with."""
    objects, arrows, src, tgt, identity, comp = table
    try:
        return FinCategory.build(
            objects, [(f, src.get(f), tgt.get(f)) for f in arrows], identity, comp
        )
    except InputError as exc:
        return str(exc)


ONE = corpus.one()
POINT = identity_functor(ONE)


def constant(C: FinCategory) -> tuple:
    """The fields of the diagram at the point over C: every object to ONE,
    every arrow to its identity functor."""
    return {x: ONE for x in C.objects}, {f: POINT for f in C.arrows}


def trivial_cells(C: FinCategory) -> tuple:
    """The identity unitors and compositors of ``constant(C)``, one per
    object and per composition entry."""
    cell = identity_nat_trans(POINT)
    return {x: cell for x in C.objects}, {pair: cell for pair in C.composition}


def constant_cells(C: FinCategory, X: FinCategory) -> list:
    """``nat_trans_search(C, X)``, then its search run on the functor
    constant at X's first object, twice: the functor reads only names, so
    a defect the search set-up lets through is not refused by another
    function."""
    search = nat_trans_search(C, X)
    x = X.objects[0]
    F = Functor(C, X, {y: x for y in C.objects}, {f: X.identity[x] for f in C.arrows})
    return search(F, F)


# per public function and parameter annotated FinCategory: a call with the
# drawn category there and lawful arguments elsewhere
CALLS = {
    ("check_shape", "A"): lambda C: [check_shape(C, d) for d in ("filtered", "cofiltered")],
    ("compose", "C"): lambda C: compose(C, C.arrows[0], C.arrows[0]),
    ("compose_many", "C"): lambda C: compose_many(C, C.arrows[0], C.arrows[0], C.arrows[0]),
    ("derive_unit_compositors", "index"): lambda C: derive_unit_compositors(
        C, "contravariant", constant(C)[1], *trivial_cells(C)
    ),
    ("enumerate_functors", "C"): lambda C: enumerate_functors(C, corpus.z2()),
    ("enumerate_functors", "X"): lambda X: enumerate_functors(corpus.two(), X),
    ("enumerate_transformations", "X"): lambda X: enumerate_transformations(
        corpus.diag_contra_two(), X
    ),
    ("find_isomorphism", "C"): lambda C: find_isomorphism(C, corpus.z2()),
    ("find_isomorphism", "D"): lambda D: find_isomorphism(corpus.z2(), D),
    ("identity_functor", "C"): identity_functor,
    ("internalize", "C"): internalize,
    ("nat_trans_search", "C"): lambda C: constant_cells(C, corpus.z2()),
    ("nat_trans_search", "X"): lambda X: constant_cells(corpus.two(), X),
    ("opposite", "C"): opposite,
    ("strictify", "index"): lambda C: strictify(C, *constant(C), "contravariant"),
    ("two_sided_inverse", "C"): lambda C: [two_sided_inverse(C, f) for f in C.arrows],
    ("validate_category", "C"): lambda C: str(validate_category(C)),
    ("verify_localization_up", "X"): lambda X: verify_localization_up(
        FractionsInput(corpus.two(), corpus.two().arrows), X
    ),
    ("verify_oplax_colimit", "X"): lambda X: verify_oplax_colimit(corpus.diag_contra_two(), X),
    ("verify_pseudocolimit", "X"): lambda X: verify_pseudocolimit(corpus.diag_contra_two(), X),
}


def category_parameters() -> set:
    """(name, parameter) for each public function of catfrac and each of
    its parameters annotated FinCategory."""
    found = set()
    for name in catfrac.__dict__:
        fn = getattr(catfrac, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        hints = typing.get_type_hints(fn)
        found |= {(name, p) for p, hint in hints.items() if hint is FinCategory and p != "return"}
    return found


def test_every_entry_point_that_takes_a_category_is_called():
    assert set(CALLS) == category_parameters()


def outcome(call, C: FinCategory) -> tuple:
    """What ``call(C)`` returns, or the type and message of what it raises."""
    try:
        return "returned", call(C)
    except Exception as exc:  # whatever it is, the two sides must agree
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(raw_tables())
def test_a_raw_table_is_refused_or_answered_as_build_answers(table):
    B = built(table)
    if isinstance(B, str):  # build refuses the table, with the same message
        with pytest.raises(InputError) as refused:
            FinCategory(*table)
        assert str(refused.value) == B
        return
    fields = B.objects, B.arrows, B.src, B.tgt, B.identity, B.composition
    if fields != table:  # build fills in a composable pair the table misses
        with pytest.raises(InputError, match="^composition table is partial: missing "):
            FinCategory(*table)
        return
    for key, call in CALLS.items():
        # a fresh category per call, so no view is carried over
        assert outcome(call, FinCategory(*table)) == outcome(call, B), key
