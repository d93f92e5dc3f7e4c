"""Negative controls for refusals that no other test reaches: each input
below is malformed in one way, and the check written for that fault fires
with its exact message, raised or, for a validator's law, reported."""

import dataclasses
import json
from pathlib import Path

import pytest

import catfrac.cli
import corpus
from catfrac import (
    FinCategory,
    FinSetMap,
    FinSetObject,
    FractionsInput,
    Functor,
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    Modification,
    NatTrans,
    canonical_cocone,
    check_axioms,
    check_shape,
    coequalize_reflexive,
    coequalizer_mediate,
    compose_functors,
    compose_maps,
    coproduct,
    coproduct_mediate,
    derive_unit_compositors,
    enumerate_functors,
    enumerate_modifications,
    enumerate_nat_trans,
    enumerate_transformations,
    find_isomorphism,
    grothendieck,
    identity_functor,
    identity_map,
    identity_nat_trans,
    induced_functor,
    internal_cleavage,
    internal_elements,
    internal_localize,
    internalize,
    inverts,
    localize,
    pullback,
    pullback_mediate,
    span_compose,
    strictify,
    validate_internal_category,
    validate_internal_functor,
    validate_internal_nat_trans,
    validate_modification,
    validate_nat_trans,
    validate_pseudofunctor,
    validate_transformation,
    verify_oplax_colimit,
    verify_pseudocolimit,
    vertical_compose,
)
from catfrac.cli import main
from catfrac.diagram import (
    compose_modifications,
    compositor_inverse_component,
    identity_modification,
    unitor_inverse_component,
)
from catfrac.errors import DomainError, InputError, IntegrityError

FIX = Path(__file__).parent / "fixtures"
A, B, T = FinSetObject("A", 2), FinSetObject("B", 2), FinSetObject("T", 2)


def _cone_off_the_pullback():
    # the pullback of two constant maps onto different points is empty
    _, p0, p1 = pullback(FinSetMap(A, T, (0, 0)), FinSetMap(B, T, (1, 1)))
    Z = FinSetObject("Z", 1)
    pullback_mediate(p0, p1, FinSetMap(Z, A, (0,)), FinSetMap(Z, B, (1,)))


def _legs_off_other_blocks():
    S, injections = coproduct([A])
    coproduct_mediate(S, injections, [FinSetMap(B, T, (0, 1))])


def _legs_into_two_objects():
    S, injections = coproduct([A, B])
    coproduct_mediate(S, injections, [FinSetMap(A, T, (0, 1)), FinSetMap(B, A, (0, 1))])


def _block_left_out():
    S, injections = coproduct([A, B])
    coproduct_mediate(S, injections[:1], [FinSetMap(A, T, (0, 1))])


def _leg_off_another_set():
    _, q = coequalize_reflexive(FinSetMap(A, B, (0, 1)), FinSetMap(A, B, (0, 1)))
    coequalizer_mediate(q, FinSetMap(A, T, (0, 1)))


def _quotient_not_onto():
    coequalizer_mediate(FinSetMap(A, T, (0, 0)), FinSetMap(A, B, (1, 1)))


def _borrowed(field, other):
    """chain3 internalized, with one structure map replaced by another."""
    IC = internalize(corpus.chain3())
    tables = dict(s=IC.s, t=IC.t, e=IC.e)
    tables[field] = tables[other]
    validate_internal_category(InternalCategory(IC.c0, IC.c1, c=IC.c, **tables))


def _walking_arrow_all():
    """The walking arrow with every arrow marked."""
    C = corpus.two()
    return FractionsInput(C, C.arrows)


def _chain3_without(f, g):
    """chain(3) built with no composite of (f, g)."""
    C = corpus.chain(3)
    comp = {pair: h for pair, h in C.composition.items() if pair != (f, g)}
    arrows = [(h, C.src[h], C.tgt[h]) for h in C.arrows]
    return FinCategory.build(C.objects, arrows, C.identity, comp)


def _built_keyed_by(key):
    """The walking composable pair x -f-> y -j-> z through
    ``FinCategory.build``, its one composite of non-identity arrows keyed by
    the string ``key``: "fj" unpacks as the pair ('f', 'j') but is no key of
    it, and "fjx" unpacks as no pair."""
    arrows = [("1", "x", "x"), ("2", "y", "y"), ("3", "z", "z"),
              ("f", "x", "y"), ("j", "y", "z"), ("h", "x", "z")]
    return FinCategory.build(["x", "y", "z"], arrows, {"x": "1", "y": "2", "z": "3"},
                             {key: "h"})


def _raw_keyed_by(key):
    """The walking arrow x -f-> y with identities i and j, by the raw
    constructor, which checks nothing, its (f, j) entry keyed by the
    string ``key``."""
    ends = {"i": "x", "j": "y", "f": "x"}, {"i": "x", "j": "y", "f": "y"}
    comp = {("i", "i"): "i", ("i", "f"): "f", key: "f", ("j", "j"): "j"}
    return FinCategory(("x", "y"), ("i", "j", "f"), *ends, {"x": "i", "y": "j"}, comp)


def _raw_without_ff():
    """One object with an endomorphism f, built by the raw constructor, which
    checks nothing, with no composite of (f, f)."""
    ends = {"1": "x", "f": "x"}
    comp = {("1", "1"): "1", ("1", "f"): "f", ("f", "1"): "f"}
    return FinCategory(("x",), ("1", "f"), ends, dict(ends), {"x": "1"}, comp)


def _raw_stray_for_missing():
    """The walking arrow x -f-> y by the raw constructor, its table missing
    (f, 1y) and holding the non-composable (1y, f) instead: as many entries
    as composable pairs, one of them on no such pair."""
    ends = {"1x": "x", "1y": "y", "f": "x"}, {"1x": "x", "1y": "y", "f": "y"}
    comp = {("1x", "1x"): "1x", ("1x", "f"): "f", ("1y", "1y"): "1y", ("1y", "f"): "f"}
    return FinCategory(("x", "y"), ("1x", "1y", "f"), *ends, {"x": "1x", "y": "1y"}, comp)


def _reassigned(field, value):
    """The walking arrow fully marked, its axioms decided, then one field
    reassigned: the kept index and verdict were derived from the old W."""
    inp = _walking_arrow_all()
    check_axioms(inp)
    setattr(inp, field, value)


def _identity_without_f():
    """The identity functor of the walking arrow, with no image of f."""
    F = identity_functor(corpus.two())
    del F.on_arrows["f"]
    return F


def _marks_into_the_objects():
    IC = internalize(corpus.chain3())
    internal_localize(IC, FinSetMap(FinSetObject("W", 1), IC.c0, (0,)))


def _covariant_cleavage():
    internal_cleavage(corpus.diag_cov_two(), internal_elements(corpus.diag_contra_two()))


def _unparallel_transformation():
    validate_nat_trans(NatTrans(identity_functor(corpus.two()), identity_functor(corpus.one()), {}))


def _internal(C):
    return internalize(getattr(corpus, C)())


def _internal_functor(dom, cod, f0, f1):
    """The internal functor between the internalized corpus categories dom
    and cod with these object and arrow tables."""
    D, C = _internal(dom), _internal(cod)
    return InternalFunctor(D, C, FinSetMap(D.c0, C.c0, f0), FinSetMap(D.c1, C.c1, f1))


def _off_its_ends(part):
    """The walking arrow into the walking iso, a, b -> a, b and f -> u, with
    the object or the arrow part replaced by a map into the wrong set."""
    F = _internal_functor("two", "iso", (0, 1), (0, 1, 2))
    if part == "objects":
        F.f0 = FinSetMap(F.dom.c0, F.cod.c1, (0, 1))
    else:
        F.f1 = FinSetMap(F.dom.c1, F.cod.c0, (0, 1, 0))
    validate_internal_functor(F)


def _internal_nat_trans(components, codomain="c1"):
    """A transformation from the identity of the internalized walking arrow
    to the functor constant at b, with these components (arrow positions,
    or object positions into the objects when ``codomain`` is "c0")."""
    two = _internal("two")
    idf = InternalFunctor(two, two, identity_map(two.c0), identity_map(two.c1))
    const_b = InternalFunctor(two, two, FinSetMap(two.c0, two.c0, (1, 1)),
                              FinSetMap(two.c1, two.c1, (1, 1, 1)))
    return InternalNatTrans(idf, const_b, FinSetMap(two.c0, getattr(two, codomain), components))


@pytest.mark.parametrize(
    "run,error,message",
    [
        (lambda: FinSetObject("A", -1), InputError, "negative size for 'A'"),
        (lambda: FinSetObject(["a"], 1), InputError,
         "label of a finite set must be a string, got ['a']"),
        (lambda: FinSetMap(2, 2, ()), InputError, "map domain must be a finite set, got 2"),
        (lambda: FinSetMap(A, "B", (0, 0)), InputError,
         "map codomain must be a finite set, got 'B'"),
        (lambda: compose_maps(FinSetMap(A, B, (0, 1)), FinSetMap(A, B, (0, 1))), DomainError,
         "maps not composable: FinSetObject(label='B', size=2) vs FinSetObject(label='A', size=2)"),
        (_cone_off_the_pullback, DomainError,
         "cone element 0 has 0 factorizations through the pullback"),
        (_legs_off_other_blocks, DomainError, "legs do not match the coproduct blocks"),
        (_legs_into_two_objects, DomainError, "legs have different codomains"),
        (_block_left_out, DomainError, "injections do not cover the coproduct"),
        (lambda: coequalize_reflexive(FinSetMap(A, B, (0, 1)), FinSetMap(A, T, (0, 1))),
         DomainError, "coequalizer needs a parallel pair"),
        (_leg_off_another_set, DomainError, "leg does not start at the quotient's source"),
        (_quotient_not_onto, DomainError, "quotient map is not surjective"),
        (lambda: _borrowed("s", "e"), InputError, "source map has wrong endpoints"),
        (lambda: _borrowed("t", "e"), InputError, "target map has wrong endpoints"),
        (lambda: _borrowed("e", "s"), InputError, "identity map has wrong endpoints"),
        (_covariant_cleavage, DomainError, "the cleavage exists for contravariant diagrams only"),
        (_marks_into_the_objects, InputError, "marked-arrows map does not land in the arrow set"),
        (lambda: compose_functors(identity_functor(corpus.two()), identity_functor(corpus.one())),
         DomainError, "functors not composable: codomain/domain mismatch"),
        (_unparallel_transformation, DomainError,
         "natural transformation between non-parallel functors"),
        (lambda: check_shape(corpus.two(), "sideways"), DomainError,
         "unknown shape direction 'sideways'"),
        (lambda: _off_its_ends("objects"), InputError, "object part has wrong endpoints"),
        (lambda: _off_its_ends("arrows"), InputError, "arrow part has wrong endpoints"),
        (lambda: validate_internal_nat_trans(_internal_nat_trans((1, 1), "c0")), InputError,
         "component map has wrong endpoints"),
        (lambda: localize(_walking_arrow_all(), exhaustive_limit="5"), DomainError,
         "exhaustive_limit must be an integer of at least 0, got '5'"),
        (lambda: localize(_walking_arrow_all(), exhaustive_limit=None), DomainError,
         "exhaustive_limit must be an integer of at least 0, got None"),
        (lambda: localize(_walking_arrow_all(), exhaustive_limit=True), DomainError,
         "exhaustive_limit must be an integer of at least 0, got True"),
        (lambda: localize(_walking_arrow_all(), exhaustive_limit=-1), DomainError,
         "exhaustive_limit must be an integer of at least 0, got -1"),
        (lambda: span_compose(_walking_arrow_all(), ("f",), ("id:b", "id:b")), InputError,
         "a span is a pair (v, g), got ('f',)"),
        (lambda: span_compose(_walking_arrow_all(), ("id:a", "f", "x"), ("id:b", "id:b")),
         InputError, "a span is a pair (v, g), got ('id:a', 'f', 'x')"),
        (lambda: span_compose(_walking_arrow_all(), ("id:a", "f"), None), InputError,
         "a span is a pair (v, g), got None"),
        (lambda: span_compose(_walking_arrow_all(), (["f"], "id:b"), ("id:b", "id:b")),
         InputError, "a span is a pair (v, g) of arrows, got (['f'], 'id:b')"),
        (lambda: span_compose(_walking_arrow_all(), ("id:a", "f"), ("id:b", ["x"])),
         InputError, "a span is a pair (v, g) of arrows, got ('id:b', ['x'])"),
        (lambda: inverts(_identity_without_f(), _walking_arrow_all()), DomainError,
         "the functor has no image of arrow 'f'"),
        (lambda: induced_functor(_identity_without_f(), localize(_walking_arrow_all())),
         DomainError, "the functor has no image of arrow 'f'"),
        (lambda: FractionsInput(corpus.two(), "f"), InputError,
         "the marked arrows are a sequence of arrow names, got 'f'"),
        (lambda: FractionsInput(corpus.two(), None), InputError,
         "the marked arrows are a sequence of arrow names, got None"),
        (lambda: FractionsInput(corpus.two(), 3), InputError,
         "the marked arrows are a sequence of arrow names, got 3"),
        # a set's order follows string hashing, and W's order names classes
        (lambda: FractionsInput(corpus.two(), {"f"}), InputError,
         "the marked arrows are a sequence of arrow names, got {'f'}"),
        (lambda: FractionsInput(corpus.two(), frozenset({"f"})), InputError,
         "the marked arrows are a sequence of arrow names, got frozenset({'f'})"),
        (lambda: check_axioms(FractionsInput(None, ())), InputError,
         "the marked category is a FinCategory, got None"),
        (lambda: span_compose(FractionsInput(corpus.two(), ("id:a", "id:b", "f", "zz")),
                              ("id:a", "f"), ("id:b", "id:b")),
         InputError, "marked arrow 'zz' is not in the category"),
        (lambda: check_axioms(_walking_arrow_all()).finding(0), DomainError,
         "an axiom number is 1, 2, 3 or 4, got 0"),
        (lambda: check_axioms(_walking_arrow_all()).finding(5), DomainError,
         "an axiom number is 1, 2, 3 or 4, got 5"),
        (lambda: _chain3_without("0<1", "1<2"), InputError,
         "composition table is partial: missing ('0<1','1<2')"),
        (lambda: internalize(_raw_without_ff()), InputError,
         "composition table is partial: missing ('f','f')"),
        # the positional view refuses the partial table before any search
        (lambda: check_axioms(FractionsInput(_raw_without_ff(), ("1", "f"))), InputError,
         "composition table is partial: missing ('f','f')"),
        (lambda: localize(FractionsInput(_raw_without_ff(), ("1", "f"))), InputError,
         "composition table is partial: missing ('f','f')"),
        # the stray entry is the first defect FinCategory.build names
        (lambda: internalize(_raw_stray_for_missing()), InputError,
         "composition entry for non-composable pair ('1y','f')"),
        (lambda: _reassigned("weq", ("f",)), dataclasses.FrozenInstanceError,
         "cannot assign to field 'weq'"),
        (lambda: _reassigned("category", corpus.iso()), dataclasses.FrozenInstanceError,
         "cannot assign to field 'category'"),
    ],
    ids=[
        "negative_size", "unhashable_label", "map_domain", "map_codomain", "maps_not_composable", "cone_off_pullback", "legs_off_blocks",
        "legs_codomains", "coproduct_uncovered", "coequalizer_unparallel", "leg_source",
        "quotient_not_onto", "source_endpoints", "target_endpoints", "identity_endpoints",
        "covariant_cleavage", "marks_off_arrows", "functors_not_composable",
        "transformation_unparallel", "shape_direction", "object_part_endpoints",
        "arrow_part_endpoints", "component_map_endpoints", "limit_str", "limit_none",
        "limit_bool", "limit_negative", "span_one_entry", "span_three_entries", "span_none",
        "span_unhashable_mark", "span_unhashable_arrow", "inverts_missing_image",
        "induced_missing_image", "marks_a_string", "marks_none", "marks_not_iterable",
        "marks_a_set", "marks_a_frozenset", "marks_no_category", "span_bad_mark", "finding_zero", "finding_five", "partial_table",
        "internalize_partial_table",
        "check_axioms_partial_table", "localize_partial_table", "partial_with_a_stray_entry",
        "reassign_weq", "reassign_category",
    ],
)
def test_library_refusal(run, error, message):
    with pytest.raises(error) as exc:
        run()
    assert str(exc.value) == message


# the entry points that read a category through its positional view
VIEW_READERS = {
    "enumerate_functors": lambda C: enumerate_functors(C, corpus.z2()),
    "find_isomorphism": lambda C: find_isomorphism(C, C),
    "check_shape": lambda C: check_shape(C, "filtered"),
    "check_axioms": lambda C: check_axioms(FractionsInput(C, ())),
}
# a composition key that is a string is refused before it is unpacked, by
# the view and by FinCategory.build alike
KEY_ROWS = {
    f"{reader}_{key}": (lambda read=read, key=key: read(_raw_keyed_by(key)), key)
    for key in ("fj", "fjx")
    for reader, read in VIEW_READERS.items()
} | {f"build_{key}": (lambda key=key: _built_keyed_by(key), key) for key in ("fj", "fjx")}


@pytest.mark.parametrize("row", KEY_ROWS)
def test_string_key_refusal(row):
    run, key = KEY_ROWS[row]
    with pytest.raises(InputError) as exc:
        run()
    assert str(exc.value) == f"composition key {key!r} is not a pair of arrows"


# an entry point given a value that is not a category, in either place
NOT_CATEGORY_ROWS = {
    f"{name}_{value!r}": (lambda run=run, value=value: run(value), value)
    for value in ("x", 3, None)
    for name, run in {
        "enumerate_functors_dom": lambda C: enumerate_functors(C, corpus.z2()),
        "enumerate_functors_cod": lambda X: enumerate_functors(corpus.z2(), X),
        "find_isomorphism_first": lambda C: find_isomorphism(C, corpus.z2()),
        "find_isomorphism_second": lambda D: find_isomorphism(corpus.z2(), D),
        "check_shape": lambda A: check_shape(A, "filtered"),
    }.items()
}


@pytest.mark.parametrize("row", NOT_CATEGORY_ROWS)
def test_not_a_category_refusal(row):
    run, value = NOT_CATEGORY_ROWS[row]
    with pytest.raises(InputError) as exc:
        run()
    assert str(exc.value) == f"a category is a FinCategory, got {value!r}"


@pytest.mark.parametrize(
    "run,problems",
    [
        # the identity of a sent to e keeps every composite, as e;e = e
        (lambda: validate_internal_functor(_internal_functor("two", "idem", (0, 0), (1, 0, 1))),
         ["identity square does not commute"]),
        # s sent to e keeps the identity but not s;s = id
        (lambda: validate_internal_functor(_internal_functor("z2", "idem", (0,), (0, 1))),
         ["composition square fails at pair (1,1)"]),
        # the identities at a and b: the one at a ends at a, where the
        # constant functor has b, so the naturality squares do not compose
        (lambda: validate_internal_nat_trans(_internal_nat_trans((0, 1))), [
            "components do not end at the target functor",
            "naturality square at arrow 0 does not compose",
            "naturality square at arrow 2 does not compose",
        ]),
    ],
    ids=["identity_square", "composition_square", "components_end"],
)
def test_internal_problem(run, problems):
    assert run().problems == problems


# -- the diagram layer: strictification, the 2-cell algebra and the validators --


def _transformation(X=None, k=0):
    """The k-th transformation out of the walking arrow over the point,
    contravariant, into X (the walking arrow unless given)."""
    return enumerate_transformations(corpus.diag_contra_one(), X or corpus.two())[k]


def _changed(make, change):
    """``make()`` with ``change`` applied to it in place."""
    value = make()
    change(value)
    return value


def _pseudofunctor(change):
    return validate_pseudofunctor(_changed(corpus.diag_cov_two, change))


def _lax(change, X=None, k=1):
    """The report on that transformation, with ``change`` applied to it."""
    return validate_transformation(_changed(lambda: _transformation(X=X, k=k), change))


def _modification(components, k=1):
    """The report on a modification with these components, from the
    transformation at k of that list to the one at 1."""
    x, y = _transformation(k=k), _transformation(k=1)
    return validate_modification(Modification(x, y, components))


def _component(x, cells):
    F = x.components["*"]
    return {"*": NatTrans(F, F, cells)}


def _not_strict_at_the_identity():
    pt = corpus.one()
    strictify(pt, {"*": corpus.two()}, {"id:*": identity_functor(pt)})


def _modifications_not_composable():
    xs = enumerate_transformations(corpus.diag_swap_one(), corpus.iso())
    compose_modifications(identity_modification(xs[0]), identity_modification(xs[1]))


def _cells_not_composable():
    F, G = enumerate_functors(corpus.one(), corpus.two())[:2]
    vertical_compose(identity_nat_trans(F), identity_nat_trans(G))


def _component_missing_an_image(x):
    del x.components["*"].on_arrows["f"]


def _cell_at_identity(components):
    """A change that gives the two-cell at id:* these components."""
    def change(x):
        cell = x.two_cells["id:*"]
        x.two_cells["id:*"] = NatTrans(cell.src, cell.tgt, components)
    return change


def _uninvertible_unitor():
    D = corpus.diag_cov_two()
    D.unitors["a"].components["a"] = "f"
    unitor_inverse_component(D, "a", "a")


def _uninvertible_compositor():
    D = corpus.diag_contra_two()
    D.compositor("id:a", "f").components["*"] = "f"
    compositor_inverse_component(D, "id:a", "f", "*")


def _compositor_off_its_host():
    D = corpus.diag_cov_two()
    D.compositor("id:a", "f").components["a"] = "f"
    compositor_inverse_component(D, "id:a", "f", "a")


def _strictify_two(on_objects, on_arrows):
    """The walking arrow with the given entries; each value category is the
    point and each functor its identity."""
    pt = corpus.one()
    strictify(corpus.two(), {a: pt for a in on_objects}, {f: identity_functor(pt) for f in on_arrows})


def _derive_over_two(on_arrows):
    """Compositors over the walking arrow with the given functor entries;
    each value category is the point, with its identity unitors."""
    unit = identity_nat_trans(identity_functor(corpus.one()))
    derive_unit_compositors(
        corpus.two(), "covariant", {f: unit.src for f in on_arrows}, {"a": unit, "b": unit}, {}
    )


def _strict_z2_over_two():
    """Z/2 at both ends of the walking arrow, every functor the identity."""
    Z, idx = corpus.z2(), corpus.two()
    return strictify(idx, {"a": Z, "b": Z}, {f: identity_functor(Z) for f in idx.arrows})


def _unit_incoherent():
    # complete, and strict except that the compositor at (id:a, f) is the
    # generator s, which breaks the left unit law at f
    D = _strict_z2_over_two()
    D.compositor("id:a", "f").components["*"] = "s"
    return D


def _transformations_out_of_a_unit_incoherent_diagram():
    # the search skips the identity-leg pairs on that law
    enumerate_transformations(_unit_incoherent(), corpus.two())


def _validate_a_cocone_out_of_a_unit_incoherent_diagram():
    # the canonical cocone of the strict diagram, read as a transformation
    # out of the incoherent one: its source is refused, not reported on
    strict = _strict_z2_over_two()
    cocone = canonical_cocone(strict, grothendieck(strict))
    validate_transformation(dataclasses.replace(cocone, source=_unit_incoherent()))


NO_IDENTITY = FinCategory(("x",), (), {}, {}, {}, {})


def _contra_without_unitor_component():
    D = corpus.diag_contra_two()
    del D.unitors["a"].components["a"]
    return D


def _contra_without_compositor():
    D = corpus.diag_contra_two()
    del D.compositors[("id:a", "id:a")]
    return D


def _cov_without_compositor_component():
    D = corpus.diag_cov_two()
    del D.compositor("id:a", "f").components["a"]
    return D


def _lawful_twin(D):
    """The diagram D was made from by leaving something out."""
    return corpus.diag_contra_two() if D.variance == "contravariant" else corpus.diag_cov_two()


def _cocone_of(D):
    """The canonical cocone of D's lawful twin, read as a transformation out of D."""
    twin = _lawful_twin(D)
    return dataclasses.replace(canonical_cocone(twin, grothendieck(twin)), source=D)


# every construction that reads a diagram refuses a partial one through the
# diagram's law verdict, with the validator's message; the ambient elements
# and the pseudocolimit verifier refuse a covariant diagram first
READERS = {
    "cocone": lambda D: canonical_cocone(D, grothendieck(_lawful_twin(D))),
    "validate_transformation": lambda D: validate_transformation(_cocone_of(D)),
    "grothendieck": grothendieck,
    "internal_elements": internal_elements,
    "oplax": lambda D: verify_oplax_colimit(D, corpus.two()),
    "pseudocolim": lambda D: verify_pseudocolimit(D, corpus.two()),
    "transformations": lambda D: enumerate_transformations(D, corpus.two()),
}
PARTIAL_DIAGRAMS = [
    ("unitor_component", _contra_without_unitor_component, READERS,
     "unitor at 'a': missing component at 'a'"),
    ("compositor", _contra_without_compositor, READERS,
     "no compositor for composable pair ('id:a', 'id:a')"),
    ("compositor_component", _cov_without_compositor_component,
     {k: READERS[k] for k in (
         "cocone", "validate_transformation", "grothendieck", "oplax", "transformations"
     )},
     "compositor at ('id:a', 'f'): missing component at 'a'"),
]
PARTIAL_ROWS = [
    (lambda make=make, read=read: read(make()), InputError, message)
    for _, make, readers, message in PARTIAL_DIAGRAMS
    for read in readers.values()
]
PARTIAL_IDS = [
    f"partial_{name}_{reader}"
    for name, _, readers, _ in PARTIAL_DIAGRAMS
    for reader in readers
]


@pytest.mark.parametrize(
    "run,error,message",
    [
        (lambda: strictify(corpus.one(), {"*": corpus.one()},
                           {"id:*": identity_functor(corpus.one())}, "sideways"),
         InputError, "unknown variance 'sideways'"),
        (_not_strict_at_the_identity, InputError, "assignment is not strict at identity of '*'"),
        (lambda: _strictify_two("ab", ["id:a", "id:b"]), InputError,
         "no functor assigned to index arrow 'f'"),
        (lambda: _strictify_two("a", ["id:a", "id:b", "f"]), InputError,
         "no category assigned to index object 'b'"),
        (lambda: _derive_over_two(["id:a", "id:b"]), InputError,
         "no functor assigned to index arrow 'f'"),
        (_modifications_not_composable, DomainError,
         "modifications are not vertically composable"),
        (_cells_not_composable, DomainError, "natural transformations not composable"),
        (lambda: enumerate_nat_trans(*map(identity_functor, (corpus.two(), corpus.one()))),
         DomainError, "cannot enumerate transformations between non-parallel functors"),
        (_uninvertible_unitor, DomainError, "unitor at 'a' has no inverse at object 'a'"),
        (_uninvertible_compositor, DomainError,
         "compositor at ('id:a', 'f') has no inverse at '*'"),
        (_compositor_off_its_host, InputError,
         "compositor at ('id:a', 'f') has component 'f' at 'a', which is not an arrow of its host"),
        (lambda: enumerate_transformations(corpus.diag_contra_one(), corpus.two(), "strong"),
         InputError, "unknown transformation kind 'strong'"),
        (_transformations_out_of_a_unit_incoherent_diagram, InputError,
         "left unit coherence fails at ('f', '*')"),
        (_validate_a_cocone_out_of_a_unit_incoherent_diagram, InputError,
         "left unit coherence fails at ('f', '*')"),
        (lambda: enumerate_modifications(_transformation(), _transformation(X=corpus.iso())),
         DomainError, "modification endpoints are not parallel"),
        (lambda: _pseudofunctor(lambda D: setattr(D, "variance", "sideways")), InputError,
         "unknown variance 'sideways'"),
        (lambda: _pseudofunctor(lambda D: D.index.identity.pop("a")), InputError,
         "index: no identity declared for object 'a'"),
        (lambda: _pseudofunctor(lambda D: D.on_objects.pop("b")), InputError,
         "no category assigned to index object 'b'"),
        (lambda: _pseudofunctor(lambda D: D.unitors.pop("b")), InputError,
         "no unitor at index object 'b'"),
        (lambda: _pseudofunctor(lambda D: D.on_arrows.pop("f")), InputError,
         "no functor assigned to index arrow 'f'"),
        (lambda: _pseudofunctor(lambda D: D.compositors.pop(("id:a", "f"))), InputError,
         "no compositor for composable pair ('id:a', 'f')"),
        (lambda: _pseudofunctor(lambda D: D.on_objects.update(b=NO_IDENTITY)), InputError,
         "value category at 'b': no identity declared for object 'x'"),
        (lambda: _lax(lambda x: x.components.clear()), InputError,
         "no component functor at index object '*'"),
        (lambda: _lax(lambda x: x.two_cells.clear()), InputError,
         "no two-cell at index arrow 'id:*'"),
        (lambda: _lax(_component_missing_an_image), InputError,
         "component at '*': functor arrow mapping not total: missing 'f'"),
        (lambda: _lax(_cell_at_identity({})), InputError,
         "two-cell at 'id:*': missing component at 'a'"),
        (lambda: _modification({}), InputError,
         "no modification component at '*'"),
        (lambda: validate_modification(Modification(
            _transformation(), _transformation(X=corpus.iso()), {})), DomainError,
         "modification endpoints are not parallel"),
        (lambda: _modification(_component(_transformation(k=1), {})), InputError,
         "component at '*': missing component at 'a'"),
    ] + PARTIAL_ROWS,
    ids=[
        "strictify_variance", "strictify_identity", "strictify_no_functor",
        "strictify_no_category", "derive_no_functor", "modifications_not_composable",
        "cells_not_composable", "nat_trans_unparallel", "unitor_not_invertible",
        "compositor_not_invertible", "compositor_off_its_host", "transformation_kind",
        "transformation_unit_coherence", "validate_transformation_unit_coherence",
        "modifications_unparallel",
        "diagram_variance", "index_structure", "no_category", "no_unitor",
        "no_functor", "no_compositor", "value_category_structure", "no_component",
        "no_two_cell", "component_structure", "two_cell_structure", "no_modification_component",
        "modification_unparallel", "modification_component_structure",
    ] + PARTIAL_IDS,
)
def test_diagram_refusal(run, error, message):
    with pytest.raises(error) as exc:
        run()
    assert str(exc.value) == message


def _lawless_two():
    C = corpus.two()
    C.composition[("f", "id:b")] = "id:a"
    return C


def _broken_component(x):
    F = x.components["*"]
    x.components["*"] = Functor(F.dom, F.cod, dict(F.on_objects), {**F.on_arrows, "f": "id:a"})


def _incompatible_modification():
    # over f : a -> b, contravariant, into Z/2: the identity at a against
    # the generator at b does not commute with the identity two-cells at f
    x = enumerate_transformations(corpus.diag_contra_two(), corpus.z2())[0]
    m = identity_modification(x)
    F = x.components["b"]
    m.components["b"] = NatTrans(F, F, {"*": "s"})
    return validate_modification(m)


@pytest.mark.parametrize(
    "run,problems",
    [
        (lambda: _pseudofunctor(lambda D: D.on_objects.update(a=_lawless_two())), [
            "value category at 'a': composite ('f','id:b')='id:a' lands in hom('a','a'), "
            "expected hom('a','b')",
            "value category at 'a': right identity law fails at ('f','id:b'): got 'id:a'",
            "value category at 'a': associativity fails at ('f','id:b','id:b'): "
            "(fid:b)id:b=None, f(id:bid:b)='id:a'",
        ]),
        (lambda: _pseudofunctor(lambda D: D.on_arrows.update(f=identity_functor(corpus.two()))),
         ["functor at 'f' has wrong endpoints for covariant variance"]),
        (lambda: _lax(lambda x: x.components.update({"*": identity_functor(corpus.one())})),
         ["component at '*' has wrong endpoints"]),
        (lambda: _lax(_broken_component),
         ["component at '*': functor breaks endpoints at 'f': image 'id:a'"]),
        (lambda: _lax(lambda x: x.two_cells.update(_transformation(k=0).two_cells)),
         ["two-cell at 'id:*' has wrong endpoint functors"]),
        (lambda: _lax(_cell_at_identity({"a": "f", "b": "id:b"})),
         ["two-cell at 'id:*': component at 'a' is 'f': 'a' -> 'b', expected 'a' -> 'a'"]),
        (lambda: _lax(_cell_at_identity({"a": "s", "b": "s"}), X=corpus.z2(), k=0), [
            "identity two-cell coherence fails at '*'",
            "composition coherence fails at ('id:*', 'id:*', 'a')",
            "composition coherence fails at ('id:*', 'id:*', 'b')",
        ]),
        (lambda: _modification({"*": identity_nat_trans(_transformation(k=1).components["*"])},
                               k=0),
         ["component at '*' has wrong endpoint functors"]),
        (lambda: _modification(_component(_transformation(k=1), {"a": "f", "b": "id:b"})),
         ["component at '*': component at 'a' is 'f': 'a' -> 'b', expected 'a' -> 'a'"]),
        (_incompatible_modification, ["two-cell compatibility fails at ('f', '*')"]),
    ],
    ids=[
        "value_category_laws", "functor_endpoints", "component_endpoints", "component_laws",
        "two_cell_endpoints", "two_cell_laws", "identity_two_cell", "modification_endpoints",
        "modification_component_laws", "two_cell_compatibility",
    ],
)
def test_diagram_problem(run, problems):
    assert run().problems == problems


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_cli_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert _run(capsys, "validate", path) == (2, f"error: {path}: top level must be an object\n")


def test_cli_refuses_an_unknown_variance(tmp_path, capsys):
    data = json.loads((FIX / "diagram_contra_two.json").read_text(encoding="utf-8"))
    data["variance"] = "sideways"
    for name in ("two.json", "one.json"):
        (tmp_path / name).write_text((FIX / name).read_text(encoding="utf-8"), encoding="utf-8")
    path = tmp_path / "sideways.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(capsys, "crosscheck", path) == (2, "error: unknown variance 'sideways'\n")


def test_cli_reports_an_integrity_failure(monkeypatch, capsys):
    """A fault inside crosscheck's own construction is the program's, not
    the input's: exit 1, named as an integrity failure."""

    def broken(D, ID):
        raise IntegrityError("cleavage element map is not injective")

    monkeypatch.setattr(catfrac.cli, "internal_cleavage", broken)
    assert _run(capsys, "crosscheck", FIX / "diagram_contra_two.json") == (
        1, "elements: ok (3 objects, 6 arrows)\n"
        "integrity failure: cleavage element map is not injective\n"
    )
