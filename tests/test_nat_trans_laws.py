"""The prepared natural-transformation search, and the identity and
composition laws the verifier engine relies on.

The engine compares 2-cells as sets of tuples and nothing else. Identities
are preserved because an identity 2-cell is, on both sides, the identity at
the image of each carrier object, and vertical composition because both
sides compose tuples componentwise in the target. That the listed 2-cells
hold the identities and are closed under composition is a theorem about
natural transformations and modifications; it is checked here, on the
corpus and on generated categories, against code the adapters do not use,
so that a search that loses a result or a wrong identity still fails
somewhere. The prepared search's counts are compared, on generated
categories, with the oracle's filter over the product of the component
hom-sets, so a search that returns early on an empty hom must still agree,
and on the corpus with the functors into the oracle's arrow category
(Kelly 1989), bucketed by their two ends. The lists themselves are compared
too: on the corpus against the walking arrow, the walking iso and Z/2, and
on generated categories and chain diagrams, ``nat_trans_search`` and
``modification_cells`` must list exactly what the oracle's filter over the
product of candidates keeps (every arrow checked, identities included), in
product order.
"""

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from catfrac import (
    NatTrans,
    enumerate_functors,
    enumerate_nat_trans,
    enumerate_transformations,
    grothendieck,
    identity_nat_trans,
    induced_functor,
    inverts,
    localize,
    nat_trans_search,
    transformation_to_functor,
    vertical_compose,
)
from catfrac.diagram import identity_modification
from catfrac.elements import modification_cells
from test_fractions import to_raw
from test_generated import build, categories, targets
from test_two_cell_searches import small_chain_diagrams

TARGETS = [("two", corpus.two()), ("iso", corpus.iso()), ("z2", corpus.z2())]
PAIRS = [(f"{cn}->{xn}", C, X) for cn, C in corpus.test_battery() for xn, X in TARGETS]


def as_cell(mu: NatTrans) -> tuple:
    """The components of ``mu`` in the object order of its domain: a 2-cell
    as the verifiers' engine writes it."""
    return tuple(map(mu.components.__getitem__, mu.src.dom.objects))


def assert_search_matches_enumeration(C, X) -> None:
    search = nat_trans_search(C, X)
    functors = enumerate_functors(C, X)
    for F in functors:
        for G in functors:
            assert search(F, G) == [as_cell(mu) for mu in enumerate_nat_trans(F, G)]


def assert_identities_and_composites(C, X) -> None:
    functors = enumerate_functors(C, X)
    n = len(functors)
    listed = {
        (i, j): enumerate_nat_trans(F, G)
        for i, F in enumerate(functors)
        for j, G in enumerate(functors)
    }
    cells = {pair: {as_cell(mu) for mu in found} for pair, found in listed.items()}
    for i, F in enumerate(functors):
        assert as_cell(identity_nat_trans(F)) in cells[(i, i)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for a in listed[(i, j)]:
                    for b in listed[(j, k)]:
                        assert as_cell(vertical_compose(a, b)) in cells[(i, k)]


@pytest.mark.parametrize("name,C,X", PAIRS, ids=[p[0] for p in PAIRS])
def test_prepared_search_matches_enumeration(name, C, X):
    assert_search_matches_enumeration(C, X)


@pytest.mark.parametrize("name,C,X", PAIRS, ids=[p[0] for p in PAIRS])
def test_nat_trans_hold_identities_and_composites(name, C, X):
    assert_identities_and_composites(C, X)


@settings(max_examples=40, deadline=None)
@given(categories, targets)
def test_nat_trans_laws_on_generated(rawc, rawx):
    C, X = build(rawc), build(rawx)
    assert_search_matches_enumeration(C, X)
    assert_identities_and_composites(C, X)


def assert_counts_match_the_oracle(rawc, rawx) -> int:
    """The prepared search lists as many transformations as the oracle counts,
    for every pair of functors; returns how many pairs have an empty
    component hom, where the search returns before it starts."""
    C, X = build(rawc), build(rawx)
    search = nat_trans_search(C, X)
    functors = enumerate_functors(C, X)
    empty = 0
    for F in functors:
        for G in functors:
            raw_f, raw_g = (F.on_objects, F.on_arrows), (G.on_objects, G.on_arrows)
            assert len(search(F, G)) == oracle.nat_trans_count(rawc, rawx, raw_f, raw_g)
            empty += not all(X.hom(F.on_objects[x], G.on_objects[x]) for x in C.objects)
    return empty


@settings(max_examples=60, deadline=5000)
@given(categories, targets)
def test_nat_trans_count_matches_the_oracle(rawc, rawx):
    assert_counts_match_the_oracle(rawc, rawx)


def test_oracle_count_covers_an_empty_component_hom():
    # functors off the walking arrow into itself: the constant at b has no
    # transformation to the constant at a, since hom(b, a) is empty
    arrow = oracle.raw_walking_arrow()
    assert assert_counts_match_the_oracle(arrow, arrow) > 0


ARROW_TARGETS = [("arrow", corpus.two()), ("iso", corpus.iso()), ("Z/2", corpus.z2())]
ARROW_PAIRS = [
    (f"{cn}->{xn}", C, X) for cn, C in corpus.all_categories() for xn, X in ARROW_TARGETS
]


@pytest.mark.parametrize("name,C,X", ARROW_PAIRS, ids=[p[0] for p in ARROW_PAIRS])
def test_two_cells_are_functors_into_the_arrow_category(name, C, X):
    # Kelly: a natural transformation F => G : C -> X is a functor
    # C -> Arr(X) over (F, G). The oracle lists those functors with no
    # library code and buckets them by (dom, cod); each bucket must be
    # enumerate_nat_trans for that pair, and every bucket must sit over a
    # pair of functors the library lists
    buckets = oracle.two_cells_by_ends(to_raw(C), to_raw(X))

    def maps(F):
        return tuple(sorted(F.on_objects.items())), tuple(sorted(F.on_arrows.items()))

    functors = enumerate_functors(C, X)
    pairs = set()
    for F in functors:
        for G in functors:
            cells = [as_cell(mu) for mu in enumerate_nat_trans(F, G)]
            assert sorted(cells) == sorted(buckets.get((maps(F), maps(G)), []))
            pairs.add((maps(F), maps(G)))
    assert set(buckets) <= pairs


DIAGRAM_TARGETS = [
    (f"{dn}->{xn}", D, X)
    for dn, D in corpus.oplax_diagrams()
    for xn, X in (("iso", corpus.iso()), ("z2", corpus.z2()))
]


@pytest.mark.parametrize("name,D,X", DIAGRAM_TARGETS, ids=[p[0] for p in DIAGRAM_TARGETS])
def test_modifications_hold_identities_and_composites(name, D, X):
    between = modification_cells(grothendieck(D), X)
    lax = enumerate_transformations(D, X, "lax")
    n = len(lax)
    listed = {(i, j): between(x, y) for i, x in enumerate(lax) for j, y in enumerate(lax)}
    found = {pair: set(mods) for pair, mods in listed.items()}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for a in listed[(i, j)]:
                    for b in listed[(j, k)]:
                        ab = tuple(X.composition[pair] for pair in zip(a, b))
                        assert ab in found[(i, k)]


@pytest.mark.parametrize("name,D,X", DIAGRAM_TARGETS, ids=[p[0] for p in DIAGRAM_TARGETS])
def test_identity_modification_is_the_identity_off_the_carrier(name, D, X):
    # the oplax colimit's 2-cell correspondence sends the identity
    # modification of x to the identity of x's collapsed functor
    GD = grothendieck(D)
    tags = [GD.object_tags[obj] for obj in GD.carrier.objects]
    between = modification_cells(GD, X)
    for x in enumerate_transformations(D, X, "lax"):
        m = identity_modification(x)
        cell = tuple(m.components[A].components[a] for A, a in tags)
        assert cell == as_cell(identity_nat_trans(transformation_to_functor(x, GD)))
        assert cell in between(x, x)


FRACTION_TARGETS = [
    (f"{fn}->{xn}", inp, X)
    for fn, inp in corpus.fractions_corpus()
    for xn, X in (("iso", corpus.iso()), ("z2", corpus.z2()))
]


@pytest.mark.parametrize("name,inp,X", FRACTION_TARGETS, ids=[p[0] for p in FRACTION_TARGETS])
def test_induced_functor_keeps_the_identity(name, inp, X):
    # the localization's 2-cell correspondence sends the identity of an
    # inverting functor to the identity of the functor it induces
    LC = localize(inp)
    for F in enumerate_functors(inp.category, X):
        if inverts(F, inp)[0]:
            G = induced_functor(F, LC)
            assert as_cell(identity_nat_trans(F)) == as_cell(identity_nat_trans(G))


# -- exact lists against the oracle's filter over the product -----------------


def raw_maps(F) -> tuple:
    return dict(F.on_objects), dict(F.on_arrows)


def raw_diagram(D) -> dict:
    idx = D.index
    return {
        "index": to_raw(idx),
        "variance": D.variance,
        "fibers": {A: to_raw(D.cat(A)) for A in idx.objects},
        "on_arrows": {phi: raw_maps(D.fun(phi)) for phi in idx.arrows},
    }


def raw_transformation(x) -> dict:
    return {
        "components": {A: raw_maps(F) for A, F in x.components.items()},
        "cells": {phi: dict(cell.components) for phi, cell in x.two_cells.items()},
    }


def assert_search_is_the_oracle_filter(C, X) -> None:
    """For every pair of functors C -> X, the prepared search lists exactly
    the tuples the oracle keeps from the product of the component homs, in
    product order."""
    rawc, rawx = to_raw(C), to_raw(X)
    search = nat_trans_search(C, X)
    functors = enumerate_functors(C, X)
    for F in functors:
        for G in functors:
            assert search(F, G) == oracle.nat_trans_cells(rawc, rawx, raw_maps(F), raw_maps(G))


def assert_modification_cells_are_the_oracle_filter(D, X) -> None:
    """For every pair of transformations D -> X, ``modification_cells``
    lists exactly the choices the oracle keeps from the product of the
    per-object natural transformations, in product order, each read at the
    carrier objects in carrier order."""
    GD = grothendieck(D)
    tags = [GD.object_tags[name] for name in GD.carrier.objects]
    between = modification_cells(GD, X)
    rawd, rawx = raw_diagram(D), to_raw(X)
    trans = enumerate_transformations(D, X, "lax")
    raws = [raw_transformation(x) for x in trans]
    for x, raw_x in zip(trans, raws):
        for y, raw_y in zip(trans, raws):
            expected = oracle.modifications(rawd, rawx, raw_x, raw_y)
            assert between(x, y) == [tuple(m[tag] for tag in tags) for m in expected]


@pytest.mark.parametrize("name,C,X", ARROW_PAIRS, ids=[p[0] for p in ARROW_PAIRS])
def test_nat_trans_search_is_the_oracle_filter(name, C, X):
    assert_search_is_the_oracle_filter(C, X)


@settings(max_examples=40, deadline=None)
@given(categories, targets)
def test_nat_trans_search_is_the_oracle_filter_on_generated(rawc, rawx):
    assert_search_is_the_oracle_filter(build(rawc), build(rawx))


MODIFICATION_PAIRS = [
    (f"{dn}->{xn}", D, X) for dn, D in corpus.coherence_diagrams() for xn, X in ARROW_TARGETS
]


@pytest.mark.parametrize("name,D,X", MODIFICATION_PAIRS, ids=[p[0] for p in MODIFICATION_PAIRS])
def test_modification_cells_are_the_oracle_filter(name, D, X):
    assert_modification_cells_are_the_oracle_filter(D, X)


@settings(max_examples=25, deadline=None)
@given(small_chain_diagrams(), st.sampled_from(ARROW_TARGETS))
def test_modification_cells_are_the_oracle_filter_on_generated(D, target):
    assert_modification_cells_are_the_oracle_filter(D, target[1])
