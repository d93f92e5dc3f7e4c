"""The prepared natural-transformation search, and the composition law the
verifier engine relies on.

The engine compares 2-cells as sets of tuples and checks identities only:
vertical composition is preserved because both sides compose tuples
componentwise in the target. That the listed 2-cells are closed under
composition is a theorem about natural transformations and modifications;
it is checked here, on the corpus and on generated categories, so that a
search that loses a result still fails somewhere.
"""

import pytest
from hypothesis import given, settings

import corpus
from catfrac import (
    enumerate_functors,
    enumerate_nat_trans,
    enumerate_transformations,
    grothendieck,
    identity_nat_trans,
    nat_trans_search,
    vertical_compose,
)
from catfrac.elements import modification_cells
from catfrac.verify import as_cell
from test_generated import build, categories, targets

TARGETS = [("two", corpus.two()), ("iso", corpus.iso()), ("z2", corpus.z2())]
PAIRS = [(f"{cn}->{xn}", C, X) for cn, C in corpus.test_battery() for xn, X in TARGETS]


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


DIAGRAM_TARGETS = [
    (f"{dn}->{xn}", D, X)
    for dn, D in corpus.oplax_diagrams()
    for xn, X in (("iso", corpus.iso()), ("z2", corpus.z2()))
]


@pytest.mark.parametrize("name,D,X", DIAGRAM_TARGETS, ids=[p[0] for p in DIAGRAM_TARGETS])
def test_modifications_hold_identities_and_composites(name, D, X):
    cells = modification_cells(grothendieck(D), X)
    lax = enumerate_transformations(D, X, "lax")
    n = len(lax)
    listed = {(i, j): cells.between(x, y) for i, x in enumerate(lax) for j, y in enumerate(lax)}
    found = {pair: set(mods) for pair, mods in listed.items()}
    for i, x in enumerate(lax):
        assert cells.identity(x) in found[(i, i)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for a in listed[(i, j)]:
                    for b in listed[(j, k)]:
                        ab = tuple(X.composition[pair] for pair in zip(a, b))
                        assert ab in found[(i, k)]
