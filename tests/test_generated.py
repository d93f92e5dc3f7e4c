"""Enumeration on generated categories: differential against the oracle,
metamorphic under renaming and redeclaring; the hom index and the
positional view against a filter over the arrows, on these and on the
corpus.

The strategies build only valid categories: posets as transitive closures
of random DAGs, and monoids of self-maps of {0, 1} closed under
composition. Each is drawn as the raw dict the oracle reads, with the
composition table total over composable pairs.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from catfrac import (
    FinCategory,
    enumerate_functors,
    find_isomorphism,
    opposite,
    validate_category,
    validate_functor,
)


def build(raw) -> FinCategory:
    return FinCategory.build(
        raw["objects"],
        [(f, s, t) for f, (s, t) in raw["arrows"].items()],
        raw["identity"],
        raw["compose"],
    )


@st.composite
def posets(draw, max_objects: int = 3):
    n = draw(st.integers(1, max_objects))
    order = draw(st.permutations(range(n)))  # a topological order of the DAG
    forward = [(order[i], order[j]) for i, j in itertools.combinations(range(n), 2)]
    edges = draw(st.sets(st.sampled_from(forward))) if forward else set()
    leq = {(i, i) for i in range(n)} | edges
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in leq and (k, j) in leq:
            leq.add((i, j))
    name = "{}<{}".format
    return {
        "objects": [str(i) for i in range(n)],
        "arrows": {name(i, j): (str(i), str(j)) for i, j in sorted(leq)},
        "identity": {str(i): name(i, i) for i in range(n)},
        "compose": {
            (name(i, j), name(j, k)): name(i, k)
            for i, j in leq
            for j2, k in leq
            if j == j2
        },
    }


@st.composite
def monoids(draw):
    """The monoid of self-maps of {0, 1} generated by one or two maps."""
    maps = st.tuples(st.integers(0, 1), st.integers(0, 1))
    elements = [(0, 1)] + draw(st.lists(maps, min_size=1, max_size=2))
    for f in elements:  # grows while it is walked, so this closes it
        for g in list(elements):
            for fg in ((g[f[0]], g[f[1]]), (f[g[0]], f[g[1]])):
                if fg not in elements:
                    elements.append(fg)
    name = "m{}{}".format
    return {
        "objects": ["*"],
        "arrows": {name(*f): ("*", "*") for f in elements},
        "identity": {"*": name(0, 1)},
        "compose": {
            (name(*f), name(*g)): name(g[f[0]], g[f[1]]) for f in elements for g in elements
        },
    }


categories = st.one_of(posets(), monoids())
# the oracle filters every assignment of arrows, so its test categories stay small
targets = st.one_of(posets(max_objects=2), monoids())


@settings(max_examples=60, deadline=None)
@given(categories, targets)
def test_functor_count_matches_oracle(rawc, rawx):
    assert oracle.laws_hold(rawc) and oracle.laws_hold(rawx)
    C, X = build(rawc), build(rawx)
    assert validate_category(C).ok and validate_category(X).ok
    assert len(enumerate_functors(C, X)) == oracle.functor_count(rawc, rawx)


def redeclared(raw, data) -> dict:
    """raw with its objects and arrows renamed and declared in a drawn order."""
    objects = data.draw(st.permutations(raw["objects"]))
    arrows = data.draw(st.permutations(list(raw["arrows"])))
    obj = {x: f"o{k}" for k, x in enumerate(objects)}
    arr = {f: f"r{k}" for k, f in enumerate(arrows)}
    return {
        "objects": [obj[x] for x in objects],
        "arrows": {arr[f]: tuple(obj[x] for x in raw["arrows"][f]) for f in arrows},
        "identity": {obj[x]: arr[i] for x, i in raw["identity"].items()},
        "compose": {(arr[f], arr[g]): arr[h] for (f, g), h in raw["compose"].items()},
    }


@settings(max_examples=60, deadline=None)
@given(categories, st.data())
def test_isomorphic_under_renaming_and_redeclaring(raw, data):
    wit = find_isomorphism(build(raw), build(redeclared(raw, data)))
    assert wit is not None
    assert validate_functor(wit.forward).ok and validate_functor(wit.backward).ok


def assert_hom_index_is_the_filter(C: FinCategory) -> None:
    for x in C.objects:
        assert C.out_of(x) == tuple(f for f in C.arrows if C.src[f] == x)
        assert C.into(x) == tuple(f for f in C.arrows if C.tgt[f] == x)
        for y in C.objects:
            assert C.hom(x, y) == tuple(f for f in C.arrows if C.src[f] == x and C.tgt[f] == y)


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_hom_index_matches_filter_on_corpus(name, C):
    assert_hom_index_is_the_filter(C)
    assert_hom_index_is_the_filter(opposite(C))


@settings(max_examples=60, deadline=None)
@given(categories, st.data())
def test_hom_index_matches_filter_on_generated(raw, data):
    arrows = data.draw(st.permutations(list(raw["arrows"])))
    C = build(dict(raw, arrows={f: raw["arrows"][f] for f in arrows}))
    assert_hom_index_is_the_filter(C)
    assert_hom_index_is_the_filter(opposite(C))


def assert_view_is_the_names(C: FinCategory) -> None:
    P = C._positions()
    n = len(C.arrows)
    assert list(P.object) == list(C.objects) and list(P.object.values()) == list(range(len(C.objects)))
    assert list(P.arrow) == list(C.arrows) and list(P.arrow.values()) == list(range(n))
    assert [C.objects[x] for x in P.src] == [C.src[f] for f in C.arrows]
    assert [C.objects[y] for y in P.tgt] == [C.tgt[f] for f in C.arrows]
    assert len(P.flat) == n * n
    for f in C.arrows:
        for g in C.arrows:
            h = P.flat[P.arrow[f] * n + P.arrow[g]]
            if C.tgt[f] == C.src[g]:
                assert C.arrows[h] == C.composition[(f, g)]
            else:
                assert h is None
    for x, out, into in zip(C.objects, P.outs, P.ins):
        assert tuple(C.arrows[f] for f in out) == C.out_of(x)
        assert tuple(C.arrows[f] for f in into) == C.into(x)
        assert [P.out_rank[f] for f in out] == list(range(len(out)))
    m = len(C.objects)
    assert len(P.homs) == m * m
    for x in C.objects:
        for y in C.objects:
            hom = P.homs[P.object[x] * m + P.object[y]]
            assert tuple(C.arrows[f] for f in hom) == C.hom(x, y)


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_view_matches_names_on_corpus(name, C):
    assert_view_is_the_names(C)
    assert_view_is_the_names(opposite(C))


@settings(max_examples=60, deadline=None)
@given(categories, st.data())
def test_view_matches_names_on_generated(raw, data):
    arrows = data.draw(st.permutations(list(raw["arrows"])))
    C = build(dict(raw, arrows={f: raw["arrows"][f] for f in arrows}))
    assert_view_is_the_names(C)
    assert_view_is_the_names(opposite(C))
