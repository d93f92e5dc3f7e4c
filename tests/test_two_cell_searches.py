"""The 2-cell searches check only the arrows the laws leave open.

``nat_trans_search`` checks the naturality squares, and
``modification_search`` the compatibility, only at the arrows that
``fincat._slot_generators`` keeps at each slot. Three pins:

- every arrow closing at slot i is an identity or lies in the closure of the
  arrows kept at slots <= i, on the corpus, on Z/3 declared in three
  orders, and on the carriers and localized carriers of generated chain
  diagrams; a list that leaves out a generator fails the pin;
- ``nat_trans_search`` lists exactly the tuples of the product of component
  homs that ``validate_nat_trans`` passes, in product order, on the same
  categories against the walking arrow, the walking iso, Z/2 and chain(3);
- ``enumerate_modifications`` lists exactly the choices of the product of
  per-object natural transformations that ``validate_modification`` passes.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import catfrac.diagram as dg
import corpus
from catfrac import (
    FractionsInput,
    Modification,
    NatTrans,
    cleavage,
    enumerate_functors,
    enumerate_modifications,
    enumerate_transformations,
    grothendieck,
    localize,
    nat_trans_search,
    validate_modification,
    validate_nat_trans,
)
from catfrac.fincat import _slot_generators
from test_ambient import shuffled_chain
from test_transformation_search import chain_diagram, cyclic

TARGETS = [("two", corpus.two()), ("iso", corpus.iso()), ("z2", corpus.z2()),
           ("chain3", corpus.chain(3))]


def closing_slot(C, f) -> int:
    slot = {x: i for i, x in enumerate(C.objects)}
    return max(slot[C.src[f]], slot[C.tgt[f]])


def closure(C, arrows) -> set:
    """The arrows of C that are composites of ``arrows`` and identities,
    by a fixpoint over all pairs."""
    reached = set(arrows) | set(C.identity.values())
    while True:
        new = {
            C.composition[(f, g)] for f in reached for g in reached if C.tgt[f] == C.src[g]
        } - reached
        if not new:
            return reached
        reached |= new


def uncovered(C, kept) -> list:
    """The arrows closing at some slot i that are neither identities nor in
    the closure of the arrows ``kept`` lists at slots <= i, and the kept
    arrows listed at a slot that does not close them, is an identity, or
    out of declaration order."""
    out = []
    for i, here in enumerate(kept):
        reached = closure(C, [f for ks in kept[: i + 1] for f in ks])
        out += [f for f in C.arrows if closing_slot(C, f) == i and f not in reached]
        ordered = [f for f in C.arrows if f in here]
        out += [f for f in here if closing_slot(C, f) != i or C.is_identity(f)]
        out += [] if here == ordered else [tuple(here)]
    return out


def carriers(D) -> list:
    """D's carrier, and for a contravariant D its localization at the
    cleavage too."""
    GD = grothendieck(D)
    found = [GD.carrier]
    if D.variance == "contravariant":
        inp = FractionsInput(category=GD.carrier, weq=cleavage(GD).members)
        found.append(localize(inp).carrier)
    return found


@st.composite
def small_chain_diagrams(draw):
    """Over a chain of at most three, fibre chains of at most two, both
    variances, every chain declared in a drawn order."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    variance = draw(st.sampled_from(dg.VARIANCES))
    index = draw(shuffled_chain(len(sizes)))
    fibers = {str(i): draw(shuffled_chain(k)) for i, k in enumerate(sizes)}
    return chain_diagram(sizes, variance, index, fibers)


CATEGORIES = corpus.all_categories() + [
    ("chain4", corpus.chain(4)),
    ("twisted iso", corpus.twisted_iso()),
] + [(f"Z/3 {order}", cyclic(3, order)) for order in [(0, 1, 2), (0, 2, 1), (2, 1, 0)]] + [
    (f"carrier {k} of {name}", C)
    for name, D in corpus.coherence_diagrams()
    for k, C in enumerate(carriers(D))
]
IDS = [name for name, _ in CATEGORIES]


# -- the kept arrows generate --------------------------------------------------


@pytest.mark.parametrize("name,C", CATEGORIES, ids=IDS)
def test_kept_arrows_generate_each_slot(name, C):
    assert uncovered(C, _slot_generators(C)) == []


@settings(max_examples=40, deadline=None)
@given(small_chain_diagrams())
def test_kept_arrows_generate_each_slot_of_generated_carriers(D):
    for C in carriers(D):
        assert uncovered(C, _slot_generators(C)) == []


def test_generation_check_fires():
    # chain(3) declared 0, 1, 2: 0<1 closes at slot 1, 1<2 and 0<2 at slot
    # 2, where 0<2 is their composite; leaving out 1<2 leaves both uncovered
    C = corpus.chain(3)
    kept = _slot_generators(C)
    assert [len(here) for here in kept] == [0, 1, 1]
    at_two = [f for f in C.arrows if closing_slot(C, f) == 2 and not C.is_identity(f)]
    assert sorted(at_two) == ["0<2", "1<2"]
    assert uncovered(C, [kept[0], kept[1], []]) == at_two
    # Z/3: both non-identity arrows are composites of each other, so one is kept
    Z3 = cyclic(3, (0, 1, 2))
    assert _slot_generators(Z3) == [["r1"]]
    assert uncovered(Z3, [[]]) == ["r1", "r2"]


def test_kept_arrows_are_fewer_than_all():
    # on the localized carrier of contravariant [4,3,2], 14 of its 43
    # non-identity arrows are kept
    C = carriers(chain_diagram([4, 3, 2], "contravariant"))[1]
    assert len(C.arrows) - len(C.objects) == 43
    assert sum(map(len, _slot_generators(C))) == 14


# -- natural transformations against the filtered product -----------------------


def filtered_cells(F, G) -> list:
    """Every tuple of the product of component homs, in product order, that
    ``validate_nat_trans`` passes."""
    objs = F.dom.objects
    homs = [F.cod.hom(F.on_objects[x], G.on_objects[x]) for x in objs]
    return [
        cell for cell in product(*homs)
        if validate_nat_trans(NatTrans(F, G, dict(zip(objs, cell)))).ok
    ]


def spread(items: list, k: int = 6) -> list:
    """At most about k items, spread over the list, first and last included."""
    if len(items) <= k:
        return items
    step = (len(items) - 1) / (k - 1)
    return [items[round(n * step)] for n in range(k)]


def assert_search_is_filter(C, X):
    search = nat_trans_search(C, X)
    functors = spread(enumerate_functors(C, X))
    for F in functors:
        for G in functors:
            assert search(F, G) == filtered_cells(F, G)


NAT_CASES = [(f"{name}->{xn}", C, X) for name, C in CATEGORIES for xn, X in TARGETS]


@pytest.mark.parametrize("name,C,X", NAT_CASES, ids=[c[0] for c in NAT_CASES])
def test_nat_trans_search_lists_the_filtered_product(name, C, X):
    assert_search_is_filter(C, X)


@settings(max_examples=25, deadline=None)
@given(small_chain_diagrams(), st.sampled_from(TARGETS))
def test_nat_trans_search_lists_the_filtered_product_on_generated_carriers(D, target):
    for C in carriers(D):
        assert_search_is_filter(C, target[1])


# -- modifications against the filtered product --------------------------------


def filtered_modifications(x, y) -> list:
    """Every choice of one natural transformation per index object, each
    list from ``filtered_cells``, in product order, that
    ``validate_modification`` passes."""
    objs = x.source.index.objects
    per_object = []
    for a in objs:
        F, G = x.components[a], y.components[a]
        names = F.dom.objects
        per_object.append([NatTrans(F, G, dict(zip(names, c))) for c in filtered_cells(F, G)])
    found = []
    for vals in product(*per_object):
        m = Modification(x, y, dict(zip(objs, vals)))
        if validate_modification(m).ok:
            found.append(m)
    return found


def assert_modifications_are_filter(D, X):
    trans = spread(enumerate_transformations(D, X), 5)
    for x in trans:
        for y in trans:
            assert enumerate_modifications(x, y) == filtered_modifications(x, y)


MOD_CASES = [
    (f"{name}->{xn}", D, X) for name, D in corpus.coherence_diagrams() for xn, X in TARGETS
]


@pytest.mark.parametrize("name,D,X", MOD_CASES, ids=[c[0] for c in MOD_CASES])
def test_modifications_are_the_filtered_product(name, D, X):
    assert_modifications_are_filter(D, X)


@settings(max_examples=25, deadline=None)
@given(small_chain_diagrams(), st.sampled_from(TARGETS))
def test_modifications_are_the_filtered_product_on_generated_diagrams(D, target):
    assert_modifications_are_filter(D, target[1])
