"""localize shares its Ore-filler and weak-filler searches within one call.

Differential: the composition loop reads the shared lists, and self-check
(b) reads the shared heads of each row (s1, v2) once, checks that they lie
in one class, then composes the first head with each g2 out of s(v2) by one
table read; the public span_compose searches on its own, and its exhaustive
mode gives what the whole Ore x weak product gives.  With no fault, a
bogus last filler or a coarser partition injected, (b) fires exactly when
the whole product, formed test-side per span pair, meets more than one
class in some class pair.  A count of compose calls bounds the cost of (b)
without timing it. Negative controls: a fault injected into a search
reaches self-checks (a) and (b) and fires them.
"""

import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import catfrac.ambient
import catfrac.fractions
import corpus
from catfrac import (
    FinCategory,
    FractionsInput,
    check_axioms,
    compose,
    find_isomorphism,
    internal_cleavage,
    internal_elements,
    internal_localize,
    localize,
    shape_instances,
    span_compose,
)
from catfrac.errors import IntegrityError
from catfrac.fractions import _composite_heads
from test_generated import build, monoids, posets

LIMIT = 64  # localize's default exhaustive_limit


def localize_spying(inp: FractionsInput):
    """localize, recording every span_compose call (s1, s2, exhaustive) and
    every list of heads it reads from its shared fillers, (key, heads)."""
    composed, read = [], []
    public = catfrac.fractions.span_compose
    shared_fillers = catfrac.fractions._SharedFillers._fillers

    def composing(shared, s1, s2, exhaustive=False):
        composed.append((s1, s2, exhaustive))
        return public(shared, s1, s2, exhaustive)

    def reading(shared, search, *key):
        found = shared_fillers(shared, search, *key)
        if search is _composite_heads:
            read.append((key, list(found)))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catfrac.fractions, "span_compose", composing)
        mp.setattr(catfrac.fractions._SharedFillers, "_fillers", reading)
        LC = localize(inp)
    return LC, composed, read


def rows(inp: FractionsInput) -> list[tuple]:
    """The keys (v1, g1, v2) of the rows (s1, v2) of composable span pairs,
    in the order of the full product of spans; none above LIMIT spans."""
    spans = shape_instances(inp, "spn")
    if len(spans) > LIMIT:
        return []
    C = inp.category
    return [(v1, g1, v2) for v1, g1 in spans for v2 in inp.weq if C.tgt[v2] == C.tgt[g1]]


def check_against_public(inp: FractionsInput) -> None:
    LC, composed, read = localize_spying(inp)
    fresh = FractionsInput(inp.category, inp.weq)
    K = LC.carrier
    # span_compose runs only in the class loop, once per class pair
    assert composed == [
        (LC.class_reps[n1], LC.class_reps[n2], False) for n1, n2 in K.composition
    ]
    for (n1, n2), n in K.composition.items():
        s1, s2 = LC.class_reps[n1], LC.class_reps[n2]
        assert LC.q[span_compose(fresh, s1, s2)] == n
    # (b) reads the heads of every row once, each the fresh search's list
    assert Counter(key for key, _ in read) == Counter(rows(inp))
    for key, heads in read:
        assert heads == list(_composite_heads(fresh, *key))


def fully_marked_chain(n: int) -> FractionsInput:
    C = corpus.chain(n)
    return FractionsInput(C, C.arrows)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus() + [
        ("chain(5)/all", fully_marked_chain(5)),  # 55 spans, (b) runs
        ("chain(6)/all", fully_marked_chain(6)),  # 91 spans, (b) is skipped
    ],
)
def test_corpus_composites_match_public_span_compose(name, inp):
    check_against_public(inp)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus() + [
        ("chain(5)/all", fully_marked_chain(5)),
        ("chain(6)/all", fully_marked_chain(6)),
    ],
)
def test_loops_visit_composable_pairs_in_product_order(name, inp):
    # FinCategory.build keeps the insertion order of the composition table,
    # so the class loop must list pairs as the filtered full product does;
    # self-check (b) visits the rows (s1, v2) of span pairs in the same order
    LC, composed, read = localize_spying(inp)
    K = LC.carrier
    assert list(K.composition) == [
        (n1, n2) for n1 in K.arrows for n2 in K.arrows if K.tgt[n1] == K.src[n2]
    ]
    assert [key for key, _ in read] == rows(inp)


def cyclic(n: int) -> FinCategory:
    """The group Z/n on one object, with r0 the identity."""
    r = [f"r{i}" for i in range(n)]
    return FinCategory.build(
        ["*"],
        [(f, "*", "*") for f in r],
        {"*": "r0"},
        {(r[i], r[j]): r[(i + j) % n] for i in range(n) for j in range(n)},
    )


def fully_marked_cyclic(n: int) -> FractionsInput:
    C = cyclic(n)
    return FractionsInput(C, C.arrows)


def whole_product(inp: FractionsInput, s1: tuple, s2: tuple) -> tuple:
    """Every (Ore filler, weak filler) composite in canonical order, nothing
    shared and nothing dropped: (first, frozenset of all).  The searches are
    read from the module when called, so an injected fault reaches them."""
    C = inp.category
    (v1, g1), (v2, g2) = s1, s2
    searches = catfrac.fractions
    found = [
        (compose(C, compose(C, m, wp), v1), compose(C, compose(C, m, h2), g2))
        for wp, h2 in list(searches._ore_fillers(inp, g1, v2))
        for m in list(searches._weak_fillers(inp, wp, v1))
    ]
    return found[0], frozenset(found)


def check_whole_product(inp: FractionsInput) -> None:
    C = inp.category
    spans = shape_instances(inp, "spn")
    for s1 in spans:
        for s2 in spans:
            if C.tgt[s1[1]] == C.tgt[s2[0]]:
                fresh = FractionsInput(C, inp.weq)
                assert span_compose(fresh, s1, s2, exhaustive=True) == whole_product(inp, s1, s2)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus()
    + [("chain(5)/all", fully_marked_chain(5))]
    + [(f"Z/{n}/all", fully_marked_cyclic(n)) for n in range(3, 7)],
)
def test_exhaustive_composites_are_the_whole_product(name, inp):
    # the heads shared per (v1, g1, v2) drop only repeats, and composing a
    # repeated head with g2 repeats its result
    check_whole_product(inp)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_self_check_b_composes_about_n5_times(monkeypatch, n):
    # fully marked Z/n has n^2 spans and n^4 composable span pairs, each with
    # n^2 (Ore filler, weak filler) combinations but only n distinct heads
    calls = 0

    def counting(C, f, g):
        nonlocal calls
        calls += 1
        return compose(C, f, g)

    monkeypatch.setattr(catfrac.fractions, "compose", counting)
    LC = localize(fully_marked_cyclic(n))
    assert len(LC.carrier.arrows) == n
    assert calls <= 3 * n**5


def count_heads(monkeypatch) -> Counter:
    """How often each (v1, g1, v2) has its first head searched."""
    searched = Counter()
    exact = catfrac.fractions._first_head

    def spy(inp, *key):
        searched[key] += 1
        return exact(inp, *key)

    monkeypatch.setattr(catfrac.fractions, "_first_head", spy)
    return searched


@pytest.mark.parametrize("n", [4, 5, 6])  # 30 and 55 spans run (b), 91 skip it
def test_class_loop_searches_each_head_once(monkeypatch, n):
    # every class pair out of (v1, g1) into s(v2) shares one head, and
    # composes it with g2 by one table read; the head itself is table reads
    # too, and a checked compose is only the fallback of a failed read
    # (spans never fail)
    heads = count_heads(monkeypatch)
    callers = Counter()

    def counting(C, f, g):
        callers[sys._getframe(1).f_code.co_name] += 1
        return compose(C, f, g)

    monkeypatch.setattr(catfrac.fractions, "compose", counting)
    LC = localize(fully_marked_chain(n))
    assert len(LC.carrier.arrows) == n * n
    assert heads and max(heads.values()) == 1
    assert len(heads) < len(LC.carrier.composition)
    assert callers["_first_head"] <= len(heads)
    assert callers["span_compose"] == 0


def test_internal_localize_searches_each_head_once(monkeypatch):
    D = corpus.diag_contra_chain()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    heads = count_heads(monkeypatch)
    pairs = []
    exact = catfrac.ambient.span_compose

    def composing(inp, s1, s2):
        pairs.append((s1, s2))
        return exact(inp, s1, s2)

    monkeypatch.setattr(catfrac.ambient, "span_compose", composing)
    internal_localize(IE, w)
    assert heads and max(heads.values()) == 1
    assert len(heads) < len(pairs)


@st.composite
def marked(draw):
    C = build(draw(st.one_of(posets(), monoids())))
    ids = tuple(C.identity[x] for x in C.objects)
    rest = [f for f in C.arrows if f not in ids]
    extra = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return FractionsInput(C, ids + tuple(f for f in rest if f in extra))


@settings(max_examples=60, deadline=None)
@given(marked())
def test_generated_composites_match_public_span_compose(inp):
    assume(check_axioms(inp).ok)
    check_against_public(inp)


@settings(max_examples=60, deadline=None)
@given(marked())
def test_generated_exhaustive_composites_are_the_whole_product(inp):
    assume(check_axioms(inp).ok)
    check_whole_product(inp)


def group(table) -> FinCategory:
    """A group on one object from its multiplication table over 'eabc'."""
    arrows = "eabc"
    return FinCategory.build(
        ["*"],
        [(f, "*", "*") for f in arrows],
        {"*": "e"},
        {(f, g): table[arrows.index(f)][arrows.index(g)] for f in arrows for g in arrows},
    )


def test_each_call_searches_its_own_table():
    # Z/4 and the Klein group share every arrow name; a;a is b in one, e in the other
    z4 = group(["eabc", "abce", "bcea", "ceab"])
    k4 = group(["eabc", "aecb", "bcea", "cbae"])
    for first, second in ((z4, k4), (k4, z4)):
        for C in (first, second):
            LC = localize(FractionsInput(C, C.arrows))
            L = LC.L.on_arrows
            assert LC.carrier.composition[(L["a"], L["a"])] == L[C.composition[("a", "a")]]
            assert find_isomorphism(LC.carrier, C) is not None
    assert find_isomorphism(z4, k4) is None


def with_bogus_last(search, bogus):
    """``search`` followed by one extra result: what ``bogus`` picks among
    the candidates the genuine search did not yield."""

    def faulty(inp, *key):
        genuine = list(search(inp, *key))
        yield from genuine
        extra = bogus(inp, genuine, *key)
        if extra is not None:
            yield extra

    return faulty


def non_filler(inp, genuine, v, vp):
    C = inp.category
    return next((m for m in C.arrows if C.tgt[m] == C.src[v] and m not in genuine), None)


def non_square(inp, genuine, h, v):
    C = inp.category
    if not genuine:
        return None
    wp = genuine[0][0]
    for g in C.hom(C.src[wp], C.src[v]):
        if (wp, g) not in genuine:
            return wp, g
    return None


def foreign_section(inp, genuine, x):
    C = inp.category
    return next((v for v in inp.weq if C.tgt[v] != x), None)


@pytest.mark.parametrize(
    "name,search,bogus",
    [
        ("idem/ids", "_weak_fillers", non_filler),
        ("Z2/all", "_ore_fillers", non_square),
    ],
)
def test_self_check_b_fires_on_a_bogus_last_filler(monkeypatch, name, search, bogus):
    inp = dict(corpus.fractions_corpus())[name]
    honest = localize(inp)
    monkeypatch.setattr(
        catfrac.fractions, search, with_bogus_last(getattr(catfrac.fractions, search), bogus)
    )
    # the composition loop takes the first filler, so without (b) nothing shows
    assert localize(inp, exhaustive_limit=0) == honest
    with pytest.raises(IntegrityError, match="not well-defined"):
        localize(inp)


def test_composite_that_is_no_span_is_an_integrity_error(monkeypatch):
    # the 3-chain marked at its identities, 0<1 and 1<2: 0<1;1<2 has no
    # genuine weak filler, so the bogus one is the first, passes axiom (2)
    # and makes the composition loop's composite (0<2, 0<0), not a span
    C = corpus.chain(3)
    inp = FractionsInput(C, ("0<0", "1<1", "2<2", "0<1", "1<2"))
    monkeypatch.setattr(
        catfrac.fractions, "_weak_fillers",
        with_bogus_last(catfrac.fractions._weak_fillers, non_filler),
    )
    with pytest.raises(IntegrityError) as raised:
        localize(inp)
    assert str(raised.value) == (
        "composite of ('1<2', '1<1') and ('0<1', '0<0') is ('0<2', '0<0'), which is not a span"
    )


def test_self_check_a_fires_on_a_bogus_last_section(monkeypatch):
    inp = dict(corpus.fractions_corpus())["arrow/all"]
    monkeypatch.setattr(
        catfrac.fractions, "_sections", with_bogus_last(catfrac.fractions._sections, foreign_section)
    )
    with pytest.raises(IntegrityError, match="depends on the section"):
        localize(inp)


def constants() -> FractionsInput:
    """The identity e and the two constant maps of {0, 1}, on one object and
    marked at e: x;c = c for every constant c."""
    C = FinCategory.build(
        ["*"],
        [(f, "*", "*") for f in ("e", "c0", "c1")],
        {"*": "e"},
        {(f, g): f if g == "e" else g for f in ("e", "c0", "c1") for g in ("e", "c0", "c1")},
    )
    return FractionsInput(C, ("e",))


def bogus_last(name: str, bogus):
    """The fault that appends ``bogus``'s pick to the search ``name``."""

    def inject(mp) -> None:
        exact = getattr(catfrac.fractions, name)
        mp.setattr(catfrac.fractions, name, with_bogus_last(exact, bogus))

    return inject


def merged_last_class(mp) -> None:
    """The fault that merges the last sailboat class into the first class
    with its endpoints: a coarser partition, which no filler fault makes."""
    exact = catfrac.fractions._span_partition

    def coarser(inp):
        spans, ordered = exact(inp)
        C = inp.category

        def ends(members):
            v, g = spans[members[0]]
            return C.tgt[v], C.tgt[g]

        for i, members in enumerate(ordered[:-1]):
            if ends(members) == ends(ordered[-1]):
                merged = sorted(members + ordered[-1])
                return spans, ordered[:i] + [merged] + ordered[i + 1:-1]
        return spans, ordered

    mp.setattr(catfrac.fractions, "_span_partition", coarser)


FAULTS = {
    "no fault": None,
    "bogus weak filler": bogus_last("_weak_fillers", non_filler),
    "bogus Ore filler": bogus_last("_ore_fillers", non_square),
    "merged last class": merged_last_class,
}
# the cases below where the whole product disagrees: never without a fault
DISAGREES = {
    "bogus weak filler": {"arrow/ids", "chain/f", "chain/g", "iso/u", "parallel/ids",
                          "idem/ids", "square/n", "constants/e"},
    "bogus Ore filler": {"parallel/ids", "Z2/all", "idem/ids", "Z/3/all", "Z/4/all",
                         "Z/5/all", "Z/6/all", "constants/e"},
    # in constants/e the merge shows only at a g2 after the identity, so a
    # check of the first g2 of each row alone would miss it
    "merged last class": {"Z/3/all", "Z/4/all", "Z/5/all", "Z/6/all", "constants/e"},
}


def product_disagrees(inp: FractionsInput, q: dict) -> bool:
    """Whether the whole product, over the span pairs of some class pair,
    meets more than one class of q; a payload that is no span stands for
    itself."""
    C = inp.category
    spans = shape_instances(inp, "spn")
    met: dict = {}
    for s1 in spans:
        for s2 in spans:
            if C.tgt[s1[1]] == C.tgt[s2[0]]:
                _, payloads = whole_product(inp, s1, s2)
                met.setdefault((q[s1], q[s2]), set()).update(q.get(p, p) for p in payloads)
    return any(len(classes) > 1 for classes in met.values())


def fires_exactly_where_the_product_disagrees(inp: FractionsInput, fault) -> bool:
    """Under ``fault``, localize on an input that meets the axioms raises
    the not-well-defined IntegrityError exactly when the whole product, on
    the classes localize finds without (b), disagrees; returns whether it
    raised."""
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            fault(mp)
        unchecked = localize(inp, exhaustive_limit=0)
        if len(shape_instances(inp, "spn")) > LIMIT or not product_disagrees(inp, unchecked.q):
            assert localize(inp) == unchecked
            return False
        with pytest.raises(IntegrityError, match="not well-defined"):
            localize(inp)
        return True


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus()
    + [("chain(5)/all", fully_marked_chain(5))]
    + [(f"Z/{n}/all", fully_marked_cyclic(n)) for n in range(3, 7)]
    + [("constants/e", constants())],
)
def test_self_check_b_fires_exactly_where_the_whole_product_disagrees(name, inp, fault):
    fired = fires_exactly_where_the_product_disagrees(inp, FAULTS[fault])
    assert fired == (name in DISAGREES.get(fault, ()))


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=30, deadline=None)
@given(marked())
def test_generated_self_check_b_fires_exactly_where_the_whole_product_disagrees(fault, inp):
    # decided before the fault, which would find a bogus filler where the
    # axioms have none
    assume(check_axioms(inp).ok)
    fired = fires_exactly_where_the_product_disagrees(inp, FAULTS[fault])
    assert not (fired and FAULTS[fault] is None)
