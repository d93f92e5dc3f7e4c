"""localize shares its Ore-square and weak-filler lists within one call.

Each fractions shape has one search routine, on arrow positions; named,
each routine's whole list is the independent oracle's full scan, on the
corpus and on drawn inputs.  Differential: the composition loop reads the
first head of each row from the axiom decision's witnesses, which is the
head the oracle's first Ore square and first weak filler form, and
self-check (b) lists and classifies the heads of each Ore square (w', h2,
v1) once per call, checks that each row (s1, v2) meets one class over its
squares, then composes the row's first head with each g2 out of s(v2) by
one table read; each square's heads are those the oracle's scans make,
each row's classes are those of its distinct heads, the public
span_compose searches on its own, and its exhaustive mode gives what the
whole Ore x weak product, formed test-side from the oracle's scans, gives.
With no fault, a bogus last filler or a coarser partition injected, (b)
fires exactly when that whole product meets more than one class in some
class pair; a bogus filler is appended by the library's routine and by the
test-side scan alike.  A count of compose calls bounds the cost of (b)
without timing it.  Negative controls: a fault injected into a routine or
into the marked arrows into an object reaches self-checks (a) and (b) and
fires them.
"""

import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import catfrac.ambient
import catfrac.fractions
import corpus
import oracle
from catfrac import (
    FinCategory,
    FractionsInput,
    check_axioms,
    cleavage,
    compose,
    find_isomorphism,
    grothendieck,
    internal_cleavage,
    internal_elements,
    internal_localize,
    localize,
    shape_instances,
    span_compose,
)
from catfrac.errors import IntegrityError
from catfrac.fractions import _mark_index
from oracle import to_raw
from test_generated import build, monoids, posets

LIMIT = 64  # localize's default exhaustive_limit


def named(C: FinCategory, found):
    """A routine's result or key by names: an arrow position, or a tuple of them."""
    return C.arrows[found] if isinstance(found, int) else tuple(C.arrows[i] for i in found)


def placed(C: FinCategory, found):
    """``named`` undone: an arrow name, or a tuple of them, by positions."""
    pos = C._positions().arrow
    return pos[found] if isinstance(found, str) else tuple(pos[f] for f in found)


# the pick of the fault in force per routine, by name: the test-side scans
# append what it picks, as the faulty routine does
FAULTY: dict = {}
SCANS = {"_weak_fillers": oracle.weak_fillers, "_ore_squares": oracle.ore_squares}


def scanned(inp: FractionsInput, routine: str, *key) -> list:
    """The oracle's whole list of ``routine``'s fillers at ``key``, by names,
    followed by the pick of a fault in force on that routine."""
    found = SCANS[routine](to_raw(inp.category), inp.weq, *key)
    bogus = FAULTY.get(routine)
    extra = bogus(inp, found, *key) if bogus else None
    return found if extra is None else found + [extra]


def scanned_square_heads(inp: FractionsInput, wp: str, h2: str, v1: str) -> list[tuple]:
    """The head ((m;w');v1, m;h2) of the Ore square (w', h2) for every weak
    filler m of (w', v1), from the test-side scan, in canonical order,
    repeats included."""
    comp = inp.category.composition
    return [
        (comp[(comp[(m, wp)], v1)], comp[(m, h2)])
        for m in scanned(inp, "_weak_fillers", wp, v1)
    ]


def scanned_heads(inp: FractionsInput, v1: str, g1: str, v2: str) -> list[tuple]:
    """The heads of every Ore square (w', h2) of (g1, v2), from the
    test-side scans, in canonical order, repeats included."""
    return [
        head
        for wp, h2 in scanned(inp, "_ore_squares", g1, v2)
        for head in scanned_square_heads(inp, wp, h2, v1)
    ]


def row_squares(inp: FractionsInput, v1: str, g1: str, v2: str) -> list[tuple]:
    """The keys (w', h2, v1) of the Ore squares of the row (v1, g1, v2), from
    the test-side scan, in canonical order."""
    return [(wp, h2, v1) for wp, h2 in scanned(inp, "_ore_squares", g1, v2)]


def localize_spying(inp: FractionsInput):
    """localize, recording every span_compose call (s1, s2, exhaustive),
    every Ore list it reads through ``_listed``, (key, squares), and every
    list of heads it forms per Ore square, (key, heads), by names."""
    composed, ore, read = [], [], []
    public = catfrac.fractions.span_compose
    listed = catfrac.fractions._listed
    heads_of = catfrac.fractions._square_heads
    C = inp.category

    def composing(inp, s1, s2, exhaustive=False):
        composed.append((s1, s2, exhaustive))
        return public(inp, s1, s2, exhaustive)

    def listing(lists, routine, inp, *key):
        found = listed(lists, routine, inp, *key)
        if routine is catfrac.fractions._ore_squares:
            ore.append((named(C, key), [named(C, square) for square in found]))
        return found

    def reading(inp, lists, *key):
        heads = heads_of(inp, lists, *key)
        read.append((named(C, key), [named(C, head) for head in heads]))
        return heads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catfrac.fractions, "span_compose", composing)
        mp.setattr(catfrac.fractions, "_listed", listing)
        mp.setattr(catfrac.fractions, "_square_heads", reading)
        LC = localize(inp)
    return LC, composed, ore, read


def rows(inp: FractionsInput) -> list[tuple]:
    """The keys (v1, g1, v2) of the rows (s1, v2) of composable span pairs,
    in the order of the full product of spans; none above LIMIT spans."""
    spans = shape_instances(inp, "spn")
    if len(spans) > LIMIT:
        return []
    C = inp.category
    return [(v1, g1, v2) for v1, g1 in spans for v2 in inp.weq if C.tgt[v2] == C.tgt[g1]]


def check_against_public(inp: FractionsInput) -> None:
    LC, composed, ore, read = localize_spying(inp)
    fresh = FractionsInput(inp.category, inp.weq)
    C, K = inp.category, LC.carrier
    # the class loop composes each class pair from its row's head, so on an
    # input that passes the axioms span_compose never runs
    assert composed == []
    for (n1, n2), n in K.composition.items():
        s1, s2 = LC.class_reps[n1], LC.class_reps[n2]
        assert LC.q[span_compose(fresh, s1, s2)] == n
    # each row's distinct heads, listed directly, are those of the oracle's
    # scans, in order
    for key in rows(inp):
        heads = [named(C, head) for head in catfrac.fractions._composite_heads(
            inp, {}, *placed(C, key))]
        assert heads == list(dict.fromkeys(scanned_heads(inp, *key)))
    # (b) lists the heads of every Ore square its rows read once, each the
    # oracle's product for that square
    assert Counter(key for key, _ in read) == Counter(
        {square for key in rows(inp) for square in row_squares(inp, *key)}
    )
    for key, heads in read:
        assert heads == scanned_square_heads(inp, *key)


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
    LC, composed, ore, read = localize_spying(inp)
    K = LC.carrier
    assert list(K.composition) == [
        (n1, n2) for n1 in K.arrows for n2 in K.arrows if K.tgt[n1] == K.src[n2]
    ]
    # (b) reads each row's Ore list once, row by row, and lists a square's
    # heads at the first row through it
    assert [key for key, _ in ore] == [(g1, v2) for _, g1, v2 in rows(inp)]
    assert [key for key, _ in read] == list(
        dict.fromkeys(square for key in rows(inp) for square in row_squares(inp, *key))
    )


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


def check_row_classes(inp: FractionsInput) -> None:
    """Each row's classes as (b) decides them, the union over the Ore
    squares it reads of the classes of each square's listed heads, are the
    classes of that row's ``_composite_heads``: one class, as localize
    returned.  A head that is no span stands for itself."""
    LC, _, ore, read = localize_spying(inp)
    C, q, heads_of = inp.category, LC.q, dict(read)
    assert len(ore) == len(rows(inp))
    for (v1, g1, v2), (key, squares) in zip(rows(inp), ore):
        assert key == (g1, v2)
        decided = {q.get(head, head) for wp, h2 in squares for head in heads_of[wp, h2, v1]}
        heads = catfrac.fractions._composite_heads(inp, {}, *placed(C, (v1, g1, v2)))
        assert decided == {q.get(head, head) for head in (named(C, h) for h in heads)}
        assert len(decided) == 1


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus()
    + [("chain(5)/all", fully_marked_chain(5))]
    + [(f"Z/{n}/all", fully_marked_cyclic(n)) for n in range(3, 7)],
)
def test_row_classes_are_those_of_the_rows_heads(name, inp):
    check_row_classes(inp)


def whole_product(inp: FractionsInput, s1: tuple, s2: tuple) -> tuple:
    """Every (Ore square, weak filler) composite in canonical order, nothing
    shared and nothing dropped: (first, frozenset of all).  The fillers are
    the oracle's scans, with the pick of a fault in force."""
    (v1, g1), (v2, g2) = s1, s2
    comp = inp.category.composition
    found = [(a, comp[(b, g2)]) for a, b in scanned_heads(inp, v1, g1, v2)]
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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_self_check_b_classifies_each_square_once(monkeypatch, n):
    # fully marked Z/n has n^3 rows (s1, v2), each with n Ore squares of n
    # weak fillers: n^5 heads over the rows.  A square's heads depend on
    # (w', h2, v1) only, and (b) lists each of those n^3 keys once, so it
    # classifies n^4 heads
    listed, drawn = Counter(), 0
    exact = catfrac.fractions._square_heads

    def spy(inp, lists, *key):
        nonlocal drawn
        listed[key] += 1
        heads = exact(inp, lists, *key)
        drawn += len(heads)
        return heads

    monkeypatch.setattr(catfrac.fractions, "_square_heads", spy)
    LC = localize(fully_marked_cyclic(n))
    assert len(LC.carrier.arrows) == n
    assert len(listed) == n**3 and max(listed.values()) == 1
    assert drawn == n**4


def count_heads(monkeypatch, module=catfrac.fractions) -> tuple[Counter, list]:
    """How often each (v1, g1, v2) has its first head read through the
    reader ``module``'s binding of ``_first_heads`` sets up, and the inputs
    a reader was set up for, one per setup."""
    reads, setups = Counter(), []
    setup = module._first_heads

    def first_heads(inp):
        setups.append(inp)
        exact = setup(inp)

        def head(*key):
            reads[key] += 1
            return exact(*key)

        return head

    monkeypatch.setattr(module, "_first_heads", first_heads)
    return reads, setups


def search_callers(monkeypatch) -> Counter:
    """Who calls the Ore and weak routines: per routine, the function each
    call comes from."""
    callers = Counter()
    for name in ("_ore_squares", "_weak_fillers"):
        exact = getattr(catfrac.fractions, name)

        def spy(inp, *key, bound=None, name=name, exact=exact):
            callers[name, sys._getframe(1).f_code.co_name] += 1
            return exact(inp, *key, bound=bound)

        monkeypatch.setattr(catfrac.fractions, name, spy)
    return callers


@pytest.mark.parametrize("n", [4, 5, 6])  # 30 and 55 spans run (b), 91 skip it
def test_class_loop_searches_each_head_once(monkeypatch, n):
    # each head's fillers are searched once, by the axiom decision: the
    # class loop reads every class pair out of (v1, g1) into s(v2) from one
    # head, which the decision's witnesses give, and composes it with g2 by
    # one table read; (b) searches its own whole lists, through _listed.
    # A checked compose is only the fallback of a failed read (spans never
    # fail)
    heads, setups = count_heads(monkeypatch)
    searches = search_callers(monkeypatch)
    callers = Counter()

    def counting(C, f, g):
        callers[sys._getframe(1).f_code.co_name] += 1
        return compose(C, f, g)

    monkeypatch.setattr(catfrac.fractions, "compose", counting)
    inp = fully_marked_chain(n)
    LC = localize(inp)
    assert len(LC.carrier.arrows) == n * n
    assert setups == [inp]
    assert heads and max(heads.values()) == 1
    assert len(heads) < len(LC.carrier.composition)
    b_runs = len(shape_instances(inp, "spn")) <= LIMIT
    assert {caller for _, caller in searches} == (
        {"check_axioms", "_listed"} if b_runs else {"check_axioms"}
    )
    assert callers["head"] == callers["span_compose"] == 0


def test_search_caller_spy_fires(monkeypatch):
    # a first-head reader that searches its heads again is seen: its Ore
    # and weak searches come from the reader, outside the decision and (b)
    def searching(inp):
        P = inp.category._positions()
        n, flat = len(P.src), P.flat

        def head(v1, g1, v2):
            wp, h2 = catfrac.fractions._ore_squares(inp, g1, v2, bound=1)[0]
            m = catfrac.fractions._weak_fillers(inp, wp, v1, bound=1)[0]
            return flat[flat[m * n + wp] * n + v1], flat[m * n + h2]

        return head

    monkeypatch.setattr(catfrac.fractions, "_first_heads", searching)
    searches = search_callers(monkeypatch)
    localize(fully_marked_chain(6))
    assert {caller for _, caller in searches} == {"check_axioms", "head"}


def test_internal_localize_searches_each_head_once(monkeypatch):
    # the ambient's heads are searched once, by the axiom decision: each
    # span pair reads its head from the decision's witnesses, through one
    # reader set up for the call, and searches no filler itself
    D = corpus.diag_contra_chain()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    heads, setups = count_heads(monkeypatch, catfrac.ambient)
    searches = search_callers(monkeypatch)
    internal_localize(IE, w)
    pairs = catfrac.ambient._machinery(IE, w).r0.dom.size
    assert len(setups) == 1
    assert sum(heads.values()) == pairs > len(heads)
    assert {caller for _, caller in searches} == {"check_axioms"}


@pytest.mark.parametrize(
    "inp,row",
    [
        (fully_marked_chain(3), "(('0<0', '0<0'), '0<0')"),
        (fully_marked_cyclic(3), "(('r0', 'r0'), 'r0')"),
    ],
)
def test_row_without_a_head_is_an_integrity_error(monkeypatch, inp, row):
    # axioms (2) and (3) give every row (v1, g1, v2) a head, so a first-head
    # read that finds none is a fault, not a failing axiom: the first row of
    # the class loop is named
    assert check_axioms(inp).ok
    monkeypatch.setattr(catfrac.fractions, "_first_heads", lambda inp: lambda *key: None)
    with pytest.raises(IntegrityError) as raised:
        localize(inp)
    assert str(raised.value) == f"axioms passed but the row {row} has no head"


def test_localize_reads_first_fillers_only_when_b_is_skipped(monkeypatch):
    # fully marked chain(6) has 91 spans, so (b) is skipped: the axiom
    # decision asks each of its cases for one filler, once per case, and
    # the class loop reads its heads from those witnesses, so no routine
    # is called outside the decision nor unbounded
    inp = fully_marked_chain(6)
    C, W = inp.category, inp.weq
    calls, drawn, bounds = Counter(), Counter(), Counter()

    def spied(name):
        exact = getattr(catfrac.fractions, name)

        def spy(inp, *key, bound=None):
            calls[name] += 1
            bounds[bound] += 1
            found = exact(inp, *key, bound=bound)
            drawn[name] += len(found)
            return found

        return spy

    for name in ("_ore_squares", "_weak_fillers"):
        monkeypatch.setattr(catfrac.fractions, name, spied(name))
    localize(inp)
    weak_cases = sum(C.tgt[v] == C.src[vp] for v in W for vp in W)
    ore_cases = sum(C.tgt[h] == C.tgt[v] for h in C.arrows for v in W)
    assert calls == Counter({"_weak_fillers": weak_cases, "_ore_squares": ore_cases})
    assert bounds == Counter({1: weak_cases + ore_cases})
    assert drawn == calls
    # the spies see the whole lists of an exhaustive composite
    calls.clear()
    drawn.clear()
    bounds.clear()
    span_compose(FractionsInput(C, W), ("2<2", "2<3"), ("3<3", "3<4"), exhaustive=True)
    assert drawn["_ore_squares"] > calls["_ore_squares"] == 1
    assert set(bounds) == {None}


def routine_keys(inp: FractionsInput) -> list[tuple]:
    """Each search routine, the oracle's scan of its shape, and every key
    it is checked at, by names: each marked composable pair, each cospan
    with a marked second leg and each parallel pair."""
    C, W = inp.category, inp.weq
    return [
        ("_weak_fillers", oracle.weak_fillers,
         [(v, vp) for v in W for vp in W if C.tgt[v] == C.src[vp]]),
        ("_ore_squares", oracle.ore_squares,
         [(h, v) for h in C.arrows for v in W if C.tgt[h] == C.tgt[v]]),
        ("_zippers", oracle.zippers,
         [(f, g) for f in C.arrows for g in C.hom(C.src[f], C.tgt[f])]),
    ]


def check_routines_against_the_oracle(inp: FractionsInput) -> None:
    """Named, each routine's whole list is the oracle's full scan, and so
    is the list of marked arrows into each object, whose first entry is
    the section.  Bounded to k fillers, a routine returns the first k of
    its whole list: bounded to one, its first item, or [] when the list is
    empty, which is what the axiom decision reads."""
    C, raw = inp.category, to_raw(inp.category)
    for x, into in zip(C.objects, _mark_index(inp)[2]):
        assert named(C, tuple(into)) == tuple(oracle.sections(raw, inp.weq, x))
    for name, scan, keys in routine_keys(inp):
        routine = getattr(catfrac.fractions, name)
        for key in keys:
            whole = routine(inp, *placed(C, key))
            assert [named(C, f) for f in whole] == scan(raw, inp.weq, *key), (name, key)
            for bound in (1, 2):
                assert routine(inp, *placed(C, key), bound=bound) == whole[:bound], (name, key)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus()
    + [(name, inp) for name, inp, _ in corpus.failing_fractions()]
    + [("chain(6)/all", fully_marked_chain(6))]
    + [(f"Z/{n}/all", fully_marked_cyclic(n)) for n in range(3, 6)],
)
def test_routines_list_the_oracles_fillers(name, inp):
    check_routines_against_the_oracle(inp)


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
def test_generated_row_classes_are_those_of_the_rows_heads(inp):
    assume(check_axioms(inp).ok)
    check_row_classes(inp)


@settings(max_examples=60, deadline=None)
@given(marked())
def test_generated_routines_list_the_oracles_fillers(inp):
    check_routines_against_the_oracle(inp)


@settings(max_examples=60, deadline=None)
@given(marked())
def test_generated_exhaustive_composites_are_the_whole_product(inp):
    assume(check_axioms(inp).ok)
    check_whole_product(inp)


def oracle_first_heads(inp: FractionsInput) -> dict:
    """Every row (v1, g1, v2) by names, a span (v1, g1) and a marked v2 with
    t(v2) = t(g1), with the head the oracle's scans give it: ((m.w').v1,
    m.h2) for the first Ore square (w', h2) of (g1, v2) and the first weak
    filler m of (w', v1), or None when either scan is empty."""
    raw = to_raw(inp.category)
    arrows, comp, W = raw["arrows"], raw["compose"], inp.weq
    heads = {}
    for v1, g1 in oracle.spans(raw, W):
        for v2 in W:
            if arrows[v2][1] != arrows[g1][1]:
                continue
            squares = oracle.ore_squares(raw, W, g1, v2)
            fillers = oracle.weak_fillers(raw, W, squares[0][0], v1) if squares else []
            if fillers:
                (wp, h2), m = squares[0], fillers[0]
                heads[v1, g1, v2] = comp[(comp[(m, wp)], v1)], comp[(m, h2)]
            else:
                heads[v1, g1, v2] = None
    return heads


def check_first_heads_against_the_oracle(inp: FractionsInput) -> None:
    """The reader's head of every row, named, is the oracle's."""
    C = inp.category
    head = catfrac.fractions._first_heads(inp)
    expected = oracle_first_heads(inp)
    assert expected
    for key, want in expected.items():
        got = head(*placed(C, key))
        assert (None if got is None else named(C, got)) == want, key


def cleavage_input(D) -> FractionsInput:
    """The carrier of D's category of elements, marked at its cleavage."""
    GD = grothendieck(D)
    return FractionsInput(GD.carrier, cleavage(GD).members)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus()
    + [(name, inp) for name, inp, _ in corpus.failing_fractions()]
    + [(f"cleavage/{name}", cleavage_input(D)) for name, D in corpus.pseudocolimit_diagrams()]
    + [("chain(6)/all", fully_marked_chain(6))]
    + [(f"Z/{n}/all", fully_marked_cyclic(n)) for n in range(3, 6)],
)
def test_first_heads_are_the_oracles(name, inp):
    # differential: the reader's heads come from the axiom decision's
    # witnesses, the oracle's from its own scans, which share no library
    # code.  On an input that fails an axiom, a row whose first Ore square
    # or first weak filler is missing reads None.  On a cleavage the first
    # weak filler is often no identity
    check_first_heads_against_the_oracle(inp)


@settings(max_examples=60, deadline=None)
@given(marked())
def test_generated_first_heads_are_the_oracles(inp):
    check_first_heads_against_the_oracle(inp)


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


def with_bogus_last(routine, bogus):
    """``routine``'s list followed by one extra result: what ``bogus``
    picks, by names, among the candidates the genuine routine did not
    return; cut to its first ``bound`` results when a bound is given, as
    the routine's own list is."""

    def faulty(inp, *key, bound=None):
        C = inp.category
        genuine = routine(inp, *key)
        extra = bogus(inp, [named(C, f) for f in genuine], *named(C, key))
        found = genuine if extra is None else genuine + [placed(C, extra)]
        return found[:bound]

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


@pytest.mark.parametrize(
    "name,routine,bogus",
    [
        ("idem/ids", "_weak_fillers", non_filler),
        ("Z2/all", "_ore_squares", non_square),
    ],
)
def test_self_check_b_fires_on_a_bogus_last_filler(monkeypatch, name, routine, bogus):
    inp = dict(corpus.fractions_corpus())[name]
    honest = localize(inp)
    monkeypatch.setattr(
        catfrac.fractions, routine, with_bogus_last(getattr(catfrac.fractions, routine), bogus)
    )
    # the composition loop takes the first filler, so without (b) nothing shows
    assert localize(inp, exhaustive_limit=0) == honest
    with pytest.raises(IntegrityError, match="not well-defined"):
        localize(inp)


def test_composite_that_is_no_span_is_an_integrity_error(monkeypatch):
    # the 3-chain marked at its identities, 0<1 and 1<2: 0<1;1<2 has no
    # genuine weak filler, so axiom (2) fails there.  A bogus filler
    # appended by the weak routine is the first of that pair's list, so it
    # passes axiom (2) and makes the composition loop's composite
    # (0<2, 0<0), not a span
    C = corpus.chain(3)
    inp = FractionsInput(C, ("0<0", "1<1", "2<2", "0<1", "1<2"))
    report = check_axioms(FractionsInput(C, inp.weq))
    assert [f.axiom for f in report.findings if not f.ok] == [2]
    assert report.finding(2).counterexample == ("0<1", "1<2")
    monkeypatch.setattr(
        catfrac.fractions, "_weak_fillers",
        with_bogus_last(catfrac.fractions._weak_fillers, non_filler),
    )
    with pytest.raises(IntegrityError) as raised:
        localize(inp)
    assert check_axioms(inp).finding(2).witnesses[("0<1", "1<2")] == "0<0"
    assert str(raised.value) == (
        "composite of ('1<2', '1<1') and ('0<1', '0<0') is ('0<2', '0<0'), which is not a span"
    )


def test_self_check_a_fires_on_a_bogus_last_section(monkeypatch):
    # each object's list of marked arrows into it, whose first entry is its
    # section, gets the first marked arrow not into it appended, in a new
    # index the input keeps in place of its own; the axioms are decided
    # before the fault, which would add cases of its own
    inp = dict(corpus.fractions_corpus())["arrow/all"]
    assert check_axioms(inp).ok
    exact = catfrac.fractions._mark_index

    def foreign_sections(inp):
        marked, w_out, w_into = exact(inp)
        C, pos = inp.category, inp.category._positions().arrow
        inp._marks = marked, w_out, [
            into + [pos[v] for v in inp.weq if C.tgt[v] != x][:1]
            for x, into in zip(C.objects, w_into)
        ]
        return inp._marks

    monkeypatch.setattr(catfrac.fractions, "_mark_index", foreign_sections)
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
    """The fault that appends ``bogus``'s pick to the lists of the routine
    ``name`` and of its test-side scan."""

    def inject(mp) -> None:
        exact = getattr(catfrac.fractions, name)
        mp.setattr(catfrac.fractions, name, with_bogus_last(exact, bogus))
        mp.setitem(FAULTY, name, bogus)

    return inject


def merged_last_class(mp) -> None:
    """The fault that merges the last sailboat class into the first class
    with its endpoints: a coarser partition, which no filler fault makes."""
    exact = catfrac.fractions._span_partition

    def coarser(inp):
        spans, ordered, start = exact(inp)
        C = inp.category

        def ends(members):
            v, g = spans[members[0]]
            return C.tgt[v], C.tgt[g]

        for i, members in enumerate(ordered[:-1]):
            if ends(members) == ends(ordered[-1]):
                merged = sorted(members + ordered[-1])
                return spans, ordered[:i] + [merged] + ordered[i + 1:-1], start
        return spans, ordered, start

    mp.setattr(catfrac.fractions, "_span_partition", coarser)


FAULTS = {
    "no fault": None,
    "bogus weak filler": bogus_last("_weak_fillers", non_filler),
    "bogus Ore filler": bogus_last("_ore_squares", non_square),
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
