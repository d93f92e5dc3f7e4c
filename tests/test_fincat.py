import re

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from catfrac import (
    FinCategory,
    FractionsInput,
    Functor,
    NatTrans,
    check_axioms,
    check_shape,
    compose,
    compose_functors,
    compose_many,
    enumerate_functors,
    enumerate_nat_trans,
    find_isomorphism,
    identity_functor,
    identity_nat_trans,
    localize,
    opposite,
    two_sided_inverse,
    validate_category,
    validate_functor,
    validate_nat_trans,
    vertical_compose,
)
from catfrac.errors import DomainError, InputError
from catfrac.fincat import backtrack, misplaced_composites, partition, uniquify
from test_generated import build, categories, monoids, posets


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_corpus_categories_valid(name, C):
    assert validate_category(C).ok


def test_build_fills_identity_composites():
    C = corpus.chain3()
    assert C.composition[("id:x", "f")] == "f"
    assert C.composition[("f", "id:y")] == "f"
    assert C.composition[("f", "g")] == "h"


def build_with_pairwise_fill(objects, arrows, identity, composition) -> FinCategory:
    """FinCategory.build with its identity fill written as a walk over every
    composable pair: the reference for the one pass over the arrows."""
    src = {f: s for f, s, _ in arrows}
    tgt = {f: t for f, _, t in arrows}
    C = FinCategory(
        tuple(objects), tuple(f for f, _, _ in arrows), src, tgt, dict(identity), dict(composition)
    )
    for f, g in C.composable_pairs():
        if (f, g) in C.composition:
            continue
        if g == identity.get(tgt[f]):
            C.composition[(f, g)] = f
        elif f == identity.get(src[g]):
            C.composition[(f, g)] = g
    C._check_structure()
    return C


def built_or_refused(build, *table):
    """The composition table, in insertion order, or the refusal's message."""
    try:
        return list(build(*table).composition.items())
    except InputError as exc:
        return str(exc)


def assert_fill_matches_pairwise(objects, arrows, identity, composition) -> None:
    table = (objects, arrows, identity, composition)
    assert built_or_refused(FinCategory.build, *table) == built_or_refused(
        build_with_pairwise_fill, *table
    )


def dropped_tables(C: FinCategory, drop) -> tuple:
    """C's table with the composition entries ``drop`` picks left out."""
    arrows = [(f, C.src[f], C.tgt[f]) for f in C.arrows]
    kept = {pair: h for pair, h in C.composition.items() if not drop(pair)}
    return C.objects, arrows, C.identity, kept


@pytest.mark.parametrize("name,C", corpus.all_categories() + [("chain(4)", corpus.chain(4))])
def test_identity_fill_matches_the_pairwise_walk(name, C):
    ids = set(C.identity.values())
    # every identity composite left to the fill, then each entry dropped on
    # its own: a dropped identity composite is filled at the end of the
    # table, any other is named as the first missing pair
    assert_fill_matches_pairwise(*dropped_tables(C, lambda pair: ids & set(pair)))
    for dropped in C.composition:
        assert_fill_matches_pairwise(*dropped_tables(C, lambda pair: pair == dropped))


def test_identity_fill_matches_the_pairwise_walk_on_junk_tables():
    arrows = [("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b")]
    for identity in (
        {"a": "f", "b": "ib"},  # an identity that is no endomorphism
        {"a": "ia"},  # an object without an identity
        {"a": "zz", "b": "ib"},  # an identity that is no arrow
        {"a": "ia", "b": "ib", None: "ia"},
    ):
        assert_fill_matches_pairwise(["a", "b"], arrows, identity, {})
    # a dangling endpoint, and a duplicated arrow
    assert_fill_matches_pairwise(["a"], [("ia", "a", "a"), ("f", "a", None)], {"a": "ia"}, {})
    assert_fill_matches_pairwise(["a"], [("ia", "a", "a"), ("ia", "a", "a")], {"a": "ia"}, {})


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(), monoids()), st.data())
def test_identity_fill_matches_the_pairwise_walk_on_generated_tables(raw, data):
    C = build(raw)
    dropped = data.draw(st.sets(st.sampled_from(sorted(C.composition))))
    assert_fill_matches_pairwise(*dropped_tables(C, dropped.__contains__))


def test_build_rejects_structural_junk():
    with pytest.raises(InputError):
        FinCategory.build(["a", "a"], [("i", "a", "a")], {"a": "i"}, {})
    with pytest.raises(InputError):
        FinCategory.build(["a"], [("i", "a", "b")], {"a": "i"}, {})
    with pytest.raises(InputError):
        FinCategory.build(["a"], [("i", "a", "a")], {}, {})
    with pytest.raises(InputError):
        FinCategory.build(
            ["a"], [("i", "a", "a"), ("e", "a", "a")], {"a": "i"}, {}
        )  # (e,e) missing and not an identity composite


def test_build_rejects_non_composable_entry():
    with pytest.raises(InputError):
        FinCategory.build(
            ["a", "b"],
            [("id:a", "a", "a"), ("id:b", "b", "b"), ("f", "a", "b")],
            {"a": "id:a", "b": "id:b"},
            {("f", "f"): "f"},
        )


def test_validate_catches_law_violations():
    C = FinCategory.build(
        ["x", "y", "z"],
        [("id:x", "x", "x"), ("id:y", "y", "y"), ("id:z", "z", "z"),
         ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z")],
        {"x": "id:x", "y": "id:y", "z": "id:z"},
        {("f", "g"): "id:z"},
    )
    report = validate_category(C)
    assert not report.ok
    assert any("hom" in p for p in report.problems)


def test_compose_is_diagrammatic():
    C = corpus.chain3()
    assert compose(C, "f", "g") == "h"
    assert compose_many(C, "id:x", "f", "g", "id:z") == "h"
    with pytest.raises(DomainError):
        compose(C, "g", "f")


def test_hom_and_identity_helpers():
    C = corpus.iso()
    assert C.hom("a", "b") == ("u",)
    assert C.is_identity("id:a") and not C.is_identity("u")
    assert ("u", "v") in list(C.composable_pairs())


def test_functor_validation():
    C, I = corpus.two(), corpus.iso()
    F = Functor(C, I, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "u"})
    assert validate_functor(F).ok
    bad = Functor(C, I, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "v"})
    assert not validate_functor(bad).ok
    assert validate_functor(identity_functor(C)).ok
    assert validate_functor(compose_functors(F, identity_functor(I))).ok


def test_functor_composition_acts_pointwise():
    I = corpus.iso()
    s = corpus.swap_iso(I)
    ss = compose_functors(s, s)
    assert ss == identity_functor(I)


def test_nat_trans_validation():
    C = corpus.two()
    F = identity_functor(C)
    eta = identity_nat_trans(F)
    assert validate_nat_trans(eta).ok
    assert vertical_compose(eta, eta) == eta
    bad = NatTrans(F, F, {"a": "id:a", "b": "f"})
    assert not validate_nat_trans(bad).ok


def test_nat_trans_center_of_z2():
    C = corpus.z2()
    F = identity_functor(C)
    assert len(enumerate_nat_trans(F, F)) == 2


@pytest.mark.parametrize(
    "make_c,make_x",
    [
        (oracle.raw_walking_arrow, oracle.raw_walking_arrow),
        (oracle.raw_walking_arrow, oracle.raw_walking_iso),
        (oracle.raw_walking_iso, oracle.raw_walking_iso),
        (oracle.raw_chain3, oracle.raw_walking_iso),
    ],
)
def test_enumerate_functors_matches_oracle(make_c, make_x):
    def from_raw(raw):
        return FinCategory.build(
            raw["objects"],
            [(f, s, t) for f, (s, t) in raw["arrows"].items()],
            raw["identity"],
            raw["compose"],
        )

    C, X = from_raw(make_c()), from_raw(make_x())
    found = enumerate_functors(C, X)
    assert len(found) == oracle.functor_count(make_c(), make_x())
    for F in found:
        assert validate_functor(F).ok
    assert len({(tuple(sorted(F.on_objects.items())), tuple(sorted(F.on_arrows.items()))) for F in found}) == len(found)


def test_check_shape_cofiltered():
    assert check_shape(corpus.one(), "cofiltered").ok
    assert check_shape(corpus.two(), "cofiltered").ok
    assert check_shape(corpus.chain3(), "cofiltered").ok
    assert check_shape(corpus.span_shape(), "cofiltered").ok
    rep = check_shape(corpus.parallel(), "cofiltered")
    assert not rep.ok and rep.failure is not None
    assert not check_shape(corpus.cospan_shape(), "cofiltered").ok


def test_check_shape_filtered_is_dual():
    par = corpus.parallel()
    assert not check_shape(par, "filtered").ok
    assert check_shape(opposite(corpus.span_shape()), "filtered").ok


def test_empty_category():
    E = FinCategory.build([], [], {}, {})
    assert validate_category(E).ok
    # no slots: one empty assignment, and accept is never asked
    assert list(backtrack(0, lambda i, vals: [], lambda i, vals: False)) == [[]]
    for direction in ("filtered", "cofiltered"):
        report = check_shape(E, direction)
        assert not report.ok and report.failure == "category is empty"
    assert [F.on_objects for F in enumerate_functors(E, corpus.two())] == [{}]
    assert list(enumerate_functors(corpus.two(), E)) == []
    assert find_isomorphism(E, E) is not None
    assert find_isomorphism(E, corpus.one()) is None


def test_opposite_involution():
    for name, C in corpus.all_categories():
        Cop = opposite(C)
        assert validate_category(Cop).ok, name
        assert opposite(Cop) == C
        for f in C.arrows:
            assert Cop.src[f] == C.tgt[f] and Cop.tgt[f] == C.src[f]


def test_find_isomorphism():
    wit = find_isomorphism(corpus.iso(), corpus.iso_renamed())
    assert wit is not None
    assert validate_functor(wit.forward).ok and validate_functor(wit.backward).ok
    assert compose_functors(wit.forward, wit.backward) == identity_functor(corpus.iso())
    assert find_isomorphism(corpus.two(), corpus.iso()) is None
    assert find_isomorphism(corpus.two(), corpus.parallel()) is None


def test_two_sided_inverse():
    I = corpus.iso()
    assert two_sided_inverse(I, "u") == "v"
    assert two_sided_inverse(I, "id:a") == "id:a"
    assert two_sided_inverse(corpus.two(), "f") is None


def test_uniquify_examples():
    assert uniquify(["a", "a", "b", "a"]) == ["a", "a#2", "b", "a#3"]
    assert uniquify([]) == []


def test_uniquify_skips_a_name_already_taken():
    assert uniquify(["x", "x#2", "x"]) == ["x", "x#2", "x#3"]


@given(st.lists(st.text(alphabet="ab#2", max_size=4), max_size=12))
def test_uniquify_properties(names):
    out = uniquify(names)
    assert len(out) == len(names)
    assert len(set(out)) == len(out)
    for given_name, got in zip(names, out):
        assert got.startswith(given_name)


@given(st.data())
def test_associativity_spot_checks(data):
    name, C = data.draw(st.sampled_from(corpus.all_categories()))
    triples = [
        (f, g, h)
        for f in C.arrows
        for g in C.arrows
        if C.tgt[f] == C.src[g]
        for h in C.arrows
        if C.tgt[g] == C.src[h]
    ]
    if not triples:
        return
    f, g, h = data.draw(st.sampled_from(triples))
    assert compose(C, compose(C, f, g), h) == compose(C, f, compose(C, g, h))


def _chain(n: int, name=lambda i, j: f"{i}<{j}", reverse: bool = False) -> FinCategory:
    """The poset 0 < 1 < ... < n-1, one arrow name(i, j) for each i <= j."""
    objs = [str(i) for i in range(n)]
    arrows = [(name(i, j), str(i), str(j)) for i in range(n) for j in range(i, n)]
    if reverse:
        arrows.reverse()
    return FinCategory.build(
        objs,
        arrows,
        {str(i): name(i, i) for i in range(n)},
        {
            (name(i, j), name(j, k)): name(i, k)
            for i in range(n)
            for j in range(i, n)
            for k in range(j, n)
        },
    )


def test_functor_search_is_not_limited_by_recursion_depth():
    C = _chain(46)
    assert len(C.arrows) == 1081
    assert len(enumerate_functors(C, _chain(1))) == 1


def test_isomorphism_search_is_not_limited_by_recursion_depth():
    C = _chain(46)
    P = _chain(46, name=lambda i, j: f"r{i}_{j}", reverse=True)
    wit = find_isomorphism(C, P)
    assert wit is not None
    assert validate_functor(wit.forward).ok and validate_functor(wit.backward).ok


def test_nat_trans_search_rejects_a_non_functor():
    C, I = corpus.two(), corpus.iso()
    F = Functor(C, I, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "v"})
    with pytest.raises(DomainError):
        enumerate_nat_trans(F, F)


def test_nat_trans_search_returns_on_an_empty_hom_before_any_square():
    # F sends the generating arrow f to id:a, so its square at f is not
    # composable; but hom(F(b), G(b)) = hom(b, a) is empty, so the search
    # returns [] before it checks a square. With that hom nonempty, the
    # square raises.
    C = corpus.two()
    F = Functor(C, C, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "id:a"})
    G = Functor(C, C, {"a": "a", "b": "a"}, {"id:a": "id:a", "id:b": "id:a", "f": "id:a"})
    assert enumerate_nat_trans(F, G) == []
    with pytest.raises(DomainError, match="non-composable pair \\('id:a', 'id:b'\\)"):
        enumerate_nat_trans(F, identity_functor(C))


def test_nat_trans_search_names_a_missing_arrow_image():
    # a missing image and a non-composable pair both fail a table read; the
    # missing image is named as such, with the functor that lacks it
    C = corpus.two()
    partial = Functor(C, C, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b"})
    whole = identity_functor(C)
    with pytest.raises(DomainError, match="^the first functor has no image of arrow 'f'$"):
        enumerate_nat_trans(partial, whole)
    with pytest.raises(DomainError, match="^the second functor has no image of arrow 'f'$"):
        enumerate_nat_trans(whole, partial)


def raw_without_ff() -> FinCategory:
    """One object with an endomorphism f, built by the raw constructor, which
    checks nothing, with no composite of (f, f)."""
    ends = {"1": "x", "f": "x"}
    comp = {("1", "1"): "1", ("1", "f"): "f", ("f", "1"): "f"}
    return FinCategory(("x",), ("1", "f"), ends, dict(ends), {"x": "1"}, comp)


PARTIAL = "^composition table is partial: missing \\('f','f'\\)$"


@pytest.mark.parametrize("direction", ["filtered", "cofiltered"])
def test_check_shape_refuses_a_partial_table(direction):
    # the partial table ended in a bare KeyError on its missing pair
    with pytest.raises(InputError, match=PARTIAL):
        check_shape(raw_without_ff(), direction)


@pytest.mark.parametrize("side", ["domain", "codomain"])
def test_enumerate_functors_refuses_a_partial_table(side):
    # as a domain, the partial table gave 2 functors into Z/2, as if f;f
    # were unconstrained
    C, X = (raw_without_ff(), corpus.z2()) if side == "domain" else (corpus.z2(), raw_without_ff())
    with pytest.raises(InputError, match=PARTIAL):
        enumerate_functors(C, X)


@pytest.mark.parametrize(
    "pair", ["itself", "other_first", "other_second", "other_size"],
)
def test_find_isomorphism_refuses_a_partial_table(pair):
    # the partial table was found isomorphic to itself; a partial table is
    # refused before the sizes are compared, so a category of another size
    # does not hide it
    C = raw_without_ff()
    C, D = {
        "itself": (C, C),
        "other_first": (corpus.z2(), C),
        "other_second": (C, corpus.z2()),
        "other_size": (C, corpus.chain3()),
    }[pair]
    with pytest.raises(InputError, match=PARTIAL):
        find_isomorphism(C, D)



def raw_walking_arrow(**fields) -> FinCategory:
    """The walking arrow x -f-> y by the raw constructor, which checks
    nothing, with the given fields replaced."""
    table = {
        "objects": ("x", "y"),
        "arrows": ("1x", "1y", "f"),
        "src": {"1x": "x", "1y": "y", "f": "x"},
        "tgt": {"1x": "x", "1y": "y", "f": "y"},
        "identity": {"x": "1x", "y": "1y"},
        "composition": {("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "f", ("1y", "1y"): "1y"},
    }
    return FinCategory(**dict(table, **fields))


# each structural defect the raw constructor lets through, with the message
# FinCategory.build gives it
DEFECTS = {
    "duplicate_object": ({"objects": ("x", "y", "y")}, "duplicate object names"),
    "duplicate_arrow": ({"arrows": ("1x", "1y", "f", "f")}, "duplicate arrow names"),
    "dangling_endpoint": (
        {"tgt": {"1x": "x", "1y": "y", "f": "z"}}, "arrow 'f' has a dangling endpoint"
    ),
    "missing_endpoint": ({"src": {"1x": "x", "1y": "y"}}, "arrow 'f' has a dangling endpoint"),
    "missing_identity": ({"identity": {"x": "1x"}}, "no identity declared for object 'y'"),
    "unknown_identity": (
        {"identity": {"x": "1x", "y": "1z"}}, "identity of 'y' is not a declared arrow"
    ),
    "unknown_arrow_entry": (
        {"composition": {("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "g", ("1y", "1y"): "1y"}},
        "composition entry ('f','1y')='g' references unknown arrows",
    ),
    "non_composable_entry": (
        {"composition": {("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "f", ("1y", "1y"): "1y",
                         ("f", "f"): "f"}},
        "composition entry for non-composable pair ('f','f')",
    ),
}

READERS = {
    "enumerate_functors": lambda C: enumerate_functors(C, corpus.z2()),
    "find_isomorphism": lambda C: find_isomorphism(C, C),
    "check_shape": lambda C: check_shape(C, "filtered"),
    "check_axioms": lambda C: check_axioms(FractionsInput(C, ())),
    "localize": lambda C: localize(FractionsInput(C, ())),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("defect", DEFECTS)
def test_view_refuses_each_structural_defect(defect, reader):
    # a lookup failed with a bare KeyError, or the defect passed unseen
    fields, message = DEFECTS[defect]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        READERS[reader](raw_walking_arrow(**fields))


@pytest.mark.parametrize("defect", DEFECTS)
def test_build_gives_each_defect_the_same_message(defect):
    fields, message = DEFECTS[defect]
    C = raw_walking_arrow(**fields)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        C._check_structure()


def test_build_refuses_a_key_that_repeats_a_pair():
    # the string "fg" unpacks as the pair ('f','g'), whose tuple entry is
    # there too, so the table is total and has one entry too many
    arrows = [("1", "x", "x"), ("2", "y", "y"), ("3", "z", "z"),
              ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z")]
    with pytest.raises(InputError, match="^composition key 'fg' is not a pair of arrows$"):
        FinCategory.build(["x", "y", "z"], arrows, {"x": "1", "y": "2", "z": "3"},
                          {("f", "g"): "h", "fg": "h"})


def moved(C: FinCategory, pair: tuple, h: str) -> FinCategory:
    """C by the raw constructor, with the composite of ``pair`` moved to h."""
    comp = dict(C.composition)
    comp[pair] = h
    return FinCategory(C.objects, C.arrows, dict(C.src), dict(C.tgt), dict(C.identity), comp)


def assert_misplaced_flag_is_the_walk(C: FinCategory) -> bool:
    """The view's flag is set exactly when the name walk finds a misplaced
    composite; returns the flag."""
    flag = C._positions().misplaced
    assert flag == (next(misplaced_composites(C), None) is not None)
    return flag


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_view_flags_a_misplaced_composite_as_the_walk_does(name, C):
    # a lawful table has none; moving its first non-identity composite, or
    # its first entry, to each arrow in turn lands outside the hom or not
    assert not assert_misplaced_flag_is_the_walk(C)
    pairs = [pair for pair in C.composition if not any(map(C.is_identity, pair))]
    pair = (pairs or list(C.composition))[0]
    flags = {assert_misplaced_flag_is_the_walk(moved(C, pair, h)) for h in C.arrows}
    assert flags == ({False, True} if len(C.objects) > 1 else {False})


@settings(max_examples=100, deadline=None)
@given(categories, st.data())
def test_generated_view_flags_a_misplaced_composite_as_the_walk_does(raw, data):
    C = build(raw)
    pair = data.draw(st.sampled_from(list(C.composition)))
    assert_misplaced_flag_is_the_walk(moved(C, pair, data.draw(st.sampled_from(C.arrows))))


@settings(max_examples=200, deadline=5000)
@given(st.data())
def test_partition_matches_the_oracle(data):
    # the same classes, class order and member order as naive sweep merging,
    # whatever the order of the moves
    size = data.draw(st.integers(min_value=0, max_value=30))
    element = st.integers(min_value=0, max_value=max(size - 1, 0))
    moves = data.draw(st.lists(st.tuples(element, element), max_size=40)) if size else []
    expected = oracle.components(size, moves)
    assert partition(size, moves) == expected
    assert partition(size, iter(data.draw(st.permutations(moves)))) == expected
