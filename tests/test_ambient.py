import json
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from catfrac import (
    FinCategory,
    FractionsInput,
    FinSetMap,
    FinSetObject,
    Functor,
    NatTrans,
    Pseudofunctor,
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    cleavage,
    compose_maps,
    derive_unit_compositors,
    coequalize_reflexive,
    coequalizer_mediate,
    coproduct,
    coproduct_mediate,
    externalize,
    find_isomorphism,
    grothendieck,
    identity_functor,
    identity_map,
    internal_cleavage,
    internal_elements,
    internal_localize,
    internalize,
    localize,
    pullback,
    pullback_mediate,
    strictify,
    validate_category,
    validate_internal_category,
    validate_internal_functor,
    validate_internal_nat_trans,
    validate_pseudofunctor,
    verify_cover_class,
    verify_pairs_coequalizer,
)
import catfrac.ambient as ambient
import catfrac.fractions as fractions
from catfrac.ambient import fibres, has_common_section, is_surjective
from catfrac.cli import _positional_mismatch, main
from catfrac.errors import AxiomError, DomainError, InputError, IntegrityError
from catfrac.fincat import partition
from catfrac.fractions import AxiomReport


def obj(n: int, label: str = "S") -> FinSetObject:
    return FinSetObject(label, n)


def test_map_construction_checks():
    A, B = obj(2, "A"), obj(2, "B")
    with pytest.raises(InputError):
        FinSetMap(A, B, (0,))
    with pytest.raises(InputError):
        FinSetMap(A, B, (0, 5))
    f = FinSetMap(A, B, (1, 0))
    assert compose_maps(f, identity_map(B)) == f
    assert compose_maps(identity_map(A), f) == f


def test_pullback_examples():
    A, B, C = obj(2, "A"), obj(2, "B"), obj(3, "C")
    f = FinSetMap(A, C, (0, 1))
    g = FinSetMap(B, C, (1, 2))
    P, p0, p1 = pullback(f, g)
    assert P.size == 1 and (p0.table, p1.table) == ((1,), (0,))
    k = FinSetMap(A, B, (0, 0))
    KP, k0, k1 = pullback(k, k)
    assert KP.size == 4  # kernel pair of a constant map
    with pytest.raises(DomainError):
        pullback(f, k)


def test_pullback_mediate_picks_the_unique_element():
    A = obj(2, "A")
    k = FinSetMap(A, obj(1, "pt"), (0, 0))
    P, p0, p1 = pullback(k, k)
    Z = obj(1, "Z")
    m = pullback_mediate(p0, p1, FinSetMap(Z, A, (1,)), FinSetMap(Z, A, (0,)))
    assert p0.table[m.table[0]] == 1 and p1.table[m.table[0]] == 0
    with pytest.raises(DomainError):
        pullback_mediate(p0, p1, FinSetMap(Z, A, (1,)), FinSetMap(Z, obj(1, "pt"), (0,)))


def test_pullback_mediate_rejects_projections_off_different_objects():
    A = obj(2, "A")
    k = FinSetMap(A, obj(1, "pt"), (0, 0))
    P, p0, p1 = pullback(k, k)
    Q, q0, _ = pullback(identity_map(A), identity_map(A))
    Z = obj(1, "Z")
    with pytest.raises(DomainError, match="^projections do not share a pullback object$"):
        pullback_mediate(q0, p1, FinSetMap(Z, A, (1,)), FinSetMap(Z, A, (0,)))


def test_coproduct_examples():
    S, injs = coproduct([obj(2, "A"), obj(1, "B")])
    assert S.size == 3
    assert injs[0].table == (0, 1) and injs[1].table == (2,)
    empty, none = coproduct([])
    assert empty.size == 0 and none == []
    S3, injs3 = coproduct([obj(2, "A"), obj(3, "B"), obj(1, "C")])
    assert S3.size == 6 and injs3[2].table == (5,)


def test_coproduct_mediate_agrees_with_legs():
    parts = [obj(2, "A"), obj(1, "B")]
    S, injs = coproduct(parts)
    T = obj(2, "T")
    legs = [FinSetMap(parts[0], T, (1, 0)), FinSetMap(parts[1], T, (1,))]
    m = coproduct_mediate(S, injs, legs)
    for inj, leg in zip(injs, legs):
        assert compose_maps(inj, m) == leg
    with pytest.raises(DomainError):
        coproduct_mediate(S, injs, legs[:1])
    # two injections onto the same elements, with legs that differ there
    with pytest.raises(DomainError, match="^legs disagree at element 0 of the coproduct$"):
        coproduct_mediate(S, [injs[0], injs[0]], [legs[0], FinSetMap(parts[0], T, (0, 1))])


@pytest.mark.parametrize(
    "other,block",
    [
        ([obj(2, "A")], 0),  # positions 0, 1 fit the coproduct
        ([obj(2, "C"), obj(2, "A")], 1),  # positions 2, 3 do not
    ],
)
def test_coproduct_mediate_rejects_injections_into_another_object(other, block):
    parts = [obj(2, "A"), obj(1, "B")]
    S, injs = coproduct(parts)
    _, foreign = coproduct(other)
    T = obj(2, "T")
    legs = [FinSetMap(parts[0], T, (1, 0)), FinSetMap(parts[1], T, (1,))]
    with pytest.raises(DomainError, match="^injections do not land in the coproduct$"):
        coproduct_mediate(S, [foreign[block], injs[1]], legs)


def test_coequalizer_examples():
    R = obj(2, "R")
    A3 = obj(3, "A")
    f = FinSetMap(R, A3, (0, 1))
    g = FinSetMap(R, A3, (1, 2))
    Q, q = coequalize_reflexive(f, g)
    assert Q.size == 1
    h = FinSetMap(R, A3, (0, 1))
    Q2, q2 = coequalize_reflexive(h, h)
    assert Q2.size == 3 and q2.table == (0, 1, 2)
    empty = obj(0, "E")
    f0 = FinSetMap(empty, A3, ())
    Q3, q3 = coequalize_reflexive(f0, f0)
    assert Q3.size == 3
    # classes are numbered by least member
    j = FinSetMap(R, A3, (2, 0))
    k = FinSetMap(R, A3, (2, 1))
    Q4, q4 = coequalize_reflexive(j, k)
    assert q4.table == (0, 0, 1)


def test_common_section_predicate():
    A2, A3 = obj(2, "A"), obj(3, "B")
    f = FinSetMap(A2, A3, (0, 1))
    g = FinSetMap(A2, A3, (1, 2))
    assert not has_common_section(f, g)  # 3 targets, 2 rows: impossible
    d = FinSetMap(A3, A3, (0, 1, 2))
    assert has_common_section(d, d)
    with pytest.raises(DomainError):
        has_common_section(f, d)


def test_coequalizer_mediate():
    R, A3 = obj(2, "R"), obj(3, "A")
    f = FinSetMap(R, A3, (0, 0))
    g = FinSetMap(R, A3, (1, 1))
    Q, q = coequalize_reflexive(f, g)
    h = FinSetMap(A3, obj(2, "T"), (1, 1, 0))
    m = coequalizer_mediate(q, h)
    assert compose_maps(q, m) == h
    bad = FinSetMap(A3, obj(2, "T"), (1, 0, 0))
    with pytest.raises(DomainError):
        coequalizer_mediate(q, bad)


sizes = st.integers(min_value=0, max_value=4)


@st.composite
def random_map(draw, dom=None, cod=None):
    if dom is None:
        dom = obj(draw(sizes), "D")
    if cod is None:
        cod = obj(draw(st.integers(min_value=1, max_value=4)), "C")
    table = tuple(
        draw(st.integers(min_value=0, max_value=cod.size - 1))
        for _ in range(dom.size)
    )
    return FinSetMap(dom, cod, table)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_common_section_matches_pointwise_definition(data):
    f = data.draw(random_map())
    g = data.draw(st.one_of(st.just(f), random_map(dom=f.dom, cod=f.cod)))
    pointwise = all(
        any(f.table[r] == a == g.table[r] for r in range(f.dom.size))
        for a in range(f.cod.size)
    )
    assert has_common_section(f, g) == pointwise


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_mediate_roundtrip(data):
    B = obj(data.draw(st.integers(min_value=1, max_value=3)), "B")
    f = data.draw(random_map(cod=B))
    g = data.draw(random_map(cod=B))
    P, p0, p1 = pullback(f, g)
    if P.size == 0:
        z = FinSetMap(obj(0, "Z"), P, ())
    else:
        z = data.draw(random_map(cod=P))
    m = pullback_mediate(p0, p1, compose_maps(z, p0), compose_maps(z, p1))
    assert m == z


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coproduct_mediate_roundtrip(data):
    parts = [obj(data.draw(sizes), f"P{i}") for i in range(data.draw(st.integers(min_value=1, max_value=3)))]
    S, injs = coproduct(parts)
    T = obj(data.draw(st.integers(min_value=1, max_value=3)), "T")
    legs = [data.draw(random_map(dom=p, cod=T)) for p in parts]
    m = coproduct_mediate(S, injs, legs)
    for inj, leg in zip(injs, legs):
        assert compose_maps(inj, m) == leg


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coequalizer_mediate_roundtrip(data):
    A = obj(data.draw(st.integers(min_value=1, max_value=4)), "A")
    f = data.draw(random_map(cod=A))
    g = data.draw(random_map(dom=f.dom, cod=A))
    Q, q = coequalize_reflexive(f, g)
    m0 = data.draw(random_map(dom=Q))
    m = coequalizer_mediate(q, compose_maps(q, m0))
    assert m == m0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_maps_would_pass_public_validation(data):
    f = data.draw(random_map())
    g = data.draw(random_map(dom=f.cod))
    h = data.draw(random_map(cod=f.cod))
    _, p0, p1 = pullback(f, h)
    _, injections = coproduct([f.dom, f.cod, h.dom])
    _, q = coequalize_reflexive(f, data.draw(random_map(dom=f.dom, cod=f.cod)))
    for m in [identity_map(f.dom), compose_maps(f, g), p0, p1, *injections, q]:
        assert FinSetMap(m.dom, m.cod, m.table) == m
        assert set(map(type, m.table)) <= {int}


@settings(max_examples=60, deadline=None)
@given(random_map())
def test_fibres_are_the_preimages(f):
    naive = [[x for x in range(f.dom.size) if f.table[x] == y] for y in range(f.cod.size)]
    assert [list(ys) for ys in fibres(f)] == naive
    assert fibres(f) is fibres(f)
    # the index is no field: equality, hash and repr ignore it
    fresh = FinSetMap(f.dom, f.cod, f.table)
    assert fresh == f and hash(fresh) == hash(f) and repr(fresh) == repr(f)


@st.composite
def kernel_map(draw, dom=None, cod=None, label="D"):
    """A map between sets of at most six elements; into the empty set only
    from the empty set."""
    if cod is None:
        cod = obj(draw(st.integers(min_value=0, max_value=6)), "C")
    if dom is None:
        dom = obj(draw(st.integers(min_value=0, max_value=6 if cod.size else 0)), label)
    return FinSetMap(dom, cod, tuple(
        draw(st.integers(min_value=0, max_value=cod.size - 1)) for _ in range(dom.size)
    ))


def brute_classes(size: int, rows) -> list:
    """Classes of 0..size-1 under the equivalence the rows generate, by
    search from each least unvisited member: members ascending, classes by
    least member."""
    linked = {i: {i} for i in range(size)}
    for a, b in rows:
        linked[a].add(b)
        linked[b].add(a)
    classes, seen = [], set()
    for i in range(size):
        if i in seen:
            continue
        members, frontier = {i}, [i]
        while frontier:
            new = linked[frontier.pop()] - members
            members |= new
            frontier += new
        seen |= members
        classes.append(sorted(members))
    return classes


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pullback_is_every_matching_pair_in_order(data):
    f = data.draw(kernel_map(label="A"))
    g = data.draw(kernel_map(cod=f.cod, label="B"))
    P, p0, p1 = pullback(f, g)
    pairs = [(x, y) for x in range(f.dom.size) for y in range(g.dom.size)
             if f.table[x] == g.table[y]]
    assert list(zip(p0.table, p1.table)) == pairs
    assert P == FinSetObject("pb(A,B)", len(pairs))
    assert (p0.dom, p0.cod, p1.dom, p1.cod) == (P, f.dom, P, g.dom)


@st.composite
def cospans(draw):
    """f : A -> B and g : C -> B, each set of at most five elements; a
    point of B outside both images leaves an empty fibre."""
    B = obj(draw(st.integers(min_value=0, max_value=5)), "B")

    def into_B(label):
        size = draw(st.integers(min_value=0, max_value=5 if B.size else 0))
        return FinSetMap(obj(size, label), B, tuple(
            draw(st.integers(min_value=0, max_value=B.size - 1)) for _ in range(size)
        ))

    return into_B("A"), into_B("C")


@settings(max_examples=300, deadline=2000)
@given(cospans())
def test_pair_index_finds_every_pullback_element(cospan):
    """Each (x, y) with f(x) = g(y) sits at start[x] + rank[y]; the guarded
    lookup finds it there and misses every other pair."""
    f, g = cospan
    _, p0, p1 = pullback(f, g)
    index = ambient._pair_index(p0, p1)
    start, rank = index
    for x in range(f.dom.size):
        for y in range(g.dom.size):
            found = ambient._find(p0, p1, index, x, y)
            if f.table[x] == g.table[y]:
                k = start[x] + rank[y]
                assert (p0.table[k], p1.table[k]) == (x, y)
                assert found == k
            else:
                assert found is None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotients_are_the_generated_classes(data):
    f = data.draw(kernel_map())
    g = data.draw(kernel_map(dom=f.dom, cod=f.cod))
    classes = brute_classes(f.cod.size, zip(f.table, g.table))
    assert partition(f.cod.size, zip(f.table, g.table)) == classes
    Q, q = coequalize_reflexive(f, g)
    assert Q == FinSetObject("C/~", len(classes))
    assert (q.dom, q.cod) == (f.cod, Q)
    assert q.table == tuple(
        next(k for k, members in enumerate(classes) if i in members) for i in range(f.cod.size)
    )


def brute_mediator(size: int, T: FinSetObject, pairs: list):
    """The values of T that m[x] may take, for each x in 0..size-1, when
    m[x] = v for each (x, v) in pairs: the values every pair at x allows."""
    return [
        [v for v in range(T.size) if all(u == v for y, u in pairs if y == x)]
        for x in range(size)
    ]


def first_disagreement(pairs: list):
    """The position of the first pair whose element an earlier pair sends
    to another value, or None."""
    return next((i for i, (x, v) in enumerate(pairs)
                 if any(y == x and u != v for y, u in pairs[:i])), None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coequalizer_mediate_is_the_unique_factorization(data):
    q = data.draw(kernel_map(label="A"))
    T = obj(data.draw(st.integers(min_value=1, max_value=6)), "T")
    if data.draw(st.booleans()):  # a leg that factors whenever q is onto
        h = compose_maps(q, data.draw(kernel_map(dom=q.cod, cod=T)))
    else:
        h = data.draw(kernel_map(dom=q.dom, cod=T))
    pairs = list(zip(q.table, h.table))
    candidates = brute_mediator(q.cod.size, T, pairs)
    split = first_disagreement(pairs)
    if split is not None:
        with pytest.raises(DomainError) as exc:
            coequalizer_mediate(q, h)
        assert str(exc.value) == f"leg is not constant on the class of element {split}"
    elif len({x for x, _ in pairs}) < q.cod.size:
        with pytest.raises(DomainError, match="^quotient map is not surjective$"):
            coequalizer_mediate(q, h)
    else:
        m = coequalizer_mediate(q, h)
        assert all(len(c) == 1 for c in candidates)
        assert (m.dom, m.cod, m.table) == (q.cod, T, tuple(c[0] for c in candidates))
        assert compose_maps(q, m) == h


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coproduct_mediate_is_the_unique_factorization(data):
    """Injections are the canonical ones or any maps into S, so blocks may
    overlap or leave elements unreached."""
    sizes = data.draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3)
                      .filter(lambda sizes: sum(sizes) <= 6))
    parts = [obj(n, f"P{i}") for i, n in enumerate(sizes)]
    S, canonical = coproduct(parts)
    T = obj(data.draw(st.integers(min_value=1, max_value=6)), "T")
    m0 = data.draw(kernel_map(dom=S, cod=T))
    injections, legs = [], []
    for part, inj in zip(parts, canonical):
        if data.draw(st.booleans()):
            inj = data.draw(kernel_map(dom=part, cod=S))
        injections.append(inj)
        legs.append(compose_maps(inj, m0) if data.draw(st.booleans())
                    else data.draw(kernel_map(dom=part, cod=T)))
    pairs = [(x, v) for inj, leg in zip(injections, legs) for x, v in zip(inj.table, leg.table)]
    candidates = brute_mediator(S.size, T, pairs)
    split = first_disagreement(pairs)
    if split is not None:
        with pytest.raises(DomainError) as exc:
            coproduct_mediate(S, injections, legs)
        assert str(exc.value) == f"legs disagree at element {pairs[split][0]} of the coproduct"
    elif len({x for x, _ in pairs}) < S.size:
        with pytest.raises(DomainError, match="^injections do not cover the coproduct$"):
            coproduct_mediate(S, injections, legs)
    else:
        m = coproduct_mediate(S, injections, legs)
        assert all(len(c) == 1 for c in candidates)
        cod = T if parts else FinSetObject("()", 0)
        assert (m.dom, m.cod, m.table) == (S, cod, tuple(c[0] for c in candidates))
        assert all(compose_maps(inj, m) == leg for inj, leg in zip(injections, legs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_is_the_generated_classes(data):
    """Any list of moves, not only the rows of a parallel pair."""
    size = data.draw(st.integers(min_value=1, max_value=6))
    member = st.integers(min_value=0, max_value=size - 1)
    moves = data.draw(st.lists(st.tuples(member, member), max_size=12))
    assert partition(size, moves) == brute_classes(size, moves)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A", "B"]), st.integers(0, 2), st.sampled_from(["A", "B"]), st.integers(0, 2))
def test_object_equality_is_label_and_size(label, size, other_label, other_size):
    A, same, other = obj(size, label), obj(size, label), obj(other_size, other_label)
    assert A is not same and A == same and not A != same and hash(A) == hash(same)
    assert hash(A) == hash((label, size))
    equal = (label, size) == (other_label, other_size)
    assert (A == other) is equal and (A != other) is not equal
    # never equal to a tuple of the same fields, from either side
    assert A != (label, size) and (label, size) != A and not A == (label, size)


def test_map_fields_are_unchanged():
    assert [fl.name for fl in fields(FinSetMap)] == ["dom", "cod", "table"]


@pytest.mark.parametrize(
    "table,bad",
    [((0, -1, 5), "-1"), ((0, 2, -1), "2"), ((0, 1.0, 7), "1.0"), ((1, None, -1), "None"),
     ((True, 0, 1), "True")],
)
def test_map_names_the_first_bad_value(table, bad):
    with pytest.raises(InputError) as exc:
        FinSetMap(obj(3, "A"), obj(2, "B"), table)
    assert str(exc.value) == f"map value {bad} outside codomain of size 2"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FinSetObject("A", 1.5), "size of 'A' must be an integer, got 1.5"),
        (lambda: FinSetObject("A", "2"), "size of 'A' must be an integer, got '2'"),
        (lambda: FinSetObject("A", True), "size of 'A' must be an integer, got True"),
        (lambda: FinSetMap(obj(2, "A"), obj(2, "B"), [0, 1]), "map table must be a tuple, got [0, 1]"),
    ],
    ids=["float_size", "str_size", "bool_size", "list_table"],
)
def test_finset_refuses_malformed_input(build, message):
    """Without these checks a float or bool size builds an object that
    identity_map cannot use, a string size ends in a bare TypeError, and a
    list table builds an unhashable map, unequal to its tuple twin."""
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_cover_class_validates_only_maps_built_outside(monkeypatch):
    """The kernel's own maps skip validation: about 600 of the 31,231
    validations of the fully validating kernel remain."""
    calls = []
    validate = FinSetMap.__post_init__

    def spy(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(FinSetMap, "__post_init__", spy)
    assert verify_cover_class(4).ok
    assert len(calls) <= 1000


def test_crosscheck_validates_only_the_cleavage_map(monkeypatch, capsys):
    """One catfrac crosscheck on the 3x3 diagram (two chain(3) fibres)
    validates 22 maps when every mediating map is validated; only the
    cleavage map, whose codomain comes from the caller, is left."""
    calls = []
    validate = FinSetMap.__post_init__

    def spy(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(FinSetMap, "__post_init__", spy)
    fixture = Path(__file__).parent / "fixtures" / "diagram_contra_3x3.json"
    assert main(["crosscheck", str(fixture)]) == 0
    assert "composable pairs: pullback vs coequalizer: pass" in capsys.readouterr().out
    assert [f.dom.label for f in calls] == ["(W(id:a)+W(id:b)+W(f))"]


def _constant_identity(A):
    return FinSetMap(A, A, (0,) * A.size)


def _collapsing_compose(f, g):
    """The composite of the swap of size 2 with itself sent to a constant."""
    h = compose_maps(f, g)
    return FinSetMap(h.dom, h.cod, (0,) * h.dom.size) if f.table == (1, 0) == g.table else h


def _lossy_pullback(f, g):
    """The pullback of (0, 1) along (1, 0) without its last pair."""
    P, p0, p1 = pullback(f, g)
    if (f.table, g.table) != ((0, 1), (1, 0)):
        return P, p0, p1
    Q = FinSetObject(P.label, P.size - 1)
    return Q, FinSetMap(Q, p0.cod, p0.table[:-1]), FinSetMap(Q, p1.cod, p1.table[:-1])


def _one_class(f, g):
    Q = FinSetObject("Q", min(f.cod.size, 1))
    return Q, FinSetMap(f.cod, Q, (0,) * f.cod.size)


def _no_classes_merged(f, g):
    return f.cod, identity_map(f.cod)


@pytest.mark.parametrize(
    "operation,fake,problems",
    [
        ("identity_map", _constant_identity, ["identity on size 2 is not a cover"]),
        ("compose_maps", _collapsing_compose,
         ["composite of covers (1, 0);(1, 0) is not a cover"]),
        ("pullback", _lossy_pullback, ["pullback of cover (0, 1) along (1, 0) is not a cover"]),
        ("coequalize_reflexive", _one_class,
         ["cover (0, 1) does not coequalize its kernel pair",
          "cover (1, 0) does not coequalize its kernel pair"]),
        ("coequalize_reflexive", _no_classes_merged,
         ["comparison for cover (0, 0) is not an isomorphism"]),
    ],
    ids=["identity", "composite", "pullback", "effective", "comparison"],
)
def test_cover_class_reports_each_broken_operation(monkeypatch, operation, fake, problems):
    """Each line of the certificate fires when the ambient operation it
    certifies is broken: identities, composites, pullbacks, and quotients
    by kernel pairs (too coarse, then too fine)."""
    monkeypatch.setattr(ambient, operation, fake)
    assert verify_cover_class(max_size=2).problems == problems


@pytest.mark.parametrize("size", [-1, 1.5, True, "2"])
def test_cover_class_refuses_a_size_that_is_not_a_count(size):
    """A negative size would certify no map at all and still pass."""
    with pytest.raises(DomainError) as exc:
        verify_cover_class(size)
    assert str(exc.value) == f"max_size must be an integer of at least 0, got {size!r}"


def test_cover_class_stays_exhaustive(monkeypatch):
    """The certificate takes every pullback, composite and kernel-pair
    quotient it certifies through the ambient operation itself: one per
    identity, per pair of composable covers, per cover and map into its
    codomain, and per cover, on the sets of sizes 0..4."""
    calls = Counter()
    for name in ("identity_map", "compose_maps", "pullback", "coequalize_reflexive"):
        exact = getattr(ambient, name)

        def spy(*args, name=name, exact=exact):
            calls[name] += 1
            return exact(*args)

        monkeypatch.setattr(ambient, name, spy)
    assert verify_cover_class(4).ok
    assert calls == {
        "identity_map": 5, "compose_maps": 2417, "pullback": 14062, "coequalize_reflexive": 93
    }


def test_cover_class_small():
    report = verify_cover_class(max_size=3)
    assert report.ok
    assert is_surjective(FinSetMap(obj(2, "A"), obj(1, "B"), (0, 0)))
    assert not is_surjective(FinSetMap(obj(0, "E"), obj(1, "B"), ()))


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_internalize_round_trip(name, C):
    IC = internalize(C)
    assert validate_internal_category(IC).ok
    E = externalize(IC)
    assert validate_category(E).ok
    iso = find_isomorphism(E, C)
    assert iso is not None
    # positional agreement, not just abstract isomorphism
    assert iso.forward.on_objects == {f"x{i}": x for i, x in enumerate(C.objects)}


def test_every_table_perturbation_is_detected():
    base = internalize(corpus.chain3())
    tables = {"s": base.s, "t": base.t, "e": base.e, "c": base.c}
    checked = 0
    for field, fmap in tables.items():
        for pos in range(fmap.dom.size):
            for new in range(fmap.cod.size):
                if new == fmap.table[pos]:
                    continue
                broken = list(fmap.table)
                broken[pos] = new
                repl = FinSetMap(fmap.dom, fmap.cod, tuple(broken))
                IC = InternalCategory(
                    base.c0,
                    base.c1,
                    repl if field == "s" else base.s,
                    repl if field == "t" else base.t,
                    repl if field == "e" else base.e,
                    repl if field == "c" else base.c,
                )
                try:
                    detected = not validate_internal_category(IC).ok
                except InputError:
                    # endpoint edits change the composable-pairs object itself
                    detected = True
                assert detected, (field, pos, new)
                checked += 1
    expected = sum(f.dom.size * (f.cod.size - 1) for f in tables.values())
    assert checked == expected == 89


PERTURBATIONS = Path(__file__).parent / "golden" / "internal_category_perturbations.json"


def perturbation_verdicts() -> dict:
    """validate_internal_category's problem list, or its InputError message,
    for every single-entry change of s, t, e or c of four internalized
    categories, keyed "category field position value"."""
    verdicts = {}
    for name in ("chain3", "iso", "twisted_iso", "square"):
        base = internalize(getattr(corpus, name)())
        for field in ("s", "t", "e", "c"):
            fmap = getattr(base, field)
            for pos in range(fmap.dom.size):
                for new in range(fmap.cod.size):
                    if new == fmap.table[pos]:
                        continue
                    table = fmap.table[:pos] + (new,) + fmap.table[pos + 1:]
                    maps = {f: getattr(base, f) for f in ("s", "t", "e", "c")}
                    maps[field] = FinSetMap(fmap.dom, fmap.cod, table)
                    IC = InternalCategory(base.c0, base.c1, **maps)
                    try:
                        verdict = validate_internal_category(IC).problems
                    except InputError as exc:
                        verdict = {"error": str(exc)}
                    verdicts[f"{name} {field} {pos} {new}"] = verdict
    return verdicts


def test_table_perturbations_match_golden():
    """The identity-law and associativity lookups of the law check name the
    same problems, in the same order, on every perturbed table."""
    golden = json.loads(PERTURBATIONS.read_text(encoding="utf-8"))
    verdicts = perturbation_verdicts()
    assert len(verdicts) == 89 + 38 + 254 + 214
    assert verdicts == golden


def test_internal_functor_validation():
    dom = internalize(corpus.two())
    cod = internalize(corpus.iso())
    # two -> iso picking u: objects a,b -> a,b; arrows id,id,f -> id,id,u
    F = InternalFunctor(dom, cod, FinSetMap(dom.c0, cod.c0, (0, 1)), FinSetMap(dom.c1, cod.c1, (0, 1, 2)))
    assert validate_internal_functor(F).ok
    bad = InternalFunctor(dom, cod, F.f0, FinSetMap(dom.c1, cod.c1, (0, 1, 3)))
    rep = validate_internal_functor(bad)
    assert not rep.ok and any("square" in p for p in rep.problems)


def test_internal_nat_trans_validation():
    dom = internalize(corpus.two())
    cod = internalize(corpus.two())
    idf = InternalFunctor(dom, cod, identity_map(dom.c0), identity_map(dom.c1))
    # constant functor at b: objects -> b, arrows -> id:b
    const_b = InternalFunctor(dom, cod, FinSetMap(dom.c0, cod.c0, (1, 1)), FinSetMap(dom.c1, cod.c1, (1, 1, 1)))
    assert validate_internal_functor(const_b).ok
    # component at a is f (position 2), at b is id:b (position 1)
    eta = InternalNatTrans(idf, const_b, FinSetMap(dom.c0, cod.c1, (2, 1)))
    assert validate_internal_nat_trans(eta).ok
    bad = InternalNatTrans(idf, const_b, FinSetMap(dom.c0, cod.c1, (1, 1)))
    assert not validate_internal_nat_trans(bad).ok
    with pytest.raises(DomainError):
        validate_internal_nat_trans(InternalNatTrans(idf, InternalFunctor(cod, internalize(corpus.iso()), FinSetMap(cod.c0, obj(2, "C0"), (0, 1)), FinSetMap(cod.c1, obj(4, "C1"), (0, 1, 2))), FinSetMap(dom.c0, cod.c1, (1, 1))))


@pytest.mark.parametrize("dname", ["contra_one", "contra_two", "contra_chain", "contra_swap"])
def test_internal_elements_matches_direct(dname):
    D = getattr(corpus, f"diag_{dname}")()
    IE = internal_elements(D)
    assert validate_internal_category(IE).ok
    E = externalize(IE)
    GD = grothendieck(D)
    # positional: element i of the internal object set is the i-th tagged object
    assert len(E.objects) == len(GD.carrier.objects)
    assert len(E.arrows) == len(GD.carrier.arrows)
    fwd = Functor(
        E,
        GD.carrier,
        {f"x{i}": x for i, x in enumerate(GD.carrier.objects)},
        {f"a{j}": a for j, a in enumerate(GD.carrier.arrows)},
    )
    from catfrac import validate_functor

    assert validate_functor(fwd).ok


def test_internal_elements_of_the_empty_diagram():
    # the structure maps mediate off empty coproducts, so they must land in
    # the empty object and arrow sets
    D = strictify(FinCategory.build([], [], {}, {}), {}, {}, variance="contravariant")
    IE = internal_elements(D)
    assert validate_internal_category(IE).ok
    assert IE.c0.size == IE.c1.size == internal_cleavage(D, IE).dom.size == 0


def test_internal_elements_rejects_covariant():
    with pytest.raises(DomainError):
        internal_elements(corpus.diag_cov_two())


def test_internal_cleavage_refuses_another_arrow_set():
    """A category not built by internal_elements(D) must have its arrow
    set; a copy of it, which keeps no blocks, gets the same cleavage."""
    D = corpus.diag_contra_two()
    with pytest.raises(
        DomainError, match="^the arrow set is not that of the diagram's elements category$"
    ):
        internal_cleavage(D, internalize(corpus.chain3()))
    IE = internal_elements(D)
    copy = InternalCategory(IE.c0, IE.c1, IE.s, IE.t, IE.e, IE.c)
    assert internal_cleavage(D, copy) == internal_cleavage(D, IE)


def test_internal_cleavage_matches_direct():
    D = corpus.diag_contra_two()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    GD = grothendieck(D)
    W = cleavage(GD)
    assert w.cod == IE.c1
    picked = [GD.carrier.arrows[j] for j in w.table]
    assert picked == list(W.members)
    assert len(set(w.table)) == w.dom.size  # injective


@pytest.mark.parametrize("dname", ["contra_one", "contra_two", "contra_chain", "contra_swap"])
def test_internal_localize_matches_direct(dname):
    D = getattr(corpus, f"diag_{dname}")()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    IL = internal_localize(IE, w)
    assert validate_internal_category(IL).ok
    E = externalize(IL)

    GD = grothendieck(D)
    W = cleavage(GD)
    LC = localize(FractionsInput(GD.carrier, W.members))
    assert len(E.objects) == len(LC.carrier.objects)
    assert len(E.arrows) == len(LC.carrier.arrows)
    iso = find_isomorphism(E, LC.carrier)
    assert iso is not None


@pytest.mark.parametrize("name,inp", corpus.fractions_corpus())
def test_internal_localize_on_plain_marked_categories(name, inp):
    IC = internalize(inp.category)
    arr_pos = {a: i for i, a in enumerate(inp.category.arrows)}
    Wset = FinSetObject("W", len(inp.weq))
    w = FinSetMap(Wset, IC.c1, tuple(arr_pos[v] for v in inp.weq))
    IL = internal_localize(IC, w)
    E = externalize(IL)
    LC = localize(inp)
    assert len(E.objects) == len(LC.carrier.objects)
    assert len(E.arrows) == len(LC.carrier.arrows)
    assert find_isomorphism(E, LC.carrier) is not None
    rep = verify_pairs_coequalizer(IC, w)
    assert rep.ok, str(rep)
    assert rep.stats["pair classes"] == rep.stats["class pairs"]


def test_internal_localize_refuses_bad_marks():
    C = corpus.two()
    IC = internalize(C)
    arr_pos = {a: i for i, a in enumerate(C.arrows)}
    w = FinSetMap(FinSetObject("W", 1), IC.c1, (arr_pos["f"],))
    with pytest.raises(AxiomError) as exc:
        internal_localize(IC, w)
    assert exc.value.report is not None


def test_internal_localize_requires_injective_marks():
    C = corpus.two()
    IC = internalize(C)
    w = FinSetMap(FinSetObject("W", 2), IC.c1, (0, 0))
    with pytest.raises(InputError):
        internal_localize(IC, w)


@pytest.mark.parametrize("name,inp,axiom", corpus.failing_fractions())
def test_pairs_comparison_reads_only_the_ambient(name, inp, axiom):
    """The composable-pairs comparison needs a lawful category and an
    injective w, not the fractions axioms: each span's identity sailboat
    makes the span relation reflexive.  internal_localize, which composes
    spans, still refuses the marks."""
    IC = internalize(inp.category)
    w = FinSetMap(
        FinSetObject("W", len(inp.weq)), IC.c1, tuple(map(inp.category.arrows.index, inp.weq))
    )
    report = verify_pairs_coequalizer(IC, w)
    assert report.ok, str(report)
    assert report.stats["pair classes"] == report.stats["class pairs"]
    with pytest.raises(AxiomError, match="^marked arrows fail the fractions axioms:\n") as exc:
        internal_localize(IC, w)
    assert not exc.value.report.finding(axiom).ok


def test_unlawful_category_is_refused_by_both_ambient_readers():
    """The crosscheck --shuffle corruption of the composition table breaks
    the category laws; both readers refuse it as externalize does."""
    D = corpus.diag_contra_two()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    table = IE.c.table
    shuffled = InternalCategory(
        IE.c0, IE.c1, IE.s, IE.t, IE.e, FinSetMap(IE.c.dom, IE.c.cod, table[1:] + table[:1])
    )
    with pytest.raises(InputError) as expected:
        externalize(shuffled)
    assert str(expected.value).startswith("cannot externalize an invalid internal category:\n")
    for reader in (internal_localize, verify_pairs_coequalizer):
        with pytest.raises(InputError) as exc:
            reader(shuffled, w)
        assert str(exc.value) == str(expected.value)


def test_lost_pullback_row_is_caught_by_internal_elements(monkeypatch):
    exact = ambient.pullback

    def lossy(f, g):
        P, p0, p1 = exact(f, g)
        if P.size == 0:
            return P, p0, p1
        Q = FinSetObject(P.label, P.size - 1)
        return Q, FinSetMap(Q, p0.cod, p0.table[:-1]), FinSetMap(Q, p1.cod, p1.table[:-1])

    monkeypatch.setattr(ambient, "pullback", lossy)
    with pytest.raises(IntegrityError, match="pullback blocks disagree with the tag enumeration"):
        internal_elements(corpus.diag_contra_two())


def test_lost_span_is_named_by_span_machinery(monkeypatch):
    """A pullback of w;s along s that loses its last span is an integrity
    failure naming that span, not a bare KeyError."""
    C = corpus.chain3()
    IC = internalize(C)
    w = FinSetMap(FinSetObject("W", IC.c1.size), IC.c1, tuple(range(IC.c1.size)))
    exact = ambient.pullback

    def lossy(f, g):
        P, p0, p1 = exact(f, g)
        if f.dom != w.dom or g is not IC.s:
            return P, p0, p1
        Q = FinSetObject(P.label, P.size - 1)
        return Q, FinSetMap(Q, p0.cod, p0.table[:-1]), FinSetMap(Q, p1.cod, p1.table[:-1])

    monkeypatch.setattr(ambient, "pullback", lossy)
    with pytest.raises(IntegrityError, match=r"span \(a5, a5\) is missing from the pullback"):
        internal_localize(IC, w)


def test_lost_sailboat_rows_are_caught_by_span_machinery(monkeypatch):
    """A pullback that loses a span fails earlier, on the missing span's
    position; the identity sections go missing when the marked arrows out
    of each object lose their first member instead."""
    C = corpus.chain3()
    IC = internalize(C)
    w = FinSetMap(FinSetObject("W", IC.c1.size), IC.c1, tuple(range(IC.c1.size)))
    exact = ambient.fibres

    def lossy(f):
        over = exact(f)
        return tuple(ys[1:] for ys in over) if f.dom is w.dom else over

    monkeypatch.setattr(ambient, "fibres", lossy)
    with pytest.raises(IntegrityError, match="span-relation pair lost its identity section"):
        internal_localize(IC, w)


def test_missing_section_is_caught_by_internal_localize(monkeypatch):
    """Axiom (1) faked as passing: the object a of the walking arrow, marked
    at f only, has no marked arrow into it."""
    C = corpus.two()
    IC = internalize(C)
    w = FinSetMap(FinSetObject("W", 1), IC.c1, (C.arrows.index("f"),))
    monkeypatch.setattr(ambient, "check_axioms", lambda inp: AxiomReport(findings=[]))
    with pytest.raises(IntegrityError, match="an object has no marked arrow into it"):
        internal_localize(IC, w)


def fully_marked(C: FinCategory) -> tuple:
    IC = internalize(C)
    return IC, FinSetMap(FinSetObject("W", IC.c1.size), IC.c1, tuple(range(IC.c1.size)))


def cleavage_marked(D) -> tuple:
    IE = internal_elements(D)
    return IE, internal_cleavage(D, IE)


# marked internal categories whose identities are all marked
MARKED = {
    "chain3/all": lambda: fully_marked(corpus.chain3()),
    "contra_chain/cleavage": lambda: cleavage_marked(corpus.diag_contra_chain()),
}


def head_keys(w: FinSetMap, M) -> list:
    """The key (v1, g1, v2) of each span pair's first head, by arrow
    positions, in span pair order."""
    wt, v_of, g_of = w.table, M.pi_v.table, M.pi_g.table
    return [(wt[v_of[a]], g_of[a], wt[v_of[b]]) for a, b in zip(M.r0.table, M.r1.table)]


def pair_name(w: FinSetMap, M, k: int) -> str:
    """The span pair k of the machinery M, named as the ambient's errors
    name it."""
    a, b = M.r0.table[k], M.r1.table[k]
    wt, v_of, g_of = w.table, M.pi_v.table, M.pi_g.table
    return f"((a{wt[v_of[a]]}, a{g_of[a]}), (a{wt[v_of[b]]}, a{g_of[b]}))"


def inject_heads(monkeypatch, read) -> None:
    """Route every first-head read of ``internal_localize`` through
    ``read(exact, key)``: ``exact`` is the reader ``fractions._first_heads``
    sets up for the call, and key is (v1, g1, v2) by arrow positions."""
    setup = ambient._first_heads

    def first_heads(inp):
        exact = setup(inp)
        return lambda *key: read(exact, key)

    monkeypatch.setattr(ambient, "_first_heads", first_heads)


@pytest.mark.parametrize("name", MARKED)
def test_split_pair_class_is_caught_by_internal_localize(monkeypatch, name):
    """The first head of one row (v1, g1, v2) read as the identity at s(v2)
    with s(v2) != t(v1), so that row's span pairs compose into spans out of
    s(v2), while a pair of the same pair class in another row keeps its
    class."""
    IC, w = MARKED[name]()
    M = ambient._span_machinery(IC, w)
    keys = head_keys(w, M)
    src, tgt, ident = IC.s.table, IC.t.table, IC.e.table

    def shares_its_class(k: int) -> bool:
        return any(
            keys[j] != keys[k] and M.pair_class[j] == M.pair_class[k] for j in range(len(keys))
        )

    k = next(k for k, (v1, _, v2) in enumerate(keys) if src[v2] != tgt[v1] and shares_its_class(k))
    read = set()

    def stray(exact, key):
        read.add(key)
        if key == keys[k]:
            i = ident[src[key[2]]]
            return i, i
        return exact(*key)

    inject_heads(monkeypatch, stray)
    with pytest.raises(
        IntegrityError, match="^composite classes differ across representatives of a pair class$"
    ):
        internal_localize(IC, w)
    assert read == set(keys)  # every span pair is composed before the check


@pytest.mark.parametrize("name", MARKED)
def test_span_pair_without_a_head_is_caught_by_internal_localize(monkeypatch, name):
    """A head read that finds nothing for one row (v1, g1, v2): the axioms
    give every row a head, so the row's first span pair is named."""
    IC, w = MARKED[name]()
    M = ambient._span_machinery(IC, w)
    keys = head_keys(w, M)
    k = keys.index(keys[len(keys) // 2])
    inject_heads(monkeypatch, lambda exact, key: None if key == keys[k] else exact(*key))
    with pytest.raises(IntegrityError) as raised:
        internal_localize(IC, w)
    assert str(raised.value) == f"axioms passed but span pair {pair_name(w, M, k)} has no head"


def test_composite_that_is_no_span_is_caught_by_internal_localize(monkeypatch):
    """Each first head (h, m) read as (m, m): the composite (m, m;g2) is a
    span exactly when m is marked, so the first span pair whose head has an
    unmarked m is named."""
    IE, w = cleavage_marked(corpus.diag_contra_chain())
    M = ambient._span_machinery(IE, w)
    ext = externalize(IE)
    inp = FractionsInput(ext, tuple(ext.arrows[j] for j in w.table))
    first_head = fractions._first_heads(inp)
    n, flat = IE.c1.size, ext._positions().flat
    for k, key in enumerate(head_keys(w, M)):
        _, m = first_head(*key)
        if m not in w.table:
            break
    else:
        pytest.fail("every first head's second leg is marked")
    c = flat[m * n + M.pi_g.table[M.r1.table[k]]]

    def doubled(exact, key):
        head = exact(*key)
        return None if head is None else (head[1], head[1])

    inject_heads(monkeypatch, doubled)
    with pytest.raises(IntegrityError) as raised:
        internal_localize(IE, w)
    expected = f"span pair {pair_name(w, M, k)} composes to (a{m}, a{c}), not a span"
    assert str(raised.value) == expected


def test_unrepresented_class_pair_is_caught_by_internal_localize(monkeypatch):
    """The span pairs cut off before the first representative of the last
    pair of classes."""
    IC, w = fully_marked(corpus.chain3())
    exact = ambient._span_machinery

    def shortened(IC, w):
        M = exact(IC, w)
        M.pair_class = M.pair_class[:M.pair_class.index(M.P2.size - 1)]
        return M

    monkeypatch.setattr(ambient, "_span_machinery", shortened)
    with pytest.raises(
        IntegrityError, match="^a composable pair of classes has no span representative$"
    ):
        internal_localize(IC, w)


def _no_moves(M):
    M.sb_rows = []


def _split_pair_class(M):
    k = next(k for k, cls in enumerate(M.pair_class) if cls in M.pair_class[:k])
    M.pair_class[k] = (M.pair_class[k] + 1) % M.P2.size


def _cut_pair_class(M):
    M.pair_class = M.pair_class[:M.pair_class.index(M.P2.size - 1)]


def _merged_class_pairs(M):
    M.pair_class = [0 if cls == 1 else cls for cls in M.pair_class]


def _wider_class_pairs(M):
    M.P2 = FinSetObject("P2", M.P2.size + 1)


@pytest.mark.parametrize(
    "perturb,problem",
    [
        (_no_moves, "coordinatewise move pair has no identity section"),
        (_split_pair_class, "pair class 3 maps to two different class pairs"),
        (_cut_pair_class, "a pair class has no representative"),
        (_merged_class_pairs, "comparison map is not injective"),
        (_wider_class_pairs, "comparison map is not surjective"),
    ],
    ids=["no_section", "split", "unrepresented", "not_injective", "not_surjective"],
)
def test_pairs_coequalizer_reports_each_defect(monkeypatch, perturb, problem):
    IC, w = fully_marked(corpus.chain3())
    exact = ambient._span_machinery

    def perturbed(IC, w):
        M = exact(IC, w)
        perturb(M)
        return M

    monkeypatch.setattr(ambient, "_span_machinery", perturbed)
    assert verify_pairs_coequalizer(IC, w).problems == [problem]


def test_collapsed_cleavage_is_caught(monkeypatch):
    """A mediating map that sends every object of a fibre to one pair puts
    two marked arrows on one position."""
    D = corpus.diag_contra_two()
    IE = internal_elements(D)

    def constant(pi0, pi1, h0, h1):
        return FinSetMap(h0.dom, pi0.dom, (0,) * h0.dom.size)

    monkeypatch.setattr(ambient, "pullback_mediate", constant)
    with pytest.raises(IntegrityError, match="cleavage element map is not injective"):
        internal_cleavage(D, IE)


def chain_arrow(i: int, j: int) -> str:
    return f"id:{i}" if i == j else f"{i}<{j}"


@st.composite
def shuffled_chain(draw, n: int) -> FinCategory:
    """The poset 0 < ... < n-1, objects and arrows declared in a drawn order."""
    objects = draw(st.permutations([str(i) for i in range(n)]))
    arrows = [(chain_arrow(i, j), str(i), str(j)) for i in range(n) for j in range(i, n)]
    composition = {
        (chain_arrow(i, j), chain_arrow(j, k)): chain_arrow(i, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    }
    return FinCategory.build(
        objects, draw(st.permutations(arrows)), {x: f"id:{x}" for x in objects}, composition
    )


@st.composite
def strict_chain_diagrams(draw):
    """Contravariant over a chain, fibre chain(k_i) at i; the arrow i -> j
    goes to v |-> min(v, min(k_i..k_j) - 1)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    index = draw(shuffled_chain(len(sizes)))
    fibers = {str(i): draw(shuffled_chain(k)) for i, k in enumerate(sizes)}
    on_arrows = {}
    for phi in index.arrows:
        i, j = int(index.src[phi]), int(index.tgt[phi])
        dom, cod = fibers[str(j)], fibers[str(i)]
        table = [min(v, min(sizes[i:j + 1]) - 1) for v in range(sizes[j])]
        on_arrows[phi] = Functor(
            dom,
            cod,
            {str(v): str(image) for v, image in enumerate(table)},
            {f: chain_arrow(table[int(dom.src[f])], table[int(dom.tgt[f])]) for f in dom.arrows},
        )
    return strictify(index, fibers, on_arrows, variance="contravariant")


@st.composite
def swap_diagrams(draw):
    """Contravariant over the walking arrow with walking-iso fibres, each
    index arrow sent to the identity or the swap: nonstrict wherever an
    index identity goes to the swap."""
    index = corpus.two()
    iso = corpus.iso()
    I = FinCategory.build(
        draw(st.permutations(iso.objects)),
        draw(st.permutations([(f, iso.src[f], iso.tgt[f]) for f in iso.arrows])),
        dict(iso.identity),
        {("u", "v"): "id:a", ("v", "u"): "id:b"},
    )
    swap = corpus.swap_iso(I)
    flips = {phi: draw(st.booleans()) for phi in index.arrows}
    on_arrows = {phi: swap if flips[phi] else identity_functor(I) for phi in index.arrows}
    unitors = {
        A: NatTrans(
            on_arrows[index.identity[A]],
            identity_functor(I),
            {"a": "v", "b": "u"} if flips[index.identity[A]] else {"a": "id:a", "b": "id:b"},
        )
        for A in index.objects
    }
    compositors = derive_unit_compositors(index, "contravariant", on_arrows, unitors, {})
    return Pseudofunctor(index, "contravariant", {"a": I, "b": I}, on_arrows, unitors, compositors)


@settings(max_examples=40, deadline=5000)
@given(st.one_of(strict_chain_diagrams(), swap_diagrams()))
def test_internal_positions_match_direct_on_generated_diagrams(D):
    """Element j of the internal arrow set is the j-th carrier arrow, and
    the cleavage picks the direct cleavage's members in order."""
    assert validate_pseudofunctor(D).ok
    IE = internal_elements(D)
    GD = grothendieck(D)
    assert _positional_mismatch(externalize(IE), GD.carrier) is None
    w = internal_cleavage(D, IE)
    assert [GD.carrier.arrows[j] for j in w.table] == list(cleavage(GD).members)


def assert_composites_match_public_span_compose(D) -> None:
    """For every span pair, internal_localize's composite class, read off
    its composition table at the pair's class pair, is the class under the
    span quotient of the public span_compose, by names, on a plain input."""
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    IL = internal_localize(IE, w)
    M = ambient._machinery(IE, w)
    ext = externalize(IE)
    inp = FractionsInput(ext, tuple(ext.arrows[j] for j in w.table))
    spans = [(f"a{w.table[v]}", f"a{g}") for v, g in zip(M.pi_v.table, M.pi_g.table)]
    span_pos = {span: k for k, span in enumerate(spans)}
    assert len(span_pos) == len(spans)
    for k, (a, b) in enumerate(zip(M.r0.table, M.r1.table)):
        composite = fractions.span_compose(inp, spans[a], spans[b])
        assert IL.c.table[M.pair_class[k]] == M.q.table[span_pos[composite]], (spans[a], spans[b])


@pytest.mark.parametrize("dname", ["contra_one", "contra_two", "contra_chain", "contra_swap"])
def test_internal_localize_composites_match_public_span_compose(dname):
    assert_composites_match_public_span_compose(getattr(corpus, f"diag_{dname}")())


@settings(max_examples=30, deadline=5000)
@given(st.one_of(strict_chain_diagrams(), swap_diagrams()))
def test_internal_localize_composites_match_public_span_compose_on_generated_diagrams(D):
    assert_composites_match_public_span_compose(D)


def test_ambient_searches_a_cospan_once_in_the_decision_and_not_per_head(monkeypatch):
    """One internal_localize call searches the Ore squares and the weak
    fillers of each case once, in the axiom check, and nowhere else: each
    span pair reads its head (v1, g1, v2) from the witnesses that check
    kept, through one reader set up for the call."""
    D = corpus.diag_contra_chain()
    IE = internal_elements(D)
    w = internal_cleavage(D, IE)
    searched, decided, heads = Counter(), Counter(), Counter()
    deciding = []
    exact_axioms = ambient.check_axioms

    def spied(name):
        exact = getattr(fractions, name)

        def spy(inp, *key, bound=None):
            (decided if deciding else searched)[(name, key)] += 1
            return exact(inp, *key, bound=bound)

        return spy

    def axioms(inp):
        deciding.append(inp)
        try:
            return exact_axioms(inp)
        finally:
            deciding.pop()

    def head(exact, key):
        heads[key] += 1
        return exact(*key)

    for name in ("_ore_squares", "_weak_fillers"):
        monkeypatch.setattr(fractions, name, spied(name))
    monkeypatch.setattr(ambient, "check_axioms", axioms)
    inject_heads(monkeypatch, head)
    internal_localize(IE, w)
    pairs = ambient._machinery(IE, w).r0.dom.size
    assert {name for name, _ in decided} == {"_ore_squares", "_weak_fillers"}
    assert max(decided.values()) == 1
    assert searched == Counter()
    # each span pair reads its head once, and pairs share heads
    assert sum(heads.values()) == pairs > len(heads)
