"""The transformation search's closing-slot lookahead, against the search
without it.

``reference_transformations`` is the search as it stood before the
lookahead: every cell slot searches its own candidates, and the pseudo
filter runs when a cell is chosen. The lookahead must list the same
transformations in the same order, on generated chain diagrams of both
variances, both kinds and several targets, on the corpus, and on strict
diagrams over the walking iso and Z/2, whose index arrows compose to
identities in pairs. A spy on the natural-transformation search counts the
cell searches: within one call each (arrow, source component, target
component) is searched at most once.
A diagram whose D(phi) is not a functor is refused before either search.
"""

import pytest
from hypothesis import given, settings, strategies as st

import catfrac.diagram as dg
import corpus
from catfrac import (
    FinCategory,
    Functor,
    LaxTransformation,
    NatTrans,
    enumerate_functors,
    enumerate_transformations,
    identity_functor,
    strictify,
    validate_transformation,
)
from catfrac.errors import DomainError, InputError
from catfrac.fincat import functor_key
from test_ambient import shuffled_chain

KINDS = ("lax", "pseudo")


def reference_transformations(D, X, kind="lax") -> list:
    """``enumerate_transformations`` without the lookahead and without the
    per-call lists. Helpers are read from ``catfrac.diagram`` at call time,
    so a spy set there sees this copy's searches too."""
    if kind not in ("lax", "pseudo"):
        raise InputError(f"unknown transformation kind {kind!r}")
    idx = D.index
    objs = idx.objects
    n = len(objs)
    per_object = [dg.enumerate_functors(D.cat(a), X) for a in objs]
    arrows = [idx.identity[a] for a in objs] + [f for f in idx.arrows if not idx.is_identity(f)]
    slot = {phi: n + k for k, phi in enumerate(arrows)}
    pairs_closed = [[] for _ in range(n + len(arrows))]
    for phi, psi in idx.composable_pairs():
        last = max(slot[phi], slot[psi], slot[idx.composition[(phi, psi)]])
        pairs_closed[last].append((phi, psi))
    natural = {}
    cell_searches = []
    for phi in arrows[n:]:
        A = dg.variance_order(D.variance, idx.src[phi], idx.tgt[phi])[0]
        if D.fun(phi).dom != D.cat(A):
            raise DomainError("cannot enumerate transformations between non-parallel functors")
        if A not in natural:
            natural[A] = (D.cat(A).objects, dg.nat_trans_search(D.cat(A), X))
        cell_searches.append(natural[A])

    def domain(i, vals):
        if i < n:
            return per_object[i]
        components = dict(zip(objs, vals))
        if i < 2 * n:
            return (dg.identity_two_cell(D, components, objs[i - n]),)
        F, G = dg.two_cell_endpoints(D, components, arrows[i - n])
        names, search = cell_searches[i - 2 * n]
        return [NatTrans(F, G, dict(zip(names, cell))) for cell in search(F, G)]

    def accept(i, vals):
        if i < n:
            return True
        cell = vals[i]
        if i < 2 * n and not dg.validate_nat_trans(cell).ok:
            return False
        if kind == "pseudo" and any(
            dg.two_sided_inverse(X, f) is None for f in cell.components.values()
        ):
            return False
        if pairs_closed[i]:
            components, cells = dict(zip(objs, vals)), dict(zip(arrows, vals[n : i + 1]))
            for phi, psi in pairs_closed[i]:
                for _ in dg._incoherent_fibers(D, X, components, cells, phi, psi):
                    return False
        return True

    found = dg.backtrack(n + len(arrows), domain, accept)
    return [
        LaxTransformation(D, X, dict(zip(objs, vals)), dict(zip(arrows, vals[n:])))
        for vals in found
    ]


def spelled(found: list) -> list:
    """Each transformation with every mapping in its insertion order, so
    lists compare equal only when the order matches too."""
    return [
        (
            [(a, list(F.on_objects.items()), list(F.on_arrows.items()))
             for a, F in x.components.items()],
            [(phi, list(c.components.items())) for phi, c in x.two_cells.items()],
        )
        for x in found
    ]


def chain_diagram(sizes, variance, index=None, fibers=None):
    """Strict over chain(len(sizes)), chain(k) at i, the arrow i -> j sent to
    v |-> min(v, min(sizes[i..j]) - 1), forward when covariant, backward when
    contravariant; ``index`` and ``fibers`` may give redeclared chains."""
    index = index or corpus.chain(len(sizes))
    fibers = fibers or {str(i): corpus.chain(k) for i, k in enumerate(sizes)}
    on_arrows = {}
    for phi in index.arrows:
        i, j = int(index.src[phi]), int(index.tgt[phi])
        a, b = (i, j) if variance == "covariant" else (j, i)
        dom, cod = fibers[str(a)], fibers[str(b)]
        low = min(sizes[i : j + 1]) - 1
        image = {v: min(v, low) for v in range(sizes[a])}
        if i == j:
            on_arrows[phi] = identity_functor(dom)
            continue
        on_arrows[phi] = Functor(
            dom,
            cod,
            {str(v): str(w) for v, w in image.items()},
            {f: cod.hom(str(image[int(dom.src[f])]), str(image[int(dom.tgt[f])]))[0]
             for f in dom.arrows},
        )
    return strictify(index, fibers, on_arrows, variance=variance)


def cyclic(n: int, order) -> FinCategory:
    """Z/n, its arrows declared in ``order``."""
    name = "r{}".format
    return FinCategory.build(
        ["*"],
        [(name(k), "*", "*") for k in order],
        {"*": name(0)},
        {(name(j), name(k)): name((j + k) % n) for j in range(n) for k in range(n)},
    )


@st.composite
def chain_diagrams(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    variance = draw(st.sampled_from(dg.VARIANCES))
    index = draw(shuffled_chain(len(sizes)))
    fibers = {str(i): draw(shuffled_chain(k)) for i, k in enumerate(sizes)}
    return chain_diagram(sizes, variance, index, fibers)


targets = st.one_of(
    st.integers(1, 3).flatmap(shuffled_chain),
    st.just(corpus.iso()),
    st.just(corpus.z2()),
    st.permutations(range(3)).map(lambda order: cyclic(3, order)),
)


@settings(max_examples=100, deadline=10000)
@given(chain_diagrams(), targets, st.sampled_from(KINDS))
def test_lookahead_lists_the_reference_transformations(D, X, kind):
    assert spelled(enumerate_transformations(D, X, kind)) == spelled(
        reference_transformations(D, X, kind)
    )


TARGETS = [("two", corpus.two()), ("iso", corpus.iso()), ("z2", corpus.z2())]
CASES = [
    (f"{dn}->{xn}-{kind}", D, X, kind)
    for dn, D in corpus.coherence_diagrams()
    for xn, X in TARGETS
    for kind in KINDS
]


@pytest.mark.parametrize("name,D,X,kind", CASES, ids=[c[0] for c in CASES])
def test_lookahead_lists_the_reference_transformations_on_the_corpus(name, D, X, kind):
    assert spelled(enumerate_transformations(D, X, kind)) == spelled(
        reference_transformations(D, X, kind)
    )


# -- indexes with inverse pairs ----------------------------------------------------


def inverse_pair_diagram(index, variance):
    """Strict over ``index``, the walking iso at every index object, each
    index identity sent to the identity and every other arrow to the swap.
    Over the walking iso or Z/2, two non-identity index arrows compose to an
    identity, so that pair's coherence reads the identity's forced cell."""
    I = corpus.iso()
    on_arrows = {
        phi: identity_functor(I) if index.is_identity(phi) else corpus.swap_iso(I)
        for phi in index.arrows
    }
    return strictify(index, {a: I for a in index.objects}, on_arrows, variance)


INVERSE_PAIR_CASES = [
    (f"{iname}-{variance}->{xn}-{kind}", inverse_pair_diagram(index, variance), X, kind)
    for iname, index in (("iso", corpus.iso()), ("z2", corpus.z2()))
    for variance in dg.VARIANCES
    for xn, X in TARGETS + [("idem", corpus.idem())]
    for kind in KINDS
]


@pytest.mark.parametrize(
    "name,D,X,kind", INVERSE_PAIR_CASES, ids=[c[0] for c in INVERSE_PAIR_CASES]
)
def test_inverse_pairs_list_the_reference_transformations(name, D, X, kind):
    found = enumerate_transformations(D, X, kind)
    assert found and spelled(found) == spelled(reference_transformations(D, X, kind))
    assert all(validate_transformation(x).ok for x in found)


# -- each cell list is searched once per call ------------------------------------


@pytest.fixture
def spy(monkeypatch):
    """Records every cell search started, and the (arrow, source component,
    target component) of every non-identity two-cell endpoint pair formed."""
    searches, triples = [], []
    prepare, endpoints = dg.nat_trans_search, dg.two_cell_endpoints

    def prepared(C, X):
        search = prepare(C, X)

        def counted(F, G):
            searches.append((functor_key(F), functor_key(G)))
            return search(F, G)

        return counted

    def recorded(D, components, phi):
        if not D.index.is_identity(phi):
            ends = (components[D.index.src[phi]], components[D.index.tgt[phi]])
            triples.append((phi,) + tuple(map(functor_key, ends)))
        return endpoints(D, components, phi)

    monkeypatch.setattr(dg, "nat_trans_search", prepared)
    monkeypatch.setattr(dg, "two_cell_endpoints", recorded)
    return searches, triples


def possible_triples(D, X) -> int:
    """How many (arrow, source component, target component) there are."""
    idx = D.index
    count = {a: len(enumerate_functors(D.cat(a), X)) for a in idx.objects}
    return sum(
        count[idx.src[phi]] * count[idx.tgt[phi]] for phi in idx.arrows if not idx.is_identity(phi)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_each_cell_list_is_searched_once(spy, kind):
    searches, triples = spy
    D, X = chain_diagram([4, 3, 2], "contravariant"), corpus.chain(4)
    found = enumerate_transformations(D, X, kind)
    assert len(found) == {"lax": 1925, "pseudo": 35}[kind]
    assert len(searches) == len(triples) == len(set(triples))
    assert len(searches) <= possible_triples(D, X)


def test_cell_search_count_check_fires(spy):
    # the search without the per-call lists forms the same component pair
    # again for every prefix that reaches it
    searches, triples = spy
    D, X = chain_diagram([4, 3, 2], "contravariant"), corpus.chain(4)
    assert len(reference_transformations(D, X, "pseudo")) == 35
    assert len(searches) > len(set(triples))


# -- unlawful diagrams ------------------------------------------------------------


def non_composing(variance: str):
    """Over the walking arrow with the walking arrow at both ends, f sent to
    a map that fixes the objects and sends the arrow f to id:b, whose
    endpoints are not those of f."""
    two = corpus.two()
    broken = Functor(two, two, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "id:b"})
    on_arrows = {"id:a": identity_functor(two), "id:b": identity_functor(two), "f": broken}
    return strictify(corpus.two(), {"a": two, "b": two}, on_arrows, variance=variance)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variance", dg.VARIANCES)
def test_unlawful_diagram_is_refused(variance, kind):
    # without the functor check, the covariant search raises a DomainError
    # from a naturality square at f, and the contravariant one lists 4 lax
    # (2 pseudo) "transformations" out of a D(f) that is not a functor
    with pytest.raises(InputError) as exc:
        enumerate_transformations(non_composing(variance), corpus.two(), kind)
    assert str(exc.value) == "functor at 'f': functor breaks endpoints at 'f': image 'id:b'"


@pytest.mark.parametrize("kind", KINDS)
def test_functor_with_missing_images_is_refused(kind):
    D = non_composing("contravariant")
    del D.fun("f").on_arrows["f"]
    with pytest.raises(InputError) as exc:
        enumerate_transformations(D, corpus.two(), kind)
    assert str(exc.value) == "functor at 'f': functor arrow mapping not total: missing 'f'"


def pruned_before_the_error():
    """Contravariant over chain3 (f: x -> y, g: y -> z, h = f.g), the walking
    arrow at x, the walking iso at y, the point at z. D(f) fixes the objects
    and sends u and v to id:a, so the squares at u and v compose only for
    some components; D(g) and D(h) pick a."""
    two, iso, pt = corpus.two(), corpus.iso(), corpus.one()
    broken = Functor(
        iso, two, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "u": "id:a", "v": "id:a"}
    )
    on_arrows = {
        "id:x": identity_functor(two), "id:y": identity_functor(iso), "id:z": identity_functor(pt),
        "f": broken,
        "g": Functor(pt, iso, {"*": "a"}, {"id:*": "id:a"}),
        "h": Functor(pt, two, {"*": "a"}, {"id:*": "id:a"}),
    }
    return strictify(corpus.chain3(), {"x": two, "y": iso, "z": pt}, on_arrows, "contravariant")


@pytest.mark.parametrize("kind", KINDS)
def test_unlawful_diagram_is_refused_before_the_lookahead(kind):
    # without the functor check, the lookahead lists 2 pseudo transformations
    # here while the search without it raises at f's naturality square: it
    # rejects the component at z, where h closes, before forming that square
    with pytest.raises(InputError) as exc:
        enumerate_transformations(pruned_before_the_error(), corpus.parallel(), kind)
    assert str(exc.value) == "functor at 'f': functor breaks endpoints at 'u': image 'id:a'"
