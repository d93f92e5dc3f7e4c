import copy

import pytest

import corpus
from catfrac import (
    Functor,
    canonical_cocone,
    cleavage,
    enumerate_modifications,
    enumerate_nat_trans,
    enumerate_transformations,
    find_isomorphism,
    functor_to_transformation,
    grothendieck,
    identity_functor,
    transformation_to_functor,
    validate_category,
    validate_functor,
    validate_transformation,
    verify_oplax_colimit,
)
from catfrac.elements import modification_cells
from catfrac.errors import DomainError


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_carriers_are_categories(name, D):
    GD = grothendieck(D)
    assert validate_category(GD.carrier).ok


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_modification_cells_list_the_public_enumeration(name, D):
    # the adapter shares its component searches across pairs of
    # transformations; each list must still be enumerate_modifications',
    # read at the carrier objects in carrier order
    GD = grothendieck(D)
    tags = [GD.object_tags[n] for n in GD.carrier.objects]
    for X in (corpus.iso(), corpus.z2()):
        between = modification_cells(GD, X)
        trans = enumerate_transformations(D, X, "lax")
        for x in trans:
            for y in trans:
                assert between(x, y) == [
                    tuple(m.components[A].components[a] for A, a in tags)
                    for m in enumerate_modifications(x, y)
                ]


def test_modification_cells_name_a_missing_image_past_an_empty_list():
    # transformations #2 and #1 of the nonstrict swap into the walking arrow
    # have no natural transformation between their components at a, the
    # first index object, and one at b. On the intact pair ``between`` may
    # return at the empty list at a; with y's component at b stripped of its
    # image of u, the search at b must still run and name the missing image
    D, X = corpus.diag_contra_swap(), corpus.two()
    trans = enumerate_transformations(D, X)
    x, y = trans[2], trans[1]
    between = modification_cells(grothendieck(D), X)
    assert enumerate_nat_trans(x.components["a"], y.components["a"]) == []
    assert len(enumerate_nat_trans(x.components["b"], y.components["b"])) == 1
    assert between(x, y) == []
    F = y.components["b"]
    broken = copy.copy(y)
    broken.components = dict(y.components, b=Functor(
        F.dom, F.cod, F.on_objects, {f: g for f, g in F.on_arrows.items() if f != "u"}
    ))
    with pytest.raises(DomainError) as exc:
        between(x, broken)
    assert str(exc.value) == "the second functor has no image of arrow 'u'"


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_composition_loop_visits_composable_pairs_in_product_order(name, D):
    # FinCategory.build keeps the insertion order of the composition table,
    # so grothendieck must list pairs as the filtered full product does
    K = grothendieck(D).carrier
    assert list(K.composition) == [
        (n1, n2) for n1 in K.arrows for n2 in K.arrows if K.tgt[n1] == K.src[n2]
    ]


def test_contra_two_carrier_shape():
    GD = grothendieck(corpus.diag_contra_two())
    C = GD.carrier
    assert len(C.objects) == 3
    assert len(C.arrows) == 6
    assert set(GD.object_tags.values()) == {("a", "a"), ("a", "b"), ("b", "*")}
    # one non-identity arrow per (index arrow, target-fiber object, fiber arrow)
    assert GD.object_name("b", "*") == "(b;*)"
    assert GD.arrow_name("f", "*", "id:b") == "(f;*;id:b)"


def test_swap_carrier_is_walking_iso():
    GD = grothendieck(corpus.diag_swap_one())
    assert len(GD.carrier.objects) == 2
    assert len(GD.carrier.arrows) == 4
    assert find_isomorphism(GD.carrier, corpus.iso()) is not None


def test_covariant_carrier_shape():
    GD = grothendieck(corpus.diag_cov_two())
    C = GD.carrier
    # fibers two and one glued along f |-> bang
    assert len(C.objects) == 3
    assert set(GD.object_tags.values()) == {("a", "a"), ("a", "b"), ("b", "*")}
    assert validate_category(C).ok


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_canonical_cocone_is_a_transformation(name, D):
    GD = grothendieck(D)
    ell = canonical_cocone(D, GD)
    assert validate_transformation(ell).ok
    for A in D.index.objects:
        assert validate_functor(ell.components[A]).ok


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_cocone_collapses_to_identity(name, D):
    GD = grothendieck(D)
    ell = canonical_cocone(D, GD)
    assert transformation_to_functor(ell, GD) == identity_functor(GD.carrier)


def test_cleavage_members():
    GD = grothendieck(corpus.diag_contra_two())
    W = cleavage(GD)
    # one member per index arrow x target-fiber object
    assert W.members == (
        "(id:a;a;id:a)",
        "(id:a;b;id:b)",
        "(id:b;*;id:*)",
        "(f;*;id:b)",
    )
    assert GD.arrow_tags["(f;*;id:b)"][:2] == ("f", "*")


def test_cleavage_rejects_covariant():
    GD = grothendieck(corpus.diag_cov_two())
    with pytest.raises(DomainError):
        cleavage(GD)


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
@pytest.mark.parametrize("xname,X", corpus.test_battery())
def test_round_trips(name, D, xname, X):
    GD = grothendieck(D)
    for t in enumerate_transformations(D, X):
        th = transformation_to_functor(t, GD)
        assert validate_functor(th).ok
        assert functor_to_transformation(th, GD) == t


def test_verify_oplax_colimit_passes():
    for D in (corpus.diag_contra_two(), corpus.diag_swap_one()):
        rep = verify_oplax_colimit(D, corpus.iso())
        assert rep.ok
        assert rep.stats["functors"] == rep.stats["transformations"]
        assert "pass" in str(rep)


def test_verify_oplax_colimit_catches_wrong_tags():
    D = corpus.diag_contra_two()
    GD = grothendieck(D)
    a, b = GD.object_name("a", "a"), GD.object_name("a", "b")
    GD.object_tags[a], GD.object_tags[b] = GD.object_tags[b], GD.object_tags[a]
    GD.object_index[("a", "a")], GD.object_index[("a", "b")] = b, a
    rep = verify_oplax_colimit(D, corpus.two(), GD=GD)
    assert not rep.ok
    assert "FAIL" in str(rep)


def test_conversions_reject_foreign_inputs():
    D = corpus.diag_contra_two()
    GD = grothendieck(D)
    other = grothendieck(corpus.diag_contra_one())
    t = enumerate_transformations(corpus.diag_contra_one(), corpus.two())[0]
    with pytest.raises(DomainError):
        transformation_to_functor(t, GD)
    with pytest.raises(DomainError):
        functor_to_transformation(identity_functor(other.carrier), GD)
