"""The correspondence engine behind every universal-property verifier.

Fake correspondences here are small on purpose: the left 1-cells are the
labels "p" and "q" for the two functors from the terminal category into the
parallel pair, and their 2-cells are the natural transformations between
those functors, as tuples of components. Each test breaks one map and
expects the phase that checks it to say so.
"""

import dataclasses

import pytest

import corpus
import catfrac.elements
import catfrac.fractions
from catfrac import (
    AxiomReport,
    FractionsInput,
    Functor,
    VerifierReport,
    enumerate_functors,
    enumerate_nat_trans,
    enumerate_transformations,
    grothendieck,
    two_sided_inverse,
    verify_localization_up,
    verify_oplax_colimit,
    verify_pseudocolimit,
)
from catfrac.errors import DomainError
from catfrac.fincat import functor_key
from catfrac.fractions import AxiomFinding
from catfrac.verify import Correspondence, check_correspondence
from test_nat_trans_laws import as_cell

X = corpus.parallel()
RIGHT = enumerate_functors(corpus.one(), X)  # constant at a, constant at b
IMAGE = {"p": RIGHT[0], "q": RIGHT[1]}


def fake(**changes) -> Correspondence:
    """A correspondence that holds, with the given fields replaced."""
    base = Correspondence(
        noun="point",
        left=["p", "q"],
        right=list(RIGHT),
        forward=IMAGE.__getitem__,
        back=lambda F: next(x for x, G in IMAGE.items() if G == F),
        cell_noun="cell",
        between=lambda x, y: [as_cell(mu) for mu in enumerate_nat_trans(IMAGE[x], IMAGE[y])],
    )
    return dataclasses.replace(base, **changes)


def run(c: Correspondence) -> VerifierReport:
    return check_correspondence(VerifierReport(title="fake"), c)


def test_fake_correspondence_passes():
    report = run(fake())
    assert report.ok, str(report)
    # p => p and q => q have one cell each, p => q has two, q => p none
    assert report.stats == {"cells": 4}


def test_count_mismatch():
    report = run(fake(left=["p"]))
    assert "count mismatch: 1 points vs 2 functors" in report.problems


def test_image_outside_the_other_side():
    not_a_functor = Functor(corpus.one(), X, {"*": "a"}, {"id:*": "s"})

    def forward(x):
        return IMAGE["p"] if x == "p" else not_a_functor

    report = run(fake(forward=forward))
    assert "image of point #1 is not a functor off the carrier" in report.problems


def test_undefined_image():
    def forward(x):
        if x == "q":
            raise DomainError("no image")
        return IMAGE[x]

    report = run(fake(forward=forward))
    assert "image of point #1 is undefined: no image" in report.problems
    assert "round-trip through points is undefined on functor #1: no image" in report.problems


def test_round_trip_change():
    report = run(fake(back=lambda F: "p"))
    assert "round-trip through the carrier changes point #1" in report.problems
    assert "round-trip through points changes functor #1" in report.problems


def test_undefined_back_is_reported_on_both_sides():
    def back(F):
        if F == RIGHT[1]:
            raise DomainError("no preimage")
        return "p"

    report = run(fake(back=back))
    assert report.problems == [
        "round-trip through the carrier is undefined on point #1: no preimage",
        "round-trip through points is undefined on functor #1: no preimage",
    ]


def test_unreached_functor_still_fails_its_round_trip():
    # the right side holds a third functor that no left image equals; the
    # left pass settles #0 and #1, and #2 goes back to p, whose image is #0
    third = Functor(corpus.one(), X, {"*": "a"}, {"id:*": "s"})

    def back(F):
        return "p" if F == third else fake().back(F)

    report = run(fake(right=RIGHT + [third], back=back))
    assert report.problems == [
        "count mismatch: 2 points vs 3 functors",
        "round-trip through points changes functor #2",
    ]


def test_each_round_trip_is_formed_once(monkeypatch):
    # back runs once per functor off the carrier on a passing check: the
    # left pass forms back(forward(x)), and the right pass skips each
    # functor whose round trip that settled
    calls = []
    whiskering = catfrac.elements._whiskering

    def counted(GD):
        back = whiskering(GD)

        def spy(F):
            calls.append(functor_key(F))
            return back(F)

        return spy

    monkeypatch.setattr(catfrac.elements, "_whiskering", counted)
    D, X = corpus.diag_contra_two(), corpus.iso()
    assert verify_oplax_colimit(D, X).ok
    keys = [functor_key(F) for F in enumerate_functors(grothendieck(D).carrier, X)]
    assert sorted(calls) == sorted(keys)


def test_collapse():
    report = run(fake(forward=lambda x: RIGHT[0]))
    assert "points #0 and #1 collapse to the same functor" in report.problems


def test_collapse_names_input_positions_after_a_failed_image():
    def forward(x):
        if x == "o":
            raise DomainError("no image")
        return RIGHT[1]

    report = run(fake(left=["o", "q", "q"], forward=forward))
    assert "points #1 and #2 collapse to the same functor" in report.problems
    assert not any("#0 and" in p for p in report.problems)


def test_two_cell_count_mismatch():
    report = run(fake(between=lambda x, y: []))
    assert "2-cell count mismatch between #0 and #0: 0 cells vs 1 natural transformations" in report.problems
    assert report.stats == {"cells": 0}


def test_two_cell_count_mismatch_on_an_empty_component_hom():
    # q => p has no natural transformation, since hom(b, a) is empty and the
    # search returns before it starts; a listed cell must still be counted
    listed = fake().between

    def between(x, y):
        return [("s",)] if (x, y) == ("q", "p") else listed(x, y)

    report = run(fake(between=between))
    assert report.problems == [
        "2-cell count mismatch between #1 and #0: 1 cells vs 0 natural transformations"
    ]


def test_non_natural_transfer():
    # p => q lists an identity tuple in place of its first cell, though the
    # identity of a is no arrow a -> b; the count still matches
    listed = fake().between

    def between(x, y):
        cells = listed(x, y)
        if (x, y) == ("p", "q"):
            cells[0] = (X.identity["a"],)
        return cells

    report = run(fake(between=between))
    assert report.problems == [
        "2-cell image between #0 and #1 is not natural",
        "2-cell preimage between #0 and #1 is not a cell",
    ]


def test_missing_preimage():
    # p => q lists its second cell twice and its first not at all: the
    # counts match and every listed cell is natural
    listed = fake().between

    def between(x, y):
        cells = listed(x, y)
        if (x, y) == ("p", "q"):
            cells[0] = cells[1]
        return cells

    report = run(fake(between=between))
    assert report.problems == ["2-cell preimage between #0 and #1 is not a cell"]


def test_two_cells_in_another_order_pass():
    # the lists are compared as sets: p => q listed in reverse is unequal as
    # a list, so it takes the set comparison, which finds nothing
    listed = fake().between

    def between(x, y):
        cells = listed(x, y)
        return cells[::-1] if (x, y) == ("p", "q") else cells

    assert len(listed("p", "q")) > 1
    report = run(fake(between=between))
    assert report.problems == [] and report.stats == run(fake()).stats


def test_failed_phase_stops_the_check():
    report = run(fake(forward=lambda x: RIGHT[0], between=lambda x, y: []))
    assert "cells" not in report.stats
    assert not any(p.startswith("2-cell") for p in report.problems)


# -- the verifiers, pinned and with their own negative controls ---------------


def test_golden_oplax_colimit():
    report = verify_oplax_colimit(corpus.diag_contra_two(), corpus.iso())
    assert str(report) == (
        "oplax colimit universal property: pass "
        "(functors=8, transformations=8, modifications=64)"
    )


def test_golden_localization_up():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    assert str(verify_localization_up(inp, corpus.iso())) == (
        "localization universal property: pass "
        "(inverting functors=4, functors off carrier=4, natural transformations=16)"
    )


def test_golden_pseudocolimit():
    assert str(verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())) == (
        "pseudocolimit universal property: pass (carrier arrows=6, localized arrows=7, "
        "pseudo transformations=3, functors off localized=3, modifications=6)"
    )


def test_golden_oplax_swapped_tags():
    D = corpus.diag_contra_two()
    GD = grothendieck(D)
    a, b = GD.object_name("a", "a"), GD.object_name("a", "b")
    GD.object_tags[a], GD.object_tags[b] = GD.object_tags[b], GD.object_tags[a]
    GD.object_index[("a", "a")], GD.object_index[("a", "b")] = b, a
    assert str(verify_oplax_colimit(D, corpus.iso(), GD=GD)) == (
        "oplax colimit universal property: FAIL (functors=8, transformations=8)\n"
        "  - image of transformation #2 is not a functor off the carrier\n"
        "  - image of transformation #3 is not a functor off the carrier\n"
        "  - image of transformation #4 is not a functor off the carrier\n"
        "  - image of transformation #5 is not a functor off the carrier"
    )


def test_oplax_colimit_catches_modifications_of_the_reverse_pair(monkeypatch):
    # the modification side lists y => x for the pair (x, y); for x = #0 and
    # y = #1 that pair's components at b are the constants at a and b, so
    # its per-object list there is empty and the search yields nothing,
    # while the natural side has one cell
    D, X = corpus.diag_contra_two(), corpus.two()
    cells = catfrac.elements.modification_cells

    def reversed_cells(GD, X):
        between = cells(GD, X)
        return lambda x, y: between(y, x)

    monkeypatch.setattr(catfrac.elements, "modification_cells", reversed_cells)
    x, y = enumerate_transformations(D, X)[:2]
    assert enumerate_nat_trans(y.components["b"], x.components["b"]) == []
    problems = verify_oplax_colimit(D, X).problems
    assert (
        "2-cell count mismatch between #0 and #1: 0 modifications vs 1 natural transformations"
        in problems
    )


@pytest.fixture
def constant_induced(monkeypatch):
    """induced_functor replaced by one that sends everything to the first
    functor off the localized carrier."""

    def induced(F, LC):
        return enumerate_functors(LC.carrier, F.cod)[0]

    monkeypatch.setattr(catfrac.fractions, "induced_functor", induced)


def test_localization_up_catches_a_wrong_induced_functor(constant_induced):
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    report = verify_localization_up(inp, corpus.iso())
    assert not report.ok
    assert "inverting functors #0 and #1 collapse to the same functor" in report.problems


def test_pseudocolimit_catches_a_wrong_induced_functor(constant_induced):
    report = verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())
    assert not report.ok
    assert "pseudo transformations #0 and #1 collapse to the same functor" in report.problems


def test_pseudocolimit_decides_the_axioms_once(monkeypatch):
    calls = []
    check_axioms = catfrac.fractions.check_axioms

    def counted(inp):
        calls.append(inp)
        return check_axioms(inp)

    monkeypatch.setattr(catfrac.fractions, "check_axioms", counted)
    assert verify_pseudocolimit(corpus.diag_contra_two(), corpus.two()).ok
    assert len(calls) == 1


def test_pseudocolimit_reports_failing_axioms(monkeypatch):
    failing = AxiomReport([AxiomFinding(axiom=1, ok=False, counterexample=("x",))])
    monkeypatch.setattr(catfrac.fractions, "check_axioms", lambda inp: failing)
    report = verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())
    assert report.problems == ["cleavage fails the fractions axioms:\naxiom (1): FAIL at ('x',)"]


def test_pseudocolimit_reports_a_functor_that_keeps_the_cleavage(monkeypatch):
    # the last cleavage member sent to an arrow with no inverse; the
    # round trips through that map fail after it, so only the first
    # problem is pinned
    exact = catfrac.fractions.localize

    def keeping(inp):
        LC = exact(inp)
        stuck = next(f for f in LC.carrier.arrows if two_sided_inverse(LC.carrier, f) is None)
        L = Functor(LC.L.dom, LC.L.cod, LC.L.on_objects, {**LC.L.on_arrows, inp.weq[-1]: stuck})
        return dataclasses.replace(LC, L=L)

    monkeypatch.setattr(catfrac.fractions, "localize", keeping)
    report = verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())
    assert report.problems[0] == "the localization functor does not invert the cleavage"
