"""Negative controls for refusals that no other test reaches: each input
below is malformed in one way, and the check written for that fault fires
with its exact message."""

import json
from pathlib import Path

import pytest

import catfrac.cli
import corpus
from catfrac import (
    FinSetMap,
    FinSetObject,
    InternalCategory,
    NatTrans,
    check_shape,
    coequalize_reflexive,
    coequalizer_mediate,
    compose_functors,
    compose_maps,
    coproduct,
    coproduct_mediate,
    identity_functor,
    internal_cleavage,
    internal_elements,
    internal_localize,
    internalize,
    pullback,
    pullback_mediate,
    validate_internal_category,
    validate_nat_trans,
)
from catfrac.cli import main
from catfrac.errors import DomainError, InputError, IntegrityError

FIX = Path(__file__).parent / "fixtures"
A, B, T = FinSetObject("A", 2), FinSetObject("B", 2), FinSetObject("T", 2)


def _cone_off_the_pullback():
    # the pullback of two constant maps onto different points is empty
    _, p0, p1 = pullback(FinSetMap(A, T, (0, 0)), FinSetMap(B, T, (1, 1)))
    Z = FinSetObject("Z", 1)
    pullback_mediate(p0, p1, FinSetMap(Z, A, (0,)), FinSetMap(Z, B, (1,)))


def _legs_off_other_blocks():
    S, injections = coproduct([A])
    coproduct_mediate(S, injections, [FinSetMap(B, T, (0, 1))])


def _legs_into_two_objects():
    S, injections = coproduct([A, B])
    coproduct_mediate(S, injections, [FinSetMap(A, T, (0, 1)), FinSetMap(B, A, (0, 1))])


def _block_left_out():
    S, injections = coproduct([A, B])
    coproduct_mediate(S, injections[:1], [FinSetMap(A, T, (0, 1))])


def _leg_off_another_set():
    _, q = coequalize_reflexive(FinSetMap(A, B, (0, 1)), FinSetMap(A, B, (0, 1)))
    coequalizer_mediate(q, FinSetMap(A, T, (0, 1)))


def _quotient_not_onto():
    coequalizer_mediate(FinSetMap(A, T, (0, 0)), FinSetMap(A, B, (1, 1)))


def _borrowed(field, other):
    """chain3 internalized, with one structure map replaced by another."""
    IC = internalize(corpus.chain3())
    tables = dict(s=IC.s, t=IC.t, e=IC.e)
    tables[field] = tables[other]
    validate_internal_category(InternalCategory(IC.c0, IC.c1, c=IC.c, **tables))


def _marks_into_the_objects():
    IC = internalize(corpus.chain3())
    internal_localize(IC, FinSetMap(FinSetObject("W", 1), IC.c0, (0,)))


def _covariant_cleavage():
    internal_cleavage(corpus.diag_cov_two(), internal_elements(corpus.diag_contra_two()))


def _unparallel_transformation():
    validate_nat_trans(NatTrans(identity_functor(corpus.two()), identity_functor(corpus.one()), {}))


@pytest.mark.parametrize(
    "run,error,message",
    [
        (lambda: FinSetObject("A", -1), InputError, "negative size for 'A'"),
        (lambda: FinSetObject(["a"], 1), InputError,
         "label of a finite set must be a string, got ['a']"),
        (lambda: FinSetMap(2, 2, ()), InputError, "map domain must be a finite set, got 2"),
        (lambda: FinSetMap(A, "B", (0, 0)), InputError,
         "map codomain must be a finite set, got 'B'"),
        (lambda: compose_maps(FinSetMap(A, B, (0, 1)), FinSetMap(A, B, (0, 1))), DomainError,
         "maps not composable: FinSetObject(label='B', size=2) vs FinSetObject(label='A', size=2)"),
        (_cone_off_the_pullback, DomainError,
         "cone element 0 has 0 factorizations through the pullback"),
        (_legs_off_other_blocks, DomainError, "legs do not match the coproduct blocks"),
        (_legs_into_two_objects, DomainError, "legs have different codomains"),
        (_block_left_out, DomainError, "injections do not cover the coproduct"),
        (lambda: coequalize_reflexive(FinSetMap(A, B, (0, 1)), FinSetMap(A, T, (0, 1))),
         DomainError, "coequalizer needs a parallel pair"),
        (_leg_off_another_set, DomainError, "leg does not start at the quotient's source"),
        (_quotient_not_onto, DomainError, "quotient map is not surjective"),
        (lambda: _borrowed("s", "e"), InputError, "source map has wrong endpoints"),
        (lambda: _borrowed("t", "e"), InputError, "target map has wrong endpoints"),
        (lambda: _borrowed("e", "s"), InputError, "identity map has wrong endpoints"),
        (_covariant_cleavage, DomainError, "the cleavage exists for contravariant diagrams only"),
        (_marks_into_the_objects, InputError, "marked-arrows map does not land in the arrow set"),
        (lambda: compose_functors(identity_functor(corpus.two()), identity_functor(corpus.one())),
         DomainError, "functors not composable: codomain/domain mismatch"),
        (_unparallel_transformation, DomainError,
         "natural transformation between non-parallel functors"),
        (lambda: check_shape(corpus.two(), "sideways"), DomainError,
         "unknown shape direction 'sideways'"),
    ],
    ids=[
        "negative_size", "unhashable_label", "map_domain", "map_codomain", "maps_not_composable", "cone_off_pullback", "legs_off_blocks",
        "legs_codomains", "coproduct_uncovered", "coequalizer_unparallel", "leg_source",
        "quotient_not_onto", "source_endpoints", "target_endpoints", "identity_endpoints",
        "covariant_cleavage", "marks_off_arrows", "functors_not_composable",
        "transformation_unparallel", "shape_direction",
    ],
)
def test_library_refusal(run, error, message):
    with pytest.raises(error) as exc:
        run()
    assert str(exc.value) == message


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_cli_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert _run(capsys, "validate", path) == (2, f"error: {path}: top level must be an object\n")


def test_cli_refuses_an_unknown_variance(tmp_path, capsys):
    data = json.loads((FIX / "diagram_contra_two.json").read_text(encoding="utf-8"))
    data["variance"] = "sideways"
    for name in ("two.json", "one.json"):
        (tmp_path / name).write_text((FIX / name).read_text(encoding="utf-8"), encoding="utf-8")
    path = tmp_path / "sideways.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(capsys, "crosscheck", path) == (2, "error: unknown variance 'sideways'\n")


def test_cli_reports_an_integrity_failure(monkeypatch, capsys):
    """A fault inside crosscheck's own construction is the program's, not
    the input's: exit 1, named as an integrity failure."""

    def broken(D, ID):
        raise IntegrityError("cleavage element map is not injective")

    monkeypatch.setattr(catfrac.cli, "internal_cleavage", broken)
    assert _run(capsys, "crosscheck", FIX / "diagram_contra_two.json") == (
        1, "elements: ok (3 objects, 6 arrows)\n"
        "integrity failure: cleavage element map is not injective\n"
    )
