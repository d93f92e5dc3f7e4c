import pytest

import catfrac.fractions
import corpus
import oracle
from catfrac import (
    AxiomError,
    AxiomReport,
    FinCategory,
    FractionsInput,
    Functor,
    check_axioms,
    compose_functors,
    find_isomorphism,
    identity_functor,
    induced_functor,
    inverts,
    localize,
    sailboat_quotient,
    shape_instances,
    span_compose,
    validate_category,
    validate_functor,
    verify_localization_up,
    verify_pseudocolimit,
)
from catfrac.errors import DomainError, InputError, IntegrityError


def to_raw(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "arrows": {a: (C.src[a], C.tgt[a]) for a in C.arrows},
        "identity": dict(C.identity),
        "compose": dict(C.composition),
    }


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_oracle_agrees_corpus_is_lawful(name, C):
    assert oracle.laws_hold(to_raw(C))


@pytest.mark.parametrize("name,inp", corpus.fractions_corpus())
def test_span_enumeration_matches_oracle(name, inp):
    mine = set(shape_instances(inp, "spn"))
    assert mine == set(oracle.spans(to_raw(inp.category), inp.weq))


def test_shape_instance_counts_on_walking_arrow():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    assert len(shape_instances(inp, "spn")) == 5
    for kind in ("zig", "csp", "p"):
        with pytest.raises(InputError):
            shape_instances(inp, kind)


def test_input_check_rejects_bad_marks():
    with pytest.raises(InputError):
        FractionsInput(corpus.two(), ("nope",)).check()
    with pytest.raises(InputError):
        FractionsInput(corpus.two(), ("f", "f")).check()


@pytest.mark.parametrize("name,inp", corpus.fractions_corpus())
def test_corpus_passes_axioms(name, inp):
    report = check_axioms(inp)
    assert report.ok, str(report)
    assert [f.axiom for f in report.findings] == [1, 2, 3, 4]


@pytest.mark.parametrize("name,inp,axiom", corpus.failing_fractions())
def test_failing_fixtures_fail_where_expected(name, inp, axiom):
    report = check_axioms(inp)
    assert not report.finding(axiom).ok
    assert report.finding(axiom).counterexample is not None
    assert "FAIL" in str(report)


def test_axiom_witnesses_on_walking_arrow():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    report = check_axioms(inp)
    assert report.ok
    # identities: every identity is marked
    assert len(report.finding(1).witnesses) == 2
    # two-out-of-three over all composable marked pairs
    assert len(report.finding(2).witnesses) == 4
    # one Ore square per cospan
    assert len(report.finding(3).witnesses) == 5


@pytest.mark.parametrize("name,inp", corpus.fractions_corpus())
def test_quotient_matches_oracle(name, inp):
    mine = {
        frozenset(cls) for cls in sailboat_quotient(inp)
    }
    theirs = {
        frozenset(cls) for cls in oracle.span_classes(to_raw(inp.category), inp.weq)
    }
    assert mine == theirs


def test_span_compose_on_walking_arrow():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    left = ("f", "f")  # class of the formal inverse after f
    right = ("id:a", "f")
    out = span_compose(inp, right, left)
    assert out in shape_instances(inp, "spn")
    # composite (id:a, f) then (f, f) collapses to the plain arrow f
    classes = sailboat_quotient(inp)
    cls_of = {s: i for i, cls in enumerate(classes) for s in cls}
    assert cls_of[out] == cls_of[("id:a", "f")]


def test_span_compose_exhaustive_is_single_class():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    classes = sailboat_quotient(inp)
    cls_of = {s: i for i, cls in enumerate(classes) for s in cls}
    spans = shape_instances(inp, "spn")
    for s1 in spans:
        for s2 in spans:
            if inp.category.tgt[s1[1]] != inp.category.tgt[s2[0]]:
                continue
            first, results = span_compose(inp, s1, s2, exhaustive=True)
            hits = {cls_of[r] for r in results}
            assert hits == {cls_of[first]}


def test_span_compose_rejects_mismatched_endpoints():
    inp = FractionsInput(corpus.chain3(), ("id:x", "id:y", "id:z", "f"))
    s_xy = ("id:x", "f")
    with pytest.raises(DomainError):
        span_compose(inp, s_xy, s_xy)


def test_span_compose_reports_axiom_failure():
    C = corpus.two()
    inp = FractionsInput(C, ("f",))  # identities unmarked: axioms fail
    s = ("f", "f")
    with pytest.raises(AxiomError) as exc:
        span_compose(inp, s, s)
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_localize_walking_arrow_all():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    assert len(LC.carrier.objects) == 2
    assert len(LC.carrier.arrows) == 4
    assert validate_category(LC.carrier).ok
    assert find_isomorphism(LC.carrier, corpus.iso()) is not None
    assert validate_functor(LC.L).ok
    # q sends every span to the name of its class representative
    rep = LC.class_reps[LC.q[("f", "id:a")]]
    assert rep == ("f", "id:a")


def test_localize_chain_at_f():
    C = corpus.chain3()
    inp = FractionsInput(C, ("id:x", "id:y", "id:z", "f"))
    LC = localize(inp)
    assert len(LC.carrier.objects) == 3
    assert len(LC.carrier.arrows) == 7
    # the formal inverse y -> x is the class of (f, id:x)
    back = [
        n
        for n in LC.carrier.arrows
        if LC.carrier.src[n] == "y" and LC.carrier.tgt[n] == "x"
    ]
    assert [LC.class_reps[n] for n in back] == [("f", "id:x")]


@pytest.mark.parametrize("name,C", corpus.all_categories())
def test_localize_at_identities_is_isomorphism(name, C):
    inp = FractionsInput(C, corpus.identities_of(C))
    LC = localize(inp)
    iso = find_isomorphism(LC.carrier, C)
    assert iso is not None
    assert compose_functors(LC.L, iso.forward) == identity_functor(C)


def test_localize_refuses_on_failed_axioms():
    inp = FractionsInput(corpus.two(), ("f",))
    with pytest.raises(AxiomError) as exc:
        localize(inp)
    assert exc.value.report is not None


def test_localize_catches_a_move_that_changes_endpoints(monkeypatch):
    # ia;f is tabled as ia, so the move (ia, f, g) -> (ia, ia;g) turns a
    # span from b into a span from a; only the axiom check is bypassed
    C = FinCategory.build(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "f"): "ia"},
    )
    monkeypatch.setattr(catfrac.fractions, "check_axioms", lambda inp: AxiomReport([]))
    with pytest.raises(IntegrityError, match="endpoints"):
        localize(FractionsInput(C, C.arrows))


@pytest.mark.parametrize("name,inp", corpus.fractions_corpus())
def test_exhaustive_limit_changes_nothing(name, inp):
    fast = localize(inp)
    slow = localize(inp, exhaustive_limit=10**9)
    assert fast.carrier == slow.carrier
    assert fast.q == slow.q and fast.L == slow.L


def test_induced_functor_inverts_and_factors():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    I = corpus.iso()
    F = Functor(corpus.two(), I, {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "u"})
    assert validate_functor(F).ok
    ok, _ = inverts(F, inp)
    assert ok
    G = induced_functor(F, LC)
    assert validate_functor(G).ok
    assert compose_functors(LC.L, G) == F
    # the induced functor sends the formal inverse class to v
    inverse_name = next(n for n, rep in LC.class_reps.items() if rep == ("f", "id:a"))
    assert G.on_arrows[inverse_name] == "v"


def test_induced_functor_rejects_non_inverting():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    F = identity_functor(corpus.two())
    ok, witness = inverts(F, inp)
    assert not ok and "f" not in witness
    with pytest.raises(DomainError):
        induced_functor(F, LC)


def test_induced_of_localization_functor_is_identity():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    G = induced_functor(LC.L, LC)
    assert G == identity_functor(LC.carrier)


def test_verify_localization_up():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    rep = verify_localization_up(inp, corpus.iso())
    assert rep.ok
    assert rep.stats["inverting functors"] == rep.stats["functors off carrier"] == 4


def test_verify_pseudocolimit_quick():
    rep = verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())
    assert rep.ok, str(rep)
