import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import catfrac.fractions
import corpus
import oracle
from oracle import to_raw
from catfrac import (
    AxiomError,
    AxiomReport,
    FinCategory,
    FractionsInput,
    Functor,
    check_axioms,
    compose,
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
from test_shared_fillers import fully_marked_chain, marked


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
    for kind in ("zig", "csp", "p", "p_cq"):
        with pytest.raises(InputError):
            shape_instances(inp, kind)


def test_input_check_rejects_bad_marks():
    with pytest.raises(InputError):
        FractionsInput(corpus.two(), ("nope",)).check()
    with pytest.raises(InputError):
        FractionsInput(corpus.two(), ("f", "f")).check()


@pytest.mark.parametrize(
    "weq,message",
    [
        (("id:a", "nope", "id:b"), "marked arrow 'nope' is not in the category"),
        (("id:a", "f", "id:b", "f"), "marked arrow 'f' listed twice"),
        (("id:a", None, "id:b"), "marked arrow None is not in the category"),
        (("id:a", ["f"], "id:b"), "marked arrow ['f'] is not in the category"),
    ],
)
def test_bad_marks_are_reported_by_check_not_by_construction(weq, message):
    # the endpoint index keys an unknown arrow under None, so only check
    # speaks, with the same words as before the index existed; the refusal
    # is raised again on every call and no axiom verdict is kept
    inp = FractionsInput(corpus.two(), weq)
    for call in (inp.check, lambda: check_axioms(inp), lambda: localize(inp), lambda: localize(inp)):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message
    assert inp._axioms is None


def test_a_one_shot_mark_list_is_read_once():
    # the marks are kept as a tuple, so an iterator indexes W and is W
    C = corpus.two()
    once = FractionsInput(C, (v for v in C.arrows))
    listed = FractionsInput(C, C.arrows)
    assert once.weq == C.arrows and once == listed
    assert str(check_axioms(once)) == str(check_axioms(listed))
    assert check_axioms(once).finding(2).witnesses == {
        ("id:a", "id:a"): "id:a", ("id:a", "f"): "id:a", ("id:b", "id:b"): "id:b",
        ("f", "id:b"): "id:a",
    }
    assert localize(once) == localize(listed)


@pytest.mark.parametrize("kind", ["spn", "sb"])
def test_shape_instances_refuse_an_unhashable_mark(kind):
    # an entry that is no string is indexed under None, as an unknown arrow
    inp = FractionsInput(corpus.two(), ("id:a", ["f"], "id:b"))
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            shape_instances(inp, kind)
        assert str(exc.value) == "marked arrow ['f'] is not in the category"
    assert inp._axioms is None


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


@pytest.mark.parametrize(
    "s1,s2,message",
    [
        # s1 is no span: the weak-filler search of its head names the pair
        (("0<1", "1<2"), ("2<2", "2<2"), "non-composable pair ('0<1','0<1'): tgt '1' != src '0'"),
        # s2 is no span: the last step, head then g2, names the pair
        (("1<1", "1<2"), ("2<2", "0<1"), "non-composable pair ('0<2','0<1'): tgt '2' != src '0'"),
        (
            ("0<1", "0<0"),
            ("1<1", "0<2"),
            "spans not composable: ('0<1', '0<0') ends at '0', ('1<1', '0<2') starts at '1'",
        ),
    ],
)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_span_compose_names_malformed_spans(s1, s2, message, exhaustive):
    with pytest.raises(DomainError) as exc:
        span_compose(fully_marked_chain(3), s1, s2, exhaustive=exhaustive)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "s1,s2,message",
    [
        # v1 and g2 are read by the searches, g1 and v2 by the endpoint check
        (("zz", "0<0"), ("0<0", "0<0"), "unknown arrow in compose: '0<0', 'zz'"),
        (("0<0", "0<0"), ("0<0", "zz"), "unknown arrow in compose: '0<0', 'zz'"),
        (("0<0", "zz"), ("0<0", "0<0"), "unknown arrow in compose: 'zz'"),
        (("0<0", "0<0"), ("zz", "0<0"), "unknown arrow in compose: 'zz'"),
    ],
)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_span_compose_names_unknown_arrows(s1, s2, message, exhaustive):
    with pytest.raises(InputError) as exc:
        span_compose(fully_marked_chain(3), s1, s2, exhaustive=exhaustive)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "s1,s2,message",
    [
        # f is no marked arrow of chain3 marked at its identities, so neither
        # (f, f) nor (f, h) is a span, though each pair is composable
        (("f", "f"), ("id:y", "id:y"), "s1 ('f', 'f') is no span: 'f' is not marked"),
        (("id:x", "f"), ("f", "h"), "s2 ('f', 'h') is no span: 'f' is not marked"),
    ],
)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_span_compose_refuses_an_unmarked_leg(s1, s2, message, exhaustive):
    inp = FractionsInput(corpus.chain3(), ("id:x", "id:y", "id:z"))
    with pytest.raises(DomainError) as exc:
        span_compose(inp, s1, s2, exhaustive=exhaustive)
    assert str(exc.value) == message


def test_span_compose_reports_axiom_failure():
    C = corpus.two()
    inp = FractionsInput(C, ("f",))  # identities unmarked: axioms fail
    s = ("f", "f")
    with pytest.raises(AxiomError) as exc:
        span_compose(inp, s, s)
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_span_compose_names_the_cospan_without_an_ore_square():
    # h : x -> z and marked v : y -> z, with no arrow x -> y to close them
    C = FinCategory.build(
        ["x", "y", "z"],
        [("id:x", "x", "x"), ("id:y", "y", "y"), ("id:z", "z", "z"), ("h", "x", "z"), ("v", "y", "z")],
        {"x": "id:x", "y": "id:y", "z": "id:z"},
        {},
    )
    inp = FractionsInput(C, ("id:x", "id:y", "id:z", "v"))
    with pytest.raises(AxiomError) as exc:
        span_compose(inp, ("id:x", "h"), ("v", "id:y"))
    assert str(exc.value) == "no Ore filler for cospan ('h', 'v')"
    assert [f.axiom for f in exc.value.report.findings if not f.ok] == [3]


def test_span_compose_names_the_spans_no_filler_chain_composes():
    # the first Ore filler of the cospan (1<1, 1<1) is (0<1, 0<1); no m
    # makes m;0<1;1<2 marked, since 0<2 is not
    inp = FractionsInput(corpus.chain(3), ("0<1", "1<2", "1<1"))
    with pytest.raises(AxiomError) as exc:
        span_compose(inp, ("1<2", "1<1"), ("1<1", "1<1"))
    assert str(exc.value) == "no filler chain composes ('1<2', '1<1') with ('1<1', '1<1')"
    assert not exc.value.report.ok


def test_empty_category_localizes_to_itself():
    E = FinCategory.build([], [], {}, {})
    inp = FractionsInput(E, ())
    assert check_axioms(inp).ok
    LC = localize(inp)
    assert LC.carrier.objects == () and LC.carrier.arrows == ()
    for X in (E, corpus.two()):
        report = verify_localization_up(inp, X)
        assert report.ok, str(report)


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


def test_a_refusal_report_is_read_only():
    # the report an AxiomError carries is the verdict the input keeps, so
    # no write through it reaches what a later call reads
    inp = FractionsInput(corpus.two(), ("f",))
    with pytest.raises(AxiomError) as exc:
        localize(inp)
    report = exc.value.report
    with pytest.raises(TypeError):
        report.findings[0] = report.findings[1]
    with pytest.raises(TypeError):
        report.finding(2).witnesses[("f", "f")] = "id:a"
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.finding(1).ok = True
    with pytest.raises(AxiomError) as again:
        localize(inp)
    assert again.value.report is report and str(report) == str(check_axioms(inp))


def _round_trips(value) -> list:
    return [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def test_a_report_copies_and_pickles_read_only():
    # a report, an input that kept its verdict and an AxiomError that
    # carries one each come back from a deep copy and a pickle equal to the
    # original, their witnesses still read-only
    C = corpus.chain3()
    kept = FractionsInput(C, C.arrows)
    report = check_axioms(kept)
    with pytest.raises(AxiomError) as exc:
        localize(FractionsInput(corpus.two(), ("f",)))
    inputs, errors = _round_trips(kept), _round_trips(exc.value)
    assert inputs == [kept, kept] and [str(e) for e in errors] == [str(exc.value)] * 2
    for original, backs in [
        (report, _round_trips(report)),
        (report, [inp._axioms for inp in inputs]),
        (exc.value.report, [e.report for e in errors]),
    ]:
        for back in backs:
            assert back == original and str(back) == str(original)
            for finding in back.findings:
                with pytest.raises(TypeError):
                    finding.witnesses[("f", "f")] = "id:a"


def localized_text(LC) -> str:
    """Every name of a localization in its canonical order."""
    C = LC.carrier
    return repr((C.objects, C.arrows, C.identity, C.composition, LC.class_reps, LC.q, LC.L.on_arrows))


def outcomes_in_each_order(inp: FractionsInput) -> list:
    """What localize gives on fresh copies of inp: called first, after
    check_axioms, and twice; a refusal is its message."""

    def outcome(inp):
        try:
            return localized_text(localize(inp))
        except AxiomError as exc:
            return str(exc)

    first, after, twice = (FractionsInput(inp.category, inp.weq) for _ in range(3))
    check_axioms(after)
    return [outcome(first), outcome(after), outcome(twice), outcome(twice)]


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus() + [(name, inp) for name, inp, _ in corpus.failing_fractions()],
)
def test_a_kept_verdict_localizes_as_a_fresh_one(name, inp):
    assert len(set(outcomes_in_each_order(inp))) == 1


@settings(max_examples=60, deadline=None)
@given(marked())
def test_a_kept_verdict_localizes_as_a_fresh_one_on_generated(inp):
    assert len(set(outcomes_in_each_order(inp))) == 1


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


def test_induced_functor_rejects_a_functor_off_another_category():
    LC = localize(FractionsInput(corpus.two(), ("id:a", "id:b", "f")))
    with pytest.raises(DomainError, match="functor domain is not the marked category"):
        induced_functor(identity_functor(corpus.iso()), LC)


def test_induced_of_localization_functor_is_identity():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    G = induced_functor(LC.L, LC)
    assert G == identity_functor(LC.carrier)


def test_induced_functor_refuses_a_class_with_two_images():
    # the formal inverse of f filed under the class of f: F sends one to u
    # and the other to v
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    LC = localize(inp)
    merged = LC.q[("id:a", "f")]
    LC = dataclasses.replace(LC, q={**LC.q, ("f", "id:a"): merged})
    F = Functor(corpus.two(), corpus.iso(), {"a": "a", "b": "b"}, {"id:a": "id:a", "id:b": "id:b", "f": "u"})
    with pytest.raises(IntegrityError) as exc:
        induced_functor(F, LC)
    assert str(exc.value) == f"induced image of class {merged!r} differs across representatives"


def test_verify_localization_up():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    rep = verify_localization_up(inp, corpus.iso())
    assert rep.ok
    assert rep.stats["inverting functors"] == rep.stats["functors off carrier"] == 4


def test_verify_pseudocolimit_quick():
    rep = verify_pseudocolimit(corpus.diag_contra_two(), corpus.two())
    assert rep.ok, str(rep)


def test_verify_pseudocolimit_refuses_a_covariant_diagram():
    with pytest.raises(DomainError) as exc:
        verify_pseudocolimit(corpus.diag_chain_z2("covariant"), corpus.one())
    assert str(exc.value) == "pseudocolimit verification needs a contravariant diagram"


def test_check_axioms_refuses_a_composite_outside_its_hom():
    # f ; g lands in hom(z, z) where hom(x, z) is due
    C = FinCategory.build(
        ["x", "y", "z"],
        [("id:x", "x", "x"), ("id:y", "y", "y"), ("id:z", "z", "z"),
         ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z")],
        {"x": "id:x", "y": "id:y", "z": "id:z"},
        {("f", "g"): "id:z"},
    )
    inp = FractionsInput(C, corpus.identities_of(C))
    # the refusal is raised again on every call and the axiom verdict is
    # never kept
    for call in (check_axioms, localize, localize):
        with pytest.raises(InputError) as exc:
            call(inp)
        assert str(exc.value) == (
            "composite ('f','g')='id:z' lands in hom('z','z'), expected hom('x','z')"
        )
    assert inp._axioms is None


def test_inverts_refuses_a_functor_off_another_category():
    inp = FractionsInput(corpus.two(), ("id:a", "id:b", "f"))
    with pytest.raises(DomainError) as exc:
        inverts(identity_functor(corpus.iso()), inp)
    assert str(exc.value) == "functor domain is not the marked category"


# -- the endpoint index changes no order ---------------------------------------
# A reference that scans all of W, as the searches did before the marked
# class was indexed by endpoint.  Each endpoint bucket keeps W order, so each
# filtered scan must yield the same sequence as the indexed read.


def scanned_shapes(inp: FractionsInput, kind: str) -> list[tuple]:
    C, W = inp.category, inp.weq
    if kind == "spn":
        return [(v, g) for v in W for g in C.arrows if C.src[g] == C.src[v]]
    if kind == "sb":
        return [
            (h, v, g)
            for h in C.arrows
            for v in W
            if C.tgt[h] == C.src[v] and compose(C, h, v) in set(W)
            for g in C.arrows
            if C.src[g] == C.src[v]
        ]
    # "p_cq": parallel pairs (f, g) with a marked v that coequalizes them,
    # the cases of axiom (4), which only check_axioms lists in the library
    return [
        (f, g, v)
        for f in C.arrows
        for g in C.arrows
        if C.src[g] == C.src[f] and C.tgt[g] == C.tgt[f]
        for v in W
        if C.src[v] == C.tgt[f] and compose(C, f, v) == compose(C, g, v)
    ]


def scanned_findings(inp: FractionsInput) -> list[tuple]:
    """(ok, witnesses in order, counterexample) per axiom, from the
    oracle's full scans."""
    C, W = inp.category, inp.weq
    raw = to_raw(C)
    coequalized: dict = {}
    for s in scanned_shapes(inp, "p_cq"):
        coequalized.setdefault(s[:2], s)
    cases = [
        (oracle.sections, [((x,), (x,)) for x in C.objects]),
        (oracle.weak_fillers,
         [((v, vp), (v, vp)) for v in W for vp in W if C.tgt[v] == C.src[vp]]),
        (oracle.ore_squares,
         [((h, v), (h, v)) for h in C.arrows for v in W if C.tgt[h] == C.tgt[v]]),
        (oracle.zippers, list(coequalized.items())),
    ]
    out = []
    for scan, keyed in cases:
        witnesses, counterexample = [], None
        for key, shown in keyed:
            found = scan(raw, W, *key)
            if found:
                witnesses.append((key, found[0]))
            elif counterexample is None:
                counterexample = shown
        out.append((counterexample is None, witnesses, counterexample))
    return out


def assert_index_keeps_scan_order(inp: FractionsInput) -> None:
    for kind in ("spn", "sb"):
        assert shape_instances(inp, kind) == scanned_shapes(inp, kind), kind
    findings = [
        (f.ok, list(f.witnesses.items()), f.counterexample) for f in check_axioms(inp).findings
    ]
    assert findings == scanned_findings(inp)


@pytest.mark.parametrize(
    "name,inp",
    corpus.fractions_corpus() + [(n, inp) for n, inp, _ in corpus.failing_fractions()],
)
def test_index_keeps_scan_order_on_corpus(name, inp):
    assert_index_keeps_scan_order(inp)


@settings(max_examples=60, deadline=None)
@given(marked())
def test_index_keeps_scan_order_on_generated(inp):
    assert_index_keeps_scan_order(inp)


@st.composite
def unital_magmas(draw):
    """A unit e and two or three more arrows on one object, any product
    table, so most are not associative; W is any subset in any order."""
    arrows = ["e"] + [f"a{i}" for i in range(draw(st.integers(2, 3)))]
    rest = arrows[1:]
    table = {(f, g): draw(st.sampled_from(arrows)) for f in rest for g in rest}
    C = FinCategory.build(["*"], [(f, "*", "*") for f in arrows], {"*": "e"}, table)
    return FractionsInput(C, tuple(draw(st.lists(st.sampled_from(arrows), unique=True))))


@settings(max_examples=150, deadline=None)
@given(unital_magmas())
def test_index_keeps_scan_order_on_unital_magmas(inp):
    assert_index_keeps_scan_order(inp)
