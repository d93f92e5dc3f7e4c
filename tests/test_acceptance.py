"""End-to-end acceptance battery.

Each criterion prints a single pass/FAIL line with its wall time; the
final test holds the whole battery under the total budget.
"""

import time
from contextlib import contextmanager

import pytest

import corpus
import oracle
from oracle import to_raw
from catfrac import (
    FinCategory,
    FractionsInput,
    FinSetMap,
    FinSetObject,
    check_axioms,
    cleavage,
    compose,
    compose_functors,
    externalize,
    find_isomorphism,
    grothendieck,
    identity_functor,
    internal_cleavage,
    internal_elements,
    internal_localize,
    internalize,
    localize,
    sailboat_quotient,
    shape_instances,
    span_compose,
    two_sided_inverse,
    validate_category,
    verify_cover_class,
    verify_localization_up,
    verify_oplax_colimit,
    verify_pairs_coequalizer,
    verify_pseudocolimit,
)
from catfrac.errors import InputError

TIMES: dict = {}


@contextmanager
def criterion(n: int, capsys, budget: float = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    TIMES[n] = dt
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: pass ({dt:.2f}s)")
    if budget is not None:
        assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"


def test_criterion_01_known_localizations(capsys):
    with criterion(1, capsys, budget=1.0):
        two = corpus.two()
        LC = localize(FractionsInput(two, ("id:a", "id:b", "f")))
        assert len(LC.carrier.objects) == 2
        assert len(LC.carrier.arrows) == 4
        assert find_isomorphism(LC.carrier, corpus.iso()) is not None

        chain = corpus.chain3()
        weq = ("id:x", "id:y", "id:z", "f")
        LCc = localize(FractionsInput(chain, weq))
        assert len(LCc.carrier.arrows) == 7
        mine = {}
        for payload, name in LCc.q.items():
            mine.setdefault(name, set()).add(payload)
        assert set(map(frozenset, mine.values())) == {
            frozenset(cls) for cls in oracle.span_classes(to_raw(chain), weq)
        }


def test_criterion_02_identity_localization_is_trivial(capsys):
    cats = corpus.all_categories()
    assert len(cats) >= 10
    with criterion(2, capsys, budget=5.0):
        for name, C in cats:
            assert len(C.objects) <= 4 and len(C.arrows) <= 14
            LC = localize(FractionsInput(C, corpus.identities_of(C)))
            iso = find_isomorphism(LC.carrier, C)
            assert iso is not None, name
            assert compose_functors(LC.L, iso.forward) == identity_functor(C)


def test_criterion_03_localization_universal_property(capsys):
    with criterion(3, capsys, budget=20.0):
        for name, inp in corpus.fractions_corpus():
            assert check_axioms(inp).ok, name
            for xname, X in corpus.test_battery():
                rep = verify_localization_up(inp, X)
                assert rep.ok, f"{name} against {xname}:\n{rep}"
                assert (
                    rep.stats["inverting functors"] == rep.stats["functors off carrier"]
                )


def test_criterion_04_oplax_colimits(capsys):
    diagrams = corpus.oplax_diagrams()
    assert len(diagrams) >= 5
    nonstrict = [
        D
        for _, D in diagrams
        for A in D.index.objects
        if any(
            D.unitors[A].components[x] != D.cat(A).identity[x]
            for x in D.cat(A).objects
        )
    ]
    assert nonstrict, "battery needs a diagram with nontrivial coherence cells"
    with criterion(4, capsys, budget=20.0):
        for name, D in diagrams:
            for xname, X in corpus.test_battery():
                rep = verify_oplax_colimit(D, X)
                assert rep.ok, f"{name} against {xname}:\n{rep}"


def test_criterion_05_pseudocolimits(capsys):
    diagrams = corpus.pseudocolimit_diagrams()
    assert len(diagrams) >= 3
    with criterion(5, capsys, budget=20.0):
        for name, D in diagrams:
            GD = grothendieck(D)
            inp = FractionsInput(GD.carrier, cleavage(GD).members)
            axioms = check_axioms(inp)
            assert axioms.ok and len(axioms.findings) == 4, name
            for xname, X in corpus.test_battery():
                rep = verify_pseudocolimit(D, X)
                assert rep.ok, f"{name} against {xname}:\n{rep}"
                assert (
                    rep.stats["pseudo transformations"]
                    == rep.stats["functors off localized"]
                )


def test_criterion_06_choice_independence(capsys):
    with criterion(6, capsys):
        covered = 0
        for name, inp in corpus.fractions_corpus():
            spans = shape_instances(inp, "spn")
            if len(spans) > 64:
                continue
            covered += 1
            C = inp.category
            # passes internal filler/representative/section re-derivations
            LC = localize(inp, exhaustive_limit=10**9)
            cls = {s: LC.q[s] for s in spans}
            # composites: every filler of every representative pair agrees
            for s1 in spans:
                for s2 in spans:
                    if C.tgt[s1[1]] != C.tgt[s2[0]]:
                        continue
                    first, results = span_compose(inp, s1, s2, exhaustive=True)
                    assert {LC.q[p] for p in results} == {cls[first]}
            # identities: every section choice lands in the same class
            for x in C.objects:
                first = next(v for v in inp.weq if C.tgt[v] == x)
                expected = LC.q[(first, first)]
                for v in inp.weq:
                    if C.tgt[v] == x:
                        assert LC.q[(v, v)] == expected
        assert covered >= 10


def _perturbations(C: FinCategory):
    for (f, g), h in C.composition.items():
        for other in C.arrows:
            if other == h:
                continue
            table = dict(C.composition)
            table[(f, g)] = other
            yield f, g, other, table


def test_criterion_07_carriers_validate_and_perturbations_detected(capsys):
    with criterion(7, capsys):
        for _, D in corpus.oplax_diagrams():
            assert validate_category(grothendieck(D).carrier).ok
        for _, inp in corpus.fractions_corpus():
            assert validate_category(localize(inp).carrier).ok
        for _, C in corpus.all_categories():
            assert validate_category(externalize(internalize(C))).ok

        # single-entry detectability on fixtures whose homs are singletons
        fixtures = [corpus.chain3(), grothendieck(corpus.diag_contra_two()).carrier]
        flips = 0
        for C in fixtures:
            for f, g, other, table in _perturbations(C):
                perturbed = FinCategory(
                    C.objects, C.arrows, dict(C.src), dict(C.tgt), dict(C.identity), table
                )
                try:
                    ok = validate_category(perturbed).ok
                except InputError:
                    ok = False
                assert not ok, (f, g, other)
                flips += 1
        expected = sum(
            len(C.composition) * (len(C.arrows) - 1) for C in fixtures
        )
        assert flips == expected and flips >= 40


def test_criterion_08_internal_constructions_agree(capsys):
    with criterion(8, capsys, budget=10.0):
        for dname in ("contra_one", "contra_two", "contra_chain", "contra_swap"):
            D = getattr(corpus, f"diag_{dname}")()
            IE = internal_elements(D)
            GD = grothendieck(D)
            E = externalize(IE)
            assert find_isomorphism(E, GD.carrier) is not None
            w = internal_cleavage(D, IE)
            LC = localize(FractionsInput(GD.carrier, cleavage(GD).members))
            EL = externalize(internal_localize(IE, w))
            assert find_isomorphism(EL, LC.carrier) is not None
            rep = verify_pairs_coequalizer(IE, w)
            assert rep.ok, str(rep)

        for name, inp in corpus.fractions_corpus():
            IC = internalize(inp.category)
            arr_pos = {a: i for i, a in enumerate(inp.category.arrows)}
            w = FinSetMap(
                FinSetObject("W", len(inp.weq)),
                IC.c1,
                tuple(arr_pos[v] for v in inp.weq),
            )
            EL = externalize(internal_localize(IC, w))
            LC = localize(inp)
            assert find_isomorphism(EL, LC.carrier) is not None, name
            rep = verify_pairs_coequalizer(IC, w)
            assert rep.ok, f"{name}:\n{rep}"
            assert rep.stats["pair classes"] == rep.stats["class pairs"]


def test_criterion_09_marked_arrows_become_invertible(capsys):
    with criterion(9, capsys):
        for name, inp in corpus.fractions_corpus():
            LC = localize(inp)
            K = LC.carrier
            for v in inp.weq:
                image = LC.L.on_arrows[v]
                inv = two_sided_inverse(K, image)
                assert inv is not None, (name, v)
                assert compose(K, image, inv) == K.identity[K.src[image]]
                assert compose(K, inv, image) == K.identity[K.tgt[image]]


def test_criterion_10_surjections_form_a_cover_class(capsys):
    with criterion(10, capsys):
        report = verify_cover_class(max_size=4)
        assert report.ok, str(report)


def test_total_time_budget(capsys):
    assert len(TIMES) == 10, "every criterion must have run"
    total = sum(TIMES.values())
    with capsys.disabled():
        print(f"ACCEPTANCE total: {total:.2f}s")
    assert total < 60.0
