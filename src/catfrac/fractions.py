"""Right-fractions localization at an arbitrary arrow class.

The arrow class W carries no closure assumptions: it need not contain
identities nor be closed under composition.  The four axioms checked here
are correspondingly weakened: (1) every object is the target of some
W-arrow; (2) W-composable pairs admit a weak composition witness; (3)
cospans with a W-leg admit an Ore square; (4) parallel pairs coequalized by
a W-arrow are equalized by one.

Arrows of the localized category are sailboat classes of spans (v, g) with
v a W-arrow sharing its source with g.  A span reads as "go backward along
v, then forward along g", so the class [v;g] runs from t(v) to t(g).

All searches (sections, Ore fillers, weak-composition witnesses, zippers)
take the first candidate in canonical order; exhaustive modes re-run them
over every candidate to witness independence.  Every search over W reads
the marked arrows at one endpoint from an index each ``FractionsInput``
builds once (marked arrows by source and by target, each bucket in W
order), so a filtered scan of W yields the same sequence without visiting
the rest of W.

Composing (v1, g1) with (v2, g2) reads g2 only in its last step, so a
composite is a head, made from an Ore filler of (g1, v2) and a weak filler
of (w', v1), followed by g2.  Within one localize call, or one ambient span
machinery, each Ore-filler and weak-filler list is searched once and shared,
and so are the first head and the Ore x weak product of heads: each is
formed once per (v1, g1, v2) and shared by every g2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .diagram import enumerate_transformations
from .elements import (
    _whiskering,
    cleavage,
    grothendieck,
    modification_cells,
    transformation_to_functor,
)
from .errors import AxiomError, DomainError, InputError, IntegrityError
from .fincat import (
    FinCategory,
    Functor,
    check_shape,
    compose,
    compose_functors,
    enumerate_functors,
    misplaced_composites,
    nat_trans_search,
    partition,
    two_sided_inverse,
    uniquify,
)
from .verify import Correspondence, VerifierReport, check_correspondence


@dataclass(eq=True)
class FractionsInput:
    """A category with a class W of marked arrows, listed in canonical order.

    Construction indexes W once: ``_wset`` holds the marked arrows,
    ``_w_out`` and ``_w_into`` list them by source and by target, each in W
    order.  The index stays out of the fields, ``__eq__`` and ``repr``.  A
    marked arrow that is not in the category is keyed None; ``check`` says
    so before any search reads the index.
    """

    category: FinCategory
    weq: tuple

    def __post_init__(self) -> None:
        src, tgt = self.category.src, self.category.tgt
        outs, ins = {}, {}
        for v in self.weq:
            outs.setdefault(src.get(v), []).append(v)
            ins.setdefault(tgt.get(v), []).append(v)
        self._wset = frozenset(self.weq)
        self._w_out = {x: tuple(vs) for x, vs in outs.items()}
        self._w_into = {y: tuple(vs) for y, vs in ins.items()}

    def check(self) -> None:
        arrset = set(self.category.arrows)
        seen = set()
        for v in self.weq:
            if v not in arrset:
                raise InputError(f"marked arrow {v!r} is not in the category")
            if v in seen:
                raise InputError(f"marked arrow {v!r} listed twice")
            seen.add(v)

    def _fillers(self, search, *key) -> Iterable:
        """What ``search(self, *key)`` finds, searched lazily."""
        return search(self, *key)


class _SharedFillers(FractionsInput):
    """The input of one localize call, or of one ambient span machinery,
    keeping every filler list and every list of heads it searches.  The
    composition loop and the ambient's composition of every span pair
    compose many span pairs over the same cospans, marked pairs and
    (v1, g1, v2), self-check (b) reads the heads of each (v1, g1, v2), and
    each list is complete and in canonical order, so its first entry is the
    lazy search's first hit.  So span_compose forms each head once per
    (v1, g1, v2) and only reads the composite with g2 per span pair.  It
    lives only as long as that call."""

    def __init__(self, inp: FractionsInput) -> None:
        super().__init__(inp.category, inp.weq)
        self._found: dict = {}

    def _fillers(self, search, *key) -> list:
        found = self._found.get((search, key))
        if found is None:
            found = self._found[(search, key)] = list(search(self, *key))
        return found


@dataclass
class AxiomFinding:
    axiom: int
    ok: bool
    witnesses: dict = field(default_factory=dict)
    counterexample: Optional[tuple] = None

    def __str__(self) -> str:
        if self.ok:
            return f"axiom ({self.axiom}): pass ({len(self.witnesses)} witnesses)"
        return f"axiom ({self.axiom}): FAIL at {self.counterexample!r}"


@dataclass
class AxiomReport:
    findings: list

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def finding(self, axiom: int) -> AxiomFinding:
        return self.findings[axiom - 1]

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.findings)


def shape_instances(inp: FractionsInput, kind: str) -> list[tuple]:
    """Exhaustively enumerate one shape kind in canonical order: spans
    ``"spn"`` (v, g), sailboats ``"sb"`` (h, v, g) and parallel pairs with a
    coequalizing marked arrow ``"p_cq"`` (f, g, v)."""
    inp.check()
    C = inp.category
    comp = C.composition
    out = []
    if kind == "spn":
        for v in inp.weq:
            for g in C.out_of(C.src[v]):
                out.append((v, g))
    elif kind == "sb":
        for h in C.arrows:
            for v in inp._w_out.get(C.tgt[h], ()):
                if comp[(h, v)] not in inp._wset:
                    continue
                for g in C.out_of(C.src[v]):
                    out.append((h, v, g))
    elif kind == "p_cq":
        for f in C.arrows:
            for g in C.hom(C.src[f], C.tgt[f]):
                for v in inp._w_out.get(C.tgt[f], ()):
                    if comp[(f, v)] == comp[(g, v)]:
                        out.append((f, g, v))
    else:
        raise InputError(f"unknown shape kind {kind!r}")
    return out


def _sections(inp: FractionsInput, x: str) -> Iterator[str]:
    """Marked arrows into x, in canonical order."""
    return iter(inp._w_into.get(x, ()))


def _weak_fillers(inp: FractionsInput, v: str, vp: str) -> Iterator[str]:
    """Weak-composition fillers of a marked composable pair (v, v'): arrows
    m with m;v;v' marked, in canonical order."""
    C = inp.category
    for m in C.into(C.src[v]):
        if compose(C, C.composition[(m, v)], vp) in inp._wset:
            yield m


def _ore_fillers(inp: FractionsInput, h: str, v: str) -> Iterator[tuple]:
    """Ore squares on a cospan (h, v) with v marked: pairs (w', g) with w'
    marked and w';h = g;v, in canonical order."""
    C = inp.category
    for wp in inp._w_into.get(C.src[h], ()):
        wph = C.composition[(wp, h)]
        for g in C.hom(C.src[wp], C.src[v]):
            if C.composition[(g, v)] == wph:
                yield wp, g


def _composite_heads(inp: FractionsInput, v1: str, g1: str, v2: str) -> Iterator[tuple]:
    """What composing a span (v1, g1) with any span (v2, g2) makes before
    g2: pairs ((m;w');v1, m;h2) over each Ore filler (w', h2) of (g1, v2)
    and each weak filler m of (w', v1), in canonical order, each first
    occurrence only: composition is a function, so a repeated head would
    only repeat its composite."""
    comp = inp.category.composition
    seen = set()
    # the searches yield only m with t(m) = s(w') and h2 with s(h2) = s(w'),
    # and an Ore filler ends at t(w') = s(g1) = s(v1), so all are table reads
    for wp, h2 in inp._fillers(_ore_fillers, g1, v2):
        for m in inp._fillers(_weak_fillers, wp, v1):
            head = (comp[(comp[(m, wp)], v1)], comp[(m, h2)])
            if head not in seen:
                seen.add(head)
                yield head


def _first_head(inp: FractionsInput, v1: str, g1: str, v2: str) -> Iterator[tuple]:
    """The head a composite of (v1, g1) with any (v2, g2) takes from the
    first filler of each kind: ((m;w');v1, m;h2) for the first Ore filler
    (w', h2) of (g1, v2) and the first weak filler m of (w', v1), or nothing
    when either is missing."""
    comp = inp.category.composition
    first = next(iter(inp._fillers(_ore_fillers, g1, v2)), None)
    if first is None:
        return
    wp, h2 = first
    m = next(iter(inp._fillers(_weak_fillers, wp, v1)), None)
    if m is not None:
        # table reads, as in _composite_heads
        yield comp[(comp[(m, wp)], v1)], comp[(m, h2)]


def _zippers(inp: FractionsInput, f: str, g: str) -> Iterator[str]:
    """Marked arrows u with u;f = u;g for a parallel pair (f, g), in
    canonical order."""
    comp = inp.category.composition
    for u in inp._w_into.get(inp.category.src[f], ()):
        if comp[(u, f)] == comp[(u, g)]:
            yield u


def _decide(inp: FractionsInput, axiom: int, cases: list, search) -> AxiomFinding:
    """Run ``search`` on each case (key, shown) in order.  The first filler
    found is the key's witness; the first case without one is shown as the
    counterexample."""
    finding = AxiomFinding(axiom=axiom, ok=True)
    for key, shown in cases:
        found = next(search(inp, *key), None)
        if found is not None:
            finding.witnesses[key] = found
        elif finding.ok:
            finding.ok = False
            finding.counterexample = shown
    return finding


def check_axioms(inp: FractionsInput) -> AxiomReport:
    """Decide the four weakened right-fractions axioms with witnesses; a
    composite outside hom(s(f), t(g)) raises InputError before any search."""
    inp.check()
    C = inp.category
    problem = next(misplaced_composites(C), None)
    if problem is not None:
        raise InputError(problem)
    objects = [((x,), (x,)) for x in C.objects]
    marked_pairs = [
        ((v, vp), (v, vp)) for v in inp.weq for vp in inp._w_out.get(C.tgt[v], ())
    ]
    cospans = [((h, v), (h, v)) for h in C.arrows for v in inp._w_into.get(C.tgt[h], ())]
    # a parallel pair is shown with the first arrow that coequalizes it
    coequalized: dict = {}
    for s in shape_instances(inp, "p_cq"):
        coequalized.setdefault(s[:2], s)
    return AxiomReport(findings=[
        _decide(inp, 1, objects, _sections),
        _decide(inp, 2, marked_pairs, _weak_fillers),
        _decide(inp, 3, cospans, _ore_fillers),
        _decide(inp, 4, list(coequalized.items()), _zippers),
    ])


@dataclass(eq=True)
class LocalizedCategory:
    carrier: FinCategory
    q: dict
    L: Functor
    class_reps: dict


def _span_partition(inp: FractionsInput):
    """Spans and their sailboat classes (as index lists).

    A sailboat move (h, v, g) -> (hv, hg) keeps both endpoints t(v), t(g)
    of the span, so each class has endpoints and the classes of composable
    span pairs are exactly the composable pairs of classes.  localize
    composes classes through representatives on that ground; a move that
    breaks the invariant (only a corrupt table can) raises IntegrityError.
    The moves are built here; fincat.partition, shared with the ambient
    coequalizer, closes them.
    """
    C = inp.category
    spans = shape_instances(inp, "spn")
    index = {s: i for i, s in enumerate(spans)}

    def moves() -> Iterator[tuple[int, int]]:
        # "sb" matched t(h) = s(v) = s(g), so both composites are table reads
        for sb in shape_instances(inp, "sb"):
            h, v, g = sb
            moved = (C.composition[(h, v)], C.composition[(h, g)])
            if moved not in index or C.tgt[moved[0]] != C.tgt[v] or C.tgt[moved[1]] != C.tgt[g]:
                raise IntegrityError(f"sailboat move {sb!r} changes the span's endpoints")
            yield index[(v, g)], index[moved]

    return spans, partition(len(spans), moves())


def sailboat_quotient(inp: FractionsInput) -> list[list[tuple]]:
    """Partition of the spans into sailboat classes, canonical reps first."""
    spans, ordered = _span_partition(inp)
    return [[spans[i] for i in members] for members in ordered]


def span_compose(
    inp: FractionsInput,
    s1: tuple,
    s2: tuple,
    exhaustive: bool = False,
) -> tuple:
    """Composite of two spans (v, g) via an Ore square then a
    weak-composition witness.

    Takes the first filler of each kind in canonical order.  With
    exhaustive=True, returns the pair (first, frozenset of the spans
    produced by every (Ore filler, weak filler) combination).  Either way
    the composite is a head (``_first_head``, or each of
    ``_composite_heads``) composed with g2: only that last step reads g2,
    so an input that keeps its fillers (``_SharedFillers``) forms each head
    once per (v1, g1, v2) and shares it with every g2.
    """
    C = inp.category
    v1, g1 = s1
    v2, g2 = s2
    try:
        composable = C.tgt[g1] == C.tgt[v2]
    except KeyError as exc:
        raise InputError(f"unknown arrow in compose: {exc.args[0]!r}") from None
    if not composable:
        raise DomainError(
            f"spans not composable: {s1!r} ends at {C.tgt[g1]!r}, "
            f"{s2!r} starts at {C.tgt[v2]!r}"
        )

    # listed before the reads below, so a head search's own KeyError is
    # never taken for a failed read
    heads = list(inp._fillers(_composite_heads if exhaustive else _first_head, v1, g1, v2))
    if not heads:
        if next(_ore_fillers(inp, g1, v2), None) is None:
            raise AxiomError(
                f"no Ore filler for cospan ({g1!r}, {v2!r})",
                report=check_axioms(inp),
            )
        raise AxiomError(
            f"no filler chain composes {s1!r} with {s2!r}",
            report=check_axioms(inp),
        )
    # a head ends at s(v2), which is s(g2) when s2 is a span; the table
    # holds only composable pairs, and compose names the pair that is not
    comp = C.composition
    results = []
    for a, b in heads:
        try:
            results.append((a, comp[(b, g2)]))
        except KeyError:
            results.append((a, compose(C, b, g2)))
    if exhaustive:
        return results[0], frozenset(results)
    return results[0]


def localize(inp: FractionsInput, exhaustive_limit: int = 64) -> LocalizedCategory:
    """Quotient the spans and install composition on representatives.

    Refuses with the axiom report when any axiom fails.  Also re-derives
    its own choices: (a) identity classes are independent of the chosen
    section, and (b) composites are independent of fillers and
    representatives, when the span count is within exhaustive_limit.  (b)
    runs once per row (s1, v2): the distinct heads of (v1, g1, v2), one per
    Ore x weak filler combination, must lie in one class, and then, per g2
    out of s(v2), the first head composed with g2 (one table read) must
    land in the class the table gives the pair.  That is the whole product
    check, because a sailboat move of a head stays a move once g2 is
    composed on; ``span_compose(exhaustive=True)`` still forms the whole
    product per span pair.  A failing row names the pair (s1, (v2, 1)).
    Any failure of those re-derivations, a sailboat move that changes a
    span's endpoints, or a composite that is not a span raises
    IntegrityError.

    The input's table is assumed to be a category: the associativity and
    identity laws are not checked here (``validate_category`` does that;
    the CLI runs it first).  On a table that breaks them the result
    localizes nothing meaningful.
    """
    inp.check()
    axioms = check_axioms(inp)
    if not axioms.ok:
        raise AxiomError(
            "fractions axioms fail:\n" + str(axioms), report=axioms
        )
    C = inp.category
    spans, ordered = _span_partition(inp)

    rep_payloads = [spans[members[0]] for members in ordered]
    names = uniquify([f"[{v};{g}]" for v, g in rep_payloads])
    class_of_span: dict[tuple, str] = {}
    for name, members in zip(names, ordered):
        for i in members:
            class_of_span[spans[i]] = name
    class_reps = dict(zip(names, rep_payloads))

    arrows_decl = []
    for name, (v, g) in zip(names, rep_payloads):
        arrows_decl.append((name, C.tgt[v], C.tgt[g]))

    # axiom (1), checked above, gives every object a marked arrow into it
    alpha = {x: next(_sections(inp, x)) for x in C.objects}
    identity = {x: class_of_span[(alpha[x], alpha[x])] for x in C.objects}

    # a span (v, g) runs from t(v) to t(g); listing the classes out of each
    # object in their own order makes the loop visit only the composable
    # pairs, in the order of the full product
    reps_out: dict[str, list] = {}
    for n, (v, g) in class_reps.items():
        reps_out.setdefault(C.tgt[v], []).append((n, (v, g)))
    shared = _SharedFillers(inp)
    composition = {}
    for n1, s1 in class_reps.items():
        for n2, s2 in reps_out.get(C.tgt[s1[1]], ()):
            composite = span_compose(shared, s1, s2)
            if composite not in class_of_span:
                raise IntegrityError(
                    f"composite of {s1!r} and {s2!r} is {composite!r}, which is not a span"
                )
            composition[(n1, n2)] = class_of_span[composite]

    carrier = FinCategory.build(C.objects, arrows_decl, identity, composition)

    L = Functor(
        C,
        carrier,
        {x: x for x in C.objects},
        {
            g: class_of_span[(alpha[C.src[g]], compose(C, alpha[C.src[g]], g))]
            for g in C.arrows
        },
    )
    out = LocalizedCategory(carrier=carrier, q=dict(class_of_span), L=L, class_reps=class_reps)

    # (a) identity classes do not depend on the section
    for x in C.objects:
        for v in _sections(inp, x):
            if class_of_span[(v, v)] != identity[x]:
                raise IntegrityError(
                    f"identity at {x!r} depends on the section: {v!r} disagrees"
                )

    # (b) composites do not depend on fillers or representatives; the rows
    # (s1, v2), and the g2 within a row, come in the order of the full
    # product of span pairs, so the first failing pair is named
    if len(spans) <= exhaustive_limit:
        comp = C.composition
        for s1 in spans:
            v1, g1 = s1
            n1 = class_of_span[s1]
            for v2 in inp._w_into.get(C.tgt[g1], ()):
                # a head that is no span stands for itself
                heads = shared._fillers(_composite_heads, v1, g1, v2)
                classes = {class_of_span.get(p, p) for p in heads}
                if len(classes) != 1:
                    s2 = (v2, C.identity[C.src[v2]])
                    raise IntegrityError(
                        f"composite of {s1!r} and {s2!r} "
                        f"is not well-defined: classes {sorted(classes, key=str)!r}"
                    )
                a, b = heads[0]
                for g2 in C.out_of(C.src[v2]):
                    s2 = (v2, g2)
                    # a head ends at s(v2), so (b, g2) is in the table
                    p = (a, comp[(b, g2)])
                    got = class_of_span.get(p, p)
                    if got != composition[(n1, class_of_span[s2])]:
                        raise IntegrityError(
                            f"composite of {s1!r} and {s2!r} "
                            f"is not well-defined: classes {[got]!r}"
                        )
    return out


def inverts(F: Functor, inp: FractionsInput) -> tuple[bool, dict]:
    """Whether every image of a marked arrow has a two-sided inverse."""
    inp.check()
    if F.dom != inp.category:
        raise DomainError("functor domain is not the marked category")
    table = {}
    ok = True
    for v in inp.weq:
        inv = two_sided_inverse(F.cod, F.on_arrows[v])
        if inv is None:
            ok = False
        else:
            table[v] = inv
    return ok, table


def induced_functor(F: Functor, LC: LocalizedCategory) -> Functor:
    """Factor a W-inverting functor through the localization."""
    if F.dom != LC.L.dom:
        raise DomainError("functor domain is not the marked category")
    X = F.cod
    members: dict[str, list] = {}
    for payload, name in LC.q.items():
        members.setdefault(name, []).append(payload)

    on_arrows = {}
    for name, payloads in members.items():
        values = set()
        for v, g in payloads:
            fv_inv = two_sided_inverse(X, F.on_arrows[v])
            if fv_inv is None:
                raise DomainError(f"functor does not invert marked arrow {v!r}")
            values.add(compose(X, fv_inv, F.on_arrows[g]))
        if len(values) != 1:
            raise IntegrityError(
                f"induced image of class {name!r} differs across representatives"
            )
        on_arrows[name] = values.pop()
    return Functor(LC.carrier, X, dict(F.on_objects), on_arrows)


def verify_localization_up(inp: FractionsInput, X: FinCategory):
    """Check the localization's universal property against a target.

    Functors inverting the marked arrows must match functors off the
    localized carrier via the induced/precompose maps, and the natural
    transformations between two of them must be exactly those between
    their images, componentwise.  Identities match identities without a
    check: ``induced_functor`` keeps the object map, so an identity
    transformation and the identity between the images are one tuple.
    """
    LC = localize(inp)
    report = VerifierReport(title="localization universal property")
    inverting = [F for F in enumerate_functors(inp.category, X) if inverts(F, inp)[0]]
    off_carrier = enumerate_functors(LC.carrier, X)
    report.stats["inverting functors"] = len(inverting)
    report.stats["functors off carrier"] = len(off_carrier)

    # 2-cells on both sides are components in the object order of C, which
    # the localized carrier keeps, so they are the same tuples
    correspondence = Correspondence(
        noun="inverting functor",
        left=inverting,
        right=off_carrier,
        forward=lambda F: induced_functor(F, LC),
        back=lambda G: compose_functors(LC.L, G),
        cell_noun="natural transformation",
        between=nat_trans_search(inp.category, X),
    )
    return check_correspondence(report, correspondence)


def verify_pseudocolimit(D, X: FinCategory):
    """Check that localizing the elements carrier at the cleavage computes
    the pseudocolimit: invertible-two-cell transformations out of the
    diagram correspond to functors off the localized carrier."""
    shape = check_shape(D.index, "cofiltered")
    if not shape.ok:
        raise DomainError(f"index is not cofiltered: {shape.failure}")
    if D.variance != "contravariant":
        raise DomainError("pseudocolimit verification needs a contravariant diagram")

    report = VerifierReport(title="pseudocolimit universal property")
    GD = grothendieck(D)
    W = cleavage(GD)
    inp = FractionsInput(category=GD.carrier, weq=W.members)
    try:
        LC = localize(inp)
    except AxiomError as exc:
        report.add("cleavage fails the fractions axioms:\n" + str(exc.report))
        return report
    report.stats["carrier arrows"] = len(GD.carrier.arrows)
    report.stats["localized arrows"] = len(LC.carrier.arrows)

    okw, _ = inverts(LC.L, inp)
    if not okw:
        report.add("the localization functor does not invert the cleavage")

    pseudo = enumerate_transformations(D, X, "pseudo")
    off_localized = enumerate_functors(LC.carrier, X)
    report.stats["pseudo transformations"] = len(pseudo)
    report.stats["functors off localized"] = len(off_localized)
    whisker = _whiskering(GD)
    # a transformation collapses to a functor inverting the cleavage exactly
    # when it is pseudo, so induced_functor's DomainError marks the others
    correspondence = Correspondence(
        noun="pseudo transformation",
        left=pseudo,
        right=off_localized,
        forward=lambda x: induced_functor(transformation_to_functor(x, GD), LC),
        back=lambda G: whisker(compose_functors(LC.L, G)),
        cell_noun="modification",
        between=modification_cells(GD, X),
    )
    return check_correspondence(report, correspondence)
