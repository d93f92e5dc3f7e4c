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
of (w', v1), followed by g2.  An input decides its axioms once
(``axiom_verdict``): localize reads the kept verdict and hands its witnesses
to the input the composition loop reads, and one ambient span machinery
decides them on that input itself, so the first Ore and weak fillers found
as witnesses are the ones the first heads are made from: each first filler
is searched once.  Each complete filler list, each list of weak legs
(m, (m;w');v1), the first head and the Ore x weak product of heads are
formed once per key and shared, a head by every g2.

The axiom decision runs on the category's positional view: each axiom is
one pass over its cases, reading the composites its lazy search reads, so
its witnesses are those searches' first hits.  The lazy filler searches
and the first head run on names; they give every complete filler list, and
every first hit outside a decision.  The weak legs, the Ore fillers' second
legs and the product of heads are arrow positions, and localize's own loops
run on the view, with names kept at the edges.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

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

    Construction keeps W as a tuple, so an iterator is read once, and
    refuses a string or a value that is not iterable with InputError.  It
    indexes W once: ``_wset`` holds the marked arrows, ``_w_out`` and
    ``_w_into`` list them by source and by target, each in W order.  The
    index stays out of the fields, ``__eq__`` and ``repr``.  A marked arrow
    that is not in the category, or an entry that is no string, is keyed
    None; ``check`` says so before any search reads the index.

    An input is not changed after it is built: it keeps the report of the
    first ``check_axioms`` call that completes on it (``_axioms``, see
    ``axiom_verdict``), in a slot outside the fields, so ``__eq__`` and
    ``repr`` ignore it.
    """

    category: FinCategory
    weq: tuple

    def __post_init__(self) -> None:
        if isinstance(self.weq, str) or not isinstance(self.weq, Iterable):
            raise InputError(f"the marked arrows are a sequence of arrow names, got {self.weq!r}")
        src, tgt = self.category.src, self.category.tgt
        marks, outs, ins = [], {}, {}
        for v in self.weq:
            marks.append(v)
            # an entry that is no string may be unhashable; no arrow is one
            key = v if isinstance(v, str) else None
            outs.setdefault(src.get(key), []).append(v)
            ins.setdefault(tgt.get(key), []).append(v)
        self.weq = tuple(marks)
        self._wset = frozenset(v for v in self.weq if isinstance(v, str))
        self._w_out = {x: tuple(vs) for x, vs in outs.items()}
        self._w_into = {y: tuple(vs) for y, vs in ins.items()}
        # set during __init__, as Pseudofunctor's verdict is: an attribute
        # added later slows every attribute read on the instance
        self._axioms = None

    def check(self) -> None:
        arrset = set(self.category.arrows)
        seen = set()
        for v in self.weq:
            if not isinstance(v, str) or v not in arrset:
                raise InputError(f"marked arrow {v!r} is not in the category")
            if v in seen:
                raise InputError(f"marked arrow {v!r} listed twice")
            seen.add(v)

    def _fillers(self, search, *key) -> Iterable:
        """What ``search(self, *key)`` finds, searched lazily."""
        return search(self, *key)

    def _first(self, search, *key):
        """What ``search(self, *key)`` finds first, or None."""
        return next(search(self, *key), None)

    def _keep_firsts(self, search, firsts: dict) -> None:
        """Nothing: a plain input keeps no first hits."""


class _SharedFillers(FractionsInput):
    """The input of one localize call, or of one ambient span machinery,
    keeping every first filler, every filler list and every list of heads
    it searches.  It is handed the axiom decision's witnesses, the first
    filler of each case that has one: localize hands it those of its
    input's kept verdict, and the ambient decides the axioms on it.  The
    composition loop and the ambient's composition of every span pair
    compose many span pairs over those same cospans and marked pairs, and
    ``_first`` reads the kept witnesses.  Self-check (b) reads the complete
    lists, each in canonical order, so a list's first entry is the lazy
    search's first hit and ``_first`` reads it when no first hit is kept.
    So each head is formed once per (v1, g1, v2), and each span pair only
    reads its composite with g2.  The lists the head product reads, the Ore
    fillers' second legs and the weak legs, are kept as arrow positions
    (``_ore_legs``, ``_weak_legs``), so each is converted once per key.  It
    lives only as long as that call."""

    def __init__(self, inp: FractionsInput) -> None:
        super().__init__(inp.category, inp.weq)
        # per search, each key's complete list and each key's first hit
        self._found: defaultdict = defaultdict(dict)
        self._firsts: defaultdict = defaultdict(dict)

    def _fillers(self, search, *key) -> list:
        found = self._found[search]
        listed = found.get(key)
        if listed is None:
            listed = found[key] = list(search(self, *key))
        return listed

    def _first(self, search, *key):
        firsts = self._firsts[search]
        if key not in firsts:
            listed = self._found[search].get(key)
            if listed is not None:
                return listed[0] if listed else None
            firsts[key] = next(search(self, *key), None)
        return firsts[key]

    def _keep_firsts(self, search, firsts: dict) -> None:
        self._firsts[search].update(firsts)


@dataclass(frozen=True)
class AxiomFinding:
    axiom: int
    ok: bool
    witnesses: Mapping = field(default_factory=dict)
    counterexample: Optional[tuple] = None

    def __str__(self) -> str:
        if self.ok:
            return f"axiom ({self.axiom}): pass ({len(self.witnesses)} witnesses)"
        return f"axiom ({self.axiom}): FAIL at {self.counterexample!r}"


@dataclass(frozen=True)
class AxiomReport:
    findings: tuple

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def finding(self, axiom: int) -> AxiomFinding:
        if isinstance(axiom, bool) or not isinstance(axiom, int) or not 1 <= axiom <= 4:
            raise DomainError(f"an axiom number is 1, 2, 3 or 4, got {axiom!r}")
        return self.findings[axiom - 1]

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.findings)


def shape_instances(inp: FractionsInput, kind: str) -> list[tuple]:
    """Exhaustively enumerate one shape kind in canonical order: spans
    ``"spn"`` (v, g) and sailboats ``"sb"`` (h, v, g)."""
    inp.check()
    C = inp.category
    out = []
    if kind == "spn":
        for v in inp.weq:
            for g in C.out_of(C.src[v]):
                out.append((v, g))
    elif kind == "sb":
        arrows = C.arrows
        P = C._positions()
        for h, v, _ in _masts(inp):
            out += [(arrows[h], arrows[v], arrows[g]) for g in P.outs[P.src[v]]]
    else:
        raise InputError(f"unknown shape kind {kind!r}")
    return out


def _mark_index(inp: FractionsInput) -> tuple[list, list, list]:
    """W as arrow positions: whether each arrow is marked, and per object
    the marked arrows out of it and into it, each in W order.  The input
    must pass ``check``."""
    C = inp.category
    pos = C._positions().arrow
    marked = [False] * len(C.arrows)
    for v in inp._wset:
        marked[pos[v]] = True
    w_out = [tuple(pos[v] for v in inp._w_out.get(x, ())) for x in C.objects]
    w_into = [tuple(pos[v] for v in inp._w_into.get(x, ())) for x in C.objects]
    return marked, w_out, w_into


def _masts(inp: FractionsInput) -> Iterator[tuple[int, int, int]]:
    """The sailboats (h, v, g), as arrow positions, by mast: each (h, v, h;v)
    with t(h) = s(v) and v, h;v marked, in canonical order.  The sailboats
    on a mast are those with g out of s(v), in declaration order, so this
    is the one sailboat enumeration; ``shape_instances(inp, "sb")`` names
    it.  The input must pass ``check``."""
    C = inp.category
    P = C._positions()
    n, flat = len(C.arrows), P.flat
    marked, w_out, _ = _mark_index(inp)
    for h, t in enumerate(P.tgt):
        hn = h * n
        for v in w_out[t]:
            hv = flat[hn + v]
            if marked[hv]:
                yield h, v, hv


def _sections(inp: FractionsInput, x: str) -> Iterator[str]:
    """Marked arrows into x, in canonical order."""
    return iter(inp._w_into.get(x, ()))


def _weak_fillers(inp: FractionsInput, v: str, vp: str) -> Iterator[str]:
    """Weak-composition fillers of a marked composable pair (v, v'): arrows
    m with m;v;v' marked, in canonical order."""
    C = inp.category
    comp = C.composition
    for m in C.into(C.src[v]):
        mv = comp[(m, v)]
        # the table holds only composable pairs; compose names one that is not
        try:
            mvvp = comp[(mv, vp)]
        except KeyError:
            mvvp = compose(C, mv, vp)
        if mvvp in inp._wset:
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


def _ore_legs(inp: FractionsInput, h: str, v: str) -> Iterator[tuple]:
    """Each Ore filler (w', h2) of (h, v), with h2 as an arrow position, in
    canonical order."""
    pos = inp.category._positions().arrow
    for wp, h2 in inp._fillers(_ore_fillers, h, v):
        yield wp, pos[h2]


def _weak_legs(inp: FractionsInput, wp: str, v1: str) -> Iterator[tuple]:
    """Each weak filler m of (w', v1) with the first leg (m;w');v1 of the
    heads it makes, both as arrow positions, in canonical order."""
    C = inp.category
    P = C._positions()
    n, pos, flat = len(C.arrows), P.arrow, P.flat
    # the search yields only m with t(m) = s(w') and (m;w');v1 composed, so
    # both are table reads; it names an unknown v1 before the first read
    for m in inp._fillers(_weak_fillers, wp, v1):
        m = pos[m]
        yield m, flat[flat[m * n + pos[wp]] * n + pos[v1]]


def _composite_heads(inp: FractionsInput, v1: str, g1: str, v2: str) -> Iterator[tuple]:
    """What composing a span (v1, g1) with any span (v2, g2) makes before
    g2: pairs ((m;w');v1, m;h2), as arrow positions, over each Ore filler
    (w', h2) of (g1, v2) and each weak filler m of (w', v1), in canonical
    order, each first occurrence only: composition is a function, so a
    repeated head would only repeat its composite.  A shared input keeps
    the Ore fillers and weak legs of each key as positions, so each filler
    is converted once per key, not once per combination."""
    C = inp.category
    n, flat = len(C.arrows), C._positions().flat
    seen = set()
    # an Ore filler's h2 starts at s(w') = t(m), so m;h2 is a table read
    for wp, h2 in inp._fillers(_ore_legs, g1, v2):
        for m, leg in inp._fillers(_weak_legs, wp, v1):
            b = flat[m * n + h2]
            key = leg * n + b
            if key not in seen:
                seen.add(key)
                yield leg, b


def _first_head(inp: FractionsInput, v1: str, g1: str, v2: str) -> Iterator[tuple]:
    """The head a composite of (v1, g1) with any (v2, g2) takes from the
    first filler of each kind: ((m;w');v1, m;h2) for the first Ore filler
    (w', h2) of (g1, v2) and the first weak filler m of (w', v1), or nothing
    when either is missing.  Both are read through ``_first``, so on the
    input the axioms were decided on they are that decision's witnesses."""
    comp = inp.category.composition
    first = inp._first(_ore_fillers, g1, v2)
    if first is None:
        return
    wp, h2 = first
    m = inp._first(_weak_fillers, wp, v1)
    if m is not None:
        # table reads, as in _weak_legs and _composite_heads
        yield comp[(comp[(m, wp)], v1)], comp[(m, h2)]


def _zippers(inp: FractionsInput, f: str, g: str) -> Iterator[str]:
    """Marked arrows u with u;f = u;g for a parallel pair (f, g), in
    canonical order."""
    comp = inp.category.composition
    for u in inp._w_into.get(inp.category.src[f], ()):
        if comp[(u, f)] == comp[(u, g)]:
            yield u


def _decide(
    inp: FractionsInput, axiom: int, search, witnesses: dict, counterexample: Optional[tuple]
) -> AxiomFinding:
    """The finding of one axiom, from the first filler of each case that has
    one (``witnesses``, keyed in case order) and the first case without one
    (``counterexample``, or None).  The witnesses are handed to ``inp``,
    whose ``_first`` then reads them as ``search``'s first hits on a shared
    input."""
    inp._keep_firsts(search, witnesses)
    return AxiomFinding(axiom, counterexample is None, MappingProxyType(witnesses), counterexample)


def check_axioms(inp: FractionsInput) -> AxiomReport:
    """Decide the four weakened right-fractions axioms with witnesses; a
    composite outside hom(s(f), t(g)) raises InputError before any search.
    The report is fresh on every call and read-only: its findings are a
    tuple and each finding's witnesses a read-only mapping.  The first
    report on inp is kept as its verdict (``axiom_verdict``).

    Each axiom is decided in one pass over its cases, on the category's
    positional view and W's positional index (``_mark_index``): a case's
    first filler is the first hit of its lazy search (``_sections``,
    ``_weak_fillers``, ``_ore_fillers``, ``_zippers``), found by reading
    the same composites in the same order, each one read of the flat
    table.  Witness keys, witnesses and counterexamples are names."""
    inp.check()
    C = inp.category
    problem = next(misplaced_composites(C), None)
    if problem is not None:
        raise InputError(problem)
    P = C._positions()
    arrows, pos, src, tgt, flat, ins, homs = C.arrows, P.arrow, P.src, P.tgt, P.flat, P.ins, P.homs
    n, m = len(arrows), len(C.objects)
    marked, w_out, w_into = _mark_index(inp)
    # composites land in their hom, checked above, so every composite of a
    # composable pair read below is itself composable with the next arrow

    # (1) a section: the first marked arrow into x
    witnesses, counterexample = {}, None
    for x, into in zip(C.objects, w_into):
        if into:
            witnesses[(x,)] = arrows[into[0]]
        elif counterexample is None:
            counterexample = (x,)
    sections = _decide(inp, 1, _sections, witnesses, counterexample)

    # (2) a weak filler of each marked pair (v, v'), v in W order: the first
    # m into s(v) with (m;v);v' marked
    witnesses, counterexample = {}, None
    for v in inp.weq:
        vi = pos[v]
        ms = ins[src[vi]]
        mvs = [flat[mi * n + vi] * n for mi in ms]
        for vp in w_out[tgt[vi]]:
            for mi, mv in zip(ms, mvs):
                if marked[flat[mv + vp]]:
                    witnesses[(v, arrows[vp])] = arrows[mi]
                    break
            else:
                if counterexample is None:
                    counterexample = (v, arrows[vp])
    weak = _decide(inp, 2, _weak_fillers, witnesses, counterexample)

    # (3) an Ore square on each cospan (h, v), v marked: the first marked w'
    # into s(h), then the first g: s(w') -> s(v), with g;v = w';h
    witnesses, counterexample = {}, None
    for h in range(n):
        vs = w_into[tgt[h]]
        if not vs:
            continue
        wphs = [(wp, src[wp] * m, flat[wp * n + h]) for wp in w_into[src[h]]]
        for v in vs:
            sv = src[v]
            for wp, row, wph in wphs:
                for g in homs[row + sv]:
                    if flat[g * n + v] == wph:
                        break
                else:
                    continue  # no g for this w'
                witnesses[(arrows[h], arrows[v])] = arrows[wp], arrows[g]
                break
            else:
                if counterexample is None:
                    counterexample = (arrows[h], arrows[v])
    ore = _decide(inp, 3, _ore_fillers, witnesses, counterexample)

    # (4) a zipper of each parallel pair (f, g) that a marked v out of t(f)
    # coequalizes: the first marked u into s(f) with u;f = u;g.  The pair
    # is shown with the first such v
    witnesses, counterexample = {}, None
    for f in range(n):
        vs, us = w_out[tgt[f]], w_into[src[f]]
        if not vs:
            continue
        fn = f * n
        for g in homs[src[f] * m + tgt[f]]:
            gn = g * n
            for v in vs:
                if flat[fn + v] == flat[gn + v]:
                    break
            else:
                continue  # not coequalized: no case
            for u in us:
                un = u * n
                if flat[un + f] == flat[un + g]:
                    witnesses[(arrows[f], arrows[g])] = arrows[u]
                    break
            else:
                if counterexample is None:
                    counterexample = (arrows[f], arrows[g], arrows[v])
    zippers = _decide(inp, 4, _zippers, witnesses, counterexample)

    report = AxiomReport(findings=(sections, weak, ore, zippers))
    if inp._axioms is None:
        inp._axioms = report
    return report


def axiom_verdict(inp: FractionsInput) -> AxiomReport:
    """The report the first ``check_axioms`` call on inp kept, making that
    call when none is kept yet; the report is read-only, so no reader can
    change what a later call reads.  An InputError raises on every call, as ``check_axioms``
    raises it, and is never kept."""
    return inp._axioms if inp._axioms is not None else check_axioms(inp)


@dataclass(eq=True)
class LocalizedCategory:
    carrier: FinCategory
    q: dict
    L: Functor
    class_reps: dict


def _span_starts(C: FinCategory, spans: list) -> list:
    """Where each marked arrow's block of ``spans`` (as ``shape_instances``
    lists them) starts, by arrow position; -1 for an arrow that is not
    marked.  The span (v, g) is then ``spans[start[v] + out_rank[g]]``."""
    P = C._positions()
    start = [-1] * len(C.arrows)
    i = 0
    while i < len(spans):
        v = P.arrow[spans[i][0]]
        start[v] = i
        # v's block lists every g out of s(v), v itself among them
        i += len(P.outs[P.src[v]])
    return start


def _span_partition(inp: FractionsInput):
    """Spans and their sailboat classes (as index lists).

    A sailboat move (h, v, g) -> (hv, hg) keeps both endpoints t(v), t(g)
    of the span, so each class has endpoints and the classes of composable
    span pairs are exactly the composable pairs of classes.  localize
    composes classes through representatives on that ground; a move that
    breaks the invariant (only a corrupt table can) raises IntegrityError.
    The moves are built here, on span indices; fincat.partition, shared
    with the ambient coequalizer, closes them.
    """
    C = inp.category
    spans = shape_instances(inp, "spn")
    start = _span_starts(C, spans)
    P = C._positions()
    n, src, tgt, flat, outs, rank = len(C.arrows), P.src, P.tgt, P.flat, P.outs, P.out_rank

    def moves() -> Iterator[tuple[int, int]]:
        # a mast has t(h) = s(v) = s(g), so both composites are table reads
        for h, v, hv in _masts(inp):
            # (hv, hg) is a span when s(hg) = s(hv); a move off a mast with
            # t(hv) != t(v) breaks the invariant at its first g
            s = src[hv] if tgt[hv] == tgt[v] else None
            i, j, hn = start[v], start[hv], h * n
            for g in outs[src[v]]:
                hg = flat[hn + g]
                if src[hg] != s or tgt[hg] != tgt[g]:
                    sb = C.arrows[h], C.arrows[v], C.arrows[g]
                    raise IntegrityError(f"sailboat move {sb!r} changes the span's endpoints")
                yield i, j + rank[hg]
                i += 1

    return spans, partition(len(spans), moves())


def sailboat_quotient(inp: FractionsInput) -> list[list[tuple]]:
    """Partition of the spans into sailboat classes, canonical reps first."""
    spans, ordered = _span_partition(inp)
    return [[spans[i] for i in members] for members in ordered]


def _refuse_unhashable(*spans: tuple) -> None:
    """Raise InputError naming the first of ``spans`` with an entry that
    cannot be hashed, so names no arrow; do nothing if there is none."""
    for s in spans:
        for x in s:
            try:
                hash(x)
            except TypeError:
                raise InputError(f"a span is a pair (v, g) of arrows, got {s!r}") from None


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
    ``_composite_heads``, named from its positions) composed with g2: only
    that last step reads g2,
    so an input that keeps its fillers (``_SharedFillers``) forms each head
    once per (v1, g1, v2) and shares it with every g2.  localize's class
    loop reads those heads itself and calls this only to refuse a row that
    has none; the ambient's ``internal_localize`` composes through it.
    """
    C = inp.category
    s = s1
    try:
        v1, g1 = s
        s = s2
        v2, g2 = s
    except (TypeError, ValueError):
        raise InputError(f"a span is a pair (v, g), got {s!r}") from None
    try:
        composable = C.tgt[g1] == C.tgt[v2]
    except KeyError as exc:
        raise InputError(f"unknown arrow in compose: {exc.args[0]!r}") from None
    except TypeError:
        _refuse_unhashable(s1, s2)
        raise
    if not composable:
        raise DomainError(
            f"spans not composable: {s1!r} ends at {C.tgt[g1]!r}, "
            f"{s2!r} starts at {C.tgt[v2]!r}"
        )

    # a head ends at s(v2), which is s(g2) when s2 is a span; the table
    # holds only composable pairs, and compose names the pair that is not.
    # A head search's own KeyError raises in the loop header, outside the
    # inner try, so it is never taken for a failed read.
    comp, arrows = C.composition, C.arrows
    results = []
    try:
        for a, b in inp._fillers(_composite_heads if exhaustive else _first_head, v1, g1, v2):
            if exhaustive:  # the heads of every combination are positions
                a, b = arrows[a], arrows[b]
            try:
                composite = a, comp[(b, g2)]
            except KeyError:
                composite = a, compose(C, b, g2)
            if not exhaustive:
                return composite
            results.append(composite)
    except TypeError:
        # an entry that cannot be hashed fails the first read of it
        _refuse_unhashable(s1, s2)
        raise
    if not results:
        if inp._first(_ore_fillers, g1, v2) is None:
            raise AxiomError(
                f"no Ore filler for cospan ({g1!r}, {v2!r})",
                report=check_axioms(inp),
            )
        raise AxiomError(
            f"no filler chain composes {s1!r} with {s2!r}",
            report=check_axioms(inp),
        )
    return results[0], frozenset(results)


def localize(inp: FractionsInput, exhaustive_limit: int = 64) -> LocalizedCategory:
    """Quotient the spans and install composition on representatives.

    Refuses with the axiom report, read from the kept verdict
    (``axiom_verdict``), when any axiom fails.  Also re-derives
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

    The sailboat moves, the class loop and (b) run on the category's
    positional view (``FinCategory._positions``): spans are dense indices,
    heads are pairs of arrow positions, classes are numbers, and each
    composite is one read of the flat table.  Names are kept at the edges:
    class names, ``q``, ``class_reps``, ``L``, the carrier tables and every
    error message, formatted on the failure path only.

    The input's table is assumed to be a category: the associativity and
    identity laws are not checked here (``validate_category`` does that;
    the CLI runs it first).  On a table that breaks them the result
    localizes nothing meaningful.
    """
    if (isinstance(exhaustive_limit, bool) or not isinstance(exhaustive_limit, int)
            or exhaustive_limit < 0):
        raise DomainError(
            f"exhaustive_limit must be an integer of at least 0, got {exhaustive_limit!r}"
        )
    axioms = axiom_verdict(inp)
    if not axioms.ok:
        raise AxiomError(
            "fractions axioms fail:\n" + str(axioms), report=axioms
        )
    # the input the composition loop reads keeps the verdict's witnesses,
    # so the loop's first fillers are the decision's; each is copied to a
    # dict first, which a dict updates from ten times faster than from a
    # read-only mapping
    shared = _SharedFillers(inp)
    for search, finding in zip((_sections, _weak_fillers, _ore_fillers, _zippers), axioms.findings):
        shared._keep_firsts(search, finding.witnesses.copy())
    C = inp.category
    spans, ordered = _span_partition(inp)

    # names at the edges: class names, q, class_reps, L and the carrier
    # tables; the loops below read positions of arrows, spans and classes
    rep_payloads = [spans[members[0]] for members in ordered]
    names = uniquify([f"[{v};{g}]" for v, g in rep_payloads])
    class_of_span: dict[tuple, str] = {}
    cls = [0] * len(spans)
    for k, (name, members) in enumerate(zip(names, ordered)):
        for i in members:
            class_of_span[spans[i]] = name
            cls[i] = k
    class_reps = dict(zip(names, rep_payloads))

    arrows_decl = []
    for name, (v, g) in zip(names, rep_payloads):
        arrows_decl.append((name, C.tgt[v], C.tgt[g]))

    # axiom (1), checked above, gives every object a marked arrow into it
    alpha = {x: shared._first(_sections, x) for x in C.objects}
    identity = {x: class_of_span[(alpha[x], alpha[x])] for x in C.objects}

    P = C._positions()
    arrows, pos, src, flat, outs, rank = C.arrows, P.arrow, P.src, P.flat, P.outs, P.out_rank
    n, K = len(arrows), len(names)
    # the span (v, g) is spans[start[v] + rank[g]], so a pair (a, c) of
    # positions is a span of class cls[start[a] + rank[c]] exactly when
    # start[a] >= 0 (a is marked) and s(c) = s(a)
    start = _span_starts(C, spans)

    # a span (v, g) runs from t(v) to t(g); listing the classes out of each
    # object in their own order makes the loop visit only the composable
    # pairs, in the order of the full product.  Classes come in the order
    # of their least spans, and the spans of one v are consecutive, so the
    # classes out of an object fall into runs of one v each
    runs_out: list[list] = [[] for _ in C.objects]
    for k, (v, g) in enumerate(rep_payloads):
        runs = runs_out[P.tgt[pos[v]]]
        if not runs or runs[-1][0] != v:
            runs.append((v, []))
        runs[-1][1].append((k, names[k], pos[g]))
    # a row is the class pairs out of one class k1; the first head of (v1,
    # g1, v2) is read once per row and run of v2, as positions, and each
    # pair composes it with g2 by one read of the flat table, as
    # span_compose does; span_compose runs only for a row with no head, to
    # raise its AxiomError
    composition = {}
    composed = {}  # k1 * K + k2 -> the class of the composite, for (b)
    for k1, s1 in enumerate(rep_payloads):
        v1, g1 = s1
        n1, row = names[k1], k1 * K
        for v2, run in runs_out[P.tgt[pos[g1]]]:
            found = shared._fillers(_first_head, v1, g1, v2)
            if not found:
                span_compose(shared, s1, rep_payloads[run[0][0]])  # raises
            a, b = found[0]
            a, bn = pos[a], pos[b] * n
            i = start[a]
            sa = src[a] if i >= 0 else None  # no (a, c) is a span unless a is marked
            for k2, n2, g2 in run:
                # a head ends at s(v2) = s(g2), so (b, g2) is in the table
                c = flat[bn + g2]
                if src[c] != sa:
                    raise IntegrityError(
                        f"composite of {s1!r} and {rep_payloads[k2]!r} is "
                        f"{(arrows[a], arrows[c])!r}, which is not a span"
                    )
                k = cls[i + rank[c]]
                composed[row + k2] = k
                composition[(n1, n2)] = names[k]

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
    out = LocalizedCategory(carrier=carrier, q=class_of_span, L=L, class_reps=class_reps)

    # (a) identity classes do not depend on the section
    for x in C.objects:
        for v in _sections(inp, x):
            if class_of_span[(v, v)] != identity[x]:
                raise IntegrityError(
                    f"identity at {x!r} depends on the section: {v!r} disagrees"
                )

    # (b) composites do not depend on fillers or representatives; the rows
    # (s1, v2), and the g2 within a row, come in the order of the full
    # product of span pairs, so the first failing pair is named.  A class
    # is its index, and a head or composite that is no span stands for
    # itself, as its pair of positions
    if len(spans) <= exhaustive_limit:

        def named(found) -> object:
            return names[found] if isinstance(found, int) else (arrows[found[0]], arrows[found[1]])

        for s1, k1 in zip(spans, cls):
            v1, g1 = s1
            row = k1 * K
            for v2 in inp._w_into.get(C.tgt[g1], ()):
                heads = shared._fillers(_composite_heads, v1, g1, v2)
                classes = {
                    cls[start[a] + rank[b]] if start[a] >= 0 and src[b] == src[a] else (a, b)
                    for a, b in heads
                }
                if len(classes) != 1:
                    s2 = (v2, C.identity[C.src[v2]])
                    classes = sorted(map(named, classes), key=str)
                    raise IntegrityError(
                        f"composite of {s1!r} and {s2!r} "
                        f"is not well-defined: classes {classes!r}"
                    )
                a, b = heads[0]
                i, bn = start[a], b * n
                sa = src[a] if i >= 0 else None
                v2 = pos[v2]
                j = start[v2]
                for g2 in outs[src[v2]]:
                    # a head ends at s(v2), so (b, g2) is in the table
                    c = flat[bn + g2]
                    got = cls[i + rank[c]] if src[c] == sa else (a, c)
                    if got != composed[row + cls[j]]:
                        s2 = (arrows[v2], arrows[g2])
                        raise IntegrityError(
                            f"composite of {s1!r} and {s2!r} "
                            f"is not well-defined: classes {[named(got)]!r}"
                        )
                    j += 1
    return out


def inverts(F: Functor, inp: FractionsInput) -> tuple[bool, dict]:
    """Whether every image of a marked arrow has a two-sided inverse."""
    inp.check()
    if F.dom != inp.category:
        raise DomainError("functor domain is not the marked category")
    table = {}
    ok = True
    for v in inp.weq:
        try:
            fv = F.on_arrows[v]
        except KeyError:
            raise DomainError(f"the functor has no image of arrow {v!r}") from None
        inv = two_sided_inverse(F.cod, fv)
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
            try:
                fv, fg = F.on_arrows[v], F.on_arrows[g]
            except KeyError as exc:
                raise DomainError(f"the functor has no image of arrow {exc.args[0]!r}") from None
            fv_inv = two_sided_inverse(X, fv)
            if fv_inv is None:
                raise DomainError(f"functor does not invert marked arrow {v!r}")
            values.add(compose(X, fv_inv, fg))
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
