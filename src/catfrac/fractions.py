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

Each shape has one search routine, on arrow positions, a plain function
that returns a case's fillers as a list in canonical order:
``_weak_fillers`` (the arrows m with (m;v);v' marked), ``_ore_squares``
(the pairs (w', g) with w' marked and g;v = w';h) and ``_zippers`` (the
marked u with u;f = u;g).  Each takes a keyword-only ``bound`` and then
stops after that many fillers.  A section is the first marked arrow into
an object.  The routines take the plain input and read W through its
positional index (``_marks``: the marked flags and, per object, the
marked arrows out of it and into it, each in W order), so a filtered scan
of W gives the same sequence without visiting the rest of W.  An input
checks W and builds the index when it is made, so a structural defect of
W (an entry that is no arrow of the category, or one listed twice) is
refused there and every input a routine reads has its index.

The axiom decision asks each case for one filler (``bound=1``), and the
input keeps its report (``axiom_verdict``).  Composing (v1, g1) with (v2,
g2) reads g2 only in its last step, so a composite is a head ((m;w');v1,
m;h2), made from an Ore square (w', h2) of (g1, v2) and a weak filler m of
(w', v1), followed by g2.  The first head takes the first Ore square, then
the first weak filler of its w': both are witnesses of the kept verdict,
so the composition loop and the ambient's ``internal_localize`` read
first heads through ``_first_heads``, set up once per call, and search
no filler again.  The public ``span_compose`` searches its own first
head, so a single call decides no axiom.  Self-check (b) takes the whole
lists, each listed once per key in a dict the call owns (``_listed``).
A head depends only on its Ore square and v1 (``_square_heads``), so (b)
classifies each square's heads once per call.  Heads are pairs of arrow
positions; names appear only at the edges: the axiom report, error
messages and span_compose's return.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

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

    Construction refuses with InputError a category that is not a
    FinCategory.  It keeps W as a tuple, so an iterator is read once, and
    refuses a string, a set or a frozenset (whose order would follow
    string hashing) and a value that is not iterable.  It then runs
    ``check``, which refuses W unless every entry is an arrow of the
    category, listed once, so a structural defect of W is refused when the
    input is made.

    An input is not changed after it is built: assigning either field
    raises FrozenInstanceError, as on a frozen dataclass.  It keeps two
    derived views, each in a slot outside the fields, so ``__eq__`` and
    ``repr`` ignore them: W's positional index (``_marks``: whether each
    arrow is marked, and per object the marked arrows out of it and into
    it, each in W order), built at construction, and the report of the
    first ``check_axioms`` call that completes on it (``_axioms``, see
    ``axiom_verdict``).  The library fills those slots, so only the fields
    are guarded; a new W is a new input.
    """

    category: FinCategory
    weq: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.category, FinCategory):
            raise InputError(f"the marked category is a FinCategory, got {self.category!r}")
        if isinstance(self.weq, (str, set, frozenset)) or not isinstance(self.weq, Iterable):
            raise InputError(f"the marked arrows are a sequence of arrow names, got {self.weq!r}")
        object.__setattr__(self, "weq", tuple(self.weq))
        self.check()
        # set during __init__, as Pseudofunctor's verdict is: an attribute
        # added later slows every attribute read on the instance
        self._axioms = None
        C = self.category
        P = C._positions()
        marked = [False] * len(C.arrows)
        w_out, w_into = [[] for _ in C.objects], [[] for _ in C.objects]
        for v in self.weq:
            v = P.arrow[v]
            marked[v] = True
            w_out[P.src[v]].append(v)
            w_into[P.tgt[v]].append(v)
        self._marks = marked, w_out, w_into

    def __setattr__(self, name: str, value) -> None:
        # the kept views were derived from the fields, so a field set once
        # stays. hasattr, not self.__dict__: reading __dict__ would give the
        # instance a real dict and slow every later attribute read on it
        if name in ("category", "weq") and hasattr(self, name):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def check(self) -> None:
        arrset = set(self.category.arrows)
        seen = set()
        for v in self.weq:
            if not isinstance(v, str) or v not in arrset:
                raise InputError(f"marked arrow {v!r} is not in the category")
            if v in seen:
                raise InputError(f"marked arrow {v!r} listed twice")
            seen.add(v)


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

    def __reduce__(self):
        # a read-only mapping cannot be pickled or deep-copied: the
        # witnesses travel as a dict and are made read-only again
        return _read_only, (self.axiom, self.ok, dict(self.witnesses), self.counterexample)


def _read_only(axiom: int, ok: bool, witnesses: dict, counterexample) -> AxiomFinding:
    return AxiomFinding(axiom, ok, MappingProxyType(witnesses), counterexample)


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
    """Exhaustively enumerate one shape kind in canonical order; the one
    kind is spans ``"spn"`` (v, g), and any other raises InputError."""
    C = inp.category
    if kind == "spn":
        return [(v, g) for v in inp.weq for g in C.out_of(C.src[v])]
    raise InputError(f"unknown shape kind {kind!r}")


def _masts(inp: FractionsInput) -> Iterator[tuple[int, int, int]]:
    """The sailboats (h, v, g), as arrow positions, by mast: each (h, v, h;v)
    with t(h) = s(v) and v, h;v marked, in canonical order.  The sailboats
    on a mast are those with g out of s(v), in declaration order, so this
    is the one sailboat enumeration; ``_span_partition`` makes its moves
    from it."""
    P = inp.category._positions()
    n, flat = len(P.src), P.flat
    marked, w_out, _ = inp._marks
    for h, t in enumerate(P.tgt):
        hn = h * n
        for v in w_out[t]:
            hv = flat[hn + v]
            if marked[hv]:
                yield h, v, hv


def _weak_fillers(
    inp: FractionsInput, v: int, vp: int, *, bound: Optional[int] = None
) -> list[int]:
    """Weak-composition fillers of a marked composable pair (v, v'): the
    arrows m into s(v) with (m;v);v' marked, in canonical order; the first
    ``bound`` of them when a bound is given."""
    P = inp.category._positions()
    n, flat, marked = len(P.src), P.flat, inp._marks[0]
    found = []
    for m in P.ins[P.src[v]]:
        if marked[flat[flat[m * n + v] * n + vp]]:
            found.append(m)
            if len(found) == bound:
                break
    return found


def _ore_squares(
    inp: FractionsInput, h: int, v: int, *, bound: Optional[int] = None
) -> list[tuple[int, int]]:
    """Ore squares on a cospan (h, v) with v marked: the pairs (w', g) with
    w' marked into s(h), g: s(w') -> s(v) and g;v = w';h, in canonical
    order; the first ``bound`` of them when a bound is given."""
    P = inp.category._positions()
    n, flat, homs, row = len(P.src), P.flat, P.homs, P.src[v]
    m = len(P.outs)
    found = []
    for wp in inp._marks[2][P.src[h]]:
        wph = flat[wp * n + h]
        for g in homs[P.src[wp] * m + row]:
            if flat[g * n + v] == wph:
                found.append((wp, g))
                if len(found) == bound:
                    return found
    return found


def _zippers(
    inp: FractionsInput, f: int, g: int, *, bound: Optional[int] = None
) -> list[int]:
    """Marked arrows u into s(f) with u;f = u;g, for a parallel pair (f, g),
    in canonical order; the first ``bound`` of them when a bound is given."""
    P = inp.category._positions()
    n, flat = len(P.src), P.flat
    found = []
    for u in inp._marks[2][P.src[f]]:
        un = u * n
        if flat[un + f] == flat[un + g]:
            found.append(u)
            if len(found) == bound:
                break
    return found


def _first_heads(inp: FractionsInput) -> Callable[[int, int, int], Optional[tuple[int, int]]]:
    """The first-head reader of inp, set up once per call from its kept
    verdict (``axiom_verdict``), with no search.

    The reader takes (v1, g1, v2) and gives the head a composite of (v1, g1)
    with any (v2, g2) takes from the first filler of each kind: ((m;w');v1,
    m;h2) for the first Ore square (w', h2) of the cospan (g1, v2) and the
    first weak filler m of (w', v1), as positions; or None when either is
    missing.  Both are witnesses the decision found: (g1, v2) is a case of
    axiom (3), whose witness is its first Ore square, and then (w', v1) is a
    case of axiom (2), since w' is marked and s(v1) = s(g1) = t(w'), whose
    witness is its first weak filler.  A case without a filler has no
    witness, so the reader gives None on an input that fails an axiom too."""
    weak, ore = (finding.witnesses for finding in axiom_verdict(inp).findings[1:3])
    P = inp.category._positions()
    arrows, pos, flat, n = inp.category.arrows, P.arrow, P.flat, len(P.src)

    def head(v1: int, g1: int, v2: int) -> Optional[tuple[int, int]]:
        wp, h2 = ore.get((arrows[g1], arrows[v2]), (None, None))
        m = weak.get((wp, arrows[v1]))
        if m is None:
            return None
        # an Ore square's h2 starts at s(w') = t(m), so m;h2 is a table read
        mn = pos[m] * n
        return flat[flat[mn + pos[wp]] * n + v1], flat[mn + pos[h2]]

    return head


def _listed(lists: dict, routine, inp: FractionsInput, *key) -> list:
    """The list ``routine(inp, *key)`` returns, made once in ``lists``, a
    dict that the calling function owns."""
    found = lists.get((routine, key))
    if found is None:
        found = lists[routine, key] = routine(inp, *key)
    return found


def _square_heads(
    inp: FractionsInput, lists: dict, wp: int, h2: int, v1: int
) -> list[tuple[int, int]]:
    """The heads one Ore square (w', h2) gives a span with first leg v1:
    ((m;w');v1, m;h2) for each weak filler m of (w', v1), in canonical
    order, repeats included.  They depend on (w', h2, v1) only, not on the
    cospan the square fills.  The weak list is read from ``lists``
    (``_listed``)."""
    n, flat = len(inp.category.arrows), inp.category._positions().flat
    # an Ore square's h2 starts at s(w') = t(m), so m;h2 is a table read
    return [
        (flat[flat[m * n + wp] * n + v1], flat[m * n + h2])
        for m in _listed(lists, _weak_fillers, inp, wp, v1)
    ]


def _decide(axiom: int, witnesses: dict, counterexample: Optional[tuple]) -> AxiomFinding:
    """The finding of one axiom, from the first filler of each case that has
    one (``witnesses``, keyed in case order) and the first case without one
    (``counterexample``, or None)."""
    return AxiomFinding(axiom, counterexample is None, MappingProxyType(witnesses), counterexample)


def check_axioms(inp: FractionsInput) -> AxiomReport:
    """Decide the four weakened right-fractions axioms with witnesses; a
    composite outside hom(s(f), t(g)) raises InputError before any search.
    The report is fresh on every call and read-only: its findings are a
    tuple and each finding's witnesses a read-only mapping.  The first
    report on inp is kept as its verdict (``axiom_verdict``).

    Each axiom is decided in one pass over its cases, in case order, on the
    category's positional view: a case's witness is the one filler its
    search routine returns when bounded to one (the first marked arrow into
    x for a section).  The view records whether some composite is misplaced
    as it is built, so the table is walked by names only to name the first
    such composite.  Witness keys, witnesses and counterexamples are
    names."""
    _, w_out, w_into = inp._marks
    C = inp.category
    P = C._positions()
    if P.misplaced:
        raise InputError(next(misplaced_composites(C)))
    arrows, pos, src, tgt, flat, homs = C.arrows, P.arrow, P.src, P.tgt, P.flat, P.homs
    n, m = len(arrows), len(C.objects)
    # composites land in their hom, checked above, so every composite of a
    # composable pair a search reads is itself composable with the next arrow

    # (1) a section: the first marked arrow into x
    witnesses, counterexample = {}, None
    for x, into in zip(C.objects, w_into):
        if into:
            witnesses[(x,)] = arrows[into[0]]
        elif counterexample is None:
            counterexample = (x,)
    sections = _decide(1, witnesses, counterexample)

    # (2) a weak filler of each marked pair (v, v'), v in W order
    witnesses, counterexample = {}, None
    for v in inp.weq:
        vi = pos[v]
        for vp in w_out[tgt[vi]]:
            found = _weak_fillers(inp, vi, vp, bound=1)
            if found:
                witnesses[(v, arrows[vp])] = arrows[found[0]]
            elif counterexample is None:
                counterexample = (v, arrows[vp])
    weak = _decide(2, witnesses, counterexample)

    # (3) an Ore square on each cospan (h, v), v marked
    witnesses, counterexample = {}, None
    for h in range(n):
        for v in w_into[tgt[h]]:
            found = _ore_squares(inp, h, v, bound=1)
            if found:
                wp, g = found[0]
                witnesses[(arrows[h], arrows[v])] = arrows[wp], arrows[g]
            elif counterexample is None:
                counterexample = (arrows[h], arrows[v])
    ore = _decide(3, witnesses, counterexample)

    # (4) a zipper of each parallel pair (f, g) that a marked v out of t(f)
    # coequalizes, shown with the first such v
    witnesses, counterexample = {}, None
    for f in range(n):
        vs = w_out[tgt[f]]
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
            found = _zippers(inp, f, g, bound=1)
            if found:
                witnesses[(arrows[f], arrows[g])] = arrows[found[0]]
            elif counterexample is None:
                counterexample = (arrows[f], arrows[g], arrows[v])
    zippers = _decide(4, witnesses, counterexample)

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
    """Spans, their sailboat classes (as index lists) and where each marked
    arrow's block of spans starts (``_span_starts``).  The input refused a
    structural defect of W, and built the mark index the masts read, when
    it was made.

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

    return spans, partition(len(spans), moves()), start


def _refuse_unhashable(*spans: tuple) -> None:
    """Raise InputError naming the first of ``spans`` with an entry that
    cannot be hashed, so names no arrow; do nothing if there is none.  A
    tuple hashes exactly when its entries do."""
    for s in spans:
        try:
            hash(s)
        except TypeError:
            raise InputError(f"a span is a pair (v, g) of arrows, got {s!r}") from None


def span_compose(inp: FractionsInput, s1: tuple, s2: tuple) -> tuple:
    """Composite of two spans (v, g) via an Ore square then a
    weak-composition witness.

    Takes the first filler of each kind in canonical order, searched here,
    so a single call decides no axiom: the composite is the first head of
    the first Ore square (``_square_heads``), named from its positions,
    composed with g2.  This is the name-level composite of the public API:
    localize's class loop and the ambient's ``internal_localize`` read first
    heads by position, from the axiom decision's witnesses
    (``_first_heads``), instead.  A span is a tuple of two entries, so any
    other value, a string of two names among them, raises InputError.  A
    span whose first leg is an arrow but not a marked one raises
    DomainError naming it.
    """
    C = inp.category
    for s in (s1, s2):
        # refused before it is unpacked: the string "ff" unpacks as a pair
        if not (isinstance(s, tuple) and len(s) == 2):
            raise InputError(f"a span is a pair (v, g), got {s!r}")
    (v1, g1), (v2, g2) = s1, s2
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
    # holds only composable pairs, and compose names the pair that is not
    marked = inp._marks[0]
    P = C._positions()
    pos, src, arrows = P.arrow, P.src, C.arrows
    try:
        h, w, v = pos[g1], pos[v2], pos.get(v1)
        if v is not None and not marked[v]:
            raise DomainError(f"s1 {s1!r} is no span: {v1!r} is not marked")
        if not marked[w]:
            raise DomainError(f"s2 {s2!r} is no span: {v2!r} is not marked")
        squares = _ore_squares(inp, h, w)
        if v is None or src[v] != src[h]:
            # s1 is no span: the first read of a weak filler's (m;w');v1 names it
            for wp, _ in squares:
                mw = P.flat[P.ins[src[wp]][0] * len(arrows) + wp]
                compose(C, arrows[mw], v1)  # raises
        # the first head: the first weak filler of the first Ore square
        heads = _square_heads(inp, {}, *squares[0], v) if squares else ()
        if heads:
            a, b = arrows[heads[0][0]], arrows[heads[0][1]]
            try:
                return a, C.composition[(b, g2)]
            except KeyError:
                return a, compose(C, b, g2)
    except TypeError:
        # an entry that cannot be hashed fails the first read of it
        _refuse_unhashable(s1, s2)
        raise
    if squares:
        problem = f"no filler chain composes {s1!r} with {s2!r}"
    else:
        problem = f"no Ore filler for cospan ({g1!r}, {v2!r})"
    raise AxiomError(problem, report=check_axioms(inp))


def localize(inp: FractionsInput, exhaustive_limit: int = 64) -> LocalizedCategory:
    """Quotient the spans and install composition on representatives.

    Refuses with the axiom report, read from the kept verdict
    (``axiom_verdict``), when any axiom fails.  The class loop composes each
    class pair from the first head of its row, which that verdict's
    witnesses give (``_first_heads``), so it searches no filler.  Also
    re-derives its own choices: (a) identity classes are independent of the
    chosen section, and (b) composites are independent of fillers and
    representatives, when the span count is within exhaustive_limit.  (b)
    searches its own whole filler lists, so it derives every head again,
    apart from the verdict.  It runs once per row (s1, v2): the heads of
    (v1, g1, v2), one per Ore x weak filler combination, must lie in one
    class, and then, per g2 out of s(v2), the first head composed with g2
    (one table read) must land in the class the table gives the pair.  A
    head depends only on its Ore square (w', h2) and v1, so the heads of
    each (w', h2, v1) are listed (``_square_heads``) and classified once per
    call: a row's classes are the union of its squares' classes, and its
    first head the first head of its first square that has one.  That is the
    whole product check, because a sailboat move of a head stays a move once
    g2 is composed on, so no call forms the whole product per span pair.
    A failing row names the pair
    (s1, (v2, 1)).  Any failure of those re-derivations, a sailboat move
    that changes a span's endpoints, a row with no head or a composite that
    is not a span raises IntegrityError.

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
    C = inp.category
    # the span (v, g) is spans[start[v] + rank[g]], so a pair (a, c) of
    # positions is a span of class cls[start[a] + rank[c]] exactly when
    # start[a] >= 0 (a is marked) and s(c) = s(a)
    spans, ordered, start = _span_partition(inp)

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

    arrows_decl = [(name, C.tgt[v], C.tgt[g]) for name, (v, g) in zip(names, rep_payloads)]

    P = C._positions()
    arrows, pos, src, tgt, flat = C.arrows, P.arrow, P.src, P.tgt, P.flat
    outs, rank, w_into = P.outs, P.out_rank, inp._marks[2]
    n, K = len(arrows), len(names)
    # axiom (1), checked above, gives every object a marked arrow into it:
    # the section at x is the first
    alpha = {x: arrows[into[0]] for x, into in zip(C.objects, w_into)}
    identity = {x: class_of_span[(alpha[x], alpha[x])] for x in C.objects}

    # a span (v, g) runs from t(v) to t(g); listing the classes out of each
    # object in their own order makes the loop visit only the composable
    # pairs, in the order of the full product.  Classes come in the order
    # of their least spans, and the spans of one v are consecutive, so the
    # classes out of an object fall into runs of one v each
    runs_out: list[list] = [[] for _ in C.objects]
    for k, (v, g) in enumerate(rep_payloads):
        runs = runs_out[tgt[pos[v]]]
        if not runs or runs[-1][0] != v:
            runs.append((v, []))
        runs[-1][1].append((k, names[k], pos[g]))
    # a row is the class pairs out of one class k1; the first head of (v1,
    # g1, v2) is read from the axiom verdict once per row and run of v2,
    # and each pair composes it with g2 by one read of the flat table, as
    # span_compose does.  Axioms (2) and (3) give every row a head, so a
    # row without one is a fault
    composition = {}
    composed = {}  # k1 * K + k2 -> the class of the composite, for (b)
    first_head = _first_heads(inp)
    for k1, s1 in enumerate(rep_payloads):
        v1, g1 = pos[s1[0]], pos[s1[1]]
        n1, row = names[k1], k1 * K
        for v2, run in runs_out[tgt[g1]]:
            head = first_head(v1, g1, pos[v2])
            if head is None:
                raise IntegrityError(f"axioms passed but the row ({s1!r}, {v2!r}) has no head")
            a, b = head
            bn, i = b * n, start[a]
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
    for x, into in zip(C.objects, w_into):
        for v in map(arrows.__getitem__, into):
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

        lists = {}  # the Ore and weak lists of this call, for every row
        # (w', h2, v1) -> the first head of that Ore square, or None, and
        # the classes of its heads: each square is classified once per
        # call, though every row through it reads it
        squares = {}
        for s1, k1 in zip(spans, cls):
            v1, g1 = pos[s1[0]], pos[s1[1]]
            row = k1 * K
            for v2 in w_into[tgt[g1]]:
                # the row's classes are those of its squares, and its first
                # head is the first head of its first square that has one
                head, classes = None, set()
                for wp, h2 in _listed(lists, _ore_squares, inp, g1, v2):
                    found = squares.get((wp, h2, v1))
                    if found is None:
                        heads = _square_heads(inp, lists, wp, h2, v1)
                        met = {
                            cls[start[a] + rank[b]] if start[a] >= 0 and src[b] == src[a]
                            else (a, b)
                            for a, b in heads
                        }
                        found = squares[wp, h2, v1] = heads[0] if heads else None, met
                    if head is None:
                        head = found[0]
                    classes |= found[1]
                if len(classes) != 1:
                    s2 = (arrows[v2], C.identity[C.src[arrows[v2]]])
                    classes = sorted(map(named, classes), key=str)
                    raise IntegrityError(
                        f"composite of {s1!r} and {s2!r} "
                        f"is not well-defined: classes {classes!r}"
                    )
                a, b = head
                i, bn = start[a], b * n
                sa = src[a] if i >= 0 else None
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
