"""Finite-set ambient: pullbacks, coproducts, reflexive coequalizers, covers.

Internal categories live here as set-and-table data: objects and arrows are
finite sets (elements 0..size-1), structure maps are total tables, and the
composable-pairs object is the canonical pullback of target along source.
The elements and localization constructions are rebuilt in this language
from the ambient operations, independently of the direct modules, so the
two routes can be compared by isomorphism search on instances.  The
elements category's arrow set is the coproduct of one pullback block per
index arrow, and its source, target, identity and cleavage maps are the
mediating maps of those pullbacks and coproducts; the identity and
composition cells are still read from the external pseudofunctor.

A finite category is numbered once, by its positional view
(``FinCategory._positions``), and the ambient reads no other numbering:
``_tabulate`` reads its object and arrow sets and its source, target and
identity maps off the view, for ``internalize`` and for each fibre in
``_element_blocks``; ``internalize`` reads composition from the view's
flat table along the pullback projections, and the elements construction
reads D(φ)'s object images and the unitor inverses through the fibre's
view.  So an element of an arrow set is the arrow's position in the view,
and ``externalize``, which names arrow j ``a{j}`` for the fractions layer,
is the one place where positions become names.

Every universal property used is witnessed: the mediating-map constructors
check existence and uniqueness instead of assuming them, and the cover
class (surjections) is certified by exhausting small instances.  Every map
off a quotient or a coproduct, the internal localization's composition and
the pairs comparison included, is filled by one routine, ``_factor``: it
names each element at which the map would give its class a second value
(for a coproduct, where two injections overlap and the legs disagree) and
leaves each class that no element reaches empty, and each caller refuses
either in its own words.  A pullback element is found by its coordinates
with no table of pairs: ``pullback`` lists the fibres block after block, so
(x, y) sits at its block's start plus y's rank within its fibre, and one
helper, ``_pair_index``, reads both off the projections.  A lookup whose
pair the caller has not shown to be an element checks the coordinates at
that position (``_find``); ``pullback_mediate`` scans fibres instead, since
it counts factorizations through projections that need not be lexicographic.

Canonical orders everywhere: pullback elements are lexicographic pairs,
coproducts concatenate blocks in input order, quotients list classes by
their least member; ``fincat.partition`` closes the relation that each
route builds for itself (here the coequalizer rows, there the sailboats).

Each map indexes its fibres once, on first use, and every operation that
needs preimages reads that index.  An object or map built from outside is
validated; the ones the ambient's own operations build are in range by
construction and are not validated again: pullback, coproduct and quotient
objects (their sizes are counts), identities, composites, pullback
projections, coproduct injections, quotient maps, the mediating maps once
their existence and uniqueness checks pass, the internal tables read
off those maps, and the tables ``_tabulate`` reads off a view.  The
cleavage map stays validated: its codomain is the arrow set the caller
passes in.

An internal category is frozen and keeps, as a map keeps its fibres, its
composable pairs and its law verdict, so each category is checked once.
It also keeps what one crosscheck would otherwise build twice: the
result of ``internal_elements`` keeps the blocks it was built from, which
``internal_cleavage`` reads again, and each internal category keeps the
span machinery of its last marked-arrows map, which ``internal_localize``
and ``verify_pairs_coequalizer`` share; the machinery keeps w's inverse.

Within one call, ``internal_elements`` computes each compositor inverse
once.  ``internal_localize`` alone enters the fractions layer: it decides
the axioms on the externalized category, then composes each span pair on
arrow positions, which ``externalize`` numbers as the arrow set does.  It
reads the first head of each (v1, g1, v2) from the witnesses that decision
kept, through the reader ``fractions._first_heads`` sets up once per call,
so it searches no filler itself, and finds the composite by the span
pullback's index and w's inverse.  The span machinery reads ambient tables.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .diagram import compositor_inverse_component, require_lawful, unitor_inverse_component
from .errors import AxiomError, DomainError, InputError, IntegrityError
from .fincat import FinCategory, ValidationReport, compose_many, partition
from .fractions import FractionsInput, _first_heads, check_axioms
from .verify import VerifierReport


@dataclass(frozen=True, eq=False)
class FinSetObject:
    label: str
    size: int

    def __post_init__(self) -> None:
        if self.label.__class__ is not str:
            raise InputError(f"label of a finite set must be a string, got {self.label!r}")
        if self.size.__class__ is not int:
            raise InputError(f"size of {self.label!r} must be an integer, got {self.size!r}")
        if self.size < 0:
            raise InputError(f"negative size for {self.label!r}")

    # Every operation compares endpoints, mostly with `!=`, and they are
    # mostly the same object: identity answers first, then (label, size)
    # as the generated methods would, without building two tuples.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.size == other.size

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label != other.label or self.size != other.size

    def __hash__(self) -> int:
        return hash((self.label, self.size))


@dataclass(frozen=True, eq=True)
class FinSetMap:
    dom: FinSetObject
    cod: FinSetObject
    table: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.dom, FinSetObject):
            raise InputError(f"map domain must be a finite set, got {self.dom!r}")
        if not isinstance(self.cod, FinSetObject):
            raise InputError(f"map codomain must be a finite set, got {self.cod!r}")
        table, size = self.table, self.cod.size
        if table.__class__ is not tuple:
            raise InputError(f"map table must be a tuple, got {table!r}")
        if len(table) != self.dom.size:
            raise InputError(
                f"map table has {len(table)} entries for a domain of size {self.dom.size}"
            )
        for v in table:
            if v.__class__ is not int or not 0 <= v < size:
                raise InputError(f"map value {v!r} outside codomain of size {size}")

    @cached_property
    def _fibres(self) -> tuple:
        over: list[list[int]] = [[] for _ in range(self.cod.size)]
        for x, y in enumerate(self.table):
            over[y].append(x)
        return tuple(map(tuple, over))


def _sized(label: str, size: int) -> FinSetObject:
    """An object whose size the caller counted; not validated again."""
    A = object.__new__(FinSetObject)
    fields = A.__dict__  # the frozen __setattr__ guards attribute writes only
    fields["label"], fields["size"] = label, size
    return A


def _built(dom: FinSetObject, cod: FinSetObject, table: tuple) -> FinSetMap:
    """A map whose table the caller built in range; not validated again."""
    f = object.__new__(FinSetMap)
    fields = f.__dict__  # the frozen __setattr__ guards attribute writes only
    fields["dom"], fields["cod"], fields["table"] = dom, cod, table
    return f


def identity_map(A: FinSetObject) -> FinSetMap:
    return _built(A, A, tuple(range(A.size)))


def compose_maps(f: FinSetMap, g: FinSetMap) -> FinSetMap:
    """f followed by g."""
    if f.cod != g.dom:
        raise DomainError(f"maps not composable: {f.cod!r} vs {g.dom!r}")
    return _built(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def is_surjective(f: FinSetMap) -> bool:
    return len(set(f.table)) == f.cod.size


def fibres(f: FinSetMap) -> tuple[tuple[int, ...], ...]:
    """The preimage of each codomain element under f, in ascending order.
    Computed once per map and shared by every caller."""
    return f._fibres


def _factor(q_table: Sequence[int], h_table: Sequence, size: int) -> tuple[list, list[int]]:
    """The table m on ``size`` classes with m[q(a)] = h(a), for every map off
    a quotient or a coproduct: each class takes the value of its first
    element, and a class that no element reaches is None.  Also returns
    every element a at which h(a) differs from its class's value."""
    table: list = [None] * size
    splits = []
    for a, (cls, v) in enumerate(zip(q_table, h_table)):
        if table[cls] is None:
            table[cls] = v
        elif table[cls] != v:
            splits.append(a)
    return table, splits


def pullback(f: FinSetMap, g: FinSetMap) -> tuple[FinSetObject, FinSetMap, FinSetMap]:
    """Pairs (x, y) with f(x) = g(y), in lexicographic order."""
    if f.cod != g.cod:
        raise DomainError("pullback needs a common codomain")
    over = g._fibres
    t0: list[int] = []
    t1: list[int] = []
    for x, y in enumerate(f.table):
        ys = over[y]
        if ys:
            t0 += [x] * len(ys)
            t1 += ys
    # _sized and _built inlined: the cover-class certificate takes 14,062
    # pullbacks, most of them of sets of at most four elements
    P, p0, p1 = object.__new__(FinSetObject), object.__new__(FinSetMap), object.__new__(FinSetMap)
    fields = P.__dict__
    fields["label"], fields["size"] = f"pb({f.dom.label},{g.dom.label})", len(t0)
    fields = p0.__dict__
    fields["dom"], fields["cod"], fields["table"] = P, f.dom, tuple(t0)
    fields = p1.__dict__
    fields["dom"], fields["cod"], fields["table"] = P, g.dom, tuple(t1)
    return P, p0, p1


def _pair_index(p0: FinSetMap, p1: FinSetMap) -> tuple[list[int], list[int]]:
    """Where the pairs of a pullback sit, read off its projections.

    ``pullback`` lists x's fibre g⁻¹(f(x)) as one block, block after block,
    so (x, y) is element start[x] + rank[y]: start[x] is where x's block
    begins, rank[y] is y's index within its fibre (0 for a y in no block)."""
    t0 = p0.table
    start = [bisect_left(t0, x) for x in range(p0.cod.size)]
    rank = [0] * p1.cod.size
    for k, x, y in zip(range(len(t0)), t0, p1.table):
        rank[y] = k - start[x]
    return start, rank


def _find(p0: FinSetMap, p1: FinSetMap, index: tuple, x: int, y: int):
    """The element (x, y) of the pullback with these projections and index,
    or None if (x, y) is not one of its elements."""
    k = index[0][x] + index[1][y]
    return k if 0 <= k < len(p0.table) and p0.table[k] == x and p1.table[k] == y else None


def pullback_mediate(
    pi0: FinSetMap, pi1: FinSetMap, h0: FinSetMap, h1: FinSetMap
) -> FinSetMap:
    """The unique map into the pullback matching a cone; checked, not assumed."""
    if pi0.dom != pi1.dom:
        raise DomainError("projections do not share a pullback object")
    if h0.dom != h1.dom or h0.cod != pi0.cod or h1.cod != pi1.cod:
        raise DomainError("cone does not match the pullback's feet")
    over = fibres(pi0)
    table = []
    for z in range(h0.dom.size):
        y = h1.table[z]
        hits = [p for p in over[h0.table[z]] if pi1.table[p] == y]
        if len(hits) != 1:
            raise DomainError(
                f"cone element {z} has {len(hits)} factorizations through the pullback"
            )
        table.append(hits[0])
    return _built(h0.dom, pi0.dom, tuple(table))


def coproduct(parts: Sequence[FinSetObject]) -> tuple[FinSetObject, list[FinSetMap]]:
    """Tagged disjoint union; blocks in input order."""
    total = sum(p.size for p in parts)
    label = "(" + "+".join(p.label for p in parts) + ")"
    S = _sized(label, total)
    injections = []
    offset = 0
    for p in parts:
        injections.append(_built(p, S, tuple(range(offset, offset + p.size))))
        offset += p.size
    return S, injections


def coproduct_mediate(
    S: FinSetObject, injections: Sequence[FinSetMap], legs: Sequence[FinSetMap]
) -> FinSetMap:
    """The unique map off a coproduct agreeing with every leg.  With no legs
    it is the empty map into the empty coproduct, labelled as ``coproduct``
    labels it."""
    if len(injections) != len(legs):
        raise DomainError("one leg per block required")
    if any(inj.cod != S for inj in injections):
        raise DomainError("injections do not land in the coproduct")
    if any(leg.dom != inj.dom for inj, leg in zip(injections, legs)):
        raise DomainError("legs do not match the coproduct blocks")
    cod = legs[0].cod if legs else FinSetObject("()", 0)
    if any(leg.cod != cod for leg in legs):
        raise DomainError("legs have different codomains")
    into = [x for inj in injections for x in inj.table]
    table, splits = _factor(into, [v for leg in legs for v in leg.table], S.size)
    if splits:
        raise DomainError(f"legs disagree at element {into[splits[0]]} of the coproduct")
    if None in table:
        raise DomainError("injections do not cover the coproduct")
    return _built(S, cod, tuple(table))


def has_common_section(f: FinSetMap, g: FinSetMap) -> bool:
    """Whether some h satisfies h;f = h;g = identity, i.e. the pair is
    reflexive: whether every element of the codomain is f(x) = g(x) for
    some x. No section is built; the whole diagonal is read, with no early
    exit."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainError("sections make sense for parallel pairs only")
    # every table value lies in the codomain, so the diagonal covers it
    # exactly when it has cod.size distinct values
    return len({a for a, b in zip(f.table, g.table) if a == b}) == f.cod.size


def coequalize_reflexive(f: FinSetMap, g: FinSetMap) -> tuple[FinSetObject, FinSetMap]:
    """Quotient of the shared codomain by f(x) ~ g(x); classes by least member.

    The rows (f(x), g(x)) are closed by fincat.partition.  Finite sets have
    all such quotients, so the computation never needs the pair to be
    reflexive; callers that rely on reflexivity assert it with
    has_common_section.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainError("coequalizer needs a parallel pair")
    classes = partition(f.cod.size, zip(f.table, g.table))
    class_of = [0] * f.cod.size
    for k, members in enumerate(classes):
        for i in members:
            class_of[i] = k
    Q = _sized(f"{f.cod.label}/~", len(classes))
    return Q, _built(f.cod, Q, tuple(class_of))


def coequalizer_mediate(q: FinSetMap, h: FinSetMap) -> FinSetMap:
    """The unique map off the quotient with q;m = h; checked elementwise."""
    if h.dom != q.dom:
        raise DomainError("leg does not start at the quotient's source")
    table, splits = _factor(q.table, h.table, q.cod.size)
    if splits:
        raise DomainError(f"leg is not constant on the class of element {splits[0]}")
    if None in table:
        raise DomainError("quotient map is not surjective")
    return _built(q.cod, h.cod, tuple(table))


def _all_objects(max_size: int) -> list[FinSetObject]:
    return [FinSetObject(f"s{n}", n) for n in range(max_size + 1)]


def _all_maps(A: FinSetObject, B: FinSetObject) -> list[FinSetMap]:
    if A.size == 0:
        return [FinSetMap(A, B, ())]
    return [
        FinSetMap(A, B, tab) for tab in itertools.product(range(B.size), repeat=A.size)
    ]


def verify_cover_class(max_size: int = 4) -> ValidationReport:
    """Certify the surjection class on every map between small sets.

    Checks identities, closure under composition, stability under pullback,
    and effectiveness (every cover coequalizes its kernel pair), on the sets
    of sizes 0..max_size.
    """
    if isinstance(max_size, bool) or not isinstance(max_size, int) or max_size < 0:
        raise DomainError(f"max_size must be an integer of at least 0, got {max_size!r}")
    report = ValidationReport()
    objects = _all_objects(max_size)
    maps = [f for A in objects for B in objects for f in _all_maps(A, B)]

    for A in objects:
        if not is_surjective(identity_map(A)):
            report.add(f"identity on size {A.size} is not a cover")

    member = [f for f in maps if is_surjective(f)]
    members_from: dict = {A: [] for A in objects}
    for g in member:
        members_from[g.dom].append(g)
    maps_into: dict = {B: [] for B in objects}
    for g in maps:
        maps_into[g.cod].append(g)

    for f in member:
        for g in members_from[f.cod]:
            if not is_surjective(compose_maps(f, g)):
                report.add(f"composite of covers {f.table!r};{g.table!r} is not a cover")

    for f in member:
        for g in maps_into[f.cod]:
            _, _, p1 = pullback(f, g)
            if not is_surjective(p1):
                report.add(
                    f"pullback of cover {f.table!r} along {g.table!r} is not a cover"
                )

    for f in member:
        K, k0, k1 = pullback(f, f)
        Q, q = coequalize_reflexive(k0, k1)
        try:
            m = coequalizer_mediate(q, f)
        except DomainError:
            report.add(f"cover {f.table!r} does not coequalize its kernel pair")
            continue
        if not (is_surjective(m) and len(set(m.table)) == len(m.table)):
            report.add(f"comparison for cover {f.table!r} is not an isomorphism")
    return report


@dataclass(frozen=True, eq=True)
class InternalCategory:
    """A category object in finite sets: object and arrow sets plus tables.

    Frozen, so what it keeps stays true of it (see the module docstring).
    """

    c0: FinSetObject
    c1: FinSetObject
    s: FinSetMap
    t: FinSetMap
    e: FinSetMap
    c: FinSetMap

    def __post_init__(self) -> None:
        # set during __init__, outside the fields, like FinCategory's hom
        # index; later writes go through __dict__, as _built's do
        self.__dict__.update(_pairs=None, _laws=None, _blocks=None, _spans=None)

    def composable_pairs(self) -> tuple[FinSetObject, FinSetMap, FinSetMap]:
        if self._pairs is None:
            self.__dict__["_pairs"] = pullback(self.t, self.s)
        return self._pairs


def validate_internal_category(IC: InternalCategory) -> ValidationReport:
    """All category laws as table equalities; malformed shapes raise."""
    if IC.s.dom != IC.c1 or IC.s.cod != IC.c0:
        raise InputError("source map has wrong endpoints")
    if IC.t.dom != IC.c1 or IC.t.cod != IC.c0:
        raise InputError("target map has wrong endpoints")
    if IC.e.dom != IC.c0 or IC.e.cod != IC.c1:
        raise InputError("identity map has wrong endpoints")
    P, p0, p1 = IC.composable_pairs()
    if IC.c.dom.size != P.size or IC.c.cod != IC.c1:
        raise InputError("composition is not defined on the composable-pairs object")

    report = ValidationReport()
    if compose_maps(IC.e, IC.s).table != tuple(range(IC.c0.size)):
        report.add("identities do not section the source map")
    if compose_maps(IC.e, IC.t).table != tuple(range(IC.c0.size)):
        report.add("identities do not section the target map")

    s, t, e, c = IC.s.table, IC.t.table, IC.e.table, IC.c.table
    t0, t1, n = p0.table, p1.table, P.size
    for k, i, j, comp in zip(range(n), t0, t1, c):
        if s[comp] != s[i]:
            report.add(f"composite of pair {k} breaks the source law")
        if t[comp] != t[j]:
            report.add(f"composite of pair {k} breaks the target law")

    index = _pair_index(p0, p1)
    for f in range(IC.c1.size):
        left = _find(p0, p1, index, e[s[f]], f)
        if left is None or c[left] != f:
            report.add(f"left identity law fails at arrow {f}")
        right = _find(p0, p1, index, f, e[t[f]])
        if right is None or c[right] != f:
            report.add(f"right identity law fails at arrow {f}")

    # (f, g) with g out of t(f) is composable, so it sits at start[f] +
    # rank[g]; (fg, h) and (f, gh) are checked at their positions, inline
    # for speed: a composite with broken endpoints was reported above and
    # makes one of them non-composable
    start, rank = index
    out_of = fibres(IC.s)
    for f in range(IC.c1.size):
        sf = start[f]
        for g in out_of[t[f]]:
            fg, sg = c[sf + rank[g]], start[g]
            sfg = start[fg]
            for h in out_of[t[g]]:
                rh = rank[h]
                gh = c[sg + rh]
                left, right = sfg + rh, sf + rank[gh]
                if not (0 <= left < n and t0[left] == fg and t1[left] == h
                        and 0 <= right < n and t0[right] == f and t1[right] == gh):
                    continue
                if c[left] != c[right]:
                    report.add(f"associativity fails at triple ({f},{g},{h})")
    return report


@dataclass(eq=True)
class InternalFunctor:
    dom: InternalCategory
    cod: InternalCategory
    f0: FinSetMap
    f1: FinSetMap


def validate_internal_functor(F: InternalFunctor) -> ValidationReport:
    if F.f0.dom != F.dom.c0 or F.f0.cod != F.cod.c0:
        raise InputError("object part has wrong endpoints")
    if F.f1.dom != F.dom.c1 or F.f1.cod != F.cod.c1:
        raise InputError("arrow part has wrong endpoints")
    report = ValidationReport()
    if compose_maps(F.f1, F.cod.s).table != compose_maps(F.dom.s, F.f0).table:
        report.add("source square does not commute")
    if compose_maps(F.f1, F.cod.t).table != compose_maps(F.dom.t, F.f0).table:
        report.add("target square does not commute")
    if compose_maps(F.dom.e, F.f1).table != compose_maps(F.f0, F.cod.e).table:
        report.add("identity square does not commute")
    _, d0, d1 = F.dom.composable_pairs()
    _, c0, c1 = F.cod.composable_pairs()
    index = _pair_index(c0, c1)
    for k, i, j in zip(range(len(d0.table)), d0.table, d1.table):
        lhs = F.f1.table[F.dom.c.table[k]]
        image = _find(c0, c1, index, F.f1.table[i], F.f1.table[j])
        if image is None:
            report.add(f"images of pair ({i},{j}) are not composable")
            continue
        rhs = F.cod.c.table[image]
        if lhs != rhs:
            report.add(f"composition square fails at pair ({i},{j})")
    return report


@dataclass(eq=True)
class InternalNatTrans:
    src: InternalFunctor
    tgt: InternalFunctor
    component: FinSetMap


def validate_internal_nat_trans(eta: InternalNatTrans) -> ValidationReport:
    F, G = eta.src, eta.tgt
    if F.dom != G.dom or F.cod != G.cod:
        raise DomainError("transformation between non-parallel internal functors")
    if eta.component.dom != F.dom.c0 or eta.component.cod != F.cod.c1:
        raise InputError("component map has wrong endpoints")
    report = ValidationReport()
    if compose_maps(eta.component, F.cod.s).table != F.f0.table:
        report.add("components do not start at the source functor")
    if compose_maps(eta.component, F.cod.t).table != G.f0.table:
        report.add("components do not end at the target functor")
    _, c0, c1 = F.cod.composable_pairs()
    index = _pair_index(c0, c1)
    for f in range(F.dom.c1.size):
        x, y = F.dom.s.table[f], F.dom.t.table[f]
        k1 = _find(c0, c1, index, F.f1.table[f], eta.component.table[y])
        k2 = _find(c0, c1, index, eta.component.table[x], G.f1.table[f])
        if k1 is None or k2 is None:
            report.add(f"naturality square at arrow {f} does not compose")
            continue
        if F.cod.c.table[k1] != F.cod.c.table[k2]:
            report.add(f"naturality fails at arrow {f}")
    return report


def _tabulate(C: FinCategory, label: str) -> tuple:
    """(C₀, C₁, s, t, e) of a finite category, read off its positional view:
    each element is the position of its object or arrow there."""
    P = C._positions()
    C0, C1 = _sized(f"{label}0", len(C.objects)), _sized(f"{label}1", len(C.arrows))
    s, t = _built(C1, C0, tuple(P.src)), _built(C1, C0, tuple(P.tgt))
    return C0, C1, s, t, _built(C0, C1, tuple(P.identity))


def internalize(C: FinCategory) -> InternalCategory:
    """Tabulate a finite category as sets of positions; composition is read
    off the view's flat table along the pullback projections.  The view
    refuses a table that misses a composable pair (a category built by the
    raw constructor), naming the first such pair."""
    C0, C1, s, t, e = _tabulate(C, "C")
    P, p0, p1 = pullback(t, s)
    n, flat = C1.size, C._positions().flat
    ctable = tuple(flat[f * n + g] for f, g in zip(p0.table, p1.table))
    return InternalCategory(C0, C1, s, t, e, _built(P, C1, ctable))


def _require_laws(IC: InternalCategory) -> None:
    """Raise unless IC is a category; IC is checked once and keeps the verdict."""
    if IC._laws is None:
        IC.__dict__["_laws"] = validate_internal_category(IC)
    if not IC._laws.ok:
        raise InputError("cannot externalize an invalid internal category:\n" + str(IC._laws))


def externalize(IC: InternalCategory, validate: bool = True) -> FinCategory:
    """Read an internal category as an ordinary one with positional names.

    validate=False skips the law check.  Its one caller is ``catfrac
    crosscheck --shuffle``, the negative control that compares a
    deliberately broken composition table.
    """
    if validate:
        _require_laws(IC)
    objects = [f"x{i}" for i in range(IC.c0.size)]
    arrows = [
        (f"a{j}", f"x{IC.s.table[j]}", f"x{IC.t.table[j]}") for j in range(IC.c1.size)
    ]
    identity = {f"x{i}": f"a{IC.e.table[i]}" for i in range(IC.c0.size)}
    P, p0, p1 = IC.composable_pairs()
    composition = {
        (f"a{p0.table[k]}", f"a{p1.table[k]}"): f"a{IC.c.table[k]}"
        for k in range(P.size)
    }
    return FinCategory.build(objects, arrows, identity, composition)


def _element_blocks(D):
    """Object and arrow sets of the elements category, as ambient
    coproducts and pullbacks of the fibres' tables.

    D₀ = ⊔_A D(A)₀; for each index arrow φ : A → B the block P_φ is the
    pullback of D(φ)₀ : D(B)₀ → D(A)₀ along t_A : D(A)₁ → D(A)₀, its pairs
    (b, f) in lexicographic position order; D₁ = ⊔_φ P_φ.  Returns the
    tabulation (D(A)₀, D(A)₁, s_A, t_A, e_A) per index object, D₀ and its
    injections, (p₀, p₁, D(φ)₀) per index arrow, and D₁ and its injections.
    """
    idx = D.index
    tables = {A: _tabulate(D.cat(A), f"D({A})") for A in idx.objects}
    D0, inj0 = coproduct([tables[A][0] for A in idx.objects])

    blocks = {}
    for phi in idx.arrows:
        A, B = idx.src[phi], idx.tgt[phi]
        image = [D.fun(phi).on_objects[b] for b in D.cat(B).objects]
        position = D.cat(A)._positions().object
        on_obj = _built(tables[B][0], tables[A][0], tuple(position[a] for a in image))
        P, p0, p1 = pullback(on_obj, tables[A][3])
        # counted independently, from the fibre's hom index
        if P.size != sum(len(D.cat(A).into(a)) for a in image):
            raise IntegrityError("pullback blocks disagree with the tag enumeration")
        blocks[phi] = (p0, p1, on_obj)
    D1, inj1 = coproduct([blocks[phi][0].dom for phi in idx.arrows])
    return tables, D0, dict(zip(idx.objects, inj0)), blocks, D1, dict(zip(idx.arrows, inj1))


def internal_elements(D) -> InternalCategory:
    """The elements construction carried out on sets of positions.

    Object and arrow sets come from ``_element_blocks``: the arrow over φ at
    (b, f) is the pair (b, f) of the block P_φ.  The structure maps come
    from the universal properties: s = [p₁ ; s_A ; inj_A]_φ and
    t = [p₀ ; inj_B]_φ off D₁, e = [⟨1, u_A⟩ ; inj_{1_A}]_A with u_A the
    unitor-inverse components, and c by the comparison-cell formula on the
    pairs decoded from the block projections.  An unlawful D is refused
    (``require_lawful``): those formulas give a category only for a
    coherent diagram.
    """
    if D.variance != "contravariant":
        raise DomainError("internal elements are built for contravariant diagrams")
    require_lawful(D)
    idx = D.index
    built = _element_blocks(D)
    tables, D0, inj0, blocks, D1, inj1 = built

    s_legs, t_legs = [], []
    for phi in idx.arrows:
        p0, p1, _ = blocks[phi]
        s_A = tables[idx.src[phi]][2]
        s_legs.append(compose_maps(p1, compose_maps(s_A, inj0[idx.src[phi]])))
        t_legs.append(compose_maps(p0, inj0[idx.tgt[phi]]))
    blocks_in = list(inj1.values())
    s, t = coproduct_mediate(D1, blocks_in, s_legs), coproduct_mediate(D1, blocks_in, t_legs)

    e_legs = []
    for A in idx.objects:
        p0, p1, _ = blocks[idx.identity[A]]
        arrow = D.cat(A)._positions().arrow
        u_A = tuple(arrow[unitor_inverse_component(D, A, a)] for a in D.cat(A).objects)
        unit = pullback_mediate(p0, p1, identity_map(p0.cod), _built(p0.cod, p1.cod, u_A))
        e_legs.append(compose_maps(unit, inj1[idx.identity[A]]))
    e = coproduct_mediate(D0, list(inj0.values()), e_legs)

    # each arrow of D₁ decoded from its block's projections to (φ, b, f),
    # named in D(B) and D(A), and each block's (b, f) -> position table
    decode, at = [], {}
    for phi in idx.arrows:
        p0, p1, _ = blocks[phi]
        b_names, f_names = D.cat(idx.tgt[phi]).objects, D.cat(idx.src[phi]).arrows
        pairs = [(b_names[b], f_names[f]) for b, f in zip(p0.table, p1.table)]
        decode += [(phi, b, f) for b, f in pairs]
        at[phi] = dict(zip(pairs, inj1[phi].table))

    P2, q0, q1 = pullback(t, s)
    inverses: dict = {}  # compositor inverse at (φ, ψ, x), computed once
    c_table = []
    for k in range(P2.size):
        phi, _, f = decode[q0.table[k]]
        psi, x2, g = decode[q1.table[k]]
        key = (phi, psi, x2)
        if key not in inverses:
            inverses[key] = compositor_inverse_component(D, phi, psi, x2)
        h = compose_many(D.cat(idx.src[phi]), f, D.fun(phi).on_arrows[g], inverses[key])
        c_table.append(at[idx.composition[(phi, psi)]][(x2, h)])
    IE = InternalCategory(D0, D1, s, t, e, _built(P2, D1, tuple(c_table)))
    IE.__dict__.update(_pairs=(P2, q0, q1), _blocks=(D, built))
    return IE


def internal_cleavage(D, ID: InternalCategory) -> FinSetMap:
    """The marked-arrows object W = ⊔_φ D(B)₀ and its map into the arrow set,
    w = [⟨1, D(φ)₀ ; e_A⟩ ; inj_φ]_φ: at b, the identity of D(A) at D(φ)b
    read as an arrow of the block P_φ.  The blocks are those ID was built
    from when ID is ``internal_elements(D)``; otherwise that category is
    built again, and ID must have its arrow set, the one part of ID the
    cleavage reads."""
    if D.variance != "contravariant":
        raise DomainError("the cleavage exists for contravariant diagrams only")
    idx = D.index
    IE = ID if ID._blocks and ID._blocks[0] is D else internal_elements(D)
    if IE.c1 != ID.c1:
        raise DomainError("the arrow set is not that of the diagram's elements category")
    tables, _, _, blocks, _, inj1 = IE._blocks[1]
    parts, table = [], []
    for phi in idx.arrows:
        p0, p1, on_obj = blocks[phi]
        e_A = tables[idx.src[phi]][4]
        ident = pullback_mediate(p0, p1, identity_map(p0.cod), compose_maps(on_obj, e_A))
        parts.append(FinSetObject(f"W({phi})", p0.cod.size))
        table += compose_maps(ident, inj1[phi]).table
    W, _ = coproduct(parts)
    if len(set(table)) != len(table):
        raise IntegrityError("cleavage element map is not injective")
    return FinSetMap(W, ID.c1, tuple(table))


@dataclass
class _SpanMachinery:
    pi_v: FinSetMap
    pi_g: FinSetMap
    span_index: tuple  # _pair_index of (pi_v, pi_g)
    w_pos: dict  # w's inverse: a marked arrow -> its element of W
    sb_rows: list
    q: FinSetMap
    s_q: FinSetMap
    t_q: FinSetMap
    r0: FinSetMap
    r1: FinSetMap
    P2: FinSetObject
    pair_class: list  # span pair k of r0.dom -> its pair of classes in P2


def _span_machinery(IC: InternalCategory, w: FinSetMap) -> _SpanMachinery:
    if w.cod != IC.c1:
        raise InputError("marked-arrows map does not land in the arrow set")
    if len(set(w.table)) != len(w.table):
        raise InputError("marked-arrows map is not injective")
    _require_laws(IC)

    ws = compose_maps(w, IC.s)
    spn, pi_v, pi_g = pullback(ws, IC.s)
    span_index = _pair_index(pi_v, pi_g)

    # (h, v) and (h, g) below are composable by the choice of v and g, so
    # each sits at its index position; the spans are found with their
    # coordinates checked, since a lost span must be named
    w_pos = {arrow: k for k, arrow in enumerate(w.table)}
    _, c0, c1 = IC.composable_pairs()
    start, rank = _pair_index(c0, c1)
    marked_out_of, out_of = fibres(ws), fibres(IC.s)
    t, c, wt = IC.t.table, IC.c.table, w.table
    sb_rows = []
    for h in range(IC.c1.size):
        sh = start[h]
        for k in marked_out_of[t[h]]:
            hv = c[sh + rank[wt[k]]]
            if hv not in w_pos:
                continue
            for g in out_of[ws.table[k]]:
                hg = c[sh + rank[g]]
                a0 = _find(pi_v, pi_g, span_index, k, g)
                a1 = _find(pi_v, pi_g, span_index, w_pos[hv], hg)
                if a0 is None or a1 is None:
                    kk, gg = (k, g) if a0 is None else (w_pos[hv], hg)
                    raise IntegrityError(
                        f"span (a{wt[kk]}, a{gg}) is missing from the pullback of w;s along s"
                    )
                sb_rows.append((a0, a1))
    SB = FinSetObject("sb", len(sb_rows))
    p0 = _built(SB, spn, tuple(r[0] for r in sb_rows))
    p1 = _built(SB, spn, tuple(r[1] for r in sb_rows))
    if not has_common_section(p0, p1):
        raise IntegrityError("span-relation pair lost its identity section")
    _, q = coequalize_reflexive(p0, p1)

    s_spn = compose_maps(pi_v, compose_maps(w, IC.t))
    t_spn = compose_maps(pi_g, IC.t)
    s_q = coequalizer_mediate(q, s_spn)
    t_q = coequalizer_mediate(q, t_spn)
    _, r0, r1 = pullback(t_spn, s_spn)
    # the classes of a composable span pair are composable, as s_q and t_q
    # factor the span endpoints
    P2, c0m, c1m = pullback(t_q, s_q)
    start, rank = _pair_index(c0m, c1m)
    return _SpanMachinery(
        pi_v=pi_v,
        pi_g=pi_g,
        span_index=span_index,
        w_pos=w_pos,
        sb_rows=sb_rows,
        q=q,
        s_q=s_q,
        t_q=t_q,
        r0=r0,
        r1=r1,
        P2=P2,
        pair_class=[start[q.table[a]] + rank[q.table[b]] for a, b in zip(r0.table, r1.table)],
    )


def _machinery(IC: InternalCategory, w: FinSetMap) -> _SpanMachinery:
    """The span machinery of (IC, w), kept on IC with its w: one crosscheck
    localizes and compares pairs at the same cleavage."""
    if IC._spans is None or IC._spans[0] is not w:
        IC.__dict__["_spans"] = (w, _span_machinery(IC, w))
    return IC._spans[1]


def internal_localize(IC: InternalCategory, w: FinSetMap) -> InternalCategory:
    """Localization computed with the ambient operations.

    Spans and sailboats arise as pullbacks, the quotient as a reflexive
    coequalizer, endpoints via the coequalizer's universal property, and
    composition from the global first-in-order filler choice (so the cover
    of composable pairs is realized by an identity) factored through the
    pair quotient.  A span pair with no head, or whose composite is not a
    span, raises IntegrityError: the axioms give every pair a head, and a
    head composed with g2 is a span.
    """
    M = _machinery(IC, w)
    ext = externalize(IC)
    inp = FractionsInput(category=ext, weq=tuple(ext.arrows[i] for i in w.table))
    axioms = check_axioms(inp)
    if not axioms.ok:
        raise AxiomError("marked arrows fail the fractions axioms:\n" + str(axioms), report=axioms)
    # the section at x: the first marked arrow into x, in W order
    alpha = []
    for into_x in fibres(compose_maps(w, IC.t)):
        if not into_x:
            raise IntegrityError("axioms passed but an object has no marked arrow into it")
        alpha.append(into_x[0])
    # (k, w(k)) is a span: both legs start at s(w(k))
    start, rank = M.span_index
    e_table = tuple(M.q.table[start[k] + rank[w.table[k]]] for k in alpha)
    e_q = _built(IC.c0, M.q.cod, e_table)

    # an arrow's position in ext is its element of IC.c1, so the span pair
    # (a, b) composes the first head (h, m) of (v1, g1, v2), read from the
    # axiom verdict, with g2 by one read of the flat table, and finds the
    # composite (h, m;g2) by index (-1 is no element of W, so an unmarked h
    # finds nothing)
    n, flat = IC.c1.size, ext._positions().flat
    wt, v_of, g_of = w.table, M.pi_v.table, M.pi_g.table

    def pair(a: int, b: int) -> str:
        return f"((a{wt[v_of[a]]}, a{g_of[a]}), (a{wt[v_of[b]]}, a{g_of[b]}))"

    sp_values, first_head = [], _first_heads(inp)
    for a, b in zip(M.r0.table, M.r1.table):
        head = first_head(wt[v_of[a]], g_of[a], wt[v_of[b]])
        if head is None:
            raise IntegrityError(f"axioms passed but span pair {pair(a, b)} has no head")
        h, m = head
        c = flat[m * n + g_of[b]]
        k = _find(M.pi_v, M.pi_g, M.span_index, M.w_pos.get(h, -1), c)
        if k is None:
            raise IntegrityError(f"span pair {pair(a, b)} composes to (a{h}, a{c}), not a span")
        sp_values.append(M.q.table[k])

    c_table, splits = _factor(M.pair_class, sp_values, M.P2.size)
    if splits:
        raise IntegrityError("composite classes differ across representatives of a pair class")
    if None in c_table:
        raise IntegrityError("a composable pair of classes has no span representative")
    c_q = _built(M.P2, M.q.cod, tuple(c_table))
    return InternalCategory(IC.c0, M.q.cod, M.s_q, M.t_q, e_q, c_q)


def verify_pairs_coequalizer(IC: InternalCategory, w: FinSetMap):
    """Composable pairs of classes, made two ways, must agree.

    The pullback of the quotient endpoints is compared with the reflexive
    coequalizer of the coordinatewise sailboat moves on composable span
    pairs, by an explicit bijection.  A fact about the ambient: it needs a
    lawful category and an injective w, not the fractions axioms, since the
    identity sailboat of each span makes the span relation reflexive.
    """
    M = _machinery(IC, w)
    report = VerifierReport(title="composable pairs: pullback vs coequalizer")
    r0, r1 = M.r0.table, M.r1.table
    start, rank = _pair_index(M.r0, M.r1)

    # each span pair k with a0 as its first (second) span moves to the pair
    # with a1 in that place; the fibres of r0 and r1 list those k.  A
    # sailboat keeps a span's endpoints (s_q and t_q factor them), so the
    # moved pair is composable and sits at its index position
    as_first, as_second = fibres(M.r0), fibres(M.r1)
    rows = []
    for a0, a1 in M.sb_rows:
        rows += [(k, start[a1] + rank[r1[k]]) for k in as_first[a0]]
        rows += [(k, start[r0[k]] + rank[a1]) for k in as_second[a0]]
    R = FinSetObject("sb2", len(rows))
    m0 = _built(R, M.r0.dom, tuple(r[0] for r in rows))
    m1 = _built(R, M.r0.dom, tuple(r[1] for r in rows))
    if not has_common_section(m0, m1):
        report.add("coordinatewise move pair has no identity section")
        return report
    QP, qp = coequalize_reflexive(m0, m1)
    report.stats["pair classes"] = QP.size
    report.stats["class pairs"] = M.P2.size

    comparison, splits = _factor(qp.table, M.pair_class, QP.size)
    for k in splits:
        report.add(f"pair class {qp.table[k]} maps to two different class pairs")
    if None in comparison:
        report.add("a pair class has no representative")
    elif len(set(comparison)) != len(comparison):
        report.add("comparison map is not injective")
    elif set(comparison) != set(range(M.P2.size)):
        report.add("comparison map is not surjective")
    return report
