"""Finite categories as explicit tables, with validation and enumeration.

Everything downstream (element categories, localizations, internalizations)
bottoms out in the types here. Composition is diagrammatic throughout:
``compose(C, f, g)`` is "f followed by g".

All enumeration operations are deterministic. The canonical order is always
declaration order: objects and arrows enumerate in the order they were given,
and searches return the first hit in lexicographic order over those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .errors import DomainError, InputError


@dataclass
class ValidationReport:
    """A list of law violations; empty means valid."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(self.problems)


class _Positions:
    """A category's objects and arrows as positions in declaration order.

    ``object`` and ``arrow`` map each name to its position; ``src`` and
    ``tgt`` give each arrow's endpoints as object positions, and
    ``identity`` each object's identity as an arrow position; ``flat[f*N +
    g]`` (N arrows) is the position of the composite of f and g, or None
    when they are not composable; ``outs`` and ``ins`` list, per object, the
    arrows out of and into it, ``out_rank`` gives each arrow's place in the
    out-list of its source, and ``homs[x*M + y]`` (M objects) lists the
    arrows from x to y.  Every list is in declaration order.  ``misplaced``
    says whether some composite of (f, g) lies outside hom(s(f), t(g)),
    compared on positions in the pass that fills ``flat``;
    ``misplaced_composites`` names each one.  It is derived from the names
    and read only.  A category with a structural defect is refused when it
    is made, so the view decides no structure itself: a misplaced composite
    is a law violation, not a structural defect, and the flag sees one
    written into a built table's values.
    """

    __slots__ = (
        "object", "arrow", "src", "tgt", "identity", "flat", "outs", "ins", "out_rank", "homs",
        "misplaced",
    )

    def __init__(self, C: "FinCategory") -> None:
        # C's structure was decided when C was made, so every lookup here
        # finds its name
        obj = {x: i for i, x in enumerate(C.objects)}
        arr = {f: i for i, f in enumerate(C.arrows)}
        n = len(C.arrows)
        src = [obj[C.src[f]] for f in C.arrows]
        tgt = [obj[C.tgt[f]] for f in C.arrows]
        flat = [None] * (n * n)
        self.misplaced = False
        for (f, g), h in C.composition.items():
            f, g, h = arr[f], arr[g], arr[h]
            flat[f * n + g] = h
            if src[h] != src[f] or tgt[h] != tgt[g]:
                self.misplaced = True
        self.identity = [arr[C.identity[x]] for x in C.objects]
        # one pass in declaration order lists each object's arrows as
        # out_of and into do
        m = len(C.objects)
        outs = [[] for _ in C.objects]
        ins = [[] for _ in C.objects]
        rank, homs = [], {}
        for f, (s, t) in enumerate(zip(src, tgt)):
            rank.append(len(outs[s]))
            outs[s].append(f)
            ins[t].append(f)
            homs.setdefault(s * m + t, []).append(f)
        self.object, self.arrow, self.flat, self.src, self.tgt = obj, arr, flat, src, tgt
        self.outs = tuple(map(tuple, outs))
        self.ins = tuple(map(tuple, ins))
        self.out_rank = rank
        # most object pairs have no arrow, and share one empty tuple
        self.homs = [()] * (m * m)
        for st, fs in homs.items():
            self.homs[st] = tuple(fs)


@dataclass(eq=True)
class FinCategory:
    """A finite category as tables over names.

    Construction refuses a structural defect (a partial table, a dangling
    endpoint, a missing identity, ...) with InputError, whether the category
    comes from ``build`` or from the raw constructor; law violations are
    left for ``validate_category`` to report.  A category is not changed
    after it is built: the hom index (``hom``, ``out_of``, ``into``) is
    taken at construction and the positional view (``_positions``) on first
    use, so neither would see a later edit; ``validate_category`` decides
    structure again on each call.  They stay out of the fields, so
    ``__eq__`` and ``repr`` ignore them.
    """

    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    # (f, g) -> f-then-g, total over composable pairs
    composition: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        # Fibres of (src, tgt) in declaration order, set during __init__
        # because an attribute added later slows every attribute read on the
        # instance. A missing endpoint is keyed None; _check_structure says so.
        homs, outs, ins = {}, {}, {}
        self._view = None
        try:
            for f in self.arrows:
                s, t = self.src.get(f), self.tgt.get(f)
                homs.setdefault((s, t), []).append(f)
                outs.setdefault(s, []).append(f)
                ins.setdefault(t, []).append(f)
            self._homs = {key: tuple(fs) for key, fs in homs.items()}
            self._outs = {x: tuple(fs) for x, fs in outs.items()}
            self._ins = {y: tuple(fs) for y, fs in ins.items()}
            self._check_structure()
        except TypeError:
            # a name that cannot be hashed fails the first read of it
            _refuse_unhashable_names(self.objects, self.arrows, self.src, self.tgt,
                                     self.identity, self.composition)
            raise

    @classmethod
    def build(
        cls,
        objects: Iterable[str],
        arrows: Iterable[tuple[str, str, str]],
        identity: dict[str, str],
        composition: dict[tuple[str, str], str],
    ) -> "FinCategory":
        """Assemble and structurally check a category table.

        ``arrows`` is a sequence of (name, src, tgt). Missing composites with
        an identity factor are filled in; law violations (wrong values) are
        left for validate_category to report.
        """
        arrs = []
        src: dict[str, str] = {}
        tgt: dict[str, str] = {}
        outs: dict[str, list[str]] = {}
        comp = dict(composition)
        try:
            for name, s, t in arrows:
                arrs.append(name)
                src[name] = s
                tgt[name] = t
                outs.setdefault(s, []).append(name)
            # the fill appends only well-formed entries, so the constructor's
            # one check after it suffices; a composable pair (f, g) has an
            # identity factor only when f or g is i = identity[t(f)], so one
            # pass over the arrows fills them in the order of the composable
            # pairs
            for f in arrs:
                i = identity.get(tgt[f])
                if f == i:
                    for g in outs.get(tgt[f], ()):
                        if (f, g) not in comp:
                            comp[(f, g)] = g
                elif i in src and src[i] == tgt[f] and (f, i) not in comp:
                    comp[(f, i)] = f
        except TypeError:
            # a name that cannot be hashed fails the first read of it
            _refuse_unhashable_names((), arrs, src, tgt, identity, {})
            raise
        return cls(tuple(objects), tuple(arrs), src, tgt, dict(identity), comp)

    # -- structure ---------------------------------------------------------

    def _check_structure(self) -> None:
        objset, arrset = set(self.objects), set(self.arrows)
        if len(objset) != len(self.objects):
            raise InputError("duplicate object names")
        if len(arrset) != len(self.arrows):
            raise InputError("duplicate arrow names")
        for f in self.arrows:
            if self.src.get(f) not in objset or self.tgt.get(f) not in objset:
                raise InputError(f"arrow {f!r} has a dangling endpoint")
        for x in self.objects:
            if x not in self.identity:
                raise InputError(f"no identity declared for object {x!r}")
            if self.identity[x] not in arrset:
                raise InputError(f"identity of {x!r} is not a declared arrow")
        for key, h in self.composition.items():
            # refused before it is unpacked: the string "fg" unpacks as a pair
            if not (isinstance(key, tuple) and len(key) == 2):
                raise InputError(f"composition key {key!r} is not a pair of arrows")
            f, g = key
            if f not in arrset or g not in arrset or h not in arrset:
                raise InputError(f"composition entry ({f!r},{g!r})={h!r} references unknown arrows")
            if self.tgt[f] != self.src[g]:
                raise InputError(f"composition entry for non-composable pair ({f!r},{g!r})")
        # each key is now a distinct composable pair of known arrows, so the
        # table is total exactly when it has as many entries as there are
        # composable pairs.  Only a shortfall is scanned, to name the
        # missing pair
        comp = self.composition
        if len(comp) != sum(len(self.into(x)) * len(self.out_of(x)) for x in self.objects):
            for f, g in self.composable_pairs():
                if (f, g) not in comp:
                    raise InputError(f"composition table is partial: missing ({f!r},{g!r})")
        # checked last: a table with another defect as well is named by that one
        for x in self.identity:
            if x not in objset:
                raise InputError(f"identity declared for unknown object {x!r}")

    # -- small conveniences --------------------------------------------------

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        """Arrows x -> y, in declaration order."""
        return self._homs.get((x, y), ())

    def out_of(self, x: str) -> tuple[str, ...]:
        """Arrows with source x, in declaration order."""
        return self._outs.get(x, ())

    def into(self, y: str) -> tuple[str, ...]:
        """Arrows with target y, in declaration order."""
        return self._ins.get(y, ())

    def _positions(self) -> _Positions:
        """The positional view, built on the first call and kept."""
        view = self._view
        if view is None:
            view = self._view = _Positions(self)
        return view

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        for f in self.arrows:
            for g in self.out_of(self.tgt[f]):
                yield (f, g)

    def is_identity(self, f: str) -> bool:
        return self.identity.get(self.src[f]) == f


@dataclass(eq=True)
class Functor:
    dom: FinCategory
    cod: FinCategory
    on_objects: dict[str, str]
    on_arrows: dict[str, str]


@dataclass(eq=True)
class NatTrans:
    src: Functor
    tgt: Functor
    components: dict[str, str]  # object of dom -> arrow of cod


@dataclass(eq=True)
class IsoWitness:
    forward: Functor
    backward: Functor


def _category(C: FinCategory) -> FinCategory:
    """C, refusing with InputError a value that is not a FinCategory."""
    if not isinstance(C, FinCategory):
        raise InputError(f"a category is a FinCategory, got {C!r}")
    return C


def _refuse_unhashable_names(objects, arrows, src: dict, tgt: dict, identity: dict,
                             composition: dict) -> None:
    """Raise InputError naming the first name in a category's tables that
    cannot be hashed, so names nothing; do nothing if there is none."""
    for kind, values in (
        ("object", objects), ("arrow", arrows), ("endpoint", [*src.values(), *tgt.values()]),
        ("identity", identity.values()), ("composite", composition.values()),
    ):
        for x in values:
            try:
                hash(x)
            except TypeError:
                raise InputError(f"{kind} {x!r} cannot be hashed") from None


def functor_key(F: Functor) -> tuple:
    """A hashable key of F's object and arrow maps.  Equal functors have
    equal keys; functors with equal keys are equal when their domains and
    codomains are."""
    return (frozenset(F.on_objects.items()), frozenset(F.on_arrows.items()))


def misplaced_composites(C: FinCategory) -> Iterator[str]:
    """One message per composite of (f, g) that lies outside hom(s(f), t(g))."""
    for (f, g), h in C.composition.items():
        if C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g]:
            yield (
                f"composite ({f!r},{g!r})={h!r} lands in hom({C.src[h]!r},{C.tgt[h]!r}), "
                f"expected hom({C.src[f]!r},{C.tgt[g]!r})"
            )


def validate_category(C: FinCategory) -> ValidationReport:
    """Report every violated category law.  Structure is decided afresh on
    each call, so a table edited after it was made is seen: a structural
    defect, or a value that is not a FinCategory, raises InputError."""
    _category(C)._check_structure()
    report = ValidationReport()
    for x in C.objects:
        i = C.identity[x]
        if C.src[i] != x or C.tgt[i] != x:
            report.add(f"identity of {x!r} is {i!r}: {C.src[i]!r} -> {C.tgt[i]!r}, not an endomorphism of {x!r}")
    report.problems.extend(misplaced_composites(C))
    for f in C.arrows:
        li = C.identity[C.src[f]]
        ri = C.identity[C.tgt[f]]
        got = C.composition.get((li, f))
        if got is not None and got != f:
            report.add(f"left identity law fails at ({li!r},{f!r}): got {got!r}")
        got = C.composition.get((f, ri))
        if got is not None and got != f:
            report.add(f"right identity law fails at ({f!r},{ri!r}): got {got!r}")
    for f, g in C.composable_pairs():
        fg = C.composition[(f, g)]
        for h in C.out_of(C.tgt[g]):
            gh = C.composition[(g, h)]
            left = C.composition.get((fg, h))
            right = C.composition.get((f, gh))
            if left != right or left is None:
                report.add(f"associativity fails at ({f!r},{g!r},{h!r}): ({f}{g}){h}={left!r}, {f}({g}{h})={right!r}")
    return report


def compose(C: FinCategory, f: str, g: str) -> str:
    try:
        t, s = _category(C).tgt[f], C.src[g]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise InputError(f"unknown arrow in compose: {f!r}, {g!r}") from None
    if t != s:
        raise DomainError(f"non-composable pair ({f!r},{g!r}): tgt {t!r} != src {s!r}")
    return C.composition[(f, g)]


def compose_many(C: FinCategory, *fs: str) -> str:
    """Fold compose over a nonempty chain, left to right."""
    if not fs:
        raise InputError("compose_many needs a nonempty chain of arrows")
    out = fs[0]
    try:
        _category(C).src[out]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise InputError(f"unknown arrow in compose_many: {out!r}") from None
    for f in fs[1:]:
        out = compose(C, out, f)
    return out


def identity_functor(C: FinCategory) -> Functor:
    _category(C)
    return Functor(C, C, {x: x for x in C.objects}, {f: f for f in C.arrows})


def compose_functors(F: Functor, G: Functor) -> Functor:
    """F followed by G."""
    if F.cod != G.dom:
        raise DomainError("functors not composable: codomain/domain mismatch")
    return Functor(
        F.dom,
        G.cod,
        {x: G.on_objects[F.on_objects[x]] for x in F.dom.objects},
        {f: G.on_arrows[F.on_arrows[f]] for f in F.dom.arrows},
    )


def identity_nat_trans(F: Functor) -> NatTrans:
    return NatTrans(F, F, {x: F.cod.identity[F.on_objects[x]] for x in F.dom.objects})


def vertical_compose(a: NatTrans, b: NatTrans) -> NatTrans:
    """a : F => G followed by b : G => H."""
    if a.tgt != b.src:
        raise DomainError("natural transformations not composable")
    X = a.src.cod
    return NatTrans(
        a.src,
        b.tgt,
        {x: compose(X, a.components[x], b.components[x]) for x in a.src.dom.objects},
    )


def check_functor_maps(F: Functor) -> None:
    """Raise InputError unless F's maps are total and land in its codomain."""
    dom, cod = F.dom, F.cod
    for x in dom.objects:
        if x not in F.on_objects:
            raise InputError(f"functor object mapping not total: missing {x!r}")
        if F.on_objects[x] not in cod.objects:
            raise InputError(f"functor maps {x!r} to unknown object {F.on_objects[x]!r}")
    for f in dom.arrows:
        if f not in F.on_arrows:
            raise InputError(f"functor arrow mapping not total: missing {f!r}")
        if F.on_arrows[f] not in cod.src:
            raise InputError(f"functor maps {f!r} to unknown arrow {F.on_arrows[f]!r}")


def validate_functor(F: Functor) -> ValidationReport:
    check_functor_maps(F)
    dom, cod = F.dom, F.cod
    Fo, Fa = F.on_objects, F.on_arrows
    report = ValidationReport()
    for f in dom.arrows:
        ff = Fa[f]
        if cod.src[ff] != Fo[dom.src[f]] or cod.tgt[ff] != Fo[dom.tgt[f]]:
            report.add(f"functor breaks endpoints at {f!r}: image {ff!r}")
    for x in dom.objects:
        if Fa[dom.identity[x]] != cod.identity[Fo[x]]:
            report.add(f"functor breaks identity at {x!r}")
    for (f, g), h in dom.composition.items():
        ff, gg = Fa[f], Fa[g]
        if cod.tgt[ff] != cod.src[gg]:
            continue  # endpoint problem already reported
        if cod.composition[(ff, gg)] != Fa[h]:
            report.add(f"functor breaks composition at ({f!r},{g!r})")
    return report


def check_components(eta: NatTrans) -> None:
    """Raise unless eta's functors are parallel and it has a component at
    every object, each an arrow of the codomain."""
    F, G = eta.src, eta.tgt
    if F.dom != G.dom or F.cod != G.cod:
        raise DomainError("natural transformation between non-parallel functors")
    for x in F.dom.objects:
        if x not in eta.components:
            raise InputError(f"missing component at {x!r}")
        if eta.components[x] not in F.cod.src:
            raise InputError(f"component at {x!r} is not an arrow of the codomain")


def validate_nat_trans(eta: NatTrans) -> ValidationReport:
    check_components(eta)
    F, G = eta.src, eta.tgt
    X = F.cod
    report = ValidationReport()
    for x in F.dom.objects:
        c = eta.components[x]
        if X.src[c] != F.on_objects[x] or X.tgt[c] != G.on_objects[x]:
            report.add(
                f"component at {x!r} is {c!r}: {X.src[c]!r} -> {X.tgt[c]!r}, "
                f"expected {F.on_objects[x]!r} -> {G.on_objects[x]!r}"
            )
    for f in F.dom.arrows:
        x, y = F.dom.src[f], F.dom.tgt[f]
        cx, cy = eta.components[x], eta.components[y]
        Ff, Gf = F.on_arrows[f], G.on_arrows[f]
        if X.tgt[Ff] != X.src[cy] or X.tgt[cx] != X.src[Gf]:
            continue  # component typing already reported
        if compose(X, Ff, cy) != compose(X, cx, Gf):
            report.add(f"naturality square fails at {f!r}")
    return report


def backtrack(
    n: int,
    domain: Callable[[int, list], Iterable],
    accept: Callable[[int, list], bool],
) -> Iterator[list]:
    """Every assignment of ``n`` slots that ``accept`` passes, in lexicographic order.

    Slot ``i`` draws its values from ``domain(i, vals)``, where ``vals[:i]``
    holds the slots already assigned. ``accept(i, vals)`` sees slot ``i``
    filled and checks only the constraints whose highest slot is ``i``. An
    explicit stack replaces recursion, so no depth limit applies. The
    yielded list is reused: copy what you keep.

    Its one library caller is ``diagram.enumerate_transformations``, whose
    slot domains depend on earlier slots (a two-cell's candidates follow its
    components). ``_functor_search``, ``nat_trans_search`` and
    ``diagram.modification_search`` write the same loop out inline: the
    functor search on positions, the two 2-cell searches on names, since a
    pair there costs little more than its fixed set-up.
    """
    vals: list = [None] * n
    if n == 0:
        yield vals
        return
    stack = [iter(domain(0, vals))]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            vals[i] = v
            if accept(i, vals):
                break
        else:
            stack.pop()
            continue
        if i + 1 == n:
            yield vals
        else:
            stack.append(iter(domain(i + 1, vals)))


def partition(size: int, moves: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of 0..size-1 under the equivalence the pairs in ``moves``
    generate: members ascending, classes by least member. The closure is a
    function of the relation and the grouping pass runs in ascending index,
    so the order of ``moves`` changes nothing."""
    # Union-find with path halving, find inlined. A root is the least
    # member of its tree and parent[i] <= i throughout, so the ascending
    # pass meets parent[i] with its root already in place.
    parent = list(range(size))
    for i, j in moves:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    classes: dict[int, list[int]] = {}
    for i in range(size):
        parent[i] = root = parent[parent[i]]
        if root == i:
            classes[i] = [i]
        else:
            classes[root].append(i)
    return list(classes.values())


def _functor_search(C: FinCategory, X: FinCategory, bijective: bool) -> Iterator[Functor]:
    """Functors C -> X in canonical order; with ``bijective``, isomorphisms only.

    Slots: object images, then arrow images, identities first (forced by
    their object's image) and the rest from the matching hom-set of X. An
    object slot compares hom-set sizes with the objects up to it: a
    nonempty one must stay nonempty, or for a bijection keep its size, and a
    bijection takes no value twice. Every composition entry of C (every
    composable pair, identity factors included) is checked at the highest
    slot it reads. An arrow that is the composite of two arrows at earlier
    slots can only take their composite, so its slot draws that one arrow of
    its hom-set, or none: the entry that says so is read to pick it.

    It runs on the positional views of C and X (``FinCategory._positions``),
    of tables whose structure was decided when they were made. A slot holds
    a position of X and an entry is one read of X's flat table; an accepted
    slot keeps its image's name too, so a functor it yields zips two lists.
    The slot loop is written out with an explicit stack, as in
    ``nat_trans_search``, with no call per candidate. It accepts the same
    candidates in the same order as a ``backtrack`` search over these slots,
    so the functors come in canonical order, each with its arrow map in slot
    order.
    """
    PC, PX = _category(C)._positions(), _category(X)._positions()
    n, mx, nc, nx = len(C.objects), len(X.objects), len(C.arrows), len(X.arrows)
    hc, hx, flat, ident = PC.homs, PX.homs, PX.flat, PX.identity
    order = PC.identity + [f for f, s in enumerate(PC.src) if PC.identity[s] != f]
    slot = [0] * nc
    for k, f in enumerate(order, n):
        slot[f] = k
    last = n + len(order) - 1
    # per object slot i, each object slot j <= i with the sizes of the
    # hom-sets from j to i and from i to j; a search for any functor needs
    # only the pairs with one nonempty
    sizes = [
        [(j, len(hc[j * n + i]), len(hc[i * n + j])) for j in range(i + 1)
         if bijective or hc[j * n + i] or hc[i * n + j]]
        for i in range(n)
    ]
    checks: list[list] = [[] for _ in range(last + 1)]
    fc = PC.flat
    for f, t in enumerate(PC.tgt):
        sf, row = slot[f], f * nc
        for g in PC.outs[t]:
            sg, sh = slot[g], slot[fc[row + g]]
            checks[max(sf, sg, sh)].append((sf, sg, sh))
    # per arrow slot i + 1 past the identities: the object slots of its
    # endpoints and, for a composite, the two earlier slots of its factors
    # (-1 when none), whose entry picks its image and needs no check
    after = [None] * last
    for i in range(2 * n, last + 1):
        f = g = -1
        for k, (a, b, h) in enumerate(checks[i]):
            if h == i and a < i and b < i:
                f, g = a, b
                del checks[i][k]
                break
        after[i - 1] = (PC.src[order[i - n]], PC.tgt[order[i - n]], f, g)
    onames, anames = C.objects, [C.arrows[f] for f in order]
    xo, xa = X.objects, X.arrows

    def functor() -> Functor:
        return Functor(
            C, X, dict(zip(onames, names)), dict(zip(anames, names[n:])),
        )

    vals = [0] * (last + 1)
    names = [None] * (last + 1)
    if last < 0:  # C is empty
        yield functor()
        return
    # a bijection takes no arrow twice: held[v] is the last slot that took
    # v, so v is taken at slot i when that slot is before i and holds v still
    held = [last + 1] * nx
    base = 2 * n - 1
    # the object slots; at each whole object map the forced identity slots;
    # then the other arrow slots on a stack of their own
    stack = [iter(range(mx))]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            if bijective and v in vals[:i]:
                continue
            vals[i] = v
            for j, into, out in sizes[i]:
                a, b = hx[vals[j] * mx + v], hx[v * mx + vals[j]]
                if (len(a) != into or len(b) != out) if bijective else (
                        into and not a or out and not b):
                    break
            else:
                break
        else:
            stack.pop()
            continue
        names[i] = xo[v]
        if i + 1 < n:
            stack.append(iter(range(mx)))
            continue
        for i in range(n, 2 * n):
            v = vals[i] = ident[vals[i - n]]
            if bijective:
                k = held[v]
                if k < i and vals[k] == v:
                    break
                held[v] = i
            for f, g, h in checks[i]:
                if flat[vals[f] * nx + vals[g]] != vals[h]:
                    break
            else:
                names[i] = xa[v]
                continue
            break
        else:
            if last == base:
                yield functor()
                continue
            arrows: list = []
            i = base
            while True:
                # push the candidates of slot i + 1
                s, t, f, g = after[i]
                here = hx[vals[s] * mx + vals[t]]
                if f >= 0:
                    v = flat[vals[f] * nx + vals[g]]
                    here = (v,) if v in here else ()
                arrows.append(iter(here))
                # then take the next candidate that passes, backing up as
                # far as needed
                while arrows:
                    i = len(arrows) + base
                    here = checks[i]
                    for v in arrows[-1]:
                        if bijective:
                            k = held[v]
                            if k < i and vals[k] == v:
                                continue
                            held[v] = i
                        vals[i] = v
                        for f, g, h in here:
                            if flat[vals[f] * nx + vals[g]] != vals[h]:
                                break
                        else:
                            break
                    else:
                        arrows.pop()
                        continue
                    names[i] = xa[v]
                    if i < last:
                        break
                    yield functor()
                else:
                    break


def enumerate_functors(C: FinCategory, X: FinCategory) -> list[Functor]:
    """Every functor C -> X exactly once, in canonical lexicographic order.

    Searches object images first, then images of non-identity arrows
    constrained to the matching hom-set of X; identities are forced.  The
    search reads the positional views of C and X.  A category with a
    structural defect (a partial table, say) was refused when it was made,
    and a value that is not a FinCategory is refused with an InputError.
    """
    return list(_functor_search(C, X, bijective=False))


def _slot_generators(C: FinCategory) -> list[list[str]]:
    """Per object slot i (C's i-th object), the arrows closing there (the
    later endpoint is at slot i) that a search checks, in declaration order.

    Every arrow closing at slot i is an identity or lies in the closure
    under composition of the arrows kept at slots <= i. So a constraint that
    holds at identities and pastes along composites (a naturality square, a
    modification's compatibility) holds on all of C's full subcategory on
    slots <= i once it holds on the arrows kept there: a search that checks
    only those rejects at the same slot as one that checks every arrow.

    At slot i the kept arrows are, first, each non-identity arrow that is no
    composite of two non-identity arrows of that full subcategory (no
    generating set can leave it out), then, in declaration order, each arrow
    still outside the closure of the arrows kept so far. The closure grows
    from each kept arrow through the hom index: each new arrow is composed
    on both sides with the arrows already reached.
    """
    slot = {x: i for i, x in enumerate(C.objects)}
    closing: list[list[str]] = [[] for _ in C.objects]
    for f in C.arrows:
        if not C.is_identity(f):
            closing[max(slot[C.src[f]], slot[C.tgt[f]])].append(f)
    comp = C.composition
    reached = {C.identity[x] for x in C.objects}

    def close(f: str) -> None:
        reached.add(f)
        todo = [f]
        while todo:
            g = todo.pop()
            new = [comp[(g, h)] for h in C.out_of(C.tgt[g]) if h in reached]
            new += [comp[(h, g)] for h in C.into(C.src[g]) if h in reached]
            for gh in new:
                if gh not in reached:
                    reached.add(gh)
                    todo.append(gh)

    kept: list[list[str]] = []
    for i, here in enumerate(closing):
        keep = {
            f
            for f in here
            if not any(
                comp[(g, h)] == f
                for g in C.out_of(C.src[f])
                if slot[C.tgt[g]] <= i and not C.is_identity(g)
                for h in C.hom(C.tgt[g], C.tgt[f])
                if not C.is_identity(h)
            )
        }
        for f in here:
            if f in keep:
                close(f)
        for f in here:
            if f not in reached:
                keep.add(f)
                close(f)
        kept.append([f for f in here if f in keep])
    return kept


def nat_trans_search(C: FinCategory, X: FinCategory) -> Callable[[Functor, Functor], list[tuple]]:
    """The natural-transformation search between functors C -> X, set up once.

    Returns a function that takes functors F, G : C -> X and lists every
    natural transformation F => G as the tuple of its components in the
    object order of C, in canonical order. Components are searched object by
    object; at each slot the search checks the naturality squares of the
    arrows ``_slot_generators`` keeps there, reading their images under F
    and G. Identity squares hold because F and G keep identities, and the
    square at g.h pastes from those at g and h because they keep
    composites, so the partial assignments accepted at each slot are those
    that checking every arrow at the slot that closes it, the later of its
    endpoints, would accept. F and G must be lawful functors and C and X
    lawful categories: on other input the list can differ from what
    ``validate_nat_trans`` passes (it checks every arrow). The slots and
    the arrows each slot checks depend only on C and are prepared here,
    once, so callers that search many pairs of functors on one domain
    prepare them once. Per pair, the search returns [] before it starts
    when some component hom X(Fx, Gx) is empty, since that slot has no
    candidate. The returned function does not check that F and G are
    parallel functors C -> X: ``enumerate_nat_trans`` does.

    The slot loop is written out in the returned function, with the squares
    checked inline, so a pair costs no generator, closure or call per
    candidate: most pairs the verifiers search hold no transformation or
    one, so the fixed cost of a pair is most of its cost. It visits the
    candidates in ``backtrack``'s order and reads the squares in the same
    order, so a missing image or an ill-typed square raises where a
    ``backtrack`` search would.
    """
    _category(C), _category(X)
    objs = C.objects
    slot = {x: i for i, x in enumerate(objs)}
    closing = [
        [(slot[C.src[f]], slot[C.tgt[f]], f) for f in kept] for kept in _slot_generators(C)
    ]
    last = len(objs) - 1
    comp = X.composition
    xhom = X._homs.get

    def search(F: Functor, G: Functor) -> list[tuple]:
        Fo, Go, Fa, Ga = F.on_objects, G.on_objects, F.on_arrows, G.on_arrows
        homs = [xhom((Fo[x], Go[x]), ()) for x in objs]
        if not all(homs):
            return []
        if not homs:
            return [()]
        vals = [None] * len(homs)
        found = []
        stack = [iter(homs[0])]
        try:
            while stack:
                i = len(stack) - 1
                for vals[i] in stack[i]:
                    for s, t, f in closing[i]:
                        if comp[(Fa[f], vals[t])] != comp[(vals[s], Ga[f])]:
                            break
                    else:
                        break  # every square at slot i holds
                else:
                    stack.pop()
                    continue
                if i == last:
                    found.append(tuple(vals))
                else:
                    stack.append(iter(homs[i + 1]))
        except KeyError as exc:
            key = exc.args[0]
            if isinstance(key, tuple):  # an arrow image with the wrong endpoints
                raise DomainError(f"naturality square has a non-composable pair {key!r}") from None
            which = "first" if key not in Fa else "second"
            raise DomainError(f"the {which} functor has no image of arrow {key!r}") from None
        return found

    return search


def enumerate_nat_trans(F: Functor, G: Functor) -> list[NatTrans]:
    """All natural transformations F => G in canonical component order:
    ``nat_trans_search`` on F's domain and codomain, once. F and G must be
    lawful functors: the search checks naturality only on the arrows the
    functor laws leave open, and ``validate_nat_trans`` checks every arrow."""
    if F.dom != G.dom or F.cod != G.cod:
        raise DomainError("cannot enumerate transformations between non-parallel functors")
    objs = F.dom.objects
    return [
        NatTrans(F, G, dict(zip(objs, cell))) for cell in nat_trans_search(F.dom, F.cod)(F, G)
    ]


@dataclass
class ShapeReport:
    direction: str
    ok: bool
    pair_witnesses: dict[tuple[str, str], tuple[str, str, str]]
    parallel_witnesses: dict[tuple[str, str], str]
    failure: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.direction}: {'pass' if self.ok else 'FAIL: ' + str(self.failure)}"


def check_shape(A: FinCategory, direction: str) -> ShapeReport:
    """Decide filteredness or cofilteredness, with witnesses.

    filtered: nonempty, every object pair admits a cocone, every parallel
    pair admits a coequalizing arrow. cofiltered is filtered on the
    opposite category, which keeps every name and declaration order, so
    the witnesses are the same arrows read the other way.  A category with
    a structural defect (a partial table, say) was refused when it was
    made; an A that is not a FinCategory is refused with an InputError.
    """
    _category(A)
    if direction == "filtered":
        cone, equalizing = "cocone", "coequalizing"
    elif direction == "cofiltered":
        A, cone, equalizing = opposite(A), "cone", "equalizing"
    else:
        raise DomainError(f"unknown shape direction {direction!r}")
    pair_w: dict[tuple[str, str], tuple[str, str, str]] = {}
    par_w: dict[tuple[str, str], str] = {}
    if not A.objects:
        return ShapeReport(direction, False, pair_w, par_w, "category is empty")
    for x in A.objects:
        for y in A.objects:
            found = None
            for z in A.objects:
                legs_x, legs_y = A.hom(x, z), A.hom(y, z)
                if legs_x and legs_y:
                    found = (z, legs_x[0], legs_y[0])
                    break
            if found is None:
                return ShapeReport(direction, False, pair_w, par_w, f"objects ({x!r},{y!r}) admit no {cone}")
            pair_w[(x, y)] = found
    for f in A.arrows:
        for g in A.hom(A.src[f], A.tgt[f]):
            if f == g:
                continue
            found_h = next((h for h in A.out_of(A.tgt[f]) if compose(A, f, h) == compose(A, g, h)), None)
            if found_h is None:
                return ShapeReport(direction, False, pair_w, par_w, f"parallel pair ({f!r},{g!r}) has no {equalizing} arrow")
            par_w[(f, g)] = found_h
    return ShapeReport(direction, True, pair_w, par_w)


def opposite(C: FinCategory) -> FinCategory:
    _category(C)
    return FinCategory(
        C.objects,
        C.arrows,
        dict(C.tgt),
        dict(C.src),
        dict(C.identity),
        {(g, f): h for (f, g), h in C.composition.items()},
    )


def find_isomorphism(C: FinCategory, D: FinCategory) -> Optional[IsoWitness]:
    """First isomorphism C ~ D in canonical search order, or None.

    The functor search restricted to bijections: objects first, with
    hom-cardinality pruning, then arrows hom by hom, on the positional
    views of C and D.  A category with a structural defect (a partial
    table, say) was refused when it was made; before the sizes are compared,
    a value that is not a FinCategory is refused with an InputError.
    """
    _category(C), _category(D)
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return None
    fwd = next(_functor_search(C, D, bijective=True), None)
    if fwd is None:
        return None
    inverse = {v: k for k, v in fwd.on_objects.items()}
    return IsoWitness(fwd, Functor(D, C, inverse, {v: k for k, v in fwd.on_arrows.items()}))


def two_sided_inverse(C: FinCategory, f: str) -> Optional[str]:
    """First arrow r with f.r and r.f both identities, in canonical order."""
    try:
        x, y = _category(C).src[f], C.tgt[f]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise InputError(f"unknown arrow in two_sided_inverse: {f!r}") from None
    for r in C.hom(y, x):
        if C.composition[(f, r)] == C.identity[x] and C.composition[(r, f)] == C.identity[y]:
            return r
    return None


def uniquify(names: Iterable[str]) -> list[str]:
    """Make a name sequence unique, appending #2, #3, ... to repeats."""
    seen: dict[str, int] = {}
    out = []
    for n in names:
        if n not in seen:
            seen[n] = 1
            out.append(n)
        else:
            seen[n] += 1
            fresh = f"{n}#{seen[n]}"
            while fresh in seen:
                seen[n] += 1
                fresh = f"{n}#{seen[n]}"
            seen[fresh] = 1
            out.append(fresh)
    return out
