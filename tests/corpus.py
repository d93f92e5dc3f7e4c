"""Shared fixture builders: small categories, marked-arrow inputs, diagrams.

Everything is rebuilt per call so tests can mutate freely.
"""

from __future__ import annotations

from catfrac import (
    FinCategory,
    FractionsInput,
    Functor,
    NatTrans,
    Pseudofunctor,
    derive_unit_compositors,
    identity_functor,
    strictify,
)


def one() -> FinCategory:
    return FinCategory.build(["*"], [("id:*", "*", "*")], {"*": "id:*"}, {})


def two() -> FinCategory:
    return FinCategory.build(
        ["a", "b"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("f", "a", "b")],
        {"a": "id:a", "b": "id:b"},
        {},
    )


def iso() -> FinCategory:
    return FinCategory.build(
        ["a", "b"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("u", "a", "b"), ("v", "b", "a")],
        {"a": "id:a", "b": "id:b"},
        {("u", "v"): "id:a", ("v", "u"): "id:b"},
    )


def iso_renamed() -> FinCategory:
    return FinCategory.build(
        ["p", "q"],
        [("id:p", "p", "p"), ("id:q", "q", "q"), ("fwd", "p", "q"), ("bwd", "q", "p")],
        {"p": "id:p", "q": "id:q"},
        {("fwd", "bwd"): "id:p", ("bwd", "fwd"): "id:q"},
    )


def parallel() -> FinCategory:
    return FinCategory.build(
        ["a", "b"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("s", "a", "b"), ("t", "a", "b")],
        {"a": "id:a", "b": "id:b"},
        {},
    )


def chain3() -> FinCategory:
    return FinCategory.build(
        ["x", "y", "z"],
        [("id:x", "x", "x"), ("id:y", "y", "y"), ("id:z", "z", "z"),
         ("f", "x", "y"), ("g", "y", "z"), ("h", "x", "z")],
        {"x": "id:x", "y": "id:y", "z": "id:z"},
        {("f", "g"): "h"},
    )


def discrete3() -> FinCategory:
    return FinCategory.build(
        ["a", "b", "c"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("id:c", "c", "c")],
        {"a": "id:a", "b": "id:b", "c": "id:c"},
        {},
    )


def span_shape() -> FinCategory:
    return FinCategory.build(
        ["s", "x", "y"],
        [("id:s", "s", "s"), ("id:x", "x", "x"), ("id:y", "y", "y"),
         ("l", "s", "x"), ("r", "s", "y")],
        {"s": "id:s", "x": "id:x", "y": "id:y"},
        {},
    )


def cospan_shape() -> FinCategory:
    return FinCategory.build(
        ["x", "y", "t"],
        [("id:x", "x", "x"), ("id:y", "y", "y"), ("id:t", "t", "t"),
         ("l", "x", "t"), ("r", "y", "t")],
        {"x": "id:x", "y": "id:y", "t": "id:t"},
        {},
    )


def z2() -> FinCategory:
    return FinCategory.build(
        ["*"],
        [("id:*", "*", "*"), ("s", "*", "*")],
        {"*": "id:*"},
        {("s", "s"): "id:*"},
    )


def idem() -> FinCategory:
    return FinCategory.build(
        ["*"],
        [("id:*", "*", "*"), ("e", "*", "*")],
        {"*": "id:*"},
        {("e", "e"): "e"},
    )


def square() -> FinCategory:
    """Commutative square poset 00 < 01, 10 < 11."""
    return FinCategory.build(
        ["00", "01", "10", "11"],
        [("id:00", "00", "00"), ("id:01", "01", "01"),
         ("id:10", "10", "10"), ("id:11", "11", "11"),
         ("n", "00", "01"), ("w", "00", "10"),
         ("e", "01", "11"), ("s", "10", "11"), ("d", "00", "11")],
        {"00": "id:00", "01": "id:01", "10": "id:10", "11": "id:11"},
        {("n", "e"): "d", ("w", "s"): "d"},
    )


def chain(n: int) -> FinCategory:
    """The poset 0 < 1 < ... < n-1."""
    name = "{}<{}".format
    leq = [(i, j) for i in range(n) for j in range(i, n)]
    return FinCategory.build(
        [str(i) for i in range(n)],
        [(name(i, j), str(i), str(j)) for i, j in leq],
        {str(i): name(i, i) for i in range(n)},
        {(name(i, j), name(j, k)): name(i, k) for i, j in leq for j2, k in leq if j == j2},
    )


TWISTED = {
    ("a", "a", 0): "id:a", ("a", "a", 1): "t:a", ("b", "b", 0): "id:b", ("b", "b", 1): "t:b",
    ("a", "b", 0): "u", ("a", "b", 1): "tu", ("b", "a", 0): "v", ("b", "a", 1): "tv",
}


def twisted_iso() -> FinCategory:
    """The walking iso times Z/2: hom(x, y) holds an arrow of each twist 0
    and 1, and composing adds the twists mod 2, so t:x (twist 1 at x) is
    central."""
    return FinCategory.build(
        ["a", "b"],
        [(f, x, y) for (x, y, _), f in TWISTED.items()],
        {"a": "id:a", "b": "id:b"},
        {
            (f, g): TWISTED[(x, z, (k + m) % 2)]
            for (x, y, k), f in TWISTED.items()
            for (y2, z, m), g in TWISTED.items()
            if y == y2
        },
    )


def twisted_functor(T: FinCategory, swap: bool, twist: bool) -> Functor:
    """On the twisted iso: ``swap`` exchanges a and b, ``twist`` adds a
    twist to the arrows between a and b."""
    obj = {"a": "b", "b": "a"} if swap else {"a": "a", "b": "b"}
    return Functor(
        T, T, obj,
        {
            f: TWISTED[(obj[x], obj[y], (k + (twist and x != y)) % 2)]
            for (x, y, k), f in TWISTED.items()
        },
    )


def all_categories() -> list[tuple[str, FinCategory]]:
    return [
        ("terminal", one()),
        ("walking arrow", two()),
        ("walking iso", iso()),
        ("renamed iso", iso_renamed()),
        ("parallel pair", parallel()),
        ("chain", chain3()),
        ("discrete 3", discrete3()),
        ("span", span_shape()),
        ("cospan", cospan_shape()),
        ("Z/2", z2()),
        ("idempotent", idem()),
        ("square poset", square()),
    ]


def test_battery() -> list[tuple[str, FinCategory]]:
    """The X categories acceptance checks quantify over."""
    return [
        ("terminal", one()),
        ("walking arrow", two()),
        ("walking iso", iso()),
        ("parallel pair", parallel()),
        ("chain", chain3()),
    ]


def identities_of(C: FinCategory) -> tuple[str, ...]:
    return tuple(C.identity[x] for x in C.objects)


def fractions_corpus() -> list[tuple[str, FractionsInput]]:
    t = two()
    c = chain3()
    i = iso()
    p = parallel()
    m = z2()
    d = idem()
    q = square()
    return [
        ("arrow/all", FractionsInput(category=t, weq=("id:a", "id:b", "f"))),
        ("arrow/ids", FractionsInput(category=t, weq=identities_of(t))),
        ("chain/f", FractionsInput(category=c, weq=("id:x", "id:y", "id:z", "f"))),
        ("chain/g", FractionsInput(category=c, weq=("id:x", "id:y", "id:z", "g"))),
        ("chain/all", FractionsInput(category=c, weq=tuple(c.arrows))),
        ("iso/u", FractionsInput(category=i, weq=("id:a", "id:b", "u"))),
        ("iso/all", FractionsInput(category=i, weq=tuple(i.arrows))),
        ("parallel/ids", FractionsInput(category=p, weq=identities_of(p))),
        ("Z2/all", FractionsInput(category=m, weq=tuple(m.arrows))),
        ("idem/ids", FractionsInput(category=d, weq=identities_of(d))),
        ("square/n", FractionsInput(category=q, weq=identities_of(q) + ("n",))),
    ]


def failing_fractions() -> list[tuple[str, FractionsInput, int]]:
    """Inputs with a known first failing axiom."""
    t = two()
    zc = FinCategory.build(
        ["a", "b", "c"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("id:c", "c", "c"),
         ("p", "a", "b"), ("q", "a", "b"), ("v", "b", "c"), ("pv", "a", "c")],
        {"a": "id:a", "b": "id:b", "c": "id:c"},
        {("p", "v"): "pv", ("q", "v"): "pv"},
    )
    par = parallel()
    return [
        ("arrow/{f}", FractionsInput(category=t, weq=("f",)), 1),
        ("zipper", FractionsInput(category=zc, weq=("id:a", "id:b", "id:c", "v")), 4),
        ("parallel/all", FractionsInput(category=par, weq=tuple(par.arrows)), 3),
    ]


# -- diagrams ----------------------------------------------------------------


def bang(C: FinCategory, pt: FinCategory) -> Functor:
    return Functor(C, pt, {x: "*" for x in C.objects}, {f: "id:*" for f in C.arrows})


def swap_iso(I: FinCategory) -> Functor:
    return Functor(
        I, I,
        {"a": "b", "b": "a"},
        {"id:a": "id:b", "id:b": "id:a", "u": "v", "v": "u"},
    )


def diag_swap_one() -> Pseudofunctor:
    """Over the point, value category the walking iso, with the identity of
    the index sent to the swap: forces nontrivial unitors and compositors."""
    idx = one()
    I = iso()
    on_arrows = {"id:*": swap_iso(I)}
    unitors = {"*": NatTrans(on_arrows["id:*"], identity_functor(I), {"a": "v", "b": "u"})}
    compositors = derive_unit_compositors(idx, "covariant", on_arrows, unitors, {})
    return Pseudofunctor(idx, "covariant", {"*": I}, on_arrows, unitors, compositors)


def diag_cov_two() -> Pseudofunctor:
    fa, fb = two(), one()
    return strictify(
        two(),
        {"a": fa, "b": fb},
        {"id:a": identity_functor(fa), "id:b": identity_functor(fb), "f": bang(fa, fb)},
    )


def diag_cov_chain() -> Pseudofunctor:
    fx, fy, fz = two(), two(), one()
    return strictify(
        chain3(),
        {"x": fx, "y": fy, "z": fz},
        {
            "id:x": identity_functor(fx),
            "id:y": identity_functor(fy),
            "id:z": identity_functor(fz),
            "f": identity_functor(fx),
            "g": bang(fy, fz),
            "h": bang(fx, fz),
        },
    )


def diag_cov_parallel() -> Pseudofunctor:
    fa, fb = iso(), one()
    return strictify(
        parallel(),
        {"a": fa, "b": fb},
        {
            "id:a": identity_functor(fa),
            "id:b": identity_functor(fb),
            "s": bang(fa, fb),
            "t": bang(fa, fb),
        },
    )


def diag_contra_one() -> Pseudofunctor:
    f = two()
    return strictify(one(), {"*": f}, {"id:*": identity_functor(f)}, variance="contravariant")


def diag_contra_two() -> Pseudofunctor:
    fa, fb = two(), one()
    pick_b = Functor(fb, fa, {"*": "b"}, {"id:*": "id:b"})
    return strictify(
        two(),
        {"a": fa, "b": fb},
        {"id:a": identity_functor(fa), "id:b": identity_functor(fb), "f": pick_b},
        variance="contravariant",
    )


def diag_contra_chain() -> Pseudofunctor:
    fx, fy, fz = two(), two(), one()
    pick = Functor(fz, fy, {"*": "b"}, {"id:*": "id:b"})
    return strictify(
        chain3(),
        {"x": fx, "y": fy, "z": fz},
        {
            "id:x": identity_functor(fx),
            "id:y": identity_functor(fy),
            "id:z": identity_functor(fz),
            "f": identity_functor(fy),
            "g": pick,
            "h": pick,
        },
        variance="contravariant",
    )


def diag_contra_swap() -> Pseudofunctor:
    """Contravariant and nonstrict: the identity of the top index object maps
    to the swap, so unit compositors along it are the nontrivial cells."""
    idx = two()
    I = iso()
    on_arrows = {
        "id:a": identity_functor(I),
        "id:b": swap_iso(I),
        "f": identity_functor(I),
    }
    unitors = {
        "a": NatTrans(on_arrows["id:a"], identity_functor(I), {"a": "id:a", "b": "id:b"}),
        "b": NatTrans(on_arrows["id:b"], identity_functor(I), {"a": "v", "b": "u"}),
    }
    compositors = derive_unit_compositors(idx, "contravariant", on_arrows, unitors, {})
    return Pseudofunctor(
        idx, "contravariant", {"a": I, "b": I}, on_arrows, unitors, compositors
    )


def diag_chain_z2(variance: str) -> Pseudofunctor:
    """Over chain(4), Z/2 at every index object and identity functors
    throughout: strict, so every comparison cell is an identity."""
    idx = chain(4)
    Z = z2()
    return strictify(
        idx,
        {a: Z for a in idx.objects},
        {phi: identity_functor(Z) for phi in idx.arrows},
        variance=variance,
    )


def diag_twisted(variance: str) -> Pseudofunctor:
    """Over the walking arrow, the twisted iso at both ends, each index
    identity sent to the twist and f to the swap; the unitors pick t:b at b,
    so whiskering a cell with the swap from one side or the other gives
    cells that differ by the central twist."""
    idx = two()
    T = twisted_iso()
    twist = twisted_functor(T, swap=False, twist=True)
    on_arrows = {"id:a": twist, "id:b": twist, "f": twisted_functor(T, swap=True, twist=False)}
    unitors = {a: NatTrans(twist, identity_functor(T), {"a": "id:a", "b": "t:b"}) for a in "ab"}
    compositors = derive_unit_compositors(idx, variance, on_arrows, unitors, {})
    return Pseudofunctor(idx, variance, {"a": T, "b": T}, on_arrows, unitors, compositors)


def oplax_diagrams() -> list[tuple[str, Pseudofunctor]]:
    return [
        ("swap over point", diag_swap_one()),
        ("covariant over arrow", diag_cov_two()),
        ("covariant over chain", diag_cov_chain()),
        ("covariant over parallel pair", diag_cov_parallel()),
        ("contravariant over point", diag_contra_one()),
        ("contravariant over arrow", diag_contra_two()),
        ("contravariant nonstrict", diag_contra_swap()),
    ]


def pseudocolimit_diagrams() -> list[tuple[str, Pseudofunctor]]:
    return [
        ("contravariant over point", diag_contra_one()),
        ("contravariant over arrow", diag_contra_two()),
        ("contravariant over chain", diag_contra_chain()),
        ("contravariant nonstrict", diag_contra_swap()),
    ]


def coherence_diagrams() -> list[tuple[str, Pseudofunctor]]:
    """Every diagram above, and the ones that exercise the coherence laws:
    a chain of four, and nontrivial cells whiskered with a functor that is
    not the identity, in both variances."""
    return oplax_diagrams() + [
        ("contravariant over chain", diag_contra_chain()),
        ("covariant Z/2 over chain(4)", diag_chain_z2("covariant")),
        ("contravariant Z/2 over chain(4)", diag_chain_z2("contravariant")),
        ("covariant twisted", diag_twisted("covariant")),
        ("contravariant twisted", diag_twisted("contravariant")),
    ]
