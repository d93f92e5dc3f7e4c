"""Seeded instances for the benchmark.

Every function here takes its size knobs and, where it has any freedom, a
``random.Random``. The same generator state gives the same instance. The
functions only assemble tables through ``FinCategory.build`` and
``strictify``; they never call a construction or a verifier, so set-up cost
stays small and the library sees only finished inputs.

Naming is fixed per family so that the known answers in ``workloads`` can be
stated without library code:

- ``chain(n)``: objects ``"0"`` .. ``"n-1"``, identities ``"id:i"``, one arrow
  ``"i<j"`` for each ``i < j``;
- ``cyclic(n)``: one object ``"*"``, arrows ``"r0"`` (the identity) ..
  ``"r{n-1}"``, composing by addition mod n;
- ``monoid``: one object ``"*"``, arrows ``"e"`` (the identity) and ``"m1"`` ..,
  the closure of random self-maps of ``{0..k-1}``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from catfrac import FinCategory, Functor, NatTrans, Pseudofunctor, strictify


# -- categories ---------------------------------------------------------------


def chain(n: int, rng: random.Random | None = None) -> FinCategory:
    """The poset 0 < 1 < ... < n-1; ``rng`` shuffles the arrow declarations."""
    objects = [str(i) for i in range(n)]
    arrows = [
        (f"id:{i}" if i == j else f"{i}<{j}", str(i), str(j))
        for i in range(n)
        for j in range(i, n)
    ]
    if rng is not None:
        rng.shuffle(arrows)
    composition = {
        (f"{i}<{j}", f"{j}<{k}"): f"{i}<{k}"
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    }
    return FinCategory.build(objects, arrows, {x: f"id:{x}" for x in objects}, composition)


def cyclic(n: int, rng: random.Random | None = None) -> FinCategory:
    """The group Z/n on one object; ``rng`` shuffles the non-identity arrows."""
    names = [f"r{i}" for i in range(n)]
    rest = names[1:]
    if rng is not None:
        rng.shuffle(rest)
    arrows = [(a, "*", "*") for a in [names[0]] + rest]
    composition = {
        (names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)
    }
    return FinCategory.build(["*"], arrows, {"*": "r0"}, composition)


def monoid(k: int, gens: int, size: int, rng: random.Random) -> FinCategory:
    """A transformation monoid generated by random self-maps of {0..k-1}.

    Draws generators until the closure has exactly ``size`` elements.
    Elements are declared identity first, then in breadth-first order of
    discovery; composition is diagrammatic (f then g).
    """
    ident = tuple(range(k))
    for _ in range(100_000):
        generators = [tuple(rng.randrange(k) for _ in range(k)) for _ in range(gens)]
        elements = [ident]
        seen = {ident}
        frontier = [ident]
        while frontier and len(elements) <= size:
            nxt = []
            for f in frontier:
                for g in generators:
                    fg = tuple(g[f[i]] for i in range(k))
                    if fg not in seen:
                        seen.add(fg)
                        elements.append(fg)
                        nxt.append(fg)
            frontier = nxt
        if len(elements) == size:
            break
    else:
        raise ValueError(f"no monoid of size {size} on {k} points found")
    name = {f: ("e" if f == ident else f"m{i}") for i, f in enumerate(elements)}
    composition = {
        (name[f], name[g]): name[tuple(g[f[i]] for i in range(k))]
        for f in elements
        for g in elements
    }
    arrows = [(name[f], "*", "*") for f in elements]
    return FinCategory.build(["*"], arrows, {"*": "e"}, composition)


def parallel(k: int) -> FinCategory:
    """Two objects with k parallel arrows ``p1`` .. ``pk`` from a to b."""
    arrows = [("id:a", "a", "a"), ("id:b", "b", "b")]
    arrows += [(f"p{i}", "a", "b") for i in range(1, k + 1)]
    return FinCategory.build(["a", "b"], arrows, {"a": "id:a", "b": "id:b"}, {})


def zipper(k: int) -> FinCategory:
    """k parallel arrows a -> b, all equalized by v : b -> c."""
    arrows = [("id:a", "a", "a"), ("id:b", "b", "b"), ("id:c", "c", "c")]
    arrows += [(f"p{i}", "a", "b") for i in range(1, k + 1)]
    arrows += [("v", "b", "c"), ("pv", "a", "c")]
    composition = {(f"p{i}", "v"): "pv" for i in range(1, k + 1)}
    return FinCategory.build(
        ["a", "b", "c"], arrows, {"a": "id:a", "b": "id:b", "c": "id:c"}, composition
    )


def iso() -> FinCategory:
    """The walking isomorphism u : a -> b, v : b -> a."""
    return FinCategory.build(
        ["a", "b"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("u", "a", "b"), ("v", "b", "a")],
        {"a": "id:a", "b": "id:b"},
        {("u", "v"): "id:a", ("v", "u"): "id:b"},
    )


# -- diagrams -----------------------------------------------------------------


def _chain_arrow(a: int, b: int) -> str:
    return f"id:{a}" if a == b else f"{a}<{b}"


def monotone_functor(dom: FinCategory, cod: FinCategory, table: list[int]) -> Functor:
    """The functor chain -> chain of a monotone map given as a value table."""
    on_objects = {str(i): str(v) for i, v in enumerate(table)}
    on_arrows = {}
    for f in dom.arrows:
        a, b = int(dom.src[f]), int(dom.tgt[f])
        on_arrows[f] = _chain_arrow(table[a], table[b])
    return Functor(dom, cod, on_objects, on_arrows)


def chain_diagram(
    sizes: list[int], variance: str, rng: random.Random | None = None
) -> tuple[Pseudofunctor, dict]:
    """A strict diagram over chain(len(sizes)) with fiber chain(sizes[i]) at i.

    Each index step i -> i+1 goes to the monotone map v -> min(v, k - 1)
    into the fiber of size k (forward for a covariant diagram, backward for
    a contravariant one); longer index arrows go to the composites.
    ``rng`` shuffles the arrow declarations of the index and of every
    fiber, which changes names and canonical order. Returns the diagram and the value table of every index arrow, from
    which ``carrier_size`` counts the elements category.
    """
    m = len(sizes)
    index = chain(m, rng)
    fibers = {str(i): chain(k, rng) for i, k in enumerate(sizes)}
    tables = {}
    for i in range(m):
        for j in range(i, m):
            if variance == "covariant":
                table = [min(v, min(sizes[i:j + 1]) - 1) for v in range(sizes[i])]
            else:
                table = [min(v, min(sizes[i:j + 1]) - 1) for v in range(sizes[j])]
            tables[_chain_arrow(i, j)] = table
    on_arrows = {}
    for phi, table in tables.items():
        a, b = index.src[phi], index.tgt[phi]
        dom, cod = (fibers[a], fibers[b]) if variance == "covariant" else (fibers[b], fibers[a])
        on_arrows[phi] = monotone_functor(dom, cod, table)
    return strictify(index, fibers, on_arrows, variance=variance), tables


def carrier_size(sizes: list[int], tables: dict) -> tuple[int, int]:
    """Objects and arrows of the elements category of a contravariant
    ``chain_diagram``.

    An arrow over i -> j is a fiber object b of j with an arrow of fiber i
    into the image of b, and in chain(k) the object v has v + 1 arrows
    into it.
    """
    return sum(sizes), sum(v + 1 for table in tables.values() for v in table)


def contra_swap() -> Pseudofunctor:
    """Contravariant and nonstrict over the walking arrow a -> b: both fibers
    are the walking iso and the identity at b goes to the swap, so the
    unitor and the unit compositors are nontrivial cells."""
    from catfrac import derive_unit_compositors, identity_functor

    idx = FinCategory.build(
        ["a", "b"],
        [("id:a", "a", "a"), ("id:b", "b", "b"), ("f", "a", "b")],
        {"a": "id:a", "b": "id:b"},
        {},
    )
    I = iso()
    swap = Functor(I, I, {"a": "b", "b": "a"}, {"id:a": "id:b", "id:b": "id:a", "u": "v", "v": "u"})
    on_arrows = {"id:a": identity_functor(I), "id:b": swap, "f": identity_functor(I)}
    unitors = {
        "a": NatTrans(on_arrows["id:a"], identity_functor(I), {"a": "id:a", "b": "id:b"}),
        "b": NatTrans(on_arrows["id:b"], identity_functor(I), {"a": "v", "b": "u"}),
    }
    compositors = derive_unit_compositors(idx, "contravariant", on_arrows, unitors, {})
    return Pseudofunctor(idx, "contravariant", {"a": I, "b": I}, on_arrows, unitors, compositors)


# -- JSON documents for the CLI -----------------------------------------------


def category_doc(C: FinCategory) -> dict:
    rows = [
        {"first": f, "then": g, "equals": h}
        for (f, g), h in C.composition.items()
        if not C.is_identity(f) and not C.is_identity(g)
    ]
    return {
        "kind": "category",
        "objects": list(C.objects),
        "arrows": [{"name": f, "src": C.src[f], "tgt": C.tgt[f]} for f in C.arrows],
        "identities": dict(C.identity),
        "compose": rows,
    }


def diagram_doc(D: Pseudofunctor) -> dict:
    """A pseudofunctor document for a strict diagram: identity unitors and
    identity compositors on every non-identity composable index pair."""
    idx = D.index
    compositors = {}
    for phi, psi in idx.composable_pairs():
        if idx.is_identity(phi) or idx.is_identity(psi):
            continue
        comp = D.fun(idx.composition[(phi, psi)])
        compositors[f"{phi};{psi}"] = {
            x: comp.cod.identity[comp.on_objects[x]] for x in comp.dom.objects
        }
    return {
        "kind": "pseudofunctor",
        "index": category_doc(idx),
        "variance": D.variance,
        "on_objects": {A: category_doc(D.cat(A)) for A in idx.objects},
        "on_arrows": {
            phi: {"on_objects": dict(D.fun(phi).on_objects), "on_arrows": dict(D.fun(phi).on_arrows)}
            for phi in idx.arrows
        },
        "unitors": {A: dict(D.unitors[A].components) for A in idx.objects},
        "compositors": compositors,
    }


def fractions_doc(C: FinCategory, weq) -> dict:
    return {"kind": "fractions-input", "category": category_doc(C), "weq": list(weq)}


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path
