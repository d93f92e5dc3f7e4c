"""Golden canonical order of every enumerator over the hand-built corpus.

One sha256 covers the functors, natural transformations, transformations,
modifications and isomorphism witnesses the enumerators return, in the
order they return them and with every mapping in its insertion order. A
change to the search that reorders results, or builds a mapping in another
order, changes the digest.
"""

import hashlib

import corpus
from catfrac import (
    enumerate_functors,
    enumerate_modifications,
    enumerate_nat_trans,
    enumerate_transformations,
    find_isomorphism,
)

GOLDEN = "30e8c9c5a0ddfe49919c77b0e15ea7a3fe865a1045b70e54a9184092966924a5"


def _items(d) -> str:
    return ",".join(f"{k}->{v}" for k, v in d.items())


def _functor(F) -> str:
    return f"[{_items(F.on_objects)}|{_items(F.on_arrows)}]"


def _transformation(x) -> str:
    comps = ";".join(f"{a}={_functor(F)}" for a, F in x.components.items())
    cells = ";".join(f"{phi}={_items(c.components)}" for phi, c in x.two_cells.items())
    return f"{comps}/{cells}"


def _modification(m) -> str:
    return ";".join(f"{a}={_items(g.components)}" for a, g in m.components.items())


def canonical_lines():
    targets = [("two", corpus.two()), ("iso", corpus.iso()), ("z2", corpus.z2())]
    for cn, C in corpus.test_battery():
        for xn, X in targets:
            functors = enumerate_functors(C, X)
            yield f"functors {cn} -> {xn}: {len(functors)}"
            yield from (_functor(F) for F in functors)
            for i, F in enumerate(functors):
                for j, G in enumerate(functors):
                    cells = enumerate_nat_trans(F, G)
                    yield f"nat {cn} -> {xn} {i}=>{j}: " + " ".join(
                        _items(eta.components) for eta in cells
                    )
    for dn, D in corpus.oplax_diagrams():
        for xn, X in targets:
            lax = enumerate_transformations(D, X, "lax")
            for kind, found in (("lax", lax), ("pseudo", enumerate_transformations(D, X, "pseudo"))):
                yield f"{kind} {dn} -> {xn}: {len(found)}"
                yield from (_transformation(x) for x in found)
            for i, x in enumerate(lax):
                for j, y in enumerate(lax):
                    mods = enumerate_modifications(x, y)
                    yield f"mod {dn} -> {xn} {i}=>{j}: " + " ".join(_modification(m) for m in mods)
    for cn, C in corpus.all_categories():
        for dn, D in corpus.all_categories():
            wit = find_isomorphism(C, D)
            text = "none" if wit is None else f"{_functor(wit.forward)} {_functor(wit.backward)}"
            yield f"iso {cn} ~ {dn}: {text}"


def test_enumeration_order_is_pinned():
    digest = hashlib.sha256("\n".join(canonical_lines()).encode()).hexdigest()
    assert digest == GOLDEN
