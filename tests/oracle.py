"""Independent brute-force oracle. Deliberately imports nothing from catfrac.

Categories here are raw dicts:
    {"objects": [...],
     "arrows": {name: (src, tgt)},
     "identity": {obj: name},
     "compose": {(f, g): h}}        # diagrammatic: f followed by g

Span classes are computed by naive repeated-sweep merging, not union-find,
so the main build and the oracle share no technique.
"""

from __future__ import annotations

import itertools


def laws_hold(raw) -> bool:
    arrows = raw["arrows"]
    comp = raw["compose"]
    for x in raw["objects"]:
        i = raw["identity"][x]
        if arrows[i] != (x, x):
            return False
    for f, (sf, tf) in arrows.items():
        for g, (sg, tg) in arrows.items():
            if tf == sg:
                h = comp.get((f, g))
                if h is None or arrows[h] != (sf, tg):
                    return False
            elif (f, g) in comp:
                return False
    for f, (sf, tf) in arrows.items():
        if comp[(raw["identity"][sf], f)] != f or comp[(f, raw["identity"][tf])] != f:
            return False
    for f in arrows:
        for g in arrows:
            if arrows[f][1] != arrows[g][0]:
                continue
            for h in arrows:
                if arrows[g][1] != arrows[h][0]:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    return False
    return True


def spans(raw, weq):
    """All (v, g) with v in W sharing a source with g."""
    arrows = raw["arrows"]
    return [
        (v, g)
        for v in weq
        for g in arrows
        if arrows[v][0] == arrows[g][0]
    ]


def sailboat_pairs(raw, weq):
    """Generating relation: (v, g) ~ (h.v, h.g) whenever h.v lands in W."""
    arrows = raw["arrows"]
    comp = raw["compose"]
    out = []
    for h in arrows:
        for v in weq:
            if arrows[h][1] != arrows[v][0]:
                continue
            hv = comp[(h, v)]
            if hv not in weq:
                continue
            for g in arrows:
                if arrows[g][0] == arrows[v][0]:
                    out.append(((v, g), (hv, comp[(h, g)])))
    return out


def span_classes(raw, weq):
    """Partition of spans under the sailboat relation, by sweep-to-fixpoint."""
    classes = [{s} for s in spans(raw, weq)]
    pairs = sailboat_pairs(raw, weq)
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                ca |= cb
                classes.remove(cb)
                changed = True
    return [frozenset(c) for c in classes]


def components(size, pairs):
    """Classes of 0..size-1 under the equivalence the pairs generate, by
    sweep-to-fixpoint; members ascending, classes by least member."""
    classes = [{i} for i in range(size)]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                ca |= cb
                classes.remove(cb)
                changed = True
    return sorted((sorted(c) for c in classes), key=lambda c: c[0])


def functor_count(rawc, rawx) -> int:
    """Count functors by filtering the full product of assignments."""
    cobj, xobj = rawc["objects"], rawx["objects"]
    carr, xarr = list(rawc["arrows"]), list(rawx["arrows"])
    n = 0
    for objmap in itertools.product(xobj, repeat=len(cobj)):
        o = dict(zip(cobj, objmap))
        for arrmap in itertools.product(xarr, repeat=len(carr)):
            m = dict(zip(carr, arrmap))
            if any(
                rawx["arrows"][m[f]] != (o[rawc["arrows"][f][0]], o[rawc["arrows"][f][1]])
                for f in carr
            ):
                continue
            if any(m[rawc["identity"][x]] != rawx["identity"][o[x]] for x in cobj):
                continue
            if any(
                rawx["compose"][(m[f], m[g])] != m[h]
                for (f, g), h in rawc["compose"].items()
            ):
                continue
            n += 1
    return n


def nat_trans_count(rawc, rawx, F, G) -> int:
    """Count natural transformations F => G : C -> X by filtering the full
    product of the component hom-sets X(Fx, Gx). F and G are pairs of raw
    maps (on objects, on arrows); an empty hom-set makes the product empty."""
    (fo, fa), (go, ga) = F, G
    xarr, comp = rawx["arrows"], rawx["compose"]
    objs = rawc["objects"]
    homs = [[h for h, ends in xarr.items() if ends == (fo[x], go[x])] for x in objs]
    n = 0
    for choice in itertools.product(*homs):
        eta = dict(zip(objs, choice))
        if all(
            comp[(fa[f], eta[t])] == comp[(eta[s], ga[f])]
            for f, (s, t) in rawc["arrows"].items()
        ):
            n += 1
    return n


# --- fixtures for the oracle runs (kept raw and local on purpose) ---

def raw_walking_arrow():
    return {
        "objects": ["a", "b"],
        "arrows": {"id:a": ("a", "a"), "id:b": ("b", "b"), "f": ("a", "b")},
        "identity": {"a": "id:a", "b": "id:b"},
        "compose": {
            ("id:a", "id:a"): "id:a",
            ("id:b", "id:b"): "id:b",
            ("id:a", "f"): "f",
            ("f", "id:b"): "f",
        },
    }


def raw_walking_iso():
    return {
        "objects": ["a", "b"],
        "arrows": {
            "id:a": ("a", "a"),
            "id:b": ("b", "b"),
            "u": ("a", "b"),
            "v": ("b", "a"),
        },
        "identity": {"a": "id:a", "b": "id:b"},
        "compose": {
            ("id:a", "id:a"): "id:a",
            ("id:b", "id:b"): "id:b",
            ("id:a", "u"): "u",
            ("u", "id:b"): "u",
            ("id:b", "v"): "v",
            ("v", "id:a"): "v",
            ("u", "v"): "id:a",
            ("v", "u"): "id:b",
        },
    }


def raw_chain3():
    return {
        "objects": ["x", "y", "z"],
        "arrows": {
            "id:x": ("x", "x"),
            "id:y": ("y", "y"),
            "id:z": ("z", "z"),
            "f": ("x", "y"),
            "g": ("y", "z"),
            "h": ("x", "z"),
        },
        "identity": {"x": "id:x", "y": "id:y", "z": "id:z"},
        "compose": {
            ("id:x", "id:x"): "id:x",
            ("id:y", "id:y"): "id:y",
            ("id:z", "id:z"): "id:z",
            ("id:x", "f"): "f",
            ("f", "id:y"): "f",
            ("id:y", "g"): "g",
            ("g", "id:z"): "g",
            ("id:x", "h"): "h",
            ("h", "id:z"): "h",
            ("f", "g"): "h",
        },
    }


if __name__ == "__main__":
    two = raw_walking_arrow()
    iso = raw_walking_iso()
    chain = raw_chain3()
    assert laws_hold(two) and laws_hold(iso) and laws_hold(chain)

    w_all = ["id:a", "id:b", "f"]
    print("walking arrow, W=all:")
    print("  spans:", sorted(spans(two, w_all)))
    for c in sorted(span_classes(two, w_all), key=min):
        print("  class:", sorted(c))

    w_chain = ["id:x", "id:y", "id:z", "f"]
    print("chain, W={ids, f}:")
    print("  span count:", len(spans(chain, w_chain)))
    for c in sorted(span_classes(chain, w_chain), key=min):
        print("  class:", sorted(c))

    print("Fun(2, 2) =", functor_count(two, two))
    print("Fun(2, iso) =", functor_count(two, iso))
    print("Fun(iso, iso) =", functor_count(iso, iso))
    print("Fun(chain, iso) =", functor_count(chain, iso))
