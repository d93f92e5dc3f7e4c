"""Independent brute-force oracle. Deliberately imports nothing from catfrac.

Categories here are raw dicts:
    {"objects": [...],
     "arrows": {name: (src, tgt)},
     "identity": {obj: name},
     "compose": {(f, g): h}}        # diagrammatic: f followed by g

Span classes are computed by naive repeated-sweep merging, not union-find,
so the main build and the oracle share no technique.  The fractions
fillers (sections, weak fillers, Ore squares, zippers) are full scans of W
or of every arrow, by names, where the library reads an endpoint index by
arrow positions.
"""

from __future__ import annotations

import itertools


def to_raw(C) -> dict:
    """A category's tables as a raw dict, read off its attributes."""
    return {
        "objects": list(C.objects),
        "arrows": {a: (C.src[a], C.tgt[a]) for a in C.arrows},
        "identity": dict(C.identity),
        "compose": dict(C.composition),
    }


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


def sections(raw, weq, x):
    """Every marked arrow into x, in W order."""
    return [v for v in weq if raw["arrows"][v][1] == x]


def weak_fillers(raw, weq, v, vp):
    """Every arrow m with m.v.vp marked, composed as (m.v).vp, in
    declaration order."""
    arrows, comp, marked = raw["arrows"], raw["compose"], set(weq)
    return [
        m for m in arrows
        if arrows[m][1] == arrows[v][0] and comp[(comp[(m, v)], vp)] in marked
    ]


def ore_squares(raw, weq, h, v):
    """Every pair (w', g) with w' marked into s(h), g : s(w') -> s(v) and
    g.v = w'.h: w' in W order, then g in declaration order."""
    arrows, comp = raw["arrows"], raw["compose"]
    return [
        (wp, g)
        for wp in weq if arrows[wp][1] == arrows[h][0]
        for g in arrows
        if arrows[g] == (arrows[wp][0], arrows[v][0]) and comp[(g, v)] == comp[(wp, h)]
    ]


def zippers(raw, weq, f, g):
    """Every marked u with u.f = u.g, in W order."""
    arrows, comp = raw["arrows"], raw["compose"]
    return [u for u in weq if arrows[u][1] == arrows[f][0] and comp[(u, f)] == comp[(u, g)]]


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


def nat_trans_cells(rawc, rawx, F, G) -> list:
    """The natural transformations F => G : C -> X, each as the tuple of its
    components in C's object order, by filtering the full product of the
    component hom-sets X(Fx, Gx) in product order: a tuple is kept when the
    square at every arrow of C commutes. F and G are pairs of raw maps (on
    objects, on arrows); an empty hom-set makes the product empty."""
    (fo, fa), (go, ga) = F, G
    xarr, comp = rawx["arrows"], rawx["compose"]
    objs = rawc["objects"]
    homs = [[h for h, ends in xarr.items() if ends == (fo[x], go[x])] for x in objs]
    found = []
    for choice in itertools.product(*homs):
        eta = dict(zip(objs, choice))
        if all(
            comp[(fa[f], eta[t])] == comp[(eta[s], ga[f])]
            for f, (s, t) in rawc["arrows"].items()
        ):
            found.append(choice)
    return found


def nat_trans_count(rawc, rawx, F, G) -> int:
    """How many natural transformations F => G : C -> X ``nat_trans_cells``
    keeps."""
    return len(nat_trans_cells(rawc, rawx, F, G))


def modifications(rawd, rawx, x, y) -> list:
    """The modifications x => y between transformations of a raw diagram D
    into X, each as a dict (index object, fibre object) -> component, by
    filtering the full product, in product order, of the per-object lists
    of ``nat_trans_cells`` between the components of x and y.

    A diagram is {"index": raw category, "variance": "covariant" or
    "contravariant", "fibers": {index object: raw category}, "on_arrows":
    {index arrow: raw maps of D(phi)}}; a transformation is {"components":
    {index object: raw maps}, "cells": {index arrow: {fibre object: arrow}}}.
    The cell at phi : A -> B and a fibre object p runs from the component at
    A to the component at B; D(phi) sends p across when D is covariant and
    lands at the A side when it is contravariant. A choice m is kept when
    m at the source side, then y's cell, equals x's cell, then m at the
    target side, at every index arrow (identities included) and every p."""
    index, fibers = rawd["index"], rawd["fibers"]
    comp = rawx["compose"]
    objs = index["objects"]
    per_object = [
        nat_trans_cells(fibers[A], rawx, x["components"][A], y["components"][A]) for A in objs
    ]
    sides = []  # (phi, p, source side, target side)
    for phi, (A, B) in index["arrows"].items():
        moved = rawd["on_arrows"][phi][0]
        if rawd["variance"] == "covariant":
            sides += [(phi, p, (A, p), (B, moved[p])) for p in fibers[A]["objects"]]
        else:
            sides += [(phi, p, (A, moved[p]), (B, p)) for p in fibers[B]["objects"]]
    found = []
    for choice in itertools.product(*per_object):
        m = {
            (A, a): c for A, cell in zip(objs, choice) for a, c in zip(fibers[A]["objects"], cell)
        }
        if all(
            comp[(m[s], y["cells"][phi][p])] == comp[(x["cells"][phi][p], m[t])]
            for phi, p, s, t in sides
        ):
            found.append(m)
    return found


def arrow_category(rawx):
    """Arr(X): the objects are the arrows of X, an arrow f -> g is a
    commuting square (u, v) with u: src f -> src g, v: tgt f -> tgt g and
    f.v == u.g, and squares compose side by side (Kelly 1989)."""
    xarr, comp, ident = rawx["arrows"], rawx["compose"], rawx["identity"]
    squares = {}
    for f, (sf, tf) in xarr.items():
        for g, (sg, tg) in xarr.items():
            for u, ends_u in xarr.items():
                if ends_u != (sf, sg):
                    continue
                for v, ends_v in xarr.items():
                    if ends_v == (tf, tg) and comp[(f, v)] == comp[(u, g)]:
                        squares[(f, g, u, v)] = (f, g)
    return {
        "objects": list(xarr),
        "arrows": squares,
        "identity": {f: (f, f, ident[s], ident[t]) for f, (s, t) in xarr.items()},
        "compose": {
            (a, b): (a[0], b[1], comp[(a[2], b[2])], comp[(a[3], b[3])])
            for a in squares
            for b in squares
            if a[1] == b[0]
        },
    }


def functors(rawc, rawx):
    """Every functor C -> X as (object map, arrow map), by filtering, for each
    object map, the product of the arrows of X with each arrow's endpoints."""
    cobj, carr = rawc["objects"], rawc["arrows"]
    xarr = rawx["arrows"]
    found = []
    for objmap in itertools.product(rawx["objects"], repeat=len(cobj)):
        o = dict(zip(cobj, objmap))
        choices = [
            [h for h, ends in xarr.items() if ends == (o[s], o[t])] for s, t in carr.values()
        ]
        for arrmap in itertools.product(*choices):
            m = dict(zip(carr, arrmap))
            if any(m[rawc["identity"][x]] != rawx["identity"][o[x]] for x in cobj):
                continue
            if any(rawx["compose"][(m[f], m[g])] != m[h] for (f, g), h in rawc["compose"].items()):
                continue
            found.append((o, m))
    return found


def two_cells_by_ends(rawc, rawx):
    """The natural transformations between functors C -> X, read off the
    functors C -> Arr(X): each is one over its (dom, cod) pair. Returns
    {(F, G): list of component tuples in C's object order}, where F and G
    are (object map, arrow map) as sorted item tuples."""
    xarr = rawx["arrows"]

    def ends(o, m, side):
        # side 0 reads the square's top edge u, side 1 its bottom edge v
        return (
            tuple(sorted((x, xarr[o[x]][side]) for x in o)),
            tuple(sorted((f, m[f][2 + side]) for f in m)),
        )

    buckets = {}
    for o, m in functors(rawc, arrow_category(rawx)):
        key = (ends(o, m, 0), ends(o, m, 1))
        buckets.setdefault(key, []).append(tuple(o[x] for x in rawc["objects"]))
    return buckets


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
