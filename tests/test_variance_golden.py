"""Golden reports of the checks whose laws depend on variance or direction.

One sha256 covers, in order: the problems ``validate_pseudofunctor``
reports on seeded corruptions (one component, or one comparison cell
swapped for another natural one) of every corpus diagram, with what
``derive_unit_compositors`` makes (or refuses) from each corrupted
diagram's unitors; and the ``check_shape`` report, witnesses in their
order, of every corpus category and its opposite in both directions.
Writing a law once for both variances, or one direction as the other on
the opposite category, must leave every line as it was.
"""

import copy
import hashlib
import random

import corpus
from catfrac import (
    Functor,
    NatTrans,
    check_shape,
    derive_unit_compositors,
    enumerate_nat_trans,
    opposite,
    validate_pseudofunctor,
)
from catfrac.errors import DomainError, InputError

GOLDEN = "f930617e025491350033fbf2951034a18bc77cce9b1ec1c00ccd4f74ff52d2ab"
CORRUPTIONS = 60  # per diagram


def _outcome(thunk) -> str:
    try:
        return thunk()
    except (InputError, DomainError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _replacement(rng: random.Random, X, f: str) -> str:
    """Another arrow of X: one parallel to f when there is one (half the
    time), so that the corruption keeps its typing and reaches the laws."""
    parallel = [g for g in X.hom(X.src[f], X.tgt[f]) if g != f] if f in X.src else []
    if parallel and rng.random() < 0.5:
        return rng.choice(parallel)
    return rng.choice(X.arrows)


def _corrupt(D, rng: random.Random) -> str:
    """Change one component of one unitor, compositor or functor of D, or
    one whole unitor or compositor, in place; say which."""
    kinds = [("unitor", a) for a in D.unitors] + [("compositor", p) for p in D.compositors]
    kinds += [("functor", phi) for phi in D.on_arrows]
    kind, key = rng.choice(kinds)
    if kind == "functor":
        F = D.on_arrows[key]
        f = rng.choice(F.dom.arrows)
        g = _replacement(rng, F.cod, F.on_arrows[f])
        D.on_arrows[key] = Functor(F.dom, F.cod, F.on_objects, {**F.on_arrows, f: g})
        return f"functor {key!r} at {f!r} -> {g!r}"
    cells = D.unitors if kind == "unitor" else D.compositors
    cell = cells[key]
    others = [eta for eta in enumerate_nat_trans(cell.src, cell.tgt) if eta != cell]
    if others and rng.random() < 0.5:
        # another natural cell between the same functors: only the
        # invertibility check and the coherence laws can object
        cells[key] = rng.choice(others)
        return f"{kind} {key!r} -> {list(cells[key].components.items())}"
    x = rng.choice(cell.src.dom.objects)
    g = _replacement(rng, cell.src.cod, cell.components[x])
    cells[key] = NatTrans(cell.src, cell.tgt, {**cell.components, x: g})
    return f"{kind} {key!r} at {x!r} -> {g!r}"


def _derived(D) -> str:
    idx = D.index
    given = {
        (phi, psi): cell
        for (phi, psi), cell in D.compositors.items()
        if not idx.is_identity(phi) and not idx.is_identity(psi)
    }
    out = derive_unit_compositors(idx, D.variance, D.on_arrows, D.unitors, given)
    return " ".join(f"{pair}={list(cell.components.items())}" for pair, cell in out.items())


def _shape(A, direction: str) -> str:
    rep = check_shape(A, direction)
    return (
        f"{rep.direction} ok={rep.ok} pairs={list(rep.pair_witnesses.items())} "
        f"parallel={list(rep.parallel_witnesses.items())} failure={rep.failure}"
    )


def golden_lines():
    for dn, pristine in corpus.coherence_diagrams():
        rng = random.Random(dn)
        for i in range(CORRUPTIONS + 1):
            D = copy.deepcopy(pristine)
            what = "none" if i == 0 else _corrupt(D, rng)
            yield f"{dn} #{i} {what}: " + _outcome(lambda: str(validate_pseudofunctor(D).problems))
            yield "derived: " + _outcome(lambda: _derived(D))
    categories = corpus.all_categories() + [
        ("chain(4)", corpus.chain(4)),
        ("twisted iso", corpus.twisted_iso()),
    ]
    for cn, C in categories:
        for side, A in (("", C), ("op ", opposite(C))):
            for direction in ("filtered", "cofiltered"):
                yield f"{side}{cn} " + _shape(A, direction)


def test_variance_reports_are_pinned():
    digest = hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()
    assert digest == GOLDEN
