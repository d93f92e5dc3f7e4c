"""Diagrams of finite categories indexed by a finite category.

A diagram assigns a category to every index object and a functor to every
index arrow, up to coherent invertible comparison cells (unitors and
compositors).  Transformations out of a diagram land in a single ordinary
category and carry one comparison two-cell per index arrow; modifications
compare such transformations componentwise.

Variance convention: a covariant diagram sends phi: A -> B to a functor
D(A) -> D(B) and its transformation two-cells are lax,
x_phi : x_A => D(phi).x_B.  A contravariant diagram sends phi to a functor
D(B) -> D(A) and the two-cells are oplax, x_phi : D(phi).x_A => x_B.
Composition in formulas is diagrammatic throughout.

Whiskering rule: a cell whiskered with a functor F has component
cell[F(x)] at x when F acts before the cell, and F(cell[x]) when F acts
after it.  Which of the two a coherence law needs is the one thing its
variance decides, and `variance_order` decides it, so each law is written
once for both variances.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import DomainError, InputError
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    ValidationReport,
    backtrack,
    compose,
    compose_functors,
    compose_many,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    nat_trans_search,
    two_sided_inverse,
    validate_category,
    validate_functor,
    validate_nat_trans,
)

VARIANCES = ("covariant", "contravariant")


@dataclass(eq=True)
class Pseudofunctor:
    """Diagram of categories over a finite index category.

    `on_arrows` covers every index arrow including identities.  `unitors`
    maps each index object A to the comparison D(1_A) => Id on D(A);
    `compositors` holds one comparison cell per composable index pair,
    keyed by the pair itself.
    """

    index: FinCategory
    variance: str
    on_objects: dict
    on_arrows: dict
    unitors: dict
    compositors: dict

    def cat(self, a: str) -> FinCategory:
        return self.on_objects[a]

    def fun(self, phi: str) -> Functor:
        return self.on_arrows[phi]

    def compositor(self, phi: str, psi: str) -> NatTrans:
        return self.compositors[(phi, psi)]


def variance_order(variance: str, first, second) -> tuple:
    """``(first, second)`` for a covariant diagram, swapped for a contravariant one.

    Of the categories at the source and target of an index arrow, this is
    the domain and codomain of the arrow's functor; of the functors at phi
    and psi, the order whose composite is the compositor's target.
    """
    return (first, second) if variance == "covariant" else (second, first)


def expected_endpoints(D: Pseudofunctor, phi: str) -> tuple[FinCategory, FinCategory]:
    return variance_order(D.variance, D.cat(D.index.src[phi]), D.cat(D.index.tgt[phi]))


def pair_composite_functor(D: Pseudofunctor, phi: str, psi: str) -> Functor:
    """Target functor of the compositor at (phi, psi)."""
    return compose_functors(*variance_order(D.variance, D.fun(phi), D.fun(psi)))


def unitor_inverse_component(D: Pseudofunctor, a: str, x: str) -> str:
    inv = two_sided_inverse(D.cat(a), D.unitors[a].components[x])
    if inv is None:
        raise DomainError(f"unitor at {a!r} has no inverse at object {x!r}")
    return inv


def compositor_inverse_component(D: Pseudofunctor, phi: str, psi: str, x: str) -> str:
    host = expected_endpoints(D, D.index.composition[(phi, psi)])[1]
    inv = two_sided_inverse(host, D.compositor(phi, psi).components[x])
    if inv is None:
        raise DomainError(f"compositor at ({phi!r}, {psi!r}) has no inverse at {x!r}")
    return inv


def _lawful_index(index: FinCategory) -> None:
    """Raise InputError at the index's first violated category law: the
    compositors and the coherence laws are read off its composites, so they
    must lie where the laws put them."""
    problem = next(iter(validate_category(index).problems), None)
    if problem is not None:
        raise InputError(f"index: {problem}")


def _structural_check(D: Pseudofunctor) -> None:
    if D.variance not in VARIANCES:
        raise InputError(f"unknown variance {D.variance!r}")
    _lawful_index(D.index)
    idx = D.index
    for a in idx.objects:
        if a not in D.on_objects:
            raise InputError(f"no category assigned to index object {a!r}")
        if a not in D.unitors:
            raise InputError(f"no unitor at index object {a!r}")
    for f in idx.arrows:
        if f not in D.on_arrows:
            raise InputError(f"no functor assigned to index arrow {f!r}")
    for pair in idx.composable_pairs():
        if pair not in D.compositors:
            raise InputError(f"no compositor for composable pair {pair!r}")


def validate_pseudofunctor(D: Pseudofunctor) -> ValidationReport:
    """Check every coherence law; structural gaps raise InputError."""
    _structural_check(D)
    report = ValidationReport()
    idx = D.index

    for a in idx.objects:
        sub = validate_category(D.cat(a))
        for p in sub.problems:
            report.add(f"value category at {a!r}: {p}")
    if not report.ok:
        return report  # laws below presuppose sane value categories

    for phi in idx.arrows:
        dom, cod = expected_endpoints(D, phi)
        F = D.fun(phi)
        if F.dom != dom or F.cod != cod:
            report.add(f"functor at {phi!r} has wrong endpoints for {D.variance} variance")
            continue
        with naming(f"functor at {phi!r}"):
            sub = validate_functor(F)
        for p in sub.problems:
            report.add(f"functor at {phi!r}: {p}")
    if not report.ok:
        return report

    for a in idx.objects:
        delta = D.unitors[a]
        ida = idx.identity[a]
        if delta.src != D.fun(ida) or delta.tgt != identity_functor(D.cat(a)):
            report.add(f"unitor at {a!r} does not compare D(1) with the identity functor")
            continue
        report.problems.extend(_cell_problems(delta, f"unitor at {a!r}"))
        for x in D.cat(a).objects:
            if two_sided_inverse(D.cat(a), delta.components[x]) is None:
                report.add(f"unitor at {a!r} not invertible at object {x!r}")

    for (phi, psi), delta in D.compositors.items():
        comp = idx.composition[(phi, psi)]
        if delta.src != D.fun(comp) or delta.tgt != pair_composite_functor(D, phi, psi):
            report.add(f"compositor at ({phi!r}, {psi!r}) has wrong endpoint functors")
            continue
        report.problems.extend(_cell_problems(delta, f"compositor at ({phi!r}, {psi!r})"))
        for x in delta.src.dom.objects:
            if two_sided_inverse(delta.src.cod, delta.components[x]) is None:
                report.add(f"compositor at ({phi!r}, {psi!r}) not invertible at {x!r}")
    if not report.ok:
        return report

    _check_unit_coherence(D, report)
    _check_assoc_coherence(D, report)
    return report


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Raise a structural InputError of the block again, prefixed with the
    entry it is about (``where``, as "unitor at 'x'")."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _cell_problems(delta: NatTrans, where: str) -> list[str]:
    """validate_nat_trans's problems for the cell at ``where``, each prefixed
    with it; a structural InputError is raised again with the same prefix."""
    with naming(where):
        sub = validate_nat_trans(delta)
    return [f"{where}: {p}" for p in sub.problems]


def _whiskered(cell: NatTrans, F: Functor, F_first: bool, x: str) -> str:
    """The component at x of the cell whiskered with F: ``cell[F(x)]`` when
    F acts before the cell, ``F(cell[x])`` when it acts after."""
    return cell.components[F.on_objects[x]] if F_first else F.on_arrows[cell.components[x]]


def _check_unit_coherence(D: Pseudofunctor, report: ValidationReport) -> None:
    idx = D.index
    # whether D(phi) acts before the unitor on the left leg, and on the right
    left_first, right_first = variance_order(D.variance, False, True)
    for phi in idx.arrows:
        F = D.fun(phi)
        host = F.cod
        a, b = idx.src[phi], idx.tgt[phi]
        left_cell = D.compositor(idx.identity[a], phi).components
        right_cell = D.compositor(phi, idx.identity[b]).components
        for x in F.dom.objects:
            unit = host.identity[F.on_objects[x]]
            left = compose(host, left_cell[x], _whiskered(D.unitors[a], F, left_first, x))
            if left != unit:
                report.add(f"left unit coherence fails at ({phi!r}, {x!r})")
            right = compose(host, right_cell[x], _whiskered(D.unitors[b], F, right_first, x))
            if right != unit:
                report.add(f"right unit coherence fails at ({phi!r}, {x!r})")


def _check_assoc_coherence(D: Pseudofunctor, report: ValidationReport) -> None:
    idx = D.index
    # whether D(gamma) acts before compositor(phi, psi) on the right leg, and
    # D(phi) before compositor(psi, gamma) on the left
    right_first, left_first = variance_order(D.variance, False, True)
    for phi, psi in idx.composable_pairs():
        phipsi = idx.composition[(phi, psi)]
        for gamma in idx.out_of(idx.tgt[psi]):
            psigamma = idx.composition[(psi, gamma)]
            F = D.fun(idx.composition[(phipsi, gamma)])
            host = F.cod
            for x in F.dom.objects:
                left = compose(
                    host,
                    D.compositor(phi, psigamma).components[x],
                    _whiskered(D.compositor(psi, gamma), D.fun(phi), left_first, x),
                )
                right = compose(
                    host,
                    D.compositor(phipsi, gamma).components[x],
                    _whiskered(D.compositor(phi, psi), D.fun(gamma), right_first, x),
                )
                if left != right:
                    report.add(
                        f"associativity coherence fails at ({phi!r}, {psi!r}, {gamma!r}, {x!r})"
                    )


def derive_unit_compositors(
    index: FinCategory,
    variance: str,
    on_arrows: dict,
    unitors: dict,
    compositors: dict,
) -> dict:
    """Fill compositors for pairs with an identity leg from the unitors.

    Pairs where both legs are non-identity must already be present.  The
    filled values are the unique ones compatible with unit coherence, so a
    later full validation cross-checks any derived entry.  An index that
    breaks a category law raises InputError.
    """
    _lawful_index(index)
    out = dict(compositors)
    left_first, right_first = variance_order(variance, False, True)
    for phi, psi in index.composable_pairs():
        if (phi, psi) in out:
            continue
        comp = index.composition[(phi, psi)]
        phi_id = phi == index.identity[index.src[phi]]
        psi_id = psi == index.identity[index.tgt[psi]]
        if not phi_id and not psi_id:
            raise InputError(f"no compositor for non-identity pair ({phi!r}, {psi!r})")
        src_fun = on_arrows[comp]
        tgt_fun = compose_functors(*variance_order(variance, on_arrows[phi], on_arrows[psi]))
        host = tgt_fun.cod
        # the unitor at the identity leg, whiskered with the other leg's
        # functor as in the unit coherence law that the result must meet
        if phi_id:
            a, F, F_first = index.src[phi], on_arrows[psi], left_first
        else:
            a, F, F_first = index.tgt[psi], on_arrows[phi], right_first
        if a not in unitors:
            raise InputError(f"no unitor at index object {a!r}")
        components = {}
        for x in src_fun.dom.objects:
            inv = two_sided_inverse(host, _whiskered(unitors[a], F, F_first, x))
            if inv is None:
                raise InputError(
                    f"cannot derive compositor at ({phi!r}, {psi!r}): no inverse at {x!r}"
                )
            components[x] = inv
        out[(phi, psi)] = NatTrans(src=src_fun, tgt=tgt_fun, components=components)
    return out


def strictify(
    index: FinCategory,
    on_objects: dict,
    on_arrows: dict,
    variance: str = "covariant",
) -> Pseudofunctor:
    """Wrap a strictly functorial assignment with identity comparison cells."""
    if variance not in VARIANCES:
        raise InputError(f"unknown variance {variance!r}")
    for a in index.objects:
        ida = index.identity[a]
        if ida not in on_arrows or on_arrows[ida] != identity_functor(on_objects[a]):
            raise InputError(f"assignment is not strict at identity of {a!r}")
    for phi, psi in index.composable_pairs():
        comp = index.composition[(phi, psi)]
        expected = compose_functors(*variance_order(variance, on_arrows[phi], on_arrows[psi]))
        if on_arrows[comp] != expected:
            raise InputError(f"assignment is not strict at pair ({phi!r}, {psi!r})")

    unitors = {}
    for a in index.objects:
        C = on_objects[a]
        unitors[a] = NatTrans(
            src=on_arrows[index.identity[a]],
            tgt=identity_functor(C),
            components={x: C.identity[x] for x in C.objects},
        )
    compositors = {}
    for phi, psi in index.composable_pairs():
        comp = on_arrows[index.composition[(phi, psi)]]
        compositors[(phi, psi)] = NatTrans(
            src=comp,
            tgt=comp,
            components={
                x: comp.cod.identity[comp.on_objects[x]] for x in comp.dom.objects
            },
        )
    return Pseudofunctor(
        index=index,
        variance=variance,
        on_objects=dict(on_objects),
        on_arrows=dict(on_arrows),
        unitors=unitors,
        compositors=compositors,
    )


@dataclass(eq=True)
class LaxTransformation:
    """Transformation from a diagram to a constant category.

    `components` assigns a functor x_A : D(A) -> target per index object;
    `two_cells` one comparison cell per index arrow, oriented by variance:
    covariant x_phi : x_A => D(phi).x_B, contravariant
    x_phi : D(phi).x_A => x_B.
    """

    source: Pseudofunctor
    target: FinCategory
    components: dict
    two_cells: dict


def two_cell_endpoints(
    D: Pseudofunctor, components: dict, phi: str
) -> tuple[Functor, Functor]:
    a, b = D.index.src[phi], D.index.tgt[phi]
    if D.variance == "covariant":
        return components[a], compose_functors(D.fun(phi), components[b])
    return compose_functors(D.fun(phi), components[a]), components[b]


def identity_two_cell(D: Pseudofunctor, components: dict, a: str) -> NatTrans:
    """The forced comparison cell at an index identity arrow."""
    src_fun, tgt_fun = two_cell_endpoints(D, components, D.index.identity[a])
    cells = {}
    for x in D.cat(a).objects:
        if D.variance == "covariant":
            cells[x] = components[a].on_arrows[unitor_inverse_component(D, a, x)]
        else:
            cells[x] = components[a].on_arrows[D.unitors[a].components[x]]
    return NatTrans(src=src_fun, tgt=tgt_fun, components=cells)


def validate_transformation(x: LaxTransformation) -> ValidationReport:
    """Check component functors, two-cell typing, and both coherence laws."""
    D = x.source
    idx = D.index
    for a in idx.objects:
        if a not in x.components:
            raise InputError(f"no component functor at index object {a!r}")
    for phi in idx.arrows:
        if phi not in x.two_cells:
            raise InputError(f"no two-cell at index arrow {phi!r}")

    report = ValidationReport()
    for a in idx.objects:
        F = x.components[a]
        if F.dom != D.cat(a) or F.cod != x.target:
            report.add(f"component at {a!r} has wrong endpoints")
            continue
        sub = validate_functor(F)
        for p in sub.problems:
            report.add(f"component at {a!r}: {p}")
    if not report.ok:
        return report

    for phi in idx.arrows:
        cell = x.two_cells[phi]
        src_fun, tgt_fun = two_cell_endpoints(D, x.components, phi)
        if cell.src != src_fun or cell.tgt != tgt_fun:
            report.add(f"two-cell at {phi!r} has wrong endpoint functors")
            continue
        sub = validate_nat_trans(cell)
        for p in sub.problems:
            report.add(f"two-cell at {phi!r}: {p}")
    if not report.ok:
        return report

    for a in idx.objects:
        forced = identity_two_cell(D, x.components, a)
        if x.two_cells[idx.identity[a]].components != forced.components:
            report.add(f"identity two-cell coherence fails at {a!r}")

    for phi, psi in idx.composable_pairs():
        for p in _incoherent_fibers(D, x.target, x.components, x.two_cells, phi, psi):
            report.add(f"composition coherence fails at ({phi!r}, {psi!r}, {p!r})")
    return report


def _incoherent_fibers(
    D: Pseudofunctor, X: FinCategory, components: dict, cells: dict, phi: str, psi: str
) -> Iterator[str]:
    """Fiber objects at which the two-cells break composition coherence at (phi, psi).

    ``components`` and ``cells`` map index objects to component functors and
    index arrows to two-cells; only those that the law at (phi, psi) reads
    need to be present.
    """
    idx = D.index
    x_phi, x_psi = cells[phi].components, cells[psi].components
    x_comp = cells[idx.composition[(phi, psi)]].components
    compositor = D.compositor(phi, psi).components
    if D.variance == "covariant":
        whisker = components[idx.tgt[psi]].on_arrows
        for p in D.cat(idx.src[phi]).objects:
            left = compose(X, x_comp[p], whisker[compositor[p]])
            right = compose(X, x_phi[p], x_psi[D.fun(phi).on_objects[p]])
            if left != right:
                yield p
    else:
        whisker = components[idx.src[phi]].on_arrows
        for p in D.cat(idx.tgt[psi]).objects:
            left = compose_many(
                X, whisker[compositor[p]], x_phi[D.fun(psi).on_objects[p]], x_psi[p]
            )
            if left != x_comp[p]:
                yield p


def is_pseudo(x: LaxTransformation) -> tuple[bool, Optional[tuple[str, str]]]:
    """True when every two-cell component is invertible; else a witness."""
    for phi in x.source.index.arrows:
        cell = x.two_cells[phi]
        for obj, f in cell.components.items():
            if two_sided_inverse(x.target, f) is None:
                return False, (phi, obj)
    return True, None


def enumerate_transformations(
    D: Pseudofunctor, X: FinCategory, kind: str = "lax"
) -> list[LaxTransformation]:
    """All transformations D -> X in canonical order.

    kind 'lax' yields everything; 'pseudo' keeps those whose two-cells are
    all invertible. Searches component functors per index object, then
    two-cells: those at identities forced by the components, then one per
    non-identity arrow. A cell is checked when chosen, and the coherence of
    a composable pair at its last cell.

    The two-cells at phi are natural transformations between the endpoint
    functors of ``two_cell_endpoints``, both off the category at the index
    object where D(phi) starts (``variance_order``). One ``nat_trans_search``
    is prepared per such index object, before the search starts, and serves
    every choice of components; it returns no cell, so the slot has no
    candidate, when a component hom is empty.
    """
    if kind not in ("lax", "pseudo"):
        raise InputError(f"unknown transformation kind {kind!r}")
    idx = D.index
    objs = idx.objects
    n = len(objs)
    per_object = [enumerate_functors(D.cat(a), X) for a in objs]
    arrows = [idx.identity[a] for a in objs] + [f for f in idx.arrows if not idx.is_identity(f)]
    slot = {phi: n + k for k, phi in enumerate(arrows)}
    pairs_closed: list[list] = [[] for _ in range(n + len(arrows))]
    for phi, psi in idx.composable_pairs():
        last = max(slot[phi], slot[psi], slot[idx.composition[(phi, psi)]])
        pairs_closed[last].append((phi, psi))
    natural: dict = {}  # index object -> (its category's objects, the search on it)
    cell_searches = []
    for phi in arrows[n:]:
        A = variance_order(D.variance, idx.src[phi], idx.tgt[phi])[0]
        if D.fun(phi).dom != D.cat(A):
            raise DomainError("cannot enumerate transformations between non-parallel functors")
        if A not in natural:
            natural[A] = (D.cat(A).objects, nat_trans_search(D.cat(A), X))
        cell_searches.append(natural[A])

    def domain(i: int, vals: list):
        if i < n:
            return per_object[i]
        components = dict(zip(objs, vals))
        if i < 2 * n:
            return (identity_two_cell(D, components, objs[i - n]),)
        F, G = two_cell_endpoints(D, components, arrows[i - n])
        names, search = cell_searches[i - 2 * n]
        return [NatTrans(F, G, dict(zip(names, cell))) for cell in search(F, G)]

    def accept(i: int, vals: list) -> bool:
        if i < n:
            return True
        cell = vals[i]
        if i < 2 * n and not validate_nat_trans(cell).ok:
            return False
        if kind == "pseudo" and any(
            two_sided_inverse(X, f) is None for f in cell.components.values()
        ):
            return False
        if pairs_closed[i]:
            components, cells = dict(zip(objs, vals)), dict(zip(arrows, vals[n : i + 1]))
            for phi, psi in pairs_closed[i]:
                for _ in _incoherent_fibers(D, X, components, cells, phi, psi):
                    return False
        return True

    found = backtrack(n + len(arrows), domain, accept)
    return [
        LaxTransformation(D, X, dict(zip(objs, vals)), dict(zip(arrows, vals[n:]))) for vals in found
    ]


@dataclass(eq=True)
class Modification:
    """Componentwise comparison between two parallel transformations."""

    src: LaxTransformation
    tgt: LaxTransformation
    components: dict


def validate_modification(m: Modification) -> ValidationReport:
    x, y = m.src, m.tgt
    if x.source != y.source or x.target != y.target:
        raise DomainError("modification endpoints are not parallel")
    D = x.source
    idx = D.index
    for a in idx.objects:
        if a not in m.components:
            raise InputError(f"no modification component at {a!r}")

    report = ValidationReport()
    for a in idx.objects:
        g = m.components[a]
        if g.src != x.components[a] or g.tgt != y.components[a]:
            report.add(f"component at {a!r} has wrong endpoint functors")
            continue
        sub = validate_nat_trans(g)
        for p in sub.problems:
            report.add(f"component at {a!r}: {p}")
    if not report.ok:
        return report

    for phi in idx.arrows:
        m_src, m_tgt = m.components[idx.src[phi]], m.components[idx.tgt[phi]]
        incompatible = _incompatible_fibers(
            x.target, x.two_cells[phi], y.two_cells[phi], m_src, m_tgt, _fiber_reads(D, phi)
        )
        for p in incompatible:
            report.add(f"two-cell compatibility fails at ({phi!r}, {p!r})")
    return report


def _fiber_reads(D: Pseudofunctor, phi: str) -> list[tuple[str, str, str]]:
    """Where the compatibility of a modification with the two-cells at phi
    reads its components: one (p, a, b) per fibre object p of the two-cells'
    domain, where the components at the source and target of phi are read
    at a and b. The component on the side where D(phi) acts first is read
    at D(phi)(p), the other at p; the reads depend only on D."""
    whisker = D.fun(phi).on_objects
    if D.variance == "covariant":
        return [(p, p, whisker[p]) for p in D.cat(D.index.src[phi]).objects]
    return [(p, whisker[p], p) for p in D.cat(D.index.tgt[phi]).objects]


def _incompatible_fibers(
    X: FinCategory,
    x_phi: NatTrans,
    y_phi: NatTrans,
    m_src: NatTrans,
    m_tgt: NatTrans,
    reads: list,
) -> Iterator[str]:
    """Fiber objects at which components m_src, m_tgt of a modification x -> y,
    at the source and target of phi, fail to commute with the two-cells
    x_phi, y_phi at phi; ``reads`` is ``_fiber_reads(D, phi)``.

    Both callers pass typed components, so the composites are read from the
    table.  On a lookup that fails, the same comparison is made again with
    the checked ``compose``, which raises what it always raised: an
    ill-typed two-cell is named by the same DomainError."""
    comp = X.composition
    x_c, y_c, m_a, m_b = x_phi.components, y_phi.components, m_src.components, m_tgt.components
    for p, a, b in reads:
        try:
            differs = comp[(m_a[a], y_c[p])] != comp[(x_c[p], m_b[b])]
        except KeyError:
            differs = compose(X, m_a[a], y_c[p]) != compose(X, x_c[p], m_b[b])
        if differs:
            yield p


def enumerate_modifications(x: LaxTransformation, y: LaxTransformation) -> list[Modification]:
    """All modifications x -> y in canonical componentwise order.

    Searches one natural transformation per index object; the two-cell
    compatibility at an index arrow is checked once both of its endpoint
    components are chosen. The modification search is prepared once per
    call, on x's diagram.
    """
    if x.source != y.source or x.target != y.target:
        raise DomainError("modification endpoints are not parallel")
    objs = x.source.index.objects
    per_object = [enumerate_nat_trans(x.components[a], y.components[a]) for a in objs]
    search = modification_search(x.source, x.target)
    return [
        Modification(src=x, tgt=y, components=dict(zip(objs, vals)))
        for vals in search(x, y, per_object)
    ]


def modification_search(D: Pseudofunctor, X: FinCategory) -> Callable:
    """The search behind ``enumerate_modifications``, set up once for
    transformations D -> X, for callers that list the natural
    transformations between components themselves.

    Returns ``search(x, y, per_object)``, which yields the compatible
    choices of one component per index object, drawn from ``per_object``
    (the natural transformations between the components of x and y, in
    index-object order), in canonical order; the yielded list is reused:
    copy what you keep. The compatibility at an index arrow is checked at
    the slot that closes it, the later of its endpoints. Those closing
    lists and, for each arrow, the fibre objects and object map that the
    check reads (``_fiber_reads``) depend only on D and are prepared here,
    once. Per pair, the search yields nothing when some list in
    ``per_object`` is empty, since that slot has no candidate."""
    idx = D.index
    slot = {a: i for i, a in enumerate(idx.objects)}
    arrows_closed: list[list] = [[] for _ in idx.objects]
    for phi in idx.arrows:
        s, t = slot[idx.src[phi]], slot[idx.tgt[phi]]
        arrows_closed[max(s, t)].append((phi, s, t, _fiber_reads(D, phi)))

    def search(x: LaxTransformation, y: LaxTransformation, per_object: list) -> Iterator[list]:
        if not all(per_object):
            return iter(())
        x_cells, y_cells = x.two_cells, y.two_cells

        def compatible(i: int, vals: list) -> bool:
            for phi, s, t, reads in arrows_closed[i]:
                for _ in _incompatible_fibers(
                    X, x_cells[phi], y_cells[phi], vals[s], vals[t], reads
                ):
                    return False
            return True

        return backtrack(len(per_object), lambda i, vals: per_object[i], compatible)

    return search


def identity_modification(x: LaxTransformation) -> Modification:
    components = {}
    for a in x.source.index.objects:
        F = x.components[a]
        components[a] = NatTrans(
            src=F,
            tgt=F,
            components={p: x.target.identity[F.on_objects[p]] for p in F.dom.objects},
        )
    return Modification(src=x, tgt=x, components=components)


def compose_modifications(m: Modification, n: Modification) -> Modification:
    """Vertical composite, m then n."""
    if m.tgt != n.src:
        raise DomainError("modifications are not vertically composable")
    X = m.src.target
    components = {}
    for a in m.src.source.index.objects:
        g, h = m.components[a], n.components[a]
        components[a] = NatTrans(
            src=g.src,
            tgt=h.tgt,
            components={
                p: compose(X, g.components[p], h.components[p]) for p in g.src.dom.objects
            },
        )
    return Modification(src=m.src, tgt=n.tgt, components=components)
