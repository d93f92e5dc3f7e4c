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
    _category,
    _slot_generators,
    backtrack,
    compose,
    compose_functors,
    compose_many,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    identity_nat_trans,
    nat_trans_search,
    two_sided_inverse,
    validate_category,
    validate_functor,
    validate_nat_trans,
    vertical_compose,
)

VARIANCES = ("covariant", "contravariant")


@dataclass(eq=True)
class Pseudofunctor:
    """Diagram of categories over a finite index category.

    `on_arrows` covers every index arrow including identities.  `unitors`
    maps each index object A to the comparison D(1_A) => Id on D(A);
    `compositors` holds one comparison cell per composable index pair,
    keyed by the pair itself.

    A diagram is not changed after it is built: the first construction that
    reads it decides its laws (``require_lawful``) and the diagram keeps
    that verdict, outside the fields, so ``__eq__`` and ``repr`` ignore it.
    """

    index: FinCategory
    variance: str
    on_objects: dict
    on_arrows: dict
    unitors: dict
    compositors: dict

    def __post_init__(self) -> None:
        # set during __init__, as FinCategory's hom index is: an attribute
        # added later slows every attribute read on the instance
        self._laws = None

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
    cell = D.unitors[a].components[x]
    return _inverse_component(D.cat(a), cell, f"unitor at {a!r}", f"object {x!r}")


def compositor_inverse_component(D: Pseudofunctor, phi: str, psi: str, x: str) -> str:
    host = expected_endpoints(D, D.index.composition[(phi, psi)])[1]
    cell = D.compositor(phi, psi).components[x]
    return _inverse_component(host, cell, f"compositor at ({phi!r}, {psi!r})", repr(x))


def _inverse_component(host: FinCategory, f: str, name: str, at: str) -> str:
    """The inverse in ``host`` of f, the component at ``at`` of the cell
    called ``name``; both names go into the errors."""
    if f not in host.src:
        raise InputError(f"{name} has component {f!r} at {at}, which is not an arrow of its host")
    inv = two_sided_inverse(host, f)
    if inv is None:
        raise DomainError(f"{name} has no inverse at {at}")
    return inv


def _lawful_index(index: FinCategory) -> None:
    """Raise InputError, prefixed "index", at the index's first structural
    gap or violated category law: the compositors and the coherence laws are
    read off its composites, so they must lie where the laws put them."""
    problems = _sub_problems(validate_category, index, "index")
    if problems:
        raise InputError(problems[0])


def _require_assigned(index: FinCategory, on_arrows: dict) -> None:
    """Raise InputError at the first index arrow ``on_arrows`` leaves out."""
    for phi in index.arrows:
        if phi not in on_arrows:
            raise InputError(f"no functor assigned to index arrow {phi!r}")


def validate_pseudofunctor(D: Pseudofunctor) -> ValidationReport:
    """Check every coherence law; structural gaps raise InputError."""
    if D.variance not in VARIANCES:
        raise InputError(f"unknown variance {D.variance!r}")
    _lawful_index(D.index)
    idx = D.index
    for a in idx.objects:
        if a not in D.on_objects:
            raise InputError(f"no category assigned to index object {a!r}")
        if a not in D.unitors:
            raise InputError(f"no unitor at index object {a!r}")
    _require_assigned(idx, D.on_arrows)
    for pair in idx.composable_pairs():
        if pair not in D.compositors:
            raise InputError(f"no compositor for composable pair {pair!r}")

    report = ValidationReport()
    for a in idx.objects:
        where = f"value category at {a!r}"
        report.problems.extend(_sub_problems(validate_category, D.cat(a), where))
    if not report.ok:
        return report  # laws below presuppose sane value categories

    for phi in idx.arrows:
        dom, cod = expected_endpoints(D, phi)
        F = D.fun(phi)
        if F.dom != dom or F.cod != cod:
            report.add(f"functor at {phi!r} has wrong endpoints for {D.variance} variance")
            continue
        report.problems.extend(_sub_problems(validate_functor, F, f"functor at {phi!r}"))
    if not report.ok:
        return report

    for a in idx.objects:
        delta = D.unitors[a]
        ida = idx.identity[a]
        if delta.src != D.fun(ida) or delta.tgt != identity_functor(D.cat(a)):
            report.add(f"unitor at {a!r} does not compare D(1) with the identity functor")
            continue
        report.problems.extend(_sub_problems(validate_nat_trans, delta, f"unitor at {a!r}"))
        for x in D.cat(a).objects:
            if two_sided_inverse(D.cat(a), delta.components[x]) is None:
                report.add(f"unitor at {a!r} not invertible at object {x!r}")

    for (phi, psi), delta in D.compositors.items():
        comp = idx.composition[(phi, psi)]
        if delta.src != D.fun(comp) or delta.tgt != pair_composite_functor(D, phi, psi):
            report.add(f"compositor at ({phi!r}, {psi!r}) has wrong endpoint functors")
            continue
        where = f"compositor at ({phi!r}, {psi!r})"
        report.problems.extend(_sub_problems(validate_nat_trans, delta, where))
        for x in delta.src.dom.objects:
            if two_sided_inverse(delta.src.cod, delta.components[x]) is None:
                report.add(f"compositor at ({phi!r}, {psi!r}) not invertible at {x!r}")
    if not report.ok:
        return report

    _check_unit_coherence(D, report)
    _check_assoc_coherence(D, report)
    return report


def law_verdict(D: Pseudofunctor) -> ValidationReport:
    """``validate_pseudofunctor``'s report on D, computed on the first call
    and kept on D; its problems are a tuple, so no reader can extend it.
    A structural gap raises InputError on every call, as the validator
    raises it."""
    if D._laws is None:
        D._laws = ValidationReport(tuple(validate_pseudofunctor(D).problems))
    return D._laws


def require_lawful(D: Pseudofunctor) -> None:
    """Raise InputError at D's first violated law: every construction that
    reads a diagram presupposes its laws, and decides them here, once per
    diagram (``law_verdict``)."""
    laws = law_verdict(D)
    if not laws.ok:
        raise InputError(laws.problems[0])


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Raise a structural InputError of the block again, prefixed with the
    entry it is about (``where``, as "unitor at 'x'")."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _sub_problems(check: Callable, value, where: str) -> list[str]:
    """The problems of ``check(value)``, each prefixed with the entry it is
    about (``where``); a structural InputError is raised again with the same
    prefix."""
    with naming(where):
        sub = check(value)
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
    breaks a category law, or an index arrow with no functor, raises
    InputError.
    """
    _lawful_index(index)
    _require_assigned(index, on_arrows)
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
    """Wrap a strictly functorial assignment with identity comparison cells.
    An index that is not a FinCategory raises InputError; one with a
    structural defect was refused when it was made."""
    _category(index)
    if variance not in VARIANCES:
        raise InputError(f"unknown variance {variance!r}")
    for a in index.objects:
        if a not in on_objects:
            raise InputError(f"no category assigned to index object {a!r}")
    _require_assigned(index, on_arrows)
    for a in index.objects:
        ida = index.identity[a]
        if on_arrows[ida] != identity_functor(on_objects[a]):
            raise InputError(f"assignment is not strict at identity of {a!r}")
    for phi, psi in index.composable_pairs():
        comp = index.composition[(phi, psi)]
        expected = compose_functors(*variance_order(variance, on_arrows[phi], on_arrows[psi]))
        if on_arrows[comp] != expected:
            raise InputError(f"assignment is not strict at pair ({phi!r}, {psi!r})")

    # D(1_a) is the identity functor, checked above
    unitors = {a: identity_nat_trans(on_arrows[index.identity[a]]) for a in index.objects}
    compositors = {
        pair: identity_nat_trans(on_arrows[index.composition[pair]])
        for pair in index.composable_pairs()
    }
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
    """Check component functors, two-cell typing, and both coherence laws;
    an unlawful diagram is refused with InputError (``require_lawful``)."""
    D = x.source
    require_lawful(D)
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
        report.problems.extend(_sub_problems(validate_functor, F, f"component at {a!r}"))
    if not report.ok:
        return report

    for phi in idx.arrows:
        cell = x.two_cells[phi]
        src_fun, tgt_fun = two_cell_endpoints(D, x.components, phi)
        if cell.src != src_fun or cell.tgt != tgt_fun:
            report.add(f"two-cell at {phi!r} has wrong endpoint functors")
            continue
        report.problems.extend(_sub_problems(validate_nat_trans, cell, f"two-cell at {phi!r}"))
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


def _not_invertible_at(X: FinCategory, cell: NatTrans) -> Optional[str]:
    """The first object, in component order, where ``cell`` has a component
    with no two-sided inverse in X; None when every component is invertible."""
    for obj, f in cell.components.items():
        if two_sided_inverse(X, f) is None:
            return obj
    return None


def enumerate_transformations(
    D: Pseudofunctor, X: FinCategory, kind: str = "lax"
) -> list[LaxTransformation]:
    """All transformations D -> X in canonical order.

    kind 'lax' yields everything; 'pseudo' keeps those whose two-cells are
    all invertible. D must be lawful (``require_lawful`` refuses it with
    InputError) and X a lawful category. Searches component functors per
    index object, then one two-cell per non-identity arrow. A cell is
    checked when chosen, and the coherence of a composable pair of
    non-identity arrows at the last of its cells.

    With D's laws the cell at an index identity is forced: the component
    applied to the unitor (its inverse, for a covariant D), natural and
    invertible for every component. It is built once per component, read
    where a pair composes to that identity, and listed first in each
    output, as the canonical order has it. The coherence at a pair with an
    identity leg holds for every candidate: it is D's unit coherence law
    whiskered with the components, after the other leg's cell is moved
    across the unitor by its naturality. So those pairs are not checked.

    The two-cells at phi are natural transformations between the endpoint
    functors of ``two_cell_endpoints``, both off the category at the index
    object where D(phi) starts (``variance_order``). One ``nat_trans_search``
    is prepared per such index object, before the search starts, and serves
    every choice of components; it returns no cell, so the slot has no
    candidate, when a component hom is empty.

    The cells at a non-identity phi depend only on the components at its
    endpoints, so they are listed at the component slot that closes phi, the
    later of the two (for 'pseudo', only the invertible ones). An empty list
    rejects that component there, since phi's cell slot would have no
    candidate. Within one call each list is kept by (phi, source component,
    target component), so a pair of components reached again costs a dict
    read.
    """
    if kind not in ("lax", "pseudo"):
        raise InputError(f"unknown transformation kind {kind!r}")
    require_lawful(D)
    idx = D.index
    objs = idx.objects
    n = len(objs)
    per_object = [enumerate_functors(D.cat(a), X) for a in objs]
    arrows = [f for f in idx.arrows if not idx.is_identity(f)]
    oslot = {a: i for i, a in enumerate(objs)}
    slot = {phi: n + k for k, phi in enumerate(arrows)}
    # slot -> the pairs of non-identity arrows whose coherence it closes, with
    # j when phi;psi is the identity at object slot j: that cell is forced and
    # has no slot, so the pair closes at the last of its own cells
    pairs_closed: list[list] = [[] for _ in range(n + len(arrows))]
    for phi, psi in idx.composable_pairs():
        if idx.is_identity(phi) or idx.is_identity(psi):
            continue  # holds by D's unit coherence
        comp = idx.composition[(phi, psi)]
        j = oslot[idx.src[phi]] if idx.is_identity(comp) else None
        pairs_closed[max(slot[phi], slot[psi], slot.get(comp, 0))].append((phi, psi, j))
    natural: dict = {}  # index object -> (its category's objects, the search on it)
    cell_searches = []  # per non-identity arrow: (phi, source slot, target slot, names, search)
    arrows_closed: list[list] = [[] for _ in objs]  # component slot -> arrows it closes
    for k, phi in enumerate(arrows):
        A = variance_order(D.variance, idx.src[phi], idx.tgt[phi])[0]
        if A not in natural:
            natural[A] = (D.cat(A).objects, nat_trans_search(D.cat(A), X))
        s, t = oslot[idx.src[phi]], oslot[idx.tgt[phi]]
        cell_searches.append((phi, s, t) + natural[A])
        arrows_closed[max(s, t)].append(k)
    # per_object holds every component for the whole call, so a component's
    # id names it in these keys
    forced: dict = {}  # id(component at a) -> a's identity cell
    listed: dict = {}  # (k, id(source component), id(target component)) -> candidate cells

    def identity_cell(j: int, vals: list) -> NatTrans:
        cell = forced.get(id(vals[j]))
        if cell is None:
            cell = forced[id(vals[j])] = identity_two_cell(D, {objs[j]: vals[j]}, objs[j])
        return cell

    def arrow_cells(k: int, vals: list) -> list:
        phi, s, t, names, search = cell_searches[k]
        key = (k, id(vals[s]), id(vals[t]))
        found = listed.get(key)
        if found is None:
            a, b = objs[s], objs[t]
            F, G = two_cell_endpoints(D, {a: vals[s], b: vals[t]}, phi)
            found = [NatTrans(F, G, dict(zip(names, cell))) for cell in search(F, G)]
            if kind == "pseudo":
                found = [cell for cell in found if _not_invertible_at(X, cell) is None]
            listed[key] = found
        return found

    def domain(i: int, vals: list):
        return per_object[i] if i < n else arrow_cells(i - n, vals)

    def accept(i: int, vals: list) -> bool:
        if i < n:
            return all(arrow_cells(k, vals) for k in arrows_closed[i])
        if pairs_closed[i]:
            components, cells = dict(zip(objs, vals)), dict(zip(arrows, vals[n : i + 1]))
            for phi, psi, j in pairs_closed[i]:
                if j is not None:
                    cells[idx.identity[objs[j]]] = identity_cell(j, vals)
                for _ in _incoherent_fibers(D, X, components, cells, phi, psi):
                    return False
        return True

    found = []
    for vals in backtrack(n + len(arrows), domain, accept):
        cells = {idx.identity[a]: identity_cell(j, vals) for j, a in enumerate(objs)}
        cells.update(zip(arrows, vals[n:]))
        found.append(LaxTransformation(D, X, dict(zip(objs, vals)), cells))
    return found


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
        report.problems.extend(_sub_problems(validate_nat_trans, g, f"component at {a!r}"))
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

    The one caller, ``validate_modification``, has checked the components
    m_src and m_tgt, but not the two-cells of x and y, so the composites are
    read from the table first.  On a lookup that fails, the same comparison
    is made again with the checked ``compose``, which raises what it always
    raised: an ill-typed two-cell is named by the same DomainError."""
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
    compatibility is checked as ``modification_search`` does, on the index
    arrows the laws leave open, so x and y must be lawful transformations
    of a lawful diagram into a lawful category (``validate_modification``
    checks every arrow). The modification search is prepared once per call,
    on x's diagram.
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

    Returns ``search(x, y, per_object)``, which lists the compatible
    choices of one component per index object, drawn from ``per_object``
    (the natural transformations between the components of x and y, in
    index-object order), in canonical order, each a fresh list. At each
    slot the search checks the compatibility at the index arrows that
    ``fincat._slot_generators`` keeps there. At an identity it holds by
    the unit axiom of x and y and the naturality of the component, and at
    phi.psi it pastes from phi and psi through their composition axiom,
    whose compositor is invertible; so the choices accepted at each slot
    are those that checking every arrow at the slot that closes it, the
    later of its endpoints, would accept. This needs x and y lawful
    transformations of a lawful D into a lawful X, and natural
    transformations in ``per_object``. The kept arrows and, for each, the
    fibre objects and object map that the check reads (``_fiber_reads``)
    depend only on D and are prepared here, once. Per pair, the search
    returns [] when some list in ``per_object`` is empty, since that slot
    has no candidate.

    The slot loop is written out in the returned function, with the
    compatibility checked inline as ``_incompatible_fibers`` checks it
    (a table read, and on a failed read the checked ``compose``, which
    names an ill-typed two-cell), so a pair costs no generator, closure or
    call per candidate. It visits the candidates in ``backtrack``'s order.
    """
    idx = D.index
    slot = {a: i for i, a in enumerate(idx.objects)}
    arrows_closed = [
        [(phi, slot[idx.src[phi]], slot[idx.tgt[phi]], _fiber_reads(D, phi)) for phi in kept]
        for kept in _slot_generators(idx)
    ]
    last = len(idx.objects) - 1
    comp = X.composition

    def search(x: LaxTransformation, y: LaxTransformation, per_object: list) -> list[list]:
        if not all(per_object):
            return []
        if not per_object:
            return [[]]
        x_cells, y_cells = x.two_cells, y.two_cells
        vals = [None] * len(per_object)
        found = []
        stack = [iter(per_object[0])]
        while stack:
            i = len(stack) - 1
            for vals[i] in stack[i]:
                for phi, s, t, reads in arrows_closed[i]:
                    x_c, y_c = x_cells[phi].components, y_cells[phi].components
                    m_a, m_b = vals[s].components, vals[t].components
                    for p, a, b in reads:
                        try:
                            if comp[(m_a[a], y_c[p])] != comp[(x_c[p], m_b[b])]:
                                break
                        except KeyError:
                            if compose(X, m_a[a], y_c[p]) != compose(X, x_c[p], m_b[b]):
                                break
                    else:
                        continue
                    break  # incompatible at phi
                else:
                    break  # compatible at every arrow slot i checks
            else:
                stack.pop()
                continue
            if i == last:
                found.append(vals[:])
            else:
                stack.append(iter(per_object[i + 1]))
        return found

    return search


def identity_modification(x: LaxTransformation) -> Modification:
    components = {a: identity_nat_trans(x.components[a]) for a in x.source.index.objects}
    return Modification(src=x, tgt=x, components=components)


def compose_modifications(m: Modification, n: Modification) -> Modification:
    """Vertical composite, m then n."""
    if m.tgt != n.src:
        raise DomainError("modifications are not vertically composable")
    objs = m.src.source.index.objects
    components = {a: vertical_compose(m.components[a], n.components[a]) for a in objs}
    return Modification(src=m.src, tgt=n.tgt, components=components)
