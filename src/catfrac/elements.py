"""Category of elements of a diagram, canonical cocone, cleavage, colimit UP.

The carrier category has one object per pair (index object, fiber object)
and one arrow per pair (index arrow, fiber datum), where the fiber datum is
a pair (coordinate, fiber arrow) drawn from the matching pullback.  Every
object and arrow keeps its originating tag, so downstream constructions
never have to parse names.

Covariant arrows (phi; x; f) have x in the source fiber and f a fiber arrow
out of D(phi)(x); contravariant ones have x in the target fiber and f a
fiber arrow into D(phi)(x).  Composition follows the comparison-cell
formulas, so the carrier is a category exactly because the diagram is
coherent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .diagram import (
    LaxTransformation,
    Pseudofunctor,
    compositor_inverse_component,
    enumerate_transformations,
    expected_endpoints,
    modification_search,
    require_lawful,
    two_cell_endpoints,
    unitor_inverse_component,
)
from .errors import DomainError
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    compose,
    compose_functors,
    compose_many,
    enumerate_functors,
    functor_key,
    nat_trans_search,
    uniquify,
)
from .verify import Correspondence, VerifierReport, check_correspondence


@dataclass(eq=True)
class ElementsCategory:
    """Carrier category plus the tags tying it back to the diagram."""

    carrier: FinCategory
    object_tags: dict
    arrow_tags: dict
    diagram: Pseudofunctor
    object_index: dict
    arrow_index: dict

    def object_name(self, a: str, x: str) -> str:
        return self.object_index[(a, x)]

    def arrow_name(self, phi: str, x: str, f: str) -> str:
        return self.arrow_index[(phi, x, f)]


@dataclass(eq=True)
class CleavageSet:
    """The chosen arrows (phi; b; identity), one per index arrow and
    target-fiber object, in declaration order."""

    members: tuple


def grothendieck(D: Pseudofunctor) -> ElementsCategory:
    """Category of elements of a diagram; refuses an unlawful one
    (``require_lawful``), since the carrier is a category only because the
    diagram is coherent."""
    require_lawful(D)
    idx = D.index

    obj_tag_list = [(A, a) for A in idx.objects for a in D.cat(A).objects]
    obj_names = uniquify([f"({A};{a})" for A, a in obj_tag_list])
    object_index = dict(zip(obj_tag_list, obj_names))
    object_tags = dict(zip(obj_names, obj_tag_list))

    arr_tag_list = []
    for phi in idx.arrows:
        coords, fibers = expected_endpoints(D, phi)
        fiber_arrows = fibers.out_of if D.variance == "covariant" else fibers.into
        for x in coords.objects:
            for f in fiber_arrows(D.fun(phi).on_objects[x]):
                arr_tag_list.append((phi, x, f))
    arr_names = uniquify([f"({phi};{x};{f})" for phi, x, f in arr_tag_list])
    arrow_index = dict(zip(arr_tag_list, arr_names))
    arrow_tags = dict(zip(arr_names, arr_tag_list))

    arrows_decl = []
    for (phi, x, f), name in zip(arr_tag_list, arr_names):
        A, B = idx.src[phi], idx.tgt[phi]
        if D.variance == "covariant":
            s = object_index[(A, x)]
            t = object_index[(B, D.cat(B).tgt[f])]
        else:
            s = object_index[(A, D.cat(A).src[f])]
            t = object_index[(B, x)]
        arrows_decl.append((name, s, t))
    tgtmap = {name: t for name, _, t in arrows_decl}
    # listing the arrows out of each object in declaration order makes the
    # composition loop visit only composable pairs, in the order of the
    # full product
    arrows_out: dict = {}
    for name, s, _ in arrows_decl:
        arrows_out.setdefault(s, []).append(name)

    identity = {}
    for (A, a), name in object_index.items():
        if D.variance == "covariant":
            fid = D.unitors[A].components[a]
        else:
            fid = unitor_inverse_component(D, A, a)
        identity[name] = arrow_index[(idx.identity[A], a, fid)]

    composition = {}
    for n1 in arr_names:
        for n2 in arrows_out.get(tgtmap[n1], ()):
            phi, x1, f = arrow_tags[n1]
            psi, x2, g = arrow_tags[n2]
            comp = idx.composition[(phi, psi)]
            if D.variance == "covariant":
                fibers = D.cat(idx.tgt[psi])
                h = compose_many(
                    fibers,
                    D.compositor(phi, psi).components[x1],
                    D.fun(psi).on_arrows[f],
                    g,
                )
                composition[(n1, n2)] = arrow_index[(comp, x1, h)]
            else:
                fibers = D.cat(idx.src[phi])
                h = compose_many(
                    fibers,
                    f,
                    D.fun(phi).on_arrows[g],
                    compositor_inverse_component(D, phi, psi, x2),
                )
                composition[(n1, n2)] = arrow_index[(comp, x2, h)]

    carrier = FinCategory.build(obj_names, arrows_decl, identity, composition)
    return ElementsCategory(
        carrier=carrier,
        object_tags=object_tags,
        arrow_tags=arrow_tags,
        diagram=D,
        object_index=object_index,
        arrow_index=arrow_index,
    )


def canonical_cocone(D: Pseudofunctor, GD: ElementsCategory) -> LaxTransformation:
    """The tautological transformation from the diagram into its carrier;
    an unlawful diagram is refused with InputError (``require_lawful``)."""
    require_lawful(D)
    idx = D.index
    components = {}
    for A in idx.objects:
        fiber = D.cat(A)
        ida = idx.identity[A]
        on_objects = {a: GD.object_name(A, a) for a in fiber.objects}
        on_arrows = {}
        for f in fiber.arrows:
            if D.variance == "covariant":
                a = fiber.src[f]
                lifted = compose(fiber, D.unitors[A].components[a], f)
                on_arrows[f] = GD.arrow_name(ida, a, lifted)
            else:
                b = fiber.tgt[f]
                lifted = compose(fiber, f, unitor_inverse_component(D, A, b))
                on_arrows[f] = GD.arrow_name(ida, b, lifted)
        components[A] = Functor(fiber, GD.carrier, on_objects, on_arrows)

    two_cells = {}
    for phi in idx.arrows:
        # the cell at a coordinate x is the arrow (phi; x; identity of D(phi)(x))
        coords, fibers = expected_endpoints(D, phi)
        F = D.fun(phi)
        cells = {x: GD.arrow_name(phi, x, fibers.identity[F.on_objects[x]]) for x in coords.objects}
        two_cells[phi] = NatTrans(*two_cell_endpoints(D, components, phi), components=cells)
    return LaxTransformation(
        source=D, target=GD.carrier, components=components, two_cells=two_cells
    )


def cleavage(GD: ElementsCategory) -> CleavageSet:
    """The arrows to invert: one (phi; b; identity) per index arrow phi and
    object b of the fiber over its target."""
    D = GD.diagram
    if D.variance != "contravariant":
        raise DomainError("cleavage is defined for contravariant diagrams only")
    idx = D.index
    members = []
    for phi in idx.arrows:
        B = idx.tgt[phi]
        for b in D.cat(B).objects:
            fid = D.cat(idx.src[phi]).identity[D.fun(phi).on_objects[b]]
            members.append(GD.arrow_name(phi, b, fid))
    return CleavageSet(tuple(members))


def transformation_to_functor(x: LaxTransformation, GD: ElementsCategory) -> Functor:
    """Collapse a transformation into a single functor off the carrier."""
    if x.source != GD.diagram:
        raise DomainError("transformation is not over this carrier's diagram")
    D = GD.diagram
    idx = D.index
    X = x.target
    on_objects = {
        name: x.components[A].on_objects[a] for name, (A, a) in GD.object_tags.items()
    }
    on_arrows = {}
    for name, (phi, coord, f) in GD.arrow_tags.items():
        A, B = idx.src[phi], idx.tgt[phi]
        if D.variance == "covariant":
            on_arrows[name] = compose(
                X, x.two_cells[phi].components[coord], x.components[B].on_arrows[f]
            )
        else:
            on_arrows[name] = compose(
                X, x.components[A].on_arrows[f], x.two_cells[phi].components[coord]
            )
    return Functor(GD.carrier, X, on_objects, on_arrows)


def _whiskering(GD: ElementsCategory) -> Callable[[Functor], LaxTransformation]:
    """``functor_to_transformation`` off GD, with the canonical cocone built
    once for every functor it whiskers."""
    D = GD.diagram
    ell = canonical_cocone(D, GD)

    def whisker(F: Functor) -> LaxTransformation:
        if F.dom != GD.carrier:
            raise DomainError("functor domain is not this carrier")
        components = {A: compose_functors(ell.components[A], F) for A in D.index.objects}
        two_cells = {}
        for phi in D.index.arrows:
            src_fun, tgt_fun = two_cell_endpoints(D, components, phi)
            cells = {
                p: F.on_arrows[c] for p, c in ell.two_cells[phi].components.items()
            }
            two_cells[phi] = NatTrans(src=src_fun, tgt=tgt_fun, components=cells)
        return LaxTransformation(
            source=D, target=F.cod, components=components, two_cells=two_cells
        )

    return whisker


def functor_to_transformation(F: Functor, GD: ElementsCategory) -> LaxTransformation:
    """Whisker the canonical cocone with a functor off the carrier."""
    return _whiskering(GD)(F)


def modification_cells(GD: ElementsCategory, X: FinCategory) -> Callable:
    """Modifications between transformations out of GD's diagram into X:
    ``between(x, y)`` lists the modifications x => y in canonical order.

    A modification is the tuple of its components at the carrier objects
    (A; a), in carrier order.  It crosses to the natural transformation
    between the collapsed functors whose component at (A; a) is its
    component at A, a: the same tuple, since functors off the carrier (and
    off its localization) share its object order.

    The work that depends on one transformation is done once per
    transformation: its component functors are numbered, per index object,
    by their maps (every transformation here goes into X, so the maps fix
    the functor), and whether each is typed is decided with its number.
    The natural transformations between the components at one index object
    are searched once per pair of numbers, by a search prepared once per
    index object, and kept by that pair; the modification search is
    prepared once per call of this function.  ``between`` returns [] at the
    first index object whose list is empty, since the modification search
    would have no candidate there.  It returns early only when every
    component of x and y is typed, so no search it leaves out could raise:
    on other input it searches every index object in order, and the first
    DomainError raises as it would without the early return.
    """
    D = GD.diagram
    objs = D.index.objects
    slot = {A: s for s, A in enumerate(objs)}
    tags = [GD.object_tags[name] for name in GD.carrier.objects]
    picks = [(slot[A], a) for A, a in tags]
    fibers = [D.cat(A) for A in objs]
    natural_between = [nat_trans_search(C, X) for C in fibers]
    compatible = modification_search(D, X)
    numbers: list = [{} for _ in objs]  # per index object: functor key -> number
    numbered: list = [[] for _ in objs]  # per index object: the functor of each number
    searched: list = [{} for _ in objs]  # per index object: (number, number) -> cells
    entries: dict = {}  # id(transformation) -> (it, its numbers, whether all are typed)

    def interned(x: LaxTransformation) -> tuple:
        # the entry holds x, so no other object takes its id meanwhile
        entry = entries.get(id(x))
        if entry is None:
            ks, typed = [], True
            for s, A in enumerate(objs):
                F = x.components[A]
                k = numbers[s].setdefault(functor_key(F), len(numbered[s]))
                if k == len(numbered[s]):
                    numbered[s].append((F, _typed(fibers[s], X, F)))
                ks.append(k)
                typed = typed and numbered[s][k][1]
            entry = entries[id(x)] = (x, ks, typed)
        return entry

    def between(x: LaxTransformation, y: LaxTransformation) -> list[tuple]:
        _, kx, typed_x = interned(x)
        _, ky, typed_y = interned(y)
        early = typed_x and typed_y
        per_object = []
        for s, (i, j) in enumerate(zip(kx, ky)):
            found = searched[s].get((i, j))
            if found is None:
                F, G = numbered[s][i][0], numbered[s][j][0]
                names = fibers[s].objects
                found = searched[s][(i, j)] = [
                    NatTrans(F, G, dict(zip(names, cell))) for cell in natural_between[s](F, G)
                ]
            if early and not found:
                return []
            per_object.append(found)
        return [
            tuple([vals[s].components[a] for s, a in picks])
            for vals in compatible(x, y, per_object)
        ]

    return between


def _typed(C: FinCategory, X: FinCategory, F: Functor) -> bool:
    """Whether F sends every object of C to an object of X and every arrow
    of C to an arrow of X between the images of its ends: then a natural
    transformation search on C reads every image of F it needs, and every
    composite, since X's table is total."""
    Fo, Fa = F.on_objects, F.on_arrows
    return all(Fo.get(x) in X.identity for x in C.objects) and all(
        f in Fa and (X.src.get(Fa[f]), X.tgt.get(Fa[f])) == (Fo[C.src[f]], Fo[C.tgt[f]])
        for f in C.arrows
    )


def verify_oplax_colimit(
    D: Pseudofunctor, X: FinCategory, GD: Optional[ElementsCategory] = None
) -> VerifierReport:
    """Check that functors off the carrier match transformations out of D.

    Confirms the two 1-cell maps are mutually inverse bijections, and that
    the modifications between two transformations are exactly the natural
    transformations between their images.  Identities match identities
    without a check: the identity modification of x and the identity of
    its collapsed functor are both the identity at x's component images.
    The optional carrier override exists so callers can aim the verifier at
    a deliberately broken carrier and watch it fail.
    """
    if GD is None:
        GD = grothendieck(D)
    report = VerifierReport(title="oplax colimit universal property")
    funs = enumerate_functors(GD.carrier, X)
    trans = enumerate_transformations(D, X, "lax")
    report.stats["functors"] = len(funs)
    report.stats["transformations"] = len(trans)
    correspondence = Correspondence(
        noun="transformation",
        left=trans,
        right=funs,
        forward=lambda t: transformation_to_functor(t, GD),
        back=_whiskering(GD),
        cell_noun="modification",
        between=modification_cells(GD, X),
    )
    return check_correspondence(report, correspondence)
