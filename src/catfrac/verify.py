"""Universal properties checked as correspondences, by exhaustive enumeration.

Every verifier confronts a construction with its universal property the same
way: the 1-cells the property quantifies over (lax or pseudo transformations,
functors inverting the marked arrows) must match the functors off the
carrier one to one, and their 2-cells must match natural transformations,
compatibly with identities and vertical composition.  ``check_correspondence``
runs that comparison; a verifier supplies the two sides and the maps between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError
from .fincat import (
    FinCategory,
    NatTrans,
    enumerate_nat_trans,
    functor_key,
    identity_nat_trans,
)


@dataclass
class VerifierReport:
    """Outcome of a universal-property check: counts plus any failures."""

    title: str
    stats: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)

    def __str__(self) -> str:
        stats = ", ".join(f"{k}={v}" for k, v in self.stats.items())
        if self.ok:
            return f"{self.title}: pass ({stats})"
        lines = "\n".join(f"  - {p}" for p in self.problems)
        return f"{self.title}: FAIL ({stats})\n{lines}"


@dataclass
class TwoCells:
    """The 2-cells between left 1-cells and how they cross the correspondence.

    A 2-cell is a tuple of arrows of the common target, one component per
    object in a fixed order: an order the left side chooses, and on the
    right the object order ``F.dom.objects`` of the carrier, so that equal
    2-cells are equal tuples and can be hashed.  ``between(x, y)`` lists
    the 2-cells x => y in canonical order; ``transfer(a, F, G)`` sends one
    to the components of a natural transformation F => G between the
    images of x and y, and ``lift(mu, x, y)`` brings one back.
    ``identity(x)`` and ``compose(a, b)`` are the identity 2-cells and
    vertical composition on the left.
    """

    noun: str
    between: Callable
    transfer: Callable
    lift: Callable
    identity: Callable
    compose: Callable


@dataclass
class Correspondence:
    """The two sides of a universal property and the 1-cell maps between them.

    ``left`` lists the 1-cells the property quantifies over (``noun`` names
    one), ``right`` the functors off the carrier. ``forward`` sends a left
    1-cell to a functor off the carrier and raises DomainError where it is
    undefined; ``back`` sends a functor off the carrier to a left 1-cell.
    """

    noun: str
    left: list
    right: list
    forward: Callable
    back: Callable
    cells: TwoCells


def check_correspondence(
    report: VerifierReport, c: Correspondence, cells_stat: str
) -> VerifierReport:
    """Add every way ``c`` fails to be an equivalence to ``report``.

    The phases run in order: 1-cells biject, 2-cells biject pair by pair
    (their count goes into ``report.stats[cells_stat]``), identities and
    vertical composition are preserved. A failed phase stops the check.
    Problems are numbered by position in ``c.left`` and ``c.right``.
    """
    images = _one_cells(report, c)
    if not report.ok:
        return report
    transfers = _two_cells(report, c, images, cells_stat)
    if report.ok:
        _functoriality(report, c, images, transfers)
    return report


def as_cell(mu: NatTrans) -> tuple:
    """The components of ``mu`` in the object order of its domain."""
    return tuple(map(mu.components.__getitem__, mu.src.dom.objects))


def cell_composer(X: FinCategory) -> Callable[[tuple, tuple], tuple]:
    """Componentwise composition in X of 2-cells, a then b.  It reads the
    table directly: callers pass cells whose components already compose."""
    read = X.composition.__getitem__
    return lambda a, b: tuple(map(read, zip(a, b)))


def _one_cells(report: VerifierReport, c: Correspondence) -> list:
    noun = c.noun
    if len(c.left) != len(c.right):
        report.add(f"count mismatch: {len(c.left)} {noun}s vs {len(c.right)} functors")
    right: dict = {}
    for y in c.right:
        right.setdefault(functor_key(y), []).append(y)
    images: list = []
    for i, x in enumerate(c.left):
        try:
            y = c.forward(x)
        except DomainError as exc:
            report.add(f"image of {noun} #{i} is undefined: {exc}")
            images.append(None)
            continue
        images.append(y)
        if not any(y == z for z in right.get(functor_key(y), ())):
            report.add(f"image of {noun} #{i} is not a functor off the carrier")
        elif c.back(y) != x:
            report.add(f"round-trip through the carrier changes {noun} #{i}")
    for i, j in _collisions(images):
        report.add(f"{noun}s #{i} and #{j} collapse to the same functor")
    for k, y in enumerate(c.right):
        try:
            same = c.forward(c.back(y)) == y
        except DomainError as exc:
            report.add(f"round-trip through {noun}s is undefined on functor #{k}: {exc}")
            continue
        if not same:
            report.add(f"round-trip through {noun}s changes functor #{k}")
    return images


def _two_cells(report: VerifierReport, c: Correspondence, images: list, cells_stat: str) -> dict:
    """Check that transfer is a bijection for every pair; return, per pair
    (i, j), the left 2-cells and their transfers."""
    cells = c.cells
    total = 0
    table = {}
    for i, x in enumerate(c.left):
        for j, y in enumerate(c.left):
            ups = cells.between(x, y)
            downs = [as_cell(mu) for mu in enumerate_nat_trans(images[i], images[j])]
            total += len(ups)
            if len(ups) != len(downs):
                report.add(
                    f"2-cell count mismatch between #{i} and #{j}: "
                    f"{len(ups)} {cells.noun}s vs {len(downs)} natural transformations"
                )
                continue
            moved = [cells.transfer(a, images[i], images[j]) for a in ups]
            position: dict = {}
            for p, a in enumerate(ups):
                position.setdefault(a, p)
            table[(i, j)] = (ups, moved)
            natural = set(downs)
            for a, mu in zip(ups, moved):
                if mu not in natural:
                    report.add(f"2-cell image between #{i} and #{j} is not natural")
                elif cells.lift(mu, x, y) != a:
                    report.add(
                        f"2-cell round-trip changes a {cells.noun} between #{i} and #{j}"
                    )
            for mu in downs:
                p = position.get(cells.lift(mu, x, y))
                if p is None:
                    report.add(f"2-cell preimage between #{i} and #{j} is not a {cells.noun}")
                elif moved[p] != mu:
                    report.add(f"2-cell round-trip changes a 2-cell between #{i} and #{j}")
    report.stats[cells_stat] = total
    return table


def _functoriality(report: VerifierReport, c: Correspondence, images: list, table: dict) -> None:
    """Identities and vertical composites transfer to identities and
    vertical composites.  Every transferred 2-cell is one of the enumerated
    natural transformations (``_two_cells`` passed), so the vertical
    composite of two of them reads the table directly."""
    cells = c.cells
    for i, x in enumerate(c.left):
        image = cells.transfer(cells.identity(x), images[i], images[i])
        if image != as_cell(identity_nat_trans(images[i])):
            report.add(f"identity 2-cell of #{i} does not map to the identity")
    n = len(c.left)
    for i in range(n):
        vertical = cell_composer(images[i].cod)
        for j in range(n):
            ups_ij, moved_ij = table[(i, j)]
            if not ups_ij:
                continue
            for k in range(n):
                ups_jk, moved_jk = table[(j, k)]
                for a, mu in zip(ups_ij, moved_ij):
                    for b, nu in zip(ups_jk, moved_jk):
                        lhs = cells.transfer(cells.compose(a, b), images[i], images[k])
                        if lhs != vertical(mu, nu):
                            report.add(
                                f"2-cell composition not preserved between #{i},#{j},#{k}"
                            )


def _collisions(images: list) -> list[tuple[int, int]]:
    """Pairs i < j of positions holding equal functors, in (i, j) order;
    positions holding None are skipped.  Functors are bucketed by a hash of
    their maps, so only equal-looking ones are compared with ==."""
    pairs = []
    earlier: dict = {}
    for j, F in enumerate(images):
        if F is None:
            continue
        bucket = earlier.setdefault(functor_key(F), [])
        pairs += [(i, j) for i in bucket if images[i] == F]
        bucket.append(j)
    return sorted(pairs)
