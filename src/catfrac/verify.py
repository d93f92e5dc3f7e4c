"""Universal properties checked as correspondences, by exhaustive enumeration.

Every verifier confronts a construction with its universal property the same
way: the 1-cells the property quantifies over (lax or pseudo transformations,
functors inverting the marked arrows) must match the functors off the
carrier one to one, and their 2-cells must match natural transformations.
Both sides write a 2-cell as the tuple of its components in the carrier's
object order, so the 2-cell correspondence is the identity on tuples: the
2-cells between two 1-cells must be exactly the natural transformations
between their images.  Identities and vertical composition need no check of
their own.  An identity 2-cell is, on both sides, the identity arrow at the
image of each carrier object, one formula on the image's object map; and
both sides compose tuples componentwise in the target by the same formula.
``check_correspondence`` runs that comparison; a verifier supplies the two
sides and the maps between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError
from .fincat import functor_key, nat_trans_search


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
class Correspondence:
    """The two sides of a universal property and the 1-cell maps between them.

    ``left`` lists the 1-cells the property quantifies over (``noun`` names
    one), ``right`` the functors off the carrier. ``forward`` sends a left
    1-cell to a functor off the carrier and raises DomainError where it is
    undefined; ``back`` sends a functor off the carrier to a left 1-cell,
    and may raise DomainError the same way. Both must be functions: equal
    arguments give equal results, so each round trip is formed once.
    ``between(x, y)`` lists the 2-cells x => y (``cell_noun`` names one) in
    canonical order, each a tuple of arrows of the common target, one
    component per carrier object in the carrier's object order
    ``F.dom.objects``; so equal 2-cells are equal tuples and can be hashed.
    """

    noun: str
    left: list
    right: list
    forward: Callable
    back: Callable
    cell_noun: str
    between: Callable


def check_correspondence(report: VerifierReport, c: Correspondence) -> VerifierReport:
    """Add every way ``c`` fails to be an equivalence to ``report``.

    The phases run in order: 1-cells biject, then 2-cells biject pair by
    pair (their count goes into ``report.stats`` under the plural of
    ``c.cell_noun``); the 2-cell phase runs only if the 1-cells passed.
    Problems are numbered by position in ``c.left`` and ``c.right``. The
    1-cell phase calls ``c.back`` once per right functor on a passing check:
    a round trip the left pass closes is not formed again from the right.
    A DomainError from ``c.forward`` or ``c.back`` is reported, never raised.
    """
    images = _one_cells(report, c)
    if report.ok:
        _two_cells(report, c, images)
    return report


def _one_cells(report: VerifierReport, c: Correspondence) -> list:
    """Check that ``c.forward`` and ``c.back`` are mutually inverse
    bijections; returns the images of ``c.left``, None where undefined.

    Each round trip is formed once. When the left pass finds x with
    forward(x) equal to right functor k and back of it equal to x, then
    forward(back(functor k)) is forward(x), functor k again, since both
    maps are functions; so the right pass checks only the other functors."""
    noun = c.noun
    if len(c.left) != len(c.right):
        report.add(f"count mismatch: {len(c.left)} {noun}s vs {len(c.right)} functors")
    right: dict = {}
    for k, y in enumerate(c.right):
        right.setdefault(functor_key(y), []).append(k)
    settled: set = set()
    images: list = []
    for i, x in enumerate(c.left):
        try:
            y = c.forward(x)
        except DomainError as exc:
            report.add(f"image of {noun} #{i} is undefined: {exc}")
            images.append(None)
            continue
        images.append(y)
        equal = [k for k in right.get(functor_key(y), ()) if c.right[k] == y]
        if not equal:
            report.add(f"image of {noun} #{i} is not a functor off the carrier")
            continue
        try:
            back = c.back(y)
        except DomainError as exc:
            report.add(f"round-trip through the carrier is undefined on {noun} #{i}: {exc}")
            continue
        if back != x:
            report.add(f"round-trip through the carrier changes {noun} #{i}")
        else:
            settled.update(equal)
    for i, j in _collisions(images):
        report.add(f"{noun}s #{i} and #{j} collapse to the same functor")
    for k, y in enumerate(c.right):
        if k in settled:
            continue
        try:
            same = c.forward(c.back(y)) == y
        except DomainError as exc:
            report.add(f"round-trip through {noun}s is undefined on functor #{k}: {exc}")
            continue
        if not same:
            report.add(f"round-trip through {noun}s changes functor #{k}")
    return images


def _two_cells(report: VerifierReport, c: Correspondence, images: list) -> None:
    """Check, for every pair (i, j), that the left 2-cells are exactly the
    natural transformations between the images, as sets of tuples. The
    images are functors off one carrier, so one prepared search serves
    every pair.

    Most pairs hold no 2-cell or one, so a pair's fixed cost is most of
    the phase: both sides list their 2-cells in canonical order, and a
    pair whose two lists are equal is passed without building the sets,
    which would report nothing on it. Unequal lists get the set
    comparison, in the order below."""
    natural_between = nat_trans_search(images[0].dom, images[0].cod) if images else None
    between, total = c.between, 0
    for i, x in enumerate(c.left):
        for j, y in enumerate(c.left):
            ups = between(x, y)
            downs = natural_between(images[i], images[j])
            total += len(ups)
            if ups == downs:
                continue
            if len(ups) != len(downs):
                report.add(
                    f"2-cell count mismatch between #{i} and #{j}: "
                    f"{len(ups)} {c.cell_noun}s vs {len(downs)} natural transformations"
                )
                continue
            natural = set(downs)
            for a in ups:
                if a not in natural:
                    report.add(f"2-cell image between #{i} and #{j} is not natural")
            listed = set(ups)
            for mu in downs:
                if mu not in listed:
                    report.add(f"2-cell preimage between #{i} and #{j} is not a {c.cell_noun}")
    report.stats[f"{c.cell_noun}s"] = total


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
