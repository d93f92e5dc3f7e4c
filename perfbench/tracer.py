"""Spans and counters around the library's public functions.

``Tracer.install()`` replaces each traced function in every ``catfrac``
module namespace that binds it: the defining module, each module that did
``from .fincat import ...``, and the package ``__init__``. A name bound at
import time would otherwise bypass the wrapper. Imports inside functions
read the module attribute at call time, so they see the wrapper too.
``uninstall()`` puts the originals back.

A span's self time is its duration minus the durations of the spans it
directly encloses. ``fincat.compose`` is counted but not spanned: it is
called millions of times per run, and its time stays in its caller.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

from catfrac.errors import AxiomError

# layer -> public functions that get a span
SPANNED = {
    "fincat": (
        "enumerate_functors",
        "enumerate_nat_trans",
        "find_isomorphism",
        "validate_category",
        "vertical_compose",
    ),
    "diagram": ("enumerate_transformations", "enumerate_modifications", "compose_modifications"),
    "elements": (
        "grothendieck",
        "transformation_to_functor",
        "functor_to_transformation",
        "verify_oplax_colimit",
    ),
    "fractions": (
        "check_axioms",
        "localize",
        "span_compose",
        "shape_instances",
        "induced_functor",
        "verify_localization_up",
        "verify_pseudocolimit",
    ),
    "ambient": (
        "internal_elements",
        "internal_cleavage",
        "internal_localize",
        "verify_pairs_coequalizer",
        "externalize",
        "pullback",
        "coequalize_reflexive",
        "verify_cover_class",
    ),
    "cli": ("main",),
}
# layer -> public functions that are only counted
COUNTED = {"fincat": ("compose",)}
# work counters, derived from results at span boundaries
WORK = (
    "fincat.functors_out",
    "fincat.nat_trans_out",
    "diagram.transformations_out",
    "diagram.modifications_out",
    "elements.carrier_arrows",
    "fractions.spans",
    "fractions.sailboats",
    "fractions.classes",
    "fractions.axiom_errors",
    "ambient.pullback_rows",
    "cli.exit_nonzero",
)


class _Frame:
    __slots__ = ("child_s", "nat_trans_lens")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.nat_trans_lens: list[int] = []


class Tracer:
    """Collects calls, self time and work counts per traced function."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.tuples_tried = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` in a span called ``name`` (``layer.function``)."""
        stack, clock, calls, self_s = self._stack, self.clock, self.calls, self.self_s
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except AxiomError:
                if name == "fractions.localize":
                    self.work["fractions.axiom_errors"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
            if on_result is not None:
                on_result(result, args, frame)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counters, one hook per span that produces work ------------------------

    def _after_fincat_enumerate_functors(self, result, args, frame) -> None:
        self.work["fincat.functors_out"] += len(result)

    def _after_fincat_enumerate_nat_trans(self, result, args, frame) -> None:
        self.work["fincat.nat_trans_out"] += len(result)
        if self._stack:
            self._stack[-1].nat_trans_lens.append(len(result))

    def _after_diagram_enumerate_transformations(self, result, args, frame) -> None:
        self.work["diagram.transformations_out"] += len(result)

    def _after_diagram_enumerate_modifications(self, result, args, frame) -> None:
        # component tuples tried = product of the per-object child enumerations
        self.work["diagram.modifications_out"] += len(result)
        self.tuples_tried += math.prod(frame.nat_trans_lens)

    def _after_elements_grothendieck(self, result, args, frame) -> None:
        self.work["elements.carrier_arrows"] += len(result.carrier.arrows)

    def _after_fractions_shape_instances(self, result, args, frame) -> None:
        kind = args[1] if len(args) > 1 else None
        if kind == "spn":
            self.work["fractions.spans"] += len(result)
        elif kind == "sb":
            self.work["fractions.sailboats"] += len(result)

    def _after_fractions_localize(self, result, args, frame) -> None:
        self.work["fractions.classes"] += len(result.carrier.arrows)

    def _after_ambient_pullback(self, result, args, frame) -> None:
        self.work["ambient.pullback_rows"] += result[0].size

    def _after_cli_main(self, result, args, frame) -> None:
        if result != 0:
            self.work["cli.exit_nonzero"] += 1

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a catfrac module binds it."""
        import catfrac.cli  # noqa: F401  (the cli module is traced too)

        modules = [m for n, m in list(sys.modules.items()) if n == "catfrac" or n.startswith("catfrac.")]
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for layer, names in table.items():
                home = sys.modules[f"catfrac.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = make(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def metrics(self, per: float = 1.0) -> dict[str, float]:
        """Every per-layer figure, divided by ``per``; untouched layers read 0."""
        out: dict[str, float] = {}
        for layer, names in SPANNED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = self.calls[name] / per
                out[f"{name}.self_s"] = self.self_s[name] / per
        for layer, names in COUNTED.items():
            for fname in names:
                out[f"{layer}.{fname}.calls"] = self.calls[f"{layer}.{fname}"] / per
        for name in WORK:
            out[name] = self.work[name] / per
        tried = self.tuples_tried
        out["diagram.modification_yield"] = (
            self.work["diagram.modifications_out"] / tried if tried else 0.0
        )
        return out
