"""The three workloads, as seeded rounds of checked ops.

An op is one call a user would make. Its ``call`` is what the benchmark
times; its ``check`` runs after the timer stops. ``check`` raises
``WrongAnswer`` when a known answer or a negative control is violated, and
otherwise returns the op's canonical output as text, which the runner
digests. A round is a fixed list of 25 ops; a run repeats whole rounds, so
every op has one sample per round.

Known answers are closed forms that need no library code:

- ``chain(n)`` with every arrow marked localizes to n^2 classes;
- ``chain(n)`` with its identities plus ``i<i+1`` marked gives
  n(n+1)/2 + 1 classes;
- ``Z/n`` with every arrow marked gives n classes;
- a monoid localized at its identity is isomorphic to itself;
- each failing input fails its known axiom first, and ``localize`` raises
  ``AxiomError`` on it;
- functors Z/n -> Z/m number gcd(n, m), with m natural transformations
  from each one to itself and none between distinct ones;
- the elements category of a chain diagram has ``carrier_size`` objects
  and arrows.

Negative controls must fail: an oplax carrier with swapped object tags,
``crosscheck --shuffle`` (exit 1) and a malformed file (exit 2).

Every library call goes through the ``catfrac`` package or module object
at call time (``cf.localize``, ``cf.cli.main``), never through a name bound
here, so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import catfrac as cf
import catfrac.cli  # noqa: F401  (binds cf.cli)

import instances as inst

WORKLOADS = ("localize", "verify", "crosscheck")

# Seeds the declaration orders of the ops whose cost swings most with order
# (up to 1.85x): the fully marked chains and Z/n in ``localize`` and every
# diagram of ``crosscheck``. These orders do not depend on ``--seed``, so a
# round costs the same from seed to seed, and each op gets its own draw, so
# a round mixes cheap and costly orders instead of one fixed order.
ORDERS_SEED = "perfbench:declaration-orders"


class WrongAnswer(Exception):
    """An op's output contradicts its known answer or negative control."""


@dataclass
class Op:
    key: str  # stable across seeds: family and size slot
    inputs: tuple  # what the library receives, for determinism tests
    call: Callable[[], object]
    check: Callable[[object], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _value(out):
    """The op's return value; an exception nobody expected is a failure."""
    if isinstance(out, BaseException):
        raise WrongAnswer(f"raised {type(out).__name__}: {out}")
    return out


# -- canonical output text ------------------------------------------------------


def category_text(C) -> str:
    lines = ["objects " + " ".join(C.objects)]
    lines += [f"arrow {f} {C.src[f]} {C.tgt[f]}" for f in C.arrows]
    lines += [f"id {x} {C.identity[x]}" for x in C.objects]
    lines += [f"comp {f} {g} {h}" for (f, g), h in C.composition.items()]
    return "\n".join(lines)


def localized_text(LC) -> str:
    lines = [category_text(LC.carrier)]
    lines += [f"rep {name} {v} {g}" for name, (v, g) in LC.class_reps.items()]
    lines += [f"L {f} {c}" for f, c in LC.L.on_arrows.items()]
    return "\n".join(lines)


def witness_text(witness) -> str:
    return " ".join(f"{a}->{b}" for a, b in witness.forward.on_arrows.items())


# -- op kinds -------------------------------------------------------------------


def localize_op(key: str, inp, classes: int, iso_to=None) -> Op:
    """check_axioms then localize; for a monoid, also match the result back."""

    def call():
        report = cf.check_axioms(inp)
        LC = cf.localize(inp)
        witness = cf.find_isomorphism(LC.carrier, iso_to) if iso_to is not None else None
        return report, LC, witness

    def check(out) -> str:
        report, LC, witness = _value(out)
        _need(report.ok, "the axioms fail on an input that satisfies them")
        got = len(LC.carrier.arrows)
        _need(got == classes, f"{got} classes, expected {classes}")
        text = str(report) + "\n" + localized_text(LC)
        if iso_to is not None:
            _need(witness is not None, "the localization at the identity is not isomorphic to the input")
            text += "\n" + witness_text(witness)
        return text

    return Op(key, (inp,), call, check)


def failing_op(key: str, inp, axiom: int) -> Op:
    """check_axioms then localize on an input whose first failing axiom is known."""

    def call():
        report = cf.check_axioms(inp)
        try:
            cf.localize(inp)
        except cf.AxiomError as exc:
            return report, exc
        return report, None

    def check(out) -> str:
        report, exc = _value(out)
        first = next((f.axiom for f in report.findings if not f.ok), None)
        _need(first == axiom, f"first failing axiom is {first}, expected {axiom}")
        _need(exc is not None, "localize accepted an input that fails an axiom")
        _need(
            exc.report is not None and not exc.report.finding(axiom).ok,
            "the AxiomError does not report the failing axiom",
        )
        return str(report) + "\n" + str(exc)

    return Op(key, (inp,), call, check)


def verifier_op(key: str, inputs: tuple, call, stats: dict | None = None, passes: bool = True) -> Op:
    """A verifier whose report must pass (or, for a control, must fail)."""

    def check(out) -> str:
        report = _value(out)
        if passes:
            _need(report.ok, f"the verifier failed:\n{report}")
        else:
            _need(not report.ok and "FAIL" in str(report), "the negative control passed")
        for name, expected in (stats or {}).items():
            got = report.stats.get(name)
            _need(got == expected, f"stat {name!r} is {got}, expected {expected}")
        return str(report)

    return Op(key, inputs, call, check)


def cli_op(key: str, argv: list, code: int, workdir: Path, expect: Callable[[str], None]) -> Op:
    """``catfrac.cli.main`` in-process with stdout captured."""
    argv = [str(a) for a in argv]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cf.cli.main(argv)
        return rc, buf.getvalue()

    def check(out) -> str:
        rc, text = _value(out)
        _need(rc == code, f"exit code {rc}, expected {code}")
        expect(text)
        return f"exit {rc}\n" + text.replace(str(workdir), "<work>")

    files = tuple(
        (Path(a).name, Path(a).read_text(encoding="utf-8")) for a in argv if a.endswith(".json")
    )
    flags = tuple(a for a in argv if not a.endswith(".json"))
    return Op(key, flags + files, call, check)


# -- localize -------------------------------------------------------------------


def localize_round(rng: random.Random, workdir: Path) -> list[Op]:
    """Marked categories for check_axioms + localize (25 ops).

    chain(6..9) fully marked has more than 64 spans, so localize skips the
    exhaustive filler re-derivation (b) and its composable-pair quotient
    check (c) dominates; Z/3..Z/6 fully marked stays within 64 spans, so
    (b) runs. chain(n) with one marked arrow and the monoids are the cheap
    bulk; the failing inputs stop after check_axioms.
    """
    FI = cf.FractionsInput
    orders = random.Random(ORDERS_SEED)
    ops = []
    for n in (6, 7, 8, 9):
        C = inst.chain(n, orders)
        ops.append(localize_op(f"chain_all/n={n}", FI(C, C.arrows), n * n))
    for n in (6, 8, 10, 12, 14):
        C = inst.chain(n, rng)
        i = n // 2  # the marked arrow sets the span count, hence the work
        weq = tuple(C.identity[x] for x in C.objects) + (f"{i}<{i + 1}",)
        ops.append(localize_op(f"chain_one/n={n}", FI(C, weq), n * (n + 1) // 2 + 1))
    for n in (3, 4, 5, 6):
        C = inst.cyclic(n, orders)
        ops.append(localize_op(f"cyclic_all/n={n}", FI(C, C.arrows), n))
    for size in (10, 14, 18, 24):
        M = inst.monoid(4, 2, size, rng)
        ops.append(localize_op(f"monoid_id/size={size}", FI(M, ("e",)), size, iso_to=M))
    for n in (4, 8):
        C = inst.chain(n, rng)
        ids = tuple(C.identity[x] for x in C.objects)
        nonid = tuple(f for f in C.arrows if not C.is_identity(f))
        steps = tuple(f"{i}<{i + 1}" for i in range(n - 1))
        ops.append(failing_op(f"fail_axiom1/n={n}", FI(C, nonid), 1))
        ops.append(failing_op(f"fail_axiom2/n={n}", FI(C, ids + steps), 2))
    for k in (3, 6):
        P = inst.parallel(k)
        ops.append(failing_op(f"fail_axiom3/k={k}", FI(P, P.arrows), 3))
        Z = inst.zipper(k)
        ops.append(failing_op(f"fail_axiom4/k={k}", FI(Z, ("id:a", "id:b", "id:c", "v")), 4))
    return ops


# -- verify ---------------------------------------------------------------------

TEST_CATEGORIES = {
    "c2": lambda rng: inst.chain(2, rng),
    "c3": lambda rng: inst.chain(3, rng),
    "iso": lambda rng: inst.iso(),
    "Z2": lambda rng: inst.cyclic(2),
}

# (variance, fiber sizes over chain(len(sizes)), test category)
OPLAX = [
    ("covariant", [2, 1], "c2"),
    ("covariant", [1, 2], "iso"),
    ("covariant", [2, 2], "c3"),
    ("covariant", [1, 1, 1], "Z2"),
    ("covariant", [3, 1], "c2"),
    ("covariant", [2, 1, 1], "iso"),
    ("covariant", [1, 3], "c2"),
    ("contravariant", [2, 1], "c3"),
    ("contravariant", [2, 2], "iso"),
    ("contravariant", [1, 2, 1], "c2"),
    ("contravariant", [1, 3], "Z2"),
    ("contravariant", [2, 2, 1], "c2"),
]
PSEUDO = [([2, 1], "iso"), ([2, 2], "Z2"), ([1, 2, 1], "c2"), ([2, 1, 1], "Z2"), ([3, 1], "c2")]
LOCALIZATION_UP = [(2, 4), (3, 6), (4, 2), (4, 6)]


def _sizes_key(sizes) -> str:
    return "x".join(str(k) for k in sizes)


def swapped_tags_op(key: str, D, X) -> Op:
    """Negative control: the carrier with the tags of fiber 0's first two
    objects swapped is not the oplax colimit, and the verifier must say so."""

    def call():
        GD = cf.grothendieck(D)
        a, b = GD.object_name("0", "0"), GD.object_name("0", "1")
        GD.object_tags[a], GD.object_tags[b] = GD.object_tags[b], GD.object_tags[a]
        GD.object_index[("0", "0")], GD.object_index[("0", "1")] = b, a
        return cf.verify_oplax_colimit(D, X, GD=GD)

    return verifier_op(key, (D, X), call, passes=False)


def verify_round(rng: random.Random, workdir: Path) -> list[Op]:
    """The three universal-property verifiers on small instances (25 ops).

    Sizes stay below the cliff where a diagram or test category one object
    larger multiplies the cost by about ten.
    """
    ops = []
    for variance, sizes, xname in OPLAX:
        D, _ = inst.chain_diagram(sizes, variance, rng)
        X = TEST_CATEGORIES[xname](rng)
        ops.append(verifier_op(
            f"oplax_{variance[:3]}/{_sizes_key(sizes)}@{xname}", (D, X),
            lambda D=D, X=X: cf.verify_oplax_colimit(D, X),
        ))
    swap = inst.contra_swap()
    for xname in ("Z2", "c2"):
        X = TEST_CATEGORIES[xname](rng)
        ops.append(verifier_op(
            f"oplax_swap@{xname}", (swap, X), lambda X=X: cf.verify_oplax_colimit(swap, X)
        ))
    for sizes, xname in PSEUDO:
        D, _ = inst.chain_diagram(sizes, "contravariant", rng)
        X = TEST_CATEGORIES[xname](rng)
        ops.append(verifier_op(
            f"pseudo/{_sizes_key(sizes)}@{xname}", (D, X),
            lambda D=D, X=X: cf.verify_pseudocolimit(D, X),
        ))
    X = inst.iso()
    ops.append(verifier_op(
        "pseudo_swap@iso", (swap, X), lambda X=X: cf.verify_pseudocolimit(swap, X)
    ))
    for n, m in LOCALIZATION_UP:
        C = inst.cyclic(n, rng)
        inp = cf.FractionsInput(C, C.arrows)
        X = inst.cyclic(m, rng)
        g = math.gcd(n, m)
        ops.append(verifier_op(
            f"localization_up/Z{n}@Z{m}", (inp, X),
            lambda inp=inp, X=X: cf.verify_localization_up(inp, X),
            stats={"inverting functors": g, "functors off carrier": g, "natural transformations": g * m},
        ))
    D, _ = inst.chain_diagram([2, 1], "contravariant", rng)
    ops.append(swapped_tags_op("control_swapped_tags/2x1@c2", D, inst.chain(2, rng)))
    return ops


# -- crosscheck -----------------------------------------------------------------

PAIRS = [[3, 3], [2, 2, 2], [4, 4], [5, 2], [3, 3, 3], [6, 6]]
ROUTES = [[3, 3], [2, 2, 2], [4, 4], [3, 3, 3], [6, 6]]


def pairs_op(key: str, D, size: tuple) -> Op:
    """The ambient route up to the composable-pairs comparison."""

    def call():
        IE = cf.internal_elements(D)
        w = cf.internal_cleavage(D, IE)
        return IE, cf.verify_pairs_coequalizer(IE, w)

    def check(out) -> str:
        IE, report = _value(out)
        got = (IE.c0.size, IE.c1.size)
        _need(got == size, f"internal elements have {got} objects/arrows, expected {size}")
        _need(report.ok, f"the pairs comparison failed:\n{report}")
        return str(report)

    return Op(key, (D,), call, check)


def routes_op(key: str, D, size: tuple) -> Op:
    """Both routes end to end, matched by isomorphism search."""

    def call():
        IE = cf.internal_elements(D)
        w = cf.internal_cleavage(D, IE)
        LI = cf.internal_localize(IE, w)
        GD = cf.grothendieck(D)
        LC = cf.localize(cf.FractionsInput(GD.carrier, cf.cleavage(GD).members))
        elements = cf.find_isomorphism(cf.externalize(IE), GD.carrier)
        localized = cf.find_isomorphism(cf.externalize(LI), LC.carrier)
        return GD, LC, elements, localized

    def check(out) -> str:
        GD, LC, elements, localized = _value(out)
        got = (len(GD.carrier.objects), len(GD.carrier.arrows))
        _need(got == size, f"elements category has {got} objects/arrows, expected {size}")
        _need(elements is not None, "the two elements categories are not isomorphic")
        _need(localized is not None, "the two localizations are not isomorphic")
        return "\n".join([
            category_text(GD.carrier), localized_text(LC),
            witness_text(elements), witness_text(localized),
        ])

    return Op(key, (D,), call, check)


def _expect_lines(*needles: str) -> Callable[[str], None]:
    def expect(text: str) -> None:
        for needle in needles:
            _need(needle in text, f"output lacks {needle!r}")

    return expect


def _expect_json_size(objects: int, arrows: int) -> Callable[[str], None]:
    def expect(text: str) -> None:
        doc = json.loads(text)
        got = (len(doc["objects"]), len(doc["arrows"]))
        _need(got == (objects, arrows), f"JSON output has {got} objects/arrows, expected {(objects, arrows)}")

    return expect


def crosscheck_round(rng: random.Random, workdir: Path) -> list[Op]:
    """Ambient route against direct route, the cover class, and the CLI (25 ops).

    Diagrams are contravariant over chain(m) with chain(k) fibers and
    m*k <= 12, each declared in its own order drawn from ``ORDERS_SEED``:
    the cost of the pairs comparison depends on where the reflexive rows
    fall (has_common_section stops at the first one), by up to 1.6x between
    orders. The seed varies the CLI's fractions and category files. The CLI
    files are written here, during set-up.
    """
    orders = random.Random(ORDERS_SEED)
    ops = []
    for sizes in PAIRS:
        D, tables = inst.chain_diagram(sizes, "contravariant", orders)
        size = inst.carrier_size(sizes, tables)
        ops.append(pairs_op(f"pairs/{_sizes_key(sizes)}", D, size))
    for sizes in ROUTES:
        D, tables = inst.chain_diagram(sizes, "contravariant", orders)
        size = inst.carrier_size(sizes, tables)
        ops.append(routes_op(f"routes/{_sizes_key(sizes)}", D, size))
    ops.append(verifier_op("cover_class/4", (4,), lambda: cf.verify_cover_class(4)))

    diagrams = {}
    for sizes in ([3, 3], [4, 4], [3, 3, 3], [2, 2, 2]):
        D, tables = inst.chain_diagram(sizes, "contravariant", orders)
        path = inst.write_json(workdir / f"diagram_{_sizes_key(sizes)}.json", inst.diagram_doc(D))
        diagrams[_sizes_key(sizes)] = (path, inst.carrier_size(sizes, tables))
    fractions = {}
    for n in (6, 8):
        C = inst.chain(n, rng)
        i = rng.randrange(n - 1)
        weq = tuple(C.identity[x] for x in C.objects) + (f"{i}<{i + 1}",)
        fractions[n] = inst.write_json(workdir / f"chain{n}_one.json", inst.fractions_doc(C, weq))
    cyclic = inst.write_json(workdir / "cyclic5.json", inst.category_doc(inst.cyclic(5, rng)))
    malformed = workdir / "malformed.json"
    malformed.write_text('{"kind": "category", "objects": ["a"', encoding="utf-8")

    path33, _ = diagrams["3x3"]
    ops.append(cli_op("cli_validate/diagram_3x3", ["validate", path33], 0, workdir,
                      _expect_lines("pseudofunctor: valid")))
    ops.append(cli_op("cli_validate/chain6_one", ["validate", fractions[6]], 0, workdir,
                      _expect_lines("fractions-input: valid")))
    ops.append(cli_op("cli_validate/cyclic5", ["validate", cyclic], 0, workdir,
                      _expect_lines("category: valid")))
    for key in ("3x3", "4x4"):
        path, (objects, arrows) = diagrams[key]
        ops.append(cli_op(f"cli_groth_json/{key}", ["groth", path, "--json"], 0, workdir,
                          _expect_json_size(objects, arrows)))
    for n in (6, 8):
        ops.append(cli_op(f"cli_localize_json/chain{n}_one", ["localize", fractions[n], "--json"], 0,
                          workdir, _expect_json_size(n, n * (n + 1) // 2 + 1)))
    for key in ("3x3", "4x4", "3x3x3"):
        path, _ = diagrams[key]
        ops.append(cli_op(f"cli_crosscheck/{key}", ["crosscheck", path], 0, workdir, _expect_lines(
            "elements: ok", "cleavage: ok", "localization: ok",
            "composable pairs: pullback vs coequalizer: pass",
        )))
    for key in ("3x3", "2x2x2"):
        path, _ = diagrams[key]
        ops.append(cli_op(f"control_shuffle/{key}", ["crosscheck", path, "--shuffle"], 1, workdir,
                          _expect_lines("FAIL")))
    ops.append(cli_op("control_malformed", ["validate", malformed], 2, workdir,
                      _expect_lines("error:")))
    return ops


ROUNDS = {"localize": localize_round, "verify": verify_round, "crosscheck": crosscheck_round}


def build_round(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The seeded round of a workload; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return ROUNDS[workload](rng, workdir)
