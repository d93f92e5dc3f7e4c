"""Command-line front end: file ingestion and runnable verifiers.

Files are UTF-8 JSON with a "kind" discriminator: category, functor,
pseudofunctor, fractions-input, or diagram-bundle. ``validate`` takes any
kind and dispatches on it; ``groth`` takes a pseudofunctor; ``axioms``,
``localize`` and ``verify ... localization`` take a fractions-input;
``verify ... oplax|pseudocolim`` and ``crosscheck`` take a pseudofunctor or
a diagram-bundle, whose optional "against" is a list of test categories.
A command's file and every reference in it enter through ``_resolve``, and
a document with no kind reads as the kind expected there. Wherever a
sub-document is expected, an inline object or a path is accepted; a path
is relative to the file whose text names it, inline objects included.

``KINDS`` types each kind's fields to every depth; ``_resolve`` and
``validate`` check a document against them before any loader runs, naming a
misfit by its JSON path (``field 'arrows[0].src' must be a string, got
null``). A KeyError or TypeError that reaches ``main`` is a library bug.

Exit codes are uniform across commands: 0 means valid/verified, 1 means a
checked property failed, 2 means the input or a precondition was bad, or
the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .ambient import (
    InternalCategory,
    FinSetMap,
    externalize,
    internal_cleavage,
    internal_elements,
    internal_localize,
    verify_pairs_coequalizer,
)
from .diagram import (
    Pseudofunctor,
    VARIANCES,
    derive_unit_compositors,
    law_verdict,
    naming,
    variance_order,
)
from .elements import cleavage, grothendieck, verify_oplax_colimit
from .errors import AxiomError, DomainError, InputError, IntegrityError
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    ValidationReport,
    check_components,
    check_functor_maps,
    compose_functors,
    find_isomorphism,
    identity_functor,
    validate_category,
    validate_functor,
)
from .fractions import (
    FractionsInput,
    _mark_index,
    check_axioms,
    localize,
    verify_localization_up,
    verify_pseudocolimit,
)

JSON_TYPES = {list: "a list", dict: "an object", str: "a string", int: "a number",
              float: "a number", (str, dict): "an object or a file path"}
# the kinds of file that hold a diagram, as the diagram commands read them
DIAGRAM_KINDS = ("pseudofunctor", "diagram-bundle")


# -- ingestion ---------------------------------------------------------------


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8, bad JSON, or an over-long integer
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to read") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def _resolve(doc, base: Path, *kinds: str) -> tuple[dict, Path]:
    """The document ``doc`` is, or names by its path, of one of ``kinds`` (a
    document with no kind reads as the first) and fitting its shape, and the
    directory its references resolve against: a path's own, or else ``base``."""
    if isinstance(doc, str):
        doc, base = _read_json(base / doc), (base / doc).parent
    kind = doc.get("kind", kinds[0])
    if kind not in kinds:
        raise InputError(
            f"expected a {' or '.join(kinds)} document, found kind {_shown_kind(kind)}"
        )
    _check_shape(kind, doc)
    return doc, base


def _check_shape(kind: str, data: dict) -> None:
    """Raise InputError at the first value of ``data`` that does not fit
    ``kind``'s fields in ``KINDS``, checking each value as its container is
    walked, containers shallowest first, with the walk's own queue."""
    todo = [("", data, KINDS[kind][2])]
    for path, value, shape in todo:
        if isinstance(shape, list):
            children, at = zip(range(len(value)), value, [shape[0]] * len(value)), "{}[{}]"
        elif str in shape:
            children, at = ((key, item, shape[str]) for key, item in value.items()), "{}[{}]"
        else:
            children, at = [], "{}.{}" if path else "{1}"
            for field, sub in shape.items():
                name = field if field in value else field.rstrip("?")
                if name in value:
                    children.append((name, value[name], sub))
                elif name == field:
                    raise InputError(f"{kind}: missing field '{at.format(path, name)}'")
        for key, item, sub in children:
            if sub is str and isinstance(item, str):  # most values are names
                continue
            wanted = (str, dict) if isinstance(sub, str) else sub if sub is str else type(sub)
            if not isinstance(item, wanted):
                where, got = at.format(path, key), _json_type(item)
                raise InputError(f"{kind}: field '{where}' must be {JSON_TYPES[wanted]}, got {got}")
            if isinstance(sub, (list, dict)):
                todo.append((at.format(path, key), item, sub))


def _diagram(data: dict, base: Path) -> tuple[dict, Path]:
    """The pseudofunctor document of a bundle, or ``data`` itself."""
    if data.get("kind") == "diagram-bundle":
        return _resolve(data["diagram"], base, "pseudofunctor")
    return data, base


def _against(data: dict) -> list:
    """The test-category references of a bundle, an optional list; none for
    any other document."""
    return data.get("against", []) if data.get("kind") == "diagram-bundle" else []


def _json_type(value) -> str:
    """The JSON type of a parsed value, as a message names it: null, true,
    false, or one of ``JSON_TYPES``."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return JSON_TYPES[type(value)]


def _shown_kind(kind) -> str:
    """A document's kind as a message names it: a string quoted, anything
    else by its JSON type."""
    return repr(kind) if isinstance(kind, str) else _json_type(kind)


def load_category(data: dict, base: Path) -> FinCategory:
    arrows = [(a["name"], a["src"], a["tgt"]) for a in data["arrows"]]
    table = {(row["first"], row["then"]): row["equals"] for row in data.get("compose", [])}
    return FinCategory.build(data["objects"], arrows, data["identities"], table)


def load_functor(data: dict, base: Path) -> Functor:
    dom = load_category(*_resolve(data["dom"], base, "category"))
    cod = load_category(*_resolve(data["cod"], base, "category"))
    return Functor(dom, cod, dict(data["on_objects"]), dict(data["on_arrows"]))


def load_pseudofunctor(data: dict, base: Path) -> Pseudofunctor:
    index = load_category(*_resolve(data["index"], base, "category"))
    variance = data["variance"]
    if variance not in VARIANCES:
        raise InputError(f"unknown variance {variance!r}")
    fibers = {
        A: load_category(*_resolve(ref, base, "category"))
        for A, ref in data["on_objects"].items()
    }
    if set(fibers) != set(index.objects):
        raise InputError("on_objects must cover the index objects exactly")

    on_arrows = {}
    for phi, maps in data["on_arrows"].items():
        if phi not in index.src:
            raise InputError(f"on_arrows names unknown index arrow {phi!r}")
        dom, cod = variance_order(variance, fibers[index.src[phi]], fibers[index.tgt[phi]])
        on_arrows[phi] = Functor(dom, cod, dict(maps["on_objects"]), dict(maps["on_arrows"]))
        with naming(f"functor at {phi!r}"):
            check_functor_maps(on_arrows[phi])
    if set(on_arrows) != set(index.arrows):
        raise InputError("on_arrows must cover the index arrows exactly")

    unitors = {}
    for A, components in data["unitors"].items():
        if A not in fibers:
            raise InputError(f"unitor given for unknown index object {A!r}")
        identity = identity_functor(fibers[A])
        unitors[A] = NatTrans(on_arrows[index.identity[A]], identity, dict(components))
        with naming(f"unitor at {A!r}"):
            check_components(unitors[A])

    compositors = {}
    for key, components in data.get("compositors", {}).items():
        parts = key.split(";")
        if len(parts) != 2:
            raise InputError(f"compositor key {key!r} is not of the form 'phi;psi'")
        phi, psi = parts
        if (phi, psi) not in index.composition:
            raise InputError(f"compositor key {key!r} names a non-composable pair")
        comp = index.composition[(phi, psi)]
        target = compose_functors(*variance_order(variance, on_arrows[phi], on_arrows[psi]))
        compositors[(phi, psi)] = NatTrans(on_arrows[comp], target, dict(components))

    compositors = derive_unit_compositors(index, variance, on_arrows, unitors, compositors)
    return Pseudofunctor(index, variance, fibers, on_arrows, unitors, compositors)


def load_fractions_input(data: dict, base: Path) -> FractionsInput:
    """The input, with W checked once: the check runs as the input indexes
    W (``fractions._mark_index``), and the command's own calls read that
    kept index instead of checking W again."""
    category = load_category(*_resolve(data["category"], base, "category"))
    inp = FractionsInput(category=category, weq=tuple(data["weq"]))
    _mark_index(inp)
    return inp


def _load_bundle(data: dict, base: Path) -> tuple[Pseudofunctor, list[FinCategory]]:
    diagram = load_pseudofunctor(*_diagram(data, base))
    against = [load_category(*_resolve(ref, base, "category")) for ref in _against(data)]
    return diagram, against


def _bundle_laws(bundle: tuple[Pseudofunctor, list[FinCategory]]):
    diagram, against = bundle
    problems = list(law_verdict(diagram).problems)
    for i, X in enumerate(against):
        problems.extend(f"against[{i}]: {line}" for line in validate_category(X).problems)
    return ValidationReport(problems)


# each kind's loader, law check and fields; a check is looked up when it
# runs, so a wrapper installed on this module (perfbench's tracer) sees the
# call. In the fields, ``str`` is a name, a kind is a reference (a path or an
# inline object, shaped as that kind when ``_resolve`` reads it), ``[s]`` is
# a list of s, ``{str: s}`` an object of s, and any other object a record,
# whose fields ending in "?" may be missing; fields not named are ignored.
# A pseudofunctor's check is the verdict the diagram keeps, which every
# construction that reads the diagram then reads again, not decides again
_FUNCTOR_MAPS = {"on_objects": {str: str}, "on_arrows": {str: str}}
KINDS = {
    "category": (load_category, lambda C: validate_category(C), {
        "objects": [str],
        "arrows": [{"name": str, "src": str, "tgt": str}],
        "identities": {str: str},
        "compose?": [{"first": str, "then": str, "equals": str}],
    }),
    "functor": (load_functor, lambda F: validate_functor(F), {
        "dom": "category", "cod": "category", **_FUNCTOR_MAPS,
    }),
    "pseudofunctor": (load_pseudofunctor, lambda D: law_verdict(D), {
        "index": "category",
        "variance": str,
        "on_objects": {str: "category"},
        "on_arrows": {str: _FUNCTOR_MAPS},
        "unitors": {str: {str: str}},
        "compositors?": {str: {str: str}},
    }),
    "fractions-input": (load_fractions_input, lambda inp: validate_category(inp.category), {
        "category": "category", "weq": [str],
    }),
    "diagram-bundle": (_load_bundle, _bundle_laws, {
        "diagram": "pseudofunctor", "against?": ["category"],
    }),
}


def _lawful(kind: str, data: dict, base: Path):
    """``data`` loaded as ``kind``; its first violated law is an InputError,
    since the constructions assume the laws (``validate`` lists them all)."""
    load, laws, _ = KINDS[kind]
    value = load(data, base)
    report = laws(value)
    if not report.ok:
        raise InputError(report.problems[0])
    return value


def category_to_json(C: FinCategory) -> dict:
    rows = []
    for f, g in C.composable_pairs():
        if C.is_identity(f) or C.is_identity(g):
            continue
        rows.append({"first": f, "then": g, "equals": C.composition[(f, g)]})
    return {
        "kind": "category",
        "objects": list(C.objects),
        "arrows": [{"name": f, "src": C.src[f], "tgt": C.tgt[f]} for f in C.arrows],
        "identities": dict(C.identity),
        "compose": rows,
    }


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    path = Path(args.path)
    data = _read_json(path)
    expected = f"expected one of {', '.join(KINDS)}"
    if "kind" not in data:
        raise InputError(f"missing field 'kind'; {expected}")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise InputError(f"unknown kind {_shown_kind(kind)}; {expected}")
    _check_shape(kind, data)
    load, laws, _ = KINDS[kind]
    report = laws(load(data, path.parent))
    if report.ok:
        print(f"{kind}: valid")
        return 0
    print(f"{kind}: INVALID")
    for line in report.problems:
        print(f"  {line}")
    return 1


def cmd_groth(args) -> int:
    D = _lawful("pseudofunctor", *_resolve(args.path, Path(), "pseudofunctor"))
    if args.contravariant and D.variance != "contravariant":
        raise DomainError("--contravariant requested but the diagram is covariant")
    GD = grothendieck(D)
    weq = cleavage(GD).members if args.contravariant else None
    if args.json:
        doc = category_to_json(GD.carrier)
        doc["object_tags"] = {name: list(tag) for name, tag in GD.object_tags.items()}
        doc["arrow_tags"] = {name: list(tag) for name, tag in GD.arrow_tags.items()}
        if weq is not None:
            doc = {"kind": "fractions-input", "category": doc, "weq": list(weq)}
            doc["category"]["kind"] = "category"
        print(json.dumps(doc, indent=2))
        return 0
    C = GD.carrier
    print(f"elements category: {len(C.objects)} objects, {len(C.arrows)} arrows")
    for name in C.objects:
        A, a = GD.object_tags[name]
        print(f"  object {name}  [index {A}, fiber object {a}]")
    for name in C.arrows:
        phi, x, f = GD.arrow_tags[name]
        print(f"  arrow {name}: {C.src[name]} -> {C.tgt[name]}  [over {phi}; at {x}; fiber {f}]")
    if weq is not None:
        print(f"cleavage ({len(weq)} arrows): {', '.join(weq)}")
    return 0


def cmd_axioms(args) -> int:
    inp = _lawful("fractions-input", *_resolve(args.path, Path(), "fractions-input"))
    report = check_axioms(inp)
    print(report)
    return 0 if report.ok else 1


def cmd_localize(args) -> int:
    inp = _lawful("fractions-input", *_resolve(args.path, Path(), "fractions-input"))
    LC = localize(inp, exhaustive_limit=10**9) if args.exhaustive else localize(inp)
    if args.json:
        doc = category_to_json(LC.carrier)
        doc["classes"] = {name: list(LC.class_reps[name]) for name in LC.carrier.arrows}
        doc["localization_functor"] = {
            "on_objects": dict(LC.L.on_objects),
            "on_arrows": dict(LC.L.on_arrows),
        }
        print(json.dumps(doc, indent=2))
        return 0
    C = LC.carrier
    print(f"localized category: {len(C.objects)} objects, {len(C.arrows)} arrows")
    for name in C.arrows:
        v, g = LC.class_reps[name]
        print(f"  {name}: {C.src[name]} -> {C.tgt[name]}  class of ({v}, {g})")
    print("localization functor on arrows:")
    for f in inp.category.arrows:
        print(f"  {f} |-> {LC.L.on_arrows[f]}")
    witness = find_isomorphism(C, inp.category)
    if witness is not None:
        pairs = ", ".join(f"{k}->{v}" for k, v in witness.forward.on_arrows.items())
        print(f"carrier is isomorphic to the input category: {pairs}")
    return 0


def cmd_verify(args) -> int:
    kinds = ("fractions-input",) if args.which == "localization" else DIAGRAM_KINDS
    data, base = _resolve(args.path, Path(), *kinds)
    refs, refs_base = _against(data), base
    if args.against:  # a path given on the command line is read from the working directory
        refs, refs_base = [args.against], Path()
    against = [_lawful("category", *_resolve(ref, refs_base, "category")) for ref in refs]
    if not against:
        raise InputError("no test category: pass --against or use a diagram-bundle")

    if args.which == "localization":
        inp = _lawful("fractions-input", data, base)
        reports = [verify_localization_up(inp, X) for X in against]
    else:
        D = _lawful("pseudofunctor", *_diagram(data, base))
        verifier = verify_oplax_colimit if args.which == "oplax" else verify_pseudocolimit
        reports = [verifier(D, X) for X in against]
    for report in reports:
        print(report)
    return 0 if all(report.ok for report in reports) else 1


def _positional_mismatch(A: FinCategory, B: FinCategory):
    """First difference between two categories under the index-aligned map,
    reported in B's (input-derived) names; None when they agree."""
    if len(A.objects) != len(B.objects) or len(A.arrows) != len(B.arrows):
        return (
            f"size mismatch: {len(A.objects)}/{len(A.arrows)} vs "
            f"{len(B.objects)}/{len(B.arrows)} objects/arrows"
        )
    omap = dict(zip(A.objects, B.objects))
    amap = dict(zip(A.arrows, B.arrows))
    for f in A.arrows:
        if omap[A.src[f]] != B.src[amap[f]] or omap[A.tgt[f]] != B.tgt[amap[f]]:
            return f"arrow {amap[f]} has different endpoints on the two routes"
    for x in A.objects:
        if amap[A.identity[x]] != B.identity[omap[x]]:
            return f"identity at {omap[x]} differs between the two routes"
    for (f, g), h in A.composition.items():
        expected = B.composition.get((amap[f], amap[g]))
        if expected != amap[h]:
            return (
                f"hom({omap[A.src[f]]}, {omap[A.tgt[g]]}) mismatch: "
                f"{amap[f]} ; {amap[g]} = {amap[h]} internally, {expected} directly"
            )
    return None


def cmd_crosscheck(args) -> int:
    D = _lawful("pseudofunctor", *_diagram(*_resolve(args.path, Path(), *DIAGRAM_KINDS)))
    GD = grothendieck(D)
    IE = internal_elements(D)

    if args.shuffle:
        table = IE.c.table
        rotated = table[1:] + table[:1]
        if rotated == table:
            # the control would compare an intact table and claim a failure
            raise DomainError(
                "the shuffled control cannot break this composition table: "
                "rotating it leaves it unchanged"
            )
        IE = InternalCategory(
            IE.c0, IE.c1, IE.s, IE.t, IE.e, FinSetMap(IE.c.dom, IE.c.cod, rotated)
        )
        mismatch = _positional_mismatch(externalize(IE, validate=False), GD.carrier)
        print(f"elements (shuffled control): FAIL: {mismatch}")
        return 1

    failures = 0
    mismatch = _positional_mismatch(externalize(IE), GD.carrier)
    if mismatch is None:
        print(f"elements: ok ({IE.c0.size} objects, {IE.c1.size} arrows)")
    else:
        failures += 1
        print(f"elements: FAIL: {mismatch}")

    w = internal_cleavage(D, IE)
    direct_members = cleavage(GD).members
    internal_members = tuple(GD.carrier.arrows[i] for i in w.table)
    if internal_members == tuple(direct_members):
        print(f"cleavage: ok ({w.dom.size} arrows)")
    else:
        failures += 1
        print(f"cleavage: FAIL: {internal_members} vs {tuple(direct_members)}")

    LI = internal_localize(IE, w)
    LC = localize(FractionsInput(category=GD.carrier, weq=tuple(direct_members)))
    mismatch = _positional_mismatch(externalize(LI), LC.carrier)
    if mismatch is None:
        print(f"localization: ok ({LI.c0.size} objects, {LI.c1.size} arrows)")
    else:
        failures += 1
        print(f"localization: FAIL: {mismatch}")

    pairs_report = verify_pairs_coequalizer(IE, w)
    print(pairs_report)
    if not pairs_report.ok:
        failures += 1
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="catfrac",
        description="Validate, build, and verify finite categories of fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the validator matching the file's kind")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("groth", help="build the category of elements of a pseudofunctor")
    p.add_argument("path")
    p.add_argument("--contravariant", action="store_true", help="also emit the cleavage (contravariant diagrams only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_groth)

    p = sub.add_parser("axioms", help="check the right-fractions axioms of a marked category")
    p.add_argument("path")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("localize", help="build the category of fractions")
    p.add_argument("path")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="run the composite check whatever the span count (by default only up to "
        "64 spans): per row (s1, v2) the heads lie in one class, and per span pair "
        "the first head composed with g2 lands in the class the table gives",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("verify", help="verify a universal property against a test category")
    p.add_argument("path")
    p.add_argument("which", choices=("oplax", "localization", "pseudocolim"))
    p.add_argument("--against", help="path to the test category file; replaces a bundle's own list")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("crosscheck", help="compare internal constructions with the direct ones")
    p.add_argument("path")
    p.add_argument("--shuffle", action="store_true", help="negative control: corrupt the internal table first")
    p.set_defaults(fn=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built on the first call and kept for the process, so the
    ``cmd_*`` handlers are bound at that first build: replacing one later
    does not reach ``main``.
    """
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        # output that fit stdout's buffer meets a closed reader only here
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as ``catfrac ... | head`` does: the rest
        # of the output, and the flush at exit, go to the null device
        sys.stdout = open(os.devnull, "w")
        return 2
    return code


def _run(args) -> int:
    """The command's exit code, its refusal printed."""
    try:
        return args.fn(args)
    except AxiomError as exc:
        print(f"failed: {exc}")
        return 1
    except IntegrityError as exc:
        print(f"integrity failure: {exc}")
        return 1
    except (InputError, DomainError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
