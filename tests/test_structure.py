"""Package structure: imports sit at module top and never form a cycle; no
function recurses, so no input depth can exhaust the interpreter's stack;
a category or a marked category gains no attribute after construction, and
a category builds its positional view once; a category and a marked
category decide their structure when they are made, once, and nothing
decides it later but validate_category; localize's loops read
composition by position, not by a pair of names; a
record keeps no field that another of its fields gives, and a functor no
accessor over its maps; the fractions searches read the marked class
through its endpoint index;
each fractions shape has one search routine, which the axiom decision, the
heads and span_compose reach; fractions defines no searcher class beside
the marked category, and a first filler is the first item of a
routine's call, read in the decision and the first head only; spans
and 2-cells are plain tuples, with no wrapper type around them; the
pseudofunctor coherence laws are written once for both variances; every
quotient is closed by the one partition routine in fincat, and every map off
a quotient or a coproduct in the ambient is filled by one factorization
routine, and a pullback element is found by one arithmetic index, not a dict
of coordinate pairs; the ambient numbers a finite category only through
its positional view, in one tabulation, and builds w's inverse once per
span machinery; internal_localize
is the one ambient function that enters the fractions layer; the CLI reads a
file only to resolve a reference or a command's own path, and a bundle's
diagram in one place; the CLI types each kind's fields in its KINDS entry
and has no handler that would take a library bug's KeyError or TypeError
for bad input;
FinCategory.build has no option; the functor search reads composition by
position and calls no backtrack; the verifiers prepare each 2-cell search
once per domain, not once per pair, and neither search calls backtrack or
builds a function or generator per pair; one crosscheck checks each internal
category's laws, builds the span machinery and builds the element blocks
once, and an internal category gains no attribute after construction; a
diagram's laws are decided in one place, once per diagram, and the verdict
it keeps adds no attribute after construction; every public name has a
caller in the package or a line in the README's list of public API without
one."""

import ast
import copy
import dataclasses
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import catfrac.ambient
import catfrac.cli
import catfrac.diagram
import catfrac.fincat
import catfrac.fractions
import corpus
from catfrac import (
    CleavageSet,
    ElementsCategory,
    FinCategory,
    FinSetMap,
    FractionsInput,
    InternalCategory,
    Pseudofunctor,
    check_axioms,
    check_shape,
    enumerate_functors,
    enumerate_modifications,
    enumerate_transformations,
    externalize,
    find_isomorphism,
    grothendieck,
    internal_cleavage,
    internal_elements,
    internal_localize,
    inverts,
    localize,
    shape_instances,
    span_compose,
    validate_category,
    verify_oplax_colimit,
    verify_pairs_coequalizer,
)
from catfrac.ambient import _SpanMachinery
from catfrac.verify import Correspondence

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "catfrac"
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _imported_modules(tree: ast.Module) -> set:
    """Modules of this package that a module imports, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "catfrac":
                names.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "catfrac":
                    names.add(parts[1] if len(parts) > 1 else "__init__")
    return names & set(MODULES)


def test_no_imports_inside_functions():
    nested = set()
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.add(f"{name}.py:{node.lineno}")
    assert not nested, f"imports inside functions: {sorted(nested)}"


def test_import_graph_is_acyclic():
    graph = {name: _imported_modules(tree) for name, tree in MODULES.items()}
    done: set = set()

    def visit(name: str, path: list) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_verifier_engine_imports_only_the_table_kernel():
    # the engine stays generic: 2-cells reach it as tuples, and turning
    # modifications or natural transformations into tuples is the
    # adapters' job in elements and fractions
    assert _imported_modules(MODULES["verify"]) <= {"errors", "fincat"}


def test_two_cells_carry_no_transfer():
    # both sides write a 2-cell as the same tuple, so the engine needs no
    # maps between them, no composition and no identity of its own
    assert [f.name for f in dataclasses.fields(Correspondence)] == [
        "noun", "left", "right", "forward", "back", "cell_noun", "between"
    ]


def test_no_wrapper_types_around_tuples():
    # spans, filler witnesses and 2-cells are the tuples themselves
    retired = {
        "ShapeInstance", "FillerWitness", "TwoCells", "_functoriality", "two_cell", "_element_tags"
    }
    defined = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert not defined & retired, sorted(defined & retired)


def test_no_function_calls_itself():
    recursive = set()
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == fn.name
                    ):
                        recursive.add(f"{name}.py:{fn.lineno} {fn.name}")
    assert not recursive, f"self-recursive functions: {sorted(recursive)}"


def test_no_attribute_is_attached_after_construction():
    # an attribute set after __init__ slows every attribute read on the
    # instance, and the hom index must stay out of __eq__ and repr
    C = corpus.two()
    keys = list(vars(C))
    C.hom("a", "b")
    validate_category(C)
    enumerate_functors(C, C)
    localize(FractionsInput(C, C.arrows))
    assert list(vars(C)) == keys
    assert [f.name for f in dataclasses.fields(FinCategory)] == [
        "objects", "arrows", "src", "tgt", "identity", "composition"
    ]


def test_a_category_builds_its_view_once(monkeypatch):
    # the positional view is built on first use into the slot __post_init__
    # sets, and kept there: the axiom decision, two localize calls on two
    # inputs over one category and the carriers they build add no second one
    built = []
    exact = catfrac.fincat._Positions

    def counting(C):
        built.append(C)
        return exact(C)

    monkeypatch.setattr(catfrac.fincat, "_Positions", counting)
    C = corpus.chain(4)
    inp = FractionsInput(C, C.arrows)
    check_axioms(inp)
    localize(inp)
    localize(FractionsInput(C, C.arrows))
    assert len(built) == 1 and built[0] is C


def test_marked_category_gains_no_attribute():
    # what an input keeps, W's positional index and its first axiom report,
    # sits in slots set during __init__ and stays out of the fields (so out
    # of __eq__ and repr); the index is built there, and the report is the
    # only attribute whose value changes; the filler lists of a localize
    # call live in a dict of the call's own, so nothing else outlives the
    # call, on the input or in the module, and the call leaves the kept
    # index as a fresh input builds it
    assert [f.name for f in dataclasses.fields(FractionsInput)] == ["category", "weq"]
    kept = {"_axioms", "_marks"}
    chain = corpus.chain(6)
    module = dict(vars(catfrac.fractions))
    for _, inp in corpus.fractions_corpus() + [("chain(6)/all", FractionsInput(chain, chain.arrows))]:
        before = dict(vars(inp))
        contents = copy.deepcopy(before)
        assert kept <= before.keys() and before["_axioms"] is None
        check_axioms(inp)
        localize(inp)
        assert vars(inp).keys() == before.keys()
        assert [k for k, v in before.items() if vars(inp)[k] is not v] == ["_axioms"]
        assert {k: v for k, v in vars(inp).items() if k != "_axioms"} == {
            k: v for k, v in contents.items() if k != "_axioms"
        }
        assert inp._marks == FractionsInput(inp.category, inp.weq)._marks
        fresh = check_axioms(inp)
        assert str(inp._axioms) == str(fresh)
        assert [dict(f.witnesses) for f in inp._axioms.findings] == [
            f.witnesses for f in fresh.findings
        ]
    assert vars(catfrac.fractions) == module


# the decisions an input's axioms take: the name walk of the table, which
# only a table the view flags needs, and one finding per axiom
AXIOM_WORK = ("misplaced_composites", "_decide")


def _axiom_work(monkeypatch, run) -> Counter:
    """Run ``run`` with the axiom decision's parts wrapped and count each."""
    done = Counter()
    for name in AXIOM_WORK:
        original = getattr(catfrac.fractions, name)

        def recorded(*args, name=name, original=original):
            done[name] += 1
            return original(*args)

        monkeypatch.setattr(catfrac.fractions, name, recorded)
    run()
    return done


def test_an_input_decides_its_axioms_once(monkeypatch):
    # the public check decides the four axioms and keeps its report; both
    # localize calls read that verdict.  The view found no misplaced
    # composite as it was built, so the table is not walked by names
    C = corpus.chain(4)
    inp = FractionsInput(C, C.arrows)
    work = _axiom_work(monkeypatch, lambda: (check_axioms(inp), localize(inp), localize(inp)))
    assert work == Counter({"_decide": 4})


def test_axiom_work_count_fires(monkeypatch):
    # the same calls on copies, which keep nothing, each decide; and a
    # decision that walks a lawful table by names is seen, once per
    # decision
    C = corpus.chain(4)
    exact = catfrac.fractions.check_axioms

    def walking(inp):
        next(catfrac.fractions.misplaced_composites(inp.category), None)
        return exact(inp)

    def on_copies():
        catfrac.fractions.check_axioms(FractionsInput(C, C.arrows))
        localize(FractionsInput(C, C.arrows))
        localize(FractionsInput(C, C.arrows))

    assert _axiom_work(monkeypatch, on_copies) == Counter({"_decide": 12})
    monkeypatch.setattr(catfrac.fractions, "check_axioms", walking)
    assert _axiom_work(monkeypatch, on_copies) == Counter({"misplaced_composites": 3, "_decide": 12})


def test_records_keep_no_field_another_field_gives():
    # a cleavage member's tag is GD.arrow_tags[name][:2], a carrier's
    # variance is its diagram's, and the span machinery's objects are the
    # domains and codomains of its maps
    assert [f.name for f in dataclasses.fields(CleavageSet)] == ["members"]
    assert "variance" not in [f.name for f in dataclasses.fields(ElementsCategory)]
    assert not {"ext", "spn", "Q", "SP"} & {f.name for f in dataclasses.fields(_SpanMachinery)}


def test_functor_is_read_through_its_maps():
    cls = next(
        node for node in ast.walk(MODULES["fincat"])
        if isinstance(node, ast.ClassDef) and node.name == "Functor"
    )
    assert [node.name for node in cls.body if isinstance(node, ast.FunctionDef)] == []


def test_structure_is_checked_in_one_pass():
    # build fills identity composites first, so one full check suffices
    assert list(inspect.signature(FinCategory._check_structure).parameters) == ["self"]


def _structure_decisions(fn: ast.FunctionDef) -> list:
    """The structural decisions a function makes on its own, as the view
    once made them: a try block (around lookups that fail on a defect), a
    test of a value's type, a comparison with a count, and a call of
    ``_check_structure``."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Try):
            found.append("try")
        elif isinstance(node, ast.Call) and _called_name(node) in (
            "type", "isinstance", "_check_structure",
        ):
            found.append(_called_name(node))
        elif isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Call) and _called_name(side) == "len"
            for side in (node.left, *node.comparators)
        ):
            found.append("count")
    return found


def _view_init(tree: ast.Module) -> ast.FunctionDef:
    cls = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Positions"
    )
    return next(node for node in cls.body if isinstance(node, ast.FunctionDef))


def test_the_view_decides_no_structure():
    # a category decides its structure when it is made, so the view reads
    # a sound table: its one check is the misplaced flag, a law
    assert _view_init(MODULES["fincat"]).name == "__init__"
    assert _structure_decisions(_view_init(MODULES["fincat"])) == []


def test_view_decision_check_fires():
    # the view as it was: lookups trapped for KeyError, a key's type tested
    # and the entries counted, each defect sent to _check_structure
    earlier = ast.parse(
        "class _Positions:\n"
        "    def __init__(self, C):\n"
        "        try:\n"
        "            for key, h in C.composition.items():\n"
        "                if type(key) is not tuple or len(key) != 2:\n"
        "                    C._check_structure()\n"
        "        except KeyError:\n"
        "            C._check_structure()\n"
        "            raise\n"
        "        if entries != len(C.composition):\n"
        "            C._check_structure()\n"
    )
    assert Counter(_structure_decisions(_view_init(earlier))) == Counter(
        {"_check_structure": 3, "count": 2, "try": 1, "type": 1}
    )


# the lazy verdicts a value once kept, read by each of their callers
RETIRED_VERDICTS = {"_sound", "_structure", "_mark_index"}


def _names(tree: ast.AST) -> set:
    """Every name a module defines, reads or writes, attributes and
    string constants (a name given to setattr) included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _callers_by_module(trees: dict, name: str) -> dict:
    """Per module that has any, the functions that call ``name``
    (``_callers``)."""
    return {module: found for module, tree in trees.items() if (found := _callers(tree, name))}


def test_structure_is_decided_when_a_value_is_made():
    # a category decides its structure, and a marked category checks W, in
    # __post_init__; validate_category decides again on each call, so it
    # sees a table edited after it was made; no lazy verdict is left
    assert not RETIRED_VERDICTS & set().union(*map(_names, MODULES.values()))
    assert _callers_by_module(MODULES, "_check_structure") == {
        "fincat": {"__post_init__", "validate_category"}
    }
    # diagram._sub_problems calls a parameter of its own named check
    assert _callers_by_module(MODULES, "check") == {
        "fractions": {"__post_init__"}, "diagram": {"_sub_problems"}
    }


def test_structure_decision_check_fires():
    # the lazy verdicts as they were: a flag set at construction, a method
    # that decides once, a reader that calls it and an index built at first
    # use, which checks W
    earlier = ast.parse(
        "class FinCategory:\n"
        "    def __post_init__(self):\n"
        "        self._sound = False\n"
        "    def _structure(self):\n"
        "        if not self._sound:\n"
        "            self._check_structure()\n"
        "def compose(C, f, g):\n"
        "    C._structure()\n"
        "def _mark_index(inp):\n"
        "    inp.check()\n"
    )
    assert RETIRED_VERDICTS <= _names(earlier)
    assert _callers_by_module({"fincat": earlier}, "_check_structure") == {"fincat": {"_structure"}}
    assert _callers_by_module({"fractions": earlier}, "check") == {"fractions": {"_mark_index"}}


def _decisions(monkeypatch, run) -> tuple[list, list]:
    """Run ``run`` and list, in order, each category and marked category
    made (each ``__post_init__``) and each one whose structure is decided
    (each ``FinCategory._check_structure`` and ``FractionsInput.check``)."""
    made, decided = [], []
    for cls, decide in ((FinCategory, "_check_structure"), (FractionsInput, "check")):
        for name, seen in (("__post_init__", made), (decide, decided)):
            exact = getattr(cls, name)

            def counting(self, exact=exact, seen=seen):
                seen.append(self)
                return exact(self)

            monkeypatch.setattr(cls, name, counting)
    run()
    return made, decided


def _elements_and_cleavage() -> tuple:
    """The internal elements category of a contravariant chain diagram and
    its cleavage; made before a count, since the diagram's law check runs
    validate_category, which decides structure again by design."""
    D = corpus.diag_contra_chain()
    IE = internal_elements(D)
    return IE, internal_cleavage(D, IE)


def _view_readers(IE, w) -> None:
    """Every reader of a category's view and of an input's mark index, on
    chain(4) from FinCategory.build and on a copy from the raw
    constructor, and two internal_localize calls on (IE, w), each of which
    makes its own input."""
    built = corpus.chain(4)
    raw = FinCategory(built.objects, built.arrows, dict(built.src), dict(built.tgt),
                      dict(built.identity), dict(built.composition))
    for C in (built, raw):
        inp = FractionsInput(C, C.arrows)
        check_axioms(inp)
        LC = localize(inp)
        localize(FractionsInput(C, C.arrows))
        span_compose(inp, ("0<1", "0<2"), ("2<2", "2<3"))
        shape_instances(inp, "spn")
        assert inverts(LC.L, inp)[0]
        find_isomorphism(C, C)
        enumerate_functors(C, C)
        check_shape(C, "filtered")
    internal_localize(IE, w)
    internal_localize(IE, w)


def _kinds(values: list) -> Counter:
    return Counter(type(x).__name__ for x in values)


def test_structure_is_decided_once_per_value(monkeypatch):
    # each category and each marked category is decided once, as it is
    # made, and no reader decides again
    IE, w = _elements_and_cleavage()
    made, decided = _decisions(monkeypatch, lambda: _view_readers(IE, w))
    assert list(map(id, decided)) == list(map(id, made))
    assert _kinds(made).keys() == {"FinCategory", "FractionsInput"}


def test_structure_decision_count_fires(monkeypatch):
    # a view that decides its category's structure again, and an axiom
    # decision that checks W again, are seen
    exact_view, exact_axioms = catfrac.fincat._Positions, catfrac.fractions.check_axioms

    def deciding(C):
        C._check_structure()
        return exact_view(C)

    def checking(inp):
        inp.check()
        return exact_axioms(inp)

    monkeypatch.setattr(catfrac.fincat, "_Positions", deciding)
    monkeypatch.setattr(catfrac.fractions, "check_axioms", checking)
    IE, w = _elements_and_cleavage()
    made, decided = _decisions(monkeypatch, lambda: _view_readers(IE, w))
    assert (_kinds(decided) - _kinds(made)).keys() == {"FinCategory", "FractionsInput"}


def test_build_has_no_option():
    # every table gets the identity fill, which leaves a total table as it is
    assert list(inspect.signature(FinCategory.build).parameters) == [
        "objects", "arrows", "identity", "composition"
    ]


ITERATING_BUILTINS = {
    "all", "any", "enumerate", "filter", "frozenset", "list", "map", "set", "sorted", "sum",
    "tuple", "zip",
}


def _scans_of_weq(fn: ast.AST) -> int:
    """Loops, comprehensions and iterating builtin calls of ``fn`` that run
    over some ``x.weq``, and names bound to it (an alias is there to be
    scanned)."""

    def is_weq(node):
        return isinstance(node, ast.Attribute) and node.attr == "weq"

    count = 0
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.comprehension)):
            count += is_weq(node.iter)
        elif isinstance(node, ast.Assign):
            count += is_weq(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ITERATING_BUILTINS:
                count += sum(map(is_weq, node.args))
    return count


def test_fractions_searches_read_the_endpoint_index():
    # a search that filters all of W by an endpoint must read the index
    # instead; the scans left are the input's tuple and the index build,
    # both at construction, the input check, the inversion check, and the
    # first factor of the spans W x C1 and of the marked pairs W x W, each
    # visiting every marked arrow once
    scans = {}
    for fn in ast.walk(MODULES["fractions"]):
        if isinstance(fn, ast.FunctionDef):
            count = _scans_of_weq(fn)
            if count:
                scans[fn.name] = count
    assert scans == {
        "__post_init__": 2,
        "check": 1,
        "shape_instances": 1,
        "check_axioms": 1,
        "inverts": 1,
    }


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name
    )


def _searcher_classes(tree: ast.Module) -> list:
    """Classes that would stand beside the marked category as a second
    form of it: those deriving from ``FractionsInput``, and those that keep
    what a search routine yields (a method named ``kept``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
            methods = {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
            if "FractionsInput" in bases or "kept" in methods:
                found.append(f"{node.name} at line {node.lineno}")
    return found


def test_fractions_defines_no_searcher_class():
    # the routines take the plain input and read the index it keeps; a
    # call keeps its own filler lists in a dict
    assert _searcher_classes(MODULES["fractions"]) == []
    assert not [
        value for value in vars(catfrac.fractions).values()
        if isinstance(value, type) and issubclass(value, FractionsInput)
        and value is not FractionsInput
    ]


def test_searcher_class_check_fires():
    copy = ast.parse(
        "class _SharedFillers(FractionsInput):\n"
        "    def __init__(self, inp):\n"
        "        super().__init__(inp.category, inp.weq)\n"
        "class Searcher(fractions.FractionsInput):\n"
        "    pass\n"
        "class _Lists:\n"
        "    def kept(self, routine, *key):\n"
        "        return list(routine(self, *key))\n"
        "class AxiomReport:\n"
        "    findings: tuple\n"
    )
    assert _searcher_classes(copy) == [
        "_SharedFillers at line 1", "Searcher at line 4", "_Lists at line 6"
    ]


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


# each fractions shape's one search routine
ROUTINES = ("_weak_fillers", "_ore_squares", "_zippers")


def _first_hit_reads(tree: ast.Module) -> Counter:
    """Per function, the reads of a first filler: the calls of a search
    routine with a ``bound``, and the ``next(...)`` calls whose iterator
    comes from a call of one."""
    found = Counter()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            if _called_name(call) in ROUTINES:
                found[fn.name] += any(keyword.arg == "bound" for keyword in call.keywords)
            elif _called_name(call) == "next" and call.args:
                found[fn.name] += any(
                    isinstance(node, ast.Call) and _called_name(node) in ROUTINES
                    for node in ast.walk(call.args[0])
                )
    return +found


def test_first_fillers_are_read_in_one_place():
    # a first filler is what a routine bounded to one filler returns, and
    # only the axiom decision asks for one, once per shape: the first heads
    # of the class loop and of the ambient are read from its witnesses, and
    # the public span_compose lists its cospan's Ore squares whole
    assert _first_hit_reads(MODULES["fractions"]) == Counter({"check_axioms": 3})
    bounds = [
        keyword.value
        for call in ast.walk(_function(MODULES["fractions"], "check_axioms"))
        if isinstance(call, ast.Call) and _called_name(call) in ROUTINES
        for keyword in call.keywords
    ]
    assert [ast.literal_eval(bound) for bound in bounds] == [1, 1, 1]


def test_first_hit_read_check_fires():
    # a reader that searches its heads again, and a loop that does, are
    # both seen, bounded or read by next; a nested function counts for
    # itself and for its encloser, and a whole list is no first-hit read
    scattered = ast.parse(
        "def _first_heads(S):\n"
        "    def head(v1, g1, v2):\n"
        "        wp, h2 = _ore_squares(S, g1, v2, bound=1)[0]\n"
        "        return next(iter(_weak_fillers(S, wp, v1)), None)\n"
        "    return head\n"
        "def localize(inp):\n"
        "    alpha = {x: next(iter(S.marks[2][x])) for x in inp.category.objects}\n"
        "    problem = next(misplaced_composites(inp.category), None)\n"
        "    head = _first_heads(S)(v1, g1, v2)\n"
        "    m = next(x for x in _weak_fillers(S, wp, v1))\n"
        "    squares = _ore_squares(S, g1, v2)\n"
        "    u = fractions._zippers(S, f, g, bound=2)\n"
    )
    assert _first_hit_reads(scattered) == Counter({"_first_heads": 2, "head": 2, "localize": 2})


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of ``fn``, not descending into the functions it defines."""
    todo = [fn]
    while todo:
        node = todo.pop()
        yield node
        todo += [
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.Lambda))
        ]


def _tests_a_filler(test: ast.AST) -> bool:
    """Whether ``test`` compares a read of the flat table for equality or
    reads the marked flags: what picks a filler among candidates."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops):
            if any(
                isinstance(side, ast.Subscript) and getattr(side.value, "id", None) == "flat"
                for side in [node.left, *node.comparators]
            ):
                return True
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "marked":
            return True
    return False


def _search_sites(tree: ast.Module) -> Counter:
    """Per function, the places that keep a candidate a test picks: an
    ``if`` on such a test whose body yields, breaks or returns, and a
    comprehension filtered by one."""
    found = Counter()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in _own_nodes(fn):
            if isinstance(node, ast.If) and _tests_a_filler(node.test):
                keeps = (ast.Yield, ast.Break, ast.Return)
                found[fn.name] += any(
                    isinstance(inner, keeps) for stmt in node.body for inner in ast.walk(stmt)
                )
            elif isinstance(node, ast.comprehension):
                found[fn.name] += any(map(_tests_a_filler, node.ifs))
    return +found


def _reads(fn: ast.FunctionDef) -> set:
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


def test_each_fractions_shape_has_one_search_routine():
    # a filler is picked only in its shape's routine; the other picks are
    # the masts (the one sailboat enumeration) and the cases of axiom (4),
    # a parallel pair being one when some marked v coequalizes it.  The
    # decision, the heads (so the class loop and (b)) and span_compose reach
    # fillers through the routines
    tree = MODULES["fractions"]
    assert _search_sites(tree) == Counter(
        {"_weak_fillers": 1, "_ore_squares": 1, "_zippers": 1, "_masts": 1, "check_axioms": 1}
    )
    assert set(ROUTINES) <= _reads(_function(tree, "check_axioms"))
    # the first-head reader reads the kept verdict and no routine
    first_heads = _reads(_function(tree, "_first_heads"))
    assert "axiom_verdict" in first_heads
    assert not set(ROUTINES) & first_heads
    assert "_weak_fillers" in _reads(_function(tree, "_square_heads"))
    # (b) reads each row's Ore list and forms heads per square; the head
    # formula stays in _first_heads and _square_heads, so localize reaches
    # no weak filler itself
    localize_reads = _reads(_function(tree, "localize"))
    assert {"_first_heads", "_ore_squares", "_square_heads"} <= localize_reads
    assert "_weak_fillers" not in localize_reads
    # span_compose searches for itself, on the routines and the head
    # formula of _square_heads, and reads no verdict
    span_reads = _reads(_function(tree, "span_compose"))
    assert {"_ore_squares", "_square_heads"} <= span_reads
    assert not {"_first_heads", "axiom_verdict"} & span_reads


def test_search_site_check_fires():
    inline = ast.parse(
        "def _weak_fillers(S, v, vp):\n"
        "    for m in ins[src[v]]:\n"
        "        if marked[flat[flat[m * n + v] * n + vp]]:\n"
        "            yield m\n"
        "def check_axioms(inp):\n"
        "    for m in ins[src[v]]:\n"
        "        if marked[flat[flat[m * n + v] * n + vp]]:\n"
        "            witnesses[key] = m\n"
        "            break\n"
        "    if flat[fn + v] == flat[gn + v]:\n"
        "        counterexample = key\n"
        "def localize(inp):\n"
        "    squares = [(wp, g) for wp in w_into[x] for g in homs[y] if flat[g * n + v] == wph]\n"
        "    def moves():\n"
        "        for u in w_into[x]:\n"
        "            if flat[u * n + f] == flat[u * n + g]:\n"
        "                return u\n"
    )
    assert _search_sites(inline) == Counter(
        {"_weak_fillers": 1, "check_axioms": 1, "localize": 1, "moves": 1}
    )


def _variance_forks(fn: ast.FunctionDef) -> list:
    """Lines of the ``if`` statements and conditional expressions in ``fn``
    whose test reads a variance."""

    def reads_variance(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "variance") or (
            isinstance(node, ast.Attribute) and node.attr == "variance"
        )

    return [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, (ast.If, ast.IfExp)) and any(map(reads_variance, ast.walk(node.test)))
    ]


def test_coherence_laws_are_written_once():
    # each law is one formula: variance_order says on which side a functor
    # whiskers a cell, and _whiskered reads the component that side gives
    for name in ("_check_unit_coherence", "_check_assoc_coherence", "derive_unit_compositors"):
        assert _variance_forks(_function(MODULES["diagram"], name)) == [], name


def test_variance_fork_check_fires():
    forked = ast.parse(
        "def law(D, variance):\n"
        "    if D.variance == 'covariant':\n"
        "        pass\n"
        "    x = 1 if variance == 'contravariant' else 2\n"
        "    if x:\n"
        "        pass\n"
    )
    assert _variance_forks(_function(forked, "law")) == [2, 4]


def _union_finds(trees: dict) -> list:
    """Union-find classes and ``find`` functions defined outside fincat."""
    return [
        f"{name}.py:{node.lineno} {node.name}"
        for name, tree in trees.items()
        if name != "fincat"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ClassDef) and "UnionFind" in node.name)
        or (isinstance(node, ast.FunctionDef) and node.name == "find")
    ]


def test_one_partition_routine():
    # the sailboat classes and the ambient coequalizer both close their
    # relation with fincat.partition; only the relations differ by route
    assert _union_finds(MODULES) == []


def test_partition_routine_check_fires():
    copies = {
        "fincat": ast.parse("def partition(size, moves):\n    def find(i):\n        return i\n"),
        "fractions": ast.parse("class _UnionFind:\n    def find(self, i):\n        return i\n"),
        "ambient": ast.parse("def coequalize_reflexive(f, g):\n    def find(i):\n        return i\n"),
    }
    assert _union_finds(copies) == [
        "fractions.py:1 _UnionFind", "fractions.py:2 find", "ambient.py:2 find"
    ]


def _none_tables(tree: ast.Module) -> list:
    """``[None] * n`` tables built outside the factorization routine."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_factor"
        for node in ast.walk(fn)
    }

    def none_list(node) -> bool:
        return isinstance(node, ast.List) and [ast.dump(e) for e in node.elts] == [
            ast.dump(ast.Constant(None))
        ]

    return [
        f"ambient.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and (none_list(node.left) or none_list(node.right)) and id(node) not in inside
    ]


def test_one_factorization_routine():
    # every map off a quotient or a coproduct fills its table in _factor
    assert _none_tables(MODULES["ambient"]) == []
    assert "[None] * size" in inspect.getsource(catfrac.ambient._factor)


def test_factorization_routine_check_fires():
    copy = ast.parse(
        "def _factor(q_table, h_table, size):\n"
        "    table = [None] * size\n"
        "def coproduct_mediate(S, injections, legs):\n"
        "    table = [None] * S.size\n"
        "def verify_pairs_coequalizer(IC, w):\n"
        "    comparison = QP.size * [None]\n"
    )
    assert _none_tables(copy) == ["ambient.py:4", "ambient.py:6"]


def _coordinate_lookups(tree: ast.Module) -> list:
    """Pullback elements found by a table of pairs, not by the index: a
    ``_positions`` or ``_pair_positions`` helper, a dict built from a zip of
    two maps' tables, and block starts (``bisect_left``) read outside the
    one index builder."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_pair_index"
        for node in ast.walk(fn)
    }

    def zips_tables(node) -> bool:
        return any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "zip"
            and sum(isinstance(a, ast.Attribute) and a.attr == "table" for a in call.args) >= 2
            for call in ast.walk(node)
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_positions", "_pair_positions"):
            found.append(f"ambient.py:{node.lineno} {node.name}")
        elif (isinstance(node, ast.DictComp) or isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "dict") and zips_tables(node):
            found.append(f"ambient.py:{node.lineno} dict of table pairs")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bisect_left"
              and id(node) not in inside):
            found.append(f"ambient.py:{node.lineno} block starts")
    return found


def test_pullback_elements_are_found_by_the_index():
    # (x, y) sits at start[x] + rank[y]; no dict keyed by coordinate pairs
    assert _coordinate_lookups(MODULES["ambient"]) == []
    assert "bisect_left" in inspect.getsource(catfrac.ambient._pair_index)


def test_coordinate_lookup_check_fires():
    copy = ast.parse(
        "def _pair_index(p0, p1):\n"
        "    start = [bisect_left(p0.table, x) for x in range(n)]\n"
        "def _positions(p0, p1):\n"
        "    return dict(zip(zip(p0.table, p1.table), range(p0.dom.size)))\n"
        "def _span_machinery(IC, w):\n"
        "    pairs = {(x, y): k for k, (x, y) in enumerate(zip(pi_v.table, pi_g.table))}\n"
        "    start = [bisect_left(pi_v.table, x) for x in range(n)]\n"
    )
    assert _coordinate_lookups(copy) == [
        "ambient.py:3 _positions", "ambient.py:4 dict of table pairs",
        "ambient.py:6 dict of table pairs", "ambient.py:7 block starts",
    ]


def _enumerated_dicts(tree: ast.Module) -> list:
    """Each dict built from an enumeration, by the function that builds it
    and what it numbers: ``{x: i for i, x in enumerate(xs)}`` or
    ``dict(zip(xs, range(n)))``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.DictComp):
                iterated = node.generators[0].iter
                if isinstance(iterated, ast.Call) and _called_name(iterated) == "enumerate":
                    found.append(f"{fn.name}: {ast.unparse(iterated.args[0])}")
            elif (isinstance(node, ast.Call) and _called_name(node) == "dict" and node.args
                  and isinstance(node.args[0], ast.Call) and _called_name(node.args[0]) == "zip"
                  and any(isinstance(a, ast.Call) and _called_name(a) == "range"
                          for a in node.args[0].args)):
                found.append(f"{fn.name}: {ast.unparse(node.args[0].args[0])}")
    return found


def _callers(tree: ast.Module, name: str) -> set:
    """The functions of ``tree`` that call ``name``."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name != name
        and any(isinstance(node, ast.Call) and _called_name(node) == name for node in ast.walk(fn))
    }


def test_the_ambient_numbers_a_category_through_its_view():
    # object and arrow positions come from FinCategory._positions(), read
    # in one tabulation that internalize and the element blocks share; the
    # one enumerated dict left is w's inverse, built with the span machinery
    # and read from it by internal_localize
    assert _enumerated_dicts(MODULES["ambient"]) == ["_span_machinery: w.table"]
    assert _callers(MODULES["ambient"], "_tabulate") == {"internalize", "_element_blocks"}
    assert "_positions()" in inspect.getsource(catfrac.ambient._tabulate)
    assert "M.w_pos" in inspect.getsource(catfrac.ambient.internal_localize)


def test_view_numbering_check_fires():
    # the ambient as it was: its own position dicts beside the view, and
    # w's inverse built again by internal_localize
    earlier = ast.parse(
        "def internalize(C):\n"
        "    arr_pos = {f: i for i, f in enumerate(C.arrows)}\n"
        "def _element_blocks(D):\n"
        "    tables = {A: _tabulate(D.cat(A), 'D') for A in idx.objects}\n"
        "    obj_pos = dict(zip(fiber.objects, range(len(fiber.objects))))\n"
        "def _span_machinery(IC, w):\n"
        "    w_pos = {arrow: k for k, arrow in enumerate(w.table)}\n"
        "def internal_localize(IC, w):\n"
        "    w_pos = {arrow: k for k, arrow in enumerate(wt)}\n"
    )
    assert _enumerated_dicts(earlier) == [
        "internalize: C.arrows", "_element_blocks: fiber.objects", "_span_machinery: w.table",
        "internal_localize: wt",
    ]
    assert _callers(earlier, "_tabulate") == {"_element_blocks"}


# what runs on arrow positions: the axiom decision, the sailboat moves,
# the search routines, the heads, and localize's own loops, the class loop
# and self-check (b)
POSITIONAL = (
    "check_axioms", "_masts", "_span_partition", *ROUTINES, "_first_heads", "_square_heads",
    "localize",
)


def _name_pair_reads(tree: ast.Module, functions) -> list:
    """Reads of a composition table by a pair in ``functions``: ``X[(a, b)]``
    or ``X.get((a, b))`` where X is ``comp``, some ``.composition`` or a
    name bound to one."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        tables = {"comp"} | {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "composition"
            for target in node.targets if isinstance(target, ast.Name)
        }

        def is_table(node) -> bool:
            return (isinstance(node, ast.Name) and node.id in tables
                    or isinstance(node, ast.Attribute) and node.attr == "composition")

        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and is_table(node.value):
                pair = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and is_table(node.func.value) and node.args):
                pair = node.args[0]
            else:
                continue
            if isinstance(pair, ast.Tuple):
                found.append(f"{fn.name} at line {node.lineno}")
    return found


def test_localize_reads_composition_by_position():
    # the moved loops read the flat table of the category's positional
    # view, flat[f*N + g]; names are read at the edges only
    assert _name_pair_reads(MODULES["fractions"], POSITIONAL) == []
    for name in POSITIONAL:
        assert "flat" in inspect.getsource(getattr(catfrac.fractions, name)), name


def test_name_pair_read_check_fires():
    by_names = ast.parse(
        "def localize(inp, exhaustive_limit=64):\n"
        "    comp = C.composition\n"
        "    c = comp[(b, g2)]\n"
        "    d = inp.category.composition[(a, b)]\n"
        "    table = C.composition\n"
        "    e = table.get((a, b))\n"
        "    f = flat[b * n + g2]\n"
        "def _first_heads(inp):\n"
        "    comp = inp.category.composition\n"
        "    return lambda v1, g1, v2: comp[(m, h2)]\n"
        "def check_axioms(inp):\n"
        "    comp = inp.category.composition\n"
        "    coequalized = comp[(f, v)] == comp[(g, v)]\n"
    )
    assert _name_pair_reads(by_names, POSITIONAL) == [
        "localize at line 3", "localize at line 4", "localize at line 6",
        "_first_heads at line 10", "check_axioms at line 13", "check_axioms at line 13",
    ]



def _functor_search_names(tree: ast.Module) -> list:
    """Where ``_functor_search`` would run on names: each read of a
    composition table by a name pair and each call of ``backtrack``."""
    found = _name_pair_reads(tree, ("_functor_search",))
    for node in ast.walk(_function(tree, "_functor_search")):
        if isinstance(node, ast.Call) and _called_name(node) == "backtrack":
            found.append(f"_functor_search calls backtrack at line {node.lineno}")
    return found


def test_functor_search_reads_composition_by_position():
    """The functor search runs its own slot loop on the positional views:
    every entry is a read of X's flat table. The two 2-cell searches
    (``nat_trans_search``, ``diagram.modification_search``) stay on names,
    since a positional ``nat_trans_search`` measured 1 to 3% slower than its
    inline name loop: a pair there costs little more than its set-up."""
    assert _functor_search_names(MODULES["fincat"]) == []
    assert "flat[" in inspect.getsource(catfrac.fincat._functor_search)


def test_functor_search_name_check_fires():
    # the search as it was: backtrack with a check of each entry by names
    earlier = ast.parse(
        "def _functor_search(C, X, bijective):\n"
        "    comp = X.composition\n"
        "    xhom = X.hom\n"
        "    def domain(i, vals):\n"
        "        return xhom(vals[s], vals[t])\n"
        "    def accept(i, vals):\n"
        "        for f, g, h in entries_closed[i]:\n"
        "            if comp[(vals[f], vals[g])] != vals[h]:\n"
        "                return False\n"
        "        return True\n"
        "    for vals in backtrack(n + len(arrows), domain, accept):\n"
        "        yield Functor(C, X, dict(zip(objs, vals)), dict(zip(arrows, vals[n:])))\n"
    )
    assert _functor_search_names(earlier) == [
        "_functor_search at line 8", "_functor_search calls backtrack at line 11",
    ]

FRACTIONS_ENTRY = {"FractionsInput", "check_axioms", "_first_heads"}


def _fractions_reads(tree: ast.Module) -> list:
    """Reads of the fractions layer's entry names outside internal_localize."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "internal_localize"
        for node in ast.walk(fn)
    }
    return [
        f"ambient.py:{node.lineno} {node.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in FRACTIONS_ENTRY and id(node) not in inside
    ]


def test_internal_localize_is_the_one_fractions_entry():
    # the span machinery and the pairs comparison read the ambient's tables
    # only; composing spans is what needs the fractions axioms
    assert _fractions_reads(MODULES["ambient"]) == []
    assert {
        alias.name
        for node in ast.walk(MODULES["ambient"])
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for alias in node.names
    } == FRACTIONS_ENTRY
    assert "span_compose" not in vars(catfrac.ambient)
    assert "inp" not in {f.name for f in dataclasses.fields(_SpanMachinery)}


def test_fractions_entry_check_fires():
    copy = ast.parse(
        "def _span_machinery(IC, w):\n"
        "    return check_axioms(FractionsInput(externalize(IC), w))\n"
        "def internal_localize(IC, w):\n"
        "    return _first_heads(inp)(v1, g1, v2)\n"
        "def _find(p0, p1, index, a, c):\n"
        "    return _first_heads(inp)(a, c, a)\n"
    )
    assert _fractions_reads(copy) == [
        "ambient.py:2 check_axioms", "ambient.py:2 FractionsInput", "ambient.py:6 _first_heads",
    ]


def _ingestion_reads(tree: ast.Module) -> list:
    """Reads of a file outside _resolve and validate's read of its own file,
    and reads of a bundle's "diagram" or "against" field outside its one
    reader."""
    readers = {"diagram": "_diagram", "against": "_against"}
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read_json":
                if fn.name not in ("_resolve", "cmd_validate"):
                    found.append(f"cli.py:{node.lineno} {fn.name} reads a file")
            elif isinstance(node, ast.Constant) and node.value in readers:
                if fn.name != readers[node.value]:
                    found.append(f"cli.py:{node.lineno} {fn.name} reads {node.value!r}")
    return sorted(found)


def test_cli_has_one_ingestion_path():
    # every file, a command's own included, is read and kind-checked only by
    # _resolve (validate dispatches on the kind it finds), and each bundle
    # field has one reader
    assert _ingestion_reads(MODULES["cli"]) == []


def test_ingestion_check_fires():
    copy = ast.parse(
        "def load_functor(data, base):\n"
        "    return load_category(_read_json(base / data['dom']), base)\n"
        "def cmd_verify(args):\n"
        "    data = _read_json(path)\n"
        "    X = load_category(_read_json(Path(args.against)), Path())\n"
        "    D = load_pseudofunctor(_resolve(data['diagram'], base, 'pseudofunctor'), base)\n"
        "def _diagram(data, base):\n"
        "    return _resolve(data['diagram'], base, 'pseudofunctor')\n"
    )
    assert _ingestion_reads(copy) == [
        "cli.py:2 load_functor reads a file",
        "cli.py:4 cmd_verify reads a file",
        "cli.py:5 cmd_verify reads a file",
        "cli.py:6 cmd_verify reads 'diagram'",
    ]


def test_against_check_fires():
    copy = ast.parse(
        "def cmd_validate(args):\n"
        "    data = _read_json(Path(args.path))\n"
        "def _load_bundle(data, base):\n"
        "    return [_resolve(ref, base, 'category') for ref in data.get('against', [])]\n"
        "def cmd_verify(args):\n"
        "    refs = data['against']\n"
        "def _against(data):\n"
        "    return data.get('against', [])\n"
    )
    assert _ingestion_reads(copy) == [
        "cli.py:4 _load_bundle reads 'against'",
        "cli.py:6 cmd_verify reads 'against'",
    ]


# handlers that would take a library bug's KeyError or TypeError for bad input
CATCH_ALLS = {"KeyError", "TypeError", "LookupError", "Exception", "BaseException"}


def _catch_alls(tree: ast.Module) -> list:
    """The CLI's exception handlers that catch a KeyError or a TypeError,
    bare ones included."""
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                caught = {n.id for n in ast.walk(node.type or ast.Name("BaseException"))
                          if isinstance(n, ast.Name)}
                if caught & CATCH_ALLS:
                    found.append(f"cli.py:{node.lineno} {fn.name}")
    return found


def test_cli_has_no_catch_all():
    # KINDS types every field before a loader reads it, so main and the
    # loaders catch neither; a KeyError or TypeError is a library bug and
    # shows as a traceback
    assert _catch_alls(MODULES["cli"]) == []


def test_catch_all_check_fires():
    copy = ast.parse(
        "def load_category(data, base):\n"
        "    try:\n"
        "        rows = [(a['name'], a['src']) for a in data['arrows']]\n"
        "    except (TypeError, KeyError) as exc:\n"
        "        raise InputError(str(exc))\n"
        "def main(argv=None):\n"
        "    try:\n"
        "        return args.fn(args)\n"
        "    except InputError:\n"
        "        return 2\n"
        "    except KeyError:\n"
        "        return 2\n"
        "    except:\n"
        "        return 2\n"
    )
    assert _catch_alls(copy) == ["cli.py:4 load_category", "cli.py:11 main", "cli.py:13 main"]


def test_every_reference_names_a_kind():
    # a kind's fields name only kinds the CLI can load
    todo, references = [fields for _, _, fields in catfrac.cli.KINDS.values()], set()
    for shape in todo:
        if isinstance(shape, str):
            references.add(shape)
        elif isinstance(shape, list):
            todo.extend(shape)
        elif isinstance(shape, dict):
            todo.extend(shape.values())
    assert references <= set(catfrac.cli.KINDS)


SEARCHES = {"nat_trans_search": catfrac.fincat, "modification_search": catfrac.diagram}


def _prepared_searches(monkeypatch, run) -> list:
    """Run ``run`` with the two 2-cell searches wrapped wherever a catfrac
    module binds them, and list one (function that prepared it, search,
    domain) per search prepared; the domain is a category, or for the
    modification search a diagram, and is named by its id. A comprehension
    is its own frame on some Python versions, so the function is the first
    frame out that has a name."""
    prepared = []
    for name, home in SEARCHES.items():
        original = getattr(home, name)

        def recorded(domain, X, name=name, original=original):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            prepared.append((frame.f_code.co_name, name, id(domain)))
            return original(domain, X)

        for module in [m for n, m in sys.modules.items() if n.startswith("catfrac")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded)
    run()
    return prepared


def _repeated(prepared: list) -> list:
    """Each function that prepared one search more than once on one domain,
    with the count."""
    return sorted((fn, name, n) for (fn, name, _), n in Counter(prepared).items() if n > 1)


def test_two_cell_searches_are_prepared_once_per_domain(monkeypatch):
    # enumerate_transformations, modification_cells and the engine each
    # prepare their searches before their loops over pairs; over the chain
    # the three index arrows have two domains and each index object has its
    # own category, so a search prepared per pair would show as a repeat
    D, X = corpus.diag_cov_chain(), corpus.iso()
    prepared = _prepared_searches(monkeypatch, lambda: verify_oplax_colimit(D, X))
    assert _repeated(prepared) == []
    assert [p for p in prepared if p[1] == "modification_search"] == [
        ("modification_cells", "modification_search", id(D))
    ]


def test_prepared_search_check_fires(monkeypatch):
    # enumerate_modifications prepares its searches per call, so calling it
    # once per pair of transformations prepares them once per pair
    D, X = corpus.diag_cov_chain(), corpus.iso()
    trans = enumerate_transformations(D, X)

    def per_pair():
        for x in trans:
            for y in trans:
                enumerate_modifications(x, y)

    pairs = len(trans) ** 2
    assert _repeated(_prepared_searches(monkeypatch, per_pair)) == [
        ("enumerate_modifications", "modification_search", pairs)
    ] + [("enumerate_nat_trans", "nat_trans_search", pairs)] * len(D.index.objects)


def _per_pair_callbacks(trees: dict) -> list:
    """Where a 2-cell search would cost each pair of 1-cells a callback:
    ``trees`` maps each search of ``SEARCHES`` to the module tree that
    defines it. Lists each call of ``backtrack`` in the preparing function,
    and each function, lambda, generator expression or ``yield`` inside
    the search it returns (the functions it defines), which would be built
    or run as a generator once per call."""
    found = []
    for name, tree in trees.items():
        prepare = _function(tree, name)
        for node in ast.walk(prepare):
            if isinstance(node, ast.Call) and _called_name(node) == "backtrack":
                found.append(f"{name} calls backtrack at line {node.lineno}")
        for search in [fn for fn in prepare.body if isinstance(fn, ast.FunctionDef)]:
            for node in ast.walk(search):
                nested = (ast.FunctionDef, ast.Lambda, ast.GeneratorExp, ast.Yield, ast.YieldFrom)
                if node is not search and isinstance(node, nested):
                    kind = type(node).__name__
                    found.append(f"{name}.{search.name} builds a {kind} at line {node.lineno}")
    return found


def test_two_cell_searches_run_no_callback_per_pair():
    # most pairs of 1-cells hold no 2-cell or one, so the fixed cost of a
    # pair is most of the verifiers' 2-cell phase: both searches write their
    # slot loop out, with no backtrack kernel, closure or generator per pair
    trees = {name: MODULES[home.__name__.rsplit(".", 1)[1]] for name, home in SEARCHES.items()}
    assert _per_pair_callbacks(trees) == []


def test_per_pair_callback_check_fires():
    # the searches as they were: a closure per pair handed to backtrack
    earlier = ast.parse(
        "def nat_trans_search(C, X):\n"
        "    def search(F, G):\n"
        "        def natural(i, vals):\n"
        "            return True\n"
        "        return list(backtrack(len(homs), lambda i, vals: homs[i], natural))\n"
        "    return search\n"
        "def modification_search(D, X):\n"
        "    def search(x, y, per_object):\n"
        "        yield from (vals for vals in backtrack(n, domain, accept))\n"
        "    return search\n"
    )
    assert _per_pair_callbacks(dict.fromkeys(SEARCHES, earlier)) == [
        "nat_trans_search calls backtrack at line 5",
        "nat_trans_search.search builds a FunctionDef at line 3",
        "nat_trans_search.search builds a Lambda at line 5",
        "modification_search calls backtrack at line 9",
        "modification_search.search builds a YieldFrom at line 9",
        "modification_search.search builds a GeneratorExp at line 9",
    ]


# the builders of the ambient layer that one crosscheck needs once each
AMBIENT_BUILDS = ("validate_internal_category", "_span_machinery", "_element_blocks")


def _ambient_builds(monkeypatch, run) -> list:
    """Run ``run`` with the ambient builders wrapped and list one (builder,
    inputs, first argument) per build. An internal category or a map is
    named by its repr, so copies count as one input; a diagram by its id."""
    built = []
    for name in AMBIENT_BUILDS:
        original = getattr(catfrac.ambient, name)

        def recorded(*args, name=name, original=original):
            built.append((name, tuple(
                repr(a) if isinstance(a, (InternalCategory, FinSetMap)) else id(a) for a in args
            ), args[0]))
            return original(*args)

        monkeypatch.setattr(catfrac.ambient, name, recorded)
    run()
    return built


def _rebuilt(built: list) -> list:
    """Each builder that ran more than once on one input, with the count."""
    counts = Counter((name, inputs) for name, inputs, _ in built)
    return sorted((name, n) for (name, _), n in counts.items() if n > 1)


def test_crosscheck_builds_each_internal_structure_once(monkeypatch, capsys):
    # externalize, internal_localize and verify_pairs_coequalizer share IE's
    # law verdict, the two readers share the span machinery, and the
    # cleavage reads the blocks internal_elements built
    fixture = Path(__file__).parent / "fixtures" / "diagram_contra_3x3.json"
    codes = []
    built = _ambient_builds(
        monkeypatch, lambda: codes.append(catfrac.cli.main(["crosscheck", str(fixture)]))
    )
    assert codes == [0] and _rebuilt(built) == []
    assert [(name, IC.c1.size if name == "validate_internal_category" else None)
            for name, _, IC in built] == [
        ("_element_blocks", None),
        ("validate_internal_category", 18),  # IE, by externalize
        ("_span_machinery", None),
        ("validate_internal_category", 24),  # LI, by externalize
    ]
    assert capsys.readouterr().out == (
        "elements: ok (6 objects, 18 arrows)\n"
        "cleavage: ok (9 arrows)\n"
        "localization: ok (6 objects, 24 arrows)\n"
        "composable pairs: pullback vs coequalizer: pass (pair classes=80, class pairs=80)\n"
    )


def test_ambient_build_check_fires(monkeypatch):
    # the crosscheck's calls on copies of IE, which keep nothing: each
    # reader checks the laws again and builds its own machinery, and the
    # cleavage rebuilds the blocks
    D = corpus.diag_contra_chain()

    def on_copies():
        IE = internal_elements(D)

        def copy():
            return InternalCategory(IE.c0, IE.c1, IE.s, IE.t, IE.e, IE.c)

        externalize(copy())
        w = internal_cleavage(D, copy())
        internal_localize(copy(), w)
        verify_pairs_coequalizer(copy(), w)

    assert _rebuilt(_ambient_builds(monkeypatch, on_copies)) == [
        ("_element_blocks", 2), ("_span_machinery", 2), ("validate_internal_category", 3)
    ]


def test_internal_category_gains_no_attribute():
    # what an internal category keeps sits in slots set during __init__,
    # outside the fields, so __eq__, hash and repr ignore it
    D = corpus.diag_contra_chain()
    IE = internal_elements(D)
    keys = list(vars(IE))
    w = internal_cleavage(D, IE)
    externalize(internal_localize(IE, w))
    verify_pairs_coequalizer(IE, w)
    assert list(vars(IE)) == keys
    assert [f.name for f in dataclasses.fields(InternalCategory)] == ["c0", "c1", "s", "t", "e", "c"]
    copy = InternalCategory(IE.c0, IE.c1, IE.s, IE.t, IE.e, IE.c)
    assert copy == IE and hash(copy) == hash(IE) and repr(copy) == repr(IE)


def _gained(value, run) -> list:
    """The attributes ``value`` has after ``run()`` that it had not before."""
    keys = set(vars(value))
    run()
    return sorted(set(vars(value)) - keys)


def test_pseudofunctor_gains_no_attribute():
    # the law verdict a diagram keeps sits in a slot set during __init__,
    # outside the fields, so __eq__ and repr ignore it
    D, X = corpus.diag_contra_chain(), corpus.two()
    assert _gained(D, lambda: (
        grothendieck(D), internal_elements(D), enumerate_transformations(D, X)
    )) == []
    assert [f.name for f in dataclasses.fields(Pseudofunctor)] == [
        "index", "variance", "on_objects", "on_arrows", "unitors", "compositors"
    ]
    copy = dataclasses.replace(D)
    assert copy == D and repr(copy) == repr(D)


def test_gained_attribute_check_fires():
    D = corpus.diag_contra_chain()
    assert _gained(D, lambda: setattr(D, "_verdict", None)) == ["_verdict"]


def _validator_reads(trees: dict) -> list:
    """``module.name`` of each top-level definition that reads
    validate_pseudofunctor, its own definition aside; a re-export in
    __init__ is an import, not a read."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                name = top.name
            elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
                name = top.targets[0].id
            else:
                continue
            if name != "validate_pseudofunctor" and any(
                getattr(node, "id", getattr(node, "attr", None)) == "validate_pseudofunctor"
                for node in ast.walk(top)
            ):
                found.append(f"{module}.{name}")
    return found


def test_diagram_laws_are_decided_in_one_place():
    # every construction that reads a diagram, and the CLI's law check,
    # reads the verdict law_verdict keeps on the diagram
    assert _validator_reads(MODULES) == ["diagram.law_verdict"]


def test_validator_read_check_fires():
    copy = {
        "cli": ast.parse(
            "KINDS = {'pseudofunctor': (load, lambda D: validate_pseudofunctor(D))}\n"
            "def _bundle_laws(bundle):\n"
            "    return diagram.validate_pseudofunctor(bundle[0])\n"
        ),
        "diagram": ast.parse(
            "def validate_pseudofunctor(D):\n"
            "    return validate_pseudofunctor\n"
            "def law_verdict(D):\n"
            "    return validate_pseudofunctor(D)\n"
        ),
    }
    assert _validator_reads(copy) == ["cli.KINDS", "cli._bundle_laws", "diagram.law_verdict"]


# the checks that decide a diagram's laws: the validator, and the unit
# coherence law that the transformation search once checked on its own
LAW_CHECKS = ("validate_pseudofunctor", "_check_unit_coherence")


def _law_checks(monkeypatch, run) -> Counter:
    """Run ``run`` with the diagram's law checks wrapped and count each
    check per diagram; a diagram is named by its repr, so copies count as
    one."""
    checked = Counter()
    for name in LAW_CHECKS:
        original = getattr(catfrac.diagram, name)

        def recorded(D, *rest, name=name, original=original):
            checked[(name, repr(D))] += 1
            return original(D, *rest)

        monkeypatch.setattr(catfrac.diagram, name, recorded)
    run()
    return checked


@pytest.mark.parametrize("argv", [
    ["crosscheck", "diagram_contra_3x3.json"],
    ["verify", "bundle_contra.json", "pseudocolim"],  # three test categories
], ids=["crosscheck", "verify"])
def test_a_command_decides_its_diagram_once(monkeypatch, capsys, argv):
    # the CLI's law check decides the diagram's laws, and every construction
    # after it, once per test category, reads the verdict the diagram keeps
    fixtures = Path(__file__).parent / "fixtures"
    argv = [argv[0], str(fixtures / argv[1])] + argv[2:]
    codes = []
    checked = _law_checks(monkeypatch, lambda: codes.append(catfrac.cli.main(argv)))
    capsys.readouterr()
    assert codes == [0] and len({D for _, D in checked}) == 1
    assert sorted(checked.values()) == [1, 1]


def test_law_check_count_fires(monkeypatch):
    # the readers on copies of one diagram, which keep nothing: each
    # decides the laws again
    D, X = corpus.diag_contra_two(), corpus.two()

    def on_copies():
        grothendieck(dataclasses.replace(D))
        internal_elements(dataclasses.replace(D))
        enumerate_transformations(dataclasses.replace(D), X)

    checked = _law_checks(monkeypatch, on_copies)
    assert len({D for _, D in checked}) == 1 and sorted(checked.values()) == [3, 3]


README = PACKAGE.parent.parent / "README.md"
API_HEADING = "## Public API without a library caller"


def _uncalled_public_names(trees: dict) -> set:
    """``module.name`` for each module-level public function, class or
    assignment that no code in ``trees`` reads outside its own definition."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((module, t.id, node) for t in targets if isinstance(t, ast.Name))
    uncalled = set()
    for module, name, definition in defined:
        if name.startswith("_"):
            continue
        own = set(map(id, ast.walk(definition)))
        if not any(
            id(node) not in own
            and (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        ):
            uncalled.add(f"{module}.{name}")
    return uncalled


def _api_list() -> set:
    """The ``module.name`` entries of the README's list of public API
    without a library caller."""
    text = README.read_text(encoding="utf-8")
    section = text.split(API_HEADING, 1)[1].split("\n## ", 1)[0]
    items = [item.split("\n\n")[0] for item in section.split("\n- ")[1:]]
    return {name for item in items for name in item.split("`")[1::2] if "." in name}


def test_every_public_name_has_a_caller_or_a_readme_line():
    # a re-export in __init__ is an import, not a read, so it is no caller
    assert _uncalled_public_names(MODULES) == _api_list()


def test_uncalled_name_check_fires():
    synthetic = ast.parse(
        "LIMIT = 3\n"
        "_hidden = 1\n"
        "def read():\n"
        "    return LIMIT + _hidden\n"
        "def recurse(n):\n"
        "    return recurse(n - 1)\n"
        "class Record:\n"
        "    pass\n"
    )
    caller = ast.parse("from .synthetic import read\nread()\n")
    assert _uncalled_public_names({"synthetic": synthetic, "caller": caller}) == {
        "synthetic.recurse", "synthetic.Record"
    }
