"""Package structure: imports sit at module top and never form a cycle; no
function recurses, so no input depth can exhaust the interpreter's stack;
a category or a marked category gains no attribute after construction; a
record keeps no field that another of its fields gives, and a functor no
accessor over its maps; the fractions searches read the marked class
through its endpoint index;
span_compose searches fillers only through the input's filler cache; spans
and 2-cells are plain tuples, with no wrapper type around them; the
pseudofunctor coherence laws are written once for both variances; every
quotient is closed by the one partition routine in fincat; internal_localize
is the one ambient function that enters the fractions layer; the CLI reads a
file only to resolve a reference or a command's own path, and a bundle's
diagram in one place; the CLI types each kind's fields in its KINDS entry
and has no handler that would take a library bug's KeyError or TypeError
for bad input;
FinCategory.build has no option; the verifiers prepare each 2-cell search
once per domain, not once per pair."""

import ast
import dataclasses
import inspect
import sys
from collections import Counter
from pathlib import Path

import catfrac.cli
import catfrac.diagram
import catfrac.fincat
import corpus
from catfrac import (
    CleavageSet,
    ElementsCategory,
    FinCategory,
    FractionsInput,
    check_axioms,
    enumerate_functors,
    enumerate_modifications,
    enumerate_transformations,
    localize,
    validate_category,
    verify_oplax_colimit,
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


def test_marked_category_gains_no_attribute():
    # the endpoint index of W is built at construction, stays out of the
    # fields (so out of __eq__ and repr) and is only read afterwards
    assert [f.name for f in dataclasses.fields(FractionsInput)] == ["category", "weq"]
    for _, inp in corpus.fractions_corpus():
        before = dict(vars(inp))
        check_axioms(inp)
        localize(inp)
        assert vars(inp).keys() == before.keys()
        assert all(vars(inp)[k] is v for k, v in before.items())


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
    # instead; the scans left are the index build, the input check, the
    # inversion check, and the first factor of the spans W x C1 and of the
    # marked pairs W x W, each visiting every marked arrow once
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


def _raises_axiom_error(block: list) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "AxiomError"
        for stmt in block
        for node in ast.walk(stmt)
    )


def _unshared_reads(fn: ast.FunctionDef, names: set, axiom_path: bool) -> list:
    """Reads of ``names`` in ``fn`` that are not themselves an argument of
    an ``x._fillers(...)`` call (possibly chosen by a conditional
    expression) and, when ``axiom_path``, not inside the test or body of an
    ``if`` whose body raises AxiomError."""
    parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}

    def on_axiom_path(node) -> bool:
        while node in parent:
            node, up = parent[node], node
            if isinstance(node, ast.If) and up not in node.orelse and _raises_axiom_error(node.body):
                return True
        return False

    found = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Name) and node.id in names):
            continue
        arg = node
        while isinstance(parent[arg], ast.IfExp) and arg is not parent[arg].test:
            arg = parent[arg]
        call = parent[arg]
        if isinstance(call, ast.Call) and arg in call.args:
            if isinstance(call.func, ast.Attribute) and call.func.attr == "_fillers":
                continue
        if axiom_path and on_axiom_path(node):
            continue
        found.append(f"{node.id} at line {node.lineno}")
    return found


def _per_pair_searches(fn: ast.FunctionDef) -> list:
    return _unshared_reads(fn, {"_ore_fillers", "_weak_fillers"}, axiom_path=True) + (
        _unshared_reads(fn, {"_first_head", "_composite_heads"}, axiom_path=False)
    )


def test_span_compose_searches_only_through_the_filler_cache():
    # a composite's heads are searched through inp._fillers, which keeps
    # them for every g2 on a shared input; a direct filler search is left
    # only for naming the missing filler on the way to an AxiomError
    fn = _function(MODULES["fractions"], "span_compose")
    assert _per_pair_searches(fn) == []
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "_fillers" for node in ast.walk(fn)
    )


def test_per_pair_search_check_fires():
    per_pair = ast.parse(
        "def span_compose(inp, s1, s2, exhaustive=False):\n"
        "    wp, h2 = next(_ore_fillers(inp, g1, v2))\n"
        "    if next(_ore_fillers(inp, g1, v2), None) is None:\n"
        "        raise AxiomError('no Ore filler', report=check_axioms(inp))\n"
        "    heads = _composite_heads(inp, v1, g1, v2) if exhaustive else (\n"
        "        inp._fillers(_first_head, v1, g1, v2))\n"
        "    return [inp._fillers(_weak_fillers, wp, v1)[0], _weak_fillers(inp, wp, v1)]\n"
    )
    assert _per_pair_searches(_function(per_pair, "span_compose")) == [
        "_ore_fillers at line 2", "_weak_fillers at line 7", "_composite_heads at line 5"
    ]


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


FRACTIONS_ENTRY = {"FractionsInput", "_SharedFillers", "check_axioms", "span_compose"}


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
    assert "inp" not in {f.name for f in dataclasses.fields(_SpanMachinery)}


def test_fractions_entry_check_fires():
    copy = ast.parse(
        "def _span_machinery(IC, w):\n"
        "    return check_axioms(FractionsInput(externalize(IC), w))\n"
        "def internal_localize(IC, w):\n"
        "    return span_compose(_SharedFillers(inp), s1, s2)\n"
    )
    assert _fractions_reads(copy) == ["ambient.py:2 check_axioms", "ambient.py:2 FractionsInput"]


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
