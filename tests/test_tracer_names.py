"""The benchmark's tracer wraps library functions by name: ``Tracer.install``
looks each name of its ``SPANNED`` and ``COUNTED`` tables up in the module
``catfrac.<layer>``, so a name the library no longer binds breaks every
traced run.  The tables are read from ``perfbench/tracer.py`` with ``ast``,
without importing the harness, and every name must be a function bound in
its layer's module."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
TABLES = ("SPANNED", "COUNTED")


def traced_names(source: str) -> dict:
    """Per table of ``TABLES`` that ``source`` assigns at module level, its
    layer -> names mapping."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in TABLES:
                    found[target.id] = ast.literal_eval(node.value)
    return found


def unbound(tables: dict) -> list[str]:
    """``layer.name`` for each name of the tables that its module
    ``catfrac.<layer>`` does not bind to a function, in table order."""
    missing = []
    for table in tables.values():
        for layer, names in table.items():
            module = importlib.import_module(f"catfrac.{layer}")
            missing += [f"{layer}.{name}" for name in names
                        if not callable(getattr(module, name, None))]
    return missing


def test_every_traced_name_is_bound_in_its_layer():
    tables = traced_names(TRACER.read_text(encoding="utf-8"))
    assert set(tables) == set(TABLES)
    assert "span_compose" in tables["SPANNED"]["fractions"]
    assert unbound(tables) == []


def test_unbound_traced_name_check_fires():
    synthetic = (
        'SPANNED = {"fractions": ("localize", "sailboat_quotient"), "cli": ("main",)}\n'
        'COUNTED = {"fincat": ("compose", "compose_all")}\n'
        'WORK = ("fractions.sailboats",)\n'
    )
    tables = traced_names(synthetic)
    assert set(tables) == set(TABLES)
    assert unbound(tables) == ["fractions.sailboat_quotient", "fincat.compose_all"]
