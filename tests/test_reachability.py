"""The package holds what the command line runs: every top-level definition
of src/primeplane is reachable by name from cli.py."""

import ast
from pathlib import Path

import primeplane

PACKAGE = Path(primeplane.__file__).parent


def _names(node):
    """Every identifier a node reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable_definitions():
    """(module, name) of each top-level function or class that no chain of
    names reaches from cli.py or from a module-level statement other than
    an import.  Names are matched across modules by their bare text, so
    the count can only err towards reachable."""
    definitions, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[path.stem, stmt.name] = stmt
                if path.stem == "cli":
                    roots |= _names(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1], []).append(key)
    reached, todo = set(), roots
    while todo:
        for key in by_name.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo |= _names(definitions[key])
    return {key for key in definitions if key not in reached and key[0] != "cli"}


def test_every_definition_is_reachable_from_the_cli():
    # the benchmark's tracer, perfbench/worker.py, wraps bounds.evaluate and
    # reads the cache of fourier.pair_exponents; nothing else in the package
    # is left for the tests alone
    assert unreachable_definitions() == {("bounds", "evaluate"), ("fourier", "pair_exponents")}
