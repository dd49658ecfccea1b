"""The package's import structure: layered modules, no deferred imports.

Every module of ``primdeg`` imports its siblings at the top, and those imports
form a DAG (bitsets -> patterns -> digraphs -> families/formats -> cli). The one
deferred import is the numpy-backed ``dense`` oracle inside
``cli.run_oracle_check``, which keeps numpy off every other path.
"""

import ast
import graphlib
from pathlib import Path

import primdeg

PACKAGE = Path(primdeg.__file__).resolve().parent
ALLOWED_LOCAL = {("cli", "run_oracle_check", "dense")}


def _relative_imports():
    """(module, enclosing function or None, imported sibling) for every
    relative import in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name if func is None else func)
                    continue
                if isinstance(child, ast.ImportFrom) and child.level > 0:
                    if child.module:
                        targets = [child.module.split(".")[0]]
                    else:
                        targets = [alias.name for alias in child.names]
                    found.extend((module, func, t) for t in targets)
                visit(child, func)

        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_only_the_dense_oracle_is_imported_inside_a_function():
    local = {(m, f, t) for m, f, t in _relative_imports() if f is not None}
    assert local == ALLOWED_LOCAL


def test_top_level_imports_are_acyclic():
    graph: dict[str, set[str]] = {}
    for module, func, target in _relative_imports():
        graph.setdefault(module, set())
        if func is None:
            graph[module].add(target)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    assert order.index("bitsets") < order.index("patterns") < order.index("digraphs")
    assert order.index("digraphs") < min(order.index("families"), order.index("formats"))
    assert max(order.index("families"), order.index("formats")) < order.index("cli")


# Imported and never used, on purpose: bench/tracing.py wraps these names in families.
UNUSED_ALLOWED = {("families", "analyze"), ("families", "column_states")}


def test_every_imported_name_is_used():
    # a name counts as used where it is read as a name; __init__'s re-exports count through __all__
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            used |= set(primdeg.__all__)
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == UNUSED_ALLOWED
