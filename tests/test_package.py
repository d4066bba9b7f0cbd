"""Package hygiene read off the source, without importing it."""

import ast
from pathlib import Path

import dfc


def _annotation_names(node) -> set:
    """Names inside a string annotation such as ``"list[SetExpr]"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    used, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read somewhere in that
    module or listed in its __all__."""
    found = []
    for path in sorted(Path(dfc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []
