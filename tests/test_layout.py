"""Source-layout checks: no code in src/ exists only for the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopkit"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_src_function_has_a_caller_outside_tests():
    """Every module-level def or class in src/hopkit is named somewhere
    outside its own definition, and every non-dunder method is reached
    through an attribute.  Callers are src/hopkit and perfbench; the
    package's __init__.py only re-exports, so it calls nothing."""
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    callers = dict(trees)
    callers.pop(SRC / "__init__.py")
    callers.update((path, _parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py")))

    names, attributes = [], []
    for tree in callers.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.alias):
                names.append((node.name.rpartition(".")[2], node))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, node))

    def referenced(definition, refs) -> bool:
        inside = {id(node) for node in ast.walk(definition)}
        return any(name == definition.name and id(node) not in inside for name, node in refs)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unreached = []
    for path, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (*functions, ast.ClassDef)):
                continue
            if not referenced(top, names + attributes):
                unreached.append(f"{path.stem}.{top.name}")
            for method in top.body if isinstance(top, ast.ClassDef) else ():
                if (isinstance(method, functions) and not method.name.startswith("__")
                        and not referenced(method, attributes)):
                    unreached.append(f"{path.stem}.{top.name}.{method.name}")
    assert not unreached, f"no caller outside tests: {unreached}"
