"""Guard against library surface that only the tests reach.

Every public top-level function and class in ``src/qescrow/*.py`` must be
referenced -- as a loaded name, an attribute or an imported name -- somewhere
in the library itself, the scripts or the benchmark.  A name only a test uses
is either given a product caller or deleted with its tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qescrow"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "benchmark")


def _public_definitions() -> dict[str, str]:
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names[node.name] = path.name
    return names


def _references() -> set[str]:
    seen = set()
    for folder in CALLER_DIRS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    seen.update(alias.name for alias in node.names)
    return seen


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = _references()
    unused = sorted(f"{module}:{name}" for name, module in _public_definitions().items()
                    if name not in referenced)
    assert not unused, f"public names no library, script or benchmark code reaches: {unused}"
