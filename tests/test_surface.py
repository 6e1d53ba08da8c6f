"""Guard against library surface that only the tests reach.

Every public top-level function and class in ``src/qescrow/*.py`` must be
referenced -- as a loaded name, an attribute or an imported name -- somewhere
in the library itself, the scripts or the benchmark.  A name only a test uses
is either given a product caller or deleted with its tests.

The same holds for every defaulted parameter: each parameter with a default,
of any function or method and each defaulted dataclass field, must be set by
some call in the library, the scripts or the benchmark to a callee of that
name.  A call sets it when it passes the parameter by keyword, passes at
least that many positional arguments, or unpacks ``*args`` or ``**kwargs``.
A parameter no such call sets is a knob only the tests turn.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qescrow"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "benchmark")


def _caller_trees() -> list[ast.AST]:
    return [ast.parse(path.read_text())
            for folder in CALLER_DIRS for path in sorted(folder.rglob("*.py"))]


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
    for tree in _caller_trees():
        for node in ast.walk(tree):
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


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name(node.func)
    return None


def _is_init_false_field(value: ast.AST) -> bool:
    return (isinstance(value, ast.Call) and _name(value.func) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def _defaulted_parameters(tree: ast.AST, module: str):
    """(callee name, parameter, positional index or None for keyword-only, where).

    A method's ``self`` or ``cls`` is not counted, since a call through an
    instance or the class does not pass it.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    start=len(positional) - len(args.defaults)):
                yield node.name, arg.arg, i, f"{module}:{node.name}"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None, f"{module}:{node.name}"
        elif (isinstance(node, ast.ClassDef)
              and any(_name(d) == "dataclass" for d in node.decorator_list)):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and not (stmt.value is not None and _is_init_false_field(stmt.value))]
            for i, stmt in enumerate(fields):
                if stmt.value is not None:
                    yield node.name, stmt.target.id, i, f"{module}:{node.name}"


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_set_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) is not None:
                calls.setdefault(_name(node.func), []).append(node)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for callee, param, index, where in _defaulted_parameters(
                ast.parse(path.read_text()), path.name):
            if not any(_sets(call, param, index) for call in calls.get(callee, ())):
                unset.append(f"{where}({param})")
    assert not unset, f"defaulted parameters no library, script or benchmark call sets: {unset}"
