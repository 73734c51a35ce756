"""Checks on the library source itself."""
import ast
import sys
from pathlib import Path

from toricsing import errors

SOURCES = sorted((Path(__file__).parent.parent / "src" / "toricsing")
                 .glob("*.py"))


def test_no_assert_guards_an_invariant():
    # asserts vanish under python -O; invariants raise AnomalyDetected
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name)
                    and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_cone_layer_raises_only_toric_errors():
    # every failure of the library reaches callers and the CLI as a
    # ToricError; the exceptions are the AttributeError that __setattr__
    # of an immutable class must raise to keep the attribute protocol, and
    # the arithmetic errors of the number types in rationals and polynomials
    found = []
    for path in SOURCES:
        if path.name in ("rationals.py", "polynomials.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        in_setattr = {id(node) for func in ast.walk(tree)
                      if isinstance(func, ast.FunctionDef)
                      and func.name == "__setattr__"
                      for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            cls = getattr(errors, name, None) if name else None
            if isinstance(cls, type) and issubclass(cls, errors.ToricError):
                continue
            if name == "AttributeError" and id(node) in in_setattr:
                continue
            found.append(f"{path.name}:{node.lineno} {ast.unparse(exc)}")
    assert not found, found


def test_every_private_function_is_used():
    # a private function or method that nothing else in src/ names is
    # dead code; references inside its own body (recursion) do not count
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES]
    names = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                names.append((node.attr, node))
    unused = []
    for path, tree in zip(SOURCES, trees):
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = func.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(func)}
            if not any(n == name and id(node) not in inside
                       for n, node in names):
                unused.append(f"{path.name}:{func.lineno} {name}")
    assert SOURCES and not unused, unused


def test_only_torus_form_maps_exponents_to_lattice_points():
    # face functions and the vanishing split restrict the torus form
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers |= {func.name for node in ast.walk(func)
                            if isinstance(node, ast.Attribute)
                            and node.attr == "lambda_of"}
    assert callers == {"torus_form"}


def test_src_imports_only_the_standard_library():
    # the library depends on nothing outside the standard library; relative
    # imports (level > 0) are the package's own modules
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not found, found


def test_src_uses_no_floating_point():
    # the library is exact: no float or complex literal, no float(), no
    # cmath and no inexact math functions (math.isqrt and math.gcd are exact)
    inexact = {"sqrt", "log", "exp", "pow"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                bad = isinstance(node.value, (float, complex))
            elif isinstance(node, ast.Name):
                bad = node.id == "float"
            elif isinstance(node, ast.Import):
                bad = any(a.name == "cmath" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "cmath" or node.module == "math" and any(
                    a.name in inexact for a in node.names)
            elif isinstance(node, ast.Attribute):
                bad = (isinstance(node.value, ast.Name)
                       and node.value.id == "math" and node.attr in inexact)
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert SOURCES and not found, found
