"""No floating point in the package: every computation path is exact.

The guard reads the source of `gitloci` and rejects a float (or complex)
literal, a call to `float` or `round`, and any `math` name outside the
integer functions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gitloci"
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "prod"}


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append((node.lineno, f"call to {node.func.id}"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"from math import {alias.name}")
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
    return found


def test_guard_sees_each_float_form():
    source = (
        "x = 0.5\ny = float(x)\nz = round(y)\nw = math.sqrt(2)\n"
        "from math import gcd, log\nv = math.gcd(4, 6)\n"
    )
    found = sorted(_float_uses(ast.parse(source)))
    assert [line for line, _ in found] == [1, 2, 3, 4, 5]


def test_no_float_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
