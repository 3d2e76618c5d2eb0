"""No dead helpers in the package.

The guard reads the source of `gitloci` and rejects a module-level private
function or class (one leading underscore) that no code in the package
names outside its own definition: a call, a reference or an import by name
counts, a mention in a docstring or comment does not.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gitloci"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> collections.Counter:
    """Every name the code under `tree` reads, imports or looks up as an
    attribute, with its count."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _unnamed_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """The private module-level functions and classes of `modules` that no
    module names outside the definition itself, as "module: name"."""
    named = sum(map(_names, modules.values()), collections.Counter())
    return [
        f"{module}: {node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and named[node.name] == _names(node)[node.name]
    ]


def test_guard_sees_each_dead_helper():
    planted = {
        "a.py": (
            "def _used(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Gone:\n    '''Not `_Gone` in prose either.'''\n"
            "def __getattr__(name): pass\n"
            "def public(): return _Called().x\n"
            "class _Called: pass\n"
        ),
        "b.py": "from a import _used\n",
    }
    modules = {name: ast.parse(text) for name, text in planted.items()}
    assert _unnamed_helpers(modules) == ["a.py: _recursive", "a.py: _Gone"]


def test_no_dead_helper_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in files}
    assert _unnamed_helpers(modules) == []
