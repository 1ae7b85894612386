"""Source hygiene: no module under src/ or tests/ imports a name it never
uses.  The repository has no linter, so this test is the guard."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations such as `x: "Poly"`."""
    names = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never uses.

    A name counts as used when it is read or deleted anywhere in the
    module (rebinding it is not a use), appears in a string annotation, or
    is listed in __all__ (an explicit re-export).  `from __future__`
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    used |= _annotation_names(tree) | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "imported but unused:\n" + "\n".join(found)


def test_scanner_sees_unused_and_allows_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from fractions import Fraction\n"
        "from typing import Iterable as It\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(3, "sys"), (5, "It"), (6, "gcd")]
