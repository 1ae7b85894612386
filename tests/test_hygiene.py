"""Source hygiene: no module under src/ or tests/ imports a name it never
uses, src/ defines nothing that nothing refers to, no src/ module imports
a layer above it, and the names that the benchmark spans, the README and
the package's __all__ give for prymlab code exist.  The repository has no
linter, so these tests are the guard."""

import ast
import importlib
import re
from pathlib import Path

import pytest

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


# Definitions in src/ that only tests (or the argparse machinery) call, each
# with the reason it stays.  An entry must go once its name gets a caller in
# src/ (test_allow_list_is_current).
TEST_ONLY = {
    "algebra.Poly.evaluate": "the tests read polynomials at points through it",
    "cli._Parser.error": "argparse calls it on a usage error",
    "morphism.phi_symbolic": "symbolic oracle for phi in test_morphism",
    "mumford.mumford_flow_symbolic": "symbolic field oracle in test_mumford",
    "mumford.MumfordTriple.ambient": "the tests move Prym points into the even Mumford space",
    "painleve.c_block": "documents the run block; test_painleve checks its spectra",
    "prym.genus_of_hyperelliptic": "the prymdim suite's genus count will call it",
    "sampling.mumford_triple": "seeded Mumford and Prym points for the tests",
    "symbolic.matrix_rank": "the rank counts of the divisor and prymdim suites will call it",
    "symbolic.BracketTable.poisson_bracket": "bracket of two polynomials in the involution tests",
    "symbolic.BracketTable.hamiltonian_field": "Hamiltonian-field oracle for every flow",
    "toda.toda_integrals_symbolic": "symbolic Toda integrals for the involution tests",
    "toda.TodaPoint.shift": "cyclic-symmetry oracle for the Toda integrals and phi",
}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name or module.Class.method of every top-level function,
    class or method in `sources` (module name -> source) that nothing
    uses.  A top-level name is used when some source reads it as a name
    or attribute, imports it, exports it in __all__ or writes it in a
    string annotation; a method only when some source reads it as an
    attribute, so a local variable of the same name does not hide it.
    Dunder hooks (__init__, __post_init__, ...) are exempt.  Names are
    matched without regard to the object they belong to, so a method
    counts as used when any attribute of that name is read."""
    names, attributes, defined = set(), set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        names |= _exported(tree) | _annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name, True)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [qualified for qualified, name, method in defined
            if name not in attributes and (method or name not in names)
            and not (name.startswith("__") and name.endswith("__"))]


def _src_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(ROOT.glob("src/prymlab/*.py"))}


def test_no_unreferenced_definitions():
    found = [name for name in unreferenced_definitions(_src_sources()) if name not in TEST_ONLY]
    assert not found, "defined in src but referenced nowhere in src:\n" + "\n".join(found)


def test_allow_list_is_current():
    assert sorted(set(TEST_ONLY) - set(unreferenced_definitions(_src_sources()))) == []


def test_definition_scanner_sees_dead_and_allows_used():
    sources = {
        "a": ("from __future__ import annotations\n"
              "__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def dead(): pass\n"
              "def called(): pass\n"
              "def annotated(x: 'Helper') -> None: return called()\n"
              "class Helper:\n"
              "    def __post_init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"),
        "b": "from a import annotated\nannotated(None).used()\n",
    }
    assert unreferenced_definitions(sources) == ["a.dead", "a.Helper.unused"]


def test_definition_scanner_sees_a_method_hidden_by_a_local():
    # a local variable or parameter named like a method is no use of it;
    # an attribute read is, and so is a bare name for a top-level function
    sources = {
        "a": ("__all__ = ['caller']\n"
              "class Point:\n"
              "    def shift(self): pass\n"
              "    def ambient(self): pass\n"
              "    def used(self): pass\n"
              "def helper(shift, ambient=0):\n"
              "    used = shift + ambient\n"
              "    return used.used\n"
              "def caller(): return helper(Point())\n"
              "def dead(): pass\n"),
    }
    assert unreferenced_definitions(sources) == ["a.Point.shift", "a.Point.ambient", "a.dead"]


# The layers of src/prymlab, lowest first: a module imports only modules
# before it (the package's __init__ and __main__ sit above all of them).
LAYERS = ("errors", "algebra", "symbolic", "mumford", "prym", "toda", "painleve",
          "morphism", "example5", "numerics", "sampling", "verify", "cli")


def upward_imports(module: str, source: str) -> list[str]:
    """The package modules that `module` imports but that are not below it
    in LAYERS, as `module -> imported`."""
    below = LAYERS[:LAYERS.index(module)]
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            imported |= {name.split(".")[0] for name in names}
    return [f"{module} -> {name}" for name in sorted(imported) if name not in below]


def test_modules_import_only_lower_layers():
    sources = {name: text for name, text in _src_sources().items()
               if name not in ("__init__", "__main__")}
    assert sorted(sources) == sorted(LAYERS)
    found = [edge for module, text in sources.items() for edge in upward_imports(module, text)]
    assert not found, "imports against the layer order:\n" + "\n".join(found)


def test_layer_scanner_sees_upward_imports():
    source = "from .toda import MAX_N\nfrom . import errors, symbolic\nfrom math import prod\n"
    assert upward_imports("painleve", source) == []
    assert upward_imports("algebra", source) == ["algebra -> symbolic", "algebra -> toda"]


# The 2^k evaluation policy lives behind the two deciders of exact
# identities, algebra.first_mismatch and symbolic.charpoly_mismatch; every
# other module calls one of them instead of choosing its own bound.
TWO_POWER_NAMES = {"at_two_power", "lowest_power"}


def two_power_references(module: str, source: str) -> list[str]:
    """`module: name` for each of TWO_POWER_NAMES that `source` reads as a
    name or attribute or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return [f"{module}: {name}" for name in sorted(found & TWO_POWER_NAMES)]


def test_only_the_deciders_evaluate_at_two_powers():
    found = [ref for module, text in _src_sources().items()
             if module not in ("algebra", "symbolic")
             for ref in two_power_references(module, text)]
    assert not found, "2^k evaluation outside algebra and symbolic:\n" + "\n".join(found)


def test_two_power_scanner_sees_each_form():
    source = ("from .algebra import lowest_power as low\n"
              "from . import algebra\n"
              "def f(q, k): return algebra.at_two_power(q, k)\n"
              "def g(at_two_power): return 2 ** at_two_power\n")
    assert two_power_references("toda", source) == ["toda: at_two_power", "toda: lowest_power"]
    assert two_power_references("toda", "from .algebra import first_mismatch\n") == []


# Which Prym flavor a degree parity selects, and which sign or parity a
# Prym flavor carries, are decided by mumford.prym_flavor and
# mumford.prym_sign, next to the slot layout they must agree with; every
# other module calls them.
PRYM_FLAVOR_NAMES = {"ODD_PRYM", "EVEN_PRYM"}


def _names(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float, bool)


def parity_flavor_choices(module: str, source: str) -> list[str]:
    """`module:line` for each hand-made pairing of a Prym flavor constant
    with a parity: a conditional expression or `if` statement whose test
    computes a `%` and whose branches name one, an `==` or `!=` comparison
    with one, and a tuple that holds one beside a number."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                    and PRYM_FLAVOR_NAMES & _names(node):
                lines.add(node.lineno)
            continue
        if isinstance(node, ast.Tuple):
            if any(map(_is_number, node.elts)) and PRYM_FLAVOR_NAMES & _names(node):
                lines.add(node.lineno)
            continue
        if isinstance(node, ast.IfExp):
            branches = [node.body, node.orelse]
        elif isinstance(node, ast.If):
            branches = node.body + node.orelse
        else:
            continue
        mod = any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                  for sub in ast.walk(node.test))
        if mod and PRYM_FLAVOR_NAMES & set().union(*map(_names, branches)):
            lines.add(node.lineno)
    return [f"{module}:{line}" for line in sorted(lines)]


def test_only_mumford_chooses_a_prym_flavor_by_parity():
    found = [ref for module, text in _src_sources().items() if module != "mumford"
             for ref in parity_flavor_choices(module, text)]
    assert not found, "Prym flavor paired with a parity outside mumford:\n" + "\n".join(found)


def test_parity_flavor_scanner_sees_each_form():
    source = ("from . import mumford\n"
              "from .mumford import EVEN_PRYM, ODD_PRYM\n"
              "def f(n): return mumford.ODD_PRYM if n % 2 else mumford.EVEN_PRYM\n"
              "def g(n, b):\n"
              "    if (n - 1) % 2 == 0:\n"
              "        return ODD_PRYM\n"
              "    return b\n"
              "def h(n, b):\n"
              "    if n % 2:\n"
              "        pass\n"
              "    else:\n"
              "        return EVEN_PRYM\n")
    assert parity_flavor_choices("verify", source) == ["verify:3", "verify:5", "verify:9"]
    clean = ("from .mumford import EVEN_PRYM, ODD_PRYM, prym_flavor, prym_sign\n"
             "def f(n, flavor): return prym_flavor(n - 1) if n % 2 else flavor\n"
             "def g(flavor): return prym_sign(flavor) if flavor in (ODD_PRYM, EVEN_PRYM) else 0\n"
             "def h(n): return [(ODD_PRYM, n), (EVEN_PRYM, 'x')]\n")
    assert parity_flavor_choices("verify", clean) == []


def test_parity_flavor_scanner_sees_flavor_equalities_and_sign_pairs():
    source = ("from . import mumford\n"
              "from .mumford import EVEN_PRYM, ODD_PRYM\n"
              "def g(flavor): return 1 if flavor == ODD_PRYM else -1\n"
              "def h(flavor):\n"
              "    want_even = mumford.EVEN_PRYM != flavor\n"
              "    return want_even\n"
              "PAIRS = ((ODD_PRYM, 1), (mumford.EVEN_PRYM, -1))\n"
              "SIGNS = [(EVEN_PRYM, True)]\n")
    assert parity_flavor_choices("prym", source) == ["prym:3", "prym:5", "prym:7", "prym:8"]


def _resolves(dotted: str) -> bool:
    """Whether `module.attr...` names an object of the prymlab module."""
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"prymlab.{module}")
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_bench_span_targets_resolve():
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    missing = [span for span, (module, path) in targets.items()
               if not _resolves(f"{module}.{path}")]
    assert targets and not missing, f"bench/spans.py TARGETS not in src: {missing}"


def test_readme_module_names_resolve():
    modules = {path.stem for path in ROOT.glob("src/prymlab/*.py")}
    text = (ROOT / "README.md").read_text()
    names = {m.removeprefix("prymlab.")
             for m in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)}
    named = sorted(name for name in names if name.split(".")[0] in modules)
    missing = [name for name in named if not _resolves(name)]
    assert named and not missing, f"README names that do not resolve: {missing}"
    assert not _resolves("painleve.no_such_name")


def test_package_exports_resolve():
    # every name in prymlab.__all__ is found by the package's lazy __getattr__
    package = importlib.import_module("prymlab")
    missing = []
    for name in package.__all__:
        try:
            package.__getattr__(name)
        except AttributeError:
            missing.append(name)
    assert package.__all__ and not missing, f"prymlab.__all__ names that resolve nowhere: {missing}"
    with pytest.raises(AttributeError):
        package.__getattr__("no_such_name")


# ---------------------------------------------------------------------------
# generated code: one emitter, and only generated names in what it compiles
# ---------------------------------------------------------------------------

CODE_RUNNERS = {"exec", "eval", "compile", "__import__", "builtins"}


def code_runners(module: str, source: str) -> list[str]:
    """module.function (module.<module> at top level) of every bare use of
    exec, eval, compile or __import__, and of every reference to builtins,
    through which they could be reached as attributes."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names = {sub.id}
            elif isinstance(sub, ast.Import):
                names = {alias.name.split(".")[0] for alias in sub.names}
            elif isinstance(sub, ast.ImportFrom):
                names = {sub.module} | {alias.name for alias in sub.names}
            else:
                continue
            if names & CODE_RUNNERS:
                found.append(f"{module}.{where}")
    return found


def test_only_the_emitter_runs_generated_code():
    found = [where for module, text in _src_sources().items()
             for where in code_runners(module, text)]
    assert found == ["numerics._traced"]


def test_code_runner_scanner_sees_each_form():
    source = ("import builtins\n"
              "def f(x): return eval(x)\n"
              "def h(): from builtins import getattr as get\n"
              "class C:\n"
              "    def m(self, s): exec(s)\n"
              "def g(p): return p.eval(1)\n")
    assert code_runners("a", source) == ["a.<module>", "a.f", "a.h", "a.C"]


def _prym_step():
    from prymlab.mumford import EVEN_PRYM
    from prymlab.numerics import _mumford_rhs, _rk4_step

    rhs = _mumford_rhs(EVEN_PRYM, 1, float("nan"))  # a Lax parameter that prints as nan
    return lambda x: _rk4_step(rhs, x, 1e-3), 5


def _km_step():
    from prymlab.numerics import _rk4_step
    from prymlab.toda import km_field

    return lambda x: _rk4_step(km_field, x, 1e-3), 20


def _toda_step():
    from prymlab.numerics import _rk4_step, _toda_rhs

    return lambda x: _rk4_step(lambda s: _toda_rhs(s, 10, 2), x, float("inf")), 20


def test_generated_source_holds_only_generated_names():
    """The source that the emitter compiles for a Prym, a KM and a Toda
    step names only the generated function, its argument s, the generated
    locals r<k> and the generated constants c<k>; no literal, call or
    attribute, so no text of a run's input (here a Lax parameter or a
    step that prints as nan or inf) reaches exec."""
    from prymlab.numerics import _emit

    allowed = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Name,
               ast.List, ast.BinOp, ast.UnaryOp, ast.Return, ast.Load, ast.Store,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub)
    generated = re.compile(r"[rc][0-9]+")
    for step in (_prym_step, _km_step, _toda_step):
        source, constants = _emit(*step())
        tree = ast.parse(source)
        (func,) = tree.body
        assert isinstance(func, ast.FunctionDef) and func.name == "traced"
        assert [a.arg for a in func.args.args] == ["s"] and not func.decorator_list
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert names - {"s"} and all(generated.fullmatch(name) for name in names - {"s"})
        assert {name for name in names if name.startswith("c")} == set(constants)
        assert all(isinstance(node, allowed) for node in ast.walk(tree))
