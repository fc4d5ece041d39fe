"""Every module of the package uses every name it imports, imports nothing
from outside the standard library, and reads every private helper it
defines; every test and demo uses every name it imports.

No linter ships with the test dependencies, so this reads each module's
syntax tree: a name bound by an import must be read somewhere else in the
module. An import statement marked `# noqa` on any of its lines is exempt
(a re-export that an outside caller looks up by name). Every absolute import
must name a standard-library module, so the package has no runtime
dependency. Every private function, class and method must be read somewhere
in the package; a helper that only tests or benchmarks read is dead code.
"""

import ast
import sys
from pathlib import Path

import pytest

import mbethe

SOURCES = sorted(Path(mbethe.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_modules_found():
    # an empty parameter list would skip a check silently
    assert MODULES
    assert {path.parent.name for path in SCRIPTS} == {"tests", "demos"}


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_no_unused_imports_in_tests_and_demos(script):
    assert unused_imports(script.read_text()) == []


def test_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from math import gcd, lcm\n"
              "from .linalg import det  # noqa: F401\n"
              "x = gcd(4, 6)\n")
    assert unused_imports(source) == [(2, "os"), (3, "lcm")]


def outside_imports(source: str) -> list:
    """(line, module) of each absolute import from outside the standard
    library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in sys.stdlib_module_names)
    return found


@pytest.mark.parametrize("module", SOURCES, ids=lambda path: path.stem)
def test_only_standard_library_imports(module):
    assert outside_imports(module.read_text()) == []


def test_guard_sees_an_outside_import():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from fractions import Fraction\n"
              "from .linalg import det\n"
              "try:\n"
              "    from sympy import Rational\n"
              "except ImportError:\n"
              "    pass\n")
    assert outside_imports(source) == [(2, "numpy"), (6, "sympy")]


def dead_helpers(sources: dict) -> list:
    """(module, name) of each private module-level function or class, and
    each private method (`_name`, not a dunder), that no module in
    `sources` (module name -> source) reads as a name, as an attribute or
    as a name imported from a module."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__"))

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((module, item.name) for item in node.body
                               if isinstance(item, defs))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [(module, name) for module, name in defined
            if private(name) and name not in read]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert dead_helpers(sources) == []


def test_guard_sees_a_dead_helper():
    sources = {
        "a": ("def _imported():\n"
              "    pass\n"
              "def _dead():\n"
              "    pass\n"
              "class _Kept:\n"
              "    def __init__(self):\n"
              "        self._run()\n"
              "    def _run(self):\n"
              "        pass\n"
              "    def _idle(self):\n"
              "        pass\n"
              "    def __repr__(self):\n"
              "        return ''\n"
              "class _Unread:\n"
              "    pass\n"
              "def public():\n"
              "    return _Kept()\n"),
        "b": "from .a import _imported\n",
    }
    assert dead_helpers(sources) == [("a", "_dead"), ("a", "_idle"),
                                     ("a", "_Unread")]


def kernel_imports(source: str) -> list:
    """(line, name) of each kernel a module imports: a `kernel_*` function
    (`kernel_product` among them) or a `*_pair` kernel formula."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("kernel_") or alias.name.endswith("_pair")]


def test_engine_imports_no_kernel():
    """The partition-sum engine holds no formula: every term it sums comes
    from its caller."""
    engine = next(path for path in MODULES if path.stem == "partitions")
    assert kernel_imports(engine.read_text()) == []


def test_guard_sees_a_kernel_import():
    source = ("from .errors import PoleError\n"
              "from .scalars import (Rat, kernel_f,\n"
              "                      h_pair, kernel_product)\n")
    assert kernel_imports(source) == [(2, "kernel_f"), (2, "h_pair"),
                                      (2, "kernel_product")]
