"""latticeval imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import latticeval

SRC = Path(latticeval.__file__).parent


def outside_imports(tree):
    """The absolute imports in tree whose top-level package is neither
    ``latticeval`` nor a standard-library module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"latticeval"}]


def test_modules_import_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "scalars.py" in modules
    for path in modules:
        assert outside_imports(ast.parse(path.read_text(), str(path))) == [], path


def test_outside_imports_are_found():
    tree = ast.parse("import numpy.linalg, math\nfrom gmpy2 import mpz\n"
                     "from . import scalars\nfrom latticeval.lattices import Lattice\n")
    assert outside_imports(tree) == ["numpy.linalg", "gmpy2"]
