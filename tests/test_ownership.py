"""Each input convention has one owner: only ``lattices`` (the input
boundary, which defines it) and ``detval`` (``det_poly``, for pairs from
callers) name ``integer_column``.  Over Q every stored basis and every
coordinate already holds integers, so the kernels take integer pairs only:
``densepoly`` names no ``Fraction``, and the Hermite kernel ``truncated``
imports nothing from ``scalars`` but ``BaseField``, and no ``Fraction``.
The fraction-field elimination has one owner too: ``metric.smith_elimination``,
which ``det_scalar`` and ``invert_matrix`` read without a loop of their own."""

import ast
from pathlib import Path

import latticeval

SRC = Path(latticeval.__file__).parent


def parse(path):
    return ast.parse(path.read_text(), str(path))


def names(tree):
    """Every identifier that tree defines, reads, writes or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.update((node.name.rsplit(".", 1)[-1], node.asname))
    return out - {None}


def scalars_imports(tree):
    """What tree imports from ``latticeval.scalars``: the names of its
    from-imports, or "scalars" for the module itself."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += ["scalars" for alias in node.names if alias.name == "latticeval.scalars"]
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("scalars", "latticeval.scalars"):
                out += [alias.name for alias in node.names]
            elif node.module in (None, "latticeval"):
                out += ["scalars" for alias in node.names if alias.name == "scalars"]
    return out


def test_only_the_kernels_name_integer_column():
    users = sorted(path.stem for path in SRC.rglob("*.py")
                   if "integer_column" in names(parse(path)))
    assert users == ["detval", "lattices"]


def test_densepoly_names_no_fraction():
    assert "Fraction" not in names(parse(SRC / "densepoly.py"))


def test_truncated_takes_pairs_only():
    tree = parse(SRC / "truncated.py")
    assert scalars_imports(tree) == ["BaseField"]
    assert "Fraction" not in names(tree)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"polynomial_column", "column_field"}


def test_det_scalar_and_invert_matrix_run_no_loop_of_their_own():
    for module, name in (("detval", "det_scalar"), ("apartment", "invert_matrix")):
        [fn] = [node for node in parse(SRC / f"{module}.py").body
                if isinstance(node, ast.FunctionDef) and node.name == name]
        loops = [node for node in ast.walk(fn)
                 if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]
        assert not loops, f"{module}.{name}"


def test_the_helpers_find_what_they_look_for():
    tree = ast.parse("from .scalars import BaseField, LaurentPoly as LP\n"
                     "from . import scalars\nimport latticeval.scalars\n"
                     "from .densepoly import integer_column as ic\n"
                     "x = densepoly.integer_column\n")
    assert scalars_imports(tree) == ["BaseField", "LaurentPoly", "scalars", "scalars"]
    assert {"integer_column", "ic", "LP"} <= names(tree)
    assert "integer_column" not in names(ast.parse("def f(column):\n    return column\n"))
