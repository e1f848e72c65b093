"""Each input convention has one owner: only ``lattices`` (the input
boundary, which defines it) and ``detval`` (``det_poly``, for pairs from
callers) name ``integer_column``.  Over Q every stored basis and every
coordinate already holds integers, so the kernels take integer pairs only:
``densepoly`` names no ``Fraction``, and the Hermite kernel ``truncated``
imports nothing from ``scalars`` and no ``Fraction``.
The fraction-field elimination has one owner too: ``metric.smith_elimination``,
which ``det_scalar`` and ``invert_matrix`` read without a loop of their own.
So has the elimination over the residue field: ``subspaces._echelon``, which
``rank_of`` and ``Subspace.contains`` read without a loop of their own, and
which the residue rung of ``truncated`` runs over Q as over F_p, with no
certificate modulo a prime.  No module of the library uses ``assert``, which
``python -O`` strips with the soundness checks it would hold.  Coordinates
and the Koenig value read the data they are given: ``Lattice`` keeps no
below-diagonal copy of its basis, and ``representatives`` no table of ranks
per index subset.  The close case's two closed forms read one table of
subset sums, ``closecase._sum_spans``, and ``candidate_costs`` builds no
keys or labels: it calls no ``sorted`` and no ``str.join``."""

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
    assert scalars_imports(tree) == []
    assert "Fraction" not in names(tree)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"polynomial_column", "column_field"}


def function(module, qualname):
    """The definition of module.qualname (a function, or a method as
    Class.name)."""
    body = parse(SRC / f"{module}.py").body
    *outer, name = qualname.split(".")
    for cls in outer:
        [body] = [node.body for node in body if isinstance(node, ast.ClassDef) and node.name == cls]
    [fn] = [node for node in body if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def loops(fn):
    return [node for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]


def test_det_scalar_and_invert_matrix_run_no_loop_of_their_own():
    for module, name in (("detval", "det_scalar"), ("apartment", "invert_matrix")):
        assert not loops(function(module, name)), f"{module}.{name}"


def test_rank_of_and_contains_run_no_loop_of_their_own():
    for name in ("rank_of", "Subspace.contains"):
        assert not loops(function("subspaces", name)), name
    assert "_reduce" not in names(parse(SRC / "subspaces.py"))


def test_intersect_runs_one_rref():
    called = [names(node.func) for node in ast.walk(function("subspaces", "Subspace.intersect"))
              if isinstance(node, ast.Call)]
    assert sum("rref" in found for found in called) == 1
    assert not any("span" in found for found in called)


def test_truncated_holds_no_certificate_field():
    tree = parse(SRC / "truncated.py")
    assert "_CERTIFICATE_FIELD" not in names(tree)
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and "BaseField" in names(node.func)]


def test_coordinates_and_the_koenig_value_keep_no_memo():
    # ``forward_substitute`` reads the stored basis, and the Koenig value
    # ranks one sum per set of distinct subspaces, with no rank table.
    from latticeval import representatives
    from latticeval.lattices import Lattice
    assert "_below" not in Lattice.__slots__
    assert "_below" not in names(parse(SRC / "lattices.py"))
    assert not hasattr(representatives, "_min_subset")
    assert "_min_subset" not in names(parse(SRC / "representatives.py"))


def test_the_close_case_closed_forms_read_one_table_of_sums():
    costs = function("closecase", "candidate_costs")
    called = set().union(*(names(node.func) for node in ast.walk(costs)
                           if isinstance(node, ast.Call)))
    assert not called & {"sorted", "join"}
    for name in ("candidate_costs", "min_formula"):
        assert "_sum_spans" in names(function("closecase", name)), name


def test_the_library_has_no_assert_statement():
    # python -O strips them, and with them the soundness checks of the
    # certificates and witnesses.
    users = sorted(path.stem for path in SRC.rglob("*.py")
                   if any(isinstance(node, ast.Assert) for node in ast.walk(parse(path))))
    assert users == []


def test_the_helpers_find_what_they_look_for():
    tree = ast.parse("from .scalars import BaseField, LaurentPoly as LP\n"
                     "from . import scalars\nimport latticeval.scalars\n"
                     "from .densepoly import integer_column as ic\n"
                     "x = densepoly.integer_column\n")
    assert scalars_imports(tree) == ["BaseField", "LaurentPoly", "scalars", "scalars"]
    assert {"integer_column", "ic", "LP"} <= names(tree)
    assert "integer_column" not in names(ast.parse("def f(column):\n    return column\n"))
    assert loops(function("subspaces", "rref")) and loops(function("subspaces", "Subspace.intersect"))
    assert not loops(function("subspaces", "Subspace.span"))
