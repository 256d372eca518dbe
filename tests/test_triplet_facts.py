"""Each fact about a triplet is stated in one function: a relation name is
read by `parse_relation`, a compiled constraint is arrays only, the bands are
built by `band_tables` alone, and the loss and the discrete check sum a field
outside the bands through `outside_sums`. One function computes a mean
coordinate, for the bands and the geometric oracle alike, and the
ground-truth triplets are read off the oracle's table, not asked of it.

These are source checks: a second copy of any of them would compute the same
numbers today and drift apart later, which no output comparison can see.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import relfine
from relfine.logic import ConstraintTerms
from relfine.relations import SpatialTriplet, _triplet_key

PACKAGE = Path(relfine.__file__).parent


def _functions(tree: ast.AST) -> dict[str, ast.AST]:
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _package_functions() -> dict[str, ast.AST]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())).items():
            found[f"{path.stem}.{name}"] = node
    return found


def _calls(node: ast.AST) -> list[str]:
    """The plain names that `node` calls."""
    return [n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]


def _sums_over_bands(node: ast.AST) -> bool:
    """Whether `node` holds `(<x> * rows).sum(...)`, `(<x> * cols).sum(...)`
    or `<x> @ rows.T` for any spelling of the bands (`rows`, `compiled.cols`,
    ...). The gradient's `<w> @ rows` spreads weights over the bands and is
    no such sum."""

    def is_band(operand: ast.AST) -> bool:
        name = operand.id if isinstance(operand, ast.Name) else getattr(operand, "attr", None)
        return name in ("rows", "cols")

    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "sum":
            product = call.func.value
            if isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult):
                if is_band(product.left) or is_band(product.right):
                    return True
        if isinstance(call, ast.BinOp) and isinstance(call.op, ast.MatMult):
            transposed = call.right
            if isinstance(transposed, ast.Attribute) and transposed.attr == "T" and is_band(transposed.value):
                return True
    return False


def test_relation_names_are_read_only_by_parse_relation():
    module = ast.parse((PACKAGE / "relations.py").read_text())
    parse = _functions(module)["parse_relation"]
    reads = [n.lineno for n in ast.walk(module) if isinstance(n, ast.Name) and n.id == "_RELATIONS"
             and isinstance(n.ctx, ast.Load)]
    assert reads and all(parse.lineno <= line <= parse.end_lineno for line in reads), reads


def test_compiled_constraints_are_arrays_only():
    assert [f.name for f in fields(ConstraintTerms)] == ["subjects", "keys", "weights", "rows", "cols", "losses"]
    assert "tuple" not in _calls(_package_functions()["logic.compile_constraints"])


def test_the_bands_are_built_in_one_function():
    functions = _package_functions()
    builders = sorted(name for name, node in functions.items() if "outside_band" in _calls(node))
    assert builders == ["logic.band_tables"]
    for caller in ("logic.compile_constraints", "evaluate.satisfied_flags"):
        assert "band_tables" in _calls(functions[caller]), caller


def test_the_loss_and_the_check_share_one_outside_sum():
    functions = _package_functions()
    for caller in ("logic.compiled_spatial_loss", "evaluate.satisfied_flags"):
        assert "outside_sums" in _calls(functions[caller]), caller
    summing = sorted(name for name, node in functions.items() if _sums_over_bands(node))
    assert summing == ["logic.outside_sums"]


def test_a_triplet_key_is_stated_once():
    assert inspect.getattr_static(SpatialTriplet, "key").fget is _triplet_key


def _forms_mean_coordinates(node: ast.AST) -> bool:
    """Whether `node` holds `<x> @ np.arange(...)`: a weighted coordinate sum."""
    for op in ast.walk(node):
        if isinstance(op, ast.BinOp) and isinstance(op.op, ast.MatMult) and isinstance(op.right, ast.Call):
            if getattr(op.right.func, "attr", None) == "arange":
                return True
    return False


def test_a_mean_coordinate_is_computed_in_one_function():
    functions = _package_functions()
    assert sorted(name for name, node in functions.items() if _forms_mean_coordinates(node)) == [
        "grid.mean_coordinates"
    ]
    assert "mean_coordinates" in _calls(functions["logic.band_tables"])
    module = ast.parse((PACKAGE / "relations.py").read_text())
    oracle = next(n for n in ast.walk(module) if isinstance(n, ast.ClassDef) and n.name == "GeometricOracle")
    assert "mean_coordinates" in _calls(oracle)


def test_the_ground_truth_triplets_ask_no_oracle_questions():
    derive = _package_functions()["scenes.derive_gt_triplets"]
    called = {getattr(n.func, "attr", getattr(n.func, "id", None)) for n in ast.walk(derive) if isinstance(n, ast.Call)}
    assert not called & {"holds", "choose"}, called
