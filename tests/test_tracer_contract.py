"""The benchmark tracer wraps relfine functions by name and binds their
arguments by name. Its target table in benchmarks/tracing.py is read here as
source, without importing the benchmark package, and every target must still
resolve in relfine with each argument its hooks read still a parameter. A
renamed or deleted target otherwise shows only in a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _hook_name(node: ast.expr) -> str:
    """A hook is a function name or a call of a hook factory."""
    return node.func.id if isinstance(node, ast.Call) else node.id


def _argument_reads(function: ast.FunctionDef) -> set[str]:
    """The keys a hook reads from its bound arguments, `a["..."]`, nested
    functions and lambdas included."""
    return {
        node.slice.value
        for node in ast.walk(function)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "a"
        and isinstance(node.slice, ast.Constant)
    }


def _targets() -> list[tuple[str, str, set[str]]]:
    """(module, qualname, argument names its hooks read) per traced target."""
    module = ast.parse(TRACING.read_text(encoding="utf-8"))
    reads = {node.name: _argument_reads(node) for node in module.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in module.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    )
    targets = []
    for call in table.elts:
        name, qualname = (arg.value for arg in call.args[:2])
        hooks = [_hook_name(k.value) for k in call.keywords if k.arg in ("before", "after")]
        targets.append((name, qualname, set().union(*(reads[hook] for hook in hooks))))
    return targets


def test_every_traced_target_resolves_with_the_arguments_its_hooks_read():
    targets = _targets()
    assert len(targets) > 20
    read = set().union(*(names for _, _, names in targets))
    assert read >= {"compiled", "state", "triplets", "oracle", "path"}, read
    for name, qualname, names in targets:
        owner = importlib.import_module(name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}.{qualname} is not a relfine function"
        missing = names - inspect.signature(owner).parameters.keys()
        assert not missing, f"{name}.{qualname} lost the parameters {sorted(missing)}"
