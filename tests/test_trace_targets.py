"""The benchmark's layer tracer wraps package attributes by name; a rename
in the package would silently drop the traced metric."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def trace_targets():
    """``TARGETS`` of the tracer, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [target for target, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("target", trace_targets())
def test_trace_target_resolves(target):
    module_name, attr_path = target.split(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
