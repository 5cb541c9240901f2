"""The benchmark's layer tracer wraps package attributes by name; a rename
in the package would silently drop the traced metric."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plumerom

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CHILD = TRACER.with_name("child.py")


def trace_targets():
    """``TARGETS`` of the tracer, (attribute path, span name) pairs, read from
    its source without importing it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("target", [target for target, _ in trace_targets()])
def test_trace_target_resolves(target):
    module_name, attr_path = target.split(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_gpr_spans_fire_in_a_traced_pipeline(tmp_path):
    """A small generate -> train (MAP) -> predict -> evaluate, each step a
    traced ``child.py cli`` process, records every ``gpr.*`` span: a call
    site that stops resolving a wrapped name through its module would bypass
    the wrapper and leave the metric empty."""
    env = dict(os.environ)
    src = str(Path(plumerom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    data, model = tmp_path / "data", tmp_path / "model"
    steps = {
        "generate": ["--out", str(data), "--n", "40", "--grid", "21x11", "--seed", "3"],
        "train": ["--dataset", str(data), "--out", str(model), "--L", "3",
                  "--method", "map"],
        "predict": ["--model", str(model), "--out", str(tmp_path / "pred"),
                    "--unit", "0.5,0.5,0.9,0.9"],
        "evaluate": ["--model", str(model), "--dataset", str(data),
                     "--out", str(tmp_path / "eval")],
    }
    recorded = set()
    for command, argv in steps.items():
        spans = tmp_path / f"{command}.spans.json"
        subprocess.run([sys.executable, str(CHILD), "--spans", str(spans), "cli",
                        command, *argv], env=env, check=True, capture_output=True,
                       timeout=300)
        recorded |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    expected = {name for _, name in trace_targets() if name.startswith("gpr.")}
    assert expected
    assert expected <= recorded, sorted(expected - recorded)
