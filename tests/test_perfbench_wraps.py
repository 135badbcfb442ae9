"""The benchmark tracer's wrap table names attributes the package still has."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_wraps():
    """(module, attribute) of each WRAPS entry, read from the tracer's source
    so that no benchmark file is imported."""
    tree = ast.parse(TRACER.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPS" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_every_traced_attribute_resolves():
    wraps = tracer_wraps()
    assert ("ndtrap.runner", "pick_pulses") in wraps
    missing = [(module, attr) for module, attr in wraps
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
