"""The benchmark's span tracer wraps package functions by name (TRACED in
bench/spans.py); each must still exist, or a traced benchmark run breaks."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


@pytest.mark.parametrize("module,name", _traced())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
