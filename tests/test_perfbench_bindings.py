"""The traced benchmark wraps package functions at their caller bindings.

``perfbench/spans.py`` swaps wrappers in by ``(module, name)``; a refactor
that unbinds one of those names would only fail the traced benchmark run,
and one that keeps a name bound but no longer calls it through that binding
would make the traced run report 0 s for the layer.  These tests load the
binding table by file path and fail first.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_traced_bindings_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.BINDINGS
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in spans.BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_traced_bindings_are_called(monkeypatch):
    spans = _load_spans(monkeypatch)
    called = {}
    for module_name, attr, _, _ in spans.BINDINGS:
        if module_name not in called:
            path = importlib.util.find_spec(module_name).origin
            tree = ast.parse(Path(path).read_text(), filename=path)
            called[module_name] = {node.func.id for node in ast.walk(tree)
                                   if isinstance(node, ast.Call)
                                   and isinstance(node.func, ast.Name)}
    silent = [(module_name, attr) for module_name, attr, _, _ in spans.BINDINGS
              if attr not in called[module_name]]
    assert silent == []
