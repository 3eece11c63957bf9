"""The traced benchmark wraps package functions at their caller bindings.

``perfbench/spans.py`` swaps wrappers in by ``(module, name)``; a refactor
that unbinds one of those names would only fail the traced benchmark run.
This test loads the binding table by file path and fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_bindings_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in spans.BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
