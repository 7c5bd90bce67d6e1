"""The traced benchmark wraps functions by name; every name must exist.

``bench/run.py --trace 1`` resolves each ``(module, attribute)`` pair of
``bench/spans.py`` ``TARGETS`` and replaces it with a wrapper.  A rename or
deletion in the package would break that run, so it is caught here.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for layer, module, attr in spans.TARGETS:
        importlib.import_module(module)
        # resolve without install(), which would patch the module globals
        owner, name = spans._resolve(module, attr)
        assert name in owner.__dict__, f"{layer}: {module}.{attr} does not exist"
        assert callable(getattr(owner, name)), f"{layer}: {module}.{attr}"
