"""The traced benchmark wraps functions by name; every name must exist.

``bench/run.py --trace 1`` resolves each ``(module, attribute)`` pair of
``bench/spans.py`` ``TARGETS`` and replaces it with a wrapper.  A rename or
deletion in the package would break that run, so it is caught here, as is a
target whose result its layer's work function (``spans.WORK``) cannot read.
"""

import importlib
from pathlib import Path

from loghilb.poly import MultiPoly

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


X = MultiPoly.var("x")

# arguments for one small call of every target whose layer records work
SMALL_INPUTS = {
    ("loghilb.linalg", "in_row_span_z"): ([[2, 0], [0, 3]], [4, 3]),
    ("loghilb.linalg", "invariant_factors"): ([[2, 4], [6, 8]],),
    ("loghilb.fan", "hilb_fan"): (2, 1),
    ("loghilb.fan", "hilb_fan_two_sided"): (2, 1, 1),
    ("loghilb.strata", "enumerate_profiles"): (2, 1),
    ("loghilb.poly", "MultiPoly.__mul__"): (X, X + 1),
    ("loghilb.poly", "MultiPoly.__rmul__"): (X, 2),
}


def test_work_fields_read_what_their_targets_return(monkeypatch):
    # ``--trace 1`` feeds each traced call's arguments and result to the
    # layer's work function; a target that changes its return type (say, a
    # list that becomes a generator) would break that run
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    worked = set()
    for layer, module, attr in spans.TARGETS:
        work = spans.WORK.get(layer)
        if work is None:
            continue
        assert (module, attr) in SMALL_INPUTS, f"{layer}: no small input for {module}.{attr}"
        importlib.import_module(module)
        owner, name = spans._resolve(module, attr)
        args = SMALL_INPUTS[module, attr]
        counters = {}
        work(counters, layer, args, getattr(owner, name)(*args))
        assert counters and all(v > 0 for v in counters.values()), f"{layer}: {counters}"
        worked.add(layer)
    assert worked == set(spans.WORK)
