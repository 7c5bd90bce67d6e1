"""Span recording around the public functions of the loghilb modules.

``install()`` replaces each traced function, in its defining module and in
every loghilb module that imported it by name, with a wrapper that records
one span per call: layer name, start, end and the index of the enclosing
span.  ``MultiPoly`` and ``TruncSeries`` methods are patched on the class.
Spans stay in memory; ``Tracer.summary()`` reduces them to per-layer
totals when the job ends.  Work fields (matrix shapes, result sizes) are
computed from arguments and results after the end time is taken, so they
are not part of the span they describe.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

# (layer, module, attribute); "Class.method" patches a class attribute
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.cmd_fan", "loghilb.cli", "cmd_fan"),
    ("cli.cmd_chow", "loghilb.cli", "cmd_chow"),
    ("cli.cmd_motive", "loghilb.cli", "cmd_motive"),
    ("cli.cmd_strata", "loghilb.cli", "cmd_strata"),
    ("fan.build", "loghilb.fan", "hilb_fan"),
    ("fan.build", "loghilb.fan", "hilb_fan_two_sided"),
    ("fan.star_subdivide", "loghilb.fan", "star_subdivide"),
    ("fan.is_complete", "loghilb.fan", "StackyFan.is_complete"),
    ("fan.check_intersections", "loghilb.fan", "StackyFan.check_intersections_are_faces"),
    ("fan.contains_in_cone", "loghilb.fan", "StackyFan.contains_in_cone"),
    ("fan.census", "loghilb.fan", "StackyFan.census"),
    ("fan.motive", "loghilb.fan", "fan_motive"),
    ("linalg.det", "loghilb.linalg", "det"),
    ("linalg.rational_solve", "loghilb.linalg", "rational_solve"),
    ("linalg.in_row_span", "loghilb.linalg", "in_row_span_z"),
    ("linalg.hnf", "loghilb.linalg", "hermite_normal_form"),
    ("linalg.invariant_factors", "loghilb.linalg", "invariant_factors"),
    ("chow.presentation", "loghilb.chow", "sr_presentation"),
    ("chow.presentation", "loghilb.chow", "thmD_presentation"),
    ("chow.presentation", "loghilb.chow", "iterated_keel"),
    ("chow.minimal_nonfaces", "loghilb.chow", "minimal_nonfaces"),
    ("chow.graded_group", "loghilb.chow", "graded_group"),
    ("chow.ideal_member", "loghilb.chow", "ideal_member"),
    ("chow.ideals_equal", "loghilb.chow", "ideals_equal"),
    ("chow.compare", "loghilb.chow", "compare_presentations"),
    ("chow.stratum_cycle_class", "loghilb.chow", "stratum_cycle_class"),
    ("strata.closed_form", "loghilb.strata", "closed_form"),
    ("strata.strata_sum", "loghilb.strata", "strata_sum"),
    ("strata.enumerate_profiles", "loghilb.strata", "enumerate_profiles"),
    ("strata.stratum_class", "loghilb.strata", "stratum_class"),
    ("poly.mul", "loghilb.poly", "MultiPoly.__mul__"),
    ("poly.mul", "loghilb.poly", "MultiPoly.__rmul__"),
    ("poly.add", "loghilb.poly", "MultiPoly.__add__"),
    ("poly.add", "loghilb.poly", "MultiPoly.__radd__"),
    ("poly.pow", "loghilb.poly", "MultiPoly.__pow__"),
    ("poly.from_rational", "loghilb.poly", "TruncSeries.from_rational"),
)

# modules searched for names bound by ``from .x import y``
MODULES = ("loghilb.poly", "loghilb.linalg", "loghilb.fan", "loghilb.strata",
           "loghilb.chow", "loghilb.cli")


def _matrix_work(counters: Dict[str, int], layer: str, args, result) -> None:
    m = args[0]
    rows = m.to_lists() if hasattr(m, "to_lists") else m
    _raise(counters, f"{layer}.max_rows", len(rows))
    _raise(counters, f"{layer}.max_cols", len(rows[0]) if rows else 0)
    _add(counters, f"{layer}.nnz", sum(1 for row in rows for x in row if x))
    bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
    _raise(counters, f"{layer}.max_entry_bits", bits)


def _fan_work(counters: Dict[str, int], layer: str, args, result) -> None:
    _add(counters, "fan.rays", len(result.rays))
    _add(counters, "fan.max_cones", len(result.max_cones))


def _profiles_work(counters: Dict[str, int], layer: str, args, result) -> None:
    _add(counters, "strata.profiles", len(result))


def _terms_work(counters: Dict[str, int], layer: str, args, result) -> None:
    _raise(counters, "poly.mul.max_terms", len(result.terms))


def _add(counters: Dict[str, int], key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _raise(counters: Dict[str, int], key: str, value: int) -> None:
    counters[key] = max(counters.get(key, 0), value)


# work fields per layer; sums add over calls and jobs, max_* take the maximum
WORK: Dict[str, Callable] = {
    "linalg.in_row_span": _matrix_work,
    "linalg.invariant_factors": _matrix_work,
    "fan.build": _fan_work,
    "strata.enumerate_profiles": _profiles_work,
    "poly.mul": _terms_work,
}


class Tracer:
    """In-memory span store for one job process."""

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current = -1
        self.counters: Dict[str, int] = {}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(layer, len(self.names))
        if name_id == len(self.names):
            self.names.append(layer)
        work = WORK.get(layer)
        counters = self.counters
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            index = len(start)
            up = self.current
            name_of.append(name_id)
            parent.append(up)
            end.append(0.0)
            self.current = index
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                self.current = up
            if work is not None:
                work(counters, layer, args, result)
            return result

        return traced

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        """Every span as (name, start, end, parent index, job id)."""
        return [
            (self.names[n], s, e, p, self.job_id)
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]

    def summary(self) -> Dict[str, float]:
        """Span totals, derived self times and work counters of this job."""
        out: Dict[str, float] = aggregate(self.spans())
        out["cli.self_s"] = sum(
            v for k, v in out.items() if k.startswith("cli.cmd_") and k.endswith(".self_s")
        )
        # self time of the two callers of _relation_rows: matrix assembly
        out["chow.assembly_s"] = out.get("chow.graded_group.self_s", 0.0) + out.get(
            "chow.ideal_member.self_s", 0.0
        )
        out.update(self.counters)
        return out


def aggregate(spans: Sequence[Tuple[str, float, float, int, int]]) -> Dict[str, float]:
    """Per-layer ``calls``, inclusive ``s`` and ``self_s`` from a span list.

    A span's parent index is smaller than its own index, as it is when
    spans are appended on entry.  Inclusive time counts only spans with no
    enclosing span of the same layer, so recursion is not counted twice.
    Self time is a span's duration minus the durations of its direct
    children, which never overlap in one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - child_time[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
    return out


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def install(job_id: int) -> Tracer:
    """Wrap every target in the already-imported loghilb modules."""
    tracer = Tracer(job_id)
    for layer, module, attr in TARGETS:
        owner, name = _resolve(module, attr)
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(tracer.wrap(layer, raw.__func__)))
            continue
        wrapped = tracer.wrap(layer, raw)
        setattr(owner, name, wrapped)
        if isinstance(owner, type):
            continue
        for other in MODULES:
            mod = sys.modules[other]
            if mod.__dict__.get(name) is raw:
                setattr(mod, name, wrapped)
    return tracer
