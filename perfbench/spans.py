"""Span recording around bellsim's public functions, and span arithmetic.

The traced run swaps each function named in TRACED for a wrapper in the
module namespace the caller looks it up in (bellsim.cli for the CLI's
calls, bellsim.harness for the harness's). Nothing inside src/ changes.
Spans stay in memory while the run lasts and are written out at its end.

A layer's busy time sums its outermost spans (a span whose parent is in the
same layer is already inside one). Its self time sums, over all its spans,
the span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_source(c, result):
    _add(c, "source.emissions", result.size)
    _add(c, "harness.cells", 1)


def _count_detection(c, result):
    _add(c, "detection.calls", 1)
    _add(c, "detection.clicks", result.size)


def _count_matched(c, result):
    _add(c, "coincidence.matched", result)


def _count_spectrum(c, result):
    _add(c, "coincidence.spectrum_pairs", result.total_pairs_considered)


def _count_classify(c, result):
    _add(c, "coincidence.window_pairs", result[0] + result[1])


# (module, function) -> (layer, counter). The same function is patched in
# every module that calls it by name.
TRACED = {
    ("cli", "main"): ("cli", None),
    ("cli", "load_scenario_file"): ("presets", None),
    ("cli", "load_sweep_file"): ("presets", None),
    ("cli", "run_scenario"): ("harness", None),
    ("cli", "run_sweep"): ("harness", None),
    ("harness", "run_scenario"): ("harness", None),
    ("harness", "generate_emissions"): ("source", _count_source),
    ("harness", "simulate_side"): ("detection", _count_detection),
    ("harness", "count_coincidences"): ("coincidence.count", _count_matched),
    ("harness", "estimate_accidentals_delayed"): ("coincidence.delayed", None),
    ("harness", "build_spectrum"): ("coincidence.spectrum", _count_spectrum),
    ("harness", "classify_pairs_by_origin"): ("coincidence.classify", _count_classify),
    ("harness", "compute_bell_statistics"): ("bellstats", None),
}


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, fn.__name__, layer, start, end,
                                         parent, tracer.op))
            if counter is not None:
                counter(tracer.counters.setdefault(tracer.op, {}), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Patch every TRACED function; modules maps short names to modules."""
        for (mod_name, fn_name), (layer, counter) in TRACED.items():
            module = modules[mod_name]
            original = getattr(module, fn_name)
            self._originals.append((module, fn_name, original))
            setattr(module, fn_name, self.wrap(original, layer, counter))

    def uninstall(self) -> None:
        for module, fn_name, original in self._originals:
            setattr(module, fn_name, original)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: busy (outermost spans) and self (minus covered child time)."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.layer, {"busy": 0.0, "self": 0.0})
        duration = s.end - s.start
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        entry["self"] += duration - _covered([k for k in kids if k[0] < k[1]])
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            entry["busy"] += duration
    return out
