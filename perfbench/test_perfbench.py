"""Self-tests for the benchmark's own logic: span arithmetic and workload files.

Run from the root of a checkout with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import types

import pytest

import spans
from workloads import DEFAULT_SEED, WORKLOADS, nominal_emissions


def _span(id, layer, start, end, parent=None, op=0):
    return spans.Span(id, f"fn{id}", layer, start, end, parent, op)


def test_self_times_sum_to_the_root_and_busy_counts_outermost_spans():
    tree = [
        _span(0, "cli", 0.0, 10.0),
        _span(1, "presets", 0.0, 1.0, parent=0),
        _span(2, "harness", 1.0, 9.0, parent=0),  # run_sweep
        _span(3, "harness", 2.0, 8.0, parent=2),  # run_scenario inside it
        _span(4, "detection", 3.0, 5.0, parent=3),
        _span(5, "detection", 5.5, 6.0, parent=3),
    ]
    times = spans.layer_times(tree)
    assert times["cli"] == {"busy": 10.0, "self": 1.0}
    assert times["presets"] == {"busy": 1.0, "self": 1.0}
    assert times["harness"] == {"busy": 8.0, "self": (8.0 - 6.0) + (6.0 - 2.5)}
    assert times["detection"] == {"busy": 2.5, "self": 2.5}
    assert sum(t["self"] for t in times.values()) == pytest.approx(10.0)  # the root span


def test_covered_time_merges_overlapping_children():
    assert spans._covered([]) == 0.0
    assert spans._covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert spans._covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_counts_only_the_part_of_a_child_inside_its_parent():
    tree = [_span(0, "cli", 0.0, 4.0), _span(1, "harness", 3.0, 6.0, parent=0)]
    assert spans.layer_times(tree)["cli"]["self"] == 3.0


def test_tracer_records_parents_ops_and_counters_then_restores_functions():
    def fake(name, result=None):
        def fn(*args, **kwargs):
            return result
        fn.__name__ = name
        return fn

    cli = types.SimpleNamespace()
    harness = types.SimpleNamespace()
    modules = {"cli": cli, "harness": harness}
    results = {"generate_emissions": types.SimpleNamespace(size=7),
               "simulate_side": types.SimpleNamespace(size=3),
               "count_coincidences": 2,
               "build_spectrum": types.SimpleNamespace(total_pairs_considered=9),
               "classify_pairs_by_origin": (4, 1)}
    for mod, fn in spans.TRACED:
        setattr(modules[mod], fn, fake(fn, results.get(fn)))
    originals = {(mod, fn): getattr(modules[mod], fn) for mod, fn in spans.TRACED}

    tracer = spans.Tracer()
    tracer.op = 3
    tracer.install(modules)

    def traced_main():
        harness.generate_emissions()
        harness.simulate_side()
        harness.simulate_side()
        harness.count_coincidences()
        harness.build_spectrum()
        harness.classify_pairs_by_origin()

    wrapped_main = tracer.wrap(traced_main, "cli")
    wrapped_main()
    tracer.uninstall()

    assert all(getattr(modules[m], f) is originals[(m, f)] for m, f in spans.TRACED)
    root = [s for s in tracer.spans if s.parent is None]
    assert len(root) == 1 and root[0].layer == "cli"
    assert all(s.parent == root[0].id for s in tracer.spans if s is not root[0])
    assert {s.op for s in tracer.spans} == {3}
    assert [s.layer for s in tracer.spans[:-1]] == [
        "source", "detection", "detection", "coincidence.count",
        "coincidence.spectrum", "coincidence.classify"]
    assert tracer.counters[3] == {
        "source.emissions": 7, "harness.cells": 1, "detection.calls": 2,
        "detection.clicks": 6, "coincidence.matched": 2,
        "coincidence.spectrum_pairs": 9, "coincidence.window_pairs": 5}


def test_tracer_records_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "presets")()
    assert [s.layer for s in tracer.spans] == ["presets"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_files_depend_only_on_the_seed(name):
    w = WORKLOADS[name]
    assert w.file_text(5) == w.file_text(5)
    assert w.file_text(5) != w.file_text(6)
    for seed in (DEFAULT_SEED, 11):
        doc = json.loads(w.file_text(seed))
        assert doc.get("scenario", doc)["seed"] == seed


def test_nominal_emissions_per_op():
    emissions = {name: nominal_emissions(w.document(0)) for name, w in WORKLOADS.items()}
    assert emissions == pytest.approx({"aspect-simulate": 200_000,
                                       "dense-rate-sweep": 480_000,
                                       "wave-many-small": 38_400})


def test_wave_gains_step_from_half_to_twelve_and_a_quarter():
    values = WORKLOADS["wave-many-small"].document(0)["values"]
    assert len(values) == 48 and values[0] == 0.5 and values[-1] == 12.25
    assert all(b - a == 0.25 for a, b in zip(values, values[1:]))
