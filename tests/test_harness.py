"""Scenario orchestration: determinism, truth tallies, sweeps, reanalysis."""

import dataclasses
import json
import math
import os
import pickle
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim
from bellsim import harness
from bellsim.bellstats import RunCounts
from bellsim.cli import main
from bellsim.coincidence import (
    WindowConfig,
    build_spectrum,
    cell_pairs,
    classify_pairs_by_origin,
    count_coincidences,
    estimate_accidentals_delayed,
)
from bellsim.detection import ABSENT, ClickStream, DetectorConfig, simulate_side
from bellsim.harness import (
    CONFIG_KEYS,
    ScenarioConfig,
    SweepSpec,
    _window_inclusion,
    apply_sweep_value,
    coincidence_curve,
    derive_rngs,
    parse_counts_file,
    reanalyze_counts,
    run_configuration,
    run_scenario,
    run_sweep,
    sweep_csv_text,
)
from bellsim.presets import (
    PRESETS,
    aspect_like,
    bundled_counts_path,
    load_scenario_file,
    load_sweep_file,
    scenario_from_dict,
    wave_like,
)
from bellsim.source import EmissionConfig, generate_emissions

SMALL = ScenarioConfig(
    emission=EmissionConfig(mean_rate=4.0e4, duration=0.05),
    seed=5,
)


def test_run_scenario_is_deterministic():
    first = run_scenario(SMALL)
    second = run_scenario(SMALL)
    assert json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)
    different = run_scenario(dataclasses.replace(SMALL, seed=6))
    assert different.counts["raw"] != first.counts["raw"]


def test_results_that_hold_arrays_compare_by_identity():
    # a field-wise == on arrays raised "truth value of an array is ambiguous"
    first, second = run_scenario(SMALL), run_scenario(SMALL)
    rng_em, rng_a, _ = derive_rngs(SMALL.seed, 0, 0)
    stream = generate_emissions(SMALL.emission, rng_em)
    clicks = simulate_side(stream, "A", ABSENT, SMALL.detector_a, rng_a)
    for one, twin in ((first, second), (first.configurations["x"], second.configurations["x"]),
                      (first.configurations["x"].spectrum, second.configurations["x"].spectrum),
                      (stream, dataclasses.replace(stream)),
                      (clicks, dataclasses.replace(clicks))):
        assert one == one
        assert one != twin
        assert len({one, twin}) == 2


def test_truth_tally_and_raw_count_match_documented_seed_policy():
    # re-derive each cell's streams from the documented seed recipe and
    # check the report against independently recomputed quantities
    report = run_scenario(SMALL)
    for ci, key in enumerate(CONFIG_KEYS):
        set_a, set_b = SMALL.polariser_settings(key)
        rng_em, rng_a, rng_b = derive_rngs(SMALL.seed, ci, 0)
        stream = generate_emissions(SMALL.emission, rng_em)
        clicks_a = simulate_side(stream, "A", set_a, SMALL.detector_a, rng_a)
        clicks_b = simulate_side(stream, "B", set_b, SMALL.detector_b, rng_b)
        cfg = report.configurations[key]
        assert cfg.singles_a == clicks_a.size
        assert cfg.singles_b == clicks_b.size
        w = SMALL.window
        deltas = np.subtract.outer(clicks_b.times + w.channel_delay, clicks_a.times)
        all_pairs = int(np.count_nonzero((deltas >= w.window_lo) & (deltas <= w.window_hi)))
        assert cfg.true_pairs + cfg.accidental_pairs == all_pairs
        # the spectrum's bins from edge window_lo up to edge window_hi
        edges = cfg.spectrum.bin_edges
        i0, i1 = np.searchsorted(edges, [w.window_lo, w.window_hi])
        assert edges[i0] == w.window_lo and edges[i1] == w.window_hi
        assert int(cfg.spectrum.counts[i0:i1].sum()) == all_pairs


@pytest.mark.parametrize("seed, config_index, repeat", [
    (0, 0, 0), (0, 3, 0), (7, 1, 2), (2**32 + 5, 4, 9), (123456789, 11, 1000),
    (2**32 - 1, 2**32, 0), (2**64, 0, 2**96 + 2**32)])
def test_derive_rngs_gives_the_spawned_children(seed, config_index, repeat):
    # the seed policy as documented: spawn three children of the cell's sequence
    spawned = np.random.SeedSequence([seed, config_index, repeat]).spawn(3)
    derived = derive_rngs(seed, config_index, repeat)
    assert len(derived) == 3
    for rng, child in zip(derived, spawned):
        assert rng.bit_generator.state == np.random.default_rng(child).bit_generator.state


def test_derive_rngs_refuses_negative_entropy():
    for entropy in ((-1, 0, 0), (0, -1, 0), (0, 0, -(2**40))):
        with pytest.raises(ValueError, match="must be >= 0"):
            derive_rngs(*entropy)


def _reference_window_inclusion(clicks_a, clicks_b, w):
    first_a, first_b = {}, {}
    for t, e in zip(clicks_a.times, clicks_a.emission_index):
        first_a.setdefault(int(e), t)
    for t, e in zip(clicks_b.times, clicks_b.emission_index):
        first_b.setdefault(int(e), t)
    common = first_a.keys() & first_b.keys()
    inside = sum(w.window_lo <= (first_b[e] + w.channel_delay) - first_a[e] <= w.window_hi
                 for e in common)
    return inside, len(common)


def _inclusion(clicks_a, clicks_b, w):
    """_window_inclusion on the cell pass of two click streams."""
    pairs = cell_pairs(clicks_a.times, clicks_b.times, clicks_a.emission_index,
                       clicks_b.emission_index, w)
    return _window_inclusion(pairs, clicks_a.emission_index, clicks_b.emission_index)


def test_window_inclusion_uses_each_emissions_first_clicks():
    # multi-click wave detectors repeat emission ids on both sides
    base = wave_like()
    multi = dict(allow_multiple_detections=True, wave_decay_tau=5.0, wave_gain=1.0,
                 dead_time=1.0)
    s = dataclasses.replace(
        base, emission=dataclasses.replace(base.emission, duration=0.002),
        detector_a=dataclasses.replace(base.detector_a, **multi),
        detector_b=dataclasses.replace(base.detector_b, **multi))
    empty = ClickStream(times=np.zeros(0), emission_index=np.zeros(0, dtype=np.int64))
    windows = (s.window, WindowConfig(channel_delay=-4.0, window_lo=-1.5, window_hi=2.5))
    set_a, set_b = s.polariser_settings("x")
    for cell in range(3):
        rng_em, rng_a, rng_b = derive_rngs(s.seed, cell, 0)
        stream = generate_emissions(s.emission, rng_em)
        clicks_a = simulate_side(stream, "A", set_a, s.detector_a, rng_a)
        clicks_b = simulate_side(stream, "B", set_b, s.detector_b, rng_b)
        assert np.unique(clicks_a.emission_index).size < clicks_a.size
        assert np.unique(clicks_b.emission_index).size < clicks_b.size
        for w in windows:
            got = _inclusion(clicks_a, clicks_b, w)
            assert got == _reference_window_inclusion(clicks_a, clicks_b, w)
            assert 0 < got[0] < got[1]
        assert _inclusion(clicks_a, empty, s.window) == (0, 0)
        assert _inclusion(empty, clicks_b, s.window) == (0, 0)
    # A's emissions all come after B's: no emission has both
    late = ClickStream(times=np.array([1.0, 2.0]), emission_index=np.array([7, 9]))
    early = ClickStream(times=np.array([1.5]), emission_index=np.array([3]))
    assert _inclusion(late, early, s.window) == (0, 0)
    assert _inclusion(empty, empty, s.window) == (0, 0)


def test_multi_click_side_expecting_exactly_the_cap_is_accepted():
    base = wave_like()
    # 1e7 emissions per cell, and 2 hazard units on each: 2e7 clicks expected
    detector_b = dataclasses.replace(base.detector_b, allow_multiple_detections=True,
                                     wave_gain=4.0, wave_decay_tau=0.5)

    def scenario(duration):
        emission = dataclasses.replace(base.emission, mean_rate=1.0e7, duration=duration)
        return dataclasses.replace(base, emission=emission, detector_b=detector_b)

    assert scenario(1.0).expected_cell_size == harness.MAX_EMISSIONS_PER_CELL
    with pytest.raises(ValueError, match="over the cap"):
        scenario(1.000001)


def _click_stream(clicks):
    # sorted by time only: equal times keep their drawn order
    clicks = sorted(clicks, key=lambda c: c[0])
    return ClickStream(times=np.array([t for t, _ in clicks], dtype=float),
                       emission_index=np.array([e for _, e in clicks], dtype=np.int64))


# emission ids repeat, arrive out of time order and lie 100,003 apart
click_streams = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=200.0),
              st.integers(min_value=0, max_value=12).map(lambda k: k * 100_003)),
    max_size=30).map(_click_stream)


@settings(max_examples=200, deadline=None)
@given(clicks_a=click_streams, clicks_b=click_streams,
       delay=st.integers(min_value=-20, max_value=20),
       lo=st.integers(min_value=-30, max_value=30), span=st.integers(min_value=1, max_value=30))
def test_window_inclusion_matches_reference(clicks_a, clicks_b, delay, lo, span):
    w = WindowConfig(channel_delay=float(delay), window_lo=float(lo), window_hi=float(lo + span))
    assert _inclusion(clicks_a, clicks_b, w) == _reference_window_inclusion(clicks_a, clicks_b, w)


def test_zero_duration_scenario_reports_no_data():
    scenario = dataclasses.replace(
        SMALL, emission=EmissionConfig(mean_rate=1.0e4, duration=0.0))
    report = run_scenario(scenario)
    assert report.no_data
    assert report.reports["raw"].no_data
    assert report.counts["raw"] == RunCounts(x=0, y=0, z=0, Z=0, duration=0.0)
    assert all(s.value is None for s in report.reports["raw"].statistics())


def test_repeats_sum_per_repeat_runs():
    twice = run_scenario(dataclasses.replace(SMALL, repeats=2))
    # manual accumulation over repeat indices with the same seed recipe
    for ci, key in enumerate(CONFIG_KEYS):
        set_a, set_b = SMALL.polariser_settings(key)
        singles_a = raw = delayed = true_pairs = inside = emissions = 0
        spectrum = 0
        for r in range(2):
            rng_em, rng_a, rng_b = derive_rngs(SMALL.seed, ci, r)
            stream = generate_emissions(SMALL.emission, rng_em)
            clicks_a = simulate_side(stream, "A", set_a, SMALL.detector_a, rng_a)
            clicks_b = simulate_side(stream, "B", set_b, SMALL.detector_b, rng_b)
            pairs = cell_pairs(clicks_a.times, clicks_b.times, clicks_a.emission_index,
                               clicks_b.emission_index, SMALL.window)
            singles_a += clicks_a.size
            raw += count_coincidences(pairs)
            delayed += estimate_accidentals_delayed(pairs)
            true_pairs += classify_pairs_by_origin(pairs)[0]
            spectrum = spectrum + build_spectrum(pairs).counts
            got, tot = _reference_window_inclusion(clicks_a, clicks_b, SMALL.window)
            inside += got
            emissions += tot
        cfg = twice.configurations[key]
        assert (cfg.singles_a, cfg.raw_count, cfg.acc_delayed, cfg.true_pairs) == \
            (singles_a, raw, delayed, true_pairs)
        assert cfg.spectrum.counts.tolist() == spectrum.tolist()
        assert cfg.spectrum.total_pairs_considered == int(spectrum.sum())
        assert cfg.window_inclusion_fraction == inside / emissions
    assert twice.counts["raw"].duration == pytest.approx(2 * SMALL.emission.duration)


def test_scenario_report_reasonableness():
    report = run_scenario(dataclasses.replace(
        SMALL, emission=EmissionConfig(mean_rate=1.0e5, duration=0.5), seed=11))
    # classical particle chain: S_F near its analytic value
    assert report.reports["raw"].s_freedman.value == pytest.approx(0.17678, abs=0.02)
    # singles halve when the B polariser goes in
    cfg = report.configurations
    assert cfg["x"].singles_b / cfg["Z"].singles_b == pytest.approx(0.5, abs=0.02)
    for key in CONFIG_KEYS:
        incl = cfg[key].window_inclusion_fraction
        assert incl is not None
        assert 0.9 < incl < 1.0


def test_window_size_neutral_for_particle_model():
    # the particle model ties detection time to nothing the analyzers see,
    # so S_F is window-size neutral up to Monte Carlo noise
    base = dataclasses.replace(
        SMALL, emission=EmissionConfig(mean_rate=1.0e5, duration=0.2))
    w8 = WindowConfig(window_lo=-3.0, window_hi=5.0, accidental_offset=100.0)
    w20 = WindowConfig(window_lo=-3.0, window_hi=17.0, accidental_offset=100.0)
    diffs = []
    for seed in range(6):
        s8 = run_scenario(dataclasses.replace(base, window=w8, seed=seed))
        s20 = run_scenario(dataclasses.replace(base, window=w20, seed=seed))
        diffs.append(s8.reports["raw"].s_freedman.value - s20.reports["raw"].s_freedman.value)
    assert abs(float(np.mean(diffs))) < 0.005


def test_polariser_settings_mapping():
    s = ScenarioConfig(insertion_delay_a=2.0, insertion_delay_b=3.0)
    a, b = s.polariser_settings("x")
    assert a.angle == pytest.approx(0.0)
    assert b.angle == pytest.approx(math.pi / 8.0)
    assert (a.insertion_delay, b.insertion_delay) == (2.0, 3.0)
    _, b = s.polariser_settings("y")
    assert b.angle == pytest.approx(3.0 * math.pi / 8.0)
    a, b = s.polariser_settings("z")
    assert a.present and not b.present
    a, b = s.polariser_settings("Z")
    assert not a.present and not b.present
    # run_configuration refuses a key with polariser_settings' messages
    for refuse in (s.polariser_settings, lambda key: run_configuration(s, key)):
        with pytest.raises(ValueError, match=re.escape(
                "unknown configuration key 'w', expected one of ('x', 'y', 'z', 'Z')")):
            refuse("w")
        with pytest.raises(ValueError, match="configuration key must be a string, got 1"):
            refuse(1)
    # a set angle is stored as a plain float, reduced mod pi
    a, b = ScenarioConfig(analyzer_a=np.float64(3.5)).polariser_settings("x")
    assert type(a.angle) is float and type(b.angle) is float
    assert a.angle == pytest.approx(3.5 - math.pi)


def test_scenario_validation():
    with pytest.raises(ValueError, match="model"):
        ScenarioConfig(detector_a=DetectorConfig(model="wave"))
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(seed=-1)
    with pytest.raises(ValueError, match="repeats"):
        ScenarioConfig(repeats=0)
    for name in ("insertion_delay_a", "insertion_delay_b"):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=name):
                ScenarioConfig(**{name: bad})
    # the spectrum range is checked when the scenario is built, not after
    # the first cell has been simulated
    with pytest.raises(ValueError, match="must contain the window"):
        ScenarioConfig(spectrum_range=(0.0, 100.0))
    with pytest.raises(ValueError, match="does not evenly divide"):
        ScenarioConfig(spectrum_range=(-50.0, 50.5))
    with pytest.raises(ValueError, match="lo < hi"):
        ScenarioConfig(spectrum_range=(30.0, 20.0))
    # a bool is an int to Python, and a numeric string converts with float()
    for name in ("seed", "repeats", "analyzer_a", "insertion_delay_b"):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: True})
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(seed="3")
    for bad in (("-60", "80"), (True, 100.0), (-60.0,)):
        with pytest.raises(ValueError, match="spectrum_range"):
            ScenarioConfig(spectrum_range=bad)
    with pytest.raises(ValueError, match="sweep values"):
        SweepSpec(parameter="mean_rate", values=(True,), fixed=SMALL)


def test_report_writes_an_explicit_spectrum_range_as_a_list_of_floats():
    s = dataclasses.replace(SMALL, spectrum_range=(-60, 80))
    scenario = run_scenario(s).to_dict()["scenario"]
    assert scenario["spectrum_range"] == [-60.0, 80.0]
    assert all(type(v) is float for v in scenario["spectrum_range"])
    assert '"spectrum_range": [-60.0, 80.0]' in json.dumps(scenario)


def test_single_value_sweep_equals_run_scenario():
    spec = SweepSpec(parameter="mean_rate", values=(4.0e4,), fixed=SMALL)
    swept = run_sweep(spec)
    direct = run_scenario(dataclasses.replace(
        SMALL, emission=dataclasses.replace(SMALL.emission, mean_rate=4.0e4)))
    assert len(swept) == 1
    assert swept[0].to_dict() == direct.to_dict()


def test_sweep_accidental_share_grows_with_rate():
    base = dataclasses.replace(SMALL, emission=EmissionConfig(mean_rate=1.0e3, duration=0.4),
                               seed=2)
    spec = SweepSpec(parameter="mean_rate", values=(1.0e3, 1.0e4, 1.0e5), fixed=base)
    reports = run_sweep(spec)
    ratios = []
    tallies = []
    for report in reports:
        cfg = report.configurations
        acc_product = sum(cfg[k].acc_product for k in CONFIG_KEYS)
        true_pairs = sum(cfg[k].true_pairs for k in CONFIG_KEYS)
        tallies.append(sum(cfg[k].accidental_pairs for k in CONFIG_KEYS))
        assert true_pairs > 0
        ratios.append(acc_product / true_pairs)
    assert ratios[0] < ratios[1] < ratios[2]
    assert tallies[0] <= tallies[1] <= tallies[2]  # raw tally, may tie at zero


def test_sweep_csv_shape():
    spec = SweepSpec(parameter="mean_rate", values=(2.0e4, 4.0e4), fixed=SMALL)
    text = sweep_csv_text(spec, run_sweep(spec))
    lines = text.strip().splitlines()
    assert lines[0].startswith("value,x,y,z,Z,")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 2.0e4


def test_sweep_spec_refuses_a_value_the_config_rules_refuse():
    with pytest.raises(ValueError, match=r"values\[1\]: window_width = -5"):
        SweepSpec(parameter="window_width", values=(20.0, -5.0), fixed=SMALL)


@pytest.fixture
def no_stray_process(capfd):
    """Fails a forking test that hangs or leaves a child unreaped; capfd sees their output."""
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the sweep hung"))
    signal.alarm(60)
    try:
        yield capfd
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _processes(monkeypatch, spec, processes):
    """Let run_sweep split spec over this many processes, and check that it will."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: processes)
    assert harness._sweep_processes(spec) == processes


def _wave_sweep(values):
    base = wave_like()
    detector_a = dataclasses.replace(base.detector_a, allow_multiple_detections=True)
    detector_b = dataclasses.replace(base.detector_b, allow_multiple_detections=True)
    fixed = dataclasses.replace(base, detector_a=detector_a, detector_b=detector_b, seed=4,
                                emission=dataclasses.replace(base.emission, duration=0.002))
    return SweepSpec(parameter="wave_gain", values=values, fixed=fixed)


@pytest.mark.parametrize("spec", [
    # unequal weights: 5e4 alone, 3e4 alone, 2e4 with 1e4 at three processes
    SweepSpec(parameter="mean_rate", values=(1.0e4, 3.0e4, 2.0e4, 5.0e4),
              fixed=dataclasses.replace(SMALL, emission=EmissionConfig(duration=0.01))),
    # equal weights: the points alternate between the processes
    _wave_sweep((0.5, 1.0, 2.0, 4.0, 6.0)),
], ids=["mean_rate", "wave_gain"])
def test_sweep_reports_do_not_depend_on_the_process_count(monkeypatch, no_stray_process, spec):
    outputs = []
    for processes in (1, 2, 3):
        _processes(monkeypatch, spec, processes)
        reports = run_sweep(spec)
        outputs.append(([json.dumps(r.to_dict(), sort_keys=True) for r in reports],
                        sweep_csv_text(spec, reports).encode()))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert no_stray_process.readouterr() == ("", "")


def test_sweep_points_are_dealt_heaviest_first_to_the_least_loaded():
    assert harness._deal([1.0, 2.0, 3.0], 2) == [[2], [0, 1]]
    assert harness._deal([1.0] * 5, 2) == [[0, 2, 4], [1, 3]]
    assert harness._deal([0.0] * 3, 3) == [[0], [1], [2]]


def test_sweep_process_count_is_bounded_by_points_cpus_and_the_memory_cap(monkeypatch):
    spec = SweepSpec(parameter="mean_rate", values=(1.0e4, 2.0e4, 3.0e4), fixed=SMALL)
    wave = _wave_sweep((1.0, 2.0, 4.0))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
    assert harness._sweep_processes(spec) == 3
    monkeypatch.setattr(harness, "MAX_EMISSIONS_PER_CELL", 2 * 3.0e4 * SMALL.emission.duration)
    assert harness._sweep_processes(spec) == 2
    # a multi-click side expects more clicks than the cell has emissions
    clicks = wave.scenarios[-1].expected_cell_size
    assert clicks > wave.fixed.emission.mean_rate * wave.fixed.emission.duration
    monkeypatch.setattr(harness, "MAX_EMISSIONS_PER_CELL", 2.5 * clicks)
    assert harness._sweep_processes(wave) == 2
    monkeypatch.setattr(harness.threading, "active_count", lambda: 2)
    assert harness._sweep_processes(wave) == 1


def _pair_cap_sweep(values):
    # 1e5 emissions in 1 us pass the emissions cap, and then the pair cap
    # refuses the point's first cell
    base = PRESETS["aspect-like"]()
    detector = dataclasses.replace(base.detector_a, dead_time=0.0)
    fixed = dataclasses.replace(base, emission=dataclasses.replace(base.emission, duration=1e-6),
                                detector_a=detector, detector_b=detector)
    return SweepSpec(parameter="mean_rate", values=values, fixed=fixed)


def test_sweep_abort_names_offending_value(monkeypatch, no_stray_process):
    for values, shares in [
        # every point fails; the lowest failing index is in the child's
        # share, then in the parent's, each behind a higher one dealt to it
        ((1.1e11, 1.0e11, 1.3e11, 1.2e11), [[1, 2], [0, 3]]),
        ((1.0e11, 1.1e11, 1.3e11, 1.2e11), [[0, 2], [1, 3]]),
        # the only failing point runs in the parent, and the child's succeeds
        ((1.0e4, 1.0e11), [[1], [0]]),
    ]:
        spec = _pair_cap_sweep(values)
        _processes(monkeypatch, spec, 1)
        failing = next(v for v in spec.values if v >= 1.0e11)
        with pytest.raises(RuntimeError, match=rf"aborted at mean_rate = {failing}: .* pairs") \
                as serial:
            run_sweep(spec)
        _processes(monkeypatch, spec, 2)
        assert harness._deal([s.emission.mean_rate for s in spec.scenarios], 2) == shares
        with pytest.raises(RuntimeError) as forked:
            run_sweep(spec)
        # the same error whichever process ran the lowest failing point
        assert type(forked.value) is type(serial.value)
        assert str(forked.value) == str(serial.value)
        assert serial.value.__cause__ is None and forked.value.__cause__ is None
    assert no_stray_process.readouterr() == ("", "")


def _killed_in_a_child(monkeypatch):
    parent, run = os.getpid(), harness._run_scenario

    def run_scenario(s, lanes):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(s, lanes)

    monkeypatch.setattr(harness, "_run_scenario", run_scenario)


def test_sweep_child_killed_by_a_signal_is_a_runtime_error(monkeypatch, no_stray_process):
    spec = SweepSpec(parameter="mean_rate", values=(1.0e4, 2.0e4, 3.0e4), fixed=SMALL)
    _processes(monkeypatch, spec, 2)
    _killed_in_a_child(monkeypatch)
    with pytest.raises(RuntimeError, match=rf"points \[0, 1\] ended by signal {signal.SIGKILL}"):
        run_sweep(spec)
    assert no_stray_process.readouterr() == ("", "")


def test_sweep_child_killed_by_a_signal_is_one_json_line(monkeypatch, no_stray_process, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"parameter": "mean_rate", "values": [1.0e4, 2.0e4],
                                "scenario": {"seed": 1, "emission": {"duration": 0.01}}}))
    _processes(monkeypatch, load_sweep_file(path), 2)
    _killed_in_a_child(monkeypatch)
    assert main(["sweep", str(path)]) == 2
    out, err = no_stray_process.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "RuntimeError"
    assert "ended by signal" in error["message"]


class _Interrupt(BaseException):
    pass


def test_sweep_interrupted_in_the_parent_kills_and_reaps_its_children(monkeypatch,
                                                                      no_stray_process):
    spec = SweepSpec(parameter="mean_rate", values=(1.0e4, 2.0e4), fixed=SMALL)
    _processes(monkeypatch, spec, 2)
    parent = os.getpid()

    def run_scenario(s, lanes):
        if os.getpid() == parent:
            raise _Interrupt
        time.sleep(120)  # the child would outlive the test unless it is killed

    monkeypatch.setattr(harness, "_run_scenario", run_scenario)
    with pytest.raises(_Interrupt):
        run_sweep(spec)
    assert no_stray_process.readouterr() == ("", "")


def test_sweep_failure_in_the_parent_waits_out_a_large_child_payload(monkeypatch,
                                                                     no_stray_process):
    # 10,000 spectrum bins per configuration: a child's share pickles to
    # more than a pipe holds, so the child blocks until the parent reads
    fixed = dataclasses.replace(SMALL, emission=EmissionConfig(mean_rate=1.0e4, duration=0.001),
                                spectrum_range=(-5000.0, 5000.0))
    spec = SweepSpec(parameter="mean_rate", values=(1.0e4,) * 4, fixed=fixed)
    _processes(monkeypatch, spec, 2)
    child_share = [run_scenario(spec.scenarios[i]) for i in (1, 3)]
    assert len(pickle.dumps(child_share, pickle.HIGHEST_PROTOCOL)) > 64 * 1024
    parent, run = os.getpid(), harness._run_scenario

    def run_scenario_failing_in_the_parent(s, lanes):
        if os.getpid() == parent:
            raise ValueError("refused in the parent")
        return run(s, lanes)

    monkeypatch.setattr(harness, "_run_scenario", run_scenario_failing_in_the_parent)
    with pytest.raises(RuntimeError,
                       match=r"^sweep aborted at mean_rate = 10000.0: refused in the parent$"):
        run_sweep(spec)
    assert no_stray_process.readouterr() == ("", "")


def _short(scenario, duration, **changes):
    return dataclasses.replace(
        scenario, emission=dataclasses.replace(scenario.emission, duration=duration), **changes)


def _cosine_modulated():
    base = aspect_like()
    detector = dataclasses.replace(base.detector_a, efficiency_fn="cosine_modulated",
                                   modulation_depth=1.0)
    return _short(base, 0.01, seed=6, detector_a=detector, detector_b=detector)


# 4 x repeats cells of about 2,000 emissions (wave: 400, with multi-click sides)
LANE_SCENARIOS = {
    "aspect-like": _short(aspect_like(), 0.01, seed=1),
    "aspect-like, 3 repeats": _short(aspect_like(), 0.01, seed=2, repeats=3),
    "freedman-like": _short(PRESETS["freedman-like"](), 0.02, seed=3),
    "wave-like, multi-click": _wave_sweep((3.0,)).scenarios[0],
    "cosine_modulated": _cosine_modulated(),
}


def _lanes(monkeypatch, cpus, max_lanes=harness.MAX_LANES, min_lane_cell=0):
    """Let a scenario run on cpus usable CPUs and max_lanes lanes at most.

    By default with no floor, so that cells of any size may share the lanes.
    """
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "MAX_LANES", max_lanes)
    monkeypatch.setattr(harness, "MIN_LANE_CELL", min_lane_cell)


def _cells_by_lane(monkeypatch, cpus, run, max_lanes=harness.MAX_LANES, min_lane_cell=0):
    """run() under _lanes: its result and the (configuration index, repeat) cells of each lane.

    Each lane's cells are in the order it ran them: lane 0's, the calling
    thread's, first, then each other lane's, by its first cell.
    """
    _lanes(monkeypatch, cpus, max_lanes, min_lane_cell)
    ran, run_cell = {}, harness._run_cell

    def recorded(s, config_index, repeat, key):
        ran.setdefault(threading.current_thread(), []).append((config_index, repeat))
        return run_cell(s, config_index, repeat, key)

    monkeypatch.setattr(harness, "_run_cell", recorded)
    try:
        result = run()
    finally:
        monkeypatch.setattr(harness, "_run_cell", run_cell)
    return result, [ran.pop(threading.main_thread()), *sorted(ran.values())]


def _on_cpus(monkeypatch, cpus, run, max_lanes=harness.MAX_LANES, min_lane_cell=0):
    """run() under _lanes: its result and the number of lanes that ran its cells."""
    result, lanes = _cells_by_lane(monkeypatch, cpus, run, max_lanes, min_lane_cell)
    return result, len(lanes)


def _configuration_json(c) -> str:
    tallies = ("true_pairs", "accidental_pairs", "inclusion_inside", "inclusion_total")
    return json.dumps({**c.to_dict(), **{name: getattr(c, name) for name in tallies}},
                      sort_keys=True)


@pytest.mark.parametrize("name", LANE_SCENARIOS)
def test_results_do_not_depend_on_the_lane_count(monkeypatch, capfd, name):
    s = LANE_SCENARIOS[name]
    angles = [0.0, 0.4, 0.8]
    outputs = []
    # the lane cap, and above it, to run the lanes on more threads than it allows
    for cpus, max_lanes in [(1, 2), (2, 2), (3, 2), (8, 2), (3, 8), (8, 8)]:
        def on_cpus(run):
            return _on_cpus(monkeypatch, cpus, run, max_lanes)

        report, lanes = on_cpus(lambda: run_scenario(s))
        assert lanes == min(cpus, max_lanes, 4 * s.repeats)
        configurations = []
        for key in CONFIG_KEYS:
            c, lanes = on_cpus(lambda: run_configuration(s, key))
            assert lanes == min(cpus, max_lanes, s.repeats)
            configurations.append(_configuration_json(c))
            assert configurations[-1] == _configuration_json(report.configurations[key])
        curve, lanes = on_cpus(lambda: coincidence_curve(s, angles))
        assert lanes == min(cpus, max_lanes, len(angles) * s.repeats)
        outputs.append((json.dumps(report.to_dict(), sort_keys=True), configurations, curve))
    assert all(output == outputs[0] for output in outputs)
    assert capfd.readouterr() == ("", "")


def test_lane_count_is_bounded_by_cells_cpus_the_memory_cap_and_max_lanes(monkeypatch):
    s = LANE_SCENARIOS["aspect-like, 3 repeats"]
    serial, lanes = _on_cpus(monkeypatch, 1, lambda: run_scenario(s))
    assert lanes == 1
    _, lanes = _on_cpus(monkeypatch, 8, lambda: run_scenario(s))
    assert lanes == harness.MAX_LANES == 2
    _, lanes = _on_cpus(monkeypatch, 8, lambda: run_scenario(s), max_lanes=8)
    assert lanes == 8
    # the cells running at once stay within one cell's emissions cap
    monkeypatch.setattr(harness, "MAX_EMISSIONS_PER_CELL", 2.5 * s.expected_cell_size)
    report, lanes = _on_cpus(monkeypatch, 8, lambda: run_scenario(s), max_lanes=8)
    assert lanes == 2
    assert report.to_dict() == serial.to_dict()
    # a multi-click side's expected clicks count where they exceed the emissions
    wave = LANE_SCENARIOS["wave-like, multi-click"]
    assert wave.expected_cell_size > wave.emission.mean_rate * wave.emission.duration
    monkeypatch.setattr(harness, "MAX_EMISSIONS_PER_CELL", 3.5 * wave.expected_cell_size)
    _, lanes = _on_cpus(monkeypatch, 8, lambda: run_scenario(wave), max_lanes=8)
    assert lanes == 3
    # a sweep's share runs its points on one lane
    _, lanes = _on_cpus(monkeypatch, 8, lambda: harness._run_scenario(s, 1), max_lanes=8)
    assert lanes == 1


def _shares(monkeypatch, s, lanes):
    """run_scenario(s)'s cells per lane as under _cells_by_lane, named key and repeat."""
    _, shares = _cells_by_lane(monkeypatch, lanes, lambda: run_scenario(s), lanes)
    return [" ".join(f"{CONFIG_KEYS[ci]}{r}" for ci, r in share) for share in shares]


def test_cells_are_dealt_heaviest_beside_lightest(monkeypatch):
    # x, y, z, Z lack 0, 0, 1 and 2 polarisers: on two lanes x then y run
    # beside z then Z, whatever the repeats
    for repeats, shares in [(1, ["x0 y0", "z0 Z0"]),
                            (2, ["x0 x1 y0 y1", "z0 z1 Z0 Z1"]),
                            (3, ["x0 x1 x2 y0 y1 y2", "z0 z1 z2 Z0 Z1 Z2"])]:
        assert _shares(monkeypatch, dataclasses.replace(SMALL, repeats=repeats), 2) == shares
    # lane k runs the k-th of the contiguous blocks, each in order
    assert _shares(monkeypatch, SMALL, 1) == ["x0 y0 z0 Z0"]
    assert _shares(monkeypatch, SMALL, 3) == ["x0", "y0", "z0 Z0"]
    assert _shares(monkeypatch, SMALL, 4) == ["x0", "y0", "z0", "Z0"]


def test_a_scenario_of_small_cells_runs_on_one_lane(monkeypatch):
    # two CPUs and MAX_LANES allow two lanes: the floor alone decides, on a
    # cell's expected emissions, and the multi-click wave cell below it in
    # emissions expects about three times as many clicks, above it
    floor, wave = harness.MIN_LANE_CELL, LANE_SCENARIOS["wave-like, multi-click"]
    for base, cells, lanes in [(aspect_like(), 0.95 * floor, 1), (aspect_like(), 1.05 * floor, 2),
                               (wave, 0.95 * floor, 1)]:
        s = _short(base, cells / base.emission.mean_rate, seed=7)
        assert s.expected_cell_size > floor or base is not wave
        serial, _ = _on_cpus(monkeypatch, 1, lambda: run_scenario(s))
        report, used = _on_cpus(monkeypatch, 2, lambda: run_scenario(s), min_lane_cell=floor)
        assert used == lanes
        assert report.to_dict() == serial.to_dict()


class _CellError(Exception):
    pass


@pytest.mark.parametrize("cpus, failing, failing_lanes", [
    # two repeats: cells x0 x1 y0 y1 z0 z1 Z0 Z1, on two lanes x0-y1 | z0-Z1,
    # on three x0 x1 | y0 y1 z0 | z1 Z0 Z1; lane 0 is the calling thread
    (2, {6}, {1}),
    (2, {1, 3}, {0}),
    (2, {3, 4}, {0, 1}),  # lane 1 fails at its first cell, lane 0 at its last
    (3, {1, 4}, {0, 1}),  # lane 0 holds the lowest
    (3, {4, 5}, {1, 2}),  # lane 2 fails at its first cell, lane 1 at its last
], ids=["lane-1", "lane-0", "both", "both-lane-0-lowest", "lanes-1-and-2"])
def test_a_failed_cell_raises_the_serial_runs_error(monkeypatch, capfd, cpus, failing,
                                                    failing_lanes):
    s = dataclasses.replace(SMALL, repeats=2)
    _, shares = _cells_by_lane(monkeypatch, cpus, lambda: run_scenario(s), cpus)
    assert {lane for lane, share in enumerate(shares)
            if failing & {2 * ci + r for ci, r in share}} == failing_lanes
    run_cell = harness._run_cell

    def failing_cell(s, config_index, repeat, key):
        if 2 * config_index + repeat in failing:
            raise _CellError(f"cell {config_index}, {repeat}")
        return run_cell(s, config_index, repeat, key)

    monkeypatch.setattr(harness, "_run_cell", failing_cell)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    with pytest.raises(_CellError) as serial:
        run_scenario(s)
    lowest = min(failing)
    assert str(serial.value) == f"cell {lowest // 2}, {lowest % 2}"
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(_CellError) as threaded:
        run_scenario(s)
    assert str(threaded.value) == str(serial.value)
    assert threading.active_count() == before
    assert capfd.readouterr() == ("", "")


def test_a_lane_ends_above_another_lanes_failure(monkeypatch, capfd):
    # on three lanes, x0 x1 | y0 y1 z0 | z1 Z0 Z1: lane 1 fails at y0 (cell 2)
    # while lane 2 runs z1 (cell 5); lane 2 then runs no more cells, as a
    # serial run ends at cell 2
    s = dataclasses.replace(SMALL, repeats=2)
    _lanes(monkeypatch, 3, 3)
    ran, lane_1 = [], []
    ready, go = threading.Event(), threading.Event()
    run_cell = harness._run_cell

    def cell(s, config_index, repeat, key):
        index = 2 * config_index + repeat
        ran.append(index)
        if index == 2:
            lane_1.append(threading.current_thread())
            ready.set()
            go.wait(10)
            raise _CellError("cell 1, 0")
        if index == 5:
            ready.wait(10)
            go.set()
            lane_1[0].join(10)  # lane 1 has failed and ended
        return run_cell(s, config_index, repeat, key)

    monkeypatch.setattr(harness, "_run_cell", cell)
    with pytest.raises(_CellError, match=r"^cell 1, 0$"):
        run_scenario(s)
    assert not lane_1[0].is_alive()
    assert sorted(ran) == [0, 1, 2, 5]
    assert capfd.readouterr() == ("", "")


def test_more_lanes_than_cores_under_a_short_switch_interval(monkeypatch, capfd):
    # 24 small cells on 8 lanes that switch every microsecond: every cell's
    # result lands in its own slot, and of many failures the lowest is raised
    s = dataclasses.replace(SMALL, emission=EmissionConfig(mean_rate=4.0e4, duration=0.005),
                            repeats=6)
    serial, _ = _on_cpus(monkeypatch, 1, lambda: run_scenario(s))
    run_cell = harness._run_cell

    def failing_cell(s, config_index, repeat, key):
        if (config_index, repeat) in ((2, 5), (1, 3), (3, 0), (1, 4)):
            raise _CellError(f"cell {config_index}, {repeat}")
        return run_cell(s, config_index, repeat, key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            report, lanes = _on_cpus(monkeypatch, 8, lambda: run_scenario(s), max_lanes=8)
            assert lanes == 8
            assert report.to_dict() == serial.to_dict()
        monkeypatch.setattr(harness, "_run_cell", failing_cell)
        for _ in range(5):
            with pytest.raises(_CellError, match=r"^cell 1, 3$"):
                run_scenario(s)
    finally:
        sys.setswitchinterval(interval)
    assert capfd.readouterr() == ("", "")


def test_an_interrupt_in_a_lane_thread_reaches_the_caller(monkeypatch, capfd):
    _lanes(monkeypatch, 2)
    run_cell = harness._run_cell

    def interrupted(*args):
        if threading.current_thread() is not threading.main_thread():
            raise _Interrupt
        return run_cell(*args)

    monkeypatch.setattr(harness, "_run_cell", interrupted)
    before = threading.active_count()
    with pytest.raises(_Interrupt):
        run_scenario(SMALL)
    assert threading.active_count() == before
    assert capfd.readouterr() == ("", "")


def test_a_sweep_still_forks_after_a_threaded_run_scenario(monkeypatch, no_stray_process):
    spec = SweepSpec(parameter="mean_rate", values=(1.0e4, 2.0e4), fixed=SMALL)
    _processes(monkeypatch, spec, 2)
    _, lanes = _on_cpus(monkeypatch, 2, lambda: run_scenario(SMALL))
    assert lanes == 2
    assert harness._sweep_processes(spec) == 2
    assert no_stray_process.readouterr() == ("", "")


def test_apply_sweep_value_semantics():
    s = apply_sweep_value(SMALL, "window_width", 8.0)
    assert (s.window.window_lo, s.window.window_hi) == (-3.0, 5.0)
    s = apply_sweep_value(SMALL, "min_gap", 500.0)
    assert s.emission.process == "min_separation"
    assert s.emission.min_gap == 500.0
    s = apply_sweep_value(SMALL, "min_gap", 0.0)
    assert s.emission.process == SMALL.emission.process
    wave = PRESETS["wave-like"]()
    s = apply_sweep_value(wave, "wave_gain", 2.5)
    assert s.detector_a.wave_gain == 2.5
    assert s.detector_b.wave_gain == 2.5
    s = apply_sweep_value(SMALL, "accidental_offset", 250.0)
    assert s.window.accidental_offset == 250.0
    assert (s.window.window_lo, s.window.window_hi) == (SMALL.window.window_lo,
                                                        SMALL.window.window_hi)
    s = apply_sweep_value(SMALL, "mean_rate", 3.0e4)
    assert s.emission.mean_rate == 3.0e4
    with pytest.raises(ValueError, match=re.escape(
            "unknown sweep parameter 'jitter', expected one of ('window_width', 'mean_rate', "
            "'accidental_offset', 'min_gap', 'wave_gain')")):
        apply_sweep_value(SMALL, "jitter", 1.0)


def test_scenario_from_dict_overrides_and_errors():
    scenario = scenario_from_dict({
        "seed": 9,
        "emission": {"mean_rate": 123.0, "duration": 0.25},
        "window": {"window_hi": 10.0},
    })
    assert scenario.seed == 9
    assert scenario.emission.mean_rate == 123.0
    assert scenario.window.window_hi == 10.0
    assert scenario.window.window_lo == -3.0  # untouched default
    with pytest.raises(ValueError, match="emission"):
        scenario_from_dict({"emission": {"rate": 5.0}})
    with pytest.raises(ValueError, match="unknown scenario field"):
        scenario_from_dict({"speed": 3})
    with pytest.raises(ValueError, match="detector_b"):
        scenario_from_dict({"detector_b": {"eta0": 1.7}})
    # JSON true/false only where the field itself is a bool
    scenario = scenario_from_dict({"detector_a": {"allow_multiple_detections": True}})
    assert scenario.detector_a.allow_multiple_detections is True
    for bad in ({"seed": True}, {"repeats": True}, {"analyzer_a": False},
                {"spectrum_range": True}, {"spectrum_range": [True, 100]},
                {"emission": {"mean_rate": True}}, {"window": {"bin_width": True}},
                {"detector_b": {"model": False}}):
        with pytest.raises(ValueError, match="boolean|spectrum_range"):
            scenario_from_dict(bad)


def test_preset_loading_and_overrides(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "preset": "freedman-like",
        "seed": 4,
        "emission": {"duration": 0.01},
    }))
    scenario = load_scenario_file(path)
    assert scenario.window.span == pytest.approx(8.0)
    assert scenario.seed == 4
    assert scenario.emission.duration == 0.01
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "nonexistent"}))
    with pytest.raises(ValueError, match="unknown preset"):
        load_scenario_file(bad)


def test_one_parser_reads_a_scenario_document_from_a_file_and_from_a_dict(tmp_path):
    document = {"preset": "freedman-like", "window": {"window_lo": -3.0}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    scenario = bellsim.scenario_from_dict(document)
    assert scenario == load_scenario_file(path)
    assert (scenario.window.window_lo, scenario.window.window_hi) == (-3.0, 6.0)
    with pytest.raises(ValueError, match="unknown preset 'bogus'"):
        bellsim.scenario_from_dict({"preset": "bogus"})


def test_load_sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "parameter": "window_width",
        "values": [8.0, 20.0, 40.0],
        "scenario": {"preset": "aspect-like", "seed": 1},
    }))
    spec = load_sweep_file(path)
    assert spec.parameter == "window_width"
    assert spec.values == (8.0, 20.0, 40.0)
    assert spec.fixed.seed == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"parameter": "window_width"}))
    with pytest.raises(ValueError, match="missing sweep field"):
        load_sweep_file(bad)


def test_parse_counts_json_and_csv_agree(tmp_path):
    golden = json.loads(bundled_counts_path().read_text())
    from_json = parse_counts_file(bundled_counts_path())
    csv_path = tmp_path / "counts.csv"
    fields = list(golden)
    csv_path.write_text(",".join(fields) + "\n" +
                        ",".join(str(golden[f]) for f in fields) + "\n")
    assert parse_counts_file(csv_path) == from_json
    assert from_json.x == 86.8
    assert from_json.has_accidentals


def test_parse_counts_csv_empty_cells_mean_absent(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("x,y,z,Z,acc_x\n1.0,2.0,3.0,4.0,\n")
    counts = parse_counts_file(path)
    assert counts.acc_x is None
    assert not counts.has_accidentals


def test_parse_counts_csv_reads_json_numbers_as_float_does(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("x,y,z,Z\n1E3, 12 ,-0,86.8\n")
    counts = parse_counts_file(path)
    got = [counts.x, counts.y, counts.z, counts.Z]
    assert [(v, math.copysign(1.0, v)) for v in got] == [
        (v, math.copysign(1.0, v)) for v in map(float, ["1E3", " 12 ", "-0", "86.8"])]
    assert got == [json.loads(c) for c in ["1E3", " 12 ", "-0", "86.8"]]


def test_parse_counts_precise_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"x": 1,\n "y": }')
    with pytest.raises(ValueError, match=r"bad\.json: line 2"):
        parse_counts_file(bad_json)
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("x,y,z,Z\n1.0,two,3.0,4.0\n")
    with pytest.raises(ValueError, match=r"line 2, field 'y'"):
        parse_counts_file(bad_cell)
    two_rows = tmp_path / "rows.csv"
    two_rows.write_text("x,y,z,Z\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(ValueError, match="exactly one data row"):
        parse_counts_file(two_rows)
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"x": 1, "y": 2, "z": 3, "Z": 4, "bogus": 5}')
    with pytest.raises(ValueError, match="bogus"):
        parse_counts_file(unknown)


def test_reanalyze_zero_accidentals_leaves_statistics_unchanged(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"x": 5.0, "y": 3.0, "z": 6.0, "Z": 16.0,
                                "acc_x": 0.0, "acc_y": 0.0, "acc_z": 0.0, "acc_Z": 0.0}))
    result = reanalyze_counts(path)
    assert "corrected" in result.reports
    raw = {s.name: s.value for s in result.reports["raw"].statistics()}
    corrected = {s.name: s.value for s in result.reports["corrected"].statistics()}
    assert raw == corrected


def test_reanalyze_without_accidentals_gives_raw_only(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"x": 5.0, "y": 3.0, "z": 6.0, "Z": 16.0}))
    result = reanalyze_counts(path)
    assert "corrected" not in result.reports
    assert "corrected" not in result.to_dict()["reports"]


def test_reanalyze_1_2_4_background_raises_all_statistics(tmp_path):
    golden = json.loads(bundled_counts_path().read_text())
    acc_Z = 0.1 * golden["Z"]
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        "x": golden["x"], "y": golden["y"], "z": golden["z"], "Z": golden["Z"],
        "acc_x": acc_Z / 4.0, "acc_y": acc_Z / 4.0, "acc_z": acc_Z / 2.0, "acc_Z": acc_Z,
    }))
    result = reanalyze_counts(path)
    for name in ("s_std", "s_chsh", "s_freedman"):
        raw = {s.name: s.value for s in result.reports["raw"].statistics()}[name]
        corrected = {s.name: s.value for s in result.reports["corrected"].statistics()}[name]
        assert corrected > raw


def test_coincidence_curve_classical_visibility():
    from bellsim.bellstats import compute_visibility_statistic

    scenario = dataclasses.replace(
        SMALL,
        emission=EmissionConfig(mean_rate=1.2e5, duration=1.0),
        detector_a=DetectorConfig(model="particle", jitter_sigma=0.0, dead_time=0.0),
        detector_b=DetectorConfig(model="particle", jitter_sigma=0.0, dead_time=0.0),
        seed=13,
    )
    angles = [k * math.pi / 8.0 for k in range(5)]  # 0 .. pi/2
    curve = coincidence_curve(scenario, angles)
    assert [a for a, _ in curve] == pytest.approx(angles)
    v, s_vis = compute_visibility_statistic(curve)
    assert v == pytest.approx(0.5, abs=0.02)
    assert s_vis.value == pytest.approx(2.0, abs=0.1)
    # the printed form of the statistic flags classical curves too: its
    # orientation is kept verbatim, which is why reports carry V alongside
    assert s_vis.violated is True
    # a point is configuration x at that angle, so its scenario checks the angle
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="relative_angle_x"):
            coincidence_curve(scenario, [0.0, bad])
