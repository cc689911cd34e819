"""End-to-end fuzzing of simulate, spectrum and sweep through the CLI.

hypothesis builds small scenario and sweep documents, with at most
MAX_EMISSIONS expected emissions per cell so that each run takes
milliseconds. Every field is drawn from its valid range, and at most one
value per document from just past it. A run exits 0 with output that meets
the invariants that hold for any input, or exits 2 with one JSON line on
stderr; any other outcome, an uncaught exception included, fails.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.harness import CONFIG_KEYS, SWEEP_PARAMETERS
from bellsim.presets import PRESETS

MAX_EMISSIONS = 2000
FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _between(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


# (section or None for the top level, field) -> values that field accepts
VALID = {
    ("emission", "process"): st.sampled_from(("poisson", "min_separation")),
    ("emission", "cascade_lifetime_tau"): _between(0.0, 20.0),
    ("emission", "hidden_variable"): st.sampled_from(("uniform", "fixed")),
    ("emission", "fixed_angle"): _between(-4.0, 4.0),
    **{(side, name): strategy for side in ("detector_a", "detector_b")
       for name, strategy in {
           "eta0": _between(0.0, 1.0),
           "efficiency_fn": st.sampled_from(("constant", "cosine_modulated")),
           "modulation_depth": _between(0.0, 1.0),
           "jitter_sigma": _between(0.0, 5.0),
           "dead_time": _between(0.0, 40.0),
           "wave_decay_tau": _between(0.1, 5.0),
           "wave_gain": _between(0.0, 2.0),
           "allow_multiple_detections": st.booleans(),
       }.items()},
    ("window", "channel_delay"): _between(-20.0, 20.0),
    ("window", "bin_width"): _between(0.25, 4.0),
    (None, "analyzer_a"): _between(-4.0, 4.0),
    (None, "relative_angle_x"): _between(-4.0, 4.0),
    (None, "relative_angle_y"): _between(-4.0, 4.0),
    (None, "insertion_delay_a"): _between(0.0, 10.0),
    (None, "insertion_delay_b"): _between(0.0, 10.0),
    (None, "seed"): st.integers(0, 2**32),
    (None, "repeats"): st.integers(1, 2),
}

# (section, field) -> values just past the field's range
PAST = {
    ("emission", "mean_rate"): st.sampled_from((0.0, -1.0)),
    ("emission", "duration"): st.sampled_from((-1.0e-9, 1.0e300)),
    ("emission", "cascade_lifetime_tau"): st.just(-0.01),
    ("detector_a", "eta0"): st.sampled_from((-0.01, 1.01)),
    ("detector_b", "enhancement_factor"): st.sampled_from((0.99, 1.01)),
    ("detector_a", "jitter_sigma"): st.just(-0.01),
    ("detector_b", "dead_time"): st.just(-0.01),
    ("detector_a", "wave_decay_tau"): st.just(0.0),
    ("detector_b", "wave_gain"): st.just(-0.01),
    ("detector_a", "model"): st.sampled_from(("particle", "wave")),  # may mismatch B
    ("window", "bin_width"): st.sampled_from((0.0, -1.0)),
    ("window", "accidental_offset"): st.just(1.0),
    (None, "insertion_delay_b"): st.just(-0.01),
    (None, "repeats"): st.just(0),
    (None, "spectrum_range"): st.sampled_from(([-10.0, 10.0], [30.0, -30.0], [-60.5, 80.0])),
}


def _put(document: dict, section, name, value) -> None:
    (document.setdefault(section, {}) if section else document)[name] = value


@st.composite
def scenario_documents(draw) -> dict:
    document: dict = {}
    if draw(st.booleans()):
        document["preset"] = draw(st.sampled_from(sorted(PRESETS)))
    rate = draw(_between(1.0e2, 1.0e7))
    emissions = draw(st.integers(0, MAX_EMISSIONS))
    _put(document, "emission", "mean_rate", rate)
    _put(document, "emission", "duration", emissions / rate)
    if draw(st.booleans()):
        _put(document, "emission", "min_gap", draw(_between(0.0, 0.9e9 / rate)))
    for (section, name), strategy in VALID.items():
        if draw(st.integers(0, 3)) == 0:
            _put(document, section, name, draw(strategy))
    if draw(st.booleans()):
        model = draw(st.sampled_from(("particle", "wave")))
        _put(document, "detector_a", "model", model)
        _put(document, "detector_b", "model", model)
    if draw(st.booleans()):
        lo = draw(_between(-20.0, 5.0))
        span = draw(_between(0.5, 30.0))
        _put(document, "window", "window_lo", lo)
        _put(document, "window", "window_hi", lo + span)
        _put(document, "window", "accidental_offset", span * draw(_between(2.0, 10.0)))
    if draw(st.integers(0, 2)) == 0:
        (section, name), strategy = draw(st.sampled_from(sorted(PAST.items(), key=str)))
        _put(document, section, name, draw(strategy))
    return document


def _sweep_values(parameter: str, emission: dict):
    """One to three values of parameter; the second list may hold one past its range."""
    rate = max(emission["mean_rate"], 1.0)
    duration = max(emission["duration"], 1.0e-9)
    low, high, past = {
        "window_width": (0.5, 30.0, -1.0),
        # past: just over the emissions cap at the scenario's duration
        "mean_rate": (1.0, max(1.0, MAX_EMISSIONS / duration), 2.02e7 / duration),
        "accidental_offset": (100.0, 400.0, 1.0),
        "min_gap": (0.0, 0.9e9 / rate, 1.0e9 / rate),
        "wave_gain": (0.0, 2.0, -0.01),
    }[parameter]
    return st.lists(_between(low, high), min_size=1, max_size=3) | st.lists(
        _between(low, high) | st.just(past), min_size=1, max_size=3)


@st.composite
def sweep_documents(draw) -> dict:
    scenario = draw(scenario_documents())
    parameter = draw(st.sampled_from(SWEEP_PARAMETERS))
    values = draw(_sweep_values(parameter, scenario["emission"]))
    return {"parameter": parameter, "values": values, "scenario": scenario}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _run(argv) -> tuple[int, str]:
    """main(argv): its exit code and stdout, after checking a failure's stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert set(json.loads(err.getvalue())) == {"error"}
    return code, out.getvalue()


@FUZZ
@given(document=scenario_documents())
def test_simulate_exits_0_with_consistent_counts_or_2_with_one_json_line(fuzz_dir, document):
    path = fuzz_dir / "scenario.json"
    path.write_text(json.dumps(document))
    code, out = _run(["simulate", str(path)])
    if code:
        return
    report = json.loads(out)
    split = report["simulation_only"]["per_configuration"]
    for key, c in report["configurations"].items():
        assert c["raw_count"] <= min(c["singles_a"], c["singles_b"])
        assert c["raw_count"] <= split[key]["true_pairs"] + split[key]["accidental_pairs"]
        assert sum(c["spectrum"]["counts"]) == c["spectrum"]["total_pairs_considered"]


@FUZZ
@given(document=scenario_documents(), key=st.sampled_from(CONFIG_KEYS))
def test_spectrum_exits_0_with_a_histogram_or_2_with_one_json_line(fuzz_dir, document, key):
    path = fuzz_dir / "spectrum.json"
    path.write_text(json.dumps(document))
    code, out = _run(["spectrum", str(path), "--config", key])
    if code:
        return
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["bin_start_ns", "count"]
    starts = [float(start) for start, _ in rows[1:]]
    assert starts and all(a < b for a, b in zip(starts, starts[1:]))
    assert all(int(count) >= 0 for _, count in rows[1:])


@FUZZ
@given(document=sweep_documents())
def test_sweep_exits_0_with_a_row_per_value_or_2_with_one_json_line(fuzz_dir, document):
    path = fuzz_dir / "sweep.json"
    path.write_text(json.dumps(document))
    code, out = _run(["sweep", str(path)])
    if code:
        return
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(row["value"]) for row in rows] == [float(v) for v in document["values"]]
    for row in rows:
        raw = sum(int(row[k]) for k in CONFIG_KEYS)
        assert raw <= int(row["true_pairs"]) + int(row["accidental_pairs"])
