"""The shared config validator: every numeric field, and fuzzed input files.

The fuzz tests only parse: no document they build is simulated.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import numbers
import operator
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim.bellstats import RunCounts, compute_bell_statistics
from bellsim.cli import main
from bellsim.coincidence import WindowConfig
from bellsim.detection import (
    EFFICIENCY_FNS,
    MODELS,
    DetectorConfig,
    PolariserSetting,
)
from bellsim.harness import SWEEP_PARAMETERS, ScenarioConfig, SweepSpec, parse_counts_file
from bellsim.presets import PRESETS, load_scenario_file, load_sweep_file
from bellsim.source import HIDDEN_VARIABLE_MODES, PROCESSES, EmissionConfig
from bellsim.validation import _shown, check_bool, check_number

# (class, field name as the message shows it, a builder that puts a value there)
NUMERIC_FIELDS = [
    *(("EmissionConfig", name, lambda n, v: EmissionConfig(**{n: v}))
      for name in ("mean_rate", "duration", "min_gap", "cascade_lifetime_tau", "fixed_angle")),
    *(("DetectorConfig", name, lambda n, v: DetectorConfig(**{n: v}))
      for name in ("eta0", "modulation_depth", "enhancement_factor", "jitter_sigma",
                   "dead_time", "wave_decay_tau", "wave_gain")),
    *(("WindowConfig", name, lambda n, v: WindowConfig(**{n: v}))
      for name in ("channel_delay", "window_lo", "window_hi", "bin_width",
                   "accidental_offset")),
    *(("PolariserSetting", name, lambda n, v: PolariserSetting(**{n: v}))
      for name in ("angle", "insertion_delay")),
    *(("ScenarioConfig", name, lambda n, v: ScenarioConfig(**{n: v}))
      for name in ("analyzer_a", "relative_angle_x", "relative_angle_y",
                   "insertion_delay_a", "insertion_delay_b", "seed", "repeats")),
    ("ScenarioConfig", "spectrum_range[0]",
     lambda n, v: ScenarioConfig(spectrum_range=(v, 80.0))),
    ("ScenarioConfig", "spectrum_range[1]",
     lambda n, v: ScenarioConfig(spectrum_range=(-60.0, v))),
    ("SweepSpec", "sweep values[0]", lambda n, v: SweepSpec("mean_rate", (v,), ScenarioConfig())),
    *(("RunCounts", name, lambda n, v: RunCounts(**{"x": 1, "y": 1, "z": 1, "Z": 1, n: v}))
      for name in ("x", "y", "z", "Z", "acc_x", "acc_y", "acc_z", "acc_Z", "duration")),
]


@pytest.mark.parametrize("cls, name, build", NUMERIC_FIELDS,
                         ids=[f"{cls}.{name}" for cls, name, _ in NUMERIC_FIELDS])
def test_every_numeric_field_refuses_non_numbers(cls, name, build):
    with pytest.raises(ValueError, match=re.escape(name) + ".*boolean"):
        build(name, True)
    for bad in ("1", math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        with pytest.raises(ValueError, match=re.escape(name)):
            build(name, bad)


def test_cross_field_rules_refuse_sums_and_products_that_overflow():
    # each field fits a float, but a sum or product of two does not
    with pytest.raises(ValueError, match="min_separation"):
        EmissionConfig(process="min_separation", mean_rate=10**300, min_gap=10**300)
    with pytest.raises(ValueError, match="twice the span"):
        WindowConfig(window_lo=-(10**308), window_hi=10**308)
    # no code adds channel_delay + accidental_offset, but an input whose sum
    # overflows is still refused: a check on outside input
    for big in (1.0e308, 10**308):
        with pytest.raises(ValueError, match="channel_delay"):
            WindowConfig(channel_delay=big, accidental_offset=big)
    # the offset window starts at window_lo - accidental_offset
    for lo, hi, offset in ((-1.7e308, -1.6e308, 1.0e308),
                           (-17 * 10**307, -16 * 10**307, 10**308)):
        with pytest.raises(ValueError, match="window_lo - accidental_offset"):
            WindowConfig(window_lo=lo, window_hi=hi, accidental_offset=offset)


def test_statistics_of_counts_near_the_float_limit_do_not_raise():
    report = compute_bell_statistics(RunCounts(x=10**308, y=-(10**308), z=0, Z=1))
    assert report.s_freedman.value == math.inf


def test_integer_shown_in_full_up_to_1024_bits():
    # 2**1023 fits in a float; 2**1024, of 1,025 bits, does not
    with pytest.raises(ValueError) as refused:
        check_bool("flag", 2 ** 1023)
    assert str(refused.value) == f"flag must be a boolean, got {2 ** 1023!r}"
    with pytest.raises(ValueError) as refused:
        check_bool("flag", 2 ** 1024)
    assert str(refused.value) == "flag must be a boolean, got an integer of 1025 bits"


def test_choices_and_flags_refuse_other_types():
    for bad in (False, 1, ["particle"], None):
        with pytest.raises(ValueError, match="model"):
            DetectorConfig(model=bad)
    for bad in ("yes", 1, 0, None):
        with pytest.raises(ValueError, match="allow_multiple_detections"):
            DetectorConfig(allow_multiple_detections=bad)
    with pytest.raises(ValueError, match="sweep parameter"):
        SweepSpec(["mean_rate"], (1.0,), ScenarioConfig())


def _reference_check_number(name: str, value, *, integer: bool = False,
                            ge=None, gt=None, le=None) -> None:
    """check_number as first written: every value through every check."""
    if isinstance(value, bool) or not isinstance(value, int if integer else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {_shown(value)}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    for bound, sign, holds in ((ge, ">=", operator.ge), (gt, ">", operator.gt),
                               (le, "<=", operator.le)):
        if bound is not None and not holds(value, bound):
            raise ValueError(f"{name} must be {sign} {bound}, got {value!r}")


def _outcome(check, value, **kwargs):
    try:
        check("field", value, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


_TINY = 5e-324  # the smallest subnormal
# float() overflows from 2**1024 - 2**970, where the rounding reaches 2**1024
_LARGE_INTS = {
    **{f"{s}2**{k}{d:+d}": (-1 if s else 1) * (2**k + d)
       for s in ("", "-") for k in (1023, 1024) for d in (-1, 0, 1)},
    "2**1024-2**970": 2**1024 - 2**970, "2**1024-2**970-1": 2**1024 - 2**970 - 1,
    "-2**1024+2**970": -(2**1024 - 2**970), "10**400": 10**400,
}
_CHECKED_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, _TINY, -_TINY, 2.2250738585072014e-308 / 3,
    1.5, -2.5, 1.0e308, -1.7976931348623157e308,
    0, 1, -1, 7, 2**53 + 1,
    *(pytest.param(v, id=label) for label, v in _LARGE_INTS.items()),
    True, False,
    np.float64(1.5), np.float64(math.nan), np.float64(math.inf), np.int64(3), np.int64(-3),
    np.bool_(True), np.bool_(False),
    Fraction(1, 3), Fraction(-7, 2), Decimal("1.5"), Decimal("NaN"), "1.5", "nan", None,
]
_BOUNDS = [{}, {"ge": 0.0}, {"gt": 0.0}, {"le": 1.0}, {"ge": 0}, {"gt": 0}, {"le": 0},
           {"ge": 1.0, "le": 1.0}, {"ge": -(2**1023)}, {"le": 2**1023}, {"gt": 2**1023 - 1},
           {"ge": 0.0, "gt": 0.5, "le": 2.0}]


@pytest.mark.parametrize("value", _CHECKED_VALUES, ids=repr)
def test_check_number_decides_like_the_reference(value):
    # every bound also sits exactly at the value, where ge and le pass and gt fails
    at_value = [{"ge": value}, {"gt": value}, {"le": value}]
    for integer in (False, True):
        for bounds in _BOUNDS + at_value:
            want = _outcome(_reference_check_number, value, integer=integer, **bounds)
            assert _outcome(check_number, value, integer=integer, **bounds) == want


# --- fuzzed input files ------------------------------------------------------

CHOICES = (*MODELS, *EFFICIENCY_FNS, *PROCESSES, *HIDDEN_VARIABLE_MODES, *PRESETS,
           *SWEEP_PARAMETERS)
NUMBERS = st.one_of(
    st.floats(),  # NaN and +-inf included; json writes them as NaN and Infinity
    st.integers(-1000, 10**6),
    st.integers(10**307, 2**1030) | st.integers(-(2**1030), -(10**307)),  # near the float limit
    st.integers(10**399, 10**400),
    st.integers(-(10**400), -(10**399)),
)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.sampled_from(CHOICES),
                    st.text(max_size=6))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

# a field value: half the time one that every numeric field accepts, so
# that whole documents parse often enough to reach the cross-field rules
FIELD = st.booleans().flatmap(
    lambda plausible: st.integers(0, 3) | st.floats(0.0, 1.0) if plausible else NUMBERS | VALUES)


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _section(cls):
    # an object of the section's own keys, or any other value
    keys = st.sampled_from(_fields(cls) + ["bogus"])
    return st.dictionaries(keys, FIELD, max_size=4) | VALUES


SCENARIO_SCALARS = ("analyzer_a", "relative_angle_x", "relative_angle_y", "insertion_delay_a",
                    "insertion_delay_b", "seed", "repeats")
# documents of known keys, plus ones that also draw an unknown key
SCENARIO_DOCS = st.fixed_dictionaries({}, optional={
    "preset": st.sampled_from(tuple(PRESETS)) | VALUES,
    "emission": _section(EmissionConfig),
    "detector_a": _section(DetectorConfig),
    "detector_b": _section(DetectorConfig),
    "window": _section(WindowConfig),
    "spectrum_range": st.lists(FIELD, max_size=3) | VALUES,
    **{name: FIELD for name in SCENARIO_SCALARS},
}) | st.dictionaries(st.sampled_from(("preset", "emission", "spectrum_range", *SCENARIO_SCALARS,
                                      "bogus")), FIELD, max_size=4)
SWEEP_DOCS = st.fixed_dictionaries({
    "parameter": st.sampled_from(SWEEP_PARAMETERS) | VALUES,
    "values": st.lists(FIELD, max_size=3) | VALUES,
}, optional={"scenario": SCENARIO_DOCS | VALUES}) | st.dictionaries(
    st.sampled_from(("parameter", "values", "scenario", "bogus")), VALUES, max_size=4)
COUNTS_DOCS = st.fixed_dictionaries(
    {name: FIELD for name in ("x", "y", "z", "Z")},
    optional={name: FIELD for name in ("acc_x", "acc_y", "acc_z", "acc_Z", "duration", "bogus")},
) | st.dictionaries(st.sampled_from(_fields(RunCounts)), FIELD, max_size=9)
FUZZ = settings(max_examples=75, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write_json(path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


def _parses_or_value_error(load, path) -> None:
    try:
        load(path)
    except ValueError:
        pass


@FUZZ
@given(document=SCENARIO_DOCS | VALUES)
def test_scenario_files_parse_or_raise_value_error(fuzz_dir, document):
    _parses_or_value_error(load_scenario_file, _write_json(fuzz_dir / "scenario.json", document))


@FUZZ
@given(document=SWEEP_DOCS | VALUES)
def test_sweep_files_parse_or_raise_value_error(fuzz_dir, document):
    _parses_or_value_error(load_sweep_file, _write_json(fuzz_dir / "sweep.json", document))


@FUZZ
@given(document=COUNTS_DOCS | VALUES, as_csv=st.booleans())
def test_counts_files_parse_or_exit_2_with_one_json_line(fuzz_dir, document, as_csv):
    if as_csv and isinstance(document, dict):
        path = fuzz_dir / "counts.csv"
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(document)
        writer.writerow(str(v) for v in document.values())
        path.write_text(buf.getvalue())
        path = str(path)
    else:
        path = _write_json(fuzz_dir / "counts.json", document)
    _parses_or_value_error(parse_counts_file, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stats", path])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert set(json.loads(err.getvalue())) == {"error"}
