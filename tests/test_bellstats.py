"""Test statistics: golden count tables, limits, subtraction behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.bellstats import (
    LIMITS,
    RunCounts,
    compute_bell_statistics,
    compute_visibility_statistic,
    subtract_accidentals,
)

# Golden historical count table (coincidence rates per second, four
# polariser configurations plus delayed-channel accidentals).
GOLDEN_RAW = RunCounts(x=86.8, y=38.3, z=126.0, Z=248.2,
                       acc_x=22.8, acc_y=22.5, acc_z=45.5, acc_Z=90.0)
# Statistics as printed alongside that table, and the exact arithmetic
# values frozen from an independent oracle run before this module existed.
PRINTED_RAW = {"s_std": 1.55, "s_chsh": -0.121, "s_freedman": 0.195}
PRINTED_CORRECTED = {"s_std": 2.42, "s_chsh": 0.096, "s_freedman": 0.309}
EXACT_RAW = {"s_std": 1.5507593924860112, "s_chsh": -0.12046736502820321,
             "s_freedman": 0.19540692989524577}
EXACT_CORRECTED = {"s_std": 2.4160401002506267, "s_chsh": 0.09608091024020221,
                   "s_freedman": 0.3046776232616941}

# Ideal classical particle-model rates relative to Z, frozen from the
# quadrature oracle: R(phi)/Z = 1/4 + cos(2 phi)/8, z/Z = 1/2.
CLASSICAL_X = 0.3383883476483184
CLASSICAL_Y = 0.16161165235168148
CLASSICAL_STATS = {"s_std": 1.414213562373095, "s_chsh": -0.14644660940672627,
                   "s_freedman": 0.17677669529663687}


def _values(report):
    return {s.name: s.value for s in report.statistics()}


def test_quadrature_oracle_reproduces_frozen_classical_rates():
    lam = np.linspace(0.0, math.pi, 1 << 14, endpoint=False)
    for phi, frozen in ((math.pi / 8.0, CLASSICAL_X), (3.0 * math.pi / 8.0, CLASSICAL_Y)):
        rate = np.mean(np.cos(lam) ** 2 * np.cos(lam - phi) ** 2)
        assert abs(rate - frozen) < 1.0e-12
    assert abs(np.mean(np.cos(lam) ** 2) - 0.5) < 1.0e-12  # z/Z


def test_golden_raw_row():
    report = compute_bell_statistics(GOLDEN_RAW, variant="raw")
    values = _values(report)
    for name, printed in PRINTED_RAW.items():
        assert values[name] == pytest.approx(EXACT_RAW[name], rel=1.0e-12)
        assert abs(values[name] - printed) <= 0.005
    assert not report.negative_counts
    assert report.variant == "raw"


def test_golden_corrected_row():
    corrected = subtract_accidentals(GOLDEN_RAW)
    assert (corrected.x, corrected.y, corrected.z, corrected.Z) == \
        pytest.approx((64.0, 15.8, 80.5, 158.2), abs=1.0e-12)
    assert not corrected.has_accidentals
    report = compute_bell_statistics(corrected, variant="corrected")
    values = _values(report)
    for name, printed in PRINTED_CORRECTED.items():
        assert values[name] == pytest.approx(EXACT_CORRECTED[name], rel=1.0e-12)
        assert abs(values[name] - printed) <= 0.005


def test_subtraction_flips_every_flag_on_the_golden_table():
    raw_flags = {s.name: s.violated for s in
                 compute_bell_statistics(GOLDEN_RAW, variant="raw").statistics()}
    corr_flags = {s.name: s.violated for s in
                  compute_bell_statistics(subtract_accidentals(GOLDEN_RAW),
                                          variant="corrected").statistics()}
    assert raw_flags == {"s_std": False, "s_chsh": False, "s_freedman": False}
    assert corr_flags == {"s_std": True, "s_chsh": True, "s_freedman": True}


def test_equal_x_y_zeroes_difference_statistics():
    report = compute_bell_statistics(RunCounts(x=10.0, y=10.0, z=15.0, Z=40.0))
    values = _values(report)
    assert values["s_std"] == 0.0
    assert values["s_freedman"] == 0.0


def test_classical_rates_match_frozen_statistics():
    counts = RunCounts(x=CLASSICAL_X, y=CLASSICAL_Y, z=0.5, Z=1.0)
    values = _values(compute_bell_statistics(counts))
    for name, frozen in CLASSICAL_STATS.items():
        assert values[name] == pytest.approx(frozen, abs=1.0e-12)
        # comfortably below every limit
        assert values[name] < LIMITS[name]


def test_zero_denominators_reported_as_undefined():
    report = compute_bell_statistics(RunCounts(x=0.0, y=0.0, z=1.0, Z=2.0))
    assert report.s_std.value is None
    assert report.s_std.violated is None
    report = compute_bell_statistics(RunCounts(x=3.0, y=1.0, z=1.0, Z=0.0))
    assert report.s_chsh.value is None
    assert report.s_freedman.value is None
    report = compute_bell_statistics(RunCounts(x=0.0, y=0.0, z=0.0, Z=0.0))
    assert report.no_data
    assert all(s.value is None for s in report.statistics())


@pytest.mark.parametrize("counts, name", [
    (RunCounts(x=35.0, y=10.0, z=47.5, Z=100.0), "s_freedman"),
    (RunCounts(x=35.0, y=10.0, z=47.5, Z=100.0), "s_chsh"),
    (RunCounts(x=30.0, y=10.0, z=20.0, Z=40.0), "s_std"),
])
def test_statistic_exactly_at_its_limit_is_not_violated(counts, name):
    statistic = getattr(compute_bell_statistics(counts), name)
    assert statistic.value == LIMITS[name]
    assert statistic.violated is False


def test_no_data_only_when_all_four_counts_are_zero():
    for zero in ("x", "y", "z", "Z"):
        counts = RunCounts(**{k: 0.0 if k == zero else 1.0 for k in ("x", "y", "z", "Z")})
        assert not compute_bell_statistics(counts).no_data
    assert compute_bell_statistics(RunCounts(x=0.0, y=0.0, z=0.0, Z=0.0)).no_data


def test_negative_corrected_counts_preserved_and_flagged():
    counts = RunCounts(x=5.0, y=8.0, z=10.0, Z=40.0,
                       acc_x=7.0, acc_y=2.0, acc_z=3.0, acc_Z=4.0)
    corrected = subtract_accidentals(counts)
    assert corrected.x == -2.0
    report = compute_bell_statistics(corrected, variant="corrected")
    assert report.negative_counts
    assert report.s_freedman.value == pytest.approx((-2.0 - 6.0) / 36.0)


def test_subtract_requires_all_accidentals():
    with pytest.raises(ValueError, match="acc_z"):
        subtract_accidentals(RunCounts(x=1.0, y=1.0, z=1.0, Z=1.0,
                                       acc_x=0.1, acc_y=0.1, acc_Z=0.1))


def test_zero_accidentals_identity():
    counts = RunCounts(x=5.0, y=3.0, z=6.0, Z=16.0,
                       acc_x=0.0, acc_y=0.0, acc_z=0.0, acc_Z=0.0)
    raw = _values(compute_bell_statistics(counts))
    corrected = _values(compute_bell_statistics(subtract_accidentals(counts)))
    assert raw == corrected


def test_equal_fraction_1_2_4_subtraction_strictly_raises_s_freedman():
    # accidentals alpha * (Z/4, Z/4, Z/2, Z): the numerator x - y is
    # untouched while Z shrinks, so S_F grows strictly with alpha
    base = GOLDEN_RAW
    previous = EXACT_RAW["s_freedman"]
    for alpha in np.linspace(0.05, 0.85, 9):
        acc = alpha * base.Z
        counts = dataclasses.replace(base, acc_x=acc / 4.0, acc_y=acc / 4.0,
                                     acc_z=acc / 2.0, acc_Z=acc)
        value = _values(compute_bell_statistics(subtract_accidentals(counts)))["s_freedman"]
        assert value > previous
        previous = value


@settings(max_examples=300, deadline=None)
@given(scale=st.floats(min_value=1.0, max_value=1.0e4),
       background=st.floats(min_value=0.0, max_value=1.0e4),
       fraction=st.floats(min_value=1.0e-6, max_value=0.99))
def test_1_2_4_subtraction_raises_all_statistics(scale, background, fraction):
    # counts shaped like a physical run: a classical signal of size `scale`
    # plus an accidental background in the characteristic 1:2:4 pattern
    x = CLASSICAL_X * scale + background
    y = CLASSICAL_Y * scale + background
    z = 0.5 * scale + 2.0 * background
    Z = scale + 4.0 * background
    c = fraction * min((x + y) / 2.0, Z / 4.0)
    counts = RunCounts(x=x, y=y, z=z, Z=Z, acc_x=c, acc_y=c, acc_z=2.0 * c, acc_Z=4.0 * c)
    before = _values(compute_bell_statistics(counts))
    after = _values(compute_bell_statistics(subtract_accidentals(counts)))
    for name in ("s_std", "s_chsh", "s_freedman"):
        assert after[name] > before[name]


@settings(max_examples=200, deadline=None)
@given(k=st.floats(min_value=1.0e-6, max_value=1.0e6))
def test_scale_invariance(k):
    base = GOLDEN_RAW
    scaled = RunCounts(x=base.x * k, y=base.y * k, z=base.z * k, Z=base.Z * k)
    unscaled = compute_bell_statistics(dataclasses.replace(
        base, acc_x=None, acc_y=None, acc_z=None, acc_Z=None))
    rescaled = compute_bell_statistics(scaled)
    for s1, s2 in zip(unscaled.statistics(), rescaled.statistics()):
        assert s2.value == pytest.approx(s1.value, rel=1.0e-9)
        assert s1.violated == s2.violated


def test_visibility_extreme_curve():
    v, s_vis = compute_visibility_statistic([(0.0, 1.0), (math.pi / 2.0, 0.0)])
    assert v == 1.0
    assert s_vis.value == 1.0
    assert s_vis.violated is False  # 1 does not exceed 1.71


def test_visibility_three_to_one_curve():
    v, s_vis = compute_visibility_statistic([(0.0, 3.0), (1.0, 1.0)])
    assert v == 0.5
    assert s_vis.value == 2.0
    # the statistic is defined so larger means violating, and 2 > 1.71
    assert s_vis.violated is True


def test_visibility_flat_curve_undefined_statistic():
    v, s_vis = compute_visibility_statistic([(0.0, 2.0), (1.0, 2.0)])
    assert v == 0.0
    assert s_vis.value is None
    assert s_vis.violated is None


def test_visibility_all_zero_curve_undefined_statistic():
    v, s_vis = compute_visibility_statistic([(0.0, 0.0), (1.0, 0.0)])
    assert v == 0.0
    assert s_vis.value is None
    assert s_vis.violated is None


def test_visibility_of_classical_curve_is_half():
    # R(phi) proportional to 1/4 + cos(2 phi)/8, extremes 3/8 and 1/8
    angles = np.linspace(0.0, math.pi / 2.0, 9)
    curve = [(float(a), 0.25 + math.cos(2.0 * a) / 8.0) for a in angles]
    v, s_vis = compute_visibility_statistic(curve)
    assert v == pytest.approx(0.5, abs=1.0e-12)
    assert s_vis.value == pytest.approx(2.0, abs=1.0e-12)


def test_visibility_input_validation():
    with pytest.raises(ValueError):
        compute_visibility_statistic([(0.0, 1.0)])
    with pytest.raises(ValueError):
        compute_visibility_statistic([(0.0, 1.0), (1.0, -2.0)])


def test_runcounts_validation_and_serialization():
    with pytest.raises(ValueError):
        RunCounts(x=float("nan"), y=1.0, z=1.0, Z=1.0)
    with pytest.raises(ValueError):
        RunCounts(x=1.0, y=1.0, z=1.0, Z=1.0, duration=-1.0)
    with pytest.raises(ValueError, match="unknown"):
        RunCounts.from_dict({"x": 1.0, "y": 1.0, "z": 1.0, "Z": 1.0, "w": 2.0})
    with pytest.raises(ValueError, match="missing"):
        RunCounts.from_dict({"x": 1.0, "y": 1.0})
    roundtrip = RunCounts.from_dict(GOLDEN_RAW.to_dict())
    assert roundtrip == GOLDEN_RAW


def test_report_serialization_shape():
    d = compute_bell_statistics(GOLDEN_RAW).to_dict()
    assert set(d["statistics"]) == {"s_std", "s_chsh", "s_freedman"}
    assert d["statistics"]["s_std"]["limit"] == 2.0
    assert d["variant"] == "raw"
    assert d["visibility"] == pytest.approx((86.8 - 38.3) / (86.8 + 38.3))
