"""Emission-stream generation: arrival processes, hidden variable, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bellsim.source import (MAX_EMISSIONS_PER_CELL, EmissionConfig, EmissionStream,
                            generate_emissions)


def test_zero_duration_gives_empty_stream():
    cfg = EmissionConfig(mean_rate=1.0, duration=0.0)
    stream = generate_emissions(cfg, seed=0)
    assert stream.size == 0
    assert stream.lam.size == stream.b_delay.size == 0


@pytest.mark.parametrize("column", ["lam", "b_delay"])
def test_emission_stream_refuses_a_column_of_another_size(column):
    columns = {"t0": np.zeros(3), "lam": np.zeros(3), "b_delay": np.zeros(3), column: np.zeros(2)}
    with pytest.raises(ValueError, match=f"column '{column}' has size 2, expected 3"):
        EmissionStream(**columns)


def test_poisson_count_matches_rate():
    # expectation 1e5 events; 4 sigma of a Poisson count is ~1265
    cfg = EmissionConfig(mean_rate=1.0e4, duration=10.0)
    n = generate_emissions(cfg, seed=42).size
    assert abs(n - 1.0e5) < 4.0 * np.sqrt(1.0e5)


def test_poisson_gaps_look_exponential():
    cfg = EmissionConfig(mean_rate=1.0e4, duration=10.0)
    gaps = np.diff(generate_emissions(cfg, seed=3).t0)
    mean = gaps.mean()
    assert abs(mean - 1.0e5) < 4.0 * 1.0e5 / np.sqrt(gaps.size)  # mean gap 1e5 ns
    # exponential has coefficient of variation exactly 1
    assert abs(gaps.std() / mean - 1.0) < 0.02


def test_min_separation_respects_hard_core():
    cfg = EmissionConfig(mean_rate=1.0e6, duration=0.1, process="min_separation",
                         min_gap=200.0)
    t0 = generate_emissions(cfg, seed=1).t0
    assert t0.size > 0
    assert np.diff(t0).min() >= 200.0
    assert abs(t0.size / 0.1 - 1.0e6) < 0.02 * 1.0e6  # long-run rate preserved


def test_min_separation_zero_gap_matches_poisson_statistics():
    cfg = EmissionConfig(mean_rate=1.0e5, duration=1.0, process="min_separation",
                         min_gap=0.0)
    gaps = np.diff(generate_emissions(cfg, seed=9).t0)
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.02


def test_times_strictly_increase_and_fit_duration():
    for seed in (0, 1, 2):
        for process, gap in (("poisson", 0.0), ("min_separation", 300.0)):
            cfg = EmissionConfig(mean_rate=5.0e5, duration=0.01, process=process,
                                 min_gap=gap)
            t0 = generate_emissions(cfg, seed=seed).t0
            assert np.all(np.diff(t0) > 0.0)
            assert t0[0] > 0.0
            assert t0[-1] < 0.01 * 1.0e9


def test_lambda_uniform_on_half_circle():
    cfg = EmissionConfig(mean_rate=1.0e4, duration=10.0)
    lam = generate_emissions(cfg, seed=7).lam
    assert lam.min() >= 0.0
    assert lam.max() < np.pi
    counts, _ = np.histogram(lam, bins=20, range=(0.0, np.pi))
    chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
    assert stats.chi2.sf(chi2, df=19) > 1.0e-3


def test_fixed_hidden_variable():
    cfg = EmissionConfig(mean_rate=1.0e5, duration=0.01, hidden_variable="fixed",
                         fixed_angle=4.0)
    lam = generate_emissions(cfg, seed=0).lam
    assert np.all(lam == 4.0 % np.pi)


def test_b_delay_is_exponential_with_configured_lifetime():
    cfg = EmissionConfig(mean_rate=1.0e5, duration=1.0, cascade_lifetime_tau=5.0)
    b = generate_emissions(cfg, seed=11).b_delay
    assert b.min() >= 0.0
    assert abs(b.mean() - 5.0) < 5.0 * 5.0 / np.sqrt(b.size)
    assert abs(b.std() / b.mean() - 1.0) < 0.02


def test_zero_cascade_lifetime_gives_zero_b_delay():
    cfg = EmissionConfig(mean_rate=1.0e5, duration=0.01, cascade_lifetime_tau=0.0)
    b = generate_emissions(cfg, seed=5).b_delay
    assert b.size > 0
    assert np.all(b == 0.0) and not np.signbit(b).any()


def test_same_seed_reproduces_exactly():
    cfg = EmissionConfig(mean_rate=2.0e5, duration=0.01)
    s1 = generate_emissions(cfg, seed=123)
    s2 = generate_emissions(cfg, seed=123)
    s3 = generate_emissions(cfg, seed=124)
    assert np.array_equal(s1.t0, s2.t0)
    assert np.array_equal(s1.lam, s2.lam)
    assert np.array_equal(s1.b_delay, s2.b_delay)
    assert not np.array_equal(s1.t0, s3.t0)


@pytest.mark.parametrize("kwargs", [
    {"mean_rate": -1.0},
    {"mean_rate": 0.0},
    {"duration": -0.5},
    {"min_gap": -1.0},
    {"process": "burst"},
    {"hidden_variable": "gaussian"},
    {"cascade_lifetime_tau": -2.0},
    # hard core consumes the whole mean gap: no stationary process
    {"process": "min_separation", "mean_rate": 1.0e6, "min_gap": 1000.0},
    # booleans and numeric strings are not numbers
    {"mean_rate": True},
    {"duration": True},
    {"fixed_angle": False},
    {"mean_rate": "1e4"},
    # the run budget: duration * 1e9 ns must be finite, and a cell may
    # expect at most MAX_EMISSIONS_PER_CELL emissions
    {"duration": 1.0e300},
    {"mean_rate": 1.0e-300, "duration": 1.0e300},
    {"mean_rate": 2.0e7, "duration": 1.0 + 1.0e-9},
    {"mean_rate": 10**300, "duration": 10**300},
])
def test_invalid_configs_raise(kwargs):
    with pytest.raises(ValueError):
        EmissionConfig(**kwargs)


def test_emissions_cap_admits_a_cell_at_the_cap():
    # building the config draws nothing, so the cap itself is cheap to check
    cfg = EmissionConfig(mean_rate=MAX_EMISSIONS_PER_CELL / 4.0, duration=4.0)
    assert cfg.mean_rate * cfg.duration == MAX_EMISSIONS_PER_CELL


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       min_gap=st.floats(min_value=0.0, max_value=400.0),
       rate=st.floats(min_value=1.0e5, max_value=1.0e6))
def test_hard_core_property(seed, min_gap, rate):
    cfg = EmissionConfig(mean_rate=rate, duration=0.002, process="min_separation",
                         min_gap=min_gap)
    t0 = generate_emissions(cfg, seed=seed).t0
    if t0.size > 1:
        assert np.diff(t0).min() >= min_gap - 1.0e-9

