"""Detection chain: Malus transmission, efficiency, wave hazard, dead time."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.coincidence import _as_sorted_array
from bellsim.detection import (
    ABSENT,
    EFFICIENCY_FNS,
    MALUS_MARGIN,
    MALUS_MAX_REL,
    MAX_WAVE_HAZARD,
    DetectorConfig,
    PolariserSetting,
    _dead_time_keep_mask,
    _malus_transmitted,
    _particle_candidates,
    _skip_uniforms,
    _wave_candidates,
    simulate_side,
)
from bellsim.source import EmissionConfig, EmissionStream, generate_emissions

# independent quadrature oracles, frozen before the implementation:
# mean over uniform lambda of cos^2(lambda)            = 1/2
# mean over uniform lambda of cos^4(lambda)            = 3/8
# wave click probability at unit total hazard          = 1 - e^-1
HALVING_FRACTION = 0.5
COS4_FRACTION = 0.375
UNIT_HAZARD_CLICK_PROB = 0.6321205588285577


# a noiseless particle detector: every transmitted signal clicks, on time
EXACT = DetectorConfig(model="particle", eta0=1.0, jitter_sigma=0.0, dead_time=0.0)


def _fixed_stream(n: int, lam: float, t0: float = 100.0, b_delay: float = 0.0,
                  spacing: float = 1.0e3) -> EmissionStream:
    """n emissions spaced far apart, all with hidden angle lam."""
    return EmissionStream(t0=t0 + spacing * np.arange(n), lam=np.full(n, lam),
                          b_delay=np.full(n, b_delay))


def _uniform_stream(n_target: int, seed: int, tau: float = 5.0):
    rate = 1.0e5
    cfg = EmissionConfig(mean_rate=rate, duration=n_target / rate,
                         cascade_lifetime_tau=tau)
    return generate_emissions(cfg, seed=seed)


def test_quadrature_oracles_still_hold():
    lam = np.linspace(0.0, np.pi, 1 << 14, endpoint=False)
    assert abs(np.mean(np.cos(lam) ** 2) - HALVING_FRACTION) < 1.0e-12
    assert abs(np.mean(np.cos(lam) ** 4) - COS4_FRACTION) < 1.0e-12
    assert abs((1.0 - math.exp(-1.0)) - UNIT_HAZARD_CLICK_PROB) < 1.0e-15


@given(angle=st.floats(min_value=-10.0, max_value=10.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_transmit_aligned_always_passes(angle, seed):
    stream = _fixed_stream(50, angle)
    clicks = simulate_side(stream, "A", PolariserSetting(angle), EXACT, np.random.default_rng(seed))
    assert clicks.emission_index.tolist() == list(range(50))


@given(angle=st.floats(min_value=-10.0, max_value=10.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_transmit_crossed_never_passes(angle, seed):
    # cos^2 at a crossed setting is not an exact zero, only ~1e-32, so a
    # pass needs a uniform draw below that
    stream = _fixed_stream(50, angle + math.pi / 2.0)
    clicks = simulate_side(stream, "A", PolariserSetting(angle), EXACT, np.random.default_rng(seed))
    assert clicks.size == 0


@given(lam=st.floats(min_value=0.0, max_value=3.1),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_transmit_absent_always_passes(lam, seed):
    stream = _fixed_stream(50, lam)
    clicks = simulate_side(stream, "A", ABSENT, EXACT, np.random.default_rng(seed))
    assert clicks.emission_index.tolist() == list(range(50))


def test_transmit_halving_rate_over_uniform_lambda():
    stream = _uniform_stream(100_000, seed=10)
    n = stream.size
    setting = PolariserSetting(0.4)
    passed = simulate_side(stream, "A", setting, EXACT, np.random.default_rng(10)).size
    sigma = math.sqrt(HALVING_FRACTION * (1.0 - HALVING_FRACTION) / n)
    assert abs(passed / n - HALVING_FRACTION) < 3.0 * sigma


def test_detect_particle_zero_efficiency_never_clicks():
    cfg = DetectorConfig(model="particle", eta0=0.0, jitter_sigma=0.0, dead_time=0.0)
    stream = _fixed_stream(1000, 0.2)
    for side in ("A", "B"):
        assert simulate_side(stream, side, ABSENT, cfg, np.random.default_rng(0)).size == 0


def test_detect_particle_exact_times_without_noise():
    stream = _fixed_stream(1, 0.2, t0=100.0, b_delay=7.5)
    rng = np.random.default_rng(0)
    assert simulate_side(stream, "A", ABSENT, EXACT, rng).times.tolist() == [100.0]
    assert simulate_side(stream, "B", ABSENT, EXACT, rng).times.tolist() == [107.5]
    # insertion delay counts only when the polariser is in the beam
    inserted = PolariserSetting(0.2, insertion_delay=3.0)
    assert simulate_side(stream, "A", inserted, EXACT, rng).times.tolist() == [103.0]


def test_integer_efficiency_clicks_like_its_float():
    # JSON gives 1, not 1.0; times the default enhancement factor 1.0 it is a float
    stream = _uniform_stream(2_000, seed=12)
    integer, real = ([simulate_side(stream, "A", setting,
                                    DetectorConfig(eta0=eta0),
                                    np.random.default_rng(3))
                      for setting in (ABSENT, PolariserSetting(0.4))]
                     for eta0 in (1, 1.0))
    for got, want in zip(integer, real):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.emission_index, want.emission_index)


def test_cosine_modulated_acceptance_is_three_eighths():
    # transmission cos^2 times efficiency (1 - sin^2) = cos^4 on average
    stream = _uniform_stream(200_000, seed=21)
    cfg = DetectorConfig(model="particle", eta0=1.0, efficiency_fn="cosine_modulated",
                         modulation_depth=1.0, jitter_sigma=0.0, dead_time=0.0)
    clicks = simulate_side(stream, "A", PolariserSetting(0.9), cfg, np.random.default_rng(8))
    fraction = clicks.size / stream.size
    sigma = math.sqrt(COS4_FRACTION * (1.0 - COS4_FRACTION) / stream.size)
    assert abs(fraction - COS4_FRACTION) < 3.0 * sigma


def _reference_particle_candidates(stream, side, setting, config, rng):
    """The particle model as first written: every draw made and compared in float64."""
    n = stream.size
    if setting.present:
        rel = stream.lam - setting.angle
        transmitted = rng.random(n) < np.cos(rel) ** 2
        eta = config.eta0
        if config.efficiency_fn == "cosine_modulated":
            eta = eta * (1.0 - config.modulation_depth * np.sin(rel) ** 2)
        eta = eta * config.enhancement_factor
        ids = (transmitted & (rng.random(n) < eta)).nonzero()[0]
    else:
        ids = (rng.random(n) < config.eta0).nonzero()[0]
    jitter = rng.normal(0.0, config.jitter_sigma, n)
    times = stream.t0[ids] + setting.effective_delay
    if side == "B":
        times += stream.b_delay[ids]
    times += jitter[ids]
    return times, ids.astype(np.int64, copy=False)


def _pending_half_rng(seed):
    """A PCG64 generator holding a buffered 32-bit half, which advance() would drop."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, dtype=np.int32)
    return rng


GENERATORS = {
    "pcg64": np.random.default_rng,
    "pcg64-pending-half": _pending_half_rng,
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    # Philox's advance counts blocks of four outputs, not doubles
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
}
NEAR_ANGLES = st.one_of(st.floats(-1.0e-6, 1.0e-6), st.floats(math.pi - 1.0e-6, math.pi + 1.0e-6),
                        st.floats(0.0, math.pi))


@settings(deadline=None)
@given(n=st.integers(0, 2000),
       lam=st.sampled_from(["uniform", 0.0, math.pi / 4, math.pi / 2, math.pi - 1.0e-9]),
       angle=st.one_of(st.none(), NEAR_ANGLES),
       efficiency=st.sampled_from([(1.0, 1.0), (1, 1.0), (0.5, 1.0), (0.5, 2.0)]),
       efficiency_fn=st.sampled_from(EFFICIENCY_FNS),
       jitter_sigma=st.sampled_from([0.0, 1.3]),
       side=st.sampled_from(["A", "B"]),
       generator=st.sampled_from(sorted(GENERATORS)),
       seed=st.integers(0, 2**32 - 1))
def test_particle_candidates_match_the_float64_reference(n, lam, angle, efficiency, efficiency_fn,
                                                         jitter_sigma, side, generator, seed):
    source = np.random.default_rng(seed)
    stream = EmissionStream(
        t0=np.cumsum(source.exponential(5.0e3, n)),
        lam=source.uniform(0.0, np.pi, n) if lam == "uniform" else np.full(n, lam),
        b_delay=source.exponential(5.0, n))
    setting = ABSENT if angle is None else PolariserSetting(angle, insertion_delay=2.5)
    eta0, enhancement = efficiency
    config = DetectorConfig(eta0=eta0, enhancement_factor=enhancement, efficiency_fn=efficiency_fn,
                            modulation_depth=0.3, jitter_sigma=jitter_sigma)
    got_rng, want_rng = GENERATORS[generator](seed), GENERATORS[generator](seed)
    got = _particle_candidates(stream, side, setting, config, got_rng)
    want = _reference_particle_candidates(stream, side, setting, config, want_rng)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


def _draws_around_cos2(rel):
    """u exactly at cos(rel)**2, one ulp either side, and 1e-7 to 2e-5 away."""
    c2 = np.cos(rel) ** 2
    offsets = np.logspace(-7.0, math.log10(2.0e-5), 9)
    u = [c2, np.nextafter(c2, np.inf), np.nextafter(c2, -np.inf)]
    u += [c2 + sign * d for d in offsets for sign in (1.0, -1.0)]
    return np.concatenate(u), np.tile(rel, len(u))


def test_malus_pretest_decides_like_float64_at_the_boundary():
    eps = 1.0e-9
    rel = np.concatenate([[0.0, math.pi / 4, math.pi / 2, math.pi - eps, np.nextafter(math.pi, 0.0)],
                          np.linspace(0.0, math.pi, 257)[1:-1]])
    u, rel = _draws_around_cos2(np.concatenate([rel, -rel]))
    want = u < np.cos(rel) ** 2
    assert np.array_equal(_malus_transmitted(u, rel), want)
    # the float32 comparison alone decides some of these wrongly, so the
    # float64 recomputation within the margin ran and set them right
    c2 = np.cos(rel.astype(np.float32)).astype(np.float64) ** 2
    assert ((u < c2) != want).any()
    assert (np.abs(u - c2) <= MALUS_MARGIN).any()


def test_malus_pretest_leaves_large_angle_differences_to_float64():
    # a hand-built stream may hold any lam; far out, float32 rounding of rel
    # alone moves cos^2 by more than the margin
    rel = 1.0e6 + np.linspace(0.0, math.pi, 101)
    assert np.abs(rel).min() > MALUS_MAX_REL
    c2 = np.cos(rel) ** 2
    u = np.concatenate([c2 + 1.0e-3, c2 - 1.0e-3])
    rel = np.tile(rel, 2)
    want = u < np.cos(rel) ** 2
    assert np.array_equal(_malus_transmitted(u, rel), want)
    assert ((u < np.cos(rel.astype(np.float32)).astype(np.float64) ** 2) != want).any()


@pytest.mark.parametrize("n", [0, 1, 7, 50_000])
def test_skipped_uniforms_leave_the_state_of_drawn_ones(n):
    drawn, advanced = np.random.default_rng(5), np.random.default_rng(5)
    drawn.random(n)
    advanced.bit_generator.advance(n)
    np.testing.assert_equal(advanced.bit_generator.state, drawn.bit_generator.state)
    for make in GENERATORS.values():
        drawn, skipped = make(5), make(5)
        drawn.random(n)
        _skip_uniforms(skipped, n)
        np.testing.assert_equal(skipped.bit_generator.state, drawn.bit_generator.state)


def test_wave_zero_gain_never_clicks():
    cfg = DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=0.0,
                         allow_multiple_detections=True)
    stream = _fixed_stream(1000, 0.1)
    for setting in (ABSENT, PolariserSetting(0.1)):
        assert simulate_side(stream, "A", setting, cfg, np.random.default_rng(0)).size == 0


def test_wave_unit_hazard_click_probability():
    stream = _uniform_stream(100_000, seed=31)
    cfg = DetectorConfig(model="wave", wave_decay_tau=2.0, wave_gain=0.5,  # total hazard 1
                         jitter_sigma=0.0, dead_time=0.0)
    clicks = simulate_side(stream, "A", ABSENT, cfg, np.random.default_rng(4))
    p = clicks.size / stream.size
    sigma = math.sqrt(UNIT_HAZARD_CLICK_PROB * (1.0 - UNIT_HAZARD_CLICK_PROB) / stream.size)
    assert abs(p - UNIT_HAZARD_CLICK_PROB) < 3.0 * sigma


def _wave_relative_times(attenuation: float, seed: int, n: int = 150_000):
    """Click times relative to emission, with intensity scaled by attenuation."""
    rate = 1.0e5
    cfg_src = EmissionConfig(mean_rate=rate, duration=n / rate, hidden_variable="fixed",
                             fixed_angle=0.0)
    stream = generate_emissions(cfg_src, seed=seed)
    det = DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=0.4,
                         jitter_sigma=0.0, dead_time=0.0)
    # a polariser at angle arccos(sqrt(attenuation)) from the fixed lambda
    # scales the envelope by exactly `attenuation`
    if attenuation >= 1.0:
        setting = ABSENT
    else:
        setting = PolariserSetting(math.acos(math.sqrt(attenuation)))
    clicks = simulate_side(stream, "A", setting, det, np.random.default_rng(seed + 1))
    return clicks.times - stream.t0[clicks.emission_index], stream.size


def test_wave_attenuation_lowers_probability_and_delays_clicks():
    full, n = _wave_relative_times(1.0, seed=50)
    half, _ = _wave_relative_times(0.5, seed=50)
    # fewer clicks when attenuated
    assert half.size < full.size - 3.0 * math.sqrt(full.size)
    # conditional click times are stochastically later: the attenuated CDF
    # sits below the full one everywhere (checked on a grid, with room for
    # binomial noise), and the median moves strictly later
    grid = np.linspace(0.1, 20.0, 40)
    cdf_full = np.searchsorted(np.sort(full), grid) / full.size
    cdf_half = np.searchsorted(np.sort(half), grid) / half.size
    assert np.all(cdf_half <= cdf_full + 0.01)
    assert np.median(half) > np.median(full) + 0.1


@pytest.mark.parametrize("multiple", [False, True])
def test_wave_model_ignores_the_cascade_delay(multiple):
    stream = _uniform_stream(5_000, seed=71)
    assert np.any(stream.b_delay > 0.0)
    zeroed = EmissionStream(t0=stream.t0, lam=stream.lam, b_delay=np.zeros(stream.size))
    cfg = DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=1.0, dead_time=1.0,
                         allow_multiple_detections=multiple)
    for side, setting in (("A", ABSENT), ("B", PolariserSetting(0.3))):
        got = simulate_side(stream, side, setting, cfg, np.random.default_rng(9))
        want = simulate_side(zeroed, side, setting, cfg, np.random.default_rng(9))
        assert got.size > 0
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.emission_index, want.emission_index)


def test_multi_click_wave_detector_over_the_hazard_cap_is_refused():
    # the cap is on the detector config, so simulate_side cannot be handed one
    base = dict(model="wave", wave_decay_tau=1.0, allow_multiple_detections=True)
    DetectorConfig(**base, wave_gain=float(MAX_WAVE_HAZARD))
    with pytest.raises(ValueError, match="hazard units, over the cap"):
        DetectorConfig(**base, wave_gain=1.0e5)
    with pytest.raises(ValueError, match="hazard units, over the cap"):
        DetectorConfig(**{**base, "wave_decay_tau": 2.0}, wave_gain=600.0)
    # one click per emission at most, or another model: no cap
    DetectorConfig(**{**base, "allow_multiple_detections": False}, wave_gain=1.0e5)
    DetectorConfig(**{**base, "model": "particle"}, wave_gain=1.0e5)


def test_wave_multiple_detections():
    stream = _uniform_stream(20_000, seed=61)
    base = dict(model="wave", wave_decay_tau=5.0, wave_gain=1.0, jitter_sigma=0.0,
                dead_time=1.0)
    single = DetectorConfig(**base)
    multi = DetectorConfig(**base, allow_multiple_detections=True)
    clicks_single = simulate_side(stream, "A", ABSENT, single, np.random.default_rng(3))
    clicks_multi = simulate_side(stream, "A", ABSENT, multi, np.random.default_rng(3))
    per_emission_single = np.bincount(clicks_single.emission_index, minlength=stream.size)
    per_emission_multi = np.bincount(clicks_multi.emission_index, minlength=stream.size)
    assert per_emission_single.max() == 1
    assert per_emission_multi.max() > 1
    assert clicks_multi.size > clicks_single.size


def test_detect_wave_scalar_multiple_clicks_respect_dead_time():
    # the raw candidates, before simulate_side's dead-time thinning, which
    # would enforce the gap whatever the candidates were
    cfg = DetectorConfig(model="wave", wave_decay_tau=50.0, wave_gain=2.0,
                         jitter_sigma=0.0, dead_time=4.0, allow_multiple_detections=True)
    stream = _fixed_stream(200, 0.0, t0=1.0e5, spacing=1.0e5)
    times, ids = _wave_candidates(stream, ABSENT, cfg, np.random.default_rng(12))
    assert np.all(times >= stream.t0[ids])
    order = np.lexsort((times, ids))
    times, ids = times[order], ids[order]
    same_emission = ids[1:] == ids[:-1]
    assert same_emission.sum() > 200  # most emissions click more than once
    assert np.all(np.diff(times)[same_emission] >= 4.0)


def _apply_dead_time(times, dead: float) -> np.ndarray:
    """The dead-time thinning simulate_side applies, over a checked click-time array."""
    t = _as_sorted_array(times, "click times")
    return t[_dead_time_keep_mask(t, dead)]


def test_apply_dead_time_trivial_cases():
    assert _apply_dead_time([0.0, 5.0, 20.0], 16.0).tolist() == [0.0, 20.0]
    assert _apply_dead_time([0.0, 5.0, 20.0], 0.0).tolist() == [0.0, 5.0, 20.0]
    assert _apply_dead_time([], 16.0).tolist() == []


def test_apply_dead_time_rejects_unsorted():
    with pytest.raises(ValueError, match="time-sorted"):
        _apply_dead_time([5.0, 1.0], 16.0)


def _reference_dead_time(times, dead):
    kept = []
    for t in times:
        if not kept or t - kept[-1] >= dead:
            kept.append(t)
    return kept


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=60),
       dead=st.floats(min_value=0.0, max_value=30.0))
def test_apply_dead_time_matches_reference(times, dead):
    times = sorted(times)
    assert _apply_dead_time(times, dead).tolist() == _reference_dead_time(times, dead)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(min_value=0, max_value=20), max_size=60),
       base=st.sampled_from([0.0, 12345.6, 68176891.7]),
       dead=st.sampled_from([0.3, 1.7]))
# one run whose members all jump to its end click at 2.0, then a last run
# that ends the array, whose jumps leave for the sink
@example(gaps=[0, 1, 1, 1, 17, 1, 1, 1, 1], base=0.0, dead=1.7)
# the members of the first run jump to the first member of the next run
@example(gaps=[0, 1, 1, 17, 1, 1, 5, 5, 5, 5], base=0.0, dead=1.7)
@example(gaps=[0, 1, 1, 1, 3, 0, 1, 2, 1, 1], base=0.0, dead=0.3)
def test_apply_dead_time_matches_reference_at_ties(gaps, base, dead):
    # clicks on a 0.1 ns grid, where gaps tie with the dead time or round
    # to either side of it; each click's next kept click lies in its run or
    # is the click that ends the run
    times = (np.cumsum(gaps, dtype=float) / 10.0 + base).tolist()
    assert _apply_dead_time(times, dead).tolist() == _reference_dead_time(times, dead)


# DetectorConfig refuses a non-finite dead time itself
@pytest.mark.parametrize("times, dead", [([0.0, math.nan, 20.0], 16.0),
                                         ([0.0, 5.0, math.inf], 16.0)])
def test_apply_dead_time_rejects_non_finite(times, dead):
    with pytest.raises(ValueError, match="finite"):
        _apply_dead_time(times, dead)


def test_dead_time_output_never_violates_gap():
    rng = np.random.default_rng(77)
    times = np.sort(rng.uniform(0.0, 2.0e5, 40_000))  # dense: mean gap 5 ns
    out = _apply_dead_time(times, 16.0)
    # runs of dozens of clicks: clicks deep inside a run are rescued too
    assert out.tolist() == _reference_dead_time(times.tolist(), 16.0)
    assert out.size > 0
    assert np.diff(out).min() >= 16.0


def test_halving_condition_on_singles():
    stream = _uniform_stream(200_000, seed=71)
    cfg = DetectorConfig(model="particle", eta0=0.9, jitter_sigma=0.0, dead_time=0.0)
    with_pol = simulate_side(stream, "A", PolariserSetting(1.1), cfg, np.random.default_rng(1))
    without = simulate_side(stream, "A", ABSENT, cfg, np.random.default_rng(2))
    ratio = with_pol.size / without.size
    sigma = math.sqrt(0.5 * (1.0 - 0.5) / (0.9 * stream.size)) * 2.0
    assert abs(ratio - 0.5) < 3.0 * sigma


def test_enhancement_factor_raises_present_efficiency():
    # eta0 0.4 with enhancement 2: mean efficiency with polariser is
    # E[0.8 cos^2] = 0.4 = eta0, so singles match the no-polariser rate
    stream = _uniform_stream(200_000, seed=81)
    cfg = DetectorConfig(model="particle", eta0=0.4, enhancement_factor=2.0,
                         jitter_sigma=0.0, dead_time=0.0)
    with_pol = simulate_side(stream, "A", PolariserSetting(0.3), cfg, np.random.default_rng(1))
    without = simulate_side(stream, "A", ABSENT, cfg, np.random.default_rng(2))
    assert abs(with_pol.size / without.size - 1.0) < 0.02


def test_rotational_invariance_of_singles():
    # with uniform lambda only the relative angle matters
    stream = _uniform_stream(150_000, seed=91)
    cfg = DetectorConfig(model="particle", eta0=1.0, efficiency_fn="cosine_modulated",
                         modulation_depth=0.7, jitter_sigma=0.0, dead_time=0.0)
    for theta in (0.7, 2.1):
        at_zero = simulate_side(stream, "A", PolariserSetting(0.0), cfg, np.random.default_rng(5))
        rotated = simulate_side(stream, "A", PolariserSetting(theta), cfg, np.random.default_rng(6))
        diff = abs(at_zero.size - rotated.size)
        assert diff < 4.0 * math.sqrt(at_zero.size + rotated.size)


def test_click_times_never_precede_emission_without_jitter():
    stream = _uniform_stream(50_000, seed=95)
    for model_cfg in (
        DetectorConfig(model="particle", eta0=1.0, jitter_sigma=0.0, dead_time=0.0),
        DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=2.0,
                       jitter_sigma=0.0, dead_time=0.0),
    ):
        for side in ("A", "B"):
            clicks = simulate_side(stream, side, ABSENT, model_cfg, np.random.default_rng(9))
            assert np.all(clicks.times - stream.t0[clicks.emission_index] >= 0.0)


def test_simulate_side_output_is_sorted_and_sparse():
    stream = _uniform_stream(100_000, seed=99)
    cfg = DetectorConfig(model="particle", eta0=1.0, jitter_sigma=1.0, dead_time=16.0)
    clicks = simulate_side(stream, "B", ABSENT, cfg, np.random.default_rng(2))
    gaps = np.diff(clicks.times)
    assert np.all(gaps >= 0.0)
    assert gaps.min() >= 16.0


@pytest.mark.parametrize("kwargs", [
    {"eta0": 1.2},
    {"eta0": -0.1},
    {"eta0": 0.8, "enhancement_factor": 1.5},  # product exceeds 1
    {"enhancement_factor": 0.5},
    {"modulation_depth": 1.5},
    {"jitter_sigma": -1.0},
    {"dead_time": -1.0},
    {"model": "wave", "wave_decay_tau": 0.0},
    {"model": "wave", "wave_gain": -0.5},
    {"model": "photon"},
    {"efficiency_fn": "linear"},
    {"jitter_sigma": math.nan},
    {"jitter_sigma": math.inf},
    {"dead_time": math.nan},
    {"dead_time": math.inf},
    {"enhancement_factor": math.nan},
    {"model": "wave", "wave_gain": math.nan},
    {"eta0": True},
    {"dead_time": False},
    {"model": "wave", "wave_gain": True},
    {"jitter_sigma": "1.0"},
])
def test_invalid_detector_configs_raise(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


def test_polariser_angle_normalized():
    assert PolariserSetting(math.pi + 0.25).angle == pytest.approx(0.25)
    assert PolariserSetting().present is False
    with pytest.raises(ValueError):
        PolariserSetting(angle=0.1, insertion_delay=-1.0)
