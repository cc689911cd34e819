"""A whole cell against a plain-Python reference of it.

The reference makes the seed policy's array draws through derive_rngs, in
the documented order and sizes, and does everything after the draws per
emission and per click over lists: no vectorized code of bellsim's runs in
it. Hypothesis draws small, dense scenarios that reach the branches no
preset takes, and every ConfigurationResult field of _run_cell must equal
the reference's.
"""

import bisect
import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.coincidence import WindowConfig
from bellsim.detection import DetectorConfig
from bellsim.harness import CONFIG_KEYS, ScenarioConfig, _run_cell, derive_rngs
from bellsim.source import EmissionConfig

NS = 1.0e9


def _emissions(e, rng):
    """(t0, lam, b_delay) lists: renewal blocks of exponential gaps, then lam, then b_delay."""
    duration_ns = e.duration * NS
    mean_gap = NS / e.mean_rate
    hard_gap = e.min_gap if e.process == "min_separation" else 0.0
    scale = mean_gap - hard_gap
    expected = duration_ns / (hard_gap + scale)
    chunk = int(expected + 10.0 * math.sqrt(expected + 1.0)) + 16
    t0, t_end = [], 0.0
    while t_end < duration_ns:
        running = 0.0
        for gap in rng.exponential(scale, chunk).tolist():
            running += gap + hard_gap
            t0.append(t_end + running)  # a block starts at the last one's end
        t_end = t0[-1]
    t0 = [t for t in t0 if t < duration_ns]
    n = len(t0)
    if e.hidden_variable == "uniform":
        lam = rng.uniform(0.0, np.pi, n).tolist()
    else:
        lam = [e.fixed_angle % math.pi] * n
    return t0, lam, rng.exponential(e.cascade_lifetime_tau, n).tolist()


def _particle(t0, lam, b_delay, side, angle, delay, d, rng):
    n = len(t0)
    malus = rng.random(n).tolist() if angle is not None else [0.0] * n
    efficiency = rng.random(n).tolist()
    z = rng.standard_normal(n).tolist()
    clicks = []
    for i in range(n):
        eta = d.eta0
        if angle is not None:
            rel = lam[i] - angle
            if not malus[i] < float(np.cos(rel)) ** 2:
                continue
            if d.efficiency_fn == "cosine_modulated":
                eta = eta * (1.0 - d.modulation_depth * float(np.sin(rel)) ** 2)
            eta = eta * d.enhancement_factor
        if not efficiency[i] < eta:
            continue
        t = t0[i] + delay
        if side == "B":
            t = t + b_delay[i]
        clicks.append((t + d.jitter_sigma * z[i], i))
    return clicks


def _wave(t0, lam, angle, delay, d, rng):
    """Re-hit rounds: each draws one exponential per live emission, then one normal per hit."""
    tau = d.wave_decay_tau
    total = [d.wave_gain * (float(np.cos(l - angle)) ** 2 if angle is not None else 1.0) * tau
             for l in lam]
    live = [(i, 1.0, total[i]) for i in range(len(t0))]  # (emission, survival, budget)
    clicks = []
    while live:
        eps = rng.standard_exponential(len(live)).tolist()
        hits = []
        for (i, survival, budget), x in zip(live, eps):
            if x < budget:
                survival = survival - x / total[i]
                hits.append((i, survival, -tau * float(np.log(survival))))
        if not hits:
            break
        jitter = rng.normal(0.0, d.jitter_sigma, len(hits)).tolist()
        clicks += [((t0[i] + delay) + offset + j, i) for (i, _, offset), j in zip(hits, jitter)]
        if not d.allow_multiple_detections:
            break
        live = []
        for i, _, offset in hits:
            survival = float(np.exp(-(offset + d.dead_time) / tau))
            live.append((i, survival, total[i] * survival))
    return clicks


def _side(emissions, side, angle, delay, d, rng):
    """Kept (times, ids): candidates, a stable sort by time, then the greedy dead-time scan."""
    t0, lam, b_delay = emissions
    if d.model == "particle":
        clicks = _particle(t0, lam, b_delay, side, angle, delay, d, rng)
    else:
        clicks = _wave(t0, lam, angle, delay, d, rng)
    times, ids, last = [], [], -math.inf
    for t, i in sorted(clicks, key=lambda click: click[0]):
        if t - last >= d.dead_time:
            times.append(t)
            ids.append(i)
            last = t
    return times, ids


def _edges(w, spectrum_range):
    if spectrum_range is None:
        lo = math.floor(w.window_lo - 5.0 * w.span - 10.0)
        hi = math.ceil(w.window_hi + 5.0 * w.span + 10.0)
        n = math.ceil((hi - lo) / w.bin_width)
    else:
        lo, hi = spectrum_range
        n = round((hi - lo) / w.bin_width)
    return [lo + w.bin_width * k for k in range(n + 1)]


def _one_use(a, b, lo, hi):
    """Two pointers: each A click in time order takes the first B index past the last taken."""
    first, taken, count = 0, -1, 0
    for t in a:
        while first < len(b) and b[first] - t < lo:
            first += 1
        j = max(first, taken + 1)
        if j < len(b) and b[j] - t <= hi:
            count += 1
            taken = j
    return count


def _reference_cell(s, config_index, repeat, key):
    rng_em, rng_a, rng_b = derive_rngs(s.seed, config_index, repeat)
    relative = {"x": s.relative_angle_x, "y": s.relative_angle_y}
    angle_a = s.analyzer_a % math.pi if key != "Z" else None
    angle_b = (s.analyzer_a + relative[key]) % math.pi if key in relative else None
    emissions = _emissions(s.emission, rng_em)
    a, ids_a = _side(emissions, "A", angle_a,
                     s.insertion_delay_a if angle_a is not None else 0.0, s.detector_a, rng_a)
    b, ids_b = _side(emissions, "B", angle_b,
                     s.insertion_delay_b if angle_b is not None else 0.0, s.detector_b, rng_b)
    w = s.window
    b = [t + w.channel_delay for t in b]
    edges = _edges(w, s.spectrum_range)
    counts = [0] * (len(edges) - 1)
    same = different = 0
    # every pairing: bin i holds edges[i] <= d < edges[i + 1], and the last
    # bin is closed, as in np.histogram. The bisect only skips pairings
    # outside both the edges and the window; the differences decide
    lowest, highest = edges[0], max(edges[-1], w.window_hi)
    for i, t in enumerate(a):
        j = bisect.bisect_left(b, t + lowest)
        while j > 0 and b[j - 1] - t >= lowest:
            j -= 1
        while j < len(b) and b[j] - t <= highest:
            d = b[j] - t
            if edges[0] <= d <= edges[-1]:
                counts[min(bisect.bisect_right(edges, d), len(edges) - 1) - 1] += 1
            if w.window_lo <= d <= w.window_hi:
                if ids_a[i] == ids_b[j]:
                    same += 1
                else:
                    different += 1
            j += 1
    first_a, first_b = {}, {}
    for t, e in zip(a, ids_a):
        first_a.setdefault(e, t)
    for t, e in zip(b, ids_b):
        first_b.setdefault(e, t)
    both = first_a.keys() & first_b.keys()
    duration = s.emission.duration
    return dict(
        key=key, angle_a=angle_a, angle_b=angle_b,
        raw_count=_one_use(a, b, w.window_lo, w.window_hi),
        acc_delayed=_one_use(a, b, w.window_lo - w.accidental_offset,
                             w.window_hi - w.accidental_offset),
        acc_product=len(a) * len(b) * w.span / (duration * NS) if duration > 0.0 else 0.0,
        singles_a=len(a), singles_b=len(b),
        true_pairs=same, accidental_pairs=different,
        inclusion_inside=sum(w.window_lo <= first_b[e] - first_a[e] <= w.window_hi for e in both),
        inclusion_total=len(both),
        spectrum=(edges, counts),
    )


@st.composite
def _scenarios(draw):
    model = draw(st.sampled_from(["particle", "wave"]))
    process = draw(st.sampled_from(["poisson", "min_separation"]))
    mean_rate = draw(st.sampled_from([2.0e7, 5.0e7, 1.0e8]))
    emission = EmissionConfig(
        mean_rate=mean_rate,
        duration=draw(st.sampled_from([2.0e-6, 4.0e-6, 0.0])),
        process=process,
        min_gap=draw(st.floats(0.0, 0.8)) * 1.0e9 / mean_rate if process != "poisson" else 0.0,
        cascade_lifetime_tau=draw(st.sampled_from([0.0, 5.0])),
        hidden_variable=draw(st.sampled_from(["uniform", "fixed"])),
        fixed_angle=draw(st.floats(-4.0, 4.0)),
    )

    def detector():
        eta0 = draw(st.floats(0.3, 1.0))
        return DetectorConfig(
            model=model, eta0=eta0,
            efficiency_fn=draw(st.sampled_from(["constant", "cosine_modulated"])),
            modulation_depth=draw(st.floats(0.0, 1.0)),
            enhancement_factor=draw(st.floats(1.0, max(1.0, 0.999 / eta0))),
            jitter_sigma=draw(st.sampled_from([0.0, 1.0, 3.5])),
            dead_time=draw(st.sampled_from([0.0, 6.0, 16.0, 40.0])),
            wave_decay_tau=draw(st.sampled_from([0.5, 5.0])),
            wave_gain=draw(st.sampled_from([0.3, 1.0])),
            allow_multiple_detections=draw(st.booleans()))

    detector_a, detector_b = detector(), detector()
    lo = draw(st.floats(-10.0, 2.0))
    hi = lo + draw(st.floats(1.0, 25.0))
    bin_width = draw(st.sampled_from([1.0, 0.25, 0.5, 1.5]))
    spectrum_range = None
    if draw(st.booleans()):
        start = math.floor(lo) - draw(st.integers(0, 30))
        spectrum_range = (start, start + bin_width * math.ceil((hi - start) / bin_width + 3))
    window = WindowConfig(channel_delay=draw(st.floats(-8.0, 8.0)), window_lo=lo, window_hi=hi,
                          bin_width=bin_width,
                          accidental_offset=(hi - lo) * draw(st.floats(2.0, 12.0)))
    return ScenarioConfig(
        emission=emission, detector_a=detector_a, detector_b=detector_b, window=window,
        analyzer_a=draw(st.floats(-4.0, 4.0)),
        relative_angle_x=draw(st.floats(-2.0, 2.0)),
        relative_angle_y=draw(st.floats(-2.0, 2.0)),
        insertion_delay_a=draw(st.sampled_from([0.0, 2.5, 12.0])),
        insertion_delay_b=draw(st.sampled_from([0.0, 0.75])),
        seed=draw(st.integers(0, 2**40)),
        spectrum_range=spectrum_range)


def _branch_scenarios():
    """One scenario per family of branches, so that each runs whatever hypothesis draws."""
    particle = DetectorConfig(eta0=0.6, efficiency_fn="cosine_modulated", modulation_depth=0.7,
                              enhancement_factor=1.5, jitter_sigma=1.0, dead_time=16.0)
    wave = DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=0.6, jitter_sigma=1.0,
                          dead_time=4.0, allow_multiple_detections=True)
    # freedman-like's window, whose offset window lies outside the range; bin 0.25 ns
    narrow = WindowConfig(channel_delay=3.0, window_lo=-2.0, window_hi=6.0, bin_width=0.25)
    return [
        ScenarioConfig(
            emission=EmissionConfig(mean_rate=3.0e7, duration=3.0e-6, process="min_separation",
                                    min_gap=20.0, hidden_variable="fixed", fixed_angle=2.0),
            detector_a=particle, detector_b=particle, window=narrow,
            insertion_delay_a=12.0, insertion_delay_b=0.75, spectrum_range=(-20.0, 30.0)),
        ScenarioConfig(emission=EmissionConfig(mean_rate=2.0e7, duration=2.0e-6),
                       detector_a=wave, detector_b=dataclasses.replace(wave, wave_gain=1.0),
                       window=dataclasses.replace(narrow, bin_width=1.5),
                       insertion_delay_a=2.5, seed=7),
        ScenarioConfig(emission=EmissionConfig(duration=0.0), seed=3),
    ]


BRANCHES = _branch_scenarios()


@settings(max_examples=150, deadline=None)
@given(s=_scenarios(), key=st.sampled_from(CONFIG_KEYS), repeat=st.integers(0, 2))
@example(s=BRANCHES[0], key="x", repeat=0)
@example(s=BRANCHES[0], key="y", repeat=1)
@example(s=BRANCHES[1], key="x", repeat=0)
@example(s=BRANCHES[1], key="Z", repeat=2)
@example(s=BRANCHES[2], key="y", repeat=0)
def test_a_cell_equals_its_plain_python_reference(s, key, repeat):
    config_index = CONFIG_KEYS.index(key)
    got = _run_cell(s, config_index, repeat, key)
    want = _reference_cell(s, config_index, repeat, key)
    edges, counts = want.pop("spectrum")
    assert {name: getattr(got, name) for name in want} == want
    assert got.spectrum.bin_edges.tolist() == edges
    assert got.spectrum.counts.tolist() == counts
    assert {f.name for f in dataclasses.fields(got)} == {*want, "spectrum"}
