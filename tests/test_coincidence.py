"""Coincidence counting, spectra, accidental estimators."""

import bisect
import dataclasses
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import bellsim.coincidence
from bellsim import harness
from bellsim.coincidence import (
    MAX_SPECTRUM_BINS,
    CellPairs,
    CoincidenceSpectrum,
    WindowConfig,
    build_spectrum,
    cell_pairs,
    classify_pairs_by_origin,
    count_coincidences,
    estimate_accidentals_delayed,
    estimate_accidentals_product,
    searchsorted_by_difference,
    spectrum_bin_edges,
)
from bellsim.detection import ABSENT, DetectorConfig, simulate_side
from bellsim.harness import CONFIG_KEYS, run_configuration
from bellsim.presets import PRESETS
from bellsim.source import EmissionConfig, generate_emissions

W = WindowConfig()  # delay 0, window [-3, 17], bin 1, offset 100


def _poisson_clicks(rng, rate_per_s: float, duration_s: float) -> np.ndarray:
    n = rng.poisson(rate_per_s * duration_s)
    return np.sort(rng.uniform(0.0, duration_s * 1.0e9, n))


def _cell(a, b, w=W, spectrum_range=None):
    """cell_pairs where the emission ids do not matter: every click is emission 0."""
    return cell_pairs(a, b, np.zeros(np.size(a), dtype=np.int64),
                      np.zeros(np.size(b), dtype=np.int64), w, spectrum_range)


def _count(a, b, w=W) -> int:
    return count_coincidences(_cell(a, b, w))


def _all_pairs(pairs) -> int:
    # every pairing in the window, reuse allowed: the sum of the ground-truth split
    return sum(classify_pairs_by_origin(pairs))


def _window_integral(spectrum, lo: float, hi: float) -> int:
    # counts of the bins from edge lo up to edge hi; both must be edges
    i0, i1 = np.searchsorted(spectrum.bin_edges, [lo, hi])
    assert spectrum.bin_edges[i0] == lo and spectrum.bin_edges[i1] == hi
    return int(spectrum.counts[i0:i1].sum())


def test_count_trivial_containment():
    assert _count([0.0], [5.0]) == 1
    assert _count([0.0], [20.0]) == 0
    # window is closed on both ends
    assert _count([0.0], [17.0]) == 1
    assert _count([0.0], [-3.0]) == 1
    assert _count([0.0], [17.0001]) == 0


def test_count_uses_channel_delay():
    w = dataclasses.replace(W, channel_delay=-100.0)
    assert _count([0.0], [105.0], w) == 1
    assert _count([0.0], [5.0], w) == 0


def test_count_rejects_unsorted():
    with pytest.raises(ValueError):
        _cell([5.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        _cell([0.0], [5.0, 1.0])
    with pytest.raises(ValueError, match="times_b must be one-dimensional"):
        _cell([0.0], [[0.0, 1.0]])


def _reference_one_use_count(a, b, lo, hi):
    # independent greedy matcher: for each A in order, take the earliest
    # unused B whose difference lies in [lo, hi]. The bisect is only a
    # speedup; t + lo rounds, so the difference comparison is the gate.
    used = [False] * len(b)
    matched = 0
    for t in a:
        k = bisect.bisect_left(b, t + lo)
        while k > 0 and b[k - 1] - t >= lo:
            k -= 1
        while k < len(b) and b[k] - t <= hi:
            if not used[k] and b[k] - t >= lo:
                used[k] = True
                matched += 1
                break
            k += 1
    return matched


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=40),
       b=st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=40),
       lo=st.floats(min_value=-30.0, max_value=10.0),
       span=st.floats(min_value=0.1, max_value=40.0))
def test_count_matches_reference_matcher(a, b, lo, span):
    a, b = sorted(a), sorted(b)
    w = WindowConfig(window_lo=lo, window_hi=lo + span, accidental_offset=1.0e6)
    assert _count(a, b, w) == _reference_one_use_count(a, b, lo, lo + span)


def test_count_matches_reference_on_poisson_streams():
    rng = np.random.default_rng(17)
    a = _poisson_clicks(rng, 1.0e4, 1.0)  # ~1e4 clicks/side
    b = _poisson_clicks(rng, 1.0e4, 1.0)
    got = _count(a, b)
    assert got == _reference_one_use_count(a.tolist(), b.tolist(), W.window_lo, W.window_hi)
    assert got > 0


def test_count_matches_reference_in_dense_regime():
    # ~10 B clicks per window span: almost every A range overlaps the one
    # before it, so nearly all clicks sit in long conflict chains
    rng = np.random.default_rng(41)
    a = np.sort(rng.uniform(0.0, 8000.0, 4000))
    b = np.sort(rng.uniform(0.0, 8000.0, 4000))
    for w in (W, WindowConfig(window_lo=-2.7, window_hi=17.3)):
        got = _count(a, b, w)
        assert got == _reference_one_use_count(a.tolist(), b.tolist(),
                                               w.window_lo, w.window_hi)
        assert got > 3000


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.floats(min_value=1.0e7, max_value=1.0e8), min_size=1, max_size=30),
       picks=st.lists(st.integers(min_value=0, max_value=29), max_size=30),
       lo=st.sampled_from([-2.7, -3.3, -0.1, 0.7]),
       span=st.sampled_from([19.3, 20.0, 0.9]))
def test_count_and_pairs_gate_on_the_difference_at_rounded_edges(a, picks, lo, span):
    # B clicks sit exactly at fl(a + lo) and fl(a + hi), where the rounded
    # sum and the difference b - a can disagree about the window edge
    a = sorted(a)
    hi = lo + span
    chosen = [a[i % len(a)] for i in picks]
    b = sorted([t + lo for t in chosen] + [t + hi for t in chosen])
    w = WindowConfig(window_lo=lo, window_hi=hi, accidental_offset=1.0e6)
    pairs = _cell(a, b, w)
    one_use = count_coincidences(pairs)
    assert one_use == _reference_one_use_count(a, b, lo, hi)
    all_pairs = sum(lo <= tb - ta <= hi for ta in a for tb in b)
    assert _all_pairs(pairs) == all_pairs
    assert one_use <= all_pairs


@pytest.mark.parametrize("a", [68176891.72720371, 22974365.14476704])
def test_pair_consumers_share_the_counter_window_gate(a):
    # fl(a - 2.7) - a < -2.7 for the first time and fl(a + 17.3) - a > 17.3
    # for the second: the B click is outside the window by the difference
    # that the one-use counter tests
    w = WindowConfig(window_lo=-2.7, window_hi=17.3)
    for b in (a + w.window_lo, a + w.window_hi):
        inside = int(w.window_lo <= b - a <= w.window_hi)
        pairs = cell_pairs([a], [b], [0], [0], w)
        assert count_coincidences(pairs) == inside
        assert classify_pairs_by_origin(pairs) == (inside, 0)
    assert a + w.window_lo - a < w.window_lo or a + w.window_hi - a > w.window_hi


# (window span, bin width) with a whole number of bins per span, so a
# spectrum range of whole bins can start and end anywhere on the bin grid
_SPANS_AND_BINS = [(39.2, 0.7), (20.0, 1.0), (20.0, 0.25), (0.9, 0.3), (19.3, 0.1)]


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([0.0, 1.0e7, 68176891.0]),
       a=st.lists(st.integers(min_value=0, max_value=80), max_size=25),
       b=st.lists(st.integers(min_value=0, max_value=80), max_size=25),
       picks=st.lists(st.integers(min_value=0, max_value=24), max_size=10),
       lo=st.sampled_from([-24.1, -2.7, -3.3, -0.1, 0.7]),
       span_bin=st.sampled_from(_SPANS_AND_BINS),
       delay=st.sampled_from([0.0, 0.5]),
       pad=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))),
       far=st.booleans())
def test_shared_pairs_feed_every_consumer_exactly(base, a, b, picks, lo, span_bin, delay, pad,
                                                  far):
    # integer times with duplicates, plus B clicks at fl(a + lo) and
    # fl(a + hi), where the rounded sum and the difference b - a disagree
    # about the window edge, and the same for the offset window. At twice
    # the span the offset window lies inside the default spectrum range
    # and is read off the shared differences; at 1e6 ns, or beside a
    # padded range, it is gated apart.
    span, bin_width = span_bin
    hi = lo + span
    offset = 1.0e6 if far else 2 * (hi - lo)
    off_lo, off_hi = lo - offset, hi - offset
    a = sorted(base + t for t in a)
    b = [base + t for t in b]
    if a:
        chosen = [a[i % len(a)] for i in picks]
        b += [t + edge for t in chosen for edge in (lo, hi, off_lo, off_hi)]
    b = sorted(b)
    ids_a = [i % 3 for i in range(len(a))]
    ids_b = [i % 4 for i in range(len(b))]
    w = WindowConfig(channel_delay=delay, window_lo=lo, window_hi=hi,
                     bin_width=bin_width, accidental_offset=offset)
    spectrum_range = None if pad is None else (lo - pad[0] * bin_width,
                                               hi + pad[1] * bin_width)
    pairs = cell_pairs(a, b, ids_a, ids_b, w, spectrum_range)
    shifted = [t + delay for t in b]

    assert count_coincidences(pairs) == _reference_one_use_count(a, shifted, lo, hi)
    assert (estimate_accidentals_delayed(pairs)
            == _reference_one_use_count(a, shifted, off_lo, off_hi))

    spectrum = build_spectrum(pairs)
    edges = spectrum.bin_edges
    deltas = np.array([tb - ta for ta in a for tb in shifted])
    in_range = deltas[(deltas >= edges[0]) & (deltas <= edges[-1])]
    np.testing.assert_array_equal(spectrum.counts, np.histogram(in_range, bins=edges)[0])
    assert spectrum.total_pairs_considered == in_range.size

    in_window = [(ea == eb) for ta, ea in zip(a, ids_a) for tb, eb in zip(shifted, ids_b)
                 if lo <= tb - ta <= hi]
    assert (classify_pairs_by_origin(pairs)
            == (sum(in_window), len(in_window) - sum(in_window)))


def test_shared_pairs_gate_the_window_past_a_rounded_last_edge():
    # 56 bins of 0.7 ns from -24.1 end at 15.099999999999994, one ulp-ish
    # short of the window's 15.1: a gate over the edges alone loses the pair
    w = WindowConfig(window_lo=-24.1, window_hi=15.1, bin_width=0.7)
    pairs = cell_pairs([0.0], [15.1], [0], [0], w, (-24.1, 15.1))
    assert pairs.edges[-1] < w.window_hi
    assert count_coincidences(pairs) == 1
    assert classify_pairs_by_origin(pairs) == (1, 0)
    assert build_spectrum(pairs).total_pairs_considered == 0


def _gate_calls(monkeypatch, s) -> int:
    calls = []
    gate = bellsim.coincidence._pair_ranges

    def counted(*args):
        calls.append(args)
        return gate(*args)

    monkeypatch.setattr(bellsim.coincidence, "_pair_ranges", counted)
    for key in CONFIG_KEYS:
        run_configuration(s, key)
    monkeypatch.undo()
    return len(calls)


# gates per cell at the default spectrum range: freedman-like's offset
# window [-102, -94] lies outside its range [-52, 56], the others' inside
_DEFAULT_GATES = {"aspect-like": 1, "freedman-like": 2, "wave-like": 1}


def test_each_cell_gates_its_pairs_once(monkeypatch):
    # one gate per cell while the offset window lies inside the gated
    # range; a second, disjoint one only when it lies outside
    assert set(_DEFAULT_GATES) == set(PRESETS)
    for name, preset in PRESETS.items():
        s = preset()
        s = dataclasses.replace(s, emission=dataclasses.replace(s.emission, duration=0.002),
                                repeats=2)
        cells = len(CONFIG_KEYS) * s.repeats
        assert _gate_calls(monkeypatch, s) == _DEFAULT_GATES[name] * cells, name
        w = s.window
        tight = dataclasses.replace(s, spectrum_range=(w.window_lo, w.window_hi))
        assert _gate_calls(monkeypatch, tight) == 2 * cells, name
        far = dataclasses.replace(s, window=dataclasses.replace(w, accidental_offset=1.0e6))
        assert _gate_calls(monkeypatch, far) == 2 * cells, name


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.integers(min_value=0, max_value=60), max_size=25),
       b=st.lists(st.integers(min_value=0, max_value=60), max_size=25),
       base=st.sampled_from([0.0, 12345.6, 68176891.7]),
       bound=st.sampled_from([0.0, 1.0, -2.0, 0.3, -0.7, 1.7]),
       side=st.sampled_from(["left", "right"]))
@example(a=[], b=[], base=0.0, bound=0.3, side="left")
@example(a=[], b=[3], base=0.0, bound=0.3, side="right")
@example(a=[3], b=[], base=0.0, bound=-0.7, side="left")
@example(a=[0], b=[3], base=0.0, bound=0.3, side="left")
@example(a=[0], b=[3], base=0.0, bound=0.3, side="right")
# fl(a + bound) - a != bound: b equals fl(a + bound), but b - a lies on the
# other side of the bound
@example(a=[0], b=[3], base=68176891.7, bound=0.3, side="right")
@example(a=[0], b=[17], base=68176891.7, bound=1.7, side="right")
def test_gate_search_equals_a_search_of_each_difference(a, b, base, bound, side):
    # clicks on a 0.1 ns grid: duplicates, and differences that tie with the
    # bound or round to either side of it, fl(a + bound) - a != bound
    a = np.sort(np.array(a, dtype=float)) / 10.0 + base
    b = np.sort(np.array(b, dtype=float)) / 10.0 + base
    expected = [np.searchsorted(b - x, bound, side=side) for x in a]
    query = bound if side == "left" else np.nextafter(bound, np.inf)  # > bound is >= query
    assert searchsorted_by_difference(b, a, query).tolist() == expected


@pytest.mark.parametrize("a, hi, inside", [
    (0.0, 0.3, 1),  # b - a == hi exactly
    (68176891.7, 0.3, 1),  # b - a is 0.29999999701976776
    (68176891.7, 1.7, 0),  # b - a is 1.7000000029802322
])
def test_pair_range_upper_end_gates_on_the_difference(a, hi, inside):
    # b is fl(a + hi) in each case, so only the subtraction tells them apart
    j0, j1 = bellsim.coincidence._pair_ranges(np.array([a]), np.array([a + hi]), hi - 5.0, hi)
    assert (j1 - j0).tolist() == [inside]


@pytest.mark.parametrize("a, b", [([0.0, math.nan], [math.nan, 1.0]),
                                  ([0.0, math.inf], [1.0]),
                                  ([0.0], [-math.inf, 1.0])])
def test_pair_consumers_reject_non_finite_times(a, b):
    with pytest.raises(ValueError, match="finite"):
        _cell(a, b)


def test_pair_expansion_is_capped_before_allocating(monkeypatch):
    # 8,000 clicks at one instant on each side: 64 million pairs at b - a = 0
    clicks = np.zeros(8000)
    with pytest.raises(ValueError, match=r"64000000 click pairs .* \[-113.0, 127.0\]"):
        _cell(clicks, clicks)
    # a cell of exactly the cap's pairs runs; one pair more is refused
    monkeypatch.setattr(bellsim.coincidence, "MAX_PAIRS_PER_CELL", 64)
    assert count_coincidences(_cell(clicks[:8], clicks[:8])) == 8
    with pytest.raises(ValueError, match="72 click pairs"):
        _cell(clicks[:8], clicks[:9])


def test_pair_expansion_takes_no_step_per_pair_of_one_click():
    # one A click with a million B clicks in its gated range [-113, 127]:
    # an expansion that loops once per pair of the busiest click takes seconds
    b = np.linspace(-100.0, 100.0, 1_000_000)
    window = np.flatnonzero((b >= -3.0) & (b <= 17.0))
    # the A click shares its emission with one B click in its window
    ids_b = np.arange(b.size)
    start = time.perf_counter()
    pairs = cell_pairs([0.0], b, [window[7]], ids_b, W)
    elapsed = time.perf_counter() - start
    # every pair was expanded, with its difference b - 0.0
    assert pairs.spectrum_counts.sum() == 1_000_000
    np.testing.assert_array_equal(pairs.spectrum_counts,
                                  np.histogram(b - 0.0, bins=pairs.edges)[0])
    np.testing.assert_array_equal(np.arange(pairs.j0[0], pairs.j1[0]), window)
    assert classify_pairs_by_origin(pairs) == (1, window.size - 1)
    assert elapsed < 2.0


def _traced(f, *args):
    """f(*args), the memory it still held on return, and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        return f(*args), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_pair_pass_memory_does_not_grow_with_gated_pairs():
    # 1,000 A and 1,000 B clicks within 1 ns of each other, 50 ns apart: a
    # million gated pairs, none in the window or the offset window. The
    # clicks take 16 kB; expanding every pair at once peaked at 40 MB
    a = np.linspace(0.0, 1.0, 1000)
    ids = np.arange(a.size)
    pairs, _, peak = _traced(cell_pairs, a, a + 50.0, ids, ids, W)
    assert pairs.spectrum_counts.sum() == 1_000_000
    assert (pairs.j1 == pairs.j0).all() and classify_pairs_by_origin(pairs) == (0, 0)
    assert peak < 4 << 20


def test_pair_pass_of_one_click_holds_no_pair_length_array():
    # the million pairs of one click: the gate's merge holds three arrays
    # of the million B clicks (b, the merged keys and their order), 22.9
    # MiB; expanding every pair at once peaked at 39.6 MiB
    b = np.linspace(-100.0, 100.0, 1_000_000)
    ids_b = np.zeros(b.size, dtype=np.int64)
    _, _, peak = _traced(cell_pairs, [0.0], b, [0], ids_b, W)
    assert peak < 3 * b.nbytes + (1 << 20)


def test_pair_pass_keeps_no_window_pair():
    # the million gated pairs of one click all lie in its window: keeping
    # them, 16 bytes each, peaked at 31.0 MiB and held 22.9 MiB after the call
    b = np.linspace(-100.0, 100.0, 1_000_000)
    ids_b = np.arange(b.size)
    w = WindowConfig(window_lo=-100.0, window_hi=100.0, accidental_offset=400.0)
    pairs, held, peak = _traced(cell_pairs, [0.0], b, [ids_b[500_000]], ids_b, w, (-100.0, 100.0))
    assert classify_pairs_by_origin(pairs) == (1, b.size - 1)
    assert peak < 3 * b.nbytes + (1 << 20)
    assert held < b.nbytes + (1 << 20)


_BLOCK_WINDOWS = [
    # the offset window [-103, -83] read off the default range [-113, 127]
    (WindowConfig(), None),
    # gated apart: the offset window lies beyond the default range
    (WindowConfig(accidental_offset=300.0), None),
    # inexact 0.7 ns edges on an explicit range, offset window gated apart
    (WindowConfig(window_lo=-24.1, window_hi=15.1, bin_width=0.7), (-24.1, 15.1)),
    # the same edges widened to take in the offset window [-124.1, -84.9]
    (WindowConfig(window_lo=-24.1, window_hi=15.1, bin_width=0.7), (-129.1, 15.1)),
]


@settings(max_examples=150, deadline=None)
@given(a=st.lists(st.integers(min_value=0, max_value=400), max_size=30),
       b=st.lists(st.integers(min_value=0, max_value=400), max_size=30),
       lone=st.lists(st.integers(min_value=0, max_value=3), max_size=3),
       scale=st.sampled_from([0.7, 1.0, 7.3]),
       windows=st.sampled_from(_BLOCK_WINDOWS))
@example(a=[0, 0, 1, 2], b=[0, 1, 1, 2, 3], lone=[0], scale=1.0, windows=_BLOCK_WINDOWS[0])
@example(a=[0, 1], b=[0, 0, 0, 0, 0, 0, 0, 0], lone=[], scale=1.0, windows=_BLOCK_WINDOWS[3])
def test_pair_blocks_give_what_one_block_gives(a, b, lone, scale, windows):
    # clustered times give chains of A clicks that share B ranges; the lone
    # A clicks 10 us away pair with nothing, between clicks that do
    w, spectrum_range = windows
    a = sorted([t * scale for t in a] + [1.0e4 + t for t in lone])
    b = sorted(t * scale for t in b)
    ids_a = np.arange(len(a)) % 3
    ids_b = np.arange(len(b)) % 4
    with mock.patch.object(bellsim.coincidence, "PAIR_BLOCK", 1 << 30):
        whole = cell_pairs(a, b, ids_a, ids_b, w, spectrum_range)
    for size in (1, 3, 7):
        with mock.patch.object(bellsim.coincidence, "PAIR_BLOCK", size):
            pairs = cell_pairs(a, b, ids_a, ids_b, w, spectrum_range)
        _assert_same_cell(pairs, whole, ids_a, ids_b)


def _block_sizes(a, b, ids_a, ids_b, w, spectrum_range, size):
    """cell_pairs(a, b, ...) with PAIR_BLOCK = size, and the pair count of each block it ran."""
    sizes = []
    walk = bellsim.coincidence._pair_blocks

    def counted(*args):
        for c, ia, ib in walk(*args):
            sizes.append(ia.size)
            yield c, ia, ib

    with mock.patch.object(bellsim.coincidence, "PAIR_BLOCK", size), \
            mock.patch.object(bellsim.coincidence, "_pair_blocks", counted):
        return cell_pairs(a, b, ids_a, ids_b, w, spectrum_range), sizes


def _assert_same_cell(pairs, whole, ids_a, ids_b):
    for field in dataclasses.fields(CellPairs):
        got, want = getattr(pairs, field.name), getattr(whole, field.name)
        assert np.asarray(got).dtype == np.asarray(want).dtype, field.name
        np.testing.assert_array_equal(got, want, err_msg=field.name)
    assert count_coincidences(pairs) == count_coincidences(whole)
    assert estimate_accidentals_delayed(pairs) == estimate_accidentals_delayed(whole)
    np.testing.assert_array_equal(build_spectrum(pairs).counts, build_spectrum(whole).counts)
    assert classify_pairs_by_origin(pairs) == classify_pairs_by_origin(whole)
    assert (harness._window_inclusion(pairs, ids_a, ids_b)
            == harness._window_inclusion(whole, ids_a, ids_b))


@pytest.mark.parametrize("windows", _BLOCK_WINDOWS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_pair_blocks_cut_at_the_cell_ends_and_between(windows, blocks):
    # PAIR_BLOCK set so that the gated pairs fill exactly one block, exactly
    # two, or two and one pair more: the walk's cuts at the cell's first and
    # last pair, and one or two between, which may split an A click's pairs
    w, spectrum_range = windows
    rng = np.random.default_rng(blocks)
    a = list(np.sort(rng.uniform(0.0, 300.0, 20)).round(1))
    b = list(np.sort(rng.uniform(0.0, 300.0, 25)).round(1))
    edges = spectrum_bin_edges(w, spectrum_range)
    lo, hi = edges[0], max(edges[-1], w.window_hi)

    def gated():
        d = np.add.outer(-np.asarray(a), np.asarray(b) + w.channel_delay)
        return int(((d >= lo) & (d <= hi)).sum())

    # an A and a B click 10 us away add one pair, to reach the parity wanted
    if blocks > 1 and gated() % 2 != blocks % 2:
        a.append(1.0e4)
        b.append(1.0e4 + 1.0)
    total = gated()
    size = {1: total, 2: total // 2, 3: (total - 1) // 2}[blocks]
    ids_a, ids_b = np.arange(len(a)) % 3, np.arange(len(b)) % 4
    whole, one = _block_sizes(a, b, ids_a, ids_b, w, spectrum_range, 1 << 30)
    pairs, cut = _block_sizes(a, b, ids_a, ids_b, w, spectrum_range, size)
    assert one == [total] and cut == [size] * (total // size) + [1] * (blocks == 3)
    _assert_same_cell(pairs, whole, ids_a, ids_b)


@pytest.mark.parametrize("windows", _BLOCK_WINDOWS)
def test_pair_blocks_split_one_click_over_more_than_two_blocks(windows):
    # in blocks of 5, the pairs of the A click at 100 with the B clicks
    # 80 to 120 span more than two blocks, beside clicks whose pairs do not
    w, spectrum_range = windows
    a = [-300.0, 40.0, 100.0, 101.5, 400.0]
    b = list(np.linspace(80.0, 120.0, 61))
    d = np.asarray(b) + w.channel_delay - 100.0
    edges = spectrum_bin_edges(w, spectrum_range)
    assert ((d >= edges[0]) & (d <= max(edges[-1], w.window_hi))).sum() > 2 * 5 + 1
    ids_a, ids_b = np.arange(len(a)) % 3, np.arange(len(b)) % 4
    whole, one = _block_sizes(a, b, ids_a, ids_b, w, spectrum_range, 1 << 30)
    pairs, cut = _block_sizes(a, b, ids_a, ids_b, w, spectrum_range, 5)
    assert len(cut) > 2 and sum(cut) == sum(one)
    _assert_same_cell(pairs, whole, ids_a, ids_b)


@pytest.mark.parametrize("windows", _BLOCK_WINDOWS)
@pytest.mark.parametrize("a, b", [([], [0.0, 1.0]), ([0.0, 1.0], [1.0e4]), ([0.0, 1.0], [])],
                         ids=["no-a-clicks", "no-pairs", "no-b-clicks"])
def test_cell_without_pairs_runs_no_block_and_keeps_a_paired_cells_dtypes(windows, a, b):
    w, spectrum_range = windows
    paired = cell_pairs([0.0, 5.0], [1.0, 30.0], [0, 1], [0, 1], w, spectrum_range)
    assert (paired.j1 - paired.j0).sum() and paired.same_emission
    pairs, cut = _block_sizes(a, b, np.arange(len(a)), np.arange(len(b)), w, spectrum_range,
                              1 << 30)
    assert cut == []
    for field in dataclasses.fields(CellPairs):
        got, want = getattr(pairs, field.name), getattr(paired, field.name)
        assert np.asarray(got).dtype == np.asarray(want).dtype, field.name
    for field in ("j0", "j1", "k0", "k1"):
        assert getattr(pairs, field).size == len(a), field
    assert (pairs.j1 - pairs.j0).sum() == pairs.same_emission == 0
    assert pairs.spectrum_counts.size == paired.spectrum_counts.size
    assert not pairs.spectrum_counts.any()
    assert count_coincidences(pairs) == estimate_accidentals_delayed(pairs) == 0
    assert classify_pairs_by_origin(pairs) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.integers(min_value=0, max_value=300), max_size=30),
       b=st.lists(st.integers(min_value=0, max_value=300), max_size=30),
       shift=st.integers(min_value=-10**6, max_value=10**6))
def test_count_translation_invariance(a, b, shift):
    # integer-valued times keep the shifted differences exact
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    assert _count(a + shift, b + shift) == _count(a, b)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.integers(min_value=0, max_value=150), max_size=30),
       b=st.lists(st.integers(min_value=0, max_value=150), max_size=30),
       scale=st.sampled_from([0.7, 1.0, 7.3]),
       base=st.sampled_from([0.0, 68176891.7]),
       lo=st.sampled_from([-24.1, -3.0, -2.7, 0.7]),
       span=st.sampled_from([0.9, 20.0, 39.2]),
       delay=st.sampled_from([0.0, 0.5, -13.3]))
@example(a=[5, 5, 5], b=[5, 5, 6, 6], scale=1.0, base=0.0, lo=-3.0, span=20.0, delay=0.0)
def test_swapping_sides_keeps_the_count_the_window_pairs_and_the_truth_split(a, b, scale, base,
                                                                             lo, span, delay):
    # the one-use count is a maximum matching, whose size does not depend on
    # which side is A. IEEE subtraction is sign-symmetric, so a - b is
    # exactly -(b - a) and the mirrored window gates the same pairs. Times on
    # a grid, with ties, and ranges that overlap in chains
    a = np.sort(np.asarray(a, dtype=float)) * scale + base
    b = np.sort(np.asarray(b, dtype=float)) * scale + base
    ids_a, ids_b = np.arange(a.size) % 3, np.arange(b.size) % 4
    w = WindowConfig(channel_delay=delay, window_lo=lo, window_hi=lo + span)
    mirrored = WindowConfig(window_lo=-w.window_hi, window_hi=-w.window_lo)
    pairs = cell_pairs(a, b, ids_a, ids_b, w)
    swapped = cell_pairs(b + delay, a, ids_b, ids_a, mirrored)
    assert count_coincidences(swapped) == count_coincidences(pairs)
    assert _all_pairs(swapped) == _all_pairs(pairs)
    assert classify_pairs_by_origin(swapped) == classify_pairs_by_origin(pairs)


grid_times = st.lists(st.integers(min_value=0, max_value=150), max_size=20)


@settings(max_examples=100, deadline=None)
@given(a1=grid_times, b1=grid_times, a2=grid_times, b2=grid_times,
       scale=st.sampled_from([0.7, 1.0, 7.3]),
       base=st.sampled_from([0.0, 68176891.7]),
       lo=st.integers(min_value=-30, max_value=5), span=st.integers(min_value=1, max_value=40),
       delay=st.sampled_from([0.0, 0.5, -13.3]),
       extra=st.integers(min_value=0, max_value=60),
       margins=st.tuples(st.integers(min_value=0, max_value=80),
                         st.integers(min_value=0, max_value=80)))
@example(a1=[5, 5, 5], b1=[5, 5, 6, 6], a2=[0, 1], b2=[1, 1, 2], scale=1.0, base=0.0,
         lo=-3, span=20, delay=0.0, extra=0, margins=(0, 0))
def test_a_cell_split_at_a_wide_gap_adds_up_to_the_whole(a1, b1, a2, b2, scale, base, lo, span,
                                                         delay, extra, margins):
    # the second half starts 10,000 grid steps on, so every A-B difference
    # across the gap lies far outside the window, the offset window and the
    # spectrum range: the matchings, the pairings and the bins of the two
    # halves are those of the whole. Grid times give ties and chains
    w = WindowConfig(channel_delay=delay, window_lo=float(lo), window_hi=float(lo + span),
                     accidental_offset=float(2 * span + extra))
    spectrum_range = (float(lo - margins[0]), float(lo + span + margins[1]))

    def cell(a_first, a_second, b_first, b_second):
        def clicks(first, second):
            times = np.concatenate([np.sort(np.asarray(first, dtype=float)),
                                    np.sort(np.asarray(second, dtype=float)) + 10_000.0])
            return times * scale + base

        def ids(first, second, k):
            return np.concatenate([np.arange(len(first)) % k, 7 + np.arange(len(second)) % k])

        return cell_pairs(clicks(a_first, a_second), clicks(b_first, b_second),
                          ids(a_first, a_second, 3), ids(b_first, b_second, 4), w,
                          spectrum_range)

    halves = [cell(a1, [], b1, []), cell([], a2, [], b2)]
    whole = cell(a1, a2, b1, b2)
    for consumer in (count_coincidences, estimate_accidentals_delayed):
        assert sum(consumer(half) for half in halves) == consumer(whole)
    split = [classify_pairs_by_origin(half) for half in halves]
    assert tuple(map(sum, zip(*split))) == classify_pairs_by_origin(whole)
    spectrum = build_spectrum(halves[0]) + build_spectrum(halves[1])
    np.testing.assert_array_equal(spectrum.bin_edges, build_spectrum(whole).bin_edges)
    np.testing.assert_array_equal(spectrum.counts, build_spectrum(whole).counts)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.integers(min_value=0, max_value=150), max_size=30),
       b=st.lists(st.integers(min_value=0, max_value=150), max_size=30),
       scale=st.sampled_from([0.7, 1.0, 7.3]),
       base=st.sampled_from([0.0, 68176891.7]),
       lo=st.integers(min_value=-30, max_value=5), span=st.integers(min_value=1, max_value=30),
       widen=st.tuples(st.integers(min_value=0, max_value=15),
                       st.integers(min_value=0, max_value=15)),
       delay=st.sampled_from([0.0, 0.5, -13.3]))
@example(a=[0, 3, 3], b=[2, 4, 4, 9], scale=1.0, base=0.0, lo=0, span=2, widen=(0, 3), delay=0.0)
def test_a_wider_window_never_lowers_the_count_or_the_window_pairs(a, b, scale, base, lo, span,
                                                                   widen, delay):
    # a maximum matching over more allowed pairs is no smaller. The offset
    # stays at twice the wider span, so both windows keep the same offset
    a = np.sort(np.asarray(a, dtype=float)) * scale + base
    b = np.sort(np.asarray(b, dtype=float)) * scale + base
    ids_a, ids_b = np.arange(a.size) % 3, np.arange(b.size) % 4
    offset = 2.0 * (span + sum(widen))
    narrow = WindowConfig(channel_delay=delay, window_lo=float(lo), window_hi=float(lo + span),
                          accidental_offset=offset)
    wide = WindowConfig(channel_delay=delay, window_lo=float(lo - widen[0]),
                        window_hi=float(lo + span + widen[1]), accidental_offset=offset)
    pairs, wider = cell_pairs(a, b, ids_a, ids_b, narrow), cell_pairs(a, b, ids_a, ids_b, wide)
    assert count_coincidences(wider) >= count_coincidences(pairs)
    assert _all_pairs(wider) >= _all_pairs(pairs)


def test_empty_streams_give_zero_spectrum():
    spectrum = build_spectrum(_cell([], [], W, (-53.0, 67.0)))
    assert spectrum.counts.sum() == 0
    assert spectrum.total_pairs_considered == 0
    assert spectrum.bin_edges[0] == -53.0
    assert spectrum.bin_edges[-1] == 67.0


def test_spectrum_refuses_mismatched_sizes_and_negative_counts():
    with pytest.raises(ValueError, match="exactly one more entry than counts"):
        CoincidenceSpectrum(bin_edges=np.arange(3.0), counts=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        CoincidenceSpectrum(bin_edges=np.arange(3.0), counts=np.array([1, -1]))


def test_spectra_add_only_on_the_same_edges():
    counts = np.array([1, 2], dtype=np.int64)
    total = (CoincidenceSpectrum(bin_edges=np.arange(3.0), counts=counts)
             + CoincidenceSpectrum(bin_edges=np.arange(3.0), counts=counts))
    np.testing.assert_array_equal(total.counts, [2, 4])
    with pytest.raises(ValueError, match="different bin edges"):
        (CoincidenceSpectrum(bin_edges=np.arange(3.0), counts=counts)
         + CoincidenceSpectrum(bin_edges=np.arange(3.0) + 0.5, counts=counts))


def _spectrum_of(deltas, w: WindowConfig, spectrum_range):
    """build_spectrum over the given differences: one A click at 0 and a B click at each."""
    return build_spectrum(_cell([0.0], np.sort(deltas), w, spectrum_range))


def test_spectrum_counts_like_np_histogram_past_its_block_size():
    # np.histogram sorts explicit-edge data in blocks of 65,536
    rng = np.random.default_rng(37)
    deltas = rng.uniform(-60.0, 70.0, 200_003)
    spectrum = _spectrum_of(deltas, W, (-53.0, 67.0))
    want, _ = np.histogram(deltas, bins=spectrum.bin_edges)
    np.testing.assert_array_equal(spectrum.counts, want)
    assert spectrum.counts.dtype == np.int64


def test_spectrum_counts_like_np_histogram_on_and_beside_every_edge():
    # 0.7 ns bins from -24.1: the edges are inexact, and the last is closed
    w = WindowConfig(window_lo=-24.1, window_hi=15.1, bin_width=0.7)
    edges = spectrum_bin_edges(w, (-24.1, 15.1))
    deltas = np.concatenate((edges, edges[-1:], np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf)))
    spectrum = _spectrum_of(deltas, w, (-24.1, 15.1))
    want, _ = np.histogram(deltas, bins=edges)
    np.testing.assert_array_equal(spectrum.counts, want)
    assert spectrum.counts[-1] == 5  # its left edge, the last edge twice, and one ulp on each side
    # one ulp outside the range either side falls in no bin
    assert spectrum.total_pairs_considered == deltas.size - 2


def test_spectrum_recovers_exponential_tail():
    # A clicks at emission times, B clicks delayed by Exp(5 ns): the log
    # spectrum decays with slope -1/5 exactly, up to Poisson noise
    rng = np.random.default_rng(23)
    a = _poisson_clicks(rng, 5.0e4, 1.0)
    b = np.sort(a + rng.exponential(5.0, a.size))
    spectrum = build_spectrum(_cell(a, b, W, (-10.0, 40.0)))
    centers = spectrum.bin_edges[:-1] + 0.5 * W.bin_width
    sel = (centers >= 2.0) & (centers <= 18.0) & (spectrum.counts > 20)
    slope = np.polyfit(centers[sel], np.log(spectrum.counts[sel]), 1)[0]
    tau_fit = -1.0 / slope
    assert abs(tau_fit - 5.0) < 0.5


def test_spectrum_flat_for_independent_streams():
    rng = np.random.default_rng(29)
    # rate^2 * duration sets the floor height: ~200 pairs per 4 ns bin here
    a = _poisson_clicks(rng, 1.0e6, 0.05)
    b = _poisson_clicks(rng, 1.0e6, 0.05)
    w = dataclasses.replace(W, bin_width=4.0)
    spectrum = build_spectrum(_cell(a, b, w, (-100.0, 100.0)))
    counts = spectrum.counts
    assert counts.mean() > 100.0  # enough statistics for the chi-square to mean something
    chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
    assert stats.chi2.sf(chi2, df=counts.size - 1) > 1.0e-3


def test_spectrum_window_integral_equals_all_pairs_count():
    rng = np.random.default_rng(31)
    a = _poisson_clicks(rng, 2.0e4, 0.05)
    b = np.sort(a + rng.exponential(5.0, a.size))
    pairs = _cell(a, b, W, (-53.0, 67.0))
    deltas = np.subtract.outer(b, a)
    all_pairs = int(np.count_nonzero((deltas >= W.window_lo) & (deltas <= W.window_hi)))
    assert all_pairs > 0
    assert _window_integral(build_spectrum(pairs), W.window_lo, W.window_hi) == all_pairs
    assert _all_pairs(pairs) == all_pairs


def test_spectrum_counts_every_pairing_not_one_use():
    # two B clicks inside the window of one A click: spectrum sees both,
    # the one-use counter sees one
    a = [0.0]
    b = [4.0, 6.0]
    pairs = _cell(a, b, W, (-53.0, 67.0))
    assert count_coincidences(pairs) == 1
    assert _all_pairs(pairs) == 2
    assert _window_integral(build_spectrum(pairs), W.window_lo, W.window_hi) == 2


def test_spectrum_range_validation():
    with pytest.raises(ValueError):
        _cell([0.0], [1.0], W, (0.0, 20.0))  # does not contain window
    with pytest.raises(ValueError):
        _cell([0.0], [1.0], W, (-3.0, 17.5))  # not a whole number of bins
    with pytest.raises(ValueError):
        _cell([0.0], [1.0], W, (30.0, 20.0))
    with pytest.raises(ValueError, match=r"lo < hi, got \[5.0, 5.0\]"):
        spectrum_bin_edges(W, (5.0, 5.0))  # empty, not merely short of the window


def test_spectrum_range_of_exactly_the_bin_cap_is_accepted():
    half = MAX_SPECTRUM_BINS // 2
    edges = spectrum_bin_edges(W, (-half, half))
    assert edges.size == MAX_SPECTRUM_BINS + 1
    with pytest.raises(ValueError, match="over"):
        spectrum_bin_edges(W, (-half, half + 1))


def test_spectrum_range_of_one_bin_is_accepted():
    w = WindowConfig(bin_width=20.0)
    assert spectrum_bin_edges(w, (-3.0, 17.0)).tolist() == [-3.0, 17.0]


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_lo=5.0, window_hi=5.0)
    with pytest.raises(ValueError):
        WindowConfig(bin_width=0.0)
    with pytest.raises(ValueError):
        WindowConfig(window_lo=-3.0, window_hi=17.0, accidental_offset=30.0)
    for name in ("channel_delay", "window_lo", "bin_width"):
        with pytest.raises(ValueError, match=name):
            WindowConfig(**{name: True})
    with pytest.raises(ValueError, match="window_hi"):
        WindowConfig(window_hi="17")


def test_delayed_estimate_zero_for_single_true_pair():
    assert estimate_accidentals_delayed(_cell([100.0], [105.0])) == 0


def test_delayed_estimate_matches_in_window_rate_for_independent_streams():
    rng = np.random.default_rng(37)
    a = _poisson_clicks(rng, 1.0e5, 1.0)
    b = _poisson_clicks(rng, 1.0e5, 1.0)
    pairs = _cell(a, b)
    in_window = count_coincidences(pairs)
    delayed = estimate_accidentals_delayed(pairs)
    product = estimate_accidentals_product(a.size, b.size, W, 1.0)
    # all three see the same stationary accidental rate (about 200 here)
    for estimate in (delayed, product):
        sigma = math.sqrt(in_window + estimate)
        assert abs(in_window - estimate) < 3.0 * sigma


def test_delayed_estimate_overstates_background_for_hard_core_source():
    # with a 50 ns hard core the neighborhood of zero delay is depleted, so
    # the 100 ns offset window sees more than the true different-emission
    # background at the peak
    det = DetectorConfig(model="particle", eta0=1.0, jitter_sigma=1.0, dead_time=0.0)
    cfg = EmissionConfig(mean_rate=1.0e6, duration=0.02, process="min_separation",
                         min_gap=50.0, cascade_lifetime_tau=5.0)
    wins = 0
    delayed_total = 0
    background_total = 0
    for seed in range(20):
        stream = generate_emissions(cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        a = simulate_side(stream, "A", ABSENT, det, rng)
        b = simulate_side(stream, "B", ABSENT, det, rng)
        pairs = cell_pairs(a.times, b.times, a.emission_index, b.emission_index, W)
        delayed = estimate_accidentals_delayed(pairs)
        _, background = classify_pairs_by_origin(pairs)
        wins += delayed > background
        delayed_total += delayed
        background_total += background
    assert delayed_total > background_total
    assert wins >= 18


def test_product_estimate_formula():
    assert estimate_accidentals_product(0, 5000, W, 1.0) == 0.0
    assert estimate_accidentals_product(5000, 5000, W, 1.0) == 0.5
    # bilinear: halving both sides divides by four
    full = estimate_accidentals_product(4096, 2048, W, 1.0)
    assert estimate_accidentals_product(2048, 1024, W, 1.0) == full / 4.0


def test_product_estimate_validation():
    with pytest.raises(ValueError):
        estimate_accidentals_product(10, 10, W, 0.0)
    with pytest.raises(ValueError):
        estimate_accidentals_product(-1, 10, W, 1.0)


def test_classify_pairs_by_origin_tiny_case():
    # A at 0 (emission 0) and 1000 (emission 1); B at 5 (emission 0, true
    # pair) and 1010 (emission 2, accidental within the window of A@1000)
    a_times, a_ids = [0.0, 1000.0], [0, 1]
    b_times, b_ids = [5.0, 1010.0], [0, 2]
    true_pairs, accidental = classify_pairs_by_origin(cell_pairs(a_times, b_times, a_ids, b_ids,
                                                                 W))
    assert (true_pairs, accidental) == (1, 1)


def test_classify_requires_matching_lengths():
    # the ids come with the clicks, so cell_pairs refuses them, not the split
    with pytest.raises(ValueError, match="emission id arrays"):
        cell_pairs([0.0], [5.0], [0, 1], [0], W)
    with pytest.raises(ValueError, match="emission id arrays"):
        cell_pairs([0.0], [5.0], [0], [0, 1], W)
