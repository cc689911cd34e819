"""Coincidence counting, time-difference spectra, and accidental estimation.

The counting convention follows hardware coincidence circuits: the B stream
is shifted by the channel delay, and a pair is accepted when the shifted
difference falls inside [window_lo, window_hi]. Counts use one-use greedy
matching in time order, the way a circuit consumes pulses; spectra histogram
every pairing in range, the way a time-to-amplitude converter records them.

Every consumer gates a pair the same way: on the difference b - a itself,
lo <= b - a <= hi, never on b >= a + lo, which rounds differently for
non-integer bounds. _pair_ranges finds, for each A click, the range of B
indices that pass this gate. Both ends are searched in one direction,
since b - a > hi is b - a >= nextafter(hi): one stable merge of the sorted
keys a + bound with the sorted B clicks gives a first guess in linear
time, which is then corrected with the subtraction.

A simulated cell runs this gate once, in cell_pairs, and every consumer
reads the one CellPairs it returns: the count, the delayed estimate, the
spectrum, the ground truth and the harness's window-inclusion
diagnostic. cell_pairs gates over the union of the spectrum range and
the window, not over the spectrum edges alone: an edge computed as
lo + k * bin_width can fall one ulp short of window_hi.
It expands the gated pairs PAIR_BLOCK at a time and takes each pair's
difference b - a. The spectrum histograms the differences inside its
edges. Each A click's window range is read off its own differences: the
range starts after those below window_lo and holds those inside the
window. The difference is monotone in b, so these are the ranges the
gate returns. The offset window of the delayed estimate,
[window_lo - offset, window_hi - offset] on the same differences, is
read off them the same way. Only when it does not lie inside the gated
range (a huge offset, or a tight spectrum range) is it gated apart, over
the same arrays; widening the union instead would expand every pair in
between. Of the pairs, only those inside the window are kept.

The one-use count needs no per-click loop. With [j0, j1) an A click's
range, the two-pointer greedy gives click i the B index max(j0[i], prev + 1)
if that is below j1[i], where prev is the last B index taken. Both j0 and
j1 are nondecreasing, so an A click whose range overlaps neither its
predecessor's nor its successor's shares no B click with any other A click:
it matches iff its range is nonempty, counted in one vectorized pass. The
rest form chains of overlapping ranges. Taking, in order of range end,
the earliest free B index in range is the greedy that finds a maximum
matching of clicks to ranges, so over the chains the count is the number of
clicks minus Hall's largest deficiency. That deficiency is a 2x2 max-plus
matrix product over the chained clicks, reduced pairwise in log2(n) numpy
steps, however long the chains are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bellsim.source import NS_PER_SECOND
from bellsim.validation import check_number, require_numbers

MAX_SPECTRUM_BINS = 1_000_000
# a cell keeps only its window pairs, 16 bytes each, so where the spectrum
# range is the window and every gated pair lies in it, they stay under 0.8 GB;
# a 3e7/s aspect-like Z cell gated 2,140,887 pairs in 0.12 s and kept 377,456.
# A scenario's lanes and a sweep's processes each run one cell at a time
MAX_PAIRS_PER_CELL = 50_000_000
# pairs expanded at once. perfbench dense-rate-sweep, two 6 s runs each on a
# 2-core box: 6.5-6.7 M emissions/s and a 45.0 MB peak at 8,192; 6.6-6.8 M and
# 44.9 MB at 16,384; 6.7-6.9 M and 44.5 MB at 32,768; 6.7-6.9 M and 46.4 MB at
# 65,536; 6.6-6.7 M and 48.2 MB with every pair at once. An aspect-like cell
# of 50,000 emissions, at most 52,022 pairs, fits in one or two blocks
PAIR_BLOCK = 32_768


@dataclass(frozen=True)
class WindowConfig:
    """Coincidence-window parameters, all in ns.

    channel_delay is added to every B click before differencing, so a pair
    is accepted when tB + channel_delay - tA lies in [window_lo, window_hi].
    accidental_offset is the extra delay used for the shifted-window
    accidental estimate; it must dwarf the window span so the offset window
    sees none of the true-coincidence peak.
    """

    channel_delay: float = 0.0
    window_lo: float = -3.0
    window_hi: float = 17.0
    bin_width: float = 1.0
    accidental_offset: float = 100.0

    def __post_init__(self) -> None:
        require_numbers(self, "channel_delay", "window_lo", "window_hi", "accidental_offset")
        require_numbers(self, "bin_width", gt=0.0)
        # the pair pass's offset window starts at window_lo - accidental_offset;
        # no code adds channel_delay + accidental_offset, so that check only
        # refuses an input whose sum overflows
        check_number("channel_delay + accidental_offset",
                     self.channel_delay + self.accidental_offset)
        check_number("window_lo - accidental_offset", self.window_lo - self.accidental_offset)
        if not self.window_lo < self.window_hi:
            raise ValueError(
                f"window_lo must be < window_hi, got [{self.window_lo}, {self.window_hi}]"
            )
        # an int 2: 2.0 times the int span of two large JSON ints can overflow
        if self.accidental_offset < 2 * self.span:
            raise ValueError(
                f"accidental_offset {self.accidental_offset} ns is too close to the "
                f"window span {self.span} ns; it must be at least twice the span"
            )

    @property
    def span(self) -> float:
        return self.window_hi - self.window_lo


@dataclass(frozen=True, eq=False)
class CoincidenceSpectrum:
    """Histogram of B-minus-A time differences (after the channel delay)."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.bin_edges.size != self.counts.size + 1:
            raise ValueError("bin_edges must have exactly one more entry than counts")
        if (self.counts < 0).any():
            raise ValueError("spectrum counts must be nonnegative")

    @property
    def total_pairs_considered(self) -> int:
        """The number of pairings histogrammed: the sum of the bins."""
        return int(self.counts.sum())

    def __add__(self, other: CoincidenceSpectrum) -> CoincidenceSpectrum:
        """The spectrum of both sets of pairings; other must have the same bin edges."""
        if not np.array_equal(self.bin_edges, other.bin_edges):
            raise ValueError("spectra with different bin edges cannot be added")
        return CoincidenceSpectrum(bin_edges=self.bin_edges, counts=self.counts + other.counts)

    def to_dict(self) -> dict:
        return {
            "bin_edges_ns": [float(e) for e in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "total_pairs_considered": self.total_pairs_considered,
        }


def _as_sorted_array(times, name: str) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(t).all():
        raise ValueError(f"{name} must be finite")
    if (t[1:] < t[:-1]).any():
        raise ValueError(f"{name} must be time-sorted")
    return t


_NEIGHBOURS = np.array([[0], [1]])


def searchsorted_by_difference(b: np.ndarray, a: np.ndarray, bound: float) -> np.ndarray:
    """For each a, the first j with b[j] - a >= bound, b - a computed per element.

    Both a and b must be ascending. The difference is monotone in b[j], so
    the passing indices form a suffix. The gate searches in this one
    direction: b - a > bound is b - a >= nextafter(bound, inf). The first
    guess is searchsorted(b, a + bound), taken from one stable merge:
    fl(a + bound) is ascending too, and a key's place in the merged order,
    less its rank among the keys, counts the b before it. Keys go first, so
    they precede equal b. It is only a guess, because fl(a + bound) - a can
    differ from bound; the guess is then moved one distinct value of b at a
    time until the subtraction agrees on both sides of it.
    """
    keys = a + bound
    j = (np.concatenate((keys, b)).argsort(kind="stable") < keys.size).nonzero()[0]
    j -= np.arange(keys.size)
    # padded[j] is b[j - 1] and padded[j + 1] is b[j]; -inf never passes and
    # +inf always does, so every guess j has both neighbours
    padded = np.concatenate(([-np.inf], b, [np.inf]))
    while True:
        below_passes, at_passes = padded[j + _NEIGHBOURS] - a >= bound
        if below_passes.any():
            k = below_passes.nonzero()[0]
            j[k] = np.searchsorted(padded, padded[j[k]], side="left") - 1
        elif not at_passes.all():
            k = (~at_passes).nonzero()[0]
            j[k] = np.searchsorted(padded, padded[j[k] + 1], side="right") - 1
        else:
            return j


def _pair_ranges(a: np.ndarray, b_shifted: np.ndarray, lo: float, hi: float):
    """For each A click, the index range [j0, j1) of B clicks with lo <= b - a <= hi."""
    return (searchsorted_by_difference(b_shifted, a, lo),
            searchsorted_by_difference(b_shifted, a, math.nextafter(hi, math.inf)))


# the 2x2 max-plus identity; -2**40 stands in for minus infinity, far
# below any real entry
_MAXPLUS_IDENTITY = np.array([[0, -(1 << 40)], [-(1 << 40), 0]], dtype=np.int64)


def _max_deficiency(e: np.ndarray, o: np.ndarray) -> int:
    """Best total over disjoint blocks of consecutive entries: sum of e, plus o per inner link.

    o[i] links entry i to entry i - 1 (o[0] is unused). The scan
    "in_i = e_i + max(in_{i-1} + o_i, out_{i-1}); out_i = max(out_{i-1}, in_i)",
    started from out = 0, is a product of 2x2 max-plus matrices
    [[o + e, e], [o + e, max(e, 0)]] acting on (in, out), one per entry.
    Padded with identities to a power of two, the product is reduced
    pairwise, in log2(n) numpy steps.
    """
    n = e.size
    m = np.empty((2, 2, 1 << (n - 1).bit_length()), dtype=np.int64)
    m[:, :, n:] = _MAXPLUS_IDENTITY[:, :, None]
    m[0, 0, :n] = m[1, 0, :n] = o + e
    m[0, 1, :n] = e
    m[1, 1, :n] = np.maximum(e, 0)
    while m.shape[2] > 1:
        # later @ earlier for each pair: max over k of later[r, k] + earlier[k, c]
        m = (m[:, :, None, 1::2] + m[None, :, :, 0::2]).max(axis=1)
    return int(m[1, 1, 0])


def _one_use_count(j0: np.ndarray, j1: np.ndarray) -> int:
    """Greedy one-use match count of A clicks with B index ranges [j0, j1), earliest first."""
    overlap = j0[1:] < j1[:-1]
    chained = np.zeros(j0.size, dtype=bool)
    chained[1:] = overlap
    chained[:-1] |= overlap
    matched = int(np.count_nonzero(~chained & (j1 > j0)))
    idx = chained.nonzero()[0]
    if idx.size:
        # Hall's theorem: matches = clicks - the largest deficiency
        # |S| - |union of the ranges of S| over sets S of clicks. It is
        # reached by blocks p..q of consecutive clicks, whose union is
        # [j0[p], j1[q]); that block's deficiency (q - p + 1) - (j1[q] - j0[p])
        # splits into e per click and o per link. A link with o <= 0 (between
        # chains) never pays to cross.
        e = 1 - (j1[idx] - j0[idx])
        o = np.zeros_like(e)
        o[1:] = j1[idx[:-1]] - j0[idx[1:]]
        matched += idx.size - _max_deficiency(e, o)
    return matched


def _pair_blocks(j0: np.ndarray, j1: np.ndarray, lo: float, hi: float):
    """Expand per-A index ranges, gated over [lo, hi], into (a_index, b_index) pairs by blocks.

    Yields (c, ia, ib) for each block of PAIR_BLOCK consecutive pairs: pair k
    joins A click c + ia[k] and B click ib[k]. Blocks are cut at pair
    indices, so one A click's pairs may span two blocks. A cell yields at
    least one block, empty when it has no pairs. More than
    MAX_PAIRS_PER_CELL pairs are refused before any is allocated.
    """
    counts = j1 - j0
    total = int(counts.sum())
    if total > MAX_PAIRS_PER_CELL:
        raise ValueError(
            f"{total} click pairs in one cell's gated range [{lo}, {hi}] ns exceed the cap "
            f"of {MAX_PAIRS_PER_CELL}; lower the rate or the duration, or narrow the range"
        )
    ends = counts.cumsum()
    # pair k of A click i is B index k + shift[i]
    shift = j0 - (ends - counts)
    c = 0
    for start in range(0, max(total, 1), PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, total)
        # A clicks c, which holds pair start, to c1 - 1, which holds pair stop - 1.
        # A cut takes pairs only from those two; held views counts, and a
        # count the cut overwrote is set again from ends in the next block
        c1 = int(ends.searchsorted(stop)) + 1
        held = counts[c:c1]
        if start:
            held[0] = ends[c] - start
        if stop < total:
            held[-1] -= ends[c1 - 1] - stop
        yield c, np.arange(held.size).repeat(held), np.arange(start, stop) + shift[c:c1].repeat(held)
        c = c1 - 1


def spectrum_bin_edges(w: WindowConfig,
                       spectrum_range: tuple[float, float] | None = None) -> np.ndarray:
    """Bin edges of the spectrum over spectrum_range, checked against the window.

    The range must contain the coincidence window and be an exact number of
    bin widths, at most MAX_SPECTRUM_BINS of them; when omitted it extends
    from well before the window to well after it so the accidental floor on
    both sides is visible.
    """
    if spectrum_range is None:
        lo = w.window_lo - 5.0 * w.span - 10.0
        hi = w.window_hi + 5.0 * w.span + 10.0
    else:
        lo, hi = float(spectrum_range[0]), float(spectrum_range[1])
        if not lo < hi:
            raise ValueError(f"spectrum range must have lo < hi, got [{lo}, {hi}]")
        if lo > w.window_lo or hi < w.window_hi:
            raise ValueError(
                f"spectrum range [{lo}, {hi}] must contain the window "
                f"[{w.window_lo}, {w.window_hi}]"
            )
    n_bins_f = (hi - lo) / w.bin_width
    # before rounding or allocating: finite bounds can hold inf bins
    if not n_bins_f <= MAX_SPECTRUM_BINS:
        raise ValueError(f"spectrum range [{lo}, {hi}] holds over {MAX_SPECTRUM_BINS} bins")
    if spectrum_range is None:
        lo, hi = math.floor(lo), math.ceil(hi)
        n_bins = math.ceil((hi - lo) / w.bin_width)
    else:
        n_bins = round(n_bins_f)
        if n_bins < 1 or abs(n_bins_f - n_bins) > 1e-9 * max(1.0, n_bins_f):
            raise ValueError(
                f"bin_width {w.bin_width} ns does not evenly divide the range [{lo}, {hi}]"
            )
    return lo + w.bin_width * np.arange(n_bins + 1)


@dataclass(frozen=True, eq=False)
class CellPairs:
    """One cell's click pairs, gated once by cell_pairs.

    a holds the A times and b the B times plus the channel delay. edges
    are the spectrum's bin edges and spectrum_counts the number of pairs
    b - a in each bin. [j0[i], j1[i]) is the range of B indices inside A
    click i's window, and window_a, window_b are the A and B indices of
    every pair in the window. [k0[i], k1[i]) is A click i's range in the
    offset window [window_lo - accidental_offset, window_hi - accidental_offset].
    """

    edges: np.ndarray
    a: np.ndarray
    b: np.ndarray
    spectrum_counts: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    window_a: np.ndarray
    window_b: np.ndarray
    k0: np.ndarray
    k1: np.ndarray


def _tally(j0: np.ndarray, c: int, ia: np.ndarray, deltas: np.ndarray,
           lo: float, hi: float) -> np.ndarray:
    """Move each A click's range start j0 past its block pairs below lo; return those inside [lo, hi].

    An A click's differences rise with b, so the ones below lo and the ones
    inside [lo, hi] are consecutive runs of its gated range; [lo, hi] must
    lie inside that range. The returned indices count from the block's start.
    """
    under = deltas < lo
    n = np.bincount(ia[under.nonzero()[0]])
    j0[c:c + n.size] += n
    return ((deltas <= hi) ^ under).nonzero()[0]


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks' arrays end to end; the array of a single block is not copied."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def cell_pairs(times_a, times_b, w: WindowConfig,
               spectrum_range: tuple[float, float] | None = None) -> CellPairs:
    """Gate every pair of one cell once, over the spectrum range and the window together.

    The pairs are expanded PAIR_BLOCK at a time. Each block adds its pairs
    to the spectrum, moves the start of each A click's window and
    offset-window ranges past its pairs below them, and keeps the pairs
    inside them, from which the ranges' ends are counted. Counts add
    exactly across blocks, so nothing depends on the block size.
    """
    a = _as_sorted_array(times_a, "times_a")
    b = _as_sorted_array(times_b, "times_b") + w.channel_delay
    edges = spectrum_bin_edges(w, spectrum_range)
    # edges[0] <= window_lo, but the last edge can round one ulp below window_hi
    lo, hi = float(edges[0]), max(float(edges[-1]), w.window_hi)
    g0, g1 = _pair_ranges(a, b, lo, hi)
    off_lo = w.window_lo - w.accidental_offset
    off_hi = w.window_hi - w.accidental_offset
    read_off = lo <= off_lo and off_hi <= hi
    j0, window_a, window_b = g0.copy(), [], []
    if read_off:
        k0, offset_a = g0.copy(), []
    else:
        # gated apart: widening the union would expand every pair in between
        k0, k1 = _pair_ranges(a, b, off_lo, off_hi)
    # np.histogram's count for explicit edges, without its wrapper: bin i
    # holds edges[i] <= d < edges[i + 1], and the last bin is closed. So
    # below[i] counts the differences below edge i, and below[-1] those up
    # to the last edge; differences outside the edges fall in no bin
    below = np.zeros(edges.size, dtype=np.int64)
    for c, ia, ib in _pair_blocks(g0, g1, lo, hi):
        deltas = b[ib] - a[c:][ia]
        inside = _tally(j0, c, ia, deltas, w.window_lo, w.window_hi)
        window_a.append(ia[inside] + c)
        window_b.append(ib[inside])
        if read_off:
            offset_a.append(ia[_tally(k0, c, ia, deltas, off_lo, off_hi)] + c)
        deltas.sort()
        below[:-1] += deltas.searchsorted(edges[:-1], "left")
        below[-1] += deltas.searchsorted(edges[-1], "right")
    # each A click's range ends after its pairs inside the window
    window_a = _joined(window_a)
    j1 = j0 + np.bincount(window_a, minlength=a.size)
    if read_off:
        k1 = k0 + np.bincount(_joined(offset_a), minlength=a.size)
    return CellPairs(edges=edges, a=a, b=b, spectrum_counts=below[1:] - below[:-1], j0=j0, j1=j1,
                     window_a=window_a, window_b=_joined(window_b), k0=k0, k1=k1)


def count_coincidences(pairs: CellPairs) -> int:
    """One-use coincidence count of a cell's clicks in its window."""
    return _one_use_count(pairs.j0, pairs.j1)


def estimate_accidentals_delayed(pairs: CellPairs) -> int:
    """Accidental estimate: the one-use count in the window shifted by accidental_offset."""
    return _one_use_count(pairs.k0, pairs.k1)


def build_spectrum(pairs: CellPairs) -> CoincidenceSpectrum:
    """Histogram every pairing whose difference lies in the range pairs was built with."""
    return CoincidenceSpectrum(bin_edges=pairs.edges, counts=pairs.spectrum_counts)


def estimate_accidentals_product(n_a: int, n_b: int, w: WindowConfig, duration: float) -> float:
    """Accidental estimate nA * nB * span / duration for independent streams."""
    if duration <= 0.0:
        raise ValueError(f"duration must be > 0 seconds, got {duration}")
    if n_a < 0 or n_b < 0:
        raise ValueError(f"singles counts must be >= 0, got {n_a} and {n_b}")
    return n_a * n_b * w.span / (duration * NS_PER_SECOND)


def classify_pairs_by_origin(pairs: CellPairs, ids_a, ids_b) -> tuple[int, int]:
    """Split a cell's in-window pairings into same-emission and different-emission.

    ids_a and ids_b tag each click with its emission. This is a
    simulation-only ground truth that no real counting experiment can
    access. Pairings are all-pairs in the window, so the two add up to
    every pairing in it.
    """
    ja = np.asarray(ids_a)
    jb = np.asarray(ids_b)
    if ja.size != pairs.a.size or jb.size != pairs.b.size:
        raise ValueError("emission id arrays must match the click arrays in length")
    same = int(np.count_nonzero(ja[pairs.window_a] == jb[pairs.window_b]))
    return same, int(pairs.window_a.size - same)
