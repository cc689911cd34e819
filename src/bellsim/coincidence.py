"""Coincidence counting, time-difference spectra, and accidental estimation.

The counting convention follows hardware coincidence circuits: the B stream
is shifted by the channel delay, and a pair is accepted when the shifted
difference falls inside [window_lo, window_hi]. Counts use one-use greedy
matching in time order, the way a circuit consumes pulses; spectra histogram
every pairing in range, the way a time-to-amplitude converter records them.

Every consumer gates a pair the same way: on the difference b - a itself,
lo <= b - a <= hi, never on b >= a + lo, which rounds differently for
non-integer bounds. _pair_ranges finds, for each A click, the range of B
indices that pass this gate: a searchsorted on a + bound gives a first
guess, which is then corrected with the subtraction.

A simulated cell runs this gate once for its window, its spectrum and its
ground truth. cell_pairs gates over the union of the spectrum range and
the window, not over the spectrum edges alone: an edge computed as
lo + k * bin_width can fall one ulp short of window_hi. It keeps every
pair's difference b - a. The spectrum histograms the differences inside
its edges. Each A click's window range is read off its own differences:
the range starts after those below window_lo and holds those inside the
window. The difference is monotone in b, so these are the ranges the gate
returns. count_coincidences, build_spectrum and classify_pairs_by_origin
take the result as pairs=; without it they gate for themselves. The
delayed estimate keeps its own gate. Its difference is
(tB + (channel_delay + offset)) - tA, which rounds differently from the
cell's (tB + channel_delay) - tA plus offset, so it cannot be read off
the same differences.

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

from bellsim.validation import check_number, require_numbers

NS_PER_SECOND = 1.0e9
MAX_SPECTRUM_BINS = 1_000_000


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
        # the delayed estimate shifts B by this sum
        check_number("channel_delay + accidental_offset",
                     self.channel_delay + self.accidental_offset)
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


@dataclass(frozen=True)
class CoincidenceSpectrum:
    """Histogram of B-minus-A time differences (after the channel delay)."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total_pairs_considered: int

    def __post_init__(self) -> None:
        if self.bin_edges.size != self.counts.size + 1:
            raise ValueError("bin_edges must have exactly one more entry than counts")
        if np.any(self.counts < 0):
            raise ValueError("spectrum counts must be nonnegative")

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def window_integral(self, lo: float, hi: float) -> int:
        """Sum counts over [lo, hi]; the bounds must sit on bin edges."""
        i0 = int(np.argmin(np.abs(self.bin_edges - lo)))
        i1 = int(np.argmin(np.abs(self.bin_edges - hi)))
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        if abs(self.bin_edges[i0] - lo) > tol or abs(self.bin_edges[i1] - hi) > tol:
            raise ValueError(f"[{lo}, {hi}] does not align with the spectrum bin edges")
        return int(self.counts[i0:i1].sum())

    def to_dict(self) -> dict:
        return {
            "bin_edges_ns": [float(e) for e in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "total_pairs_considered": int(self.total_pairs_considered),
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


def searchsorted_by_difference(b: np.ndarray, a: np.ndarray, bound: float,
                               side: str = "left") -> np.ndarray:
    """For each a, np.searchsorted(b - a, bound, side), with b - a computed per element.

    side "left" gives the first j with b[j] - a >= bound, "right" the first
    with b[j] - a > bound. The difference is monotone in b[j], so the
    passing indices form a suffix. searchsorted(b, a + bound) is only a
    guess, because fl(a + bound) - a can differ from bound; the guess is
    then moved one distinct value of b at a time until the subtraction
    agrees on both sides of it.
    """
    passes = np.greater if side == "right" else np.greater_equal
    # padded[j] is b[j - 1] and padded[j + 1] is b[j]; -inf never passes and
    # +inf always does, so every guess j has both neighbours
    padded = np.concatenate(([-np.inf], b, [np.inf]))
    j = np.searchsorted(b, a + bound, side=side)
    while True:
        below_passes, at_passes = passes(padded[j + _NEIGHBOURS] - a, bound)
        if below_passes.any():
            j[below_passes] = np.searchsorted(padded, padded[j[below_passes]], side="left") - 1
        elif not at_passes.all():
            fails = ~at_passes
            j[fails] = np.searchsorted(padded, padded[j[fails] + 1], side="right") - 1
        else:
            return j


def _pair_ranges(a: np.ndarray, b_shifted: np.ndarray, lo: float, hi: float):
    """For each A click, the index range [j0, j1) of B clicks with lo <= b - a <= hi."""
    j0 = searchsorted_by_difference(b_shifted, a, lo, side="left")
    j1 = searchsorted_by_difference(b_shifted, a, hi, side="right")
    return j0, j1


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
    idx = np.flatnonzero(chained)
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


def _expand_pairs(j0: np.ndarray, j1: np.ndarray):
    """Expand per-A index ranges into flat (a_index, b_index) arrays."""
    counts = j1 - j0
    total = int(counts.sum())
    ia = np.repeat(np.arange(j0.size), counts)
    if total == 0:
        return ia, np.zeros(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ib = np.arange(total) - np.repeat(offsets, counts) + np.repeat(j0, counts)
    return ia, ib.astype(np.int64)


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

    a holds the A times and b the B times plus the channel delay. deltas
    holds b - a for every pair in the gated range, A click by A click, and
    [j0[i], j1[i]) is the range of B indices inside A click i's window.
    """

    w: WindowConfig
    edges: np.ndarray
    a: np.ndarray
    b: np.ndarray
    deltas: np.ndarray
    j0: np.ndarray
    j1: np.ndarray


def _sorted_pair(times_a, times_b, w: WindowConfig) -> tuple[np.ndarray, np.ndarray]:
    """The validated A times and the validated B times shifted by the channel delay."""
    return (_as_sorted_array(times_a, "times_a"),
            _as_sorted_array(times_b, "times_b") + w.channel_delay)


def cell_pairs(times_a, times_b, w: WindowConfig,
               spectrum_range: tuple[float, float] | None = None) -> CellPairs:
    """Gate every pair of one cell once, over the spectrum range and the window together."""
    a, b = _sorted_pair(times_a, times_b, w)
    edges = spectrum_bin_edges(w, spectrum_range)
    # the last edge can round one ulp below window_hi, hence the union
    g0, g1 = _pair_ranges(a, b, min(float(edges[0]), w.window_lo),
                          max(float(edges[-1]), w.window_hi))
    ia, ib = _expand_pairs(g0, g1)
    deltas = b[ib] - a[ia]
    # an A click's differences rise with b, so the ones below the window
    # and the ones inside it are consecutive runs of its gated range
    below = deltas < w.window_lo
    j0 = g0 + np.bincount(ia[below], minlength=a.size)
    j1 = j0 + np.bincount(ia[~below & (deltas <= w.window_hi)], minlength=a.size)
    return CellPairs(w=w, edges=edges, a=a, b=b, deltas=deltas, j0=j0, j1=j1)


def _check_pairs(pairs: CellPairs, times_a, times_b, w: WindowConfig) -> None:
    if pairs.w != w or len(times_a) != pairs.a.size or len(times_b) != pairs.b.size:
        raise ValueError("pairs were built from other click arrays or another window")


def _window_ranges(times_a, times_b, w: WindowConfig, pairs: CellPairs | None):
    """Each A click's window range [j0, j1): read off pairs, or gated here without them."""
    if pairs is None:
        return _pair_ranges(*_sorted_pair(times_a, times_b, w), w.window_lo, w.window_hi)
    _check_pairs(pairs, times_a, times_b, w)
    return pairs.j0, pairs.j1


def count_coincidences(times_a, times_b, w: WindowConfig, *,
                       pairs: CellPairs | None = None) -> int:
    """One-use coincidence count between two sorted click-time arrays."""
    return _one_use_count(*_window_ranges(times_a, times_b, w, pairs))


def count_all_pairs(times_a, times_b, w: WindowConfig) -> int:
    """Every (A, B) pairing with difference inside the window, reuse allowed."""
    j0, j1 = _window_ranges(times_a, times_b, w, None)
    return int((j1 - j0).sum())


def build_spectrum(times_a, times_b, w: WindowConfig,
                   spectrum_range: tuple[float, float] | None = None, *,
                   pairs: CellPairs | None = None) -> CoincidenceSpectrum:
    """Histogram all pairings whose difference lies in spectrum_range (see spectrum_bin_edges).

    With pairs, the range is the one pairs was built with, and spectrum_range
    must be left out.
    """
    if pairs is None:
        pairs = cell_pairs(times_a, times_b, w, spectrum_range)
    elif spectrum_range is not None:
        raise ValueError("pass spectrum_range to cell_pairs, not with pairs")
    else:
        _check_pairs(pairs, times_a, times_b, w)
    # differences outside the edges fall in no bin, so the counts sum to
    # the number of pairings in range
    counts, _ = np.histogram(pairs.deltas, bins=pairs.edges)
    counts = counts.astype(np.int64)
    return CoincidenceSpectrum(bin_edges=pairs.edges, counts=counts,
                               total_pairs_considered=int(counts.sum()))


def estimate_accidentals_delayed(times_a, times_b, w: WindowConfig) -> int:
    """Accidental estimate from the same window shifted by accidental_offset."""
    a = _as_sorted_array(times_a, "times_a")
    b = _as_sorted_array(times_b, "times_b") + (w.channel_delay + w.accidental_offset)
    return _one_use_count(*_pair_ranges(a, b, w.window_lo, w.window_hi))


def estimate_accidentals_product(n_a: int, n_b: int, w: WindowConfig, duration: float) -> float:
    """Accidental estimate nA * nB * span / duration for independent streams."""
    if duration <= 0.0:
        raise ValueError(f"duration must be > 0 seconds, got {duration}")
    if n_a < 0 or n_b < 0:
        raise ValueError(f"singles counts must be >= 0, got {n_a} and {n_b}")
    return n_a * n_b * w.span / (duration * NS_PER_SECOND)


def classify_pairs_by_origin(times_a, ids_a, times_b, ids_b, w: WindowConfig, *,
                             pairs: CellPairs | None = None) -> tuple[int, int]:
    """Split in-window pairings into same-emission and different-emission.

    This needs the emission tags, so it is a simulation-only ground truth
    that no real counting experiment can access. Pairings are all-pairs in
    the window; same-emission + different-emission equals count_all_pairs.
    """
    j0, j1 = _window_ranges(times_a, times_b, w, pairs)
    ja = np.asarray(ids_a)
    jb = np.asarray(ids_b)
    if ja.size != len(times_a) or jb.size != len(times_b):
        raise ValueError("emission id arrays must match the click arrays in length")
    ia, ib = _expand_pairs(j0, j1)
    same = int(np.count_nonzero(ja[ia] == jb[ib]))
    return same, int(ia.size - same)
