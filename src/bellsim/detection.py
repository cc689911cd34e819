"""Detector-side transforms: polariser transmission, click generation, dead time.

Two click models are supported. The particle model draws a Malus-law
transmission decision and an efficiency decision, then stamps the click at
the (possibly delayed) emission time plus Gaussian jitter. Each decision is
the float64 comparison of a uniform draw with its probability, made with
less arithmetic where the answer is certain: the Malus test compares with
a float32 cos^2 and recomputes in float64 only the draws near it, an
efficiency of 1 passes every draw without making it, and only the clicks'
normals are scaled to jitter. Every draw keeps its full size in the stream
(a skipped one is advanced past), so no report byte depends on these
shortcuts. The wave model
treats each signal as an exponentially decaying intensity envelope and
samples the click time from the induced detection hazard, so attenuating
the envelope both lowers the click probability and pushes the click later.

simulate_side runs one side's chain over a whole emission stream at once:
candidate clicks for every emission, then one time sort, then the dead
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bellsim.coincidence import searchsorted_by_difference
from bellsim.source import EmissionStream
from bellsim.validation import check_bool, check_choice, check_number, require_numbers

MODELS = ("particle", "wave")
EFFICIENCY_FNS = ("constant", "cosine_modulated")
SIDES = ("A", "B")
# DetectorConfig refuses a multi-click wave detector over this many hazard units,
# wave_gain * wave_decay_tau, about the clicks of one emission without dead time;
# the re-hit loop takes one numpy step, 10 to 15 us on a 2-core box, per click of
# the busiest emission: 1,000 keeps a side near 10 to 15 ms
MAX_WAVE_HAZARD = 1_000
# the float32 Malus pre-test's bounds; the error budget is in _malus_transmitted
MALUS_MARGIN = 1.0e-5
MALUS_MAX_REL = 16.0


@dataclass(frozen=True)
class PolariserSetting:
    """A polariser slot on one arm: either absent or set to an angle.

    angle None means no polariser in the beam; a set angle is stored as a
    float, reduced mod pi. insertion_delay (ns) is the extra propagation
    delay the inserted element adds; it applies only when the polariser is
    present.
    """

    angle: float | None = None
    insertion_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.angle is not None:
            check_number("angle", self.angle)
            object.__setattr__(self, "angle", float(self.angle % math.pi))
        check_number("insertion_delay", self.insertion_delay, ge=0.0)

    @property
    def present(self) -> bool:
        return self.angle is not None

    @property
    def effective_delay(self) -> float:
        return self.insertion_delay if self.present else 0.0


ABSENT = PolariserSetting()


@dataclass(frozen=True)
class DetectorConfig:
    """Per-side detector and model parameters. Times in ns."""

    model: str = "particle"
    eta0: float = 1.0  # base detection efficiency
    efficiency_fn: str = "constant"
    modulation_depth: float = 0.0  # used by cosine_modulated
    enhancement_factor: float = 1.0  # efficiency multiplier with polariser present
    jitter_sigma: float = 1.0
    dead_time: float = 16.0
    wave_decay_tau: float = 5.0  # intensity decay constant, wave model
    wave_gain: float = 1.0  # hazard per unit intensity per ns, wave model
    allow_multiple_detections: bool = False

    def __post_init__(self) -> None:
        check_choice("model", self.model, MODELS)
        check_choice("efficiency_fn", self.efficiency_fn, EFFICIENCY_FNS)
        require_numbers(self, "eta0", "modulation_depth", ge=0.0, le=1.0)
        require_numbers(self, "enhancement_factor", ge=1.0)
        require_numbers(self, "jitter_sigma", "dead_time", ge=0.0)
        # the wave fields are only bounded where the wave model reads them
        wave = self.model == "wave"
        require_numbers(self, "wave_decay_tau", gt=0.0 if wave else None)
        require_numbers(self, "wave_gain", ge=0.0 if wave else None)
        check_bool("allow_multiple_detections", self.allow_multiple_detections)
        if self.eta0 * self.enhancement_factor > 1.0:
            raise ValueError(
                "eta0 * enhancement_factor must stay <= 1: "
                f"{self.eta0} * {self.enhancement_factor} exceeds it"
            )
        if wave and self.allow_multiple_detections:
            hazard = self.wave_gain * self.wave_decay_tau
            if hazard > MAX_WAVE_HAZARD:
                raise ValueError(
                    f"wave_gain * wave_decay_tau is {hazard} hazard units, over the cap of "
                    f"{MAX_WAVE_HAZARD} for multiple detections")


@dataclass(frozen=True, eq=False)
class ClickStream:
    """Time-sorted clicks of one side, tagged with the emission they came from."""

    times: np.ndarray
    emission_index: np.ndarray

    @property
    def size(self) -> int:
        return int(self.times.size)


def _dead_time_keep_mask(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Non-paralyzable keep-mask over a sorted array, without a per-click loop.

    The rule is the greedy scan: keep a click when t - last >= dead_time,
    where last is the most recent kept click. Any click whose gap to its
    predecessor is >= dead_time is always kept (the kept click before it can
    only be earlier), so such clicks start conflict runs. Every other click
    is dropped unless rescued inside its run; the second click of a run
    never is. In runs of three or more, the kept clicks are the orbit of the
    run's first click under next(i), the first click j with t[j] - t[i] >=
    dead_time (the scan's own test, see searchsorted_by_difference). next(i)
    lies in i's run or is the click that ends it, which is at least
    dead_time after every member, and so is every later click. So next is
    searched for among the long runs' members alone, not over all of
    times, and a result past the run's last member leaves the run. The
    orbits of all runs are collected at once by pointer doubling: with the
    clicks less than 2^k jumps from their run's first click collected, one
    step adds their images under the 2^k-fold jump and squares the jump
    table. The number of steps is log2 of the most clicks kept in one run.
    """
    n = times.size
    keep = np.ones(n, dtype=bool)
    np.greater_equal(times[1:] - times[:-1], dead_time, out=keep[1:])
    run_starts = keep.nonzero()[0]
    lengths = np.concatenate((run_starts[1:], [n])) - run_starts
    long_runs = (lengths > 2).nonzero()[0]
    if not long_runs.size:
        return keep
    starts, lengths = run_starts[long_runs], lengths[long_runs]
    # members of the long runs, back to back; local index k is members[k]
    local_starts = np.cumsum(lengths) - lengths
    members = np.arange(lengths.sum()) + np.repeat(starts - local_starts, lengths)
    member_times = times[members]
    nxt = searchsorted_by_difference(member_times, member_times, dead_time)
    sink = members.size  # jumps that leave the run end here
    jump = np.concatenate((np.where(nxt < np.repeat(local_starts + lengths, lengths), nxt, sink),
                           [sink]))
    kept = local_starts
    while True:
        further = jump[kept]
        further = further[(further != sink).nonzero()[0]]
        if not further.size:
            break
        kept = np.concatenate((kept, further))
        jump = jump[jump]
    keep[members[kept]] = True
    return keep


def _malus_transmitted(u: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """u < cos(rel) ** 2 in float64, decided mostly from a float32 cosine.

    c2 = float64(cos(float32(rel))) ** 2 settles every element with
    |u - c2| > MALUS_MARGIN; the rest, about 1 in 50k of uniform draws, are
    recomputed with the float64 expression itself. Error budget: in a
    generated stream lam and the angle both lie in [0, pi), so rel lies in
    (-pi, pi), and |d cos^2 / d rel| = |sin 2 rel| <= 1. Rounding rel to
    float32 then moves cos^2 by at most 2^-24 * pi, about 1.9e-7, and the
    float32 cosine adds a few ulp, about 3e-7; squaring a float32 in float64
    is exact. The error stays under 1e-6, 10x inside the margin. A
    hand-built stream may hold any lam, so a side with some |rel| over
    MALUS_MAX_REL (rounding alone up to 2^-24 * 16, about 1e-6) is decided
    in float64 throughout.
    """
    rel32 = rel.astype(np.float32)
    if rel32.size and not np.abs(rel32).max() <= MALUS_MAX_REL:
        return u < np.cos(rel) ** 2
    diff = np.cos(rel32).astype(np.float64)
    np.square(diff, out=diff)
    np.subtract(u, diff, out=diff)  # u - c2 < 0 exactly when u < c2
    transmitted = diff < 0.0
    near = (np.abs(diff, out=diff) <= MALUS_MARGIN).nonzero()[0]
    transmitted[near] = u[near] < np.cos(rel[near]) ** 2
    return transmitted


def _skip_uniforms(rng: np.random.Generator, n: int) -> None:
    """Leave rng where rng.random(n) would, without making the n doubles.

    PCG64's random() takes one 64-bit output per double, so advance(n) lands
    on the same state, unless a buffered 32-bit half is pending: advance
    drops it and random() keeps it. Other generators draw.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.PCG64) and not bit_generator.state["has_uint32"]:
        bit_generator.advance(n)
    else:
        rng.random(n)


def _particle_candidates(stream: EmissionStream, side: str, setting: PolariserSetting,
                         config: DetectorConfig, rng: np.random.Generator):
    # every draw keeps its size in the stream whatever decides it: n Malus
    # uniforms behind a polariser, then n efficiency uniforms, then n normals
    n = stream.size
    eta = config.eta0
    if setting.present:
        rel = stream.lam - setting.angle
        passed = _malus_transmitted(rng.random(n), rel)
        if config.efficiency_fn == "cosine_modulated":
            eta = eta * (1.0 - config.modulation_depth * np.sin(rel) ** 2)
        eta = eta * config.enhancement_factor
    else:
        passed = np.ones(n, dtype=bool)
    if np.ndim(eta) == 0 and eta >= 1.0:
        _skip_uniforms(rng, n)  # every uniform in [0, 1) would pass
    else:
        passed &= rng.random(n) < eta
    ids = passed.nonzero()[0]
    # normal(0, sigma) is 0 + sigma * z, so scaling only the clicks' z moves no
    # time; summed per click as ((t0 + insertion delay) + cascade delay) + jitter
    z = rng.standard_normal(n)
    times = stream.t0[ids] + setting.effective_delay
    if side == "B":
        times += stream.b_delay[ids]
    times += config.jitter_sigma * z[ids]
    return times, ids.astype(np.int64, copy=False)


def _wave_candidates(stream: EmissionStream, setting: PolariserSetting,
                     config: DetectorConfig, rng: np.random.Generator):
    """Unsorted (times, emission ids) from the hazard wave_gain * I0 * exp(-t/tau).

    I0 is cos^2(lam - angle) behind a polariser and 1 without; with
    allow_multiple_detections sampling resumes dead_time after each click.
    """
    n = stream.size
    tau = config.wave_decay_tau
    if setting.present:
        i0 = np.cos(stream.lam - setting.angle) ** 2
    else:
        i0 = np.ones(n)
    total = config.wave_gain * i0 * tau
    base = stream.t0 + setting.effective_delay

    # the first click is a re-hit at t = 0 with all of the hazard left;
    # standard_exponential(k) is exponential(1.0, k) without its exact
    # scaling by 1. A step's arrays are new, not updated in place: in-place
    # ufuncs cost more on the few-element arrays of the last re-hits
    idx, survival, budget = np.arange(n), np.ones(n), total
    all_times, all_ids = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    while True:
        eps = rng.standard_exponential(idx.size)
        hit = (eps < budget).nonzero()[0]  # a zero budget can never pass, eps > 0
        idx = idx[hit]
        if idx.size == 0:
            break
        hit_total = total[idx]
        survival = survival[hit] - eps[hit] / hit_total
        offsets = -tau * np.log(survival)
        all_times.append(base[idx] + offsets + rng.normal(0.0, config.jitter_sigma, idx.size))
        all_ids.append(idx)
        if not config.allow_multiple_detections:
            break
        survival = np.exp(-(offsets + config.dead_time) / tau)
        budget = hit_total * survival
    return np.concatenate(all_times), np.concatenate(all_ids)


def simulate_side(stream: EmissionStream, side: str, setting: PolariserSetting,
                  config: DetectorConfig, rng: np.random.Generator) -> ClickStream:
    """Run one side's full detection chain over an emission stream.

    Candidates are generated per emission under the configured model, merged
    into time order, then thinned by the detector dead time.
    """
    check_choice("side", side, SIDES)
    if config.model == "particle":
        times, ids = _particle_candidates(stream, side, setting, config, rng)
    else:
        times, ids = _wave_candidates(stream, setting, config, rng)
    order = times.argsort(kind="stable")
    times = times[order]
    kept = _dead_time_keep_mask(times, config.dead_time).nonzero()[0]
    return ClickStream(times=times[kept], emission_index=ids[order[kept]])

