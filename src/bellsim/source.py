"""Photon-pair emission streams.

An atomic-cascade source emits pairs at random times. Each pair carries a
hidden polarization angle lambda shared by both signals, and the second
cascade photon (side B) leaves after an exponentially distributed lifetime
delay. Two arrival processes are supported: a plain Poisson process and a
renewal process with a hard minimum separation between emissions, which
mimics sources whose emissions cannot overlap.

All times are in nanoseconds unless a field says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bellsim.validation import check_choice, require_numbers

NS_PER_SECOND = 1.0e9
# a cell's peak memory, pair gate included, grows by at most about 140 bytes
# per emission (traced, an aspect-like Z cell at 2e5/s; 91 to 98 at 3e7/s), so
# this keeps a run under about 2.8 GB: a scenario runs only as many cells at
# once, and a sweep only as many processes, as their largest cells fit under it
MAX_EMISSIONS_PER_CELL = 20_000_000

PROCESSES = ("poisson", "min_separation")
HIDDEN_VARIABLE_MODES = ("uniform", "fixed")


@dataclass(frozen=True, eq=False)
class EmissionStream:
    """Column-wise batch of pair emissions, sorted by emission time."""

    t0: np.ndarray
    lam: np.ndarray
    b_delay: np.ndarray

    def __post_init__(self) -> None:
        n = self.t0.size
        for name in ("lam", "b_delay"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name!r} has size {getattr(self, name).size}, expected {n}")

    @property
    def size(self) -> int:
        return int(self.t0.size)


@dataclass(frozen=True)
class EmissionConfig:
    """Source parameters.

    mean_rate is in emissions per second and duration in seconds; min_gap
    and cascade_lifetime_tau are in nanoseconds like every other time in
    the simulation.
    """

    mean_rate: float = 1.0e5
    duration: float = 0.1
    process: str = "poisson"
    min_gap: float = 0.0  # hard core between emissions, min_separation only
    cascade_lifetime_tau: float = 5.0  # mean of the exponential B delay
    hidden_variable: str = "uniform"
    fixed_angle: float = 0.0  # rad, used when hidden_variable == "fixed"

    def __post_init__(self) -> None:
        check_choice("process", self.process, PROCESSES)
        check_choice("hidden_variable", self.hidden_variable, HIDDEN_VARIABLE_MODES)
        require_numbers(self, "mean_rate", gt=0.0)
        require_numbers(self, "duration", "min_gap", "cascade_lifetime_tau", ge=0.0)
        require_numbers(self, "fixed_angle")
        if self.process == "min_separation":
            # mean gap is 1/rate; a hard core at or above it leaves no room
            # for the exponential part and no stationary process exists
            # no division: a product of two JSON ints can overflow a float
            if self.mean_rate * self.min_gap >= NS_PER_SECOND:
                raise ValueError(
                    "min_separation needs mean_rate * min_gap < 1 second of budget: "
                    f"rate {self.mean_rate}/s with min_gap {self.min_gap} ns has none"
                )
        if not math.isfinite(self.duration * NS_PER_SECOND):
            raise ValueError(f"duration {self.duration} s is too long to hold in ns")
        if self.mean_rate * self.duration > MAX_EMISSIONS_PER_CELL:
            raise ValueError(
                f"mean_rate {self.mean_rate}/s over duration {self.duration} s expects more "
                f"than {MAX_EMISSIONS_PER_CELL} emissions per cell"
            )

    @property
    def mean_gap_ns(self) -> float:
        return NS_PER_SECOND / self.mean_rate


def _renewal_arrivals(rng: np.random.Generator, duration_ns: float,
                      hard_gap: float, exp_scale: float) -> np.ndarray:
    """Arrival times on (0, duration_ns) with gaps hard_gap + Exp(exp_scale)."""
    mean_gap = hard_gap + exp_scale
    expected = duration_ns / mean_gap
    chunk = int(expected + 10.0 * math.sqrt(expected + 1.0)) + 16
    blocks = [np.zeros(0)]  # so that a zero duration concatenates to no times
    t_end = 0.0
    while t_end < duration_ns:
        gaps = rng.exponential(exp_scale, chunk)
        gaps += hard_gap
        block = t_end + gaps.cumsum()
        t_end = float(block[-1])
        blocks.append(block)
    times = np.concatenate(blocks)
    # running sums of nonnegative gaps: the times before duration_ns are a prefix
    return times[:np.searchsorted(times, duration_ns)]


def generate_emissions(config: EmissionConfig, seed=None) -> EmissionStream:
    """Draw a full emission stream for one run.

    seed is anything numpy's default_rng accepts (int, SeedSequence,
    Generator). The cascade delay b_delay is drawn from
    Exp(cascade_lifetime_tau), exactly zero when that is 0, and last, so it
    moves no other draw. Only the particle model reads it: the wave model's
    two envelopes leave together.
    """
    rng = np.random.default_rng(seed)
    duration_ns = config.duration * NS_PER_SECOND
    if config.process == "poisson":
        hard_gap, exp_scale = 0.0, config.mean_gap_ns
    else:
        hard_gap = config.min_gap
        exp_scale = config.mean_gap_ns - config.min_gap
    t0 = _renewal_arrivals(rng, duration_ns, hard_gap, exp_scale)
    n = t0.size
    if config.hidden_variable == "uniform":
        lam = rng.uniform(0.0, np.pi, n)
    else:
        lam = np.full(n, config.fixed_angle % math.pi)
    b_delay = rng.exponential(config.cascade_lifetime_tau, n)
    return EmissionStream(t0=t0, lam=lam, b_delay=b_delay)
