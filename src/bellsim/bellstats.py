"""Single-channel Bell-type test statistics on a four-configuration count table.

The count table holds coincidence rates for the four polariser
configurations of a single-channel experiment: x with the relative angle at
the first test setting, y at the second, z with only one polariser in, and
Z with both removed. Four statistics are evaluated, each against its
local-realist limit:

    s_std       4 * (x - y) / (x + y)            limit 2
    s_vis       (max + min) / (max - min)        limit 1.71 (from a full curve)
    s_chsh      (3x - y - 2z) / Z                limit 0
    s_freedman  (x - y) / Z                      limit 0.25

A statistic counts as violated only when it exceeds its limit, exactly.
Undefined values (zero denominators) are reported as None, never raised.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from bellsim.validation import check_keys, check_number, require_numbers

LIMITS: dict[str, float] = {
    "s_std": 2.0,
    "s_vis": 1.71,
    "s_chsh": 0.0,
    "s_freedman": 0.25,
}

CONFIG_KEYS = ("x", "y", "z", "Z")
_ACC_FIELDS = tuple(f"acc_{k}" for k in CONFIG_KEYS)


@dataclass(frozen=True)
class RunCounts:
    """Coincidence totals per polariser configuration, plus accidentals.

    x: both polarisers in, relative angle at the first test setting
    y: both polarisers in, relative angle at the second test setting
    z: polariser on one side only
    Z: no polarisers
    acc_*: accidental estimates for the same configurations (None = absent)
    duration: accumulation time in seconds, common to all configurations
    """

    x: float
    y: float
    z: float
    Z: float
    acc_x: float | None = None
    acc_y: float | None = None
    acc_z: float | None = None
    acc_Z: float | None = None
    duration: float = 1.0

    def __post_init__(self) -> None:
        require_numbers(self, *CONFIG_KEYS,
                        *(name for name in _ACC_FIELDS if getattr(self, name) is not None))
        require_numbers(self, "duration", ge=0.0)

    @property
    def has_accidentals(self) -> bool:
        return all(getattr(self, name) is not None for name in _ACC_FIELDS)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunCounts":
        check_keys("counts", data, (f.name for f in dataclasses.fields(cls)), CONFIG_KEYS)
        return cls(**data)


@dataclass(frozen=True)
class StatResult:
    """One statistic with its limit; violated is None when undefined."""

    name: str
    value: float | None
    limit: float
    violated: bool | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _stat(name: str, numerator: float, denominator: float) -> StatResult:
    if denominator == 0.0:
        return StatResult(name=name, value=None, limit=LIMITS[name], violated=None)
    value = numerator / denominator
    return StatResult(name=name, value=value, limit=LIMITS[name],
                      violated=value > LIMITS[name])


@dataclass(frozen=True)
class BellReport:
    """All statistics for one count table, tagged with the counts variant."""

    variant: str  # raw | corrected | truth
    s_std: StatResult
    s_chsh: StatResult
    s_freedman: StatResult
    visibility: float | None = None  # two-point (x - y) / (x + y) when defined
    negative_counts: bool = False  # subtraction drove some count below zero
    no_data: bool = False  # all four configuration counts were zero

    def statistics(self) -> tuple[StatResult, ...]:
        return (self.s_std, self.s_chsh, self.s_freedman)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "statistics": {s.name: s.to_dict() for s in self.statistics()},
            "visibility": self.visibility,
            "negative_counts": self.negative_counts,
            "no_data": self.no_data,
        }


def subtract_accidentals(counts: RunCounts) -> RunCounts:
    """Subtract each configuration's accidental estimate from its count.

    Results may go negative; that is preserved (and flagged downstream)
    rather than clamped, since clamping would hide over-subtraction.
    """
    if not counts.has_accidentals:
        missing = [n for n in _ACC_FIELDS if getattr(counts, n) is None]
        raise ValueError(f"cannot subtract accidentals, missing: {', '.join(missing)}")
    differences = {k: getattr(counts, k) - getattr(counts, f"acc_{k}") for k in CONFIG_KEYS}
    return dataclasses.replace(counts, **differences, **dict.fromkeys(_ACC_FIELDS))


def compute_bell_statistics(counts: RunCounts, variant: str = "raw") -> BellReport:
    """Evaluate the three count-table statistics on one RunCounts.

    The visibility statistic s_vis needs the extremes of a full coincidence
    curve, which a four-configuration table does not contain; use
    compute_visibility_statistic for that. The two-point visibility
    (x - y) / (x + y) is reported for reference.
    """
    # in floats, where sums of JSON ints near the float limit overflow to inf
    x, y, z, Z = (float(getattr(counts, name)) for name in CONFIG_KEYS)
    return BellReport(
        variant=variant,
        s_std=_stat("s_std", 4.0 * (x - y), x + y),
        s_chsh=_stat("s_chsh", 3.0 * x - y - 2.0 * z, Z),
        s_freedman=_stat("s_freedman", x - y, Z),
        visibility=(x - y) / (x + y) if x + y != 0.0 else None,
        negative_counts=any(v < 0.0 for v in (x, y, z, Z)),
        no_data=all(v == 0.0 for v in (x, y, z, Z)),
    )


def compute_visibility_statistic(curve: Sequence[tuple[float, float]]) -> tuple[float, StatResult]:
    """Visibility V and the s_vis statistic from a coincidence-rate curve.

    curve is a sequence of (relative_angle, rate) points covering the curve
    well enough that its max and min are represented. Returns (V, s_vis)
    where V = (max - min) / (max + min) and s_vis = (max + min) / (max - min).
    A flat curve has V = 0 and an undefined s_vis.
    """
    if len(curve) < 2:
        raise ValueError(f"curve needs at least 2 points, got {len(curve)}")
    for i, (_, rate) in enumerate(curve):
        check_number(f"curve rate {i}", rate, ge=0.0)
    rates = [float(r) for _, r in curve]
    hi, lo = max(rates), min(rates)
    visibility = (hi - lo) / (hi + lo) if hi > lo else 0.0
    return visibility, _stat("s_vis", hi + lo, hi - lo)
