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
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

LIMITS: dict[str, float] = {
    "s_std": 2.0,
    "s_vis": 1.71,
    "s_chsh": 0.0,
    "s_freedman": 0.25,
}

_COUNT_FIELDS = ("x", "y", "z", "Z")
_ACC_FIELDS = ("acc_x", "acc_y", "acc_z", "acc_Z")


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
        for name in (*_COUNT_FIELDS, *_ACC_FIELDS, "duration"):
            if isinstance(getattr(self, name), bool):  # an int to Python, not a count
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in _COUNT_FIELDS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"count {name} must be a finite number, got {v!r}")
        for name in _ACC_FIELDS:
            v = getattr(self, name)
            if v is not None and not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number or None, got {v!r}")
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be >= 0 seconds, got {self.duration}")

    @property
    def has_accidentals(self) -> bool:
        return all(getattr(self, name) is not None for name in _ACC_FIELDS)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in (*_COUNT_FIELDS, *_ACC_FIELDS, "duration")}

    @classmethod
    def from_dict(cls, data: dict) -> "RunCounts":
        known = {*(f.name for f in dataclasses.fields(cls))}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown counts field(s): {', '.join(sorted(unknown))}")
        missing = [name for name in _COUNT_FIELDS if name not in data]
        if missing:
            raise ValueError(f"missing counts field(s): {', '.join(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class StatResult:
    """One statistic with its limit; violated is None when undefined."""

    name: str
    value: float | None
    limit: float
    violated: bool | None

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "limit": self.limit, "violated": self.violated}


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
    s_vis: StatResult | None = None  # needs a full angle curve, often absent
    visibility: float | None = None  # two-point (x - y) / (x + y) when defined
    negative_counts: bool = False  # subtraction drove some count below zero
    no_data: bool = False  # all four configuration counts were zero

    def statistics(self) -> Iterable[StatResult]:
        for s in (self.s_std, self.s_chsh, self.s_freedman, self.s_vis):
            if s is not None:
                yield s

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
    return dataclasses.replace(
        counts,
        x=counts.x - counts.acc_x,
        y=counts.y - counts.acc_y,
        z=counts.z - counts.acc_z,
        Z=counts.Z - counts.acc_Z,
        acc_x=None, acc_y=None, acc_z=None, acc_Z=None,
    )


def _two_point_visibility(x: float, y: float) -> float | None:
    if x + y == 0.0:
        return None
    return (x - y) / (x + y)


def compute_bell_statistics(counts: RunCounts, variant: str = "raw") -> BellReport:
    """Evaluate the three count-table statistics on one RunCounts.

    The visibility statistic s_vis needs the extremes of a full coincidence
    curve, which a four-configuration table does not contain; use
    compute_visibility_statistic for that. The two-point visibility
    (x - y) / (x + y) is reported for reference.
    """
    x, y, z, Z = counts.x, counts.y, counts.z, counts.Z
    return BellReport(
        variant=variant,
        s_std=_stat("s_std", 4.0 * (x - y), x + y),
        s_chsh=_stat("s_chsh", 3.0 * x - y - 2.0 * z, Z),
        s_freedman=_stat("s_freedman", x - y, Z),
        visibility=_two_point_visibility(x, y),
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
    rates = [float(r) for _, r in curve]
    if any(not math.isfinite(r) or r < 0.0 for r in rates):
        raise ValueError("curve rates must be finite and nonnegative")
    hi, lo = max(rates), min(rates)
    if hi + lo == 0.0:
        return 0.0, StatResult(name="s_vis", value=None, limit=LIMITS["s_vis"], violated=None)
    visibility = (hi - lo) / (hi + lo)
    return visibility, _stat("s_vis", hi + lo, hi - lo)
