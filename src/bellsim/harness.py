"""End-to-end scenario orchestration, sweeps, and counts-file reanalysis.

A scenario runs the four standard polariser configurations of a
single-channel experiment for equal durations each:

    x: both polarisers in, B at the first test angle from A
    y: both polarisers in, B at the second test angle
    z: A polariser in, B polariser removed
    Z: both polarisers removed

Each (configuration, repeat) cell produces raw coincidence counts, both
accidental estimates (delayed window and singles product), a time-difference
spectrum, a simulation-only tally of in-window pairings that came from
one emission, and the share of emissions whose first clicks pair inside
the window; all but the product estimate read the cell's one pair pass,
cell_pairs. A configuration sums its repeats' cells. Each report variant of
VARIANTS (raw, corrected_delayed, corrected_product, truth) then builds one
count table from the configurations and computes its statistics on it, after
subtracting the variant's accidentals if it has any. A coincidence curve
point is configuration x at that relative angle, counted by the same cells.
A sweep runs one scenario per value and returns their reports;
sweep_csv_text writes them as a table.

A scenario is refused when it is parsed if a cell would expect more than
MAX_EMISSIONS_PER_CELL emissions, or if a multi-click wave detector would
expect more than MAX_EMISSIONS_PER_CELL clicks in a cell; the detector
config itself refuses more than MAX_WAVE_HAZARD clicks from one emission.

Seed policy: every (configuration, repeat) cell derives its RNG from
SeedSequence([seed, configuration_index, repeat_index]) and spawns three
independent child streams (emission, detector A, detector B). Cells are
therefore independent and reproducible one by one; sweep point i runs with
base seed (seed + i).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bellsim.bellstats import (
    CONFIG_KEYS,
    BellReport,
    RunCounts,
    compute_bell_statistics,
    subtract_accidentals,
)
from bellsim.coincidence import (
    CellPairs,
    CoincidenceSpectrum,
    WindowConfig,
    build_spectrum,
    cell_pairs,
    classify_pairs_by_origin,
    count_coincidences,
    estimate_accidentals_delayed,
    estimate_accidentals_product,
    spectrum_bin_edges,
)
from bellsim.detection import (
    ABSENT,
    ClickStream,
    DetectorConfig,
    PolariserSetting,
    simulate_side,
)
from bellsim.source import MAX_EMISSIONS_PER_CELL, EmissionConfig, generate_emissions
from bellsim.validation import (check_choice, check_keys, check_number, check_pair,
                                parse_json, require_numbers)

# report variant -> (ConfigurationResult count field, accidental field or None, BellReport label)
VARIANTS = {
    "raw": ("raw_count", None, "raw"),
    "corrected_delayed": ("raw_count", "acc_delayed", "corrected"),
    "corrected_product": ("raw_count", "acc_product", "corrected"),
    "truth": ("true_pairs", None, "truth"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to simulate and analyze one four-configuration run.

    The A analyzer sits at analyzer_a for every configuration that uses it;
    the B analyzer sits at analyzer_a + relative_angle_x (or _y). Insertion
    delays apply whenever the corresponding polariser is present.
    """

    emission: EmissionConfig = EmissionConfig()
    detector_a: DetectorConfig = DetectorConfig()
    detector_b: DetectorConfig = DetectorConfig()
    window: WindowConfig = WindowConfig()
    analyzer_a: float = 0.0
    relative_angle_x: float = math.pi / 8.0
    relative_angle_y: float = 3.0 * math.pi / 8.0
    insertion_delay_a: float = 0.0
    insertion_delay_b: float = 0.0
    seed: int = 0
    repeats: int = 1
    spectrum_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        require_numbers(self, "analyzer_a", "relative_angle_x", "relative_angle_y")
        require_numbers(self, "insertion_delay_a", "insertion_delay_b", ge=0.0)
        require_numbers(self, "seed", integer=True, ge=0)
        require_numbers(self, "repeats", integer=True, ge=1)
        if self.detector_a.model != self.detector_b.model:
            raise ValueError(
                f"both detectors must use the same model, got "
                f"{self.detector_a.model!r} and {self.detector_b.model!r}"
            )
        if self.spectrum_range is not None:
            check_pair("spectrum_range", self.spectrum_range)
            object.__setattr__(self, "spectrum_range", tuple(map(float, self.spectrum_range)))
        # the edges of every cell's spectrum, checked before any cell runs
        spectrum_bin_edges(self.window, self.spectrum_range)
        for side, d in (("detector_a", self.detector_a), ("detector_b", self.detector_b)):
            if d.model != "wave" or not d.allow_multiple_detections:
                continue
            hazard = d.wave_gain * d.wave_decay_tau  # DetectorConfig caps it
            clicks = self.emission.mean_rate * self.emission.duration * hazard
            if clicks > MAX_EMISSIONS_PER_CELL:
                raise ValueError(
                    f"{side} expects up to {clicks:g} clicks per cell, {hazard} hazard units "
                    f"on each emission, over the cap of {MAX_EMISSIONS_PER_CELL}")

    def polariser_settings(self, key: str) -> tuple[PolariserSetting, PolariserSetting]:
        """The (A, B) polariser slots for one configuration key."""
        pol_a = PolariserSetting(angle=self.analyzer_a, insertion_delay=self.insertion_delay_a)
        if key == "x":
            return pol_a, PolariserSetting(angle=self.analyzer_a + self.relative_angle_x,
                                           insertion_delay=self.insertion_delay_b)
        if key == "y":
            return pol_a, PolariserSetting(angle=self.analyzer_a + self.relative_angle_y,
                                           insertion_delay=self.insertion_delay_b)
        if key == "z":
            return pol_a, ABSENT
        if key == "Z":
            return ABSENT, ABSENT
        raise ValueError(f"unknown configuration key {key!r}, expected one of {CONFIG_KEYS}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["spectrum_range"] is not None:
            d["spectrum_range"] = list(d["spectrum_range"])
        return d


@dataclass(frozen=True, eq=False)
class ConfigurationResult:
    """The outcome of one cell of a polariser configuration, or of several summed with +."""

    key: str
    angle_a: float | None  # None when the polariser is out
    angle_b: float | None
    raw_count: int
    acc_delayed: int
    acc_product: float
    singles_a: int
    singles_b: int
    true_pairs: int  # in-window pairings from one emission (simulation-only)
    accidental_pairs: int  # in-window pairings from different emissions
    inclusion_inside: int  # emissions whose first A and B clicks pair inside the window
    inclusion_total: int  # emissions with a click on both sides
    spectrum: CoincidenceSpectrum

    @property
    def window_inclusion_fraction(self) -> float | None:
        """Share of the emissions clicked on both sides that pair inside the window."""
        return self.inclusion_inside / self.inclusion_total if self.inclusion_total else None

    def __add__(self, other: ConfigurationResult) -> ConfigurationResult:
        """Two cells of one configuration summed; key and angles are the shared ones."""
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in dataclasses.fields(self) if f.name not in ("key", "angle_a", "angle_b")})

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "angle_a": self.angle_a,
            "angle_b": self.angle_b,
            "raw_count": self.raw_count,
            "acc_delayed": self.acc_delayed,
            "acc_product": self.acc_product,
            "singles_a": self.singles_a,
            "singles_b": self.singles_b,
            "window_inclusion_fraction": self.window_inclusion_fraction,
            "spectrum": self.spectrum.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Full output of run_scenario; to_dict() is the JSON report shape.

    counts and reports are keyed by VARIANTS; a corrected variant's counts
    carry its accidentals, before they are subtracted.
    """

    scenario: ScenarioConfig
    configurations: dict[str, ConfigurationResult]
    counts: dict[str, RunCounts]
    reports: dict[str, BellReport]

    @property
    def no_data(self) -> bool:
        return self.reports["raw"].no_data

    def to_dict(self) -> dict:
        counts = {k: c.to_dict() for k, c in self.counts.items()}
        reports = {k: r.to_dict() for k, r in self.reports.items()}
        return {
            "scenario": self.scenario.to_dict(),
            "configurations": {k: c.to_dict() for k, c in self.configurations.items()},
            "counts": {
                "raw": counts["raw"],
                "with_delayed_accidentals": counts["corrected_delayed"],
                "with_product_accidentals": counts["corrected_product"],
            },
            "reports": {k: reports[k] for k in ("raw", "corrected_delayed", "corrected_product")},
            "simulation_only": {
                "note": "emission-tag ground truth; not observable in a real experiment",
                "true_counts": counts["truth"],
                "report_truth": reports["truth"],
                "per_configuration": {
                    k: {"true_pairs": c.true_pairs, "accidental_pairs": c.accidental_pairs}
                    for k, c in self.configurations.items()
                },
            },
            "no_data": self.no_data,
        }


def derive_rngs(seed: int, config_index: int, repeat_index: int):
    """The documented seed policy: one SeedSequence per cell, three children.

    Each child is built as SeedSequence.spawn(3) would build it, from the
    cell's entropy and spawn key (k,), without making the parent, and
    wrapped as default_rng wraps a SeedSequence, in a PCG64 Generator. The
    entropy is passed as the uint32 words SeedSequence would assemble from
    the list [seed, config_index, repeat_index]: each value little-endian,
    [0] for a zero.
    """
    words = []
    for value in (seed, config_index, repeat_index):
        if value < 0:  # as SeedSequence does; the shifts below would never reach 0
            raise ValueError(f"seed entropy must be >= 0, got {value}")
        words.append(value & 0xFFFF_FFFF)
        while value := value >> 32:
            words.append(value & 0xFFFF_FFFF)
    entropy = np.array(words, dtype=np.uint32)
    children = (np.random.SeedSequence(entropy, spawn_key=(k,)) for k in range(3))
    return tuple(np.random.Generator(np.random.PCG64(child)) for child in children)


def _first_clicks(ids: np.ndarray, size: int) -> np.ndarray:
    """Index of each emission's first click in a time-sorted stream, ids.size if none.

    Indexed by emission id over [0, size); a scatter of the minimum, no sort.
    """
    first = np.full(size, ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    return first


def _window_inclusion(pairs: CellPairs, ids_a: np.ndarray, ids_b: np.ndarray) -> tuple[int, int]:
    """Count emissions whose first A and B clicks pair inside the cell's window.

    Returns (inside, total matched emissions); a diagnostic for how much of
    the true-coincidence peak the window captures. A pair is inside when its
    B index lies in the window range [j0, j1) of its A click.
    """
    if ids_a.size == 0 or ids_b.size == 0:
        return 0, 0
    size = int(max(ids_a.max(), ids_b.max())) + 1
    first_a, first_b = _first_clicks(ids_a, size), _first_clicks(ids_b, size)
    both = ((first_a < ids_a.size) & (first_b < ids_b.size)).nonzero()[0]
    i, j = first_a[both], first_b[both]
    inside = int(np.count_nonzero((pairs.j0[i] <= j) & (j < pairs.j1[i])))
    return inside, int(both.size)


def _angle_of(setting: PolariserSetting) -> float | None:
    return float(setting.angle) if setting.present else None


def _simulate_cell(s: ScenarioConfig, cell_index: int, repeat: int, set_a: PolariserSetting,
                   set_b: PolariserSetting) -> tuple[ClickStream, ClickStream]:
    """One seed-policy cell: its emission stream, then side A's and side B's clicks."""
    # its own function so that the stream is freed before _run_cell's pair pass
    rng_em, rng_a, rng_b = derive_rngs(s.seed, cell_index, repeat)
    stream = generate_emissions(s.emission, rng_em)
    return (simulate_side(stream, "A", set_a, s.detector_a, rng_a),
            simulate_side(stream, "B", set_b, s.detector_b, rng_b))


def _run_cell(s: ScenarioConfig, config_index: int, repeat: int, key: str) -> ConfigurationResult:
    set_a, set_b = s.polariser_settings(key)
    clicks_a, clicks_b = _simulate_cell(s, config_index, repeat, set_a, set_b)
    pairs = cell_pairs(clicks_a.times, clicks_b.times, s.window, s.spectrum_range)
    inside, total = _window_inclusion(pairs, clicks_a.emission_index, clicks_b.emission_index)
    true_pairs, accidental_pairs = classify_pairs_by_origin(pairs, clicks_a.emission_index,
                                                            clicks_b.emission_index)
    return ConfigurationResult(
        key=key,
        angle_a=_angle_of(set_a),
        angle_b=_angle_of(set_b),
        raw_count=count_coincidences(pairs),
        acc_delayed=estimate_accidentals_delayed(pairs),
        acc_product=(estimate_accidentals_product(clicks_a.size, clicks_b.size, s.window,
                                                  s.emission.duration)
                     if s.emission.duration > 0.0 else 0.0),
        singles_a=clicks_a.size,
        singles_b=clicks_b.size,
        true_pairs=true_pairs,
        accidental_pairs=accidental_pairs,
        inclusion_inside=inside,
        inclusion_total=total,
        spectrum=build_spectrum(pairs),
    )


def _run_configuration(s: ScenarioConfig, config_index: int, key: str) -> ConfigurationResult:
    """The sum of the configuration's cells, one per repeat, starting from cell 0."""
    cells = (_run_cell(s, config_index, r, key) for r in range(s.repeats))
    return sum(cells, next(cells))


def run_configuration(s: ScenarioConfig, key: str) -> ConfigurationResult:
    """One configuration of run_scenario, alone: the same cells, so the same result."""
    return _run_configuration(s, CONFIG_KEYS.index(key), key)


def run_scenario(s: ScenarioConfig) -> ScenarioReport:
    """Simulate all four configurations and compute every report variant."""
    results = {key: _run_configuration(s, ci, key) for ci, key in enumerate(CONFIG_KEYS)}
    counts, reports = {}, {}
    for variant, (count_field, acc_field, label) in VARIANTS.items():
        fields = {k: getattr(c, count_field) for k, c in results.items()}
        if acc_field is not None:
            fields.update({f"acc_{k}": getattr(c, acc_field) for k, c in results.items()})
        table = counts[variant] = RunCounts(**fields, duration=s.emission.duration * s.repeats)
        reports[variant] = compute_bell_statistics(
            table if acc_field is None else subtract_accidentals(table), variant=label)
    return ScenarioReport(scenario=s, configurations=results, counts=counts, reports=reports)


def coincidence_curve(s: ScenarioConfig, relative_angles: Sequence[float]) -> list[tuple[float, int]]:
    """Raw coincidence counts vs relative analyzer angle, both polarisers in.

    Point i is configuration x with relative_angle_x at that angle. Its cell
    seeds continue the configuration-index namespace after the four standard
    configurations (index 4 + i), so the curve is reproducible and
    independent of the standard runs.
    """
    return [(float(rel), _run_configuration(dataclasses.replace(s, relative_angle_x=rel),
                                            4 + i, "x").raw_count)
            for i, rel in enumerate(relative_angles)]


SWEEP_PARAMETERS = ("window_width", "mean_rate", "accidental_offset", "min_gap", "wave_gain")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep around a fixed scenario."""

    parameter: str
    values: tuple[float, ...]  # stored as floats once checked
    fixed: ScenarioConfig
    # each point's scenario, built here so that a refused value fails before any point runs
    scenarios: tuple[ScenarioConfig, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_choice("sweep parameter", self.parameter, SWEEP_PARAMETERS)
        if len(self.values) < 1:
            raise ValueError("sweep needs at least one value")
        values, scenarios = [], []
        for i, v in enumerate(self.values):
            check_number(f"sweep values[{i}]", v)
            v = float(v)
            values.append(v)
            base = dataclasses.replace(self.fixed, seed=self.fixed.seed + i)
            try:
                scenarios.append(apply_sweep_value(base, self.parameter, v))
            except ValueError as exc:
                raise ValueError(f"sweep values[{i}]: {self.parameter} = {v}: {exc}") from None
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "scenarios", tuple(scenarios))


def apply_sweep_value(s: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Return the scenario with one swept parameter replaced."""
    if parameter == "window_width":
        w = dataclasses.replace(s.window, window_hi=s.window.window_lo + value)
        return dataclasses.replace(s, window=w)
    if parameter == "mean_rate":
        return dataclasses.replace(s, emission=dataclasses.replace(s.emission, mean_rate=value))
    if parameter == "accidental_offset":
        w = dataclasses.replace(s.window, accidental_offset=value)
        return dataclasses.replace(s, window=w)
    if parameter == "min_gap":
        process = "min_separation" if value > 0.0 else s.emission.process
        return dataclasses.replace(
            s, emission=dataclasses.replace(s.emission, min_gap=value, process=process))
    if parameter == "wave_gain":
        return dataclasses.replace(
            s,
            detector_a=dataclasses.replace(s.detector_a, wave_gain=value),
            detector_b=dataclasses.replace(s.detector_b, wave_gain=value),
        )
    raise ValueError(f"unknown sweep parameter {parameter!r}, expected one of {SWEEP_PARAMETERS}")


_SWEEP_COLUMNS = (
    "value", *CONFIG_KEYS, *(f"acc_{k}_product" for k in CONFIG_KEYS),
    "s_std_raw", "s_chsh_raw", "s_freedman_raw",
    "s_std_corrected", "s_chsh_corrected", "s_freedman_corrected",
    "visibility_raw", "true_pairs", "accidental_pairs", "accidental_true_ratio",
)


def sweep_csv_text(spec: SweepSpec, reports: Sequence[ScenarioReport]) -> str:
    """The sweep table: one row per value of spec, from its report in run_sweep's order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SWEEP_COLUMNS)
    for value, rep in zip(spec.values, reports, strict=True):
        cfg = [rep.configurations[k] for k in CONFIG_KEYS]
        true_total = sum(c.true_pairs for c in cfg)
        acc_total = sum(c.accidental_pairs for c in cfg)
        raw, corr = rep.reports["raw"], rep.reports["corrected_product"]
        row = [
            value, *(c.raw_count for c in cfg), *(c.acc_product for c in cfg),
            raw.s_std.value, raw.s_chsh.value, raw.s_freedman.value,
            corr.s_std.value, corr.s_chsh.value, corr.s_freedman.value,
            raw.visibility, true_total, acc_total,
            (acc_total / true_total) if true_total else None,
        ]
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def run_sweep(spec: SweepSpec) -> list[ScenarioReport]:
    """run_scenario on each point's scenario, whose seed is base seed + value index."""
    reports = []
    for value, scenario in zip(spec.values, spec.scenarios):
        try:
            reports.append(run_scenario(scenario))
        except Exception as exc:
            raise RuntimeError(f"sweep aborted at {spec.parameter} = {value}: {exc}") from exc
    return reports


def _merge_section(current, overrides: dict, section: str):
    check_keys(section, overrides, (f.name for f in dataclasses.fields(current)))
    try:
        return dataclasses.replace(current, **overrides)
    except ValueError as exc:
        raise ValueError(f"invalid {section} config: {exc}") from None


def scenario_from_dict(data: dict, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Build a scenario from a JSON-shaped dict of overrides on a base."""
    check_keys("scenario", data, (f.name for f in dataclasses.fields(ScenarioConfig)))
    base = base if base is not None else ScenarioConfig()
    fields = dict(data)
    for name in ("emission", "detector_a", "detector_b", "window"):
        fields[name] = _merge_section(getattr(base, name), data.get(name, {}), name)
    return dataclasses.replace(base, **fields)


def parse_counts_file(path) -> RunCounts:
    """Read a RunCounts table from a JSON or CSV file.

    JSON: one object whose keys are RunCounts field names. CSV: a header of
    field names and exactly one data row; empty cells mean absent. Errors
    carry the file name plus the line or field at fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path)
    stripped = text.lstrip()
    is_json = name.endswith(".json") or (not name.endswith(".csv") and stripped.startswith("{"))
    if is_json:
        parsed = parse_json(name, text)
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise ValueError(f"{name}: empty file")
        twice = [f for f, k in Counter(reader.fieldnames).items() if k > 1]
        if twice:
            raise ValueError(f"{name}: line 1: field {twice[0]!r} given twice")
        rows = list(reader)
        if len(rows) != 1:
            raise ValueError(f"{name}: expected exactly one data row, found {len(rows)}")
        parsed = {}
        for field, cell in rows[0].items():
            if field is None or (cell is not None and field == ""):
                raise ValueError(f"{name}: line 2 has more cells than the header")
            if cell is None or cell.strip() == "":
                continue
            try:
                parsed[field] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{name}: line 2, field {field!r}: could not parse {cell!r} as a number"
                ) from None
    try:
        return RunCounts.from_dict(parsed)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ReanalysisResult:
    counts: RunCounts
    reports: dict[str, BellReport]  # "raw", and "corrected" when the file carries accidentals

    def to_dict(self) -> dict:
        return {"counts": self.counts.to_dict(),
                "reports": {k: r.to_dict() for k, r in self.reports.items()}}


def reanalyze_counts(path) -> ReanalysisResult:
    """Recompute raw (and, if accidentals are present, corrected) statistics."""
    counts = parse_counts_file(path)
    reports = {"raw": compute_bell_statistics(counts, variant="raw")}
    if counts.has_accidentals:
        reports["corrected"] = compute_bell_statistics(subtract_accidentals(counts),
                                                       variant="corrected")
    return ReanalysisResult(counts=counts, reports=reports)
