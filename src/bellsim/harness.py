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

run_scenario, run_configuration and coincidence_curve run their cells on T
lanes, T the least of the number of cells, the CPUs this process may run on,
MAX_EMISSIONS_PER_CELL // the largest expected cell, so the cells running
at once stay within one cell's emissions cap, and MAX_LANES, since each
lane adds about one cell's working set to peak memory; T is 1 when no
cell expects MIN_LANE_CELL emissions. Lane 0 is the calling thread and
each other lane a thread that ends before the call returns;
numpy's draws and array operations release the GIL, so the lanes overlap,
and threads share the heap. Lane k runs the k-th of T contiguous blocks of
the cells, which come in (configuration, repeat) order: x, y, z, Z. A
polariser only removes clicks, so on two lanes x and y run beside the
heavier z and Z. The cells are summed per configuration in repeat order,
so a report is byte-identical to a serial run's, because every cell's
seed is its own.

A sweep runs one scenario per value and returns their reports;
sweep_csv_text writes them as a table. run_sweep splits the points over P
processes, P bound as T is, by points in place of cells and without
MAX_LANES, since each process runs one cell at a time. The parent runs one
share and a forked child each other, each point on one lane. Every share
comes back in one shape, (reports, failure), so the reports come back in
point order, byte-identical to a serial run's, and a failed point raises
the same error whichever process ran it. P and T are 1 where the platform
cannot say which CPUs are usable, and P is 1 while another thread runs,
since fork copies only the calling thread.

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
import os
import pickle
import re
import threading
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
    DetectorConfig,
    PolariserSetting,
    simulate_side,
)
from bellsim.source import MAX_EMISSIONS_PER_CELL, EmissionConfig, generate_emissions
from bellsim.validation import (check_choice, check_number, check_pair, float_literal,
                                parse_json, read_input, require_numbers)

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
        for side, hazard, clicks in self._multi_click_sides():
            if clicks > MAX_EMISSIONS_PER_CELL:
                raise ValueError(
                    f"{side} expects up to {clicks:g} clicks per cell, {hazard} hazard units "
                    f"on each emission, over the cap of {MAX_EMISSIONS_PER_CELL}")

    def _multi_click_sides(self):
        """(side, hazard units, expected clicks per cell) of each multi-click wave detector."""
        for side, d in (("detector_a", self.detector_a), ("detector_b", self.detector_b)):
            if d.model == "wave" and d.allow_multiple_detections:
                hazard = d.wave_gain * d.wave_decay_tau  # DetectorConfig caps it
                yield side, hazard, self.emission.mean_rate * self.emission.duration * hazard

    @property
    def expected_cell_size(self) -> float:
        """A cell's expected emissions, or a multi-click side's expected clicks if more.

        Each is held under MAX_EMISSIONS_PER_CELL when the config is parsed.
        """
        return max([self.emission.mean_rate * self.emission.duration,
                    *(clicks for _, _, clicks in self._multi_click_sides())])

    def polariser_settings(self, key: str) -> tuple[PolariserSetting, PolariserSetting]:
        """The (A, B) polariser slots for one configuration key."""
        check_choice("configuration key", key, CONFIG_KEYS)
        if key == "Z":
            return ABSENT, ABSENT
        pol_a = PolariserSetting(angle=self.analyzer_a, insertion_delay=self.insertion_delay_a)
        if key == "z":
            return pol_a, ABSENT
        relative = self.relative_angle_x if key == "x" else self.relative_angle_y
        return pol_a, PolariserSetting(angle=self.analyzer_a + relative,
                                       insertion_delay=self.insertion_delay_b)

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
    size = int(max(ids_a.max(initial=-1), ids_b.max(initial=-1))) + 1
    first_a, first_b = _first_clicks(ids_a, size), _first_clicks(ids_b, size)
    both = ((first_a < ids_a.size) & (first_b < ids_b.size)).nonzero()[0]
    i, j = first_a[both], first_b[both]
    inside = int(np.count_nonzero((pairs.j0[i] <= j) & (j < pairs.j1[i])))
    return inside, int(both.size)


def _run_cell(s: ScenarioConfig, config_index: int, repeat: int, key: str) -> ConfigurationResult:
    set_a, set_b = s.polariser_settings(key)
    rng_em, rng_a, rng_b = derive_rngs(s.seed, config_index, repeat)
    stream = generate_emissions(s.emission, rng_em)
    clicks_a = simulate_side(stream, "A", set_a, s.detector_a, rng_a)
    clicks_b = simulate_side(stream, "B", set_b, s.detector_b, rng_b)
    # freed before the pair pass, the small generators too: left alive, they
    # raised a dense sweep's peak memory by about 0.6 MB on a 2-core machine
    del stream, rng_em, rng_a, rng_b
    pairs = cell_pairs(clicks_a.times, clicks_b.times, clicks_a.emission_index,
                       clicks_b.emission_index, s.window, s.spectrum_range)
    inside, total = _window_inclusion(pairs, clicks_a.emission_index, clicks_b.emission_index)
    true_pairs, accidental_pairs = classify_pairs_by_origin(pairs)
    return ConfigurationResult(
        key=key,
        angle_a=set_a.angle,
        angle_b=set_b.angle,
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


# a lane adds about one cell's working set to a run's peak memory: 40
# aspect-like runs in one process peaked at 45.5, 47.8-48.6, 51.3-52.2 and
# 54.8-55.0 MB on 1, 2, 3 and 4 lanes, so two lanes keep the peak within a
# tenth of a serial run's
MAX_LANES = 2

# a scenario whose cells expect fewer emissions, however many clicks, runs
# on one lane, since a second lane's thread costs more than it overlaps. Two
# sets of runs, in process on a 2-core machine, read 2 lanes against 1 at:
# first set, aspect-like 0.58-0.65x for cells of 200 to 2k emissions, 0.81,
# 0.95, 1.06, 1.11, 1.17 and 1.37x at 4k, 6k, 8k, 10k, 12k and 20k, and
# freedman-like 0.86, 0.93, 0.88, 1.22 and 1.42x at 4k, 8k, 10k, 12k and 20k;
# second set, aspect-like 1.23-1.27x at 10k and 0.93-1.36x at 12k (three of
# four runs above 1), freedman-like 1.13-1.23, 1.15-1.30 and 1.29x at 8k, 10k
# and 12k, and multi-click wave-like (3 clicks each) 0.99-1.02, 0.98-1.15,
# 1.17-1.27, 1.34-1.40 and 1.45-1.49x at 4k, 6k, 8k, 12k and 16k. The
# break-even moves between sets by more than the step between sizes, so the
# floor is the least size at which each set gained on every preset it ran
MIN_LANE_CELL = 12_000


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say (macOS, Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _workers(jobs: int, largest: float) -> int:
    """How many of jobs to run at once: one per usable CPU, and together within one cell's cap.

    largest is the largest expected cell among them, so the cells running at
    once expect at most MAX_EMISSIONS_PER_CELL emissions together.
    """
    return int(min(jobs, _usable_cpus(), MAX_EMISSIONS_PER_CELL // max(1.0, largest)))


def _run_lane(cells: list, indices: Sequence[int], outcomes: list, failed: list[int]) -> None:
    """_run_cell on the cells at indices, in order, into outcomes; never raises or prints.

    A cell's exception takes the place of its result and its index goes on
    failed. A lane ends at a cell above an index on failed, its own or
    another lane's, since a serial run would not reach it. A lane that reads
    failed just before another appends to it runs one cell more than
    needed; the lowest failing index is the same, since the lane that holds
    it runs its cells in order and skips none below it.
    """
    for i in indices:
        if failed and i > min(failed):
            return
        try:
            outcomes[i] = _run_cell(*cells[i])
        except BaseException as exc:  # handed back to the calling thread, which raises it
            outcomes[i] = exc
            failed.append(i)


def _run_configurations(jobs: Sequence[tuple[ScenarioConfig, int, str]],
                        lanes: int | None = None) -> list[ConfigurationResult]:
    """Per (scenario, configuration index, key) job, the sum of its cells, in repeat order.

    The cells of every job run together over lanes threads, by default
    _workers(number of cells, the largest expected cell) but at most MAX_LANES,
    and 1 if no cell expects MIN_LANE_CELL emissions. Lane k runs the k-th of
    lanes contiguous blocks of the cells, in order: lane 0 on the calling
    thread, each other on a thread of its own. Once every lane has ended, a
    failure raises the error of the lowest failing cell, as a serial run would.
    """
    cells = [(s, ci, r, key) for s, ci, key in jobs for r in range(s.repeats)]
    n = len(cells)
    if lanes is None:
        emissions = max(s.emission.mean_rate * s.emission.duration for s, _, _ in jobs)
        largest = max(s.expected_cell_size for s, _, _ in jobs)
        lanes = 1 if emissions < MIN_LANE_CELL else min(MAX_LANES, _workers(n, largest))
    blocks = [range(n * k // lanes, n * (k + 1) // lanes) for k in range(lanes)]
    outcomes: list = [None] * n
    failed: list[int] = []
    started = []
    try:
        for block in blocks[1:]:
            lane = threading.Thread(target=_run_lane, args=(cells, block, outcomes, failed))
            lane.start()
            started.append(lane)
        _run_lane(cells, blocks[0], outcomes, failed)
    finally:
        for lane in started:
            lane.join()
    if failed:
        raise outcomes[min(failed)]
    sums, start = [], 0
    for s, _, _ in jobs:
        first, *rest = outcomes[start:start + s.repeats]
        sums.append(sum(rest, first))
        start += s.repeats
    return sums


def run_configuration(s: ScenarioConfig, key: str) -> ConfigurationResult:
    """One configuration of run_scenario, alone: the same cells, so the same result."""
    check_choice("configuration key", key, CONFIG_KEYS)
    return _run_configurations([(s, CONFIG_KEYS.index(key), key)])[0]


def run_scenario(s: ScenarioConfig) -> ScenarioReport:
    """Simulate all four configurations and compute every report variant."""
    return _run_scenario(s, None)


def _run_scenario(s: ScenarioConfig, lanes: int | None) -> ScenarioReport:
    """run_scenario with its cells on lanes threads, or as many as _run_configurations picks."""
    results = dict(zip(CONFIG_KEYS, _run_configurations(
        [(s, ci, key) for ci, key in enumerate(CONFIG_KEYS)], lanes)))
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
    angles = [float(rel) for rel in relative_angles]
    results = _run_configurations([(dataclasses.replace(s, relative_angle_x=rel), 4 + i, "x")
                                   for i, rel in enumerate(angles)])
    return [(rel, c.raw_count) for rel, c in zip(angles, results)]


# sweep parameter -> the scenario with that parameter set to a value
_SWEEP_EDITS = {
    "window_width": lambda s, v: dataclasses.replace(
        s, window=dataclasses.replace(s.window, window_hi=s.window.window_lo + v)),
    "mean_rate": lambda s, v: dataclasses.replace(
        s, emission=dataclasses.replace(s.emission, mean_rate=v)),
    "accidental_offset": lambda s, v: dataclasses.replace(
        s, window=dataclasses.replace(s.window, accidental_offset=v)),
    "min_gap": lambda s, v: dataclasses.replace(s, emission=dataclasses.replace(
        s.emission, min_gap=v, process="min_separation" if v > 0.0 else s.emission.process)),
    "wave_gain": lambda s, v: dataclasses.replace(
        s, detector_a=dataclasses.replace(s.detector_a, wave_gain=v),
        detector_b=dataclasses.replace(s.detector_b, wave_gain=v)),
}
SWEEP_PARAMETERS = tuple(_SWEEP_EDITS)


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
    check_choice("sweep parameter", parameter, SWEEP_PARAMETERS)
    return _SWEEP_EDITS[parameter](s, value)


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


def _sweep_processes(spec: SweepSpec) -> int:
    """How many processes run_sweep splits spec's points over."""
    if threading.active_count() > 1:
        return 1  # fork copies only this thread, and a lock another thread holds stays held
    return _workers(len(spec.scenarios), max(s.expected_cell_size for s in spec.scenarios))


def _deal(weights: Sequence[float], processes: int) -> list[list[int]]:
    """Point indices per process, heaviest first to the least loaded; each share in order.

    Ties go to the process with fewer points, then the lower number, so
    equal weights alternate between the processes.
    """
    loads = [0.0] * processes
    shares: list[list[int]] = [[] for _ in range(processes)]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):  # stable: ties in order
        p = min(range(processes), key=lambda p: (loads[p], len(shares[p])))
        shares[p].append(i)
        loads[p] += weights[i]
    return [sorted(share) for share in shares]


def _run_share(spec: SweepSpec, indices: list[int]):
    """(reports, failure): the points at indices run in order until one fails.

    failure is None, or (index, message) for the point that failed. Each
    point runs on one lane: the sweep's processes already fill the CPUs.
    """
    reports = []
    for i in indices:
        try:
            reports.append(_run_scenario(spec.scenarios[i], 1))
        except Exception as exc:
            return reports, (i, str(exc))
    return reports, None


def _fork_share(spec: SweepSpec, indices: list[int]):
    """Start a child that runs a share; (its pid, the read end of its pipe as a file).

    The child writes one pickle to the pipe: the share's (reports, failure)
    as _run_share returns it. It never returns: it leaves through os._exit,
    so it flushes none of the parent's buffered output and runs none of its
    exit handlers.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(spec, indices), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_sweep(spec: SweepSpec) -> list[ScenarioReport]:
    """run_scenario on each point's scenario, whose seed is base seed + value index.

    The points are dealt by mean_rate x duration x repeats over
    _sweep_processes(spec) processes, and the parent runs the first share.
    Every share comes back as _run_share's (reports, failure). Once every
    child is reaped, a child that did not finish raises RuntimeError, and
    then a failed point raises RuntimeError for the lowest failing index,
    with no chained cause, whichever process ran it. Otherwise the reports
    come back in point order.
    """
    weights = [s.emission.mean_rate * s.emission.duration * s.repeats for s in spec.scenarios]
    shares = _deal(weights, _sweep_processes(spec))
    children = {}  # pid -> (read end of its pipe, its share), until it is reaped
    try:
        for indices in shares[1:]:
            pid, pipe = _fork_share(spec, indices)
            children[pid] = (pipe, indices)
        results = [(shares[0], _run_share(spec, shares[0]))]  # (share, (reports, failure))
        unfinished = []
        for pid, (pipe, indices) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code == 0:
                results.append((indices, pickle.loads(data)))
            else:
                unfinished.append(f"points {indices} " + (
                    f"ended by signal {-code}" if code < 0 else f"exited with status {code}"))
    finally:
        if children:  # not yet reaped: kill and reap them, and close their pipes
            import signal  # only an interrupted sweep gets here

            for pid, (pipe, _) in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if unfinished:
        raise RuntimeError(f"sweep process for {'; '.join(unfinished)}")
    failures = [failure for _, (_, failure) in results if failure is not None]
    if failures:
        first, message = min(failures)
        raise RuntimeError(f"sweep aborted at {spec.parameter} = {spec.values[first]}: {message}")
    by_index = {i: r for indices, (reports, _) in results for i, r in zip(indices, reports)}
    return [by_index[i] for i in range(len(spec.scenarios))]


def parse_counts_file(path) -> RunCounts:
    """Read a RunCounts table from a JSON or CSV file.

    JSON: one object whose keys are RunCounts field names. CSV: a header of
    field names and exactly one data row; empty cells mean absent, and any
    other cell must be a JSON number. Errors carry the file name plus the
    line or field at fault.
    """
    name = str(path)

    def counts(text: str) -> RunCounts:
        if name.endswith(".json") or (not name.endswith(".csv") and text.lstrip().startswith(("{", "["))):
            return RunCounts.from_dict(parse_json(text))
        reader = csv.DictReader(io.StringIO(text))
        try:
            if reader.fieldnames is None:
                raise ValueError("empty file")
            twice = [f for f, k in Counter(reader.fieldnames).items() if k > 1]
            if twice:
                raise ValueError(f"line 1: field {twice[0]!r} given twice")
            rows = list(reader)
        except csv.Error as exc:  # line_num counts the lines before the record at fault
            raise ValueError(f"line {reader.line_num + 1}: {exc}") from None
        if len(rows) != 1:
            raise ValueError(f"expected exactly one data row, found {len(rows)}")
        parsed = {}
        for field, cell in rows[0].items():
            if field is None or (cell is not None and field == ""):
                raise ValueError("line 2 has more cells than the header")
            if cell is None or cell.strip() == "":
                continue
            # a JSON number in ASCII digits: float() alone also takes 1_000,
            # +5, .5, 5., 0012 and other scripts' digits
            if not re.fullmatch(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?",
                                cell.strip()):
                raise ValueError(f"line 2, field {field!r}: could not parse {cell!r} as a number")
            parsed[field] = float_literal(cell.strip(), f"line 2, field {field!r}:")
        return RunCounts.from_dict(parsed)
    return read_input(path, counts)


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
