"""Monte Carlo toolkit for single-channel atomic-cascade coincidence experiments.

The package simulates photon-pair emission, polariser transmission and
detection under explicit local-realist models, counts coincidences the way
real counting electronics do (finite windows, dead time, accidental
estimation), and evaluates the standard single-channel Bell-type test
statistics on the resulting count tables.
"""

from bellsim.bellstats import (
    LIMITS,
    BellReport,
    RunCounts,
    StatResult,
    compute_bell_statistics,
    compute_visibility_statistic,
    subtract_accidentals,
)
from bellsim.coincidence import (
    CoincidenceSpectrum,
    WindowConfig,
    build_spectrum,
    count_all_pairs,
    count_coincidences,
    estimate_accidentals_delayed,
    estimate_accidentals_product,
)
from bellsim.detection import (
    ABSENT,
    ClickStream,
    DetectorConfig,
    PolariserSetting,
    apply_dead_time,
    simulate_side,
)
from bellsim.harness import (
    CONFIG_KEYS,
    ScenarioConfig,
    ScenarioReport,
    SweepSpec,
    SweepResult,
    coincidence_curve,
    parse_counts_file,
    reanalyze_counts,
    run_scenario,
    run_sweep,
    scenario_from_dict,
)
from bellsim.presets import PRESETS, bundled_counts_path, load_scenario_file
from bellsim.source import EmissionConfig, EmissionStream, generate_emissions

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "BellReport",
    "CONFIG_KEYS",
    "ClickStream",
    "CoincidenceSpectrum",
    "DetectorConfig",
    "EmissionConfig",
    "EmissionStream",
    "LIMITS",
    "PRESETS",
    "PolariserSetting",
    "RunCounts",
    "ScenarioConfig",
    "ScenarioReport",
    "StatResult",
    "SweepResult",
    "SweepSpec",
    "WindowConfig",
    "apply_dead_time",
    "build_spectrum",
    "bundled_counts_path",
    "coincidence_curve",
    "compute_bell_statistics",
    "compute_visibility_statistic",
    "count_all_pairs",
    "count_coincidences",
    "estimate_accidentals_delayed",
    "estimate_accidentals_product",
    "generate_emissions",
    "load_scenario_file",
    "parse_counts_file",
    "reanalyze_counts",
    "run_scenario",
    "run_sweep",
    "scenario_from_dict",
    "simulate_side",
    "subtract_accidentals",
]
