"""Monte Carlo toolkit for single-channel atomic-cascade coincidence experiments.

The package simulates photon-pair emission, polariser transmission and
detection under explicit local-realist models, counts coincidences the way
real counting electronics do (finite windows, dead time, accidental
estimation), and evaluates the standard single-channel Bell-type test
statistics on the resulting count tables.

The exported names load lazily (PEP 562): ``import bellsim`` imports no
submodule and not numpy, and the first use of a name imports the submodule
that defines it. So the command line can choose numpy's BLAS threads before
numpy loads.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "bellstats": ("LIMITS", "BellReport", "RunCounts", "StatResult", "compute_bell_statistics",
                  "compute_visibility_statistic", "subtract_accidentals"),
    "coincidence": ("CellPairs", "CoincidenceSpectrum", "WindowConfig", "build_spectrum",
                    "cell_pairs", "classify_pairs_by_origin", "count_coincidences",
                    "estimate_accidentals_delayed", "estimate_accidentals_product"),
    "detection": ("ABSENT", "ClickStream", "DetectorConfig", "PolariserSetting",
                  "simulate_side"),
    "harness": ("CONFIG_KEYS", "ScenarioConfig", "ScenarioReport", "SweepSpec",
                "coincidence_curve", "parse_counts_file", "reanalyze_counts",
                "run_configuration", "run_scenario", "run_sweep", "scenario_from_dict",
                "sweep_csv_text"),
    "presets": ("PRESETS", "bundled_counts_path", "load_scenario_file"),
    "source": ("EmissionConfig", "EmissionStream", "generate_emissions"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNER.keys())
