"""Ready-made scenarios and bundled data.

Three presets cover the setups this toolkit is built around:

aspect-like     particle model, Poisson source, the classic 20 ns window
                placed -3..+17 ns around the cascade peak, 100 ns
                accidental offset, 16 ns dead times, 1 ns timing jitter,
                5 ns cascade lifetime. Mirrors the single-channel
                cascade apparatus those numbers come from.

freedman-like   same particle chain with an 8 ns coincidence window; the
                window start is an ordinary config knob (default -2 ns)
                because the historical choice of start is not documented.

wave-like       both signals modeled as decaying wave envelopes with a
                hazard-rate detector. The A envelope decays ten times
                faster than the B one (0.5 ns vs 5 ns) and the gains put
                the per-side click budget at 3 hazard units.

Every preset is a plain ScenarioConfig; scenario files may name one in a
"preset" key and override any field on top of it.
"""

from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path

from bellsim.coincidence import WindowConfig
from bellsim.detection import DetectorConfig
from bellsim.harness import ScenarioConfig, SweepSpec, scenario_from_dict
from bellsim.source import EmissionConfig
from bellsim.validation import check_choice, check_keys, parse_json, read_input


def aspect_like() -> ScenarioConfig:
    return ScenarioConfig(
        emission=EmissionConfig(mean_rate=2.0e5, duration=0.25, process="poisson",
                                cascade_lifetime_tau=5.0),
        detector_a=DetectorConfig(model="particle", eta0=1.0, jitter_sigma=1.0, dead_time=16.0),
        detector_b=DetectorConfig(model="particle", eta0=1.0, jitter_sigma=1.0, dead_time=16.0),
        window=WindowConfig(channel_delay=0.0, window_lo=-3.0, window_hi=17.0,
                            bin_width=1.0, accidental_offset=100.0),
    )


def freedman_like() -> ScenarioConfig:
    return dataclasses.replace(
        aspect_like(),
        window=WindowConfig(channel_delay=0.0, window_lo=-2.0, window_hi=6.0,
                            bin_width=1.0, accidental_offset=100.0),
    )


def wave_like() -> ScenarioConfig:
    return ScenarioConfig(
        emission=EmissionConfig(mean_rate=1.0e5, duration=0.3, process="poisson"),
        detector_a=DetectorConfig(model="wave", wave_decay_tau=0.5, wave_gain=6.0,
                                  jitter_sigma=1.0, dead_time=16.0),
        detector_b=DetectorConfig(model="wave", wave_decay_tau=5.0, wave_gain=0.6,
                                  jitter_sigma=1.0, dead_time=16.0),
        window=WindowConfig(channel_delay=0.0, window_lo=-3.0, window_hi=17.0,
                            bin_width=1.0, accidental_offset=100.0),
    )


PRESETS = {
    "aspect-like": aspect_like,
    "freedman-like": freedman_like,
    "wave-like": wave_like,
}


def bundled_counts_path() -> Path:
    """Path of the bundled historical counts table (rates per second)."""
    return Path(str(resources.files("bellsim").joinpath("data/aspect_thesis_counts.json")))


def scenario_from_file_dict(data: dict) -> ScenarioConfig:
    """Resolve an optional "preset" key, then apply the remaining overrides."""
    if not isinstance(data, dict) or "preset" not in data:
        return scenario_from_dict(data)
    data = dict(data)
    preset = data.pop("preset")
    check_choice("preset", preset, PRESETS)
    return scenario_from_dict(data, base=PRESETS[preset]())


def load_scenario_file(path) -> ScenarioConfig:
    return read_input(path, lambda text: scenario_from_file_dict(parse_json(text)))


def load_sweep_file(path) -> SweepSpec:
    """Sweep files hold {"parameter", "values", "scenario"}; the scenario
    section accepts the same keys (including "preset") as a scenario file."""

    def sweep(text: str) -> SweepSpec:
        data = parse_json(text)
        check_keys("sweep", data, ("parameter", "values", "scenario"), ("parameter", "values"))
        values = data["values"]
        if not isinstance(values, list):
            raise ValueError("'values' must be a list of numbers")
        return SweepSpec(parameter=data["parameter"], values=tuple(values),
                         fixed=scenario_from_file_dict(data.get("scenario", {})))
    return read_input(path, sweep)
