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
import json
from importlib import resources
from pathlib import Path

from bellsim.coincidence import WindowConfig
from bellsim.detection import DetectorConfig
from bellsim.harness import ScenarioConfig, SweepSpec, scenario_from_dict
from bellsim.source import EmissionConfig


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


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def scenario_from_file_dict(data: dict, origin: str = "scenario") -> ScenarioConfig:
    """Resolve an optional "preset" key, then apply the remaining overrides."""
    data = dict(data)
    base = None
    preset = data.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(
                f"{origin}: unknown preset {preset!r}, expected one of {sorted(PRESETS)}"
            )
        base = PRESETS[preset]()
    return scenario_from_dict(data, base=base)


def load_scenario_file(path) -> ScenarioConfig:
    data = _load_json(path)
    try:
        return scenario_from_file_dict(data, origin=str(path))
    except ValueError as exc:
        msg = str(exc)
        raise ValueError(msg if msg.startswith(str(path)) else f"{path}: {msg}") from None


def load_sweep_file(path) -> SweepSpec:
    """Sweep files hold {"parameter", "values", "scenario"}; the scenario
    section accepts the same keys (including "preset") as a scenario file."""
    data = _load_json(path)
    extra = set(data) - {"parameter", "values", "scenario"}
    if extra:
        raise ValueError(f"{path}: unknown sweep field(s): {', '.join(sorted(extra))}")
    missing = {"parameter", "values"} - set(data)
    if missing:
        raise ValueError(f"{path}: missing sweep field(s): {', '.join(sorted(missing))}")
    values = data["values"]
    if not isinstance(values, list) or not values or any(isinstance(v, bool) for v in values):
        raise ValueError(f"{path}: 'values' must be a nonempty list of numbers")
    try:
        values_t = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: 'values' must be a nonempty list of numbers") from None
    try:
        fixed = scenario_from_file_dict(data.get("scenario", {}), origin=str(path))
        return SweepSpec(parameter=data["parameter"], values=values_t, fixed=fixed)
    except ValueError as exc:
        msg = str(exc)
        raise ValueError(msg if msg.startswith(str(path)) else f"{path}: {msg}") from None
