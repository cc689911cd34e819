"""Benchmark workloads: the input file each one feeds to the bellsim CLI.

Every workload is a scenario or sweep file built from the benchmark seed
alone, so the same seed always gives byte-identical inputs. This module
needs only the standard library; it never imports bellsim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

CONFIGURATIONS = 4  # x, y, z, Z: every scenario simulates four cells per repeat


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "sweep"
    document: Callable[[int], dict]  # seed -> the JSON document the CLI reads

    def file_text(self, seed: int) -> str:
        return json.dumps(self.document(seed), indent=2, sort_keys=True) + "\n"

    def output_suffix(self) -> str:
        return ".json" if self.command == "simulate" else ".csv"


def _aspect_simulate(seed: int) -> dict:
    return {
        "preset": "aspect-like",
        "seed": seed,
        "repeats": 1,
        "emission": {"mean_rate": 2.0e5, "duration": 0.25},
    }


def _dense_rate_sweep(seed: int) -> dict:
    return {
        "parameter": "mean_rate",
        "values": [1.0e7, 2.0e7, 3.0e7],
        "scenario": {
            "preset": "aspect-like",
            "seed": seed,
            "repeats": 1,
            "emission": {"mean_rate": 2.0e5, "duration": 0.002},
        },
    }


def _wave_many_small(seed: int) -> dict:
    return {
        "parameter": "wave_gain",
        "values": [0.5 + 0.25 * k for k in range(48)],
        "scenario": {
            "preset": "wave-like",
            "seed": seed,
            "repeats": 1,
            "emission": {"mean_rate": 1.0e5, "duration": 0.002},
            "detector_a": {"allow_multiple_detections": True},
            "detector_b": {"allow_multiple_detections": True},
        },
    }


# Why each workload was chosen: NOTES.md.
WORKLOADS = {
    "aspect-simulate": Workload("simulate", _aspect_simulate),
    "dense-rate-sweep": Workload("sweep", _dense_rate_sweep),
    "wave-many-small": Workload("sweep", _wave_many_small),
}


def nominal_emissions(document: dict) -> float:
    """rate x duration x repeats x 4 cells, summed over sweep points."""
    scenario = document.get("scenario", document)
    emission = scenario["emission"]
    repeats = scenario["repeats"]
    if "parameter" not in document:
        rates = [emission["mean_rate"]]
    elif document["parameter"] == "mean_rate":
        rates = document["values"]
    else:
        rates = [emission["mean_rate"]] * len(document["values"])
    return sum(r * emission["duration"] * repeats * CONFIGURATIONS for r in rates)


# SHA-256 of the CLI output bytes at DEFAULT_SEED, taken at the commit that
# introduced the benchmark. A change that moves one must say why.
PINNED_DIGESTS = {
    "aspect-simulate": "d46e2ef3da670d46d3e7b0cea289a282c1e197a53a4bc28323edb3bbe1cdaba9",
    "dense-rate-sweep": "0e137d94912ae7f0791a563b68bfcc4cf69aa1718abd9750f07a15ec28f1684c",
    "wave-many-small": "c6adb85a24ba9607edd554ee607bf7a94cbf1de06c56263d3cf63d6fc7880af3",
}
