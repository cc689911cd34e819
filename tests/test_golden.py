"""Golden reports: SHA-256 pins of report bytes under the documented seed policy.

Statistical tests allow any output within their bounds; these pins allow
exactly one. A refactor that keeps every report byte keeps every digest. A
change that moves one must say why, and re-pin it.
"""

import dataclasses
import hashlib
import json
import math
import threading

import numpy as np
import pytest

from bellsim import harness
from bellsim.cli import main
from bellsim.harness import (SweepSpec, coincidence_curve, reanalyze_counts, run_scenario,
                             run_sweep, sweep_csv_text)
from bellsim.presets import PRESETS, aspect_like, bundled_counts_path, wave_like

# shortened beam time per cell: 4 cells of ~2000 (particle) or ~1000
# (wave) emissions each, enough for every report section to be nonzero
SHORT_DURATION = 0.01


def _short(scenario, **changes):
    emission = dataclasses.replace(scenario.emission, duration=SHORT_DURATION)
    return dataclasses.replace(scenario, emission=emission, **changes)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(scenario) -> str:
    return _sha256(json.dumps(run_scenario(scenario).to_dict(), indent=2))


PRESET_DIGESTS = {
    ("aspect-like", 0): "457eb199e88924dbe3c618c957e0dec49894088a5c783174bc13a4729419817a",
    ("aspect-like", 1): "a34fca7f417d93cfed4c3a6d810db44f9f3b76148d27315b33291c01c97f0ac9",
    ("freedman-like", 0): "6a8c27c883c148ab5705638839c0d362ff94e41487280b42151166cf4d865cd8",
    ("freedman-like", 1): "2362b87e2a718d4d2f1f2b3cbade95cfd0dca3c2be16c055fd252db9bacc7656",
    ("wave-like", 0): "f6c4b3af57820fdfc2339cefa276be37de02b0a2fb0ee605a5a1121876655f96",
    ("wave-like", 1): "433bc313c6c6248ba1c926d3d023278497a957605401779a52eb2e2153cfcf1c",
}

WAVE_MULTIPLE_DIGEST = "fed80ef53cb6e31d1579797759914619b5c88b5aafbb2ef5495d3570ad275e22"
# three repeats per configuration: guards how a configuration sums its cells
REPEATS_DIGESTS = {
    "aspect-like": "2ae160e0691ee506a808ee650297b54f987dee064bf619fcea8000ebb8e365bd",
    "wave-like": "c9b69cfdc9513ff338ba1f6da85986067a25c2e0d796d69a902e114446552a35",
}
# the particle branches no preset takes: a modulated and enhanced
# efficiency, insertion and channel delays, a min-separation source, and a
# rate at which dead time drops about 4 % (x) to 8 % (Z) of the clicks
PARTICLE_BRANCHES_DIGEST = "a07b0756d3dde8906f21b12c76b1978d71a5aecfd69b967e4062623edeccc15e"
# a fixed hidden variable off the A analyzer, with insertion delays on both
# sides: the last particle branch, and the stored polariser angles
FIXED_HIDDEN_VARIABLE_DIGEST = "c27e2cef0b7657b370bdd9d1b749ca192fb48992f4c54d12aad098120a57a683"
# no emissions at all: the wave detector's empty path, with one and with many clicks each
ZERO_EMISSION_WAVE_DIGESTS = {
    False: "11640b3735033ca82e42b544c99795aa30c4c85e1187faa8bdfafa85a07372ce",
    True: "ab06c2904cfb623701c65388f667adf1cb4e59a5e8641b12f771a87975e8439f",
}
SWEEP_CSV_DIGEST = "ec3d29c4a49e63195e80ca285e085efe73adb8bf9c4263f6df9ed920d63ded60"
# the CLI's --counts-csv file, acc_product written by repr
COUNTS_CSV_DIGEST = "2531bd1caa5b7380457edb7bafbcf5a2a9f182eae079217d82bc2909bb8cd5a3"
BUNDLED_REANALYSIS_DIGEST = "ba8b1298c064362c8742e35cc7d8ddab4360cbe333b0f03d4c98eb8e571b9501"
CURVE_DIGESTS = {
    "aspect-like": "1d001a9b773d338a4eb98de6516f102a5a8fc9261837b900c6aaf2455e5c9a36",
    "wave-like": "42c6761b046d0d0dc69490e522b0c7be4100c2d8ed0c75c43f05f6d977ae0ee0",
}


def _advance_then_random(rng):
    rng.bit_generator.advance(1000)
    return rng.random(2)


# the first draws of each Generator method the seed policy calls, from cell
# (0, 0, 0)'s streams: emission 0, detector A 1, detector B 2. Every digest
# rests on them, so on another numpy a moved draw is named here
NUMPY_STREAM = {
    "source exponential": (0, lambda rng: rng.exponential(5.0, 3),
                           [16.467638954049136, 3.8156536907492455, 6.261835613076972]),
    "source uniform": (0, lambda rng: rng.uniform(0.0, np.pi, 3),
                       [2.962325688930791, 0.9938024739917957, 2.2693061698773254]),
    "particle random": (1, lambda rng: rng.random(3),
                        [0.6771968569751019, 0.2429867485428212, 0.6117637963218119]),
    "particle standard_normal": (1, lambda rng: rng.standard_normal(3),
                                 [0.8050894723742356, -1.9120592174903859, -3.496649248417975]),
    "particle PCG64.advance": (1, _advance_then_random,
                               [0.5450590560296897, 0.6748932869263753]),
    "wave standard_exponential": (2, lambda rng: rng.standard_exponential(3),
                                  [1.5302749861768203, 0.11503152796070905, 1.1779791769513455]),
    "wave normal": (2, lambda rng: rng.normal(0.0, 1.0, 3),
                    [0.9420990037776027, -0.6984925204581627, 1.588505736021452]),
}


@pytest.mark.parametrize("draw", sorted(NUMPY_STREAM))
def test_numpy_stream_fingerprint(draw):
    stream, call, first = NUMPY_STREAM[draw]
    assert call(harness.derive_rngs(0, 0, 0)[stream]).tolist() == first


@pytest.mark.parametrize("preset, seed", sorted(PRESET_DIGESTS))
def test_preset_report_digest(preset, seed):
    assert _report_digest(_short(PRESETS[preset](), seed=seed)) == PRESET_DIGESTS[preset, seed]


def _wave_multiple(**changes):
    base = wave_like()
    multi = dict(allow_multiple_detections=True)
    return _short(base, detector_a=dataclasses.replace(base.detector_a, **multi),
                  detector_b=dataclasses.replace(base.detector_b, **multi), **changes)


def test_wave_multiple_detections_report_digest():
    assert _report_digest(_wave_multiple(seed=3)) == WAVE_MULTIPLE_DIGEST


@pytest.mark.parametrize("multiple", sorted(ZERO_EMISSION_WAVE_DIGESTS))
def test_zero_emission_wave_report_digest(multiple):
    base = wave_like()
    flag = dict(allow_multiple_detections=multiple)
    scenario = dataclasses.replace(
        base, seed=8, emission=dataclasses.replace(base.emission, duration=0.0),
        detector_a=dataclasses.replace(base.detector_a, **flag),
        detector_b=dataclasses.replace(base.detector_b, **flag))
    assert _report_digest(scenario) == ZERO_EMISSION_WAVE_DIGESTS[multiple]


def test_repeats_report_digests():
    aspect = _short(aspect_like(), seed=4, repeats=3)
    assert _report_digest(aspect) == REPEATS_DIGESTS["aspect-like"]
    assert _report_digest(_wave_multiple(seed=6, repeats=3)) == REPEATS_DIGESTS["wave-like"]


def test_particle_branches_report_digest():
    base = aspect_like()
    det = dict(eta0=0.8, efficiency_fn="cosine_modulated", modulation_depth=0.3,
               enhancement_factor=1.2)
    scenario = dataclasses.replace(
        base, seed=7,
        emission=dataclasses.replace(base.emission, mean_rate=1.0e7, duration=0.001,
                                     process="min_separation", min_gap=5.0),
        detector_a=dataclasses.replace(base.detector_a, **det),
        detector_b=dataclasses.replace(base.detector_b, **det),
        window=dataclasses.replace(base.window, channel_delay=2.5),
        insertion_delay_a=1.25, insertion_delay_b=3.5)
    assert _report_digest(scenario) == PARTICLE_BRANCHES_DIGEST


def test_fixed_hidden_variable_report_digest():
    base = aspect_like()
    emission = dataclasses.replace(base.emission, hidden_variable="fixed", fixed_angle=0.3)
    scenario = _short(dataclasses.replace(base, emission=emission), seed=9,
                      analyzer_a=math.pi / 4.0, insertion_delay_a=1.75, insertion_delay_b=4.5)
    assert _report_digest(scenario) == FIXED_HIDDEN_VARIABLE_DIGEST


def test_sweep_csv_digest():
    spec = SweepSpec(parameter="mean_rate", values=(1.0e5, 1.0e6),
                     fixed=_short(aspect_like(), seed=5))
    assert _sha256(sweep_csv_text(spec, run_sweep(spec))) == SWEEP_CSV_DIGEST


def test_sweep_csv_digest_with_forked_points_starts_no_thread(monkeypatch):
    # each process runs its points on one lane; a lane started in a child
    # fails its point, and so the sweep
    spec = SweepSpec(parameter="mean_rate", values=(1.0e5, 1.0e6),
                     fixed=_short(aspect_like(), seed=5))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert harness._sweep_processes(spec) == 2

    def start(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert _sha256(sweep_csv_text(spec, run_sweep(spec))) == SWEEP_CSV_DIGEST


def test_counts_csv_digest(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"preset": "aspect-like", "seed": 0,
                                    "emission": {"duration": SHORT_DURATION}}))
    counts_csv = tmp_path / "counts.csv"
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "report.json"),
                 "--counts-csv", str(counts_csv)]) == 0
    assert _sha256(counts_csv.read_text()) == COUNTS_CSV_DIGEST


def test_bundled_reanalysis_digest():
    result = reanalyze_counts(bundled_counts_path())
    assert _sha256(json.dumps(result.to_dict(), indent=2)) == BUNDLED_REANALYSIS_DIGEST


@pytest.mark.parametrize("preset", sorted(CURVE_DIGESTS))
def test_coincidence_curve_digest(preset):
    scenario = _short(PRESETS[preset](), seed=2, repeats=2)
    curve = coincidence_curve(scenario, [0.0, 0.4, 0.8, 1.2])
    assert _sha256(json.dumps(curve)) == CURVE_DIGESTS[preset]
