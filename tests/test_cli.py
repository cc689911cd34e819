"""CLI contract: happy paths per subcommand, JSON error objects on failure."""

import ctypes
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim
from bellsim import cli, harness
from bellsim.cli import main

SRC = str(Path(bellsim.__file__).resolve().parent.parent)

SCENARIO = {
    "seed": 3,
    "emission": {"mean_rate": 3.0e4, "duration": 0.05},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def _stderr_error(capsys) -> dict:
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"type", "message"}
    return payload["error"]


def test_simulate_stdout_report(scenario_file, capsys):
    assert main(["simulate", scenario_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"scenario", "configurations", "counts", "reports",
                           "simulation_only", "no_data"}
    assert set(report["configurations"]) == {"x", "y", "z", "Z"}
    assert report["counts"]["raw"]["Z"] > 0
    assert report["reports"]["raw"]["variant"] == "raw"


def test_simulate_out_and_counts_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "counts.csv"
    assert main(["simulate", scenario_file,
                 "--out", str(out), "--counts-csv", str(csv_out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "config,raw,accidental_delayed,accidental_product"
    assert len(lines) == 5
    assert int(lines[4].split(",")[1]) == report["counts"]["raw"]["Z"]


def test_stats_from_file_matches_golden(tmp_path, capsys):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"x": 86.8, "y": 38.3, "z": 126.0, "Z": 248.2,
                                "acc_x": 22.8, "acc_y": 22.5,
                                "acc_z": 45.5, "acc_Z": 90.0}))
    assert main(["stats", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    raw = {k: s["value"] for k, s in result["reports"]["raw"]["statistics"].items()}
    corrected = {k: s["value"]
                 for k, s in result["reports"]["corrected"]["statistics"].items()}
    assert raw["s_freedman"] == pytest.approx(0.195, abs=0.0005)
    assert corrected["s_std"] == pytest.approx(2.416, abs=0.0005)


def test_stats_bundled(capsys):
    assert main(["stats", "--bundled"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["counts"]["x"] == 86.8
    assert "corrected" in result["reports"]


def test_stats_requires_exactly_one_input(capsys, tmp_path):
    assert main(["stats"]) == 2
    assert _stderr_error(capsys)["type"] == "usage"
    path = tmp_path / "c.json"
    path.write_text("{}")
    assert main(["stats", str(path), "--bundled"]) == 2
    assert _stderr_error(capsys)["type"] == "usage"


def test_spectrum_csv(scenario_file, capsys):
    assert main(["spectrum", scenario_file, "--config", "Z"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bin_start_ns,count"
    starts = [float(row.split(",")[0]) for row in lines[1:]]
    assert starts[0] < -100.0  # default range spans the accidental floor
    assert starts == sorted(starts)
    assert all(int(row.split(",")[1]) >= 0 for row in lines[1:])


@pytest.mark.parametrize("key", harness.CONFIG_KEYS)
def test_spectrum_runs_only_its_configuration(tmp_path, capsys, monkeypatch, key):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "repeats": 2,
                                "emission": {"mean_rate": 3.0e4, "duration": 0.01}}))
    assert main(["simulate", str(path)]) == 0
    spectrum = json.loads(capsys.readouterr().out)["configurations"][key]["spectrum"]
    cells = []
    run_cell = harness._run_cell
    monkeypatch.setattr(harness, "_run_cell",
                        lambda *args: cells.append(args) or run_cell(*args))
    assert main(["spectrum", str(path), "--config", key]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [float(start) for start, _ in rows] == spectrum["bin_edges_ns"][:-1]
    assert [int(count) for _, count in rows] == spectrum["counts"]
    # the repeats may run on two lanes at once, so in either order
    assert sorted(args[1:] for args in cells) == [(harness.CONFIG_KEYS.index(key), r, key)
                                                  for r in range(2)]


def test_spectrum_rejects_unknown_config(scenario_file, capsys):
    assert main(["spectrum", scenario_file, "--config", "w"]) == 2
    assert _stderr_error(capsys)["type"] == "usage"


def test_sweep_csv(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "parameter": "window_width",
        "values": [8.0, 20.0],
        "scenario": SCENARIO,
    }))
    assert main(["sweep", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:5] == ["value", "x", "y", "z", "Z"]
    assert [float(r.split(",")[0]) for r in lines[1:]] == [8.0, 20.0]


def test_sweep_value_is_refused_before_any_point_runs(tmp_path, capsys, monkeypatch):
    runs = []
    run_scenario = harness._run_scenario
    monkeypatch.setattr(harness, "_run_scenario",
                        lambda s, lanes: runs.append(s) or run_scenario(s, lanes))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "parameter": "mean_rate",
        "values": [1.0e4, 1.0e12],
        "scenario": SCENARIO,
    }))
    assert main(["sweep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert "values[1]: mean_rate = 1000000000000.0" in message
    assert "emissions per cell" in message
    assert runs == []


def test_missing_file_is_json_error(capsys):
    assert main(["simulate", "/nonexistent/scenario.json"]) == 2
    error = _stderr_error(capsys)
    assert error["type"] == "file_not_found"
    assert "/nonexistent/scenario.json" in error["message"]


def test_missing_file_through_the_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "bellsim.cli", "simulate",
                           str(tmp_path / "missing.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["error"]["type"] == "file_not_found"


@pytest.mark.parametrize("command, name, text, words", [
    ("simulate", "scenario.json", '{"window": {"bin_width": 1e-4}}', "over 1000000 bins"),
    ("stats", "counts.csv", "", "empty file"),
    ("stats", "counts.csv", "x,y,z,Z\n1,2,3,4,5\n", "more cells than the header"),
], ids=["spectrum-bins", "empty-csv", "long-csv-row"])
def test_refused_input_is_one_json_line(tmp_path, capsys, command, name, text, words):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert words in json.loads(captured.err)["error"]["message"]


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "+5", ".5", "5.", "0012"])
def test_counts_csv_cell_that_is_no_json_number_is_refused(tmp_path, capsys, cell):
    # float() reads each of these, as 1000.0, 12.0, 5.0, 0.5, 5.0 and 12.0
    with pytest.raises(json.JSONDecodeError):
        json.loads(cell)
    path = tmp_path / "counts.csv"
    path.write_text(f"x,y,z,Z\n1,{cell},3,4\n", encoding="utf-8")
    assert main(["stats", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert message == f"{path}: line 2, field 'y': could not parse {cell!r} as a number"


def test_malformed_counts_is_json_error(tmp_path, capsys):
    path = tmp_path / "counts.json"
    path.write_text('{"x": 1, "y": 2}')  # missing z and Z
    assert main(["stats", str(path)]) == 2
    error = _stderr_error(capsys)
    assert error["type"] == "ValueError"
    assert "z" in error["message"]


def test_invalid_scenario_value_is_json_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"emission": {"mean_rate": -5.0}}))
    assert main(["simulate", str(path)]) == 2
    assert _stderr_error(capsys)["type"] == "ValueError"


def test_nan_detector_value_is_json_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"detector_b": {"jitter_sigma": NaN}}')
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError"
    assert "jitter_sigma" in error["message"]


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert _stderr_error(capsys)["type"] == "usage"


@pytest.mark.parametrize("command, document", [
    ("simulate", {"preset": "aspect-like", "seed": True,
                  "emission": {"duration": 0.01}}),
    ("simulate", {"preset": "aspect-like", "repeats": True,
                  "emission": {"duration": 0.01}}),
    ("simulate", {"preset": "aspect-like", "emission": {"mean_rate": True, "duration": 0.01}}),
    ("simulate", {"detector_a": {"jitter_sigma": False}}),
    ("stats", {"x": True, "y": 3, "z": 6, "Z": 16}),
    ("stats", {"x": 1, "y": 3, "z": 6, "Z": 16, "duration": True}),
    ("sweep", {"parameter": "mean_rate", "values": [True],
               "scenario": {"emission": {"duration": 0.01}}}),
], ids=["seed", "repeats", "mean_rate", "jitter_sigma", "count", "duration", "sweep_value"])
def test_boolean_used_as_number_is_json_error(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("command, document", [
    ("sweep", {"parameter": "mean_rate", "values": ["1e4"],
               "scenario": {"emission": {"duration": 0.01}}}),
    ("sweep", {"parameter": "mean_rate", "values": [1.0e4],
               "scenario": {"emission": {"duration": 0.01}, "spectrum_range": ["-60", "80"]}}),
    ("simulate", {"emission": {"duration": 0.01}, "spectrum_range": [-60, "80"]}),
    ("simulate", {"emission": {"mean_rate": "1e4", "duration": 0.01}}),
    ("simulate", {"emission": {"duration": 0.01}, "seed": "3"}),
], ids=["sweep_value", "sweep_spectrum_range", "spectrum_range", "mean_rate", "seed"])
def test_string_used_as_number_is_json_error(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


BIG = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize("command, text, field", [
    ("simulate", '{"emission": {"mean_rate": %s, "duration": 0.01}}' % BIG, "mean_rate"),
    ("sweep", '{"parameter": "mean_rate", "values": [%s],'
              ' "scenario": {"emission": {"duration": 0.01}}}' % BIG, "sweep values[0]"),
    ("stats", '{"x": %s, "y": 3, "z": 6, "Z": 16}' % BIG, "x"),
    ("simulate", '{"emission": {"duration": 0.01}, "spectrum_range": [-60, %s]}' % BIG,
     "spectrum_range[1]"),
], ids=["mean_rate", "sweep_value", "count", "spectrum_range"])
def test_integer_too_large_for_a_float_is_json_error(tmp_path, capsys, command, text, field):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError"
    assert field in error["message"]


@pytest.mark.parametrize("command, name, text, literal", [
    ("stats", "counts.json", '{"x": 1e400, "y": 3, "z": 6, "Z": 16}', "number 1e400"),
    ("stats", "counts.csv", "x,y,z,Z\n1,-1e400,3,4\n", "line 2, field 'y': -1e400"),
    ("simulate", "scenario.json", '{"emission": {"mean_rate": 1e400, "duration": 0.01}}',
     "number 1e400"),
    ("sweep", "sweep.json", '{"parameter": "mean_rate", "values": [1e4, 2.5E+400],'
                            ' "scenario": {"emission": {"duration": 0.01}}}', "number 2.5E+400"),
], ids=["counts-json", "counts-csv", "scenario", "sweep"])
def test_float_literal_too_large_for_a_float_is_refused_as_written(tmp_path, capsys, command,
                                                                    name, text, literal):
    # json and float() read these as inf; the message names the literal, not inf
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ValueError",
                     "message": f"{path}: {literal} is too large for a float"}


@pytest.mark.parametrize("command, name, text, literal", [
    ("simulate", "scenario.json", '{"emission": {"duration": 0.01},'
                                  ' "detector_a": {"jitter_sigma": 1e-400}}', "number 1e-400"),
    ("sweep", "sweep.json", '{"parameter": "mean_rate", "values": [1e4, 2.5E-400],'
                            ' "scenario": {"emission": {"duration": 0.01}}}', "number 2.5E-400"),
    ("stats", "counts.json", '{"x": 1e-400, "y": 3, "z": 6, "Z": 16}', "number 1e-400"),
    ("stats", "counts.csv", "x,y,z,Z\n1e-400,3,6,16\n", "line 2, field 'x': 1e-400"),
], ids=["scenario", "sweep", "counts-json", "counts-csv"])
def test_float_literal_too_small_for_a_float_is_refused_as_written(tmp_path, capsys, command,
                                                                    name, text, literal):
    # json and float() read these as 0.0, which jitter_sigma and a count accept
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ValueError",
                     "message": f"{path}: {literal} is too small for a float"}


@pytest.mark.parametrize("name, literals", [
    ("counts.json", '{"x": 0e-400, "y": -0.0, "z": 5e-324, "Z": 16}'),
    ("counts.csv", "x,y,z,Z\n0e-400,-0.0,5e-324,16\n"),
], ids=["json", "csv"])
def test_zeros_and_subnormals_read_as_written(tmp_path, capsys, name, literals):
    path = tmp_path / name
    path.write_text(literals)
    assert main(["stats", str(path)]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert [counts[k] for k in "xyz"] == [0.0, 0.0, 5e-324]
    assert math.copysign(1.0, counts["y"]) == -1.0


@pytest.mark.parametrize("command, name", [
    ("simulate", "scenario.json"), ("sweep", "sweep.json"), ("stats", "counts.csv"),
], ids=["scenario", "sweep", "counts"])
def test_file_that_is_not_utf8_is_refused_with_its_name(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff{}")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError",
        "message": f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte"}


@pytest.mark.parametrize("command, name, text", [
    ("stats", "counts.csv", "x,y,z,Z\n1,2,3,4\n"),
    ("stats", "counts.json", '{"x": 1, "y": 3, "z": 6, "Z": 16}'),
    ("simulate", "scenario.json", '{"preset": "aspect-like", "emission": {"duration": 0.001}}'),
    ("sweep", "sweep.json", '{"parameter": "mean_rate", "values": [1e4],'
                            ' "scenario": {"emission": {"duration": 0.001}}}'),
], ids=["counts-csv", "counts-json", "scenario", "sweep"])
def test_file_with_a_byte_order_mark_gives_the_plain_files_bytes(tmp_path, capsys, command,
                                                                  name, text):
    plain = tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / f"bom-{name}"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    outputs = []
    for path in (plain, marked):
        assert main([command, str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out != ""


@pytest.mark.parametrize("command, document, field", [
    ("simulate", {"preset": ["aspect-like"]}, "preset"),
    ("sweep", {"parameter": "mean_rate", "values": [1.0e4], "scenario": []}, "scenario"),
    ("sweep", {"parameter": "mean_rate", "values": [1.0e4], "scenario": [["seed", 3]]},
     "scenario"),
    ("simulate", {"emission": {"duration": 0.01},
                  "detector_a": {"allow_multiple_detections": "yes"}},
     "allow_multiple_detections"),
    ("simulate", {"emission": {"duration": 0.01},
                  "detector_a": {"allow_multiple_detections": 1}},
     "allow_multiple_detections"),
], ids=["preset_list", "sweep_scenario_list", "sweep_scenario_pairs", "flag_string",
        "flag_integer"])
def test_malformed_shape_is_json_error(tmp_path, capsys, command, document, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert field in json.loads(captured.err)["error"]["message"]


LONG = "1" + "0" * 5000  # more digits than Python converts to an int by default


@pytest.mark.parametrize("command, text", [
    ("simulate", '{"seed": %s}' % LONG),
    ("sweep", '{"parameter": "mean_rate", "values": [%s]}' % LONG),
    ("stats", '{"x": %s, "y": 3, "z": 6, "Z": 16}' % LONG),
], ids=["simulate", "sweep", "stats"])
def test_integer_too_long_to_parse_names_the_file(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(path) in json.loads(captured.err)["error"]["message"]


@pytest.mark.parametrize("document, words", [
    ({"emission": {"duration": 1.0e300}}, "duration"),
    ({"emission": {"mean_rate": 1.0e9, "duration": 1.0}}, "emissions per cell"),
    # 1e5 emissions in 1 us with no dead time: hundreds of millions of
    # pairs in the first cell's spectrum range, refused before expansion
    ({"preset": "aspect-like", "emission": {"mean_rate": 1.0e11, "duration": 1.0e-6},
      "detector_a": {"dead_time": 0.0}, "detector_b": {"dead_time": 0.0}}, "click pairs"),
], ids=["duration", "emissions", "pairs"])
def test_run_budget_is_json_error(tmp_path, capsys, document, words):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert words in json.loads(captured.err)["error"]["message"]


MULTI = {"dead_time": 0.0, "allow_multiple_detections": True}


@pytest.mark.parametrize("command, document, words", [
    # one emission per cell: at the cap it would click about 1e5 times
    ("simulate", {"preset": "wave-like", "emission": {"mean_rate": 1.0e4, "duration": 1.0e-4},
                  "detector_b": {**MULTI, "wave_gain": 2.0e4}}, "hazard units, over the cap"),
    ("simulate", {"preset": "wave-like", "emission": {"mean_rate": 1.0e6, "duration": 1.0},
                  "detector_b": {**MULTI, "wave_gain": 100.0}}, "clicks per cell"),
    ("sweep", {"parameter": "wave_gain", "values": [1.0, 1.0e4],
               "scenario": {"preset": "wave-like", "emission": {"duration": 1.0e-4},
                            "detector_a": MULTI, "detector_b": MULTI}},
     "values[1]: wave_gain = 10000.0"),
], ids=["hazard", "clicks", "sweep"])
def test_wave_click_budget_is_refused_before_any_cell_runs(tmp_path, capsys, monkeypatch,
                                                           command, document, words):
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert words in json.loads(captured.err)["error"]["message"]
    assert cells == []


@pytest.mark.parametrize("command, name, text, key", [
    ("stats", "counts.csv", "x,x,y,z,Z\n1,200,3,4,5\n", "'x'"),
    ("stats", "counts.json", '{"x": 1, "x": 200, "y": 3, "z": 4, "Z": 5}', "'x'"),
    ("simulate", "scenario.json", '{"seed": 1, "emission": {"duration": 0.001}, "seed": 2}',
     "'seed'"),
    ("sweep", "sweep.json", '{"parameter": "mean_rate", "values": [1e4],'
     ' "scenario": {"emission": {"duration": 0.001, "duration": 0.002}}}', "'duration'"),
], ids=["csv", "json", "scenario", "nested"])
def test_key_given_twice_is_json_error(tmp_path, capsys, command, name, text, key):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert message.startswith(f"{path}: ")
    assert f"{key} given twice" in message


# run in a fresh process: the pytest process's heap history (earlier tests
# freeing large arrays raise glibc's dynamic thresholds) would hide the faults.
# Both runs take one lane, so the count measures the policy alone. On a
# 2-core machine a second run read 13 to 81 faults on one lane, and on two
# lanes 14 to 29 in 14 of 24 runs but 62 to 469 in the other 10
_SECOND_RUN_FAULTS = """
import resource, sys
import bellsim
cli_imported = "bellsim.cli" in sys.modules
from bellsim import harness
from bellsim.cli import main
harness._usable_cpus = lambda: 1
argv = ["simulate", sys.argv[1], "--out", sys.argv[2]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(cli_imported, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc")
def test_second_run_reuses_the_first_runs_pages(tmp_path):
    # 50,000 emissions per cell, as in the aspect-like benchmark run; with
    # glibc's default policy the second run faults in thousands of pages
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"preset": "aspect-like", "seed": 0, "repeats": 1,
                                "emission": {"mean_rate": 2.0e5, "duration": 0.25}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS, str(path),
                           str(tmp_path / "report.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cli_imported, faults = done.stdout.split()
    assert cli_imported == "False"
    assert int(faults) < 500


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_allocator_policy_is_skipped_without_mallopt(monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None
    assert main(["stats", "--bundled"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["x"] == 86.8


def _fresh_python(code: str, blas_threads: str | None = None) -> str:
    """Run code in a new interpreter on this tree; its stdout, stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_import_loads_no_numpy():
    # the CLI sets numpy's BLAS threads after `import bellsim` and before numpy loads
    assert _fresh_python("import sys, bellsim; print('numpy' in sys.modules)") == "False"
    # dir() lists every exported name while all are still unloaded, and loads none
    code = ("import sys, bellsim; "
            "print(set(dir(bellsim)) >= set(bellsim.__all__), 'numpy' in sys.modules)")
    assert _fresh_python(code) == "True False"


_STAR_IMPORT = """
import importlib, bellsim
from bellsim import *
modules = [importlib.import_module(f"bellsim.{m}") for m in
           ("bellstats", "coincidence", "detection", "harness", "presets", "source")]
for name in bellsim.__all__:
    owners = [m for m in modules if name in vars(m)]
    assert owners, name
    assert all(vars(m)[name] is globals()[name] for m in owners), name
    assert getattr(bellsim, name) is globals()[name], name
assert set(bellsim.__all__) <= set(dir(bellsim))
print(len(bellsim.__all__))
"""


def test_star_import_binds_every_exported_name_to_its_submodule_object():
    assert int(_fresh_python(_STAR_IMPORT)) == len(bellsim.__all__) > 0


def test_unknown_package_attribute_raises_attribute_error():
    code = """
import bellsim
try:
    bellsim.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_python(code) == "module 'bellsim' has no attribute 'no_such_name'"


@pytest.mark.parametrize("preset, first, expected", [
    (None, "", "1"),
    ("2", "", "2"),
    (None, "import numpy", "None"),
], ids=["unset", "user-set", "numpy-loaded-first"])
def test_cli_import_loads_numpy_with_one_blas_thread(preset, first, expected):
    # OpenBLAS reads the variable only when numpy loads, so once numpy is
    # loaded the CLI leaves it alone
    code = f"{first}\nimport os, bellsim.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_python(code, preset) == expected
