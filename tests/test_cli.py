"""CLI contract: happy paths per subcommand, JSON error objects on failure."""

import json

import pytest

from bellsim.cli import main

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


def test_missing_file_is_json_error(capsys):
    assert main(["simulate", "/nonexistent/scenario.json"]) == 2
    error = _stderr_error(capsys)
    assert error["type"] == "file_not_found"
    assert "/nonexistent/scenario.json" in error["message"]


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
