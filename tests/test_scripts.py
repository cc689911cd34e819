"""The experiment scripts run end to end on small inputs and exit 0, or refuse
bad input with exit 2 and one usage error, as the CLI does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("window_visibility.py", ("--widths", "20", "--points", "3")),
])
def test_script_exits_zero(tmp_path, script, args):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("points", ["1", "0"])
def test_window_visibility_refuses_fewer_than_two_points(tmp_path, points):
    proc = _run("window_visibility.py", "--widths", "20", "--points", points, cwd=tmp_path)
    assert proc.returncode == 2
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, args, message", [
    ("window_visibility.py", ("--widths", "0"),
     "window_lo must be < window_hi, got [-3.0, -3.0]"),
    ("window_visibility.py", ("--seed", "-1"), "seed must be >= 0, got -1"),
    ("rate_sweep.py", ("--rates", "-5"), "mean_rate must be > 0.0, got -5.0"),
], ids=["zero-width", "negative-seed", "negative-rate"])
def test_script_refuses_a_bad_config_as_a_usage_error(tmp_path, script, args, message):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(message)
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())  # refused before any output is written


def test_rate_sweep_writes_its_table(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run("rate_sweep.py", "--rates", "1e4", "1e5", "--duration", "0.01",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["value", "x"]
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0e4, 1.0e5]


def test_rate_sweep_refuses_an_unwritable_out_before_running(tmp_path):
    out = tmp_path / "missing" / "sweep.csv"
    proc = _run("rate_sweep.py", "--rates", "1e4", "--duration", "0.001",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "cannot write --out" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr
    assert not proc.stdout  # no sweep row was printed
    assert not list(tmp_path.iterdir())


def test_rate_sweep_prints_undefined_without_true_pairs(tmp_path):
    # 0.01 expected emissions per cell: no true pair, and every statistic undefined
    out = tmp_path / "sweep.csv"
    proc = _run("rate_sweep.py", "--rates", "10", "--duration", "0.001",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1].split()
    assert row == ["10", "undefined", "undefined", "undefined", "undefined"]


_IMPORTS_ONLY = """
import os, runpy, sys
runpy.run_path(sys.argv[1], run_name="imports_only")  # module body without main()
print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))
"""


@pytest.mark.parametrize("script", ["rate_sweep.py", "window_visibility.py"])
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "user-set"])
def test_script_loads_numpy_with_the_cli_process_policy(script, preset, expected):
    # a script is a CLI process: bellsim.cli sets one OpenBLAS thread before numpy loads
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_ONLY, str(ROOT / "scripts" / script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", expected]
