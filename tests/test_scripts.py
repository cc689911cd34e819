"""The experiment scripts run end to end on small inputs and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("reanalyze_example.py", ()),
    ("window_visibility.py", ("--widths", "20", "--points", "3")),
])
def test_script_exits_zero(tmp_path, script, args):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_rate_sweep_writes_its_table(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run("rate_sweep.py", "--rates", "1e4", "1e5", "--duration", "0.01",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["value", "x"]
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0e4, 1.0e5]
