"""bellsim benchmark: one workload, closed loop, fresh processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload aspect-simulate --seed 0 --seconds 20 --trace 0

It writes the workload's input file from --seed, then starts worker.py
processes one after another, never two at once. With --trace 0, PROCESSES
workers each pay set-up, run the first op, and run ops back to back for
their share of --seconds; medians over them give the end-to-end metrics.
With --trace 1, one worker alternates untraced and traced ops for
--seconds and gives the per-layer metrics. Every op's output is checked.
The last stdout line is the result object; the run directory under
.perfbench-work/ keeps the input, the outputs, the spans and the result
with its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, nominal_emissions

PROCESSES = 10  # fresh processes per untraced run, spreading samples over the run
RUN_LIMIT_S = 170.0  # a run that is not done by then stops without a result
WORK_DIR = ".perfbench-work"
_PER_PROCESS = ("setup_s", "setup_wall_s", "first_op_s", "first_op_wall_s", "peak_rss_mb",
                "attempted", "failed")


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_worker(root: Path, run_dir: Path, args, tag: str, seconds: float,
                deadline: float) -> dict:
    here = Path(__file__).resolve().parent
    command = [
        sys.executable, str(here / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--input", str(run_dir / "input.json"),
        "--out", str(run_dir / f"output-{tag}{WORKLOADS[args.workload].output_suffix()}"),
    ]
    if args.trace:
        command += ["--spans", str(run_dir / "spans.jsonl")]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {tag} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    if not (root / "src" / "bellsim" / "__init__.py").is_file():
        print("perfbench: run from the root of a bellsim checkout (no src/bellsim here)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "input.json").write_text(workload.file_text(args.seed))

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            workers = [_run_worker(root, run_dir, args, "p0", args.seconds, deadline)]
        else:
            workers = [_run_worker(root, run_dir, args, f"p{i}", args.seconds / PROCESSES,
                                   deadline)
                       for i in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = workers[0]
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    failures = [f"worker {i} {msg}" for i, r in enumerate(workers) for msg in r["failures"]]
    for i, r in enumerate(workers[1:], start=1):
        if r["digest"] != first["digest"]:
            failures.append(f"worker {i}: output differs from worker 0's")
            failed += r["attempted"] - r["failed"]

    op_s = [t for r in workers for t in r["op_s"]]
    op_wall_s = [t for r in workers for t in r["op_wall_s"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(first["layers"].items())}
    else:
        emissions = nominal_emissions(workload.document(args.seed))
        metrics = {
            "emissions_per_s": {"value": emissions / statistics.median(op_s), "unit": "1/s"},
            "first_op_s": {"value": statistics.median(r["first_op_s"] for r in workers),
                           "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in workers),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in workers),
                            "unit": "MB"},
        }
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "bellsim": first["bellsim"],
        "git_commit": _git_commit(root),
        "traced": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": len(workers),
        "timed_ops": len(op_s),
        "wall_op_s_median": statistics.median(op_wall_s),
        "wall_first_op_s_median": statistics.median(r["first_op_wall_s"] for r in workers),
        "wall_setup_s_median": statistics.median(r["setup_wall_s"] for r in workers),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(
        json.dumps({**result, "environment": environment, "failures": failures,
                    "processes": [{k: r[k] for k in _PER_PROCESS} for r in workers]}, indent=2))

    shown: dict[str, int] = {}
    for msg in failures:
        check = msg.split(": ", 1)[-1]
        shown[check] = shown.get(check, 0) + 1
    for check, n in shown.items():
        print(f"FAILED check ({n} ops): {check}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print("environment " + json.dumps(environment))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
