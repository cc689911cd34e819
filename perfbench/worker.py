"""One fresh process of a benchmark run.

It times the set-up a CLI user pays (importing bellsim.cli and loading the
workload file) and the first op, then runs more ops one at a time until
--seconds have passed since the first op ended. An op is one in-process
call of bellsim.cli.main on the workload file. Every op's output is
checked; see check_output.

With --trace 1, even-numbered ops after the first run with spans.Tracer
installed and odd ones without, so both kinds see the same machine state,
and the spans are written to --spans when the loop ends. The last stdout
line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS

MIN_LOOP_OPS = 2  # ops after the first, whatever --seconds says
COVERAGE_FLOOR = 0.95  # top-level spans must cover this share of a traced op

# Seconds the calibration kernel takes on the 2-core reference box. Reported
# times are wall times scaled by CALIBRATION_REF_S / (the kernel's time
# around the same op), so they read as seconds on that box whatever load
# the host's other tenants put on it; see NOTES.md.
CALIBRATION_REF_S = 0.02


def calibrate() -> float:
    """Time a fixed interpreted loop: the host's current speed for this process."""
    start = time.perf_counter()
    n = 0
    for i in range(400_000):
        if i & 3:
            n += 1
    return time.perf_counter() - start


def _same(cell: str, value) -> bool:
    """Does a CSV cell hold exactly what csv.writer makes of value?"""
    return cell == ("" if value is None else str(value))


def _check_report(data: bytes) -> list[str]:
    from bellsim.bellstats import RunCounts, compute_bell_statistics, subtract_accidentals

    report = json.loads(data)
    problems = []
    for key, c in report["configurations"].items():
        if c["raw_count"] > min(c["singles_a"], c["singles_b"]):
            problems.append(f"config {key}: raw_count > min(singles_a, singles_b)")
        if c["raw_count"] != report["counts"]["raw"][key]:
            problems.append(f"config {key}: raw_count differs from the counts table")
    variants = [
        ("raw", report["counts"]["raw"], "raw", report["reports"]["raw"]),
        ("corrected_delayed", report["counts"]["with_delayed_accidentals"], "corrected",
         report["reports"]["corrected_delayed"]),
        ("corrected_product", report["counts"]["with_product_accidentals"], "corrected",
         report["reports"]["corrected_product"]),
        ("truth", report["simulation_only"]["true_counts"], "truth",
         report["simulation_only"]["report_truth"]),
    ]
    for label, counts, variant, reported in variants:
        counts = RunCounts.from_dict(counts)
        if variant == "corrected":
            counts = subtract_accidentals(counts)
        if compute_bell_statistics(counts, variant=variant).to_dict() != reported:
            problems.append(f"reports.{label} differs from recomputed statistics")
    return problems


def _check_sweep_csv(data: bytes, spec) -> list[str]:
    from bellsim.bellstats import RunCounts, compute_bell_statistics, subtract_accidentals
    from bellsim.harness import apply_sweep_value

    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != len(spec.values):
        return [f"sweep has {len(rows)} rows, expected {len(spec.values)}"]
    problems = []
    for row, value in zip(rows, spec.values):
        s = apply_sweep_value(spec.fixed, spec.parameter, value)
        where = f"row {spec.parameter}={value}"
        if not _same(row["value"], value):
            problems.append(f"{where}: value column reads {row['value']}")
        raw = {k: int(row[k]) for k in "xyzZ"}
        acc = {k: float(row[f"acc_{k}_product"]) for k in "xyzZ"}
        duration_ns = s.emission.duration * 1e9
        for k in "xyzZ":
            # raw <= min(nA, nB) per cell, and the product estimate is
            # nA * nB * span / duration, summed over repeats
            if raw[k] > math.sqrt(s.repeats * acc[k] * duration_ns / s.window.span) * (1 + 1e-9):
                problems.append(f"{where}: {k} exceeds min(singles_a, singles_b)")
        if sum(raw.values()) > int(row["true_pairs"]) + int(row["accidental_pairs"]):
            problems.append(f"{where}: one-use matches exceed all in-window pairings")
        counts = RunCounts(**raw, **{f"acc_{k}": acc[k] for k in "xyzZ"},
                           duration=s.emission.duration * s.repeats)
        rep_raw = compute_bell_statistics(counts, variant="raw")
        rep_corr = compute_bell_statistics(subtract_accidentals(counts), variant="corrected")
        expected = {
            "s_std_raw": rep_raw.s_std.value, "s_chsh_raw": rep_raw.s_chsh.value,
            "s_freedman_raw": rep_raw.s_freedman.value, "visibility_raw": rep_raw.visibility,
            "s_std_corrected": rep_corr.s_std.value, "s_chsh_corrected": rep_corr.s_chsh.value,
            "s_freedman_corrected": rep_corr.s_freedman.value,
        }
        for column, v in expected.items():
            if not _same(row[column], v):
                problems.append(f"{where}: {column} differs from recomputed statistics")
    return problems


def check_output(command: str, data: bytes, loaded, digest: str, name: str,
                 seed: int) -> list[str]:
    """Checks that hold for any seed, plus the pinned digest at DEFAULT_SEED."""
    problems = []
    if seed == DEFAULT_SEED and digest != PINNED_DIGESTS[name]:
        problems.append(f"output digest {digest} != pinned {PINNED_DIGESTS[name]}")
    try:
        if command == "simulate":
            problems += _check_report(data)
        else:
            problems += _check_sweep_csv(data, loaded)
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"output does not parse: {type(exc).__name__}: {exc}")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _layer_metrics(tracer: spans.Tracer, wall: dict[int, float],
                   scaled: dict[int, float]) -> tuple[dict, dict[int, str]]:
    """Per-layer medians over the traced ops, and the ops their spans fail to cover.

    wall and scaled map each traced op to its wall and reference seconds;
    layer times are scaled by the same factor as their op.
    """
    grouped: dict[int, list] = {op: [] for op in wall}
    for s in tracer.spans:
        grouped[s.op].append(s)
    per_op: dict[int, dict[str, float]] = {}
    uncovered = {}
    for op, op_spans in grouped.items():
        times = spans.layer_times(op_spans)
        scale = scaled[op] / wall[op]
        m = per_op[op] = {}
        for layer in ("detection", "coincidence.count", "coincidence.delayed",
                      "coincidence.spectrum", "coincidence.classify", "harness", "source",
                      "bellstats", "presets"):
            m[f"{layer}.busy_s"] = times.get(layer, {}).get("busy", 0.0) * scale
        m["harness.self_s"] = times.get("harness", {}).get("self", 0.0) * scale
        m["cli.self_s"] = times.get("cli", {}).get("self", 0.0) * scale
        m.update(tracer.counters.get(op, {}))
        m["detection.click_yield"] = m["detection.clicks"] / (2.0 * m["source.emissions"])
        m["coincidence.match_ratio"] = m["coincidence.matched"] / m["coincidence.window_pairs"]
        # self times partition the top-level spans, so this is their share
        m["trace.coverage"] = sum(t["self"] for t in times.values()) / wall[op]
        if m["trace.coverage"] < COVERAGE_FLOOR:
            uncovered[op] = f"trace: spans cover only {m['trace.coverage']:.3f} of the op"
    names = per_op[next(iter(per_op))].keys()
    return {k: statistics.median(per_op[op][k] for op in per_op) for k in names}, uncovered


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(Path.cwd() / "src"))

    t0 = time.perf_counter()
    import bellsim.cli as cli
    load = cli.load_scenario_file if workload.command == "simulate" else cli.load_sweep_file
    loaded = load(args.input)
    setup_s = time.perf_counter() - t0

    argv = [workload.command, args.input, "--out", args.out]
    tracer = spans.Tracer()
    modules = {"cli": cli, "harness": sys.modules["bellsim.harness"]}
    calibrate()  # the first call pays one-time costs
    verdicts: dict[str, list[str]] = {}
    first_digest = None
    wall: dict[int, float] = {}  # op -> wall seconds
    scaled: dict[int, float] = {}  # op -> reference seconds
    traced_ops: list[int] = []
    failures: dict[int, list[str]] = {}
    op = 0
    deadline = math.inf
    speed_before = calibrate()
    while True:
        traced = bool(args.trace) and op > 0 and op % 2 == 0
        Path(args.out).unlink(missing_ok=True)  # each op's check reads its own output
        if traced:
            tracer.op = op
            tracer.install(modules)
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails this op; the run goes on to report it
            traceback.print_exc()
            rc = "an uncaught exception"
        wall[op] = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            traced_ops.append(op)
        speed_after = calibrate()
        speed = 0.5 * (speed_before + speed_after)
        scaled[op] = wall[op] * CALIBRATION_REF_S / speed
        if op == 0:
            setup_scaled = setup_s * CALIBRATION_REF_S / speed
            deadline = time.perf_counter() + args.seconds
        speed_before = speed_after

        data = Path(args.out).read_bytes() if rc == 0 else b""
        digest = hashlib.sha256(data).hexdigest()
        if first_digest is None:
            first_digest = digest
        problems = [] if rc == 0 else [f"cli.main returned {rc}"]
        if digest != first_digest:
            problems.append("output differs from the first op's bytes")
        if rc == 0 and digest not in verdicts:
            verdicts[digest] = check_output(workload.command, data, loaded, digest,
                                            args.workload, args.seed)
        problems += verdicts.get(digest, [])
        if problems:
            failures[op] = problems
        op += 1
        if op > MIN_LOOP_OPS and time.perf_counter() >= deadline:
            break

    loop_ops = [o for o in range(1, op) if o not in traced_ops]
    result = {
        "setup_s": setup_scaled,
        "setup_wall_s": setup_s,
        "first_op_s": scaled[0],
        "first_op_wall_s": wall[0],
        "op_s": [scaled[o] for o in loop_ops],
        "op_wall_s": [wall[o] for o in loop_ops],
        "peak_rss_mb": _peak_rss_mb(),
        "digest": first_digest,
        "attempted": op,
        "numpy": sys.modules["numpy"].__version__,
        "bellsim": getattr(sys.modules["bellsim"], "__version__", None),
    }
    if traced_ops:
        layers, uncovered = _layer_metrics(tracer, {o: wall[o] for o in traced_ops},
                                           {o: scaled[o] for o in traced_ops})
        layers["trace.overhead_ratio"] = (statistics.median(scaled[o] for o in traced_ops)
                                          / statistics.median(result["op_s"]) - 1.0)
        result["layers"] = layers
        for traced_op, problem in uncovered.items():
            failures.setdefault(traced_op, []).append(problem)
        if args.spans:
            tracer.write(args.spans)
    result["failed"] = len(failures)
    result["failures"] = [f"op {o}: {p}" for o, ps in sorted(failures.items()) for p in ps]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
