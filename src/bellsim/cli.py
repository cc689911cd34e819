"""Command-line interface.

Subcommands:
    simulate <scenario.json>            full four-configuration run, JSON report
    stats    <counts.(json|csv)>        recompute statistics from a counts table
    spectrum <scenario.json> --config k time-difference spectrum CSV for one configuration
    sweep    <sweep.json>               one-parameter sweep, CSV table

Any failure exits nonzero after printing a one-line JSON error object to
stderr, so scripts can parse outcomes without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from bellsim.harness import (CONFIG_KEYS, reanalyze_counts, run_configuration, run_scenario,
                             run_sweep)
from bellsim.presets import bundled_counts_path, load_scenario_file, load_sweep_file

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep the pages a cell frees, for the next cell to reuse.

    By default glibc unmaps each freed array above its dynamic mmap
    threshold and trims the heap top, so every cell faulted its arrays in
    again: 1,300 to 4,900 minor faults and 4 to 12 ms of system time per
    run of the benchmark's aspect-like simulate or dense sweep, in one
    process, against under 20 faults with this policy.
    Both settings are needed, because setting either one freezes the
    dynamic mmap threshold: the trim threshold alone doubled the faults,
    and the mmap threshold alone left 3,500 to 5,100 per run. Arrays over
    32 MiB still get their own mapping and are unmapped when freed, so the
    memory kept is at most one cell's working set. Other C libraries lack
    mallopt or libc.so.6, and keep their default.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


# set for the CLI process only: importing the library leaves the host's allocator alone
_keep_freed_memory()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage text; the CLI contract wants a
    # machine-readable object on stderr instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file end to end")
    p_sim.add_argument("scenario", help="scenario JSON file (may name a preset)")
    p_sim.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sim.add_argument("--counts-csv", dest="counts_csv",
                       help="also write per-configuration counts as CSV")

    p_stats = sub.add_parser("stats", help="recompute statistics from a counts file")
    p_stats.add_argument("counts", nargs="?", help="counts file, JSON or CSV")
    p_stats.add_argument("--bundled", action="store_true",
                         help="use the bundled historical counts table")
    p_stats.add_argument("--out", help="write the JSON report here instead of stdout")

    p_spec = sub.add_parser("spectrum", help="emit one configuration's spectrum as CSV")
    p_spec.add_argument("scenario", help="scenario JSON file (may name a preset)")
    p_spec.add_argument("--config", required=True, choices=list(CONFIG_KEYS),
                        help="which polariser configuration to report")
    p_spec.add_argument("--out", help="write the CSV here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run a one-parameter sweep file")
    p_sweep.add_argument("sweep", help="sweep JSON file")
    p_sweep.add_argument("--out", help="write the CSV table here instead of stdout")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    report = run_scenario(load_scenario_file(args.scenario))
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    if args.counts_csv:
        lines = [",".join(str(v) for v in row) for row in report.counts_csv_rows()]
        with open(args.counts_csv, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_stats(args) -> int:
    if args.bundled == (args.counts is not None):
        raise _UsageError("pass exactly one of a counts file or --bundled")
    path = bundled_counts_path() if args.bundled else args.counts
    result = reanalyze_counts(path)
    _emit(json.dumps(result.to_dict(), indent=2), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = run_configuration(load_scenario_file(args.scenario), args.config).spectrum
    lines = ["bin_start_ns,count"]
    lines += [f"{float(start)!r},{int(c)}"
              for start, c in zip(spectrum.bin_edges[:-1], spectrum.counts)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    result = run_sweep(load_sweep_file(args.sweep))
    _emit(result.to_csv_text(), args.out)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
}


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except FileNotFoundError as exc:
        _emit_error("file_not_found", f"{exc.filename}: no such file")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
