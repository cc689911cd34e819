#!/usr/bin/env python3
"""Coincidence-curve visibility versus window width for both detector models.

The particle chain's visibility is flat in the window width up to Monte
Carlo noise; the wave chain's rises as the window narrows, because its
detection times carry angle information. One row per width, one column per
model.
"""

import argparse
import dataclasses
import math

# a script is a CLI process: bellsim.cli gives it one OpenBLAS thread and
# the CLI's allocator policy, and must load before anything imports numpy
import bellsim.cli  # noqa: F401
from bellsim.bellstats import compute_visibility_statistic
from bellsim.harness import apply_sweep_value, coincidence_curve
from bellsim.presets import aspect_like, wave_like


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=float, nargs="+",
                        default=[8.0, 20.0, 40.0], help="window widths in ns")
    parser.add_argument("--points", type=int, default=5,
                        help="curve points spanning [0, pi/2]")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")

    step = (math.pi / 2.0) / (args.points - 1)
    angles = [k * step for k in range(args.points)]
    models = {"particle": aspect_like(), "wave": wave_like()}
    try:  # the configs refuse a bad width or seed before any curve runs
        rows = [(width, [dataclasses.replace(apply_sweep_value(base, "window_width", width),
                                             seed=args.seed) for base in models.values()])
                for width in args.widths]
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{'window ns':>10} " + " ".join(f"{name:>10}" for name in models))
    for width, scenarios in rows:
        row = [compute_visibility_statistic(coincidence_curve(s, angles))[0]
               for s in scenarios]
        print(f"{width:10.1f} " + " ".join(f"{v:10.4f}" for v in row))


if __name__ == "__main__":
    main()
