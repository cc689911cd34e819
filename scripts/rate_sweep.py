#!/usr/bin/env python3
"""Sweep the emission rate and watch the accidental share grow.

At low rates accidentals are negligible and raw, corrected, and truth-only
statistics coincide. As the rate rises the accidental share grows and the
raw statistics sag. The corrected ones climb above truth, though the source
is Poisson: the detectors' dead time hides the accidentals near each true
click, so the product estimate subtracts more than the window holds
(acceptance criterion 13). Writes the full sweep table as CSV and prints
a summary, in which a point with no true pair or a zero denominator reads
"undefined".
"""

import argparse
import dataclasses

# a script is a CLI process: bellsim.cli gives it one OpenBLAS thread and
# the CLI's allocator policy, and must load before anything imports numpy
import bellsim.cli  # noqa: F401
from bellsim.harness import SweepSpec, run_sweep, sweep_csv_text
from bellsim.presets import aspect_like


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[1.0e4, 3.0e4, 1.0e5, 3.0e5, 1.0e6],
                        help="mean emission rates per second")
    parser.add_argument("--duration", type=float, default=0.2,
                        help="seconds of beam time per configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="rate_sweep.csv")
    args = parser.parse_args()

    base = aspect_like()
    try:  # the configs refuse a bad rate, duration or seed before any point runs
        fixed = dataclasses.replace(
            base,
            emission=dataclasses.replace(base.emission, duration=args.duration),
            seed=args.seed,
        )
        spec = SweepSpec(parameter="mean_rate", values=tuple(args.rates), fixed=fixed)
    except ValueError as exc:
        parser.error(str(exc))
    try:  # an unwritable --out is refused before any point runs
        out = open(args.out, "w", newline="")
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")
    with out:
        reports = run_sweep(spec)
        out.write(sweep_csv_text(spec, reports))

    columns = {"acc/true": 9, "S_F raw": 8, "S_F corr": 9, "S_F truth": 10}
    print(f"{'rate/s':>10} " + " ".join(f"{name:>{w}}" for name, w in columns.items()))
    for value, r in zip(spec.values, reports):
        acc = sum(c.accidental_pairs for c in r.configurations.values())
        true = sum(c.true_pairs for c in r.configurations.values())
        cells = [acc / true if true else None]
        cells += [r.reports[v].s_freedman.value for v in ("raw", "corrected_product", "truth")]
        print(f"{value:10.0f} " + " ".join(
            f"{'undefined':>{w}}" if v is None else f"{v:{w}.4f}"
            for v, w in zip(cells, columns.values())))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
