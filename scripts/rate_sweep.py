#!/usr/bin/env python3
"""Sweep the emission rate and watch the accidental share grow.

At low rates accidentals are negligible and raw, corrected, and truth-only
statistics coincide. As the rate rises the accidental share grows, the raw
statistics sag, and the corrected ones stay centred on truth as long as the
source is Poisson. Writes the full sweep table as CSV and prints a summary.
"""

import argparse
import dataclasses

from bellsim.harness import SweepSpec, run_sweep
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
    fixed = dataclasses.replace(
        base,
        emission=dataclasses.replace(base.emission, duration=args.duration),
        seed=args.seed,
    )
    result = run_sweep(SweepSpec(parameter="mean_rate",
                                 values=tuple(args.rates), fixed=fixed))
    with open(args.out, "w", newline="") as fh:
        fh.write(result.to_csv_text())

    print(f"{'rate/s':>10} {'acc/true':>9} {'S_F raw':>8} {'S_F corr':>9} {'S_F truth':>10}")
    for row in result.rows:
        r = row.report
        values = {
            label: {s.name: s.value for s in report.statistics()}
            for label, report in (("raw", r.report_raw),
                                  ("corr", r.report_corrected_product),
                                  ("truth", r.report_truth))
        }
        acc = sum(c.accidental_pairs for c in r.configurations.values())
        true = sum(c.true_pairs for c in r.configurations.values())
        print(f"{row.value:10.0f} {acc / true:9.4f} {values['raw']['s_freedman']:8.4f} "
              f"{values['corr']['s_freedman']:9.4f} {values['truth']['s_freedman']:10.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
