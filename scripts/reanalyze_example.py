#!/usr/bin/env python3
"""Recompute the statistics of a count table, raw and corrected.

Defaults to the bundled historical single-channel table, whose raw row
stays inside every limit while the accidental-subtracted row breaks all
three.
"""

import argparse

from bellsim.harness import reanalyze_counts
from bellsim.presets import bundled_counts_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("counts", nargs="?", default=None,
                        help="counts file (JSON or CSV); bundled table when omitted")
    args = parser.parse_args()

    result = reanalyze_counts(args.counts or bundled_counts_path())
    print("counts:", {k: v for k, v in result.counts.to_dict().items() if v is not None})
    for label, report in result.reports.items():
        print(f"\n{label}")
        for s in report.statistics():
            if s.value is None:
                print(f"  {s.name:>10}   undefined (limit {s.limit:+.3f})")
                continue
            verdict = "violated" if s.violated else "respected"
            print(f"  {s.name:>10} = {s.value:+.4f}  (limit {s.limit:+.3f}, {verdict})")


if __name__ == "__main__":
    main()
