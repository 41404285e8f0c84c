#!/usr/bin/env python3
"""Run the full verification battery and write one JSON report per sweep.

Runs the sweeps of `starring.harness.BATTERY`: the three exhaustive finite
rings, four randomized rational/Gaussian streams, and the constructed SEP /
EP-only / shift-pattern streams.  Reports land in ./reports/ (or the
directory given with --out-dir).  Each summary row gives the sweep's
`wallTime`, its time in seconds, and ends with the sha256 of its report
without the `wallTime` line (`VerificationReport.digest()`), so two builds
produce the same reports exactly when this script prints the same digests.
Exits 1 if any sweep finds a counterexample, which a correct build never
does, and 2, before any sweep runs, if --entries names an entry the
registry does not have.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from starring.harness import BATTERY, UnknownEntryError, resolve_entries, sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--entries", default="all")
    args = parser.parse_args()

    try:
        resolve_entries(args.entries)
    except UnknownEntryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bad = 0
    t0 = time.perf_counter()
    for name, spec in BATTERY.items():
        report = sweep(spec, args.entries)
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json() + "\n", encoding="utf-8")
        n = report.counterexample_count()
        bad += n
        t = report.totals
        print(f"{name:<26} elements {t['generated']:>5} "
              f"both {t['bothInvertible']:>5} sep {t['sep']:>4} "
              f"counterexamples {n}  wallTime {report.wall_time:8.2f}s  "
              f"sha256 {report.digest()}  -> {path}")
    print(f"\ntotal wall time {time.perf_counter() - t0:.1f}s; "
          f"{'all sweeps clean' if bad == 0 else f'{bad} COUNTEREXAMPLES'}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
