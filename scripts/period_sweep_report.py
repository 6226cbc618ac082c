#!/usr/bin/env python3
"""Period sweep experiment: how the scramble period varies with i.

Sweeps both modified transform shapes over a range of i values for a fixed
image side, writes one CSV per shape, and prints the distinct period sets.
The period caps how many iterations a stage can usefully run, so the spread
of available periods is what makes i worth keeping secret.
"""

import argparse
from pathlib import Path

from catstego.arnold import period


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=128, help="image side N")
    ap.add_argument("--lo", type=int, default=1)
    ap.add_argument("--hi", type=int, default=20)
    ap.add_argument("--outdir", default="sweep_out", help="directory for CSVs")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for family in ("ROWFIRST", "COLFIRST"):
        path = outdir / f"periods_{family.lower()}_n{args.side}.csv"
        periods = set()  # rows go straight to the file, so memory does not grow with the range
        with open(path, "w", encoding="ascii") as fh:
            fh.write("i,period\n")
            for i in range(args.lo, args.hi + 1):
                p = period(family, i, args.side)
                fh.write(f"{i},{p}\n")
                periods.add(p)
        distinct = sorted(periods)
        print(f"{family}: i={args.lo}..{args.hi}, N={args.side}")
        print(f"  wrote {path}")
        print(f"  distinct periods: {distinct}")


if __name__ == "__main__":
    main()
