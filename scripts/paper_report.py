#!/usr/bin/env python3
"""The paper's two checkable claims, measured: distortion and periods.

Capacity at low distortion: embeds uniform random message bits into the k
lowest planes of synthetic natural covers for k = 1..4 and tabulates the
measured PSNR next to the closed-form expectation
10*log10(255^2 / (0.5 * sum(4^p))). Random bits are the worst case: a text
or logo message flips fewer bits, so real payloads sit slightly above these
numbers.

Security from the scrambling: sweeps both modified transform shapes over a
range of i values for the same side, writes one CSV per shape, and prints
the distinct period sets. The period caps how many iterations a stage can
usefully run, so the spread of available periods is what makes i worth
keeping secret.
"""

import argparse
import math
import random
from pathlib import Path

import numpy as np

from catstego.arnold import period
from catstego.bitplane import embed
from catstego.metrics import compare
from catstego.schedule import random_schedule
from catstego.synth import natural_gray


def distortion_table(side, covers, seed):
    rng = np.random.default_rng(seed)
    sched = random_schedule(side, 2, random.Random(seed))

    print(f"{'cover':>8} {'planes':>6} {'psnr dB':>9} {'closed form':>11} {'bits kept':>9}")
    for c in range(covers):
        cover = natural_gray(side, seed=seed + 10 * c)
        for k in (1, 2, 3, 4):
            planes = list(range(k))
            # each message as P4 rows, the plane layout embed takes
            msgs = [np.packbits(rng.integers(0, 2, cover.shape, dtype=np.uint8), axis=1)
                    for _ in planes]
            report = compare(cover, embed(cover, msgs, sched, planes))
            closed = 10 * math.log10(255**2 / (0.5 * sum(4**p for p in planes)))
            print(f"{c:>8} {k:>6} {report.psnr:>9.4f} {closed:>11.4f} {report.bit_preservation:>9.4f}")


def period_sweep(side, lo, hi, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for family in ("ROWFIRST", "COLFIRST"):
        path = outdir / f"periods_{family.lower()}_n{side}.csv"
        periods = set()  # rows go straight to the file, so memory does not grow with the range
        with open(path, "w", encoding="ascii") as fh:
            fh.write("i,period\n")
            for i in range(lo, hi + 1):
                p = period(family, i, side)
                fh.write(f"{i},{p}\n")
                periods.add(p)
        print(f"{family}: i={lo}..{hi}, N={side}")
        print(f"  wrote {path}")
        print(f"  distinct periods: {sorted(periods)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=128, help="image side N")
    ap.add_argument("--covers", type=int, default=3, help="number of synthetic covers")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lo", type=int, default=1, help="first i of the period sweep")
    ap.add_argument("--hi", type=int, default=20, help="last i of the period sweep")
    ap.add_argument("--outdir", default="sweep_out", help="directory for the period CSVs")
    args = ap.parse_args()

    distortion_table(args.side, args.covers, args.seed)
    period_sweep(args.side, args.lo, args.hi, args.outdir)


if __name__ == "__main__":
    main()
