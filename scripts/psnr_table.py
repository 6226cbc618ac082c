#!/usr/bin/env python3
"""Cover distortion vs number of embedded bit planes.

Embeds uniform random message bits into the k lowest planes of synthetic
natural covers for k = 1..4 and tabulates the measured PSNR next to the
closed-form expectation 10*log10(255^2 / (0.5 * sum(4^p))). Random bits are
the worst case: a text or logo message flips fewer bits, so real payloads
sit slightly above these numbers.
"""

import argparse
import math
import random

import numpy as np

from catstego.bitplane import embed
from catstego.metrics import bit_preservation_ratio, psnr
from catstego.schedule import random_schedule
from catstego.synth import natural_gray


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=128)
    ap.add_argument("--covers", type=int, default=3, help="number of synthetic covers")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    sched = random_schedule(args.side, 2, random.Random(args.seed))

    print(f"{'cover':>8} {'planes':>6} {'psnr dB':>9} {'closed form':>11} {'bits kept':>9}")
    for c in range(args.covers):
        cover = natural_gray(args.side, seed=args.seed + 10 * c)
        for k in (1, 2, 3, 4):
            planes = list(range(k))
            # each message as P4 rows, the plane layout embed takes
            msgs = [np.packbits(rng.integers(0, 2, cover.shape, dtype=np.uint8), axis=1)
                    for _ in planes]
            stego = embed(cover, msgs, sched, planes)
            expected_mse = 0.5 * sum(4**p for p in planes)
            closed = 10 * math.log10(255**2 / expected_mse)
            kept = bit_preservation_ratio(cover, stego)
            print(
                f"{c:>8} {k:>6} {psnr(cover, stego):>9.4f} {closed:>11.4f} {kept:>9.4f}"
            )


if __name__ == "__main__":
    main()
