#!/usr/bin/env python3
"""Scan the CHSH quantity against a rotation of Bob's analyzers.

Alice keeps (pi/2, 0); Bob's pair (pi/4, 3pi/4) rotates by phi.  The Born
modes trace 2 sqrt(2) cos(phi)-style lobes while the best classical table
stays pinned at |S| = 2.  Writes plot-ready CSV.
"""

import argparse
import math
import sys

import numpy as np

from hvqm import epr
from hvqm.logcodec import write_csv
from hvqm.spin import Direction


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=73)
    ap.add_argument("--trials", type=int, default=0,
                    help="add a Monte Carlo column with this many trials per correlator")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="chsh_scan.csv")
    args = ap.parse_args()

    rows = []
    for phi in np.linspace(0.0, math.pi, args.points):
        a1 = Direction.from_planar_angle(math.pi / 2)
        a2 = Direction.from_planar_angle(0.0)
        b1 = Direction.from_planar_angle(math.pi / 4 + phi)
        b2 = Direction.from_planar_angle(3 * math.pi / 4 + phi)
        analytic = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_ANALYTIC, a1, a2, b1, b2))
        row = [phi, analytic.s]
        if args.trials:
            mc = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, a1, a2, b1, b2),
                          trials=args.trials, seed=args.seed)
            row += [mc.s, mc.s_stderr]
        rows.append(row)

    header = ["phi", "s_analytic"] + (["s_mc", "s_mc_stderr"] if args.trials else [])
    write_csv(args.out, header, np.array(rows, dtype=float).T)

    peak = max(abs(r[1]) for r in rows)
    print(f"wrote {args.out} ({len(rows)} points)")
    print(f"peak |S| = {peak:.6f} (classical bound 2, quantum bound {2 * math.sqrt(2):.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
