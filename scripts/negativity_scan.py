#!/usr/bin/env python3
"""Minimum table weight as the third analyzer angle sweeps.

Directions (0, theta, 2 theta): the signed table's smallest weight dips
negative everywhere except the collinear point, bottoming out at -1/16 for
theta = pi/3.
"""

import argparse
import math
import sys

import numpy as np

from hvqm.logcodec import write_csv
from hvqm.quasiprob import negativity_report, solve_weights
from hvqm.spin import DirectionSet


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=121)
    ap.add_argument("--out", default="negativity_scan.csv")
    args = ap.parse_args()

    thetas = np.linspace(0.0, math.pi, args.points)
    reports = [negativity_report(solve_weights(
        DirectionSet.from_planar_angles([0.0, theta, 2 * theta]))) for theta in thetas]
    min_weight = np.array([rep.min_weight for rep in reports])
    n_negative = np.array([len(rep.negative_patterns) for rep in reports])
    write_csv(args.out, ["theta", "min_weight", "n_negative"],
              [thetas, min_weight, n_negative])

    floor = min_weight.min()
    first = thetas[np.argmax(min_weight < floor + 1e-12)]
    print(f"wrote {args.out} ({len(thetas)} points)")
    print(f"deepest negativity {floor:.6f}, first reached at theta = "
          f"{first:.4f} (expected -1/16 = {-1 / 16:.6f} at pi/3 = "
          f"{math.pi / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
