#!/usr/bin/env python3
"""Two-slit screen profiles: coherent vs which-path, plus the dark regions.

Writes one CSV with both normalized patterns and prints where the coherent
pattern is eps-suppressed (the bins where an undetected arrival would
certify a change of state).
"""

import argparse
import sys

import numpy as np

from hvqm.logcodec import write_csv
from hvqm.pathint import Geometry2Slit, dark_region_finder, screen_patterns


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bins", type=int, default=512)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--wavelength", type=float, default=0.01)
    ap.add_argument("--out", default="fringe_profile.csv")
    args = ap.parse_args()

    g = Geometry2Slit.from_wavelength(args.wavelength, bins=args.bins)
    coherent, whichpath = screen_patterns(g)
    dark = dark_region_finder(coherent, whichpath, eps=args.eps)
    is_dark = np.zeros(g.bins, dtype=int)
    is_dark[dark] = 1

    x = g.bin_centers()
    write_csv(args.out, ["bin_center", "coherent", "whichpath", "dark"],
              [x, coherent.probabilities, whichpath.probabilities, is_dark])

    print(f"wrote {args.out}")
    print(f"fringe spacing lambda*l2/d = {g.fringe_spacing}")
    print(f"{len(dark)} dark bins at eps = {args.eps}: "
          + ", ".join(f"{float(x[i]):+.3f}" for i in dark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
