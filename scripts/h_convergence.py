"""Refinement study against the exact classical profile.

With theta=0 the flat and sharp thresholds coincide and the scheme must
reproduce the classical solution of the cubic problem 1.0 -> -0.8: a
tangent shock at x = 0.75 t ahead of a fan out to x = 1.92 t.  The L1
error at T=1 should shrink linearly in the strength cap h.  Release
check c12 runs the same measurement at h = 0.02, 0.01 and 0.005.
"""

import argparse
import os
import sys

# this checkout's sources, ahead of any installed ncft
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ncft.acceptance import classical_l1_error


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, action="append",
                        help="strength cap, repeatable; default 0.04..0.005")
    args = parser.parse_args()
    hs = args.h or [0.04, 0.02, 0.01, 0.005]

    print(f"{'h':>8} {'L1 error':>12} {'error/h':>10} {'fronts':>8}")
    for h in hs:
        err, n_fronts = classical_l1_error(h)
        print(f"{h:>8g} {err:>12.5f} {err / h:>10.3f} {n_fronts:>8}")


if __name__ == "__main__":
    main()
