"""Solve fixed draws of Riemann problems on both shipped models at three
kinetic functions and print one sha256 per model and kinetic function
over every outcome.

The p-system draw, on `elasticity_model()`: 2,000 weak pairs (a uniform
in [-0.6, 0.6]^2, b = a + a uniform jump in [-0.05, 0.05]^2, seed 5) and
1,500 strong pairs (a and b uniform in [-0.8, 0.8]^2, seed 11). The
cubic draw, on `cubic_model()`: 3,000 pairs with a and b uniform in
[-1.5, 1.5], the whole inner ball up to its edge, seed 7. Each outcome
is hashed as the fan's JSON with sorted keys, or as `Class: message`
when the solve raises, one line per problem; no draw drops its
failures (the cubic draw has none).

With --expect FILE the digests are also compared against FILE, one
`<sha256>  <key>` line per model and kinetic function
(scripts/riemann_outcomes_sha256.txt holds the current ones); any
differing, missing or unexpected digest makes the script exit with
status 1. A p-system key is the kinetics alone, `theta=...,gamma=...`;
a cubic key carries the prefix `cubic/`.

    python3 scripts/riemann_outcomes.py \\
        --expect scripts/riemann_outcomes_sha256.txt
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

# this checkout's sources, ahead of any installed ncft
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ncft.kinetics import KineticFunction
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import solve_riemann
from run_contrast import compare, read_expected

# (theta, nucleation gamma): the classical limit, the bundled value and a
# strong kinetic relation
KINETICS = ((0.0, 0.0), (0.5, 0.5), (0.9, 0.25))


def system_problems():
    """The 2,000 weak and then the 1,500 strong p-system (left, right)
    pairs."""
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = rng.uniform(-0.6, 0.6, 2)
        yield a, a + rng.uniform(-0.05, 0.05, 2)
    rng = np.random.default_rng(11)
    for _ in range(1500):
        yield rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.8, 0.8, 2)


def cubic_problems():
    """The 3,000 cubic (left, right) pairs."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        yield rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 1)


def outcome(model, kin, a, b):
    """The fan's sorted-key JSON, or `Class: message` for a failure."""
    try:
        fan = solve_riemann(model, kin, a, b)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(fan.to_json_dict(), sort_keys=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--expect", metavar="FILE",
                        help="compare the digests against FILE; exit 1 on "
                             "any difference")
    args = parser.parse_args()
    expected = read_expected(args.expect) if args.expect else None

    got = {}
    for prefix, model, pairs in (
            ("", elasticity_model(), list(system_problems())),
            ("cubic/", cubic_model(), list(cubic_problems()))):
        for theta, gamma in KINETICS:
            kin = KineticFunction(theta=theta, nucleation_gamma=gamma)
            h = hashlib.sha256()
            failures = 0
            start = time.perf_counter()
            for a, b in pairs:
                text = outcome(model, kin, a, b)
                failures += not text.startswith("{")
                h.update(text.encode() + b"\n")
            key = f"{prefix}theta={theta},gamma={gamma}"
            got[key] = h.hexdigest()
            print(f"{got[key]}  {key}  ({len(pairs)} problems, {failures} "
                  f"failures, {time.perf_counter() - start:.2f} s)")

    if expected is not None:
        diffs = compare(expected, got)
        for line in diffs:
            print(line)
        if diffs:
            sys.exit(f"{len(diffs)} difference(s) from {args.expect}")
        print(f"all {len(got)} digests match {args.expect}")


if __name__ == "__main__":
    main()
