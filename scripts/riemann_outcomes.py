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

With --dump FILE every outcome is also written to FILE, one JSON line
per problem: its key, its index in the draw, and either the fan's waves
as `family:kind` and its states (the left state, then each wave's right
state) as `float.hex` strings, or the failure as `Class: message`. With
--against FILE the outcomes are compared with such a dump, made by an
earlier run, and for each key the script prints how many fans moved and
by how much at most, which problems changed between solving and failing
or changed failure class, which fans changed their waves, and which
failure messages changed. So a numerics change reports how many outcomes
moved, not only that a digest did:

    python3 scripts/riemann_outcomes.py --dump before.jsonl  # at the parent
    python3 scripts/riemann_outcomes.py --against before.jsonl
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
    """(text, fan): the fan's sorted-key JSON and the fan, or `Class:
    message` and None for a failure."""
    try:
        fan = solve_riemann(model, kin, a, b)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return json.dumps(fan.to_json_dict(), sort_keys=True), fan


def record(key, k, text, fan):
    """The dump line of problem k under key: its waves and states, or its
    failure."""
    if fan is None:
        return {"key": key, "problem": k, "error": text}
    states = [fan.waves[0].left] if fan.waves else []
    states += [w.right for w in fan.waves]
    return {"key": key, "problem": k,
            "waves": [f"{w.family}:{w.kind}" for w in fan.waves],
            "states": [[float.hex(x) for x in u.tolist()] for u in states]}


def _state_gap(before, after):
    # the largest componentwise difference of two equally long state lists
    return max((abs(float.fromhex(x) - float.fromhex(y))
                for u, v in zip(before["states"], after["states"])
                for x, y in zip(u, v)), default=0.0)


def compare_outcomes(before, after):
    """Per key, what moved between two lists of dump records: problems,
    fans solved and problems failed on both sides, fans bit-equal, the
    largest state gap of a fan that kept its waves, the problems that
    started or stopped failing or changed failure class, the fans whose
    waves changed, and the (problem, before, after) failure messages that
    changed within one class. Records pair up by key and problem."""
    old = {(r["key"], r["problem"]): r for r in before}
    report = {}
    for r in after:
        b = old.get((r["key"], r["problem"]))
        if b is None:
            raise ValueError(f"problem {r['problem']} of {r['key']} is not "
                             f"in the earlier outcomes")
        rep = report.setdefault(r["key"], {
            "problems": 0, "solved": 0, "failed": 0, "bit_equal": 0,
            "max_gap": 0.0, "new_failures": [], "new_solves": [],
            "class_changes": [], "wave_changes": [], "message_changes": []})
        rep["problems"] += 1
        k = r["problem"]
        if "error" in b and "error" in r:
            rep["failed"] += 1
            if b["error"] != r["error"]:
                same_class = (b["error"].split(":", 1)[0]
                              == r["error"].split(":", 1)[0])
                (rep["message_changes"] if same_class
                 else rep["class_changes"]).append((k, b["error"],
                                                    r["error"]))
            continue
        if "error" in b:
            rep["new_solves"].append(k)
            continue
        if "error" in r:
            rep["new_failures"].append(k)
            continue
        rep["solved"] += 1
        if b["waves"] != r["waves"]:
            rep["wave_changes"].append(k)
        elif b["states"] == r["states"]:
            rep["bit_equal"] += 1
        else:
            rep["max_gap"] = max(rep["max_gap"], _state_gap(b, r))
    return report


def report_lines(report):
    """The printed form of compare_outcomes' report."""
    lines = []
    for key, rep in report.items():
        lines.append(
            f"{key}: {rep['bit_equal']} of {rep['solved']} fans solved on "
            f"both sides bit-equal, {rep['solved'] - rep['bit_equal']} "
            f"moved, max |dstate| {rep['max_gap']:.3g}; "
            f"{len(rep['wave_changes'])} changed their waves; "
            f"{len(rep['new_failures'])} new and {len(rep['new_solves'])} "
            f"gone failures, {len(rep['class_changes'])} changed class; "
            f"{len(rep['message_changes'])} of {rep['failed']} failure "
            f"messages changed")
        for k in rep["wave_changes"]:
            lines.append(f"  problem {k}: waves changed")
        for k in rep["new_failures"]:
            lines.append(f"  problem {k}: now fails")
        for k in rep["new_solves"]:
            lines.append(f"  problem {k}: now solves")
        for k, was, now in rep["class_changes"] + rep["message_changes"]:
            lines.append(f"  problem {k}: {was} -> {now}")
    return lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--expect", metavar="FILE",
                        help="compare the digests against FILE; exit 1 on "
                             "any difference")
    parser.add_argument("--dump", metavar="FILE",
                        help="write every outcome to FILE, one JSON line "
                             "per problem")
    parser.add_argument("--against", metavar="FILE",
                        help="report which outcomes moved since the dump "
                             "in FILE")
    args = parser.parse_args()
    expected = read_expected(args.expect) if args.expect else None

    got = {}
    records = []
    for prefix, model, pairs in (
            ("", elasticity_model(), list(system_problems())),
            ("cubic/", cubic_model(), list(cubic_problems()))):
        for theta, gamma in KINETICS:
            kin = KineticFunction(theta=theta, nucleation_gamma=gamma)
            h = hashlib.sha256()
            failures = 0
            start = time.perf_counter()
            key = f"{prefix}theta={theta},gamma={gamma}"
            for k, (a, b) in enumerate(pairs):
                text, fan = outcome(model, kin, a, b)
                failures += fan is None
                h.update(text.encode() + b"\n")
                if args.dump or args.against:
                    records.append(record(key, k, text, fan))
            got[key] = h.hexdigest()
            print(f"{got[key]}  {key}  ({len(pairs)} problems, {failures} "
                  f"failures, {time.perf_counter() - start:.2f} s)")

    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = [json.loads(line) for line in fh]
        for line in report_lines(compare_outcomes(before, records)):
            print(line)

    if expected is not None:
        diffs = compare(expected, got)
        for line in diffs:
            print(line)
        if diffs:
            sys.exit(f"{len(diffs)} difference(s) from {args.expect}")
        print(f"all {len(got)} digests match {args.expect}")


if __name__ == "__main__":
    main()
