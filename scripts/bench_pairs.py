"""Alternating parent/change benchmark pairs for one workload.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload cubic-configs --pairs 10 --seconds 30 --seeds 401-410 \\
        --out BENCH_10.json [--trace 1]

DIR is a checkout of the repository (for instance a `git archive` of a
commit unpacked into a directory). Each pair runs `ncft_bench/run.py`
once from each checkout, as a subprocess, at the pair's seed; which side
runs first alternates from pair to pair, starting with the parent. The
script prints, per metric, each side's quartiles and median, the number
of pairs the change won and two verdicts (a metric's better direction
and bound come from the change checkout's BENCHMARK.json), and merges
the pairs and that summary into --out: a JSON object with "pairs", a
list of pair records, and "summary", keyed by workload ("<workload>
traced" for --trace 1) and computed from every pair of that key in the
file, so several workloads and batches can share one file. Nothing in either checkout is written
except what run.py itself writes under its ncft_bench/out directory.

The verdicts: claim_rule_met holds when there are at least ten pairs,
the change won at least nine tenths of them (ties count for neither
side) and its median is better than the parent's by more than the
parent's interquartile range.
within_bound holds when the change's median is worse than the parent's
by no more than the metric's bound, a fraction of the parent's median;
it reads "unresolved" when the parent's interquartile range, as a
fraction of its median, exceeds the bound and not every change run beats
every parent run, and null for a metric without a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# fewer pairs than this meet no claim, whatever they show
MIN_CLAIM_PAIRS = 10


def parse_seeds(text: str, pairs: int) -> list:
    """Seeds from 'A-B' or 'A,B,...'; there must be one per pair."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if len(seeds) != pairs:
        raise SystemExit(f"--seeds gives {len(seeds)} seeds for {pairs} pairs")
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """The metrics line of one run.py run in checkout; its other stdout
    line, the round info, is kept under 'round_info'."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "ncft_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed "
                         f"(status {proc.returncode}):\n{proc.stderr[-2000:]}")
    line = json.loads(lines[-1])
    if len(lines) > 1:
        line["round_info"] = json.loads(lines[-2])
    return line


def metric_rules(checkout: str) -> dict:
    """(better, bound) per metric name from BENCHMARK.json: 'lower' or
    'higher', and the relative bound, None for a metric without one."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values: list) -> list:
    """[q1, median, q3], linear interpolation between order statistics."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def claim_rule_met(parent: list, change: list, wins: int,
                   sign: float) -> bool:
    """Whether the change won at least 9/10 of ten or more pairs and its
    median beats the parent's by more than the parent's interquartile
    range; sign is 1 where lower is better, -1 where higher is."""
    q_parent, q_change = quartiles(parent), quartiles(change)
    return (len(parent) >= MIN_CLAIM_PAIRS
            and 10 * wins >= 9 * len(parent)
            and sign * (q_parent[1] - q_change[1]) > q_parent[2] - q_parent[0])


def within_bound(parent: list, change: list, sign: float, bound):
    """True or False: whether the change's median is worse than the
    parent's by no more than bound, relative to the parent's median;
    "unresolved" when the parent's own spread exceeds the bound and the
    change's runs do not all beat the parent's; None without a bound."""
    if bound is None:
        return None
    q_parent, q_change = quartiles(parent), quartiles(change)
    scale = abs(q_parent[1])
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if q_parent[2] - q_parent[0] > bound * scale and not every_run_better:
        return "unresolved"
    return sign * (q_change[1] - q_parent[1]) <= bound * scale


def summarize(pairs: list, rules: dict) -> dict:
    """Per metric: both sides' quartiles, the change/parent ratio of the
    medians, the pairs the change won or tied, and both verdicts."""
    values = {}
    for pair in pairs:
        for name in pair["parent"]["metrics"]:
            if name in pair["change"]["metrics"]:
                values.setdefault(name, []).append(
                    tuple(pair[side]["metrics"][name]["value"]
                          for side in SIDES))
    metrics = {}
    for name, rows in values.items():
        parent = [p for p, _ in rows]
        change = [c for _, c in rows]
        better, bound = rules.get(name, ("lower", None))
        sign = -1.0 if better == "higher" else 1.0
        q_parent, q_change = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in rows)
        metrics[name] = {
            "parent_q1_median_q3": q_parent,
            "change_q1_median_q3": q_change,
            "change_over_parent_median": (q_change[1] / q_parent[1]
                                          if q_parent[1] else None),
            "pairs": len(rows),
            "change_wins": wins,
            "ties": sum(c == p for p, c in rows),
            "claim_rule_met": claim_rule_met(parent, change, wins, sign),
            "within_bound": within_bound(parent, change, sign, bound),
        }
    calls_differing = sorted(
        name for name, rows in values.items()
        if name.endswith(".calls") and any(p != c for p, c in rows))
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "all_correct": all(pair[side]["correct"]
                           for pair in pairs for side in SIDES),
        "failed": [[pair[side]["failed"] for side in SIDES]
                   for pair in pairs],
        "calls_differing": calls_differing,
        "metrics": metrics,
    }


def _verdict(value) -> str:
    return {True: "yes", False: "NO", None: "-"}.get(value, value)


def report(key: str, summary: dict) -> str:
    out = [f"{key}: {len(summary['seeds'])} pairs, seeds {summary['seeds']}, "
           f"all correct: {summary['all_correct']}"]
    for name, m in summary["metrics"].items():
        p, c = m["parent_q1_median_q3"], m["change_q1_median_q3"]
        ratio = m["change_over_parent_median"]
        out.append(
            f"  {name:36s} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
            f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  "
            f"ratio {'-' if ratio is None else f'{ratio:.3f}'}  "
            f"won {m['change_wins']}/{m['pairs']}  "
            f"claim {'met' if m['claim_rule_met'] else 'not met'}  "
            f"within bound {_verdict(m['within_bound'])}")
    if summary["calls_differing"]:
        out.append(f"  calls differing: {summary['calls_differing']}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", required=True,
                        help="'A-B' or a comma-separated list, one per pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds, args.pairs)
    checkouts = {"parent": args.parent, "change": args.change}

    doc = {"pairs": [], "summary": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"workload": args.workload, "seed": seed, "trace": args.trace,
                "seconds": args.seconds, "order": list(order)}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed,
                                  args.seconds, args.trace)
        doc["pairs"].append(pair)
        print(f"pair {i + 1}/{len(seeds)} seed {seed} done", flush=True)

    key = args.workload + (" traced" if args.trace else "")
    same = [p for p in doc["pairs"]
            if p["workload"] == args.workload and p["trace"] == args.trace]
    doc["summary"][key] = summarize(same, metric_rules(args.change))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(report(key, doc["summary"][key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
