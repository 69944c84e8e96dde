"""Run the nucleation baseline and its gamma=0 contrast on the same data,
and print the sha256 of every artifact each run writes.

With --expect FILE the digests are also compared against FILE, one
`<sha256>  <config>/<artifact>` line per artifact (scripts/contrast_sha256.txt
holds the current ones); any differing, missing or unexpected artifact
makes the script exit with status 1."""

import argparse
import hashlib
import json
import os
import sys
from importlib.resources import files

# this checkout's sources, ahead of any installed ncft
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ncft import cli

CONFIGS = ("cubic-baseline.json", "cubic-no-nucleation.json")


def run_one(name, out_root):
    raw = json.loads(files("ncft").joinpath(f"configs/{name}").read_text())
    cfg = cli.validate_config(raw)
    out = f"{out_root}/{name[:-len('.json')]}"
    return cfg, cli.run_experiment(cfg, out), out


def artifact_hashes(out):
    """(file name, sha256 hex digest) of every file in out, sorted by name."""
    rows = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            rows.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return rows


def read_expected(path):
    """{"<config>/<artifact>": sha256 hex digest} from an --expect file."""
    expected = {}
    try:
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    digest, key = line.split()
                    expected[key] = digest
    except OSError as exc:
        sys.exit(f"cannot read {path}: {exc}")
    return expected


def compare(expected, got):
    """One line per artifact whose digest differs from, or is absent in,
    the expected set, and per expected artifact that was not written."""
    lines = []
    for key in sorted(expected.keys() | got.keys()):
        want, have = expected.get(key), got.get(key)
        if want == have:
            continue
        if want is None:
            lines.append(f"unexpected {key}: {have}")
        elif have is None:
            lines.append(f"missing {key}: expected {want}")
        else:
            lines.append(f"changed {key}: {have}, expected {want}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/contrast")
    parser.add_argument("--expect", metavar="FILE",
                        help="compare the digests against FILE; exit 1 on "
                             "any difference")
    args = parser.parse_args()
    expected = read_expected(args.expect) if args.expect else None

    got = {}
    for name in CONFIGS:
        cfg, manifest, out = run_one(name, args.out)
        summary = manifest["summary"]
        etas = summary["etas"]
        print(f"{name}: gamma={cfg['kinetics']['gamma']}, "
              f"{summary['completed_cycles']} completed cycle(s), "
              f"smallest recorded gap "
              f"{min(etas) if etas else float('nan'):.6f}")
        # the gamma=0 run can report c08 fail: a merge is allowed to raise
        # the speed-gap potential event-wise while every completed cycle
        # still pays its Lyapunov toll (see cycles.json in the out dir)
        for key, entry in sorted(manifest["checks"].items()):
            if entry["status"] != "not_evaluated":
                print(f"  {key} {entry['name']}: {entry['status']}")
        print(f"  artifacts in {out}")
        for artifact, digest in artifact_hashes(out):
            print(f"    {digest}  {artifact}")
            got[f"{name[:-len('.json')]}/{artifact}"] = digest

    if expected is not None:
        diffs = compare(expected, got)
        for line in diffs:
            print(line)
        if diffs:
            sys.exit(f"{len(diffs)} difference(s) from {args.expect}")
        print(f"all {len(got)} digests match {args.expect}")


if __name__ == "__main__":
    main()
