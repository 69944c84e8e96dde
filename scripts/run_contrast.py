"""Run the nucleation baseline and its gamma=0 contrast on the same data,
and print the sha256 of every artifact each run writes."""

import argparse
import hashlib
import json
import os
from importlib.resources import files

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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/contrast")
    args = parser.parse_args()

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
        for name, digest in artifact_hashes(out):
            print(f"    {digest}  {name}")


if __name__ == "__main__":
    main()
