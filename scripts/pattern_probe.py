"""Track a strong nonclassical front on the p-system hit by weak waves of
both families, and report per run what the Lyapunov functional and the
mass ledger make of it.

Each data set puts u_L = (0, w) left of x = 0 and its kinetic image
Phi_flat(u_L) right of it, one nonclassical front, then 8 jumps at
x = 0.1, ..., 0.8, each adding uniform(-a, a, 2) drawn from
default_rng(seed) to the state before it. The runs use h = 0.01, T = 1,
theta = gamma = 0.5 and strong_jumps = [0]; the grid is w in
{0.3, 0.5}, a in {0.002, 0.01} and seeds 0-2, 12 runs.

Per run it prints the event count, the flagged events with their case
tags, the largest per-event rise of W+K*Q under
lemma_weights(0.75, 0.1, 1.0), and the corrected mass drift of
conservation_report. A run that raises prints the error instead."""

import argparse
import os
import sys

import numpy as np

# this checkout's sources, ahead of any installed ncft
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ncft import diagnostics, kinetics, models, tracking
from ncft.kinetics import KineticFunction

KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
H = 0.01
T_END = 1.0
N_JUMPS = 8


def pattern_data(model, w: float, a: float, seed: int) -> tuple:
    """(states, positions) of one data set: the nonclassical front at
    x = 0 and the weak jumps behind it."""
    u_l = np.array([0.0, w])
    states = [u_l, kinetics.phi_flat(model, KIN, u_l)]
    rng = np.random.default_rng(seed)
    for _ in range(N_JUMPS):
        states.append(states[-1] + rng.uniform(-a, a, 2))
    positions = [0.1 * k for k in range(N_JUMPS + 1)]
    return states, positions


def probe(model, w: float, a: float, seed: int) -> str:
    """One report line for the data set (w, a, seed)."""
    label = f"w={w:g} a={a:g} seed={seed}"
    states, positions = pattern_data(model, w, a, seed)
    try:
        fs = tracking.init_fronts(model, KIN, states, positions, H,
                                  strong_jumps=[0])
        result = tracking.run(model, KIN, fs, T_END)
    except (tracking.TrackingError, ValueError) as exc:
        return f"{label}: {type(exc).__name__}: {exc}"
    series = diagnostics.lyapunov_series(
        model, result.events, [result.initial, result.final],
        diagnostics.lemma_weights(0.75, 0.1, 1.0))
    flagged = [f"{r['case']}@{r['t']:.4f}" for r in series["events"]
               if r["flagged"]]
    drift = tracking.conservation_report(model, result)["corrected"]
    return (f"{label}: {len(result.events)} events, {len(flagged)} flagged "
            f"[{' '.join(flagged)}], max rise {series['max_delta']:.3e}, "
            f"corrected drift {drift:.3e}")


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    model = models.elasticity_model()
    for w in (0.3, 0.5):
        for a in (0.002, 0.01):
            for seed in (0, 1, 2):
                print(probe(model, w, a, seed), flush=True)

if __name__ == "__main__":
    main()
