#!/usr/bin/env python3
"""Dense detection-vs-advantage frontier data for the return challenge.

Sweeps the weak-measurement family on a fine strength grid and adds seeded
Haar-random attacks with 1 and 2 ancilla qubits, so the empirically reachable
region can be plotted against the proved frontier.  Output is plot-ready CSV:
one point per row, no rendering here.

Usage: python scripts/sealing_frontier.py [--points N] [--seed N] [--out PATH]
"""

import argparse
import math
import pathlib

import numpy as np

from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow.protocols import EscrowParams, escrow_bit_density

THETA = math.pi / 8


def rows(points: int, seed: int):
    params = EscrowParams(THETA)
    r0 = escrow_bit_density(0, THETA)
    r1 = escrow_bit_density(1, THETA)
    for p in np.linspace(0.0, 1.0, points):
        rep = ana.sealing_metrics(
            adv.bob_weak_measurement(adv.BobWeakParams(float(p)), r0, r1), params)
        yield ("weak", float(p), rep.detection_p, rep.advantage_eps, rep.bound_rhs)
    rng = np.random.default_rng(seed)
    for ancillas in (1, 2):
        for _ in range(points):
            rep = ana.sealing_metrics(adv.random_return_attack(rng, ancillas), params)
            yield (f"haar-{ancillas}anc", float("nan"),
                   rep.detection_p, rep.advantage_eps, rep.bound_rhs)


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=nonnegative, default=200)
    parser.add_argument("--seed", type=nonnegative, default=0)
    parser.add_argument("--out", default="out/sealing_frontier.csv")
    args = parser.parse_args()
    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("family,strength,detection,advantage,frontier_bound\n")
        for family, strength, det, advantage, bound in rows(args.points, args.seed):
            fh.write(f"{family},{strength:.12g},{det:.12g},"
                     f"{advantage:.12g},{bound:.12g}\n")
    print(f"wrote {path}")
