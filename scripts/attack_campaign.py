#!/usr/bin/env python3
"""Forged-certificate campaigns against the classic non-planar targets.

Runs every adversary strategy against K5, K6, K3,3, and the Petersen graph
and prints one report per target.  Any accepting run is a soundness bug.

Usage:
    python3 scripts/attack_campaign.py [trials] [seed]

Exit codes follow the CLI: 0 when nothing is accepted, 1 on any accepting
run, 64 on bad arguments (trials must be a positive integer, seed an
integer).
"""

import sys

from planarcert.graphs import generate
from planarcert.sim import attack, attack_report


def run(trials: int, seed: int) -> int:
    targets = [
        ("K5", generate("complete", k=5)),
        ("K6", generate("complete", k=6)),
        ("K3,3", generate("complete_bipartite", p=3, q=3)),
        ("Petersen", generate("petersen")),
    ]
    total = 0
    for name, g in targets:
        summary = attack(g, trials=trials, seed=seed)
        total += summary.total_accepts
        print(f"--- {name} ---")
        print(attack_report(summary))
    print(f"total accepting runs: {total}")
    return 0 if total == 0 else 1


USAGE = "usage: attack_campaign.py [trials] [seed]  (trials >= 1, seed an integer)"


def main(argv: list[str]) -> int:
    try:
        if len(argv) > 2:
            raise ValueError
        trials = int(argv[0]) if argv else 1000
        seed = int(argv[1]) if len(argv) > 1 else 0
        if trials < 1:
            raise ValueError
    except ValueError:
        print(USAGE, file=sys.stderr)
        return 64
    return run(trials, seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
