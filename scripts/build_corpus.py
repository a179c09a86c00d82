#!/usr/bin/env python3
"""Write a corpus of graph files covering every generator family.

Usage:
    python3 scripts/build_corpus.py [directory]   (default: ./corpus)

Each file round-trips through the shared graph format, so
`planarcert prove/verify/attack` can be pointed at any of them directly.
Every file is written by `planarcert gen` from the instance's gen tokens, so
its first line, `# gen <construction> <key=value>...`, rebuilds the same
file byte for byte.
"""

import sys
from pathlib import Path

from planarcert.cli import EXIT_ACCEPT, main


def instances():
    """(file stem, `planarcert gen` arguments) for every instance."""
    for w, h in ((3, 3), (4, 5), (10, 10), (20, 20)):
        yield f"grid-{w}x{h}", f"grid w={w} h={h}"
    for n in (6, 16, 64):
        yield f"wheel-{n}", f"wheel n={n}"
    for n, seed in ((16, 1), (64, 1), (256, 2)):
        yield f"tree-{n}-s{seed}", f"tree n={n} seed={seed}"
        yield f"rmp-{n}-s{seed}", f"random_maximal_planar n={n} seed={seed}"
    for k in (4, 5):
        for p in (2, 4):
            yield f"blocks-k{k}-p{p}", f"blocks k={k} p={p}"
        yield f"blockcycle-k{k}", f"blocks k={k} p=3 cycle=1:3"
    yield "crossed-22-q3", "crossed n=22 q=3"
    yield "glued-22-q3", "glued n=22 q=3"
    yield "k5", "complete k=5"
    yield "k33", "complete_bipartite p=3 q=3"
    yield "petersen", "petersen"


def run(directory: str) -> int:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, tokens in instances():
        path = out / f"{name}.txt"
        code = main(["gen", *tokens.split(), "--out", str(path)])
        if code != EXIT_ACCEPT:
            return code
        count += 1
    print(f"{count} instances in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "corpus"))
