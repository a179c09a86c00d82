"""Print every end-to-end metric of every workload, then the traced run.

    python3 perfbench/report.py [--seed N] [--seconds S] [--smoke]

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1`` (the traced run, overhead measured on ``verify``), forwarding
each run's human-readable lines: every metric by name and unit, the
failed share, the environment block and the output digest.  Exits non-zero
if any run failed a check.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = (("prove", 0), ("verify", 0), ("attack", 0), ("verify", 1))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    status = 0
    for workload, trace in RUNS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=200)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines), flush=True)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
