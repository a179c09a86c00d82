"""planarcert benchmark: prove, verify and attack workloads, end to end or traced.

    python3 perfbench/run.py --workload prove|verify|attack --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Every measured pass starts in a fresh
interpreter (see passes.py).  Passes repeat for about ``--seconds``, and each
timing is the median over passes.  Every timing of an untraced pass is
scaled to a fixed host speed by a reference loop timed next to it
(``passes.scaled``); the ``per pass`` line gives the wall-to-scaled ratio.
A ``verify`` pass is preceded by its own set-up pass, which proves the inputs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
makes the traced run instead: one traced pass of every workload, prefixed
``prove.``, ``verify.`` and ``attack.``, plus one untraced pass of the chosen
workload, whose difference is the tracing overhead; ``--seconds`` does not
apply.  ``--smoke`` shrinks every input so the whole thing takes seconds.

Human-readable lines come first; the last stdout line is the JSON result.
The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("prove", "verify", "attack")
#: Every run must end within 180 s; no pass is started that would overrun.
BUDGET_S = 170.0


class PassError(RuntimeError):
    """A pass crashed, timed out or printed no result."""


def run_pass(
    kind: str, args, work: Path, traced: bool, deadline: float, check: bool = False, index: int = 0
) -> dict:
    cmd = [
        sys.executable, str(HERE / "passes.py"), kind,
        "--seed", str(args.seed), "--work", str(work), "--index", str(index),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError(f"no time left for the {kind} pass")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{kind} pass did not finish within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{kind} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repeat_pass(kind: str, args, work: Path, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced passes for about ``--seconds`` (at least one): the set-up
    passes and the timed passes.  A new pass starts only if the last one,
    taken as its length, would end nearer to ``--seconds`` than stopping."""
    setups, timed = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        if kind == "verify":
            setups.append(run_pass("verify-setup", args, work, False, deadline))
        timed.append(run_pass(kind, args, work, False, deadline, check=not timed, index=len(timed)))
        took = time.monotonic() - t
        now = time.monotonic()
        if now - start + took / 2 >= args.seconds or now + took > deadline:
            return setups, timed


def median(values) -> float:
    return statistics.median(list(values))


# --- end-to-end metrics -------------------------------------------------------


def prove_metrics(passes: list[dict]) -> tuple[dict, list[float], float]:
    """Metrics printed for reading only, each pass's operations per second,
    and the run's ``ops_per_s``."""
    rates = [sum(i["m"] for i in p["items"]) / sum(i["s"] for i in p["items"]) for p in passes]
    per_graph = {
        f"prove_s.{i['label']}": (median(q["items"][k]["s"] for q in passes), "s")
        for k, i in enumerate(passes[0]["items"])
    }
    return {"prove_edges_per_s": (median(rates), "edges/s"), **per_graph}, rates, median(rates)


def verify_metrics(passes: list[dict]) -> tuple[dict, list[float], float]:
    def us_per_node(rows):
        return 1e6 * sum(r["s"] for r in rows) / sum(r["n"] for r in rows)

    named = {
        "round_us_per_node": (median(us_per_node(p["rounds"]) for p in passes), "us"),
        "cli_verify_us_per_node": (median(us_per_node(p["clis"]) for p in passes), "us"),
    }
    rates = [
        (sum(r["n"] for r in p["rounds"]) + sum(r["n"] for r in p["clis"]))
        / (sum(r["s"] for r in p["rounds"]) + sum(r["s"] for r in p["clis"]))
        for p in passes
    ]
    return named, rates, median(rates)


def attack_metrics(passes: list[dict]) -> tuple[dict, list[float], float]:
    """Every pass attacks another n=28 target, and the targets' costs differ
    by up to a third, so a median over passes would jump between them.  The
    run's rate pools every pass: trials over seconds."""

    def rate(items):
        return sum(i["trials"] for i in items) / sum(i["s"] for i in items)

    items = [i for p in passes for i in p["items"]]
    per_target = {
        f"attack_trials_per_s.{label}": (rate([i for i in items if i["label"] == label]), "1/s")
        for label in dict.fromkeys(i["label"] for i in items)
    }
    named = {"attack_trials_per_s": (rate(items), "1/s"), **per_target}
    return named, [rate(p["items"]) for p in passes], rate(items)


METRICS = {"prove": prove_metrics, "verify": verify_metrics, "attack": attack_metrics}


def end_to_end(args, work: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    setup, passes = repeat_pass(args.workload, args, work, deadline)
    named, rates, ops = METRICS[args.workload](passes)
    # A pass that repeats its set-up counts once, with the median of its repeats.
    setups = [median(p["setup_s"]) for p in (setup or passes)]
    rows = [p.get("items") or p["rounds"] + p["clis"] for p in passes]
    slowdown = [sum(r["wall_s"] for r in rs) / sum(r["s"] for r in rs) for rs in rows]
    print("per pass: ops_per_s " + " ".join(f"{r:.6g}" for r in rates)
          + " | setup_s " + " ".join(f"{t:.6g}" for t in setups)
          + " | wall/scaled " + " ".join(f"{x:.3g}" for x in slowdown))
    bits = passes[0]["bits"]
    values = dict(
        ops_per_s=ops,
        setup_s=median(setups),
        peak_rss_mb=median(p["rss_mb"] for p in passes),
        max_cert_bits=bits["max"],
        mean_cert_bits=bits["sum"] / bits["count"],
    )
    return named, values, setup + passes


# --- traced run -------------------------------------------------------------


def traced(args, work: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    setup = run_pass("verify-setup", args, work, False, deadline)
    results = {w: run_pass(w, args, work, True, deadline, check=True) for w in WORKLOADS}
    untraced = run_pass(args.workload, args, work, False, deadline)
    values = {
        f"{w}.{name}": value for w, r in results.items() for name, value in r["layer"].items()
    }
    overhead = results[args.workload]["timed_s"] - untraced["timed_s"]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced["timed_s"]
    return {}, values, [setup, *results.values(), untraced]


# --- output -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "planarcert" / "__init__.py").is_file():
        print(f"error: no planarcert sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = HERE / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        named, values, passes = measure(args, work, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Passes over the same inputs must agree on every output digest they share.
    digest: dict[str, set[str]] = {}
    for p in passes:
        for key, value in p["digest"].items():
            digest.setdefault(key, set()).add(value)
    consistent = all(len(v) == 1 for v in digest.values())
    mode = "traced run" if args.trace else f"workload {args.workload}"
    print(f"{mode}: seed {args.seed}, {len(passes)} passes, each in a fresh interpreter")
    for name, (value, unit) in named.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<34} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    for name, unit in declared.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    env = {**passes[-1]["env"], "git_commit": git_commit(), "seed": args.seed, "smoke": args.smoke}
    print("env " + json.dumps(env, sort_keys=True))
    print("digest " + json.dumps({k: sorted(v) for k, v in sorted(digest.items())}))
    if not consistent:
        print("error: passes over the same inputs gave different outputs", file=sys.stderr)
    correct = failed == 0 and consistent
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
