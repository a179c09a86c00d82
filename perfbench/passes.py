"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/passes.py KIND --seed N --work DIR [--smoke] [--trace] [--check] [--index K]

KIND is ``prove``, ``verify-setup``, ``verify`` or ``attack``.  ``run.py``
starts every pass as its own process: ``planarcert.sim`` memoises decodes and
verdicts process-wide, so a second round over the same views in one process
would measure cache hits, and ``ru_maxrss`` is only the pass's own peak in a
fresh process.  The pass prints one JSON object as its last stdout line.

Every timing of an untraced pass is scaled to a fixed host speed by
readings of a reference loop around it (``scaled``).  With ``--trace`` the
timed calls run with the layer wrappers of ``spans.py`` installed, take no
readings, and the pass adds per-layer figures, in wall seconds, under
``"layer"``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import networkx  # noqa: E402
import numpy  # noqa: E402
import planarcert  # noqa: E402
from planarcert import cli, sim  # noqa: E402
from planarcert.formats import write_certificates, write_graph  # noqa: E402
from planarcert.graphs import build_graph, generate  # noqa: E402
from planarcert.pls import pack_certificate, prove_planar, unpack_certificate  # noqa: E402
from planarcert.pop import pop_verify_all  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

#: Nodes of the random maximal planar graph and the tree, and the grid's side.
#: A prove pass then takes 2-3 s on a 2-core box, so a run repeats it several
#: times; at n = 4096 one pass took 25-35 s (see README.md).
PLANAR_N = 1024
GRID_SIDE = 32
#: An untraced pass repeats a cheap set-up at least this often and for at
#: least this long, and reports every repetition; run.py takes the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.1
#: Forged trials per strategy and target.  The replay arm proves one donor
#: per trial, up to 200.  At 100 a pass takes about 3 s on a 2-core box.
ATTACK_TRIALS = 100
#: The default strategies, grouped into the ``attack`` calls a pass makes on
#: each target.  Each call gives the outcomes one call with all four gives,
#: since every trial is seeded by seed, strategy and trial number.  Short
#: calls are scaled more closely by the reference readings around them.
#: template-edits and swap share a call so that the template is built once:
#: its growth costs 0.2-1.2 s at n = 28, depending on the target.
ATTACK_CALLS = (("random-fields",), ("template-edits", "swap"), ("replay",))
#: Honest proofs whose size the attack workload reports (see attack_pass).
ATTACK_BITS_GRAPHS = 10
SMOKE_ATTACK_TRIALS = 20
ATTACK_N = 28
#: Every timing an untraced pass reports is scaled to a host on which
#: ``reference_s()`` reads this; a 2-core box read 1.1-2.1 ms within a minute.
REFERENCE_S = 0.0015


def planar_inputs(seed: int, smoke: bool, tracer) -> list[tuple[str, object]]:
    """grid 32x32, random_maximal_planar and tree at n = 1024: m ~ 2n, 3n, n."""
    side, n = (8, 64) if smoke else (GRID_SIDE, PLANAR_N)
    specs = (
        ("grid", "grid", {"w": side, "h": side}),
        ("random_maximal_planar", "random_maximal_planar", {"n": n, "seed": seed}),
        ("tree", "tree", {"n": n, "seed": seed}),
    )
    out = []
    for label, kind, params in specs:
        with tracer.span("graphs.generate"):
            out.append((label, generate(kind, **params)))
    return out


def attack_targets(seed: int, index: int, tracer) -> list[tuple[str, object]]:
    """K3,3 and the seed's index-th non-planar target: a maximal planar graph
    on 28 nodes plus one extra edge."""
    rng = random.Random(f"{seed}/target/{index}")
    with tracer.span("graphs.generate"):
        k33 = generate("complete_bipartite", p=3, q=3)
        base = generate("random_maximal_planar", n=ATTACK_N, seed=rng.randrange(2**32))
    nodes = base.nodes()
    missing = [(u, v) for u in nodes for v in nodes if u < v and not base.has_edge(u, v)]
    g28 = build_graph(base.edges() + [rng.choice(missing)], nodes=nodes)
    # Euler: a simple planar graph has m <= 3n - 6.  Checked without the
    # embedder under test, whose witness search would dominate the set-up.
    if g28.m <= 3 * g28.n - 6:
        raise RuntimeError(f"attack target n={ATTACK_N} seed={seed} index={index} is not provably non-planar")
    return [("k33", k33), (f"n{ATTACK_N}", g28)]


def _reference_grid(side: int = 48) -> dict[tuple[int, int], list[tuple[int, int]]]:
    return {
        (x, y): [(a, b) for a, b in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                 if 0 <= a < side and 0 <= b < side]
        for x in range(side)
        for y in range(side)
    }


_REFERENCE_GRID = _reference_grid()


def reference_s(reps: int = 8) -> float:
    """Median seconds of one breadth-first search over a fixed 48x48 grid.

    The host's speed drifts by a third within a minute, from load outside
    the benchmark that no process of ours can see.  This loop is pure Python,
    like planarcert, and shares no code with it, so timing it next to a
    call says how fast the host runs at that moment.
    """
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        dist = {(0, 0): 0}
        queue = collections.deque([(0, 0)])
        while queue:
            v = queue.popleft()
            for w in _REFERENCE_GRID[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        out.append(time.perf_counter() - t)
    return statistics.median(out)


def scaled(fn, traced: bool) -> tuple[object, float, float]:
    """``fn()``, its wall seconds, and those seconds scaled to a host on
    which ``reference_s()`` reads REFERENCE_S: wall seconds times REFERENCE_S
    over the mean of ``reference_s()`` just before and just after the call.

    A traced pass reports layer times in wall seconds and measures no
    reference, so that its spans cover the timed work alone.
    """
    before = 0.0 if traced else reference_s()
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    if traced:
        return out, wall, wall
    return out, wall, wall * 2 * REFERENCE_S / (before + reference_s())


def timed_setups(build, traced: bool) -> tuple[object, list[float]]:
    """Build the inputs once if traced, else repeatedly; every build's
    seconds, scaled as ``scaled`` scales the whole loop."""

    def repeat():
        times, start = [], time.perf_counter()
        while True:
            t = time.perf_counter()
            inputs = build()
            times.append(time.perf_counter() - t)
            if traced or (len(times) >= SETUP_REPEATS and time.perf_counter() - start >= SETUP_SECONDS):
                return inputs, times

    (inputs, times), wall, at_reference = scaled(repeat, traced)
    return inputs, [t * at_reference / wall for t in times]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bits_summary(certs: list[bytes]) -> dict:
    bits = [8 * len(b) for b in certs]
    return {"max": max(bits), "sum": sum(bits), "count": len(bits)}


def packed_digest(packed: dict[str, dict[int, bytes]]) -> str:
    h = hashlib.sha256()
    for label in sorted(packed):
        for x in sorted(packed[label]):
            h.update(f"{label}:{x}:".encode())
            h.update(packed[label][x])
    return h.hexdigest()[:16]


def save_packed(work: Path, packed: dict[str, dict[int, bytes]]) -> None:
    blob = {label: {str(x): b.hex() for x, b in certs.items()} for label, certs in packed.items()}
    (work / "packed.json").write_text(json.dumps(blob))


def load_packed(work: Path) -> dict[str, dict[int, bytes]]:
    blob = json.loads((work / "packed.json").read_text())
    return {
        label: {int(x): bytes.fromhex(h) for x, h in certs.items()}
        for label, certs in blob.items()
    }


def failure(what: str) -> None:
    print(f"FAILED: {what}", file=sys.stderr)


def uncovered(tracer: Tracer, t0: float, wall: float) -> float:
    """Timed wall time that no outermost span covers."""
    return wall - tracer.covered(t0, t0 + wall)


# --- workloads ---------------------------------------------------------------


def prove_pass(seed: int, smoke: bool, tracer, check: bool) -> dict:
    traced = isinstance(tracer, Tracer)
    graphs, setup = timed_setups(lambda: planar_inputs(seed, smoke, tracer), traced)

    items, packed, failed = [], {}, 0
    t0 = time.perf_counter()
    with tracer.patched():
        for label, g in graphs:
            try:
                a, wall_s, s = scaled(lambda: sim.honest_assignment(g), traced)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            items.append({"label": label, "n": g.n, "m": g.m, "s": s, "wall_s": wall_s})
            packed[label] = a.certs
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    # Untimed output check: the honest certificates must make every node
    # accept.  run.py asks for it on a run's first pass; the prover is
    # deterministic, and every later pass must give the same digest.
    attempted = len(graphs)
    for label, g in graphs if check else ():
        attempted += 1
        if label in packed and not sim.run_round(g, sim.Assignment(packed[label], sim.Origin("honest"))).accepted:
            failure(f"honest round on {label} rejected")
            failed += 1
    out = {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup,
        "timed_s": sum(i["s"] for i in items),
        "items": items,
        "rss_mb": rss,
        "bits": bits_summary([b for c in packed.values() for b in c.values()]),
        "digest": {"packed": packed_digest(packed)},
    }
    if isinstance(tracer, Tracer):
        out["layer"] = {
            "graphs.generate_s": tracer.total("graphs.generate"),
            "embedding.embed_s": tracer.total("embedding.planar_embed"),
            "graphs.degeneracy_s": tracer.total("graphs.degeneracy_order"),
            "transform.tree_s": tracer.total("transform.spanning_tree_dfs"),
            "transform.tour_s": tracer.total("transform.dfs_mapping"),
            "transform.induce_s": tracer.total("transform.induce_graph"),
            "pop.check_s": tracer.total("pop.is_path_outerplanar"),
            "pop.prove_s": tracer.total("pop.pop_prove"),
            "pop.spans": tracer.counts["pop.spans"],
            "pls.prove_s": tracer.self_time("pls.prove_planar", only="embedding.planar_embed"),
            "pls.assign_self_s": tracer.self_time("pls.prove_planar"),
            "pls.pack_s": tracer.total("pls.pack_certificate"),
            "uncovered_s": uncovered(tracer, t0, wall),
        }
    return out


def write_verify_inputs(work: Path, graphs, certs_by_label, tracer) -> int:
    """Graph and certificate files for ``planarcert verify``; returns text bytes."""
    text_bytes = 0
    for label, g in graphs:
        with tracer.span("formats.write_certificates"):
            text = write_certificates(certs_by_label[label])
        (work / f"{label}.certs").write_text(text)
        (work / f"{label}.graph").write_text(write_graph(g))
        text_bytes += len(text.encode())
    return text_bytes


def verify_setup_pass(seed: int, smoke: bool, work: Path) -> dict:
    """Everything the verify workload reads: one set-up, since it is the prover."""

    def build():
        graphs = planar_inputs(seed, smoke, NullTracer())
        objs, packed = {}, {}
        for label, g in graphs:
            objs[label] = prove_planar(g)
            packed[label] = {x: pack_certificate(c) for x, c in objs[label].items()}
        save_packed(work, packed)
        write_verify_inputs(work, graphs, objs, NullTracer())
        return graphs, packed

    (graphs, packed), _, setup = scaled(build, False)
    return {
        "attempted": len(graphs),
        "failed": 0,
        "setup_s": [setup],
        "bits": bits_summary([b for c in packed.values() for b in c.values()]),
        "digest": {"packed": packed_digest(packed)},
    }


def virtual_path(certs: dict[int, object]):
    """The virtual path graph and its interval certificates, read off the
    edge certificates: a tree edge holds two tour steps, a chord one."""
    edges, table = set(), {}
    for cert in certs.values():
        for ec in cert.edge_certs:
            edges.add((min(ec.i, ec.j), max(ec.i, ec.j)))
            edges.add((min(ec.i2, ec.j2), max(ec.i2, ec.j2)))
            table.update(ec.bindings())
    return build_graph(sorted(edges)), table


def verify_pass(seed: int, smoke: bool, tracer, work: Path) -> dict:
    traced = isinstance(tracer, Tracer)
    graphs = planar_inputs(seed, smoke, tracer)
    packed = load_packed(work)
    layer = {}
    if traced:
        # The set-up's last step, traced: certificate text from the honest
        # certificates of the traced prove pass.
        objs = {
            label: {x: unpack_certificate(b) for x, b in packed[label].items()}
            for label in packed
        }
        layer["formats.cert_text_bytes"] = write_verify_inputs(work, graphs, objs, tracer)

    rounds, clis, reports, outputs = [], [], {}, {}
    t0 = time.perf_counter()
    with tracer.patched():
        for label, g in graphs:
            a = sim.Assignment(packed[label], sim.Origin("honest"))
            reports[label], wall_s, s = scaled(lambda: sim.run_round(g, a), traced)
            rounds.append({"label": label, "n": g.n, "s": s, "wall_s": wall_s})
        for label, g in graphs:
            argv = ["verify", str(work / f"{label}.graph"), str(work / f"{label}.certs")]
            buf = io.StringIO()

            def verify_files():
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    with tracer.span("cli.main"):
                        return cli.main(argv)

            code, wall_s, s = scaled(verify_files, traced)
            clis.append({"label": label, "n": g.n, "s": s, "wall_s": wall_s})
            outputs[label] = (code, buf.getvalue())
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    failed = 0
    for label, rep in reports.items():
        if not rep.accepted:
            failure(f"honest round on {label} rejected at node {rep.first_rejector}")
            failed += 1
    for label, (code, text) in outputs.items():
        if code != cli.EXIT_ACCEPT or not text.endswith("global: accept\n"):
            failure(f"planarcert verify on {label} exited {code}: {text[-200:]!r}")
            failed += 1
    cli_digest = hashlib.sha256("".join(outputs[k][1] for k in sorted(outputs)).encode())
    out = {
        "attempted": len(reports) + len(outputs),
        "failed": failed,
        "timed_s": sum(r["s"] for r in rounds + clis),
        "rounds": rounds,
        "clis": clis,
        "rss_mb": rss,
        "bits": bits_summary([b for c in packed.values() for b in c.values()]),
        "digest": {"packed": packed_digest(packed), "cli": cli_digest.hexdigest()[:16]},
    }
    if traced:
        all_objs = [c for label in objs for c in objs[label].values()]
        for label in objs:
            vg, table = virtual_path(objs[label])
            with tracer.span("pop.pop_verify_all"):
                codes = pop_verify_all(vg, table)
            if any(code is not None for code in codes.values()):
                failure(f"interval checks reject the honest virtual path of {label}")
                out["failed"] += 1
            out["attempted"] += 1
        layer.update(
            {
                "graphs.generate_s": tracer.total("graphs.generate"),
                "formats.write_certs_s": tracer.total("formats.write_certificates"),
                "sim.round_s": tracer.total("sim.run_round"),
                "sim.round_self_s": tracer.self_time("sim.run_round"),
                "pls.unpack_s": tracer.total("pls.unpack_certificate"),
                "pls.node_verify_s": tracer.total("pls.verify_node_planarity"),
                "pls.edge_certs": sum(len(c.edge_certs) for c in all_objs),
                "pls.bytes_packed": sum(len(b) for c in packed.values() for b in c.values()),
                "pop.verify_all_s": tracer.total("pop.pop_verify_all"),
                "formats.parse_graph_s": tracer.total("formats.parse_graph"),
                "formats.parse_certs_s": tracer.total("formats.parse_certificates"),
                "cli.verify_self_s": tracer.self_time("cli.main"),
                "uncovered_s": uncovered(tracer, t0, wall),
            }
        )
        out["layer"] = layer
    return out


def strategy_seconds(tracer: Tracer, first: int, start: float, trials: int) -> list[float]:
    """Seconds of each strategy in one traced ``attack`` call that began at
    ``start``, with span number ``first``.  The call runs its strategies in
    order, ``trials`` rounds each, so a strategy ends with its last round and
    the next begins there; the first one's share includes the call's set-up.
    """
    rounds = [r for r in tracer.spans[first:] if r[0] == "sim.run_round" and r[3] == -1]
    ends = [r[2] for r in rounds[trials - 1 :: trials]]
    return [b - a for a, b in zip([start, *ends], ends)]


def attack_pass(seed: int, smoke: bool, tracer, index: int) -> dict:
    traced = isinstance(tracer, Tracer)
    trials = SMOKE_ATTACK_TRIALS if smoke else ATTACK_TRIALS
    targets, setup = timed_setups(lambda: attack_targets(seed, index, tracer), traced)

    if sum(ATTACK_CALLS, ()) != sim.DEFAULT_STRATEGIES:
        raise RuntimeError(f"ATTACK_CALLS does not cover the default strategies {sim.DEFAULT_STRATEGIES}")
    items, outcomes, seconds, failed = [], {}, {}, 0
    t0 = time.perf_counter()
    with tracer.patched():
        for label, g in targets:
            for strategies in ATTACK_CALLS:
                first, start = len(tracer.spans) if traced else 0, time.perf_counter()
                summary, wall_s, s = scaled(
                    lambda: sim.attack(g, strategies=strategies, trials=trials, seed=seed), traced
                )
                items.append(
                    {"label": label, "trials": trials * len(strategies), "s": s, "wall_s": wall_s}
                )
                failed += summary.total_accepts
                outcomes.update(((label, o.strategy), o) for o in summary.outcomes)
                if traced:
                    for strategy, sec in zip(strategies, strategy_seconds(tracer, first, start, trials)):
                        seconds[strategy] = seconds.get(strategy, 0.0) + sec
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    hist = {}
    for (label, strategy), o in outcomes.items():
        if sum(o.phase_histogram.values()) + o.accepts != trials:
            failure(f"{label}/{strategy}: phase histogram does not sum to {trials}")
            failed += 1
        hist[f"{label}/{strategy}"] = o.phase_histogram
    # The forgeries imitate honest proofs at n = 28; the replay donors are
    # exactly such proofs of random maximal planar graphs.  Over one graph the
    # largest certificate swings by a whole edge certificate with the seed,
    # so the size is taken over several.
    donor_like = [
        b
        for k in range(ATTACK_BITS_GRAPHS)
        for b in sim.honest_assignment(
            generate("random_maximal_planar", n=ATTACK_N, seed=seed + k)
        ).certs.values()
    ]
    out = {
        "attempted": sum(i["trials"] for i in items),
        "failed": failed,
        "setup_s": setup,
        "timed_s": sum(i["s"] for i in items),
        "items": items,
        "rss_mb": rss,
        "bits": bits_summary(donor_like),
        "digest": {f"phases.{index}": hashlib.sha256(json.dumps(hist, sort_keys=True).encode()).hexdigest()[:16]},
    }
    if traced:
        layer = {
            "graphs.generate_s": tracer.total("graphs.generate"),
            "embedding.embed_s": tracer.total("embedding.planar_embed"),
            "pls.prove_s": tracer.self_time("pls.prove_planar", only="embedding.planar_embed"),
            "sim.round_s": tracer.total("sim.run_round"),
            "pls.unpack_s": tracer.total("pls.unpack_certificate"),
            "pls.node_verify_s": tracer.total("pls.verify_node_planarity"),
            "uncovered_s": uncovered(tracer, t0, wall),
        }
        for strategy in sim.DEFAULT_STRATEGIES:
            layer[f"sim.attack.{strategy}_trials_per_s"] = trials * len(targets) / seconds[strategy]
            for phase in (1, 2, 3):
                layer[f"sim.attack.{strategy}.phase{phase}"] = sum(
                    outcomes[label, strategy].phase_histogram.get(phase, 0) for label, _ in targets
                )
        out["layer"] = layer
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=("prove", "verify-setup", "verify", "attack"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true", help="prove: also run the honest round")
    p.add_argument("--index", type=int, default=0, help="attack: which of the seed's n=28 targets")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(planarcert.__file__).resolve().parents:
        print(f"planarcert was imported from {planarcert.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    reference_s()  # the first reading in a process is slow
    before = reference_s()
    if args.kind == "prove":
        out = prove_pass(args.seed, args.smoke, tracer, args.check)
    elif args.kind == "verify-setup":
        out = verify_setup_pass(args.seed, args.smoke, args.work)
    elif args.kind == "verify":
        out = verify_pass(args.seed, args.smoke, tracer, args.work)
    else:
        out = attack_pass(args.seed, args.smoke, tracer, args.index)
    if args.trace:
        # Its calls took no readings, so the pass's readings scale them as a whole.
        out["timed_s"] *= 2 * REFERENCE_S / (before + reference_s())
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
