"""One-round synchronous simulator, adversarial prover harness, size sweeps.

``run_round`` gives every node exactly its own certificate plus its graph
neighbors' certificates — nothing else.  The neighbor view is a read-only
mapping that raises on any access outside the one-round horizon, so a buggy
or cheating verifier cannot silently peek further.  Node evaluations are
independent of each other; they are run in ascending node order so reports
are reproducible byte for byte.  A round may stop at its first rejecting
node, since the global decision, the first rejector and its verdict are
then already known.

``attack`` drives dishonest certificate assignments against the verifier:
uniformly random field values, honest templates with a few corrupted fields,
certificates swapped between nodes, and honest certificates replayed from a
different planar graph.  Every assignment is freshly built per trial; the
template itself is never modified.  A trial reads only the decision and the
first rejector's phase, so its round stops at the first rejector.  Replay
donors are random maximal planar graphs, proved on the embedding their
generator built rather than re-embedded.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

from .embedding import RotationSystem, canonical_rotation, planar_embed
from .errors import FirewallViolation, FormatError, ParameterError
from .graphs import Graph, _embedded_random_maximal_planar, build_graph, generate, relabel
from .pls import (
    PHASE_COLLECT,
    NodeCertificate,
    Verdict,
    _field_widths,
    _set_field,
    certificate_bit_fields,
    certificate_size_bits,
    encode_fields,
    pack_certificate,
    prove_planar,
    unpack_certificate,
    verify_node_planarity,
)

DEFAULT_STRATEGIES = ("random-fields", "template-edits", "swap", "replay")
EDIT_BUDGETS = (1, 2, 4)
DEFAULT_TRIALS = 1000
_REPLAY_POOL = 200  # distinct replay donors per campaign


@dataclass(frozen=True)
class Origin:
    """Provenance of a certificate assignment (the control-arm audit trail)."""

    kind: str  # honest | random | mutated | external
    base: str | None = None
    edits: int | None = None

    def __str__(self) -> str:
        if self.kind == "mutated":
            return f"mutated({self.base}, edits={self.edits})"
        if self.base:
            return f"{self.kind}({self.base})"
        return self.kind


@dataclass(frozen=True)
class Assignment:
    """One opaque certificate per node, with provenance."""

    certs: dict[int, bytes]
    origin: Origin


@dataclass(frozen=True)
class SizeStats:
    max_bits: int
    mean_bits: float


@dataclass(frozen=True)
class RunReport:
    """One round's verdicts.

    ``per_node`` holds every node's verdict, or, for a round stopped at its
    first rejector, those of the nodes evaluated up to and including it.
    The other fields are the full round's either way.
    """

    per_node: dict[int, Verdict]
    global_decision: str  # "accept" iff every node accepted
    first_rejector: int | None
    stats: SizeStats

    @property
    def accepted(self) -> bool:
        return self.global_decision == "accept"


class _NeighborView(Mapping):
    """Read-only view of the certificates a node may legally see.

    Any lookup outside the allowed set raises FirewallViolation; iteration
    never leaves the allowed set.
    """

    __slots__ = ("_certs", "_allowed")

    def __init__(self, certs: dict[int, bytes], allowed: frozenset[int]):
        self._certs = certs
        self._allowed = allowed

    def __getitem__(self, key: int) -> bytes:
        if key not in self._allowed:
            raise FirewallViolation(
                f"certificate of node {key} is outside the one-round view"
            )
        return self._certs[key]

    def __contains__(self, key: object) -> bool:
        return key in self._allowed

    def __iter__(self):
        return iter(sorted(self._allowed))

    def __len__(self) -> int:
        return len(self._allowed)


@lru_cache(maxsize=65536)
def _decode(data: bytes) -> NodeCertificate | None:
    """Cached certificate decoding; None for undecodable bytes."""
    try:
        return unpack_certificate(data)
    except FormatError:
        return None


def planarity_verifier(x: int, own: bytes, neighbors: Mapping[int, bytes]) -> Verdict:
    """Byte-level adapter around the per-node planarity verifier."""
    own_cert = _decode(own)
    if own_cert is None:
        return Verdict(
            decision="reject", reason="own certificate does not decode", phase=PHASE_COLLECT
        )
    decoded: dict[int, NodeCertificate] = {}
    for y in neighbors:
        cert = _decode(neighbors[y])
        if cert is None:
            return Verdict(
                decision="reject",
                reason=f"certificate of neighbor {y} does not decode",
                phase=PHASE_COLLECT,
            )
        decoded[y] = cert
    return verify_node_planarity(x, own_cert, decoded)


@lru_cache(maxsize=1 << 18)
def _cached_verdict(x: int, own: bytes, items: tuple[tuple[int, bytes], ...]) -> Verdict:
    # Sound because the built-in verifier is a pure function of its view.
    return planarity_verifier(x, own, dict(items))


def run_round(
    g: Graph,
    a: Assignment,
    verifier=planarity_verifier,
    *,
    stop_at_first_reject: bool = False,
) -> RunReport:
    """Evaluate one synchronous verification round and aggregate verdicts.

    Nodes are evaluated in ``g.nodes()`` order.  With
    ``stop_at_first_reject`` the round ends at the first rejecting node:
    the decision, ``first_rejector``, its verdict and ``stats`` are the full
    round's, and ``per_node`` holds the evaluated prefix only.
    """
    nodes = g.nodes()
    missing = [v for v in nodes if v not in a.certs]
    if missing:
        raise ParameterError(f"assignment lacks certificates for nodes {missing}")
    extra = set(a.certs) - set(nodes)
    if extra:
        raise ParameterError(f"assignment has certificates for non-nodes {sorted(extra)}")
    per_node: dict[int, Verdict] = {}
    first_rejector = None
    for x in nodes:
        if verifier is planarity_verifier:
            # identical view ⇒ identical verdict (determinism guarantee), so
            # the built-in verifier's verdicts are safe to memoize
            verdict = _cached_verdict(
                x, a.certs[x], tuple((y, a.certs[y]) for y in g.neighbors(x))
            )
        else:
            view = _NeighborView(a.certs, frozenset(g.neighbors(x)))
            verdict = verifier(x, a.certs[x], view)
        per_node[x] = verdict
        if first_rejector is None and not verdict.accepted:
            first_rejector = x
            if stop_at_first_reject:
                break
    sizes = [8 * len(a.certs[x]) for x in nodes]
    return RunReport(
        per_node=per_node,
        global_decision="accept" if first_rejector is None else "reject",
        first_rejector=first_rejector,
        stats=SizeStats(max_bits=max(sizes), mean_bits=sum(sizes) / len(sizes)),
    )


# --- assignment builders ------------------------------------------------------


def honest_assignment(g: Graph) -> Assignment:
    """Pack the honest prover's certificates; raises on non-planar input."""
    certs = {x: pack_certificate(c) for x, c in prove_planar(g).items()}
    return Assignment(certs=certs, origin=Origin("honest"))


def random_assignment(g: Graph, seed: int | str) -> Assignment:
    """Uniform random values, each in its field's legal range, in the layout."""
    rng = random.Random(seed)
    widths = _field_widths(max(g.nodes()), g.n)

    def draw(name, width, lo, hi, value):
        return rng.randint(lo, hi)

    certs = {x: encode_fields(draw, *widths)[0] for x in g.nodes()}
    return Assignment(certs=certs, origin=Origin("random"))


def _planar_template(
    g: Graph, seed: int | str, planar: bool
) -> tuple[dict[int, NodeCertificate], str]:
    """Honest certificates for g itself, or for a maximal planar subgraph.

    ``planar`` is g's planarity verdict, which the caller already holds.
    """
    if planar:
        return prove_planar(g), "honest-template"
    rng = random.Random(seed)
    nodes = g.nodes()
    # spanning tree first: connected and trivially planar
    root = nodes[0]
    seen = {root}
    frontier = [root]
    kept: list[tuple[int, int]] = []
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                kept.append((min(u, v), max(u, v)))
                frontier.append(u)
    tree = set(kept)
    rest = [e for e in g.edges() if e not in tree]
    rng.shuffle(rest)
    # A planar graph on n >= 3 nodes has at most 3n - 6 edges (Euler), so
    # once kept holds that many every later candidate would fail the test.
    most = 3 * g.n - 6
    for e in rest:
        if len(kept) == most:
            break
        candidate = build_graph(kept + [e], nodes=nodes)
        if planar_embed(candidate, counterexample=False) is not None:
            kept.append(e)
    sub = build_graph(kept, nodes=nodes)
    return prove_planar(sub), "planar-subgraph-template"


def _edit_one_field(cert: NodeCertificate, data: bytes, rng: random.Random) -> bytes:
    """Give one randomly chosen field another of its legal values.

    A field with a single legal value gets any other value of its width.
    """
    fields = certificate_bit_fields(cert)
    target = rng.randrange(len(fields))
    f = fields[target]
    lo, hi = (f.lo, f.hi) if f.lo < f.hi else (0, (1 << f.width) - 1)
    new = rng.randint(lo, hi - 1)
    return _set_field(data, fields, target, new + (new >= f.value))


def _replay_graph(g: Graph, seed: int) -> tuple[Graph, RotationSystem | None]:
    """A planar graph over exactly g's node ids, structurally unrelated.

    A random maximal planar donor (n >= 4) comes with the rotation system of
    its generator's embedding; a tree donor comes with None.
    """
    ids = g.nodes()
    n = len(ids)
    label = {k + 1: ids[k] for k in range(n)}
    if n < 4:
        return relabel(generate("tree", n=n, seed=seed), label), None
    donor, rings = _embedded_random_maximal_planar(n, seed)
    rot = canonical_rotation({label[v]: [label[u] for u in ring] for v, ring in rings.items()})
    return relabel(donor, label), rot


# --- attack harness -----------------------------------------------------------


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: str
    trials: int
    accepts: int
    phase_histogram: dict[int, int]  # first rejector's phase → trial count


@dataclass(frozen=True)
class AttackSummary:
    nodes: int
    edges: int
    planar: bool
    seed: int
    trials: int
    strategies: tuple[str, ...]
    outcomes: tuple[StrategyOutcome, ...]

    @property
    def total_accepts(self) -> int:
        return sum(
            o.accepts for o in self.outcomes if o.strategy != "honest"
        )


def attack(
    g: Graph,
    strategies: Iterable[str] | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> AttackSummary:
    """Run dishonest assignments against the verifier and tally outcomes.

    The default strategy list is the four adversarial families; pass
    ``["honest", ...]`` explicitly to include the completeness control arm
    (planar graphs only).  Identical (graph, strategies, trials, seed)
    inputs give an identical summary.
    """
    chosen = tuple(strategies) if strategies is not None else DEFAULT_STRATEGIES
    known = set(DEFAULT_STRATEGIES) | {"honest"}
    bad = [s for s in chosen if s not in known]
    if bad:
        raise ParameterError(f"unknown strategies {bad}; pick from {sorted(known)}")
    if trials < 1:
        raise ParameterError("trials must be positive")
    if not g.connected:
        raise ParameterError("attack requires a connected graph")
    if "swap" in chosen and g.n < 2:
        raise ParameterError("the swap strategy needs a graph with at least two nodes")

    planar = planar_embed(g, counterexample=False) is not None
    if "honest" in chosen and not planar:
        raise ParameterError("the honest control arm needs a planar graph")

    template_objs: dict[int, NodeCertificate] | None = None
    template_bytes: dict[int, bytes] | None = None
    template_kind = ""
    if {"template-edits", "swap"} & set(chosen):
        template_objs, template_kind = _planar_template(g, f"{seed}/template", planar)
        template_bytes = {x: pack_certificate(c) for x, c in template_objs.items()}

    nodes = g.nodes()
    honest_a = honest_assignment(g) if "honest" in chosen else None
    replay_pool: dict[int, dict[int, bytes]] = {}
    outcomes = []
    for strategy in chosen:
        accepts = 0
        hist: dict[int, int] = {}
        for t in range(trials):
            rng = random.Random(f"{seed}/{strategy}/{t}")
            if strategy == "honest":
                a = honest_a
            elif strategy == "random-fields":
                a = random_assignment(g, f"{seed}/random/{t}")
            elif strategy == "template-edits":
                k = EDIT_BUDGETS[t % len(EDIT_BUDGETS)]
                certs = dict(template_bytes)
                for _ in range(k):
                    x = nodes[rng.randrange(len(nodes))]
                    certs[x] = _edit_one_field(template_objs[x], certs[x], rng)
                a = Assignment(certs, Origin("mutated", base=template_kind, edits=k))
            elif strategy == "swap":
                x, y = rng.sample(nodes, 2)
                certs = dict(template_bytes)
                certs[x], certs[y] = certs[y], certs[x]
                a = Assignment(certs, Origin("mutated", base=template_kind, edits=2))
            else:  # replay, drawing from a pool of distinct planar donors
                idx = t % min(trials, _REPLAY_POOL)
                if idx not in replay_pool:
                    donor, rot = _replay_graph(g, random.Random(f"{seed}/replay/{idx}").randrange(2**32))
                    replay_pool[idx] = {
                        x: pack_certificate(c) for x, c in prove_planar(donor, rot).items()
                    }
                a = Assignment(dict(replay_pool[idx]), Origin("external", base="replayed-planar-proof"))
            report = run_round(g, a, stop_at_first_reject=True)
            if report.accepted:
                accepts += 1
            else:
                phase = report.per_node[report.first_rejector].phase
                hist[phase] = hist.get(phase, 0) + 1
        outcomes.append(
            StrategyOutcome(
                strategy=strategy,
                trials=trials,
                accepts=accepts,
                phase_histogram=dict(sorted(hist.items())),
            )
        )
    return AttackSummary(
        nodes=g.n,
        edges=g.m,
        planar=planar,
        seed=seed,
        trials=trials,
        strategies=chosen,
        outcomes=tuple(outcomes),
    )


def attack_to_csv(summary: AttackSummary) -> str:
    """Machine-readable outcome table, parameters echoed in comment lines."""
    lines = [
        f"# nodes={summary.nodes} edges={summary.edges} planar={summary.planar}",
        f"# seed={summary.seed} trials={summary.trials} strategies={','.join(summary.strategies)}",
        "strategy,trials,accepts,phase1,phase2,phase3",
    ]
    for o in summary.outcomes:
        h = o.phase_histogram
        lines.append(
            f"{o.strategy},{o.trials},{o.accepts},{h.get(1, 0)},{h.get(2, 0)},{h.get(3, 0)}"
        )
    return "\n".join(lines) + "\n"


def attack_report(summary: AttackSummary) -> str:
    """Human-readable campaign summary."""
    kind = "planar" if summary.planar else "non-planar"
    lines = [
        f"attack campaign on a {kind} graph with {summary.nodes} nodes, "
        f"{summary.edges} edges (seed {summary.seed}, {summary.trials} trials/strategy)"
    ]
    for o in summary.outcomes:
        phases = ", ".join(
            f"phase {p}: {c}" for p, c in sorted(o.phase_histogram.items())
        ) or "none"
        lines.append(
            f"  {o.strategy:>15}: {o.accepts} accepting runs; rejections by {phases}"
        )
    return "\n".join(lines) + "\n"


# --- size sweeps ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    max_bits: int
    ratio: float  # max_bits / log2(n)


def _sweep_graph(kind: str, n: int, seed: int) -> Graph:
    if kind == "grid":
        side = math.isqrt(n)
        if side * side != n:
            raise ParameterError(f"grid sweep sizes must be perfect squares, got {n}")
        return generate("grid", w=side, h=side)
    if kind == "random_maximal_planar":
        return generate("random_maximal_planar", n=n, seed=seed)
    if kind == "tree":
        return generate("tree", n=n, seed=seed)
    if kind == "path":
        return build_graph([(i, i + 1) for i in range(1, n)])
    raise ParameterError(f"unknown sweep kind '{kind}'")


def size_sweep(kind: str, sizes: Iterable[int], seed: int = 0) -> tuple[SweepRow, ...]:
    """Prove honestly at each size and record the worst certificate length.

    ``max_bits`` is the canonical packed length (header excluded); the ratio
    column divides by log2(n) so a bounded column demonstrates the
    logarithmic size claim.
    """
    sizes = list(sizes)
    if sizes != sorted(set(sizes)):
        raise ParameterError("sizes must be strictly ascending")
    if any(n < 2 for n in sizes):
        raise ParameterError("sweep sizes start at 2")
    rows = []
    for n in sizes:
        g = _sweep_graph(kind, n, seed)
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c) for c in certs.values())
        rows.append(SweepRow(n=g.n, max_bits=worst, ratio=worst / math.log2(g.n)))
    return tuple(rows)


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["n,max_bits,max_bits_per_log2_n"]
    lines.extend(f"{r.n},{r.max_bits},{r.ratio:.3f}" for r in rows)
    return "\n".join(lines) + "\n"
