"""End-to-end acceptance gate, one test per core guarantee.

Each test prints a single [PASS]/[FAIL] checklist line straight to the
terminal (bypassing capture) so a full run reads as a go/no-go report;
the assertions inside carry the details.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from lifts import _lift
from soundness_search import (
    find_accepting_assignment,
    find_accepting_intervals_for_ranks,
    rank_functions,
)

from planarcert.embedding import NonPlanarWitness, planar_embed, validate_rotation
from planarcert.errors import FirewallViolation
from planarcert.graphs import Graph, build_graph, generate
from planarcert.lowerbound import (
    BlockInstance,
    gen_block_instance,
    validate_lowerbound_claims,
)
from planarcert.minors import has_biclique_minor, has_clique_minor
from planarcert.pop import is_path_outerplanar
from planarcert.sim import (
    attack,
    honest_assignment,
    planarity_verifier,
    run_round,
    size_sweep,
)
from planarcert.transform import (
    contract_check,
    dfs_mapping,
    induce_graph,
    spanning_tree_dfs,
)


@contextmanager
def _criterion(capsys, number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {label} ({time.perf_counter() - start:.1f}s)")


# --- shared corpora ---------------------------------------------------------


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, Graph]]:
    """Planar instances across every family the guarantees quantify over."""
    items: list[tuple[str, Graph]] = []
    for w in range(2, 21):
        for h in range(w, 21):
            items.append((f"grid({w},{h})", generate("grid", w=w, h=h)))
    for n in range(4, 65):
        items.append((f"wheel({n})", generate("wheel", n=n)))
    for n in (8, 16, 32, 64, 128, 256):
        for seed in (1, 2):
            items.append((f"tree({n},{seed})", generate("tree", n=n, seed=seed)))
            items.append(
                (f"rmp({n},{seed})", generate("random_maximal_planar", n=n, seed=seed))
            )
    for k in (4, 5):
        for p in (1, 2, 3, 4):
            items.append(
                (f"blocks(k={k},p={p})", gen_block_instance(BlockInstance.path(k, p)))
            )
    return items


@pytest.fixture(scope="module")
def honest(corpus):
    return {label: honest_assignment(g) for label, g in corpus}


@pytest.fixture(scope="module")
def induced(corpus):
    """Every corpus instance toured from three roots: first, middle, last id."""
    out = []
    for label, g in corpus:
        rot = planar_embed(g)
        nodes = g.nodes()
        for root in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
            t = spanning_tree_dfs(g, rot, root)
            fm = dfs_mapping(t)
            out.append((f"{label} root={root}", g, induce_graph(g, rot, t, fm), fm))
    return out


def _random_connected(rng: random.Random, n: int) -> Graph:
    nodes = list(range(1, n + 1))
    edges = {
        tuple(sorted((rng.choice(nodes[:i]), nodes[i]))) for i in range(1, n)
    }
    pool = [
        (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if (u, v) not in edges
    ]
    rng.shuffle(pool)
    extra = rng.randint(0, min(len(pool), 2 * n))
    return build_graph(sorted(edges) + pool[:extra], nodes=nodes)


def _random_nonplanar(rng: random.Random, n: int) -> Graph:
    nodes = list(range(1, n + 1))
    edges = {
        tuple(sorted((rng.choice(nodes[:i]), nodes[i]))) for i in range(1, n)
    }
    pool = [
        (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if (u, v) not in edges
    ]
    rng.shuffle(pool)
    for e in pool:
        edges.add(e)
        g = build_graph(sorted(edges), nodes=nodes)
        if isinstance(planar_embed(g), NonPlanarWitness):
            return g
    raise AssertionError(f"no non-planar supergraph found at n={n}")


# --- criteria ---------------------------------------------------------------


def test_criterion_1_completeness_on_planar_corpus(corpus, honest, capsys):
    with _criterion(capsys, 1, "honest certificates accepted on every planar instance"):
        assert len(corpus) >= 200
        rejected = []
        for label, g in corpus:
            report = run_round(g, honest[label])
            if report.global_decision != "accept":
                rejected.append((label, report.first_rejector))
        assert rejected == []


def test_criterion_2_certificate_size_growth(capsys):
    with _criterion(
        capsys, 2, "max bits per log2(n) bounded by the n=16 fit plus 10 percent"
    ):
        for kind in ("grid", "random_maximal_planar"):
            rows = size_sweep(kind, (16, 64, 256, 1024, 4096), seed=0)
            fitted = rows[0].ratio
            for row in rows[1:]:
                assert row.ratio <= 1.1 * fitted, (kind, row, fitted)


def test_criterion_3_adversarial_campaigns_never_accepted(capsys):
    with _criterion(
        capsys, 3, "0 accepting runs across 96000 forged-certificate trials"
    ):
        targets = [
            ("K5", generate("complete", k=5)),
            ("K6", generate("complete", k=6)),
            ("K33", generate("complete_bipartite", p=3, q=3)),
            ("petersen", generate("petersen")),
        ]
        rng = random.Random(33)
        for i in range(20):
            n = rng.randint(6, 30)
            targets.append((f"random{i}(n={n})", _random_nonplanar(rng, n)))

        total_accepts = 0
        for label, g in targets:
            summary = attack(g, trials=1000, seed=7)
            assert not summary.planar, label
            assert all(o.trials == 1000 for o in summary.outcomes), label
            total_accepts += summary.total_accepts
        assert len(targets) == 24
        assert total_accepts == 0


def test_criterion_4_crossing_instance_admits_no_intervals(capsys):
    with _criterion(
        capsys, 4, "exhaustive interval search fails on the pinned crossing instance"
    ):
        path_edges = [(1, 2), (2, 3), (3, 4)]
        crossing = build_graph(path_edges + [(1, 3), (2, 4)])

        # Rank labelings must both satisfy the local chain rule and walk the
        # instance's designated path — the full scheme pins each rank to its
        # tour position, so only the two walks of that path qualify.
        pinned = [
            ranks
            for ranks in rank_functions(crossing, 4)
            if all(abs(ranks[u] - ranks[v]) == 1 for u, v in path_edges)
        ]
        assert sorted(tuple(r[v] for v in (1, 2, 3, 4)) for r in pinned) == [
            (1, 2, 3, 4),
            (4, 3, 2, 1),
        ]
        for ranks in pinned:
            assert find_accepting_intervals_for_ranks(crossing, ranks) is None

        # Controls. The plain path is certifiable under identity ranks, so the
        # search is not vacuous; and the crossing instance has another spanning
        # path (1,2,4,3) with no crossings, which is exactly why the ranks must
        # stay pinned for this claim.
        p4 = build_graph(path_edges)
        assert find_accepting_intervals_for_ranks(p4, {v: v for v in range(1, 5)})
        elsewhere = find_accepting_assignment(crossing)
        assert elsewhere is not None
        by_rank = [v for v, _ in sorted(elsewhere.items(), key=lambda kv: kv[1].rank)]
        assert by_rank in ([1, 2, 4, 3], [3, 4, 2, 1])


def test_criterion_5_tours_pass_identity_order_interval_check(induced, capsys):
    with _criterion(
        capsys, 5, "tour-order virtual graphs are crossing-free at all sampled roots"
    ):
        bad = [
            label
            for label, _, ind, _ in induced
            if not is_path_outerplanar(
                ind.virtual_graph(), range(1, ind.n_virtual + 1)
            )
        ]
        assert bad == []


def test_criterion_6_contraction_recovers_every_original(induced, capsys):
    with _criterion(
        capsys, 6, "collapsing tour copies reproduces each original graph"
    ):
        bad = [label for label, g, ind, fm in induced if not contract_check(g, ind, fm)]
        assert bad == []


def test_criterion_7_hard_instance_structure_validated(capsys):
    with _criterion(
        capsys, 7, "minor oracle confirms every hard-instance structural claim"
    ):
        report = validate_lowerbound_claims(
            k_range=(4, 5), p_range=(1, 2, 3, 4), q_range=(3,)
        )
        assert report.all_ok, "\n" + report.render()
        assert len(report.checks) == 28


def test_criterion_8_embedder_cross_validated_by_minor_oracle(capsys):
    with _criterion(
        capsys, 8, "embedding succeeds iff no K5/K33 minor on 500 random graphs"
    ):
        rng = random.Random(20260814)
        planar_seen = nonplanar_seen = 0
        for _ in range(500):
            g = _random_connected(rng, rng.randint(1, 12))
            embedded = planar_embed(g)
            obstructed = has_clique_minor(g, 5) or has_biclique_minor(g, 3, 3)
            if isinstance(embedded, NonPlanarWitness):
                nonplanar_seen += 1
                assert obstructed, g.edges()
            else:
                planar_seen += 1
                assert not obstructed, g.edges()
                assert validate_rotation(g, embedded), g.edges()
        # both outcomes must actually be exercised for the iff to mean anything
        assert planar_seen >= 100 and nonplanar_seen >= 100


def test_criterion_9_verifier_reads_stay_inside_the_view(corpus, honest, capsys):
    with _criterion(
        capsys, 9, "zero certificate reads outside any node's one-round view"
    ):
        violations: list[tuple[str, int, set[int]]] = []
        for label, g in corpus:
            allowed = {x: frozenset(g.neighbors(x)) for x in g.nodes()}

            def audited(x, own, view, _allowed=allowed, _label=label):
                seen = set(view)
                if not seen <= _allowed[x]:
                    violations.append((_label, x, seen - _allowed[x]))
                for y in view:
                    view[y]
                return planarity_verifier(x, own, view)

            report = run_round(g, honest[label], verifier=audited)
            assert report.global_decision == "accept", label
        assert violations == []

        # the trap is live: one out-of-view read raises immediately
        g = build_graph([(1, 2), (2, 3)])

        def nosy(x, own, view):
            view[3 if x == 1 else 1]
            return planarity_verifier(x, own, view)

        with pytest.raises(FirewallViolation):
            run_round(g, honest_assignment(g), verifier=nosy)


def test_criterion_10_lifts_of_planar_graphs_are_rejected_at_their_roots(capsys):
    with _criterion(
        capsys, 10, "honest certificates carried to non-planar lifts rejected at k - 1 roots"
    ):
        # A one-round verifier sees a lift's node exactly as its base node,
        # ids aside (Angluin 1980; Goos-Suomela 2011).  With the base's honest
        # certificates carried up, only the ids can give the lift away: each
        # sheet's copy of the root claims the root's id without being it.
        lifts = 0
        for k in (2, 3):
            for n in (28, 100):
                for seed in range(10):
                    base = generate("random_maximal_planar", n=n, seed=seed)
                    lifted, a = _lift(base, k, seed)
                    if not lifted.connected or planar_embed(lifted, counterexample=False) is not None:
                        continue
                    lifts += 1
                    report = run_round(lifted, a)
                    assert not report.accepted, (k, n, seed)
                    rejectors = {x: v for x, v in report.per_node.items() if not v.accepted}
                    root, top = min(base.nodes()), max(base.nodes())
                    assert set(rejectors) == {root + s * top for s in range(1, k)}, (k, n, seed)
                    assert {v.phase for v in rejectors.values()} == {2}, (k, n, seed)
        assert lifts >= 30  # all 40 are, at these seeds
