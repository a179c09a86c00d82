"""End-to-end planarity scheme: prover, per-node verifier, sizes, packing."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import random
from bisect import insort
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import FormatError, NonPlanarError, ParameterError
from planarcert.graphs import build_graph, degeneracy_order, generate, norm_edge, relabel
from planarcert.pls import (
    MAX_EDGE_CERTS,
    PHASE_COLLECT,
    PHASE_POP,
    PHASE_TREE,
    EdgeCertificate,
    Field,
    NodeCertificate,
    TreeSub,
    Verdict,
    _edge_tables,
    _field_widths,
    _held_edges,
    _packed_bytes,
    _set_field,
    _wire_bytes,
    certificate_bit_fields,
    certificate_size_bits,
    encode_fields,
    pack_certificate,
    pack_certificate_with_bits,
    prove_planar,
    unpack_certificate,
    verify_node_planarity,
)
from planarcert.cli import main as cli_main
from planarcert.embedding import RotationSystem, planar_embed
from planarcert.formats import parse_graph
from planarcert.pop import PopCertificate, PopWitness, pop_prove
from planarcert.sim import _sweep_graph, attack, planarity_verifier, random_assignment, run_round
from planarcert.transform import dfs_mapping, induce_graph, spanning_tree_dfs
from reference_decoder import reference_unpack, reference_walk
from reference_holders import _held_edges as reference_held_edges
from splice import splice_forgeries
from verdict_oracle import oracle_verify_node_planarity


def _cycle(n: int):
    return build_graph([(i, i % n + 1) for i in range(1, n + 1)])


def _path(n: int):
    return build_graph([(i, i + 1) for i in range(1, n)])


def _planar_corpus():
    rng_seeds = (7, 8, 9)
    return [
        build_graph([], nodes=[1]),
        build_graph([(1, 2)]),
        build_graph([(1, 2), (2, 3), (1, 3)]),
        _path(6),
        _cycle(6),
        generate("grid", w=3, h=3),
        generate("wheel", n=6),
        generate("tree", n=12, seed=1),
        generate("random_maximal_planar", n=14, seed=2),
        generate("random_maximal_planar", n=25, seed=5),
    ] + [generate("tree", n=9, seed=s) for s in rng_seeds]


def _verdicts(g, certs) -> dict[int, Verdict]:
    return {
        x: verify_node_planarity(x, certs[x], {y: certs[y] for y in g.neighbors(x)})
        for x in g.nodes()
    }


def _all_accept(g, certs) -> bool:
    return all(v.accepted for v in _verdicts(g, certs).values())


def _rejectors(g, certs) -> dict[int, Verdict]:
    return {x: v for x, v in _verdicts(g, certs).items() if not v.accepted}


# --- honest prover -----------------------------------------------------------


def test_honest_certificates_accept_everywhere():
    for g in _planar_corpus():
        certs = prove_planar(g)
        assert set(certs) == set(g.nodes())
        assert _all_accept(g, certs), f"rejection on corpus graph with n={g.n}"


def test_prover_refuses_nonplanar_with_witness():
    with pytest.raises(NonPlanarError) as exc:
        prove_planar(generate("complete", k=5))
    assert exc.value.witness is not None
    assert exc.value.witness.kind == "K5-subdivision"


def test_prover_refuses_disconnected():
    g = build_graph([(1, 2), (3, 4)])
    with pytest.raises(ParameterError):
        prove_planar(g)


def test_triangle_edge_classification():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    certs = prove_planar(g)
    all_ecs = [ec for c in certs.values() for ec in c.edge_certs]
    assert len(all_ecs) == 3
    tree = [ec for ec in all_ecs if ec.is_tree()]
    assert len(tree) == 2
    chord = next(ec for ec in all_ecs if not ec.is_tree())
    assert (chord.i, chord.j) == (chord.i2, chord.j2)


def test_is_tree_compares_slot_pairs_as_sets():
    pc = PopCertificate(n=7, rank=1, lo=0, hi=8)
    for i, j, i2, j2 in itertools.product(range(1, 5), repeat=4):
        ec = EdgeCertificate(2, i, j, i2, j2, pc, pc, pc, pc)
        assert ec.is_tree() == ({i, j} != {i2, j2}), (i, j, i2, j2)


def test_path_is_all_tree_edges_with_full_intervals():
    n = 6
    certs = prove_planar(_path(n))
    for cert in certs.values():
        for ec in cert.edge_certs:
            assert ec.is_tree()
            for _, pc in ec.bindings():
                assert (pc.lo, pc.hi) == (0, 2 * n)


def test_edge_cert_assignment_holds_at_most_three():
    base = generate("random_maximal_planar", n=60, seed=4)
    graphs = [
        generate("grid", w=9, h=7),
        generate("tree", n=80, seed=3),
        *(generate("random_maximal_planar", n=n, seed=s) for n, s in ((100, 5), (64, 11), (200, 12))),
        relabel(base, {v: 3 * v + 7 for v in base.nodes()}),  # ids with gaps
        # an overloaded node's path runs through another overloaded node
        generate("random_maximal_planar", n=29, seed=18),
    ]
    overloaded = 0  # nodes the degeneracy order alone would give four or five
    for g in graphs:
        position = degeneracy_order(g).position()
        overloaded += sum(sum(position[x] < position[v] for v in g.neighbors(x)) > 3 for x in g.nodes())
        certs = prove_planar(g)
        seen: dict[tuple[int, int], int] = {}
        for x, cert in certs.items():
            assert len(cert.edge_certs) <= MAX_EDGE_CERTS == 3
            held = [ec.far for ec in cert.edge_certs]
            assert held == sorted(held), "edge certificates out of far-endpoint order"
            for ec in cert.edge_certs:
                assert g.has_edge(x, ec.far)
                e = norm_edge(x, ec.far)
                assert e not in seen, "edge certified at both endpoints"
                seen[e] = x
        assert set(seen) == set(g.edges())
        assert _all_accept(g, certs)
    assert overloaded > 0


def test_holder_orientation_refuses_more_than_three_edges_per_node():
    # K8 has 28 edges, more than 3 per node, so no orientation gives every
    # node at most three; K7 has exactly 3 per node, and every node gets 3.
    # Every edge is given the slots of one chord.
    def held_edges(g):
        return _held_edges(g, {e: (1, 2, 1, 2) for e in g.edges()}, min(g.nodes()))

    with pytest.raises(NonPlanarError, match="not planar"):
        held_edges(generate("complete", k=8))
    held = held_edges(generate("complete", k=7))
    assert [len(fars) for fars in held.values()] == [3] * 7
    assert sorted(norm_edge(x, v) for x, fars in held.items() for v in fars) == generate("complete", k=7).edges()


def _holders_and_slots(certs):
    """Every node's far ends, and every edge's slots as ``prove_planar``
    keys them: copies of the smaller id, the larger, the smaller, the larger."""
    held, slots = {}, {}
    for x, cert in certs.items():
        held[x] = [ec.far for ec in cert.edge_certs]
        for ec in cert.edge_certs:
            if x < ec.far:
                slots[x, ec.far] = (ec.i, ec.j, ec.i2, ec.j2)
            else:
                slots[ec.far, x] = (ec.j, ec.i, ec.j2, ec.i2)
    return held, slots


def test_packed_bytes_is_the_packed_length():
    # The holder search sizes certificates without packing them.  Leaves
    # (one copy on both tour steps), chords, shared copies and ids of every
    # width must all come out as pack_certificate writes them.
    base = generate("random_maximal_planar", n=60, seed=4)
    for g in (
        build_graph([(1, 2)]),
        generate("wheel", n=6),
        generate("grid", w=6, h=5),
        generate("tree", n=70, seed=2),
        generate("random_maximal_planar", n=300, seed=1),
        relabel(base, {v: 3 * v + 7 for v in base.nodes()}),
    ):
        certs = prove_planar(g)
        held, slots = _holders_and_slots(certs)
        root = min(g.nodes())
        idx_bits = _field_widths(root, g.n)[1]
        tables = _edge_tables(g, slots)
        for x, cert in certs.items():
            if held[x]:
                assert _packed_bytes(x, held[x], tables, root, idx_bits, 0, 0) == len(pack_certificate(cert)), x


def _count_bound_holders(g):
    """Holders set by the count bound alone: from the degeneracy orientation,
    each node holding more than three moves edges along breadth-first paths
    of held edges to the nearest node holding fewer than three."""
    position = degeneracy_order(g).position()
    held: dict[int, list[int]] = {}
    for u in g.nodes():
        pu = position[u]
        held[u] = [v for v in g.adj[u] if pu < position[v]]
    for s in [x for x, fars in held.items() if len(fars) > MAX_EDGE_CERTS]:
        while len(held[s]) > MAX_EDGE_CERTS:
            parent = {s: s}
            queue = [s]
            end = None
            for u in queue:  # grows as it goes: breadth-first
                for v in held[u]:
                    if v not in parent:
                        parent[v] = u
                        if len(held[v]) < MAX_EDGE_CERTS:
                            end = v
                            break
                        queue.append(v)
                if end is not None:
                    break
            else:
                raise NonPlanarError(
                    f"{len(queue)} nodes span more than {MAX_EDGE_CERTS * len(queue)} "
                    "edges, so the graph is not planar"
                )
            while end != s:
                u = parent[end]
                held[u].remove(end)
                insort(held[end], u)
                end = u
    return held


def test_prover_lowers_the_largest_certificate():
    # Against the holders the count bound alone gives, the prover's largest
    # certificate is never larger, and on maximal planar graphs smaller.
    # Graphs where no node holds three (grid, tree) keep those holders.
    lowered = 0
    for g in (
        generate("grid", w=9, h=7),
        generate("tree", n=80, seed=3),
        *(generate("random_maximal_planar", n=n, seed=s) for n, s in ((100, 5), (64, 11), (200, 12))),
    ):
        certs = prove_planar(g)
        held, slots = _holders_and_slots(certs)
        before = _count_bound_holders(g)
        root = min(g.nodes())
        idx_bits = _field_widths(root, g.n)[1]
        tables = _edge_tables(g, slots)

        def largest(holders):
            return max(_packed_bytes(x, fars, tables, root, idx_bits, 0, 0) for x, fars in holders.items() if fars)

        assert largest(held) <= largest(before)
        if max(map(len, before.values())) < MAX_EDGE_CERTS:
            assert held == before
        lowered += largest(held) < largest(before)
    assert lowered > 0


def test_holder_search_sizes_no_node_in_the_overload_rounds(monkeypatch):
    # While a node holds more than three, no node is sized.  The overload
    # rounds move edges as the count bound alone does, so the first sizes
    # taken are those of the nodes holding three after it, in ascending id
    # order, and each of them once.
    sized: list[tuple[int, list[int]]] = []

    def recording(x, fars, *rest):
        sized.append((x, list(fars)))
        return _packed_bytes(x, fars, *rest)

    monkeypatch.setattr("planarcert.pls._packed_bytes", recording)
    graphs = [
        generate("random_maximal_planar", n=29, seed=18),
        *(generate("random_maximal_planar", n=n, seed=s) for n, s in ((100, 5), (64, 11), (200, 12))),
    ]
    overloaded = 0
    for g in graphs:
        position = degeneracy_order(g).position()
        overloaded += sum(sum(position[x] < position[v] for v in g.neighbors(x)) > 3 for x in g.nodes())
        sized.clear()
        prove_planar(g)
        first = [(x, fars) for x, fars in _count_bound_holders(g).items() if len(fars) == MAX_EDGE_CERTS]
        assert sized[: len(first)] == first
    assert overloaded > 0


def test_traded_sizes_are_the_packed_length():
    # The search also prices a node taking one more edge (out = 0) and a
    # node trading a held edge for another.  Each price must be the length
    # pack_certificate gives the certificate the node would then hold,
    # whichever ends set the widest id.
    base = generate("random_maximal_planar", n=40, seed=3)
    priced = 0
    for g in (
        generate("wheel", n=7),
        generate("random_maximal_planar", n=40, seed=3),
        relabel(base, {v: 3 * v + 7 for v in base.nodes()}),
        relabel(base, {v: 41 - v for v in base.nodes()}),
    ):
        certs = prove_planar(g)
        held, slots = _holders_and_slots(certs)
        root = min(g.nodes())
        idx_bits = _field_widths(root, g.n)[1]
        tables = _edge_tables(g, slots)
        pops = {k: pc for cert in certs.values() for ec in cert.edge_certs for k, pc in ec.bindings()}

        def edge_cert(x, v):
            i, j, i2, j2 = slots[x, v] if x < v else (slots[v, x][k] for k in (1, 0, 3, 2))
            return EdgeCertificate(v, i, j, i2, j2, pops[i], pops[j], pops[i2], pops[j2])

        for x in g.nodes():
            for into in g.neighbors(x):
                if into in held[x]:
                    continue
                for out in (0, *held[x]):
                    fars = sorted({*held[x], into} - {out})
                    if len(fars) > MAX_EDGE_CERTS:
                        continue
                    cert = NodeCertificate(tuple(edge_cert(x, v) for v in fars), TreeSub(root), g.n)
                    price = _packed_bytes(x, held[x], tables, root, idx_bits, out, into)
                    assert price == len(pack_certificate(cert)), (x, out, into)
                    priced += 1
    assert priced > 1000


def _sparse_subgraph(g, rng):
    """g with a third of its edges dropped, none of them on a spanning tree."""
    first = min(g.nodes())
    seen, stack, tree = {first}, [first], set()
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
                tree.add(norm_edge(u, v))
    others = [e for e in g.edges() if e not in tree]
    dropped = set(rng.sample(others, g.m // 3))
    return build_graph([e for e in g.edges() if e not in dropped], nodes=g.nodes())


def _holder_corpus():
    """Planar graphs whose holders the search and the reference must agree
    on: every shape that reaches the lowering, and some that never do."""
    rng = random.Random(34)
    rmp = generate("random_maximal_planar", n=60, seed=9)
    yield relabel(rmp, {v: 3 * v + 7 for v in rmp.nodes()})
    for k in range(20):
        g = generate("random_maximal_planar", n=8 + 3 * k, seed=k)
        yield relabel(g, dict(zip(g.nodes(), rng.sample(range(1, 5000), g.n))))
    for n in range(4, 90):
        for seed in range(3):
            yield generate("random_maximal_planar", n=n, seed=seed)
    for seed in range(4):
        yield generate("random_maximal_planar", n=1024, seed=seed)
    for w, h in ((2, 2), (3, 5), (6, 6), (9, 4), (16, 16)):
        yield generate("grid", w=w, h=h)
    for n in (4, 5, 9, 17, 40):
        yield generate("wheel", n=n)
    for n, seed in ((2, 0), (7, 1), (30, 2), (200, 3)):
        yield generate("tree", n=n, seed=seed)
    for n in (12, 30, 64, 150):
        for seed in range(3):
            yield _sparse_subgraph(generate("random_maximal_planar", n=n, seed=seed), rng)


def test_holders_match_the_reference_search(monkeypatch):
    # The search prices its sizes from per-node tables; the reference, the
    # search as it was before, from per-edge costs and fresh copy sets.  The
    # holders, and so every certificate byte, must be the same: on the 100
    # replay donors of one attack call at n = 28, and on the corpus above.
    compared = []

    def both(g, slots, root):
        held = _held_edges(g, slots, root)
        assert held == reference_held_edges(g, slots, root), (g.n, g.m, root)
        compared.append(g.n)
        return held

    monkeypatch.setattr("planarcert.pls._held_edges", both)
    attack(generate("random_maximal_planar", n=28, seed=0), strategies=("replay",), trials=100, seed=0)
    assert compared == [28] * 100
    for g in _holder_corpus():
        prove_planar(g)
    assert len(compared) == 100 + 1 + 20 + 86 * 3 + 4 + 5 + 5 + 4 + 12


def test_largest_certificate_is_steady_across_seeds():
    # At n = 1024 the largest packed certificate of a random maximal planar
    # graph was 344 or 368 bits by seed with the count bound alone, 408 with
    # up to five edge certificates per node, and 320 while every index and
    # interval end took idx_bits.
    for seed in range(4):
        certs = prove_planar(generate("random_maximal_planar", n=1024, seed=seed))
        assert max(8 * len(pack_certificate(c)) for c in certs.values()) == 296, seed


def test_parent_rule_matches_prover_tree():
    g = generate("random_maximal_planar", n=30, seed=3)
    certs = prove_planar(g)
    root = min(g.nodes())
    t = spanning_tree_dfs(g, planar_embed(g), root)
    f = dfs_mapping(t).f
    for holder, cert in certs.items():
        for ec in cert.edge_certs:
            # oriented to the holder: i/i2 copy the holder, j/j2 the far end
            assert f[ec.i] == f[ec.i2] == holder
            assert f[ec.j] == f[ec.j2] == ec.far
    for x, cert in certs.items():
        assert cert.tree_sub.root_id == root
        # recover the parent the way the verifier does: among tree-edge
        # certificates of x's edges, the far end whose copies start earlier
        parents = []
        for holder, c in certs.items():
            for ec in c.edge_certs:
                if not ec.is_tree():
                    continue
                if holder == x:
                    other, xs, ys = ec.far, (ec.i, ec.i2), (ec.j, ec.j2)
                elif ec.far == x:
                    other, xs, ys = holder, (ec.j, ec.j2), (ec.i, ec.i2)
                else:
                    continue
                if min(ys) < min(xs):
                    parents.append(other)
        assert parents == ([] if x == root else [t.parent[x]])


def test_node_with_no_assigned_certs_still_verifies():
    # On a star no node holds more than three, so holders follow the
    # degeneracy order, and its last node holds no edge certificate; it must
    # reconstruct all of its copies from its neighbors' certificates.
    g = build_graph([(1, k) for k in range(2, 8)])  # star
    certs = prove_planar(g)
    position = degeneracy_order(g).position()
    last = max(g.nodes(), key=position.__getitem__)
    assert certs[last].edge_certs == ()
    assert _all_accept(g, certs)


def test_singleton_graph():
    g = build_graph([], nodes=[4])
    certs = prove_planar(g)
    assert certs[4].n == 1 and certs[4].edge_certs == ()
    assert verify_node_planarity(4, certs[4], {}).accepted


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 18), st.integers(0, 10_000))
def test_completeness_on_random_trees(n, seed):
    g = generate("tree", n=n, seed=seed)
    assert _all_accept(g, prove_planar(g))


# --- verifier soundness against tampering ------------------------------------


@pytest.fixture(scope="module")
def tampering_setup():
    g = generate("random_maximal_planar", n=14, seed=2)
    return g, prove_planar(g)


def test_rejects_flipped_interval(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    bad = ec._replace(pop_i=ec.pop_i._replace(hi=ec.pop_i.lo))
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    # Every copy of the holder is bound by two tour steps, so the holder
    # also holds the honest interval of copy ec.i.
    reason = f"conflicting certificates for copy {ec.i}"
    assert _rejectors(g, certs)[holder] == Verdict("reject", reason, PHASE_COLLECT)


def test_rejects_deleted_edge_cert(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    far = honest[holder].edge_certs[0].far
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(edge_certs=honest[holder].edge_certs[1:])
    reason = f"edge {norm_edge(holder, far)} has no certificate"
    assert _rejectors(g, certs) == {
        holder: Verdict("reject", reason, PHASE_COLLECT),
        far: Verdict("reject", reason, PHASE_COLLECT),
    }


def test_rejects_edge_cert_stored_at_both_endpoints(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    # the same certificate, oriented to its far end
    copy = EdgeCertificate(
        holder, ec.j, ec.i, ec.j2, ec.i2, ec.pop_j, ec.pop_i, ec.pop_j2, ec.pop_i2
    )
    certs = dict(honest)
    certs[ec.far] = honest[ec.far]._replace(
        edge_certs=honest[ec.far].edge_certs + (copy,)
    )
    rej = _rejectors(g, certs)
    assert rej and all(v.phase == PHASE_COLLECT for v in rej.values())
    assert "certified more than once" in rej[holder].reason


def test_rejects_edge_cert_naming_a_non_neighbor_at_its_holder(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    stranger = next(z for z in g.nodes() if z != holder and not g.has_edge(holder, z))
    for far in (stranger, holder):
        ec = honest[holder].edge_certs[0]._replace(far=far)
        certs = dict(honest)
        certs[holder] = honest[holder]._replace(
            edge_certs=(ec,) + honest[holder].edge_certs[1:]
        )
        v = _verdicts(g, certs)[holder]
        assert not v.accepted and v.phase == PHASE_COLLECT
        assert "is not in the graph" in v.reason


def test_rejects_zeroed_certificate(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = NodeCertificate(edge_certs=(), tree_sub=TreeSub(1), n=g.n)
    assert _rejectors(g, certs)


def test_rejects_node_count_disagreement(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = honest[x]._replace(n=g.n + 1)
    rej = _rejectors(g, certs)
    assert set(rej) == {x, *g.neighbors(x)}
    assert set(rej.values()) == {Verdict("reject", "node-count claims disagree", PHASE_COLLECT)}


def test_rejects_junk_own_certificate():
    # Garbage enters as bytes; the decoder turns it into a phase-1 reject.
    v = planarity_verifier(1, b"garbage", {})
    assert not v.accepted and v.phase == PHASE_COLLECT


def test_rejects_oversized_edge_cert_list(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=honest[holder].edge_certs + (ec,) * (MAX_EDGE_CERTS + 1),
    )
    assert _rejectors(g, certs)


def test_leaf_visited_twice_is_rejected_in_phase_one():
    # A leaf's one tree edge names its copy in both tour steps.  Naming two
    # copies leaves each with one step, so phase 1 rejects before any tree
    # check could see a childless node with two copies.
    g = generate("tree", n=12, seed=4)
    honest = prove_planar(g)
    leaves = [x for x in g.nodes() if g.degree(x) == 1 and x != min(g.nodes())]
    assert leaves
    for leaf in leaves:
        (parent,) = g.neighbors(leaf)
        holder = leaf if any(ec.far == parent for ec in honest[leaf].edge_certs) else parent
        ecs = list(honest[holder].edge_certs)
        at = next(s for s, ec in enumerate(ecs) if ec.far in (leaf, parent))
        ec = ecs[at]
        slot = "i2" if holder == leaf else "j2"
        k = next(k for k in range(1, 2 * g.n) if k not in (ec.i, ec.j, ec.i2, ec.j2))
        pc = getattr(ec, "pop_" + slot)
        ecs[at] = ec._replace(**{slot: k, "pop_" + slot: pc._replace(rank=k)})
        certs = dict(honest)
        certs[holder] = honest[holder]._replace(edge_certs=tuple(ecs))
        v = _verdicts(g, certs)[leaf]
        assert not v.accepted and v.phase == PHASE_COLLECT
        assert "lacks a certified tour step" in v.reason


def test_interval_corruption_reaching_interval_phase():
    # On a path no copy is bound twice, so a flipped interval survives the
    # consistency checks and must be caught by the interval check itself.
    g = _path(5)
    honest = prove_planar(g)
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    bad = ec._replace(pop_j=ec.pop_j._replace(lo=3, hi=4))
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    rej = _rejectors(g, certs)
    assert rej and any(v.phase == PHASE_POP for v in rej.values())


def _full_interval_edge(nv: int, far: int, i: int, j: int, i2: int, j2: int) -> EdgeCertificate:
    """An edge certificate whose four copies all carry the full interval."""
    pc = {k: PopCertificate(n=nv, rank=k, lo=0, hi=nv + 1) for k in (i, j, i2, j2)}
    return EdgeCertificate(far, i, j, i2, j2, pc[i], pc[j], pc[i2], pc[j2])


#: One view per reject site that the forging strategies rarely or never
#: reach, and a second one for the tour-endpoint check: node 1 holds every
#: edge certificate, as (far, i, j, i2, j2), and its neighbors hold none.
#: Each node claims the root its entry in the dict gives, else node 1's
#: claimed parent, else node 1.  Tree steps name adjacent copies, so every
#: view packs and decodes unchanged.  The reference reaches each site; the
#: verifier in ``src`` has none for the tour endpoints or the parent bracket,
#: which the other checks imply, and a sixth entry gives its verdict there.
_CRAFTED_VIEWS = [
    (3, [(2, 2, 1, 2, 3), (3, 2, 1, 2, 3)], {}, PHASE_COLLECT,
     "more than one neighbor claims parenthood"),
    (3, [(2, 1, 2, 1, 2)], {}, PHASE_COLLECT, "chord attached to foreign copy 1"),
    # node 1 is the root of the path 2-1-3, and 2 claims itself
    (3, [(2, 1, 2, 3, 2), (3, 3, 4, 5, 4)], {2: 2}, PHASE_TREE,
     "root identity disagrees with a neighbor"),
    # the same path, with every node claiming node 2
    (3, [(2, 1, 2, 3, 2), (3, 3, 4, 5, 4)], {1: 2, 2: 2, 3: 2}, PHASE_TREE,
     "node without a parent is not the claimed root"),
    (3, [(2, 2, 3, 3, 4), (3, 2, 3, 3, 4)], {}, PHASE_TREE,
     "root does not own the tour endpoints",
     Verdict("reject", "children subtours are not contiguous", PHASE_TREE)),
    (4, [(2, 1, 2, 2, 3), (3, 1, 2, 2, 3), (4, 3, 2, 3, 4)], {}, PHASE_TREE,
     "parent edge does not bracket the first and last visits",
     Verdict("reject", "children subtours are not contiguous", PHASE_TREE)),
    (3, [(2, 1, 2, 2, 3), (3, 2, 3, 5, 4)], {}, PHASE_TREE,
     "children subtours are not contiguous"),
    (3, [(2, 2, 1, 3, 2), (3, 2, 3, 3, 4)], {}, PHASE_TREE,
     "visits do not interleave the children subtours"),
    # no certificate names copy 5, copy 4's tour neighbor
    (3, [(2, 2, 1, 4, 3), (3, 2, 3, 4, 3)], {}, PHASE_POP,
     "copy 4: rank neighborhood is not consistent with a spanning path"),
    # node 1 is the root of the tour 1 2 4 2 1 3 1 and holds a chord from its
    # copy 5 to copy 5
    (4, [(2, 1, 2, 5, 4), (3, 5, 6, 7, 6), (4, 5, 5, 5, 5)], {}, PHASE_POP,
     "copy 5: rank neighborhood is not consistent with a spanning path"),
    # a lone node that claims n = 2 and holds no edge certificate (packed:
    # 010314) owns no copy at all, so neither tour endpoint; with no
    # neighbor it is the whole graph, or a component of one, and src accepts
    (2, [], {}, PHASE_TREE, "root does not own the tour endpoints",
     Verdict("accept", "", PHASE_POP)),
]


@pytest.mark.parametrize(
    "crafted",
    _CRAFTED_VIEWS,
    ids=[r if e else f"{r}, no edge certificates" for _, e, _, _, r, *_ in _CRAFTED_VIEWS],
)
def test_crafted_view_reaches_its_reject_site(crafted):
    n, edges, roots, phase, reason, *derived = crafted
    want = Verdict("reject", reason, phase)
    nv = 2 * n - 1
    ecs = tuple(_full_interval_edge(nv, *e) for e in edges)
    parent = next((ec.far for ec in ecs if min(ec.j, ec.j2) < min(ec.i, ec.i2)), None)

    def cert(x, held=()):
        return NodeCertificate(held, TreeSub(roots.get(x, parent or 1)), n)

    own = cert(1, ecs)
    view = {ec.far: cert(ec.far) for ec in ecs}
    for c in (own, *view.values()):
        assert unpack_certificate(pack_certificate(c)) == c
    assert verify_node_planarity(1, own, view) == (derived[0] if derived else want)
    assert oracle_verify_node_planarity(1, own, view) == want


def test_foreign_chords_are_named_in_ascending_neighbor_order():
    # Node 1 holds a chord to neighbor 3 and neighbor 2 one to node 1, both
    # attached to copies node 1 does not own.  The view reads its own
    # certificates first, but the refusal names neighbor 2's chord.
    own = NodeCertificate((_full_interval_edge(5, 3, 1, 2, 1, 2),), TreeSub(1), 3)
    view = {
        2: NodeCertificate((_full_interval_edge(5, 1, 4, 5, 4, 5),), TreeSub(1), 3),
        3: NodeCertificate((), TreeSub(1), 3),
    }
    want = Verdict("reject", "chord attached to foreign copy 5", PHASE_COLLECT)
    assert verify_node_planarity(1, own, view) == want
    assert oracle_verify_node_planarity(1, own, view) == want


@pytest.mark.parametrize("k", [3, 4])
def test_no_tour_indices_let_a_cycle_of_tree_edges_pass_phase_2(k):
    # A k-cycle whose every edge holds a tree-edge certificate is no tree, so
    # no choice of tour indices and root may get every node past phase 2.
    # Node x holds the certificate of edge (x, x % k + 1); its verdict reads
    # only the certificates of its own two edges, so the search goes over
    # per-node pass tables and is exhaustive: a fooling assignment is a
    # closed walk through them.  Copies carry the full interval, so no two
    # ever conflict.  At node x the verifier compares root ids only with
    # each other and with x, so one table for root x and one for any other
    # root cover every root, k + 1 (no node) included.
    nv = 2 * k - 1
    steps = [(c, c + d) for c in range(1, nv + 1) for d in (-1, 1) if 1 <= c + d <= nv]
    options = [(a, b) for a in steps for b in steps if b not in (a, a[::-1])]
    assert len(options) == {3: 48, 4: 120}[k]
    nxt = {x: x % k + 1 for x in range(1, k + 1)}
    prv = {y: x for x, y in nxt.items()}

    def passing(x, root):
        """For each option x holds, the options of its left edge, held by
        prv[x], with which x gets past phase 2."""
        cert = {
            (y, o): NodeCertificate(
                (_full_interval_edge(nv, nxt[y], *o[0], *o[1]),), TreeSub(root), k
            )
            for y in (prv[x], x, nxt[x])
            for o in options
        }
        far = cert[nxt[x], options[0]]  # its edge's far end is not x
        return {
            right: {
                left
                for left in options
                if verify_node_planarity(
                    x, cert[x, right], {prv[x]: cert[prv[x], left], nxt[x]: far}
                ).phase
                == PHASE_POP
            }
            for right in options
        }

    as_root = {x: passing(x, x) for x in nxt}
    not_root = {x: passing(x, k + 1) for x in nxt}
    # Each node alone can be fooled, so the search below is not vacuous.
    assert all(any(table.values()) for table in not_root.values())
    for root in range(1, k + 2):
        tables = {x: as_root[x] if x == root else not_root[x] for x in nxt}
        for last in options:
            # the options of edge (x, x + 1) that extend a passing walk from
            # edge (k, 1) = last through nodes 1..x
            reach = {last}
            for x in range(1, k + 1):
                reach = {o for o in options if tables[x][o] & reach}
            assert last not in reach, f"root {root}: a parent cycle passes phase 2"
    for o in options:  # every option is a certificate the wire carries
        cert = NodeCertificate((_full_interval_edge(nv, 2, *o[0], *o[1]),), TreeSub(1), k)
        assert unpack_certificate(pack_certificate(cert)) == cert


def _without_phase_3(x, own, neighbors):
    """The built-in verifier with every phase-3 rejection turned into an
    accept.  Exact, because phase 3 runs last: a view it rejects there has
    passed every other check."""
    verdict = planarity_verifier(x, own, neighbors)
    return Verdict("accept", "", PHASE_POP) if verdict.phase == PHASE_POP else verdict


@pytest.mark.parametrize(
    "kind, params, forgeries",
    [("complete", {"k": 5}, 52), ("complete_bipartite", {"p": 3, "q": 3}, 40)],
)
def test_splice_forgeries_are_rejected_only_by_the_interval_checks(kind, params, forgeries):
    # An honest proof of g - e with e spliced back in as a chord passes
    # phases 1 and 2 everywhere, so the interval checks alone stand between
    # it and an accept: without them some splice is accepted.
    g = generate(kind, **params)
    spliced = splice_forgeries(g)
    assert len(spliced) == forgeries
    accepted_without = 0
    for label, a in spliced:
        report = run_round(g, a)
        assert report.global_decision == "reject", label
        # every verdict, the first rejector's included, is phase 3's
        assert {v.phase for v in report.per_node.values()} == {PHASE_POP}, label
        accepted_without += run_round(g, a, _without_phase_3).global_decision == "accept"
    assert accepted_without >= 1


# --- certificate size --------------------------------------------------------


def test_size_formula_matches_packed_length():
    for g in _planar_corpus():
        certs = prove_planar(g)
        for cert in certs.values():
            packed_bits = (len(pack_certificate(cert)) - 2) * 8
            stated = certificate_size_bits(cert)
            assert stated <= packed_bits < stated + 8


def test_size_within_log_bound_on_small_graphs():
    for g in _planar_corpus():
        if g.n < 2:
            continue
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c) for c in certs.values())
        assert worst <= 150 * math.log2(g.n)


def test_size_grows_logarithmically_on_grids():
    ratios = []
    for side in (4, 8, 16, 32):
        g = generate("grid", w=side, h=side)
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c) for c in certs.values())
        ratios.append(worst / math.log2(g.n))
    assert ratios == sorted(ratios, reverse=True), "bits per log2(n) crept up"
    assert ratios[0] <= 75


def _worst_share_of_closed_form(g) -> float:
    """The largest packed field count among ``g``'s honest certificates, over
    the layout's closed-form ceiling at the certificate's own widths: a node
    holding three tree edges, each with four new copies, takes
    11 + idx_bits + 30·index_bits + 4·id_bits field bits, where a tour index
    takes index_bits, the bits of 2n - 1, and a copy's lo and hi together
    at most twice that."""
    worst = 0.0
    for cert in prove_planar(g).values():
        data, bits = pack_certificate_with_bits(cert)
        id_bits, idx_bits = data[0], data[1]
        index_bits = (2 * cert.n - 1).bit_length()
        closed_form = 11 + idx_bits + 30 * index_bits + 4 * id_bits
        assert bits <= closed_form, (cert, bits, closed_form)
        worst = max(worst, bits / closed_form)
    return worst


def _build_corpus_instances():
    path = Path(__file__).resolve().parent.parent / "scripts" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.instances())


def test_build_corpus_certificates_stay_within_the_closed_form(tmp_path):
    planar = 0
    for stem, tokens in _build_corpus_instances():
        path = tmp_path / f"{stem}.txt"
        assert cli_main(["gen", *tokens.split(), "--out", str(path)]) == 0
        g, _ = parse_graph(path.read_text())
        if isinstance(planar_embed(g), RotationSystem):
            planar += 1
            assert _worst_share_of_closed_form(g) <= 1
    assert planar >= 19  # every corpus file but the five non-planar ones


@pytest.mark.parametrize(
    "kind, params",
    [("grid", {"w": 32, "h": 32}), ("grid", {"w": 64, "h": 64})]
    + [
        (kind, {"n": n, "seed": seed})
        for kind in ("random_maximal_planar", "tree")
        for n, seed in ((1024, 0), (4096, 0), (1024, 101))  # 101: the pinned benchmark graphs
    ],
)
def test_certificates_stay_within_the_closed_form_at_scale(kind, params):
    assert _worst_share_of_closed_form(generate(kind, **params)) <= 1


def _sweep_family_graphs():
    """The sweep's four families at n = 16, 64, 256 and 1024, seed 0."""
    for kind in ("grid", "random_maximal_planar", "tree", "path"):
        for n in (16, 64, 256, 1024):
            yield _sweep_graph(kind, n, 0)


def test_no_honest_certificate_packs_longer_than_at_the_old_widths():
    # Every tour index, lo and hi once took idx_bits, the node count's width.
    # Each now takes the bits of its own range, which idx_bits always holds,
    # so no field is wider, and no certificate longer, than it was then.
    narrower = 0
    for g in [*_planar_corpus(), *_sweep_family_graphs()]:
        for cert in prove_planar(g).values():
            data, bits = pack_certificate_with_bits(cert)
            idx_bits = data[1]
            old_bits = 0
            for f in certificate_bit_fields(cert):
                if f.name in ("index", "lo", "hi"):
                    assert f.width <= idx_bits, (f, idx_bits)
                    old_bits += idx_bits
                else:
                    old_bits += f.width
            assert bits <= old_bits
            narrower += bits < old_bits
    assert narrower > 0


# --- packing -----------------------------------------------------------------


def test_pack_round_trip_on_corpus():
    for g in _planar_corpus():
        for cert in prove_planar(g).values():
            data = pack_certificate(cert)
            again = unpack_certificate(data)
            assert again == cert
            assert pack_certificate(again) == data


def _assert_named_classes(cert) -> None:
    assert type(cert) is NodeCertificate
    assert type(cert.tree_sub) is TreeSub
    assert type(cert.edge_certs) is tuple
    for ec in cert.edge_certs:
        assert type(ec) is EdgeCertificate
        assert all(type(pc) is PopCertificate for _, pc in ec.bindings())


def test_certificates_are_built_as_their_named_classes():
    # The prover, pop_prove and decoding build named tuples from plain ones.
    # A named tuple compares equal to the plain tuple of its values, so only
    # the class shows that the right one was built.
    for g in _planar_corpus():
        for cert in prove_planar(g).values():
            _assert_named_classes(cert)
            _assert_named_classes(unpack_certificate(pack_certificate(cert)))
        rot = planar_embed(g)
        t = spanning_tree_dfs(g, rot, min(g.nodes()))
        induced = induce_graph(g, rot, t, dfs_mapping(t))
        order = tuple(range(1, induced.n_virtual + 1))
        pops = pop_prove(induced.virtual_graph(), PopWitness(order=order))
        assert len(pops) == len(order)
        assert all(type(pc) is PopCertificate for pc in pops.values())


#: sha256 of the honest certificates' packed bytes, concatenated in node
#: order, at the benchmark's sizes (seed 101), where ids take up to 11 bits,
#: n 12 and tour indices 11.
_PACKED_PINS_AT_SCALE = {
    "grid": "4a1d86adcf31dced11521fe61dff2a356f5d0df77c57f6086407fc4109cd86fa",
    "random_maximal_planar": "fe050c21f338c4aca9ef14eb18a28d797df954ae0a1222048b7bc7b0408670af",
    "tree": "c9d2088f7b7d84e1e423200104b44ced705ee3f50f8668d05e1c712eadac4458",
}


def test_packed_bytes_are_pinned_at_the_benchmark_size():
    graphs = {
        "grid": generate("grid", w=32, h=32),
        "random_maximal_planar": generate("random_maximal_planar", n=1024, seed=101),
        "tree": generate("tree", n=1024, seed=101),
    }
    for kind, g in graphs.items():
        digest = hashlib.sha256()
        id_bits = set()
        for x, cert in sorted(prove_planar(g).items()):
            data = pack_certificate(cert)
            id_bits.add(data[0])
            assert data[1] == 12
            digest.update(data)
            assert unpack_certificate(data) == cert
        assert max(id_bits) == 11
        assert digest.hexdigest() == _PACKED_PINS_AT_SCALE[kind], kind


#: sha256 of every ``certificate_bit_fields`` tuple (name, width, lo, hi,
#: value), each as its repr, over the honest certificates at the benchmark's
#: sizes (seed 101), in node order.
_FIELD_LISTING_PIN = "40fbc64e40d653c1"


def test_field_listing_is_pinned_at_the_benchmark_size():
    # Template edits read each field's value and place off this listing, so
    # the listing read back from the packed bytes must name the fields,
    # widths, ranges and values that were written.
    digest = hashlib.sha256()
    for g in (
        generate("grid", w=32, h=32),
        generate("random_maximal_planar", n=1024, seed=101),
        generate("tree", n=1024, seed=101),
    ):
        for x, cert in sorted(prove_planar(g).items()):
            for f in certificate_bit_fields(cert):
                assert type(f) is Field
                digest.update(repr(tuple(f)).encode())
    assert digest.hexdigest()[:16] == _FIELD_LISTING_PIN


def test_pack_rejects_malformed():
    with pytest.raises(ParameterError):
        pack_certificate(NodeCertificate(edge_certs=(), tree_sub=TreeSub(0), n=2))


def _chord(far: int, i: int, j: int, pop_i: PopCertificate, pop_j: PopCertificate) -> EdgeCertificate:
    return EdgeCertificate(far, i, j, i, j, pop_i, pop_j, pop_i, pop_j)


#: One certificate per check the writer makes, and the exact refusal: each
#: field's range, in layout order, then each value the layout forces.  At
#: n = 2 copies run 1..3, and at n = 4 copies 1..7, where copy k's stored
#: interval ends run 0..k (lo + 1) and 0..8 - k (hi - k - 1).
_REFUSALS = [
    (NodeCertificate(tuple(_full_interval_edge(9, v, 1, 2, 1, 2) for v in (2, 3, 4, 5)), TreeSub(1), 5),
     "cannot pack count = 4: legal values are 0..3"),
    (NodeCertificate((), TreeSub(1), 0), "cannot pack n = 0: legal values are 1..0"),
    (NodeCertificate((), TreeSub(0), 2), "cannot pack root_id = 0: legal values are 1..1"),
    (NodeCertificate((_full_interval_edge(3, 0, 1, 2, 1, 2),), TreeSub(1), 2),
     "cannot pack far = 0: legal values are 1..1"),
    # a tree edge needs a tour of two nodes
    (NodeCertificate((_full_interval_edge(1, 1, 1, 2, 3, 2),), TreeSub(1), 1),
     "cannot pack second = 1: legal values are 0..0"),
    # copy 1 cannot step down to copy 0
    (NodeCertificate((_full_interval_edge(3, 2, 1, 0, 3, 2),), TreeSub(1), 2),
     "cannot pack step = 0: legal values are 1..1"),
    # nor copy 3 = 2n - 1 up to copy 4: the last tour step sets the step's range
    (NodeCertificate((_full_interval_edge(3, 2, 1, 2, 3, 4),), TreeSub(1), 2),
     "cannot pack step = 1: legal values are 0..0"),
    (NodeCertificate((_full_interval_edge(3, 2, 4, 3, 4, 3),), TreeSub(1), 2),
     "cannot pack index = 4: legal values are 1..3"),
    (NodeCertificate((_chord(2, 6, 1, PopCertificate(7, 6, -2, 8), PopCertificate(7, 1, 0, 8)),), TreeSub(1), 4),
     "cannot pack lo = -1: legal values are 0..6"),
    (NodeCertificate((_chord(2, 2, 1, PopCertificate(7, 2, 0, 10), PopCertificate(7, 1, 0, 8)),), TreeSub(1), 4),
     "cannot pack hi = 7: legal values are 0..6"),
    (NodeCertificate((), TreeSub(2**255), 1), "identifiers too large to pack"),
    # the step from copy 3 gives copy 4, not 5, whatever rank copy 5 claims
    (NodeCertificate((_full_interval_edge(5, 2, 1, 2, 3, 5),), TreeSub(1), 3),
     "cannot pack copy 5 with interval size 5 and rank 5: the layout forces copy 4, size 5 and rank 4"),
    (NodeCertificate((_full_interval_edge(5, 2, 1, 2, 3, 5)._replace(pop_j2=PopCertificate(5, 4, 0, 6)),), TreeSub(1), 3),
     "cannot pack copy 5 with interval size 5 and rank 4: the layout forces copy 4, size 5 and rank 4"),
    (NodeCertificate((_chord(2, 1, 2, PopCertificate(4, 1, 0, 4), PopCertificate(3, 2, 0, 4)),), TreeSub(1), 2),
     "cannot pack copy 1 with interval size 4 and rank 1: the layout forces copy 1, size 3 and rank 1"),
    (NodeCertificate((_chord(2, 1, 2, PopCertificate(3, 1, 0, 4), PopCertificate(3, 3, 0, 4)),), TreeSub(1), 2),
     "cannot pack copy 2 with interval size 3 and rank 3: the layout forces copy 2, size 3 and rank 2"),
    (NodeCertificate((
        _chord(2, 1, 2, PopCertificate(3, 1, 0, 4), PopCertificate(3, 2, 0, 4)),
        _chord(3, 1, 3, PopCertificate(3, 1, 0, 3), PopCertificate(3, 3, 0, 4)),
    ), TreeSub(1), 2),
     "cannot pack copy 1 with two intervals, PopCertificate(n=3, rank=1, lo=0, hi=4) and "
     "PopCertificate(n=3, rank=1, lo=0, hi=3): the layout sends a copy's interval once per certificate"),
]


@pytest.mark.parametrize("cert, refusal", _REFUSALS, ids=[r for _, r in _REFUSALS])
def test_pack_refusals_are_pinned(cert, refusal):
    # Packing, sizing and listing fields all write the certificate, so each
    # refuses it with the same text.
    for write in (pack_certificate, certificate_size_bits, certificate_bit_fields):
        with pytest.raises(ParameterError) as refused:
            write(cert)
        assert str(refused.value) == refusal


def test_unpack_rejects_truncation_and_trailing_junk():
    cert = prove_planar(build_graph([(1, 2), (2, 3), (1, 3)]))[1]
    data = pack_certificate(cert)
    with pytest.raises(FormatError):
        unpack_certificate(data[:3])
    with pytest.raises(FormatError):
        unpack_certificate(data + b"\xff")
    with pytest.raises(FormatError):
        unpack_certificate(b"")


def test_unpack_rejects_zero_widths():
    with pytest.raises(FormatError):
        unpack_certificate(b"\x00\x04\x00\x00")


def _wire(id_bits: int, idx_bits: int, *fields: tuple[int, int]) -> bytes:
    """The two width bytes, then ``fields``, (value, width) pairs in layout
    order, padded with zero bits to a byte: a field the padding cannot hold
    reads as truncated."""
    acc = 1  # the leading 1 bit that _wire_bytes drops
    for value, width in fields:
        acc = acc << width | value
    return _wire_bytes(acc, id_bits, idx_bits)[0]


#: One byte string per check the reader makes, and the exact refusal, in
#: layout order: length and widths, then per field its truncation and its
#: range, then trailing data.  Most use 2-bit ids and a 3-bit n, where n runs
#: 1..2 and ids 1..3; at n = 2 an index takes 2 bits for copies 1..3, and copy
#: k's stored interval ends take the bits of 0..k (lo + 1) and 0..4 - k
#: (hi - k - 1).  The chord (far 1, 2) and tree edge (far 2, 2) prefixes below
#: give count 1, n 2 and root 1.
_CHORD = ((1, 2), (2, 3), (1, 2), (2, 2), (0, 1))
_TREE = ((1, 2), (2, 3), (1, 2), (2, 2), (1, 1))
_UNPACK_REFUSALS = [
    (b"\x02\x03", "certificate bytes too short"),
    (b"\x00\x03\x00", "implausible field widths"),
    (b"\x02\x00\x00", "implausible field widths"),
    (_wire(2, 7, (0, 2)), "certificate bitstream is truncated"),  # at n
    (_wire(2, 3, (0, 2), (0, 3)), "n = 0 is outside 1..2"),
    (_wire(2, 3, (0, 2), (3, 3)), "n = 3 is outside 1..2"),
    (_wire(7, 3, (0, 2), (1, 3)), "certificate bitstream is truncated"),  # at root_id
    (_wire(2, 3, (0, 2), (2, 3), (0, 2)), "root_id = 0 is outside 1..3"),
    (_wire(2, 3, (1, 2), (2, 3), (1, 2)), "certificate bitstream is truncated"),  # at far
    (_wire(2, 3, (1, 2), (2, 3), (1, 2), (0, 2)), "far = 0 is outside 1..3"),
    (_wire(1, 4, (1, 2), (2, 4), (1, 1), (1, 1)), "certificate bitstream is truncated"),  # at second
    # a tree edge needs a tour of two nodes
    (_wire(2, 3, (1, 2), (1, 3), (1, 2), (2, 2), (1, 1)), "second = 1 is outside 0..0"),
    (_wire(2, 8, (1, 2), (2, 8), (1, 2), (2, 2), (0, 1)), "certificate bitstream is truncated"),  # at index
    (_wire(2, 3, *_CHORD, (0, 2)), "index = 0 is outside 1..3"),
    # at n = 3 an index takes 3 bits for copies 1..5
    (_wire(2, 4, (1, 2), (3, 4), (1, 2), (2, 2), (0, 1), (6, 3)), "index = 6 is outside 1..5"),
    (_wire(2, 7, (1, 2), (2, 7), (1, 2), (2, 2), (0, 1), (2, 2)), "certificate bitstream is truncated"),  # at lo
    (_wire(2, 3, *_CHORD, (2, 2), (3, 2)), "lo = 3 is outside 0..2"),
    (_wire(2, 4, (1, 2), (2, 4), (1, 2), (2, 2), (0, 1), (2, 2), (1, 2)),
     "certificate bitstream is truncated"),  # at hi
    (_wire(2, 3, *_CHORD, (2, 2), (1, 2), (3, 2)), "hi = 3 is outside 0..2"),
    # at the step after copy 2's interval, its repeat i2 = 1 sending none
    (_wire(2, 5, (1, 2), (2, 5), (1, 2), (2, 2), (1, 1), (1, 2), (0, 1), (2, 2), (1, 1),
           (0, 2), (1, 2), (1, 2)), "certificate bitstream is truncated"),
    # copy 1 cannot step down to copy 0
    (_wire(2, 3, *_TREE, (1, 2), (1, 1), (2, 2), (0, 1)), "step = 0 is outside 1..1"),
    # nor copy 3 = 2n - 1 up to copy 4
    (_wire(2, 3, *_TREE, (3, 2), (1, 2), (0, 1), (1, 1)), "step = 1 is outside 0..0"),
    (_wire(2, 3, (0, 2), (1, 3), (1, 2), (0, 8)), "certificate bitstream has trailing data"),
    (_wire(2, 3, (0, 2), (1, 3), (1, 2), (1, 1)), "certificate bitstream has trailing data"),
]


@pytest.mark.parametrize(
    "data, refusal", _UNPACK_REFUSALS, ids=[f"{d.hex()}-{r}" for d, r in _UNPACK_REFUSALS]
)
def test_unpack_refusals_are_pinned(data, refusal):
    with pytest.raises(FormatError) as refused:
        unpack_certificate(data)
    assert str(refused.value) == refusal


def _slot_copies(cert: NodeCertificate) -> list[int]:
    """The copy each slot the layout sends names, in layout order."""
    return [
        k for ec in cert.edge_certs for k, _ in ec.bindings()[: 4 if ec.is_tree() else 2]
    ]


def test_wire_leaves_out_forced_fields():
    # Per certificate: the root's id but no parent.  Per edge certificate:
    # one id, its far end's, and a one-bit flag.  A chord then sends an
    # index for both of its copies; a tree edge sends one for the holder's
    # copy of each tour step and a step bit for the far end's copy next to
    # it.  Each index or step bit is followed by the copy's (lo, hi) if no
    # earlier slot of the certificate named that copy, and by nothing else.
    g = generate("random_maximal_planar", n=25, seed=5)
    layout = {"count", "n", "root_id", "far", "second", "index", "step", "lo", "hi"}
    repeats = 0
    for cert in prove_planar(g).values():
        fields = certificate_bit_fields(cert)
        names = [f.name for f in fields]
        tree = sum(ec.is_tree() for ec in cert.edge_certs)
        copies = _slot_copies(cert)
        assert set(names) <= layout
        assert names.count("root_id") == 1
        assert names.count("far") == names.count("second") == len(cert.edge_certs)
        assert names.count("step") == 2 * tree
        assert names.count("index") == len(copies) - 2 * tree
        assert names.count("lo") == names.count("hi") == len(set(copies))
        sends_interval = [
            names[p + 1 : p + 3] == ["lo", "hi"]
            for p, name in enumerate(names)
            if name in ("index", "step")
        ]
        assert sends_interval == [k not in copies[:s] for s, k in enumerate(copies)]
        repeats += len(copies) - len(set(copies))
        assert all(f.lo <= f.value <= f.hi for f in fields)
    assert repeats > 0


def test_pack_refuses_a_tree_edge_off_the_tour():
    g = _path(4)
    cert = next(c for c in prove_planar(g).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    far = ec.i + 3 if ec.i + 3 <= 2 * g.n - 1 else ec.i - 3
    bad = ec._replace(j=far, pop_j=ec.pop_j._replace(rank=far))
    with pytest.raises(ParameterError):
        pack_certificate(cert._replace(edge_certs=(bad,) + cert.edge_certs[1:]))


def test_unpack_refills_forced_values():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    for cert in prove_planar(g).values():
        again = unpack_certificate(pack_certificate(cert))
        for ec in again.edge_certs:
            for k, pc in ec.bindings():
                assert (pc.n, pc.rank) == (2 * g.n - 1, k)
            if not ec.is_tree():
                assert ec.bindings()[2:] == ec.bindings()[:2]


def _in_range(name, width, lo, hi, value):
    if not lo <= value <= hi:
        raise ParameterError(f"cannot pack {name} = {value}: legal values are {lo}..{hi}")
    return value


def _widths(cert: NodeCertificate) -> tuple[int, int]:
    return _field_widths(max([cert.tree_sub.root_id] + [ec.far for ec in cert.edge_certs]), cert.n)


def _old_pack_refuses(cert: NodeCertificate) -> bool:
    """Reference check: write each field the layout reads off ``cert``, each
    in its legal range and a copy's interval with its first slot only, decode
    what was written into a new certificate, and refuse unless it equals
    ``cert``."""
    values = [len(cert.edge_certs), cert.n, cert.tree_sub.root_id]
    sent = set()
    for ec in cert.edge_certs:
        held = ec.bindings()
        second = held[2:] != held[:2]
        values += [ec.far, int(second)]
        for s, (k, pc) in enumerate(held[: 4 if second else 2]):
            if second and s % 2:
                near = int(k > at)
                at += 2 * near - 1  # the copy the step bit gives
            else:
                near = at = k
            values.append(near)
            if at not in sent:
                values += [pc.lo + 1, pc.hi - at - 1]
                sent.add(at)
    feed = iter(values)
    try:
        rebuilt = reference_walk(
            lambda name, width, lo, hi: _in_range(name, width, lo, hi, next(feed)),
            *_widths(cert),
        )
    except ParameterError:
        return True
    return rebuilt != cert


def _forced_value_edits(ec: EdgeCertificate):
    """One edit per forced value of ``ec``: each interval certificate's size
    and rank, each tour step's far copy moved by two (alone and with its
    rank), and a chord's second slot pair made different from its first."""
    for slot in ("pop_i", "pop_j", "pop_i2", "pop_j2"):
        pc = getattr(ec, slot)
        yield ec._replace(**{slot: pc._replace(n=pc.n + 1)})
        yield ec._replace(**{slot: pc._replace(rank=pc.rank + 1)})
    if ec.is_tree():
        for copy, slot in (("j", "pop_j"), ("j2", "pop_j2")):
            for delta in (2, -2):
                k = getattr(ec, copy) + delta
                pc = getattr(ec, slot)
                yield ec._replace(**{copy: k})
                yield ec._replace(**{copy: k, slot: pc._replace(rank=k)})
    else:
        yield ec._replace(i2=ec.j, j2=ec.i, pop_i2=ec.pop_j, pop_j2=ec.pop_i)
        k = ec.i2 + 1
        yield ec._replace(j2=k, pop_j2=ec.pop_j2._replace(rank=k))


def _repeat_edits(cert: NodeCertificate):
    """For each slot the layout sends that names a copy an earlier slot
    already named, ``cert`` with that slot's interval moved (both slots of a
    chord's pair, so that it stays a chord)."""
    named = set()
    for e, ec in enumerate(cert.edge_certs):
        for slot in ("i", "j", "i2", "j2")[: 4 if ec.is_tree() else 2]:
            k = getattr(ec, slot)
            if k in named:
                pc = getattr(ec, "pop_" + slot)
                moved = pc._replace(hi=pc.hi + 1)
                change = {"pop_" + slot: moved}
                if not ec.is_tree():
                    change["pop_" + slot + "2"] = moved
                edge_certs = list(cert.edge_certs)
                edge_certs[e] = ec._replace(**change)
                yield cert._replace(edge_certs=tuple(edge_certs))
            named.add(k)


#: First 16 hex digits of the sha256 of the honest certificates' packed bytes,
#: concatenated in node order.
_PACKED_PINS = {
    "grid": "cedb28a9cc0987ad",
    "random_maximal_planar": "7180a77dc8954f34",
    "tree": "5471ddfbfd5ae089",
    "complete": "0bdf0792799b298f",
}


def test_pack_refuses_values_the_layout_forces():
    graphs = {
        "grid": generate("grid", w=6, h=5),
        "random_maximal_planar": generate("random_maximal_planar", n=40, seed=3),
        "tree": generate("tree", n=30, seed=4),
        "complete": generate("complete", k=4),
    }
    outcomes = set()
    repeats = 0
    for kind, g in graphs.items():
        digest = hashlib.sha256()
        for x, cert in sorted(prove_planar(g).items()):
            assert not _old_pack_refuses(cert)
            digest.update(pack_certificate(cert))
            for e, ec in enumerate(cert.edge_certs):
                for bad_ec in _forced_value_edits(ec):
                    edge_certs = cert.edge_certs[:e] + (bad_ec,) + cert.edge_certs[e + 1 :]
                    bad = cert._replace(edge_certs=edge_certs)
                    refused = _old_pack_refuses(bad)
                    outcomes.add(refused)
                    if refused:
                        with pytest.raises(ParameterError):
                            pack_certificate(bad)
                    else:
                        assert unpack_certificate(pack_certificate(bad)) == bad
            for bad in _repeat_edits(cert):
                # a repeat that carries another interval than its first slot
                repeats += 1
                assert _old_pack_refuses(bad)
                with pytest.raises(ParameterError, match="two intervals"):
                    pack_certificate(bad)
        assert digest.hexdigest()[:16] == _PACKED_PINS[kind], kind
    assert outcomes == {True, False}
    assert repeats > 0
    # Sizing and listing fields run the writer, so they refuse a forced value too.
    cert = next(c for c in prove_planar(graphs["complete"]).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    bad_ec = ec._replace(pop_i=ec.pop_i._replace(n=ec.pop_i.n + 1))
    bad = cert._replace(edge_certs=(bad_ec,) + cert.edge_certs[1:])
    with pytest.raises(ParameterError):
        certificate_size_bits(bad)
    with pytest.raises(ParameterError):
        certificate_bit_fields(bad)


def test_unpack_rejects_every_out_of_range_field():

    cert = prove_planar(generate("wheel", n=6))[2]
    data = pack_certificate(cert)
    fields = certificate_bit_fields(cert)
    for target, f in enumerate(fields):
        for value in range(1 << f.width):
            if f.lo <= value <= f.hi or f.name in ("count", "second", "step"):
                continue  # those re-frame the stream; covered by the fuzz test
            with pytest.raises(FormatError):
                unpack_certificate(_set_field(data, fields, target, value))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_unpack_is_the_single_gate(data):
    try:
        cert = unpack_certificate(data)
    except FormatError:
        return
    assert unpack_certificate(pack_certificate(cert)) == cert


def _decoded_or_refusal(decode, data: bytes):
    try:
        return decode(data)
    except FormatError as refused:
        return str(refused)


def _assert_decodes_as_the_reference(data: bytes) -> None:
    """The reader gives the reference decoder's certificate, or its refusal
    text, and a repeated copy's interval is its first slot's object."""
    got = _decoded_or_refusal(unpack_certificate, data)
    want = _decoded_or_refusal(reference_unpack, data)
    assert type(got) is type(want) and got == want, data.hex()
    if isinstance(got, str):
        return
    _assert_named_classes(got)
    first: dict[int, PopCertificate] = {}
    for ec in got.edge_certs:
        for k, pc in ec.bindings():
            assert first.setdefault(k, pc) is pc, data.hex()


def test_reader_matches_the_reference_decoder():
    # The prove benchmark's certificates (seed 101), random fields on the
    # same graphs, short random payloads at small widths, where n = 1 and
    # steps from the first and the last copy come up often, the pinned
    # refusals, and each honest certificate with one byte changed, cut short
    # and extended.
    rng = random.Random(101)
    graphs = (
        generate("grid", w=32, h=32),
        generate("random_maximal_planar", n=1024, seed=101),
        generate("tree", n=1024, seed=101),
    )
    honest = [pack_certificate(c) for g in graphs for _, c in sorted(prove_planar(g).items())]
    assert len(honest) == 3072
    drawn = [b for g in graphs for b in random_assignment(g, 101).certs.values()]
    small = [
        bytes((rng.randint(1, 3), rng.randint(3, 4))) + rng.randbytes(rng.randrange(1, 12))
        for _ in range(20_000)
    ]
    for data in honest + drawn + small + [d for d, _ in _UNPACK_REFUSALS]:
        _assert_decodes_as_the_reference(data)
    texts = set()
    for data in honest:
        at = rng.randrange(len(data))
        changed = data[:at] + bytes((data[at] ^ rng.randrange(1, 256),)) + data[at + 1 :]
        cut = data[: rng.randrange(len(data))]
        extended = data + rng.randbytes(rng.randrange(1, 4))
        for other in (changed, cut, extended):
            _assert_decodes_as_the_reference(other)
            got = _decoded_or_refusal(reference_unpack, other)
            if isinstance(got, str):
                texts.add(got)
    # the edits reach the length refusals and the range refusals of four fields
    assert {"certificate bytes too short", "certificate bitstream is truncated",
            "certificate bitstream has trailing data"} <= texts
    assert {t.split(" = ")[0] for t in texts if " = " in t} >= {"n", "index", "lo", "hi"}


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.integers(1, 12), st.integers(1, 12))
def test_reader_matches_the_reference_on_arbitrary_bytes(data, id_bits, idx_bits):
    # as they come, and after plausible widths, so that most fields are read
    _assert_decodes_as_the_reference(data)
    _assert_decodes_as_the_reference(bytes((id_bits, idx_bits)) + data)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.integers(1, 6), st.integers(3, 7), st.data())
def test_every_decoded_interval_is_within_its_own_bounds(data, id_bits, idx_bits, draw):
    # The reader carries only the intervals the interval checks' own bounds
    # allow: for copy k of 1..2n - 1, -1 <= lo < k < hi <= 2n + 1.  Arbitrary
    # bytes seldom decode, so the walk also packs legal counts, ids and flags,
    # and in every index, step, lo and hi window a legal value or any bits
    # (past an illegal value, which the reader refuses, a range may be empty).
    def window(name, width, lo, hi):
        legal = st.integers(lo, hi) if lo <= hi else st.nothing()
        if name in ("index", "step", "lo", "hi"):
            return draw.draw(legal | st.integers(0, (1 << width) - 1))
        return draw.draw(legal)

    fields = encode_fields(window, id_bits, idx_bits)[0]
    for raw in (data, bytes((id_bits, idx_bits)) + data, fields):
        try:
            cert = unpack_certificate(raw)
        except FormatError:
            continue
        nv = 2 * cert.n - 1
        for ec in cert.edge_certs:
            for k, pc in ec.bindings():
                assert (pc.n, pc.rank) == (nv, k)
                assert -1 <= pc.lo < k < pc.hi <= nv + 2, (raw.hex(), k, pc)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.lists(st.binary(max_size=64), max_size=4))
def test_byte_verifier_is_total(own, neighbors):
    v = planarity_verifier(1, own, {y: b for y, b in enumerate(neighbors, start=2)})
    assert isinstance(v, Verdict)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.binary(min_size=1, max_size=8))
def test_byte_verifier_is_total_on_near_honest_bytes(seed, junk):
    # Bytes that mostly decode: an honest certificate with a few bytes
    # overwritten, so the semantic checks see odd but in-range values.
    g = generate("random_maximal_planar", n=8, seed=seed % 7)
    packed = {x: pack_certificate(c) for x, c in prove_planar(g).items()}
    x = seed % g.n + 1
    at = seed % max(1, len(packed[x]) - 2) + 2
    packed[x] = (packed[x][:at] + junk + packed[x][at + len(junk) :])[: len(packed[x])]
    for y in g.nodes():
        v = planarity_verifier(y, packed[y], {z: packed[z] for z in g.neighbors(y)})
        assert isinstance(v, Verdict)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10_000))
def test_pack_round_trip_random_trees(n, seed):
    g = generate("tree", n=n, seed=seed)
    for cert in prove_planar(g).values():
        assert unpack_certificate(pack_certificate(cert)) == cert


# --- caller-supplied rotation -------------------------------------------------


def test_prove_with_explicit_rotation():
    from planarcert.embedding import planar_embed

    g = generate("wheel", n=6)
    rot = planar_embed(g)
    certs = prove_planar(g, rot)
    assert _all_accept(g, certs)


def test_prove_refuses_a_rotation_that_is_not_planar():
    from planarcert.embedding import canonical_rotation

    k4 = generate("complete", k=4)
    genus_one = {v: tuple(u for u in range(1, 5) if u != v) for v in range(1, 5)}
    with pytest.raises(ParameterError, match="rotation"):
        prove_planar(k4, canonical_rotation(genus_one))
    with pytest.raises(ParameterError, match="rotation"):
        prove_planar(k4, canonical_rotation({1: (2, 3, 4)}))
