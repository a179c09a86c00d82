from __future__ import annotations

import random
import re

import pytest

from planarcert.errors import ParameterError, ResourceError
from planarcert.graphs import Graph, build_graph, generate, subdivide
from planarcert.minors import (
    has_biclique_minor,
    has_clique_minor,
    minor_contains,
    parse_minor_spec,
)


# --- independent oracle: exhaustive full partitions -------------------------
#
# For a connected graph, a clique minor exists iff some partition of V into
# exactly k nonempty connected pairwise-adjacent blocks exists (leftover
# vertices can always be absorbed into an adjacent block without breaking
# connectivity or adjacency). Enumerating set partitions is therefore a
# complete, independent check at small n.


def _partitions_into_k_blocks(items, k):
    n = len(items)

    def rec(i, blocks):
        if n - i < k - len(blocks):
            return
        if i == n:
            if len(blocks) == k:
                yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _connected_subset(g: Graph, block) -> bool:
    block = set(block)
    start = next(iter(block))
    stack, seen = [start], {start}
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in block and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == block


def _blocks_adjacent(g: Graph, a, b) -> bool:
    bs = set(b)
    return any(w in bs for u in a for w in g.neighbors(u))


def exhaustive_clique_minor(g: Graph, k: int) -> bool:
    assert g.connected
    for blocks in _partitions_into_k_blocks(g.nodes(), k):
        if not all(_connected_subset(g, b) for b in blocks):
            continue
        if all(
            _blocks_adjacent(g, blocks[i], blocks[j])
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return True
    return False


# --- basic cases -------------------------------------------------------------


def test_k5_contains_itself():
    assert has_clique_minor(generate("complete", k=5), 5)


def test_tree_has_no_k3():
    g = generate("tree", n=10, seed=1)
    assert not has_clique_minor(g, 3)


def test_cycle_has_k3_but_not_k4():
    g = build_graph([(i, i % 6 + 1) for i in range(1, 7)])
    assert has_clique_minor(g, 3)
    assert not has_clique_minor(g, 4)


def test_k3_iff_cycle_on_small_random_graphs():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.35
        ]
        g = build_graph(edges, nodes=range(1, n + 1))
        has_cycle = g.m > g.n - sum(1 for _ in _components(g))
        assert has_clique_minor(g, 3) == has_cycle


def _components(g: Graph):
    seen = set()
    for v in g.nodes():
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        yield comp


def test_petersen_k5_matches_exhaustive_partition_oracle():
    g = generate("petersen")
    assert exhaustive_clique_minor(g, 5)
    assert has_clique_minor(g, 5)


def test_petersen_has_k33_minor():
    assert has_biclique_minor(generate("petersen"), 3, 3)


def test_petersen_has_no_k6():
    assert not has_clique_minor(generate("petersen"), 6)


def test_planar_graphs_have_no_k5_or_k33():
    for g in (
        generate("grid", w=3, h=3),
        generate("wheel", n=8),
        generate("random_maximal_planar", n=12, seed=6),
    ):
        assert not has_clique_minor(g, 5)
        assert not has_biclique_minor(g, 3, 3)


def test_grid_matches_exhaustive_partition_oracle_negative():
    g = generate("grid", w=3, h=3)
    assert not exhaustive_clique_minor(g, 5)


def test_k33_contains_itself_not_k5():
    g = generate("complete_bipartite", p=3, q=3)
    assert has_biclique_minor(g, 3, 3)
    assert not has_clique_minor(g, 5)


def test_k5_contains_k23():
    assert has_biclique_minor(generate("complete", k=5), 2, 3)


def test_subdivision_preserves_minor():
    base = generate("complete", k=5)
    g = subdivide(base, 2)
    assert has_clique_minor(g, 5)
    assert not has_clique_minor(g, 6)


def test_monotone_under_edge_addition():
    rng = random.Random(9)
    base_edges = [(i, i + 1) for i in range(1, 9)]
    g = build_graph(base_edges)
    was = has_clique_minor(g, 4)
    assert not was
    extra = []
    all_pairs = [(a, b) for a in range(1, 10) for b in range(a + 1, 10)]
    rng.shuffle(all_pairs)
    prev = was
    for a, b in all_pairs[:12]:
        extra.append((a, b))
        cur = has_clique_minor(build_graph(base_edges + extra), 4)
        assert cur or not prev  # once true, never back to false
        prev = cur


def test_cap_enforced():
    with pytest.raises(ResourceError):
        has_clique_minor(generate("grid", w=9, h=9), 3)  # 81 nodes
    assert has_clique_minor(generate("grid", w=8, h=10), 3)  # 80, at the cap


def test_parse_minor_spec():
    assert parse_minor_spec("K5") == ("clique", 5)
    assert parse_minor_spec("K3,3") == ("biclique", 3, 3)
    assert parse_minor_spec("k2,3") == ("biclique", 2, 3)


@pytest.mark.parametrize("spec", ["K", "Kx", "K3,", "K3,3,3", "K2.5", ("clique",), ("biclique", 3)])
def test_a_malformed_minor_is_refused_quoting_it(spec):
    with pytest.raises(ParameterError, match=re.escape(repr(spec))):
        minor_contains(generate("petersen"), spec)


def test_minor_contains_dispatch():
    assert minor_contains(generate("petersen"), "K5")
    assert not minor_contains(generate("grid", w=4, h=4), "K3,3")


def test_glued_cliques_chain():
    # Two K5 blocks sharing a pair of vertices: K5 survives, K6 does not.
    # Exercises the separator-splitting path of the oracle.
    import itertools

    left = list(range(1, 6))
    right = [4, 5, 6, 7, 8]
    edges = list(itertools.combinations(left, 2)) + list(itertools.combinations(right, 2))
    g = build_graph(edges)
    assert has_clique_minor(g, 5)
    assert not has_clique_minor(g, 6)


def test_separator_pair_edge_carries_the_outside_path():
    # K5 on 1..5 without the edge {1, 2}; 1 and 2 are joined instead through
    # a K4 on 6..9.  The best separator is {1, 2}, and the K5 survives only
    # in the piece {1, ..., 5} with the x-y edge that stands for the path
    # 1-6-7-2 outside it.
    import itertools

    edges = [e for e in itertools.combinations(range(1, 6), 2) if e != (1, 2)]
    edges += list(itertools.combinations(range(6, 10), 2)) + [(1, 6), (2, 7)]
    g = build_graph(edges)
    assert has_clique_minor(g, 5)
    assert not has_clique_minor(g, 6)
    assert not has_clique_minor(build_graph(edges[:-1]), 5)


def test_glued_bicliques_at_cut_vertex():
    # Two K_{2,3} copies sharing one vertex: the shared vertex cannot give
    # two vertex-disjoint sides enough joint attachment for K_{3,3}.
    e1 = [(a, b) for a in (1, 2) for b in (3, 4, 5)]
    e2 = [(a, b) for a in (5, 6) for b in (7, 8, 9)]
    g = build_graph(e1 + e2)
    assert has_biclique_minor(g, 2, 3)
    assert not has_biclique_minor(g, 3, 3)


def test_long_clique_chain_negative_is_fast():
    # A chain of K4 blocks overlap-joined pairwise has no K5 minor; the
    # decomposition must keep this tractable (raw search would blow up).
    import itertools
    import time

    blocks = [list(range(r * 4 + 1, r * 4 + 5)) for r in range(6)]
    edges = []
    for ids in blocks:
        edges += list(itertools.combinations(ids, 2))
    for r in range(5):
        for u in blocks[r][-2:]:
            for v in blocks[r + 1][:2]:
                edges.append((u, v))
    g = build_graph(edges)
    t0 = time.time()
    assert not has_clique_minor(g, 5)
    assert has_clique_minor(g, 4)
    assert time.time() - t0 < 30.0
