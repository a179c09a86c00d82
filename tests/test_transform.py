"""Tests for the spanning-tree / tour / virtual-path-graph pipeline."""

from __future__ import annotations

import random

import pytest

from planarcert.embedding import canonical_rotation, planar_embed
from planarcert.errors import ParameterError
from planarcert.graphs import Graph, build_graph, generate, norm_edge
from planarcert.lowerbound import BlockInstance, gen_block_instance
from planarcert.pop import is_path_outerplanar
from planarcert.transform import (
    DfsMapping,
    InducedGraph,
    contract_check,
    dfs_mapping,
    induce_graph,
    spanning_tree_dfs,
)


#: Token for the virtual anchor in text dumps of a tour.
ANCHOR_TOKEN = "r'"


def _dump(fm: DfsMapping) -> str:
    """Debug form of a tour: ``f: r' 1 2 ... r'``, anchor tokens at the ends."""
    return "f: " + " ".join(ANCHOR_TOKEN if x is None else str(x) for x in fm.f)


def _tree_edges(t) -> set[tuple[int, int]]:
    return {norm_edge(v, p) for v, p in t.parent.items() if p is not None}


def _tree_degree(t, v: int) -> int:
    """Tree edges at v: one per child, plus the parent edge unless v is the root."""
    return len(t.children_order[v]) + (0 if v == t.root else 1)


def _cycle(n: int) -> Graph:
    return build_graph([(i, i % n + 1) for i in range(1, n + 1)])


def _embed(g: Graph):
    rot = planar_embed(g)
    assert not hasattr(rot, "kind"), "corpus graph must be planar"
    return rot


def _pipeline(g: Graph, root: int):
    rot = _embed(g)
    t = spanning_tree_dfs(g, rot, root)
    fm = dfs_mapping(t)
    induced = induce_graph(g, rot, t, fm)
    return rot, t, fm, induced


def _recursive_tour(t) -> list[int]:
    """Independent reference: plain recursive walk collecting every visit."""
    out: list[int] = []

    def walk(v: int) -> None:
        out.append(v)
        for c in t.children_order[v]:
            walk(c)
            out.append(v)

    walk(t.root)
    return out


def _planar_corpus() -> list[Graph]:
    rng = random.Random(7)
    corpus = [
        build_graph([(1, 2)]),
        build_graph([(1, 2), (2, 3), (3, 1)]),
        _cycle(6),
        generate("grid", w=3, h=3),
        generate("wheel", n=6),
        generate("tree", n=12, seed=2),
        generate("random_maximal_planar", n=14, seed=4),
        generate("random_maximal_planar", n=25, seed=9),
    ]
    for _ in range(4):
        corpus.append(
            generate("tree", n=rng.randrange(2, 20), seed=rng.randrange(999))
        )
    return corpus


# --- spanning tree --------------------------------------------------------


def test_star_children_follow_rotation_order():
    g = build_graph([(1, 2), (1, 3), (1, 4)])
    rot = canonical_rotation({1: (2, 3, 4), 2: (1,), 3: (1,), 4: (1,)})
    t = spanning_tree_dfs(g, rot, 1)
    assert t.children_order[1] == (2, 3, 4)
    assert t.parent == {1: None, 2: 1, 3: 1, 4: 1}


def test_four_cycle_tree_is_a_path_with_one_leftover_edge():
    g = _cycle(4)
    rot = _embed(g)
    t = spanning_tree_dfs(g, rot, 1)
    assert _tree_edges(t) == {(1, 2), (2, 3), (3, 4)}
    leftover = [e for e in g.edges() if e not in _tree_edges(t)]
    assert leftover == [(1, 4)]


def test_spanning_tree_shape_on_random_planar():
    g = generate("random_maximal_planar", n=30, seed=3)
    t = spanning_tree_dfs(g, _embed(g), 1)
    assert t.n == 30
    assert len(_tree_edges(t)) == 29
    assert _tree_edges(t) <= set(g.edges())
    assert g.m == 3 * 30 - 6
    assert g.m - len(_tree_edges(t)) == 55


def test_spanning_tree_rejects_bad_root():
    g = _cycle(4)
    with pytest.raises(ParameterError):
        spanning_tree_dfs(g, _embed(g), 99)


# --- tour mapping ---------------------------------------------------------


def test_tour_of_a_path():
    g = build_graph([(1, 2), (2, 3)])
    rot = canonical_rotation({1: (2,), 2: (1, 3), 3: (2,)})
    fm = dfs_mapping(spanning_tree_dfs(g, rot, 1))
    assert fm.f == (None, 1, 2, 3, 2, 1, None)
    assert fm.copies == {1: (1, 5), 2: (2, 4), 3: (3,)}
    assert _dump(fm) == "f: r' 1 2 3 2 1 r'"


def test_tour_of_a_star():
    g = build_graph([(1, 2), (1, 3), (1, 4)])
    rot = canonical_rotation({1: (2, 3, 4), 2: (1,), 3: (1,), 4: (1,)})
    fm = dfs_mapping(spanning_tree_dfs(g, rot, 1))
    assert fm.f[1:-1] == (1, 2, 1, 3, 1, 4, 1)


def test_tour_matches_recursive_reference_and_copy_degrees():
    for g in _planar_corpus():
        t = spanning_tree_dfs(g, _embed(g), min(g.nodes()))
        fm = dfs_mapping(t)
        assert list(fm.f[1:-1]) == _recursive_tour(t)
        assert fm.f[1] == t.root
        for v in g.nodes():
            want = _tree_degree(t, v) + (1 if v == t.root else 0)
            assert len(fm.copies[v]) == want


def test_every_tree_edge_appears_twice_in_the_tour():
    g = generate("random_maximal_planar", n=18, seed=1)
    t = spanning_tree_dfs(g, _embed(g), 1)
    fm = dfs_mapping(t)
    pairs = [
        norm_edge(fm.f[i], fm.f[i + 1]) for i in range(1, len(fm.f) - 2)
    ]
    for e in _tree_edges(t):
        assert pairs.count(e) == 2
    assert len(pairs) == 2 * (g.n - 1)


def test_copy_blocks_contain_only_descendants():
    for g in _planar_corpus():
        t = spanning_tree_dfs(g, _embed(g), min(g.nodes()))
        fm = dfs_mapping(t)
        below: dict[int, set[int]] = {}

        def fill(v: int) -> set[int]:
            acc = {v}
            for c in t.children_order[v]:
                acc |= fill(c)
            below[v] = acc
            return acc

        fill(t.root)
        for v in g.nodes():
            first, last = fm.copies[v][0], fm.copies[v][-1]
            assert all(fm.f[k] in below[v] for k in range(first, last + 1))


# --- induced virtual graph ------------------------------------------------


def test_four_cycle_chord_lands_on_copies_of_its_endpoints():
    g = _cycle(4)
    rot, t, fm, induced = _pipeline(g, 1)
    assert induced.n_virtual == 7
    assert induced.cotree_map == {(1, 4): (4, 7)}
    assert fm.f[4] == 4 and fm.f[7] == 1
    gv = induced.virtual_graph()
    assert gv.m == 6 + 1
    assert is_path_outerplanar(gv, tuple(range(1, 8)))


def test_wheel_virtual_graph_counts():
    g = generate("wheel", n=6)
    _, _, _, induced = _pipeline(g, 1)
    gv = induced.virtual_graph()
    assert gv.n == 2 * 6 - 1 == 11
    assert len(induced.path_edges()) == 10
    # non-tree edge count is m - (n-1)
    assert len(induced.cotree_map) == g.m - (g.n - 1) == 5
    assert gv.m == 15


def test_virtual_graph_is_path_outerplanar_in_identity_order_for_corpus():
    for g in _planar_corpus():
        nodes = g.nodes()
        roots = {nodes[0], nodes[len(nodes) // 2], nodes[-1]}
        for root in roots:
            _, _, _, induced = _pipeline(g, root)
            order = tuple(range(1, induced.n_virtual + 1))
            assert is_path_outerplanar(induced.virtual_graph(), order)


def test_chord_images_are_the_original_edges():
    g = generate("random_maximal_planar", n=20, seed=6)
    _, t, fm, induced = _pipeline(g, 1)
    for (u, v), (i, j) in induced.cotree_map.items():
        assert {fm.f[i], fm.f[j]} == {u, v}
    assert set(induced.cotree_map) == {
        e for e in g.edges() if e not in _tree_edges(t)
    }
    chords = list(induced.cotree_map.values())
    assert len(set(chords)) == len(chords)


def _cotree_map_by_rescanning(g: Graph, rot, t, fm) -> dict:
    """Reference chord finder: for each end of each non-tree edge, find the
    edge in the ring and walk on to the next tree edge.  Quadratic in degree."""
    dep = {}
    for i in range(1, len(fm.f) - 1):
        dep[(fm.f[i], fm.f[i + 1])] = i

    def chord_end(u: int, v: int) -> int:
        ring = rot.order_at(u)
        idx = ring.index(v)
        for offset in range(1, len(ring) + 1):
            pos = idx + offset
            if u == t.root and pos == len(ring):
                return dep[(u, None)]
            w = ring[pos % len(ring)]
            if (u, w) in dep:
                return dep[(u, w)]
        raise AssertionError(f"no tree edge in the ring at {u}")

    tree = _tree_edges(t)
    return {
        (u, v): norm_edge(chord_end(u, v), chord_end(v, u))
        for u, v in g.edges()
        if (u, v) not in tree
    }


def test_chords_match_the_rescanning_finder():
    rng = random.Random(17)
    corpus = [
        generate("grid", w=6, h=4),
        generate("wheel", n=9),
        generate("wheel", n=40),
        generate("tree", n=30, seed=3),
        gen_block_instance(BlockInstance.path(5, 4)),
        gen_block_instance(BlockInstance.path(4, 6, (3, 1, 6, 2, 5, 4))),
    ]
    corpus += [
        generate("random_maximal_planar", n=n, seed=seed)
        for n in (4, 12, 60, 150)
        for seed in (0, 1)
    ]
    for g in corpus:
        nodes = g.nodes()
        hub = max(nodes, key=g.degree)  # a wheel's hub, say
        roots = {nodes[0], nodes[len(nodes) // 2], nodes[-1], hub}
        rot = _embed(g)
        # Scrambled rings are still neighbor permutations, mostly not planar.
        # A chord's ends are copies of its edge's endpoints, so no two edges
        # share a chord there either, and both finders return a map.
        scrambled = canonical_rotation(
            {v: rng.sample(ring, len(ring)) for v, ring in rot.rotation.items()}
        )
        for r in (rot, scrambled):
            for root in roots:
                t = spanning_tree_dfs(g, r, root)
                fm = dfs_mapping(t)
                want = _cotree_map_by_rescanning(g, r, t, fm)
                assert induce_graph(g, r, t, fm).cotree_map == want


# --- contraction round-trip ------------------------------------------------


def test_contract_check_true_on_corpus():
    for g in _planar_corpus():
        _, _, fm, induced = _pipeline(g, min(g.nodes()))
        assert contract_check(g, induced, fm)


def test_contract_check_on_tree_recovers_the_tree():
    g = generate("tree", n=9, seed=5)
    _, _, fm, induced = _pipeline(g, min(g.nodes()))
    assert induced.cotree_map == {}
    assert contract_check(g, induced, fm)


def test_contract_check_rejects_chord_on_wrong_nodes():
    g = _cycle(4)
    _, _, fm, induced = _pipeline(g, 1)
    bad = InducedGraph(n_virtual=7, cotree_map={(1, 4): (3, 7)})
    with pytest.raises(ParameterError):
        contract_check(g, bad, fm)


def test_contract_check_detects_corrupted_tour():
    g = build_graph([(1, 2), (2, 3)])
    rot = canonical_rotation({1: (2,), 2: (1, 3), 3: (2,)})
    fm = dfs_mapping(spanning_tree_dfs(g, rot, 1))
    # swap the last two real entries: tour now ends ... 3 1 2 instead of 3 2 1
    broken = DfsMapping(
        f=(None, 1, 2, 3, 1, 2, None),
        copies={1: (1, 4), 2: (2, 5), 3: (3,)},
    )
    induced = InducedGraph(n_virtual=5, cotree_map={})
    assert contract_check(g, induced, fm)
    assert not contract_check(g, induced, broken)
