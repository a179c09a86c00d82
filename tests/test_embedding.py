"""Rotation systems: embedding computation, face traversal, Euler validation."""

from __future__ import annotations

import random
import sys

import networkx as nx
import pytest

from planarcert.embedding import (
    NonPlanarWitness,
    RotationSystem,
    canonical_rotation,
    faces,
    planar_embed,
    validate_rotation,
)
from planarcert.errors import StructuralError
from planarcert.graphs import Graph, build_graph, generate
from planarcert.minors import has_biclique_minor, has_clique_minor


def _embed_ok(g: Graph) -> RotationSystem:
    rot = planar_embed(g)
    assert isinstance(rot, RotationSystem)
    return rot


def test_triangle_embeds_with_two_faces():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    rot = _embed_ok(g)
    fs = faces(g, rot)
    assert len(fs) == 2
    assert g.n - g.m + len(fs) == 2
    assert validate_rotation(g, rot)


def test_k5_yields_witness():
    w = planar_embed(generate("complete", k=5))
    assert isinstance(w, NonPlanarWitness)
    assert w.kind == "K5-subdivision"
    assert len(w.branch_nodes) == 5


def test_four_cycle_faces():
    g = build_graph([(1, 2), (2, 3), (3, 4), (1, 4)])
    rot = _embed_ok(g)
    fs = faces(g, rot)
    assert len(fs) == 2
    assert all(len(f) == 4 for f in fs)


def test_k4_has_four_triangular_faces():
    g = generate("complete", k=4)
    rot = _embed_ok(g)
    fs = faces(g, rot)
    assert len(fs) == 4
    assert all(len(f) == 3 for f in fs)


def test_grid_face_count_matches_euler():
    g = generate("grid", w=3, h=3)
    rot = _embed_ok(g)
    fs = faces(g, rot)
    assert len(fs) == 5  # four unit squares plus the outer face
    assert g.n - g.m + len(fs) == 2


def test_every_directed_edge_on_exactly_one_face():
    g = generate("random_maximal_planar", n=24, seed=5)
    rot = _embed_ok(g)
    fs = faces(g, rot)
    darts = [d for f in fs for d in f]
    assert len(darts) == 2 * g.m
    assert len(set(darts)) == 2 * g.m


def test_validate_accepts_honest_embeddings():
    corpus = [
        generate("grid", w=4, h=3),
        generate("wheel", n=6),
        generate("tree", n=30, seed=2),
        generate("random_maximal_planar", n=40, seed=9),
    ]
    for g in corpus:
        rot = _embed_ok(g)
        assert validate_rotation(g, rot)
        assert sum(len(f) for f in faces(g, rot)) == 2 * g.m


def test_validate_rejects_tampered_rotation():
    g = generate("grid", w=3, h=3)
    rot = _embed_ok(g)
    center = 5  # the degree-4 node of the 3x3 grid
    ring = list(rot.rotation[center])
    assert len(ring) == 4
    ring[0], ring[1] = ring[1], ring[0]
    bad = canonical_rotation({**rot.rotation, center: ring})
    assert not validate_rotation(g, bad)


def test_validate_rejects_non_neighbor_entry():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    rot = _embed_ok(g)
    bad = RotationSystem({**rot.rotation, 1: (2, 99)})
    assert not validate_rotation(g, bad)
    with pytest.raises(StructuralError):
        faces(g, bad)


def test_single_node_and_single_edge():
    lone = build_graph([], nodes=[7])
    assert validate_rotation(lone, RotationSystem({7: ()}))
    k2 = build_graph([(1, 2)])
    rot = _embed_ok(k2)
    assert validate_rotation(k2, rot)
    assert len(faces(k2, rot)) == 1


def test_embed_is_deterministic():
    g = generate("random_maximal_planar", n=30, seed=4)
    assert planar_embed(g) == planar_embed(g)


def test_disconnected_input_rejected():
    g = build_graph([(1, 2), (3, 4)])
    with pytest.raises(StructuralError):
        planar_embed(g)


def _contracted_minor(w: NonPlanarWitness) -> Graph:
    edges = [(p[0], p[-1]) for p in w.paths]
    return build_graph(edges)


def _check_witness_shape(w: NonPlanarWitness) -> None:
    interiors: list[int] = []
    for p in w.paths:
        assert p[0] in w.branch_nodes and p[-1] in w.branch_nodes
        interiors.extend(p[1:-1])
    assert len(interiors) == len(set(interiors))  # internally disjoint
    assert not set(interiors) & set(w.branch_nodes)
    m = _contracted_minor(w)
    if w.kind == "K5-subdivision":
        assert m.n == 5 and m.m == 10
        assert all(m.degree(v) == 4 for v in m.nodes())
    else:
        assert m.n == 6 and m.m == 9
        assert all(m.degree(v) == 3 for v in m.nodes())
        # bipartite: 2-color by BFS and check every edge crosses
        color = {m.nodes()[0]: 0}
        stack = [m.nodes()[0]]
        while stack:
            u = stack.pop()
            for v in m.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
        assert all(color[u] != color[v] for u, v in m.edges())


def _path_into_k5(n: int = 3000) -> Graph:
    """A path on 1..n whose last five nodes also form a K5 (m = n + 5)."""
    path = [(v, v + 1) for v in range(1, n)]
    k5 = [(a, b) for a in range(n - 4, n + 1) for b in range(a + 1, n + 1)]
    return build_graph(path + k5)


def test_witness_contracts_to_forbidden_graph():
    for g in (
        generate("complete", k=5),
        generate("complete", k=6),
        generate("complete_bipartite", p=3, q=3),
        generate("petersen"),
        _path_into_k5(),
    ):
        w = planar_embed(g)
        assert isinstance(w, NonPlanarWitness)
        _check_witness_shape(w)


def _random_connected_graphs():
    """The connected ones of 60 random graphs on 4..12 nodes."""
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(4, 12)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        m = rng.randint(n - 1, min(len(pairs), 3 * n - 4))
        g = build_graph(rng.sample(pairs, m), nodes=range(1, n + 1))
        if g.connected:
            yield g


def test_embed_verdict_matches_minor_oracle():
    for g in _random_connected_graphs():
        result = planar_embed(g)
        planar_by_minors = not has_clique_minor(g, 5) and not has_biclique_minor(g, 3, 3)
        assert isinstance(result, RotationSystem) == planar_by_minors
        if isinstance(result, RotationSystem):
            assert validate_rotation(g, result)
        else:
            _check_witness_shape(w := result)


def test_verdict_without_counterexample_matches_the_full_embed():
    corpus = [
        *_random_connected_graphs(),
        generate("complete", k=5),
        generate("complete", k=6),
        generate("complete_bipartite", p=3, q=3),
        generate("petersen"),
        generate("grid", w=4, h=4),
        generate("random_maximal_planar", n=30, seed=1),
        generate("random_maximal_planar", n=50, seed=2),
    ]
    kinds = set()
    for g in corpus:
        full = planar_embed(g)
        bare = planar_embed(g, counterexample=False)
        kinds.add(type(full))
        if isinstance(full, NonPlanarWitness):
            assert bare is None
        else:
            assert isinstance(full, RotationSystem) and bare == full
    assert kinds == {NonPlanarWitness, RotationSystem}


def _faces_by_rescanning(g: Graph, rot: RotationSystem) -> list[tuple[tuple[int, int], ...]]:
    """Reference tracer: start each face at the least directed edge left and
    find each step's predecessor by searching the ring.  Quadratic."""
    remaining = {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}
    out = []
    while remaining:
        start = min(remaining)
        face = []
        cur = start
        while True:
            face.append(cur)
            remaining.discard(cur)
            u, v = cur
            ring = rot.rotation[v]
            cur = (v, ring[(ring.index(u) - 1) % len(ring)])
            if cur == start:
                break
        out.append(tuple(face))
    return out


def test_faces_match_the_rescanning_tracer():
    rng = random.Random(31)
    corpus = [generate("grid", w=7, h=5), generate("complete", k=4)]
    corpus += [
        generate("random_maximal_planar", n=n, seed=seed)
        for n in (4, 9, 40, 120, 300)
        for seed in (0, 1, 2)
    ]
    for g in corpus:
        rot = _embed_ok(g)
        assert faces(g, rot) == _faces_by_rescanning(g, rot)
        # Scrambled rings are still neighbor permutations, mostly not planar.
        scrambled = canonical_rotation(
            {v: rng.sample(ring, len(ring)) for v, ring in rot.rotation.items()}
        )
        assert faces(g, scrambled) == _faces_by_rescanning(g, scrambled)
        assert validate_rotation(g, scrambled) == (
            g.n - g.m + len(_faces_by_rescanning(g, scrambled)) == 2
        )


def _euler_verdict(g: Graph, rot: RotationSystem) -> bool:
    """validate_rotation's answer, from set comparisons, the rescanning
    tracer and Euler's formula; a ring that is no permutation is False."""
    if set(rot.rotation) != set(g.adj):
        return False
    for v, nb in g.adj.items():
        ring = rot.rotation[v]
        if len(ring) != len(nb) or set(ring) != set(nb):
            return False
    if g.m == 0:
        return g.n == 1
    return g.connected and g.n - g.m + len(_faces_by_rescanning(g, rot)) == 2


def test_validate_rotation_counts_the_faces_it_lists():
    # validate_rotation counts faces in no fixed order; faces() lists them
    # in order.  Both must give Euler's verdict on honest, scrambled and
    # broken rotations alike.
    rng = random.Random(7)
    corpus = [
        build_graph([(1, 2)]),
        generate("grid", w=5, h=4),
        generate("wheel", n=7),
        generate("tree", n=25, seed=1),
        generate("complete", k=4),
    ]
    corpus += [generate("random_maximal_planar", n=n, seed=s) for n in (6, 28, 200) for s in (0, 1)]
    verdicts = set()
    for g in corpus:
        rot = _embed_ok(g)
        cases = [rot]
        cases += [
            canonical_rotation({v: rng.sample(ring, len(ring)) for v, ring in rot.rotation.items()})
            for _ in range(4)
        ]
        v = max(g.adj, key=lambda u: len(g.adj[u]))  # degree 2 or more, except on K2
        ring = list(rot.rotation[v])
        cases += [
            RotationSystem({**rot.rotation, v: tuple(ring + ring[:1])}),  # a neighbor twice
            RotationSystem({**rot.rotation, v: tuple(ring[1:])}),  # a neighbor missing
            RotationSystem({**rot.rotation, v: tuple(ring[:1] * len(ring))}),  # one neighbor, repeated
            RotationSystem({u: r for u, r in rot.rotation.items() if u != v}),  # a node missing
            RotationSystem({**rot.rotation, max(g.adj) + 1: ()}),  # an extra node
        ]
        for case in cases:
            want = _euler_verdict(g, case)
            verdicts.add(want)
            assert validate_rotation(g, case) is want
            if want:
                assert g.n - g.m + len(faces(g, case)) == 2
        # rings holding entries that are not ints, or cannot be sorted
        for odd in ("x", None, 2.5, (1,), [1]):
            bad = RotationSystem({**rot.rotation, v: tuple(ring[1:]) + (odd,)})
            assert validate_rotation(g, bad) is False
    assert verdicts == {True, False}


def test_validate_rotation_on_the_smallest_and_disconnected_graphs():
    assert validate_rotation(build_graph([], nodes=[3]), RotationSystem({3: ()}))
    assert not validate_rotation(build_graph([], nodes=[3]), RotationSystem({3: (3,)}))
    assert not validate_rotation(build_graph([], nodes=[3, 4]), RotationSystem({3: (), 4: ()}))
    k2 = build_graph([(1, 2)])
    assert validate_rotation(k2, RotationSystem({1: (2,), 2: (1,)}))
    assert not validate_rotation(k2, RotationSystem({1: (2,), 2: ()}))
    assert not validate_rotation(k2, RotationSystem({1: (2,), 2: (1,), 3: ()}))
    # two triangles: every ring a permutation, but no connected embedding
    two = build_graph([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    rot = RotationSystem({v: nb for v, nb in two.adj.items()})
    assert not two.connected
    assert validate_rotation(two, rot) is _euler_verdict(two, rot) is False
    assert len(faces(two, rot)) == 4


def _reference_embed(g: Graph) -> RotationSystem | None:
    """networkx's left-right test: its clockwise rings, reversed and made canonical."""
    ng = nx.Graph()
    ng.add_nodes_from(g.nodes())
    ng.add_edges_from(g.edges())
    planar, embedding = nx.check_planarity(ng)
    if not planar:
        return None
    return canonical_rotation({v: ring[::-1] for v, ring in embedding.get_data().items()})


def _reference_corpus():
    """Grids, random maximal planar graphs, trees, random planar subgraphs of
    the maximal ones, and random G(n, p) graphs (many of them non-planar)."""
    for w in range(1, 12):
        for h in range(1, 12):
            if w * h > 1:
                yield generate("grid", w=w, h=h)
    for s in range(30):
        yield generate("random_maximal_planar", n=4 + 7 * s, seed=s)
        yield generate("tree", n=3 + 5 * s, seed=s)
    rng = random.Random(41)
    for s in range(200):
        g = generate("random_maximal_planar", n=rng.randint(5, 60), seed=100 + s)
        sub = build_graph([e for e in g.edges() if rng.random() < 0.7], nodes=g.nodes())
        if sub.connected:
            yield sub
    for _ in range(300):
        n, p = rng.randint(4, 30), rng.uniform(0.05, 0.5)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = build_graph([e for e in pairs if rng.random() < p], nodes=range(1, n + 1))
        if g.connected:
            yield g


def test_embed_gives_the_reference_rotation_and_verdict():
    planar = total = 0
    for g in _reference_corpus():
        ref = _reference_embed(g)
        assert planar_embed(g, counterexample=False) == ref
        total += 1
        planar += ref is not None
    assert total > 500 and 300 < planar < total


def test_embed_is_iterative_on_a_deep_dfs():
    """No recursion that grows with n: a 5000-node path and the path into
    a K5 embed or give their witness under a recursion limit a few dozen
    frames above the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        rot = planar_embed(build_graph([(v, v + 1) for v in range(1, 5000)]))
        witness = planar_embed(_path_into_k5(5000))
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(rot, RotationSystem) and rot.order_at(2) == (1, 3)
    assert isinstance(witness, NonPlanarWitness)
    assert witness.branch_nodes == tuple(range(4996, 5001))
