from __future__ import annotations

import hashlib
import heapq
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import ParameterError, StructuralError
from planarcert.graphs import (
    Graph,
    _triangulate,
    build_graph,
    contract_edges,
    degeneracy_order,
    generate,
    relabel,
    subdivide,
)
from reference_contraction import reference_contract_edges


# --- construction ----------------------------------------------------------


def test_build_path3():
    g = build_graph([(1, 2), (2, 3)])
    assert g.n == 3 and g.m == 2
    assert g.connected
    assert g.neighbors(2) == (1, 3)


def test_build_disconnected_flag():
    g = build_graph([(1, 2), (3, 4)])
    assert not g.connected


def test_build_dedup_and_loop_removal():
    g = build_graph([(1, 2), (2, 1), (1, 1)])
    assert g.edges() == [(1, 2)]


def test_build_rejects_bad_ids():
    with pytest.raises(StructuralError):
        build_graph([(0, 1)])
    with pytest.raises(StructuralError):
        build_graph([("a", 1)])
    with pytest.raises(StructuralError):
        build_graph([(-3, 4)])



@pytest.mark.parametrize(
    "edges, nodes, refusal",
    [
        ([(True, 2)], (), "node id must be an int, got True"),
        ([(1, False)], (), "node id must be an int, got False"),
        ([("a", 1)], (), "node id must be an int, got 'a'"),
        ([(1, 2.0)], (), "node id must be an int, got 2.0"),
        ([(0, 1)], (), "node id must be positive, got 0"),
        ([(-1, 2)], (), "node id must be positive, got -1"),
        ([(1, 2), (3, 0)], (), "node id must be positive, got 0"),
        # the first endpoint of a pair is checked first
        ([(-1, "a")], (), "node id must be positive, got -1"),
        ([("a", -1)], (), "node id must be an int, got 'a'"),
        ([(1, 2, 3)], (), "edge must be a pair, got (1, 2, 3)"),
        ([5], (), "edge must be a pair, got 5"),
        ([(1,)], (), "edge must be a pair, got (1,)"),
        ([(1, 2)], [True], "node id must be an int, got True"),
        ([(1, 2)], ["3"], "node id must be an int, got '3'"),
        ([(1, 2)], [0], "node id must be positive, got 0"),
        # the isolated nodes are checked before any edge
        ([(-1, 2)], [-5], "node id must be positive, got -5"),
    ],
)
def test_build_graph_refusals_are_pinned(edges, nodes, refusal):
    with pytest.raises(StructuralError, match=f"^{re.escape(refusal)}$"):
        build_graph(edges, nodes=nodes)


def test_build_graph_takes_int_subclasses_as_their_value():
    class Id(int):
        pass

    g = build_graph([(Id(1), Id(2)), (2, 3)], nodes=[Id(4)])
    assert g.adj == {4: (), 1: (2,), 2: (1, 3), 3: (2,)}
    assert list(g.adj) == [4, 1, 2, 3]

def test_isolated_nodes_allowed():
    g = build_graph([(1, 2)], nodes=[7])
    assert g.has_node(7) and g.degree(7) == 0
    assert not g.connected


@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        min_size=1,
        max_size=30,
    )
)
def test_build_graph_symmetric_and_simple(pairs):
    g = build_graph(pairs)
    for u in g.adj:
        assert u not in g.adj[u]
        for v in g.adj[u]:
            assert u in g.adj[v]
        assert list(g.adj[u]) == sorted(set(g.adj[u]))


# --- generators ------------------------------------------------------------


def test_grid_2x2():
    g = generate("grid", w=2, h=2)
    assert g.n == 4 and g.m == 4
    assert g.connected


def test_grid_counts():
    g = generate("grid", w=5, h=3)
    assert g.n == 15
    assert g.m == 5 * 2 + 3 * 4  # horizontal rows + vertical columns


def test_complete_k5():
    g = generate("complete", k=5)
    assert g.n == 5 and g.m == 10


def test_wheel_structure():
    g = generate("wheel", n=6)
    assert g.n == 6 and g.m == 10
    assert g.degree(1) == 5  # hub
    assert all(g.degree(v) == 3 for v in range(2, 7))


def test_tree_is_tree():
    for seed in (1, 2, 9):
        g = generate("tree", n=40, seed=seed)
        assert g.n == 40 and g.m == 39 and g.connected


def test_two_node_tree_is_one_edge_for_every_seed():
    for seed in range(5):
        assert generate("tree", n=2, seed=seed).adj == {1: (2,), 2: (1,)}


def test_random_maximal_planar_edge_count():
    g = generate("random_maximal_planar", n=10, seed=1)
    assert g.n == 10 and g.m == 24  # 3n - 6
    for n in (4, 7, 30, 64):
        g = generate("random_maximal_planar", n=n, seed=3)
        assert g.m == 3 * n - 6 and g.connected


# sha256 (first 16 hex digits) of repr(generate(...).edges()) at seeds 0, 1, 2,
# computed when the generator still kept each edge's two opposite vertices as
# an unoriented set.  Its oriented face map must draw the same graphs.
_PINNED_TRIANGULATIONS = {
    4: ("c67e52e000632cfc", "c67e52e000632cfc", "c67e52e000632cfc"),
    5: ("b1de164952d569a5", "8373d21c4f8dd3d7", "c40676226c3125cc"),
    6: ("bfa70ed41cfcf841", "1f8885db7ac6a2ca", "4239db8761d14eb4"),
    28: ("0d04c959afcddb02", "73aa4c3eadb29bed", "13194cd3cdc88f5d"),
    100: ("8fbb3f8e7b59107c", "c69167fda3d5b5a9", "778564f2fdaff5dd"),
    1024: ("d5c97eaf9b37ff0b", "49baca8d4cf60ab4", "19189a6f6af23be7"),
}


def test_random_maximal_planar_is_pinned():
    for n, digests in _PINNED_TRIANGULATIONS.items():
        got = tuple(
            hashlib.sha256(
                repr(generate("random_maximal_planar", n=n, seed=seed).edges()).encode()
            ).hexdigest()[:16]
            for seed in (0, 1, 2)
        )
        assert got == digests, n


def test_random_kinds_deterministic():
    a = generate("random_maximal_planar", n=20, seed=5)
    b = generate("random_maximal_planar", n=20, seed=5)
    assert a.adj == b.adj
    assert generate("tree", n=15, seed=2).adj == generate("tree", n=15, seed=2).adj


def test_random_kinds_need_seed():
    with pytest.raises(ParameterError):
        generate("tree", n=5)


def test_petersen():
    g = generate("petersen")
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in g.nodes())


def test_complete_bipartite():
    g = generate("complete_bipartite", p=3, q=3)
    assert g.n == 6 and g.m == 9


def test_subdivided():
    base = generate("complete", k=5)
    g = subdivide(base, 1)
    assert g.n == 5 + 10 and g.m == 20
    assert all(g.degree(v) in (2, 4) for v in g.nodes())


def test_unknown_kind():
    with pytest.raises(ParameterError):
        generate("moebius", n=8)


def test_parameters_a_kind_does_not_take_are_refused():
    with pytest.raises(ParameterError, match="takes"):
        generate("grid", w=2, h=2, typo=5)
    with pytest.raises(ParameterError, match="takes"):
        generate("complete", k=4, seed=1)  # only randomized kinds take a seed
    with pytest.raises(ParameterError, match="takes"):
        generate("petersen", n=10)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("grid", {"w": True, "h": 2}),
        ("complete", {"k": True}),
        ("wheel", {"n": 5.9}),
        ("tree", {"n": 6, "seed": 2.5}),
        ("grid", {"w": "3", "h": 2}),
    ],
)
def test_parameters_that_are_not_integers_are_refused(kind, params):
    with pytest.raises(ParameterError, match="takes integer"):
        generate(kind, **params)


# --- degeneracy ------------------------------------------------------------


def _forward_degrees(g, d) -> dict[int, int]:
    """Each node's neighbors that come later in the order."""
    pos = d.position()
    return {v: sum(1 for w in g.neighbors(v) if pos[w] > pos[v]) for v in g.nodes()}


def _max_forward_degree(g, d) -> int:
    """The graph's degeneracy: the largest forward degree of the order."""
    return max(_forward_degrees(g, d).values(), default=0)


def test_degeneracy_triangle():
    g = generate("complete", k=3)
    d = degeneracy_order(g)
    assert _max_forward_degree(g, d) == 2
    assert sorted(d.order) == [1, 2, 3]


def test_degeneracy_k4():
    g = generate("complete", k=4)
    assert _max_forward_degree(g, degeneracy_order(g)) == 3


def test_degeneracy_planar_bound():
    g = generate("random_maximal_planar", n=50, seed=7)
    d = degeneracy_order(g)
    assert _max_forward_degree(g, d) <= 5


def test_degeneracy_forward_counts_match_order():
    # Each node leaves with the least degree among the nodes still there,
    # ties going to the smallest id.
    g = generate("random_maximal_planar", n=30, seed=11)
    d = degeneracy_order(g)
    pos = d.position()
    forward = _forward_degrees(g, d)
    for i, v in enumerate(d.order):
        left = {w: sum(1 for u in g.neighbors(w) if pos[u] >= i) for w in d.order[i:]}
        assert forward[v] == left[v]
        assert (left[v], v) == min((k, w) for w, k in left.items())


def test_degeneracy_tie_break_smallest_id():
    # C4: all degrees equal, so removal should go 1,2,...
    g = build_graph([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert degeneracy_order(g).order[0] == 1


def _heap_degeneracy_order(g) -> tuple[int, ...]:
    """Reference peel: one binary heap of (degree, id) with lazy deletion."""
    deg = {v: len(g.adj[v]) for v in g.adj}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    order: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue
        removed.add(v)
        order.append(v)
        for w in g.adj[v]:
            if w not in removed:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return tuple(order)


def test_degeneracy_matches_the_heap_peel():
    # The bucket peel breaks ties as the heap does: least degree, then
    # least id, on every family, on ids with gaps, and on graphs where
    # many nodes share a degree (cycles, complete and bipartite graphs,
    # and isolated nodes beside them).
    base = generate("random_maximal_planar", n=60, seed=4)
    graphs = [
        generate("grid", w=1, h=1),
        generate("grid", w=9, h=7),
        generate("grid", w=32, h=32),
        build_graph([(1, k) for k in range(2, 12)]),  # star
        build_graph([(7, k) for k in range(1, 7)]),  # star centred on the largest id
        generate("wheel", n=4),
        generate("wheel", n=17),
        build_graph([(k, k % 40 + 1) for k in range(1, 41)]),  # C40
        generate("complete", k=6),
        generate("complete_bipartite", p=4, q=7),
        generate("petersen"),
        build_graph([(1, 2), (3, 4), (5, 6), (2, 3)], nodes=[9, 10, 11]),
        relabel(base, {v: 3 * v + 7 for v in base.nodes()}),  # ids with gaps
    ]
    graphs += [generate("tree", n=n, seed=s) for n in (1, 2, 3, 50, 300) for s in (0, 1)]
    graphs += [generate("random_maximal_planar", n=n, seed=s) for n in (28, 1024) for s in range(4)]
    for g in graphs:
        assert degeneracy_order(g).order == _heap_degeneracy_order(g), g


# --- contraction -----------------------------------------------------------


def test_contract_path_edge():
    g = build_graph([(1, 2), (2, 3)])
    got = contract_edges(g, [(2, 3)])
    assert got.edges() == [(1, 2)]


def test_contract_triangle_edge():
    g = generate("complete", k=3)
    got = contract_edges(g, [(1, 2)])
    assert got.edges() == [(1, 3)]


def test_contract_c4_to_k2():
    g = build_graph([(1, 2), (2, 3), (3, 4), (1, 4)])
    got = contract_edges(g, [(1, 2), (3, 4)])
    assert got.edges() == [(1, 3)]


@pytest.mark.parametrize(
    "contracted",
    [
        [(3, 4), (2, 3), (1, 2)],  # descending: a chain that find compresses
        [(1, 2), (2, 3), (1, 3), (3, 4)],  # (1, 3) joins two merged ends
        [(4, 3), (3, 2), (2, 1)],  # the larger id first in every edge
    ],
)
def test_contracting_a_cycle_in_any_edge_order_leaves_its_least_id(contracted):
    g = build_graph([(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (4, 5)])
    got = contract_edges(g, contracted)
    assert got.nodes() == [1, 5] and got.edges() == [(1, 5)]


def test_contract_requires_graph_edges():
    g = build_graph([(1, 2), (2, 3)])
    with pytest.raises(ParameterError):
        contract_edges(g, [(1, 3)])


def _bfs_distances(g, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_contract_spanning_tree_collapses_to_point():
    g = generate("random_maximal_planar", n=16, seed=2)
    # any spanning tree: take BFS tree edges
    dist = _bfs_distances(g, 1)
    tree = []
    for v in g.nodes():
        if v == 1:
            continue
        parent = min(w for w in g.neighbors(v) if dist[w] == dist[v] - 1)
        tree.append((parent, v))
    got = contract_edges(g, tree)
    assert got.n == 1 and got.m == 0


def _random_graph(rng: random.Random) -> Graph:
    """A graph on scattered ids, often disconnected, sometimes with isolated nodes."""
    n = rng.randint(1, 14)
    ids = rng.sample(range(1, 4 * n + 1), n)
    p = rng.random()
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < p]
    return build_graph(edges, nodes=ids)


def test_connected_flag_matches_a_breadth_first_walk():
    rng = random.Random(2801)
    flags = set()
    for _ in range(400):
        g = _random_graph(rng)
        start = next(iter(g.adj))
        assert g.connected == (len(_bfs_distances(g, start)) == g.n)
        flags.add(g.connected)
    assert flags == {False, True}
    assert not build_graph([]).connected


def test_contract_edges_matches_the_union_find_reference():
    # Random subsets of the edges, in random order and orientation; the
    # result must equal the reference down to the order of its adjacency.
    rng = random.Random(2802)
    for _ in range(400):
        g = _random_graph(rng)
        edges = g.edges()
        chosen = [
            (v, u) if rng.random() < 0.5 else (u, v)
            for u, v in rng.sample(edges, rng.randint(0, len(edges)))
        ]
        got, want = contract_edges(g, chosen), reference_contract_edges(g, chosen)
        assert list(got.adj.items()) == list(want.adj.items())
        assert got.connected == want.connected


def test_relabel():
    g = build_graph([(1, 2), (2, 3)])
    got = relabel(g, {1: 10, 2: 20, 3: 30})
    assert got.edges() == [(10, 20), (20, 30)]


_FAMILIES = [
    generate("grid", w=4, h=5),
    generate("wheel", n=9),
    generate("tree", n=30, seed=2),
    generate("random_maximal_planar", n=40, seed=5),
    build_graph([(1, 2), (3, 4)], nodes=[5]),  # disconnected, with an isolated node
]


@pytest.mark.parametrize("g", _FAMILIES, ids=["grid", "wheel", "tree", "random-maximal", "disconnected"])
@pytest.mark.parametrize(
    "rename",
    [lambda v: 3 * v + 7, lambda v: 1000 - v],
    ids=["ids-3v+7", "reversed"],
)
def test_relabel_is_what_build_graph_builds(g, rename):
    # relabel maps the adjacency as it stands; build_graph is the oracle
    mapping = {v: rename(v) for v in g.nodes()}
    got = relabel(g, mapping)
    want = build_graph(
        [(mapping[u], mapping[v]) for u, v in g.edges()],
        nodes=[mapping[v] for v in g.nodes()],
    )
    assert got.adj == want.adj
    assert got.connected is want.connected is g.connected


def test_relabel_refuses_bad_ids():
    g = build_graph([(1, 2)])
    with pytest.raises(StructuralError):
        relabel(g, {1: 0, 2: 5})
    with pytest.raises(ParameterError):
        relabel(g, {1: 5, 2: 5})


@pytest.mark.parametrize("n", [4, 5, 12, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangulation_is_what_build_graph_builds(n, seed):
    # the triangulation is built as constructed; build_graph on the edges of
    # its oriented faces, and on those ids relabelled, is the oracle
    g, apex = _triangulate(n, seed)
    want = build_graph(list(apex))
    assert g.adj == want.adj
    assert g.connected is want.connected is True
    assert g.nodes() == list(range(1, n + 1)) and g.m == 3 * n - 6
    mapping = {v: 3 * v + 7 for v in g.nodes()}
    shifted = build_graph([(mapping[u], mapping[v]) for u, v in apex])
    assert relabel(g, mapping).adj == shifted.adj


#: (n, seed) -> digests of ``_triangulate``'s sorted edge list and of its
#: faces, each a tuple starting at its least id, sorted.  The generator draws
#: through ``getrandbits``, so a stream that drifts between Python versions
#: shows here.
_TRIANGULATION_PINS = {
    (4, 0): ("c67e52e000632cfc", "a5b576cd8cd87327"),
    (4, 1): ("c67e52e000632cfc", "a5b576cd8cd87327"),
    (4, 2): ("c67e52e000632cfc", "a5b576cd8cd87327"),
    (5, 0): ("b1de164952d569a5", "a6b64d35f31b8522"),
    (5, 1): ("8373d21c4f8dd3d7", "63cd416bafecd93a"),
    (5, 2): ("c40676226c3125cc", "3e7d2353187f7a74"),
    (28, 0): ("0d04c959afcddb02", "d88777fee110e6d0"),
    (28, 1): ("73aa4c3eadb29bed", "1f56e12d54825d33"),
    (28, 2): ("13194cd3cdc88f5d", "eeb893b957762704"),
    (1024, 0): ("d5c97eaf9b37ff0b", "ba63b6f8d29f148e"),
    (1024, 1): ("49baca8d4cf60ab4", "39bd9f6e96252992"),
    (1024, 2): ("19189a6f6af23be7", "7d67ac24997339e3"),
}


def _face_triples(apex):
    out = set()
    for (u, v), w in apex.items():
        f = (u, v, w)
        k = f.index(min(f))
        out.add(f[k:] + f[:k])
    return sorted(out)


@pytest.mark.parametrize("n, seed", sorted(_TRIANGULATION_PINS))
def test_triangulation_is_pinned(n, seed):
    g, apex = _triangulate(n, seed)
    digest = lambda obj: hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
    assert (digest(g.edges()), digest(_face_triples(apex))) == _TRIANGULATION_PINS[n, seed]
    assert len(_face_triples(apex)) == 2 * n - 4


@settings(max_examples=40)
@given(st.integers(3, 9), st.integers(0, 2))
def test_subdivide_counts(k, steps):
    base = generate("complete", k=k)
    g = subdivide(base, steps)
    assert g.n == base.n + steps * base.m
    assert g.m == base.m * (steps + 1)
