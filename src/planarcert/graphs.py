"""Immutable simple graphs: construction, generators, degeneracy, contraction.

Node identifiers are positive integers, unique within a graph and allowed to
come from a range polynomial in the node count (so ids need not be 1..n).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParameterError, StructuralError

NodeId = int
Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an undirected edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


# --- graph type -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with a sorted adjacency map.

    ``adj`` maps every node to the sorted tuple of its neighbors; ``connected``
    records whether the construction-time connectivity check passed.
    """

    adj: dict[int, tuple[int, ...]]
    connected: bool

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.adj.values()) // 2

    def nodes(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> list[Edge]:
        return [(u, v) for u in sorted(self.adj) for v in self.adj[u] if u < v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_node(self, v: int) -> bool:
        return v in self.adj

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.adj.get(u)
        return nb is not None and v in nb

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.n}, m={self.m}, connected={self.connected})"


def _check_id(v: object) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise StructuralError(f"node id must be an int, got {v!r}")
    if v <= 0:
        raise StructuralError(f"node id must be positive, got {v}")
    return v


def build_graph(edges: Iterable[tuple[int, int]], nodes: Iterable[int] = ()) -> Graph:
    """Build a Graph from an edge list (plus optional isolated nodes).

    Duplicate edges are collapsed, orientation is ignored, and self-loops are
    dropped. The connectivity flag is computed here once.
    """
    adj_sets: dict[int, set[int]] = {}
    for v in nodes:
        adj_sets.setdefault(_check_id(v), set())
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise StructuralError(f"edge must be a pair, got {pair!r}") from None
        u, v = _check_id(u), _check_id(v)
        if u == v:
            continue
        adj_sets.setdefault(u, set()).add(v)
        adj_sets.setdefault(v, set()).add(u)
    adj = {u: tuple(sorted(nbs)) for u, nbs in adj_sets.items()}
    return Graph(adj=adj, connected=_is_connected(adj))


def _is_connected(adj: dict[int, tuple[int, ...]]) -> bool:
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


# --- generators -----------------------------------------------------------


def _gen_grid(w: int, h: int) -> Graph:
    if w < 1 or h < 1:
        raise ParameterError("grid dimensions must be >= 1")
    node = lambda r, c: r * w + c + 1
    edges = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < h:
                edges.append((node(r, c), node(r + 1, c)))
    return build_graph(edges, nodes=[node(r, c) for r in range(h) for c in range(w)])


def _gen_wheel(n: int) -> Graph:
    # n counts all nodes: one hub plus an (n-1)-cycle.
    if n < 4:
        raise ParameterError("wheel needs at least 4 nodes")
    hub = 1
    rim = list(range(2, n + 1))
    edges = [(hub, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return build_graph(edges)


def _gen_tree(n: int, seed: int) -> Graph:
    if n < 1:
        raise ParameterError("tree needs at least 1 node")
    if n == 1:
        return build_graph([], nodes=[1])
    if n == 2:
        return build_graph([(1, 2)])
    rng = random.Random(seed)
    prufer = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(edges)


def _triangulate(n: int, seed: int) -> tuple[Graph, dict[Edge, int]]:
    """Random triangulation on n >= 4 nodes, with its oriented faces.

    Vertices are stacked into faces, then diagonals are flipped.  The faces
    are kept as one oriented map, ``apex[(u, v)] = w`` iff ``(u, v, w)`` is
    a counterclockwise face, which makes both steps O(1).
    """
    rng = random.Random(seed)
    apex: dict[Edge, int] = {}

    def add_face(a: int, b: int, c: int) -> None:
        apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b

    # K4: node 4 inside the triangle 1, 2, 3
    for face in ((1, 2, 4), (2, 3, 4), (3, 1, 4), (1, 3, 2)):
        add_face(*face)
    adj = {a: {b for b in range(1, 5) if b != a} for a in range(1, 5)}
    faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    for w in range(5, n + 1):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        # split face (a,b,c) into three around w
        faces[idx] = (a, b, w)
        faces.append((a, c, w))
        faces.append((b, c, w))
        if apex[(a, b)] != c:
            a, b = b, a  # now (a, b, c) is counterclockwise
        add_face(a, b, w)
        add_face(b, c, w)
        add_face(c, a, w)
        for u in (a, b, c):
            adj[u].add(w)
        adj[w] = {a, b, c}

    # Diagonal flips for variety; each flip preserves the triangulation.
    edge_list = sorted(e for e in apex if e[0] < e[1])
    for _ in range(3 * n):
        u, v = edge_list[rng.randrange(len(edge_list))]
        if (u, v) not in apex:
            continue
        x, y = apex[(u, v)], apex[(v, u)]
        a, b = sorted((x, y))
        if b in adj[a]:
            continue
        # flip: replace edge {u,v} by {x,y}
        del apex[(u, v)], apex[(v, u)]
        adj[u].discard(v)
        adj[v].discard(u)
        adj[a].add(b)
        adj[b].add(a)
        add_face(x, u, y)
        add_face(y, v, x)
        edge_list.append((a, b))

    return build_graph([(u, v) for u in adj for v in adj[u] if u < v]), apex


def _gen_random_maximal_planar(n: int, seed: int) -> Graph:
    """Random triangulation: stack vertices into faces, then flip diagonals."""
    if n < 3:
        raise ParameterError("maximal planar generator needs n >= 3")
    if n == 3:
        return build_graph([(1, 2), (2, 3), (1, 3)])
    return _triangulate(n, seed)[0]


def _embedded_random_maximal_planar(
    n: int, seed: int
) -> tuple[Graph, dict[int, list[int]]]:
    """``generate("random_maximal_planar", n=n, seed=seed)`` for n >= 4, with
    the counterclockwise ring of every node in the generator's own embedding.

    The ring at v follows the oriented faces: the neighbor after u is the
    apex of the face on the left of (v, u).
    """
    g, apex = _triangulate(n, seed)
    rings: dict[int, list[int]] = {}
    for v, nbrs in g.adj.items():
        ring = rings[v] = [nbrs[0]]
        while (u := apex[(v, ring[-1])]) != nbrs[0]:
            ring.append(u)
    return g, rings


def _gen_complete(k: int) -> Graph:
    if k < 1:
        raise ParameterError("complete graph needs k >= 1")
    return build_graph(
        [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)],
        nodes=range(1, k + 1),
    )


def _gen_complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ParameterError("complete bipartite graph needs p, q >= 1")
    return build_graph([(a, p + b) for a in range(1, p + 1) for b in range(1, q + 1)])


def _gen_petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    # inner 5-cycle with step 2: 6-8-10-7-9-6
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return build_graph(outer + spokes + inner)


def subdivide(g: Graph, steps: int) -> Graph:
    """Replace every edge by a path with ``steps`` fresh interior nodes."""
    if steps < 0:
        raise ParameterError("steps must be >= 0")
    if steps == 0:
        return g
    next_id = max(g.adj) + 1
    edges: list[Edge] = []
    for u, v in g.edges():
        chain = [u] + list(range(next_id, next_id + steps)) + [v]
        next_id += steps
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return build_graph(edges, nodes=g.nodes())


_RANDOM_KINDS = {"tree", "random_maximal_planar"}


def generate(kind: str, **params) -> Graph:
    """Dispatch to a named instance generator.

    Kinds: grid(w,h), wheel(n), tree(n,seed), random_maximal_planar(n,seed),
    complete(k), complete_bipartite(p,q), petersen.  ``subdivide`` takes a
    graph, so it is a function of its own rather than a kind.
    Randomized kinds require an explicit seed so outputs stay reproducible.
    """
    if kind in _RANDOM_KINDS and "seed" not in params:
        raise ParameterError(f"generator '{kind}' requires a seed")
    try:
        if kind == "grid":
            return _gen_grid(int(params["w"]), int(params["h"]))
        if kind == "wheel":
            return _gen_wheel(int(params["n"]))
        if kind == "tree":
            return _gen_tree(int(params["n"]), int(params["seed"]))
        if kind == "random_maximal_planar":
            return _gen_random_maximal_planar(int(params["n"]), int(params["seed"]))
        if kind == "complete":
            return _gen_complete(int(params["k"]))
        if kind == "complete_bipartite":
            return _gen_complete_bipartite(int(params["p"]), int(params["q"]))
        if kind == "petersen":
            return _gen_petersen()
    except KeyError as exc:
        raise ParameterError(f"generator '{kind}' missing parameter {exc}") from None
    raise ParameterError(f"unknown generator kind '{kind}'")


# --- degeneracy -----------------------------------------------------------


@dataclass(frozen=True)
class DegeneracyOrder:
    """Removal order of minimum-degree peeling.

    Every node has at most as many neighbors later in ``order`` as the
    graph's degeneracy.
    """

    order: tuple[int, ...]

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Peel minimum-degree nodes (ties to the smallest id) and record the order."""
    deg = {v: len(g.adj[v]) for v in g.adj}
    heap: list[tuple[int, int]] = [(d, v) for v, d in deg.items()]
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
    return DegeneracyOrder(order=tuple(order))


# --- contraction ----------------------------------------------------------


class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.parent = {v: v for v in items}

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the smaller id as the class representative
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def contract_edges(g: Graph, contracted: Iterable[tuple[int, int]]) -> Graph:
    """Contract a set of edges; each merged class keeps its smallest id.

    Loops and parallel edges created by the contraction are removed.
    """
    uf = _UnionFind(g.adj)
    for u, v in contracted:
        if not g.has_edge(u, v):
            raise ParameterError(f"edge {(u, v)} not in graph")
        uf.union(u, v)
    reps = {uf.find(v) for v in g.adj}
    edges = set()
    for u, v in g.edges():
        ru, rv = uf.find(u), uf.find(v)
        if ru != rv:
            edges.add(norm_edge(ru, rv))
    return build_graph(edges, nodes=reps)


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    """Rename nodes through an injective mapping."""
    if len(set(mapping.values())) != len(mapping):
        raise ParameterError("relabel mapping must be injective")
    return build_graph(
        [(mapping[u], mapping[v]) for u, v in g.edges()],
        nodes=[mapping[v] for v in g.adj],
    )

