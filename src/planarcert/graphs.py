"""Immutable simple graphs: construction, generators, degeneracy, contraction.

Node identifiers are positive integers, unique within a graph and allowed to
come from a range polynomial in the node count (so ids need not be 1..n).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    dropped. The connectivity flag is computed here once: the graph is
    connected iff it has a node and ``_reach`` from the first node covers
    every node.  An id that is an ``int`` above 0 passes one test; any other
    goes to ``_check_id``, which refuses all but a positive int subclass.
    """
    adj_sets: dict[int, set[int]] = {}
    for v in nodes:
        if not (type(v) is int and v > 0):
            _check_id(v)
        adj_sets.setdefault(v, set())
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise StructuralError(f"edge must be a pair, got {pair!r}") from None
        if not (type(u) is int and u > 0 and type(v) is int and v > 0):
            _check_id(u)
            _check_id(v)
        if u == v:
            continue
        adj_sets.setdefault(u, set()).add(v)
        adj_sets.setdefault(v, set()).add(u)
    adj = {u: tuple(sorted(nbs)) for u, nbs in adj_sets.items()}
    connected = bool(adj) and len(_reach(adj, next(iter(adj)))) == len(adj)
    return Graph(adj=adj, connected=connected)


def _reach(adj: Mapping[int, Iterable[int]], start: int) -> set[int]:
    """The nodes reachable from ``start``, by a depth-first walk."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _components(adj: Mapping[int, Iterable[int]]) -> list[set[int]]:
    """The node sets of the components, in the order of their first node."""
    comps: list[set[int]] = []
    seen: set[int] = set()
    for s in adj:
        if s not in seen:
            comp = _reach(adj, s)
            seen |= comp
            comps.append(comp)
    return comps


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

    Each index is drawn as ``random.Random(seed).randrange(size)`` would draw
    it: the rejection loop over ``getrandbits`` that ``randrange`` runs, inlined.
    """
    getrandbits = random.Random(seed).getrandbits
    # K4: node 4 inside the triangle 1, 2, 3; its counterclockwise faces are
    # (1, 2, 4), (2, 3, 4), (3, 1, 4) and (1, 3, 2)
    apex: dict[Edge, int] = {
        (1, 2): 4, (2, 4): 1, (4, 1): 2,
        (2, 3): 4, (3, 4): 2, (4, 2): 3,
        (3, 1): 4, (1, 4): 3, (4, 3): 1,
        (1, 3): 2, (3, 2): 1, (2, 1): 3,
    }
    adj = {a: {b for b in range(1, 5) if b != a} for a in range(1, 5)}
    faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    for w in range(5, n + 1):
        size = len(faces)
        k = size.bit_length()
        idx = getrandbits(k)
        while idx >= size:
            idx = getrandbits(k)
        a, b, c = faces[idx]
        # split face (a,b,c) into three around w
        faces[idx] = (a, b, w)
        faces.append((a, c, w))
        faces.append((b, c, w))
        if apex[(a, b)] != c:
            a, b = b, a  # now (a, b, c) is counterclockwise
        # the counterclockwise faces (a, b, w), (b, c, w) and (c, a, w)
        apex[(a, b)] = apex[(b, c)] = apex[(c, a)] = w
        apex[(b, w)], apex[(w, a)], apex[(c, w)] = a, b, b
        apex[(w, b)], apex[(a, w)], apex[(w, c)] = c, c, a
        adj[a].add(w)
        adj[b].add(w)
        adj[c].add(w)
        adj[w] = {a, b, c}

    # Diagonal flips for variety; each flip preserves the triangulation.
    edge_list = sorted(e for e in apex if e[0] < e[1])
    for _ in range(3 * n):
        size = len(edge_list)
        k = size.bit_length()
        idx = getrandbits(k)
        while idx >= size:
            idx = getrandbits(k)
        u, v = edge_list[idx]
        if (u, v) not in apex:
            continue
        x, y = apex[(u, v)], apex[(v, u)]
        a, b = (x, y) if x < y else (y, x)
        if b in adj[a]:
            continue
        # flip: replace edge {u,v} by {x,y}, with the counterclockwise faces
        # (x, u, y) and (y, v, x)
        del apex[(u, v)], apex[(v, u)]
        adj[u].discard(v)
        adj[v].discard(u)
        adj[a].add(b)
        adj[b].add(a)
        apex[(x, u)], apex[(u, y)], apex[(y, x)] = y, x, u
        apex[(y, v)], apex[(v, x)], apex[(x, y)] = x, y, v
        edge_list.append((a, b))

    # ids 1..n, and stacking and flipping keep the triangulation connected
    return Graph({u: tuple(sorted(nb)) for u, nb in adj.items()}, connected=True), apex


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


#: kind → (generator, the parameters it takes, in call order).
GENERATORS = {
    "grid": (_gen_grid, ("w", "h")),
    "wheel": (_gen_wheel, ("n",)),
    "tree": (_gen_tree, ("n", "seed")),
    "random_maximal_planar": (_gen_random_maximal_planar, ("n", "seed")),
    "complete": (_gen_complete, ("k",)),
    "complete_bipartite": (_gen_complete_bipartite, ("p", "q")),
    "petersen": (_gen_petersen, ()),
}


def generate(kind: str, **params) -> Graph:
    """Build the named kind from exactly the parameters ``GENERATORS`` lists.

    Every parameter must be an ``int``: any other value, a bool included,
    raises ParameterError rather than being converted.  Randomized kinds
    take ``seed`` like any other parameter, so outputs stay reproducible.
    ``subdivide`` takes a graph, so it is a function of its own rather than
    a kind.
    """
    if kind not in GENERATORS:
        raise ParameterError(f"unknown generator kind '{kind}'")
    gen, names = GENERATORS[kind]
    if sorted(params) != sorted(names):
        raise ParameterError(
            f"generator '{kind}' takes ({', '.join(names)}), got ({', '.join(params)})"
        )
    for name in names:
        if type(params[name]) is not int:
            raise ParameterError(f"generator '{kind}' takes integer {name}, got {params[name]!r}")
    return gen(*(params[name] for name in names))


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
    """Peel minimum-degree nodes (ties to the smallest id) and record the order.

    A bucket queue: one min-heap of ids per degree.  A node enters the bucket
    of its new degree each time that degree drops, and an entry whose node
    has since left or dropped further is skipped when popped.  Removing a
    node lowers each neighbor's degree by at most one, so the scan for the
    next least degree restarts one bucket lower.  Each pop takes the least
    id of the least degree, so the order is "least degree, then least id".
    """
    adj = g.adj
    deg = {v: len(nb) for v, nb in adj.items()}
    buckets: list[list[int]] = [[] for _ in range(max(deg.values(), default=0) + 1)]
    for v in sorted(deg):  # ascending, so every bucket is already a heap
        buckets[deg[v]].append(v)
    order: list[int] = []
    d = 0
    for _ in range(len(deg)):
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
                continue
            v = heapq.heappop(bucket)
            if deg[v] == d:
                break
        deg[v] = -1  # removed
        order.append(v)
        for w in adj[v]:
            k = deg[w]
            if k > 0:  # still there: it had v as a neighbor
                deg[w] = k - 1
                heapq.heappush(buckets[k - 1], w)
        if d:
            d -= 1
    return DegeneracyOrder(order=tuple(order))


# --- contraction ----------------------------------------------------------


def contract_edges(g: Graph, contracted: Iterable[tuple[int, int]]) -> Graph:
    """Contract a set of edges; each merged class keeps its smallest id.

    The classes are the components of the contracted edges, and a node that
    no contracted edge touches is a class of its own.  Loops and parallel
    edges created by the contraction are removed.
    """
    merged: dict[int, set[int]] = {}
    for u, v in contracted:
        if not g.has_edge(u, v):
            raise ParameterError(f"edge {(u, v)} not in graph")
        merged.setdefault(u, set()).add(v)
        merged.setdefault(v, set()).add(u)
    rep = {v: v for v in g.adj}
    for comp in _components(merged):
        least = min(comp)
        for v in comp:
            rep[v] = least
    edges = set()
    for u, v in g.edges():
        ru, rv = rep[u], rep[v]
        if ru != rv:
            edges.add(norm_edge(ru, rv))
    return build_graph(edges, nodes={rep[v] for v in g.adj})


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    """Rename nodes through an injective mapping.

    Renaming keeps the edges and connectivity, so the adjacency is mapped
    as it stands and ``connected`` is g's.
    """
    if len(set(mapping.values())) != len(mapping):
        raise ParameterError("relabel mapping must be injective")
    adj = {
        _check_id(mapping[v]): tuple(sorted([mapping[u] for u in nb]))
        for v, nb in g.adj.items()
    }
    return Graph(adj=adj, connected=g.connected)

