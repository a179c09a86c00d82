"""A reference contraction by union-find, for comparing ``contract_edges``.

Each union keeps the smaller id as the class representative, so every class
is named by its least id, the rule ``contract_edges`` states by components.
``reference_contract_edges`` builds its graph the same way, edge by edge, so
the two must agree down to the order of the adjacency map.
"""

from __future__ import annotations

from typing import Iterable

from planarcert.errors import ParameterError
from planarcert.graphs import Graph, build_graph, norm_edge


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


def reference_contract_edges(g: Graph, contracted: Iterable[tuple[int, int]]) -> Graph:
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
