"""Combinatorial planar embeddings as rotation systems.

A rotation system stores, for every node, the counterclockwise cyclic order
of its neighbors. That is all the prover needs from a drawing: faces are
recovered by the standard next-edge traversal, and Euler's formula
|V| - |E| + #faces = 2 certifies that the rotation system really comes from a
planar drawing of a connected graph.

Embedding computation is delegated to networkx's left-right planarity test;
everything downstream talks only to the `RotationSystem` contract (and the
`validate_rotation` check), so rotations may equally come from a file or from
an adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import StructuralError
from .graphs import Graph


@dataclass(frozen=True)
class RotationSystem:
    """Counterclockwise neighbor order per node.

    Each cyclic order is stored canonically starting from the smallest
    neighbor id so that equal embeddings compare equal.
    """

    rotation: dict[int, tuple[int, ...]]

    def order_at(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]


@dataclass(frozen=True)
class NonPlanarWitness:
    """A forbidden subdivision found inside a non-planar graph.

    branch_nodes are the high-degree originals (5 of degree 4, or 3+3 of
    degree 3); each entry of paths is one subdivided edge between two branch
    nodes, listed with its endpoints and internally disjoint from the others.
    """

    kind: str  # "K5-subdivision" | "K33-subdivision"
    branch_nodes: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def _canonical_ring(ring: list[int]) -> tuple[int, ...]:
    if not ring:
        return ()
    shift = ring.index(min(ring))
    return tuple(ring[shift:] + ring[:shift])


def canonical_rotation(rotation: dict[int, list[int] | tuple[int, ...]]) -> RotationSystem:
    """Normalize raw cyclic orders into a canonical RotationSystem."""
    return RotationSystem({v: _canonical_ring(list(ring)) for v, ring in rotation.items()})


def _witness_from_subgraph(sub: nx.Graph) -> NonPlanarWitness:
    """Split a Kuratowski subgraph into branch nodes and subdivision paths."""
    branch = sorted(v for v in sub if sub.degree(v) >= 3)
    max_deg = max(sub.degree(v) for v in branch)
    kind = "K5-subdivision" if max_deg == 4 else "K33-subdivision"
    paths: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for start in branch:
        for first in sorted(sub.neighbors(start)):
            if (start, first) in used:
                continue
            path = [start, first]
            prev, cur = start, first
            while cur not in branch:
                nxt = next(w for w in sub.neighbors(cur) if w != prev)
                path.append(nxt)
                prev, cur = cur, nxt
            for a, b in zip(path, path[1:]):
                used.add((a, b))
                used.add((b, a))
            paths.append(tuple(path))
    return NonPlanarWitness(kind=kind, branch_nodes=tuple(branch), paths=tuple(paths))


def planar_embed(
    g: Graph, counterexample: bool = True
) -> RotationSystem | NonPlanarWitness | None:
    """Compute a counterclockwise rotation system, or a forbidden subdivision.

    With ``counterexample=False`` a non-planar graph gives None and no
    subdivision is searched for.  That search deletes one edge at a time and
    reruns the planarity test, O(m) tests in all, so callers that read only
    the verdict skip it.  A planar graph gives the same rotation system
    either way.

    Deterministic for a fixed input graph: nodes and edges are handed to the
    planarity test in sorted order.
    """
    if not g.connected:
        raise StructuralError("planar_embed requires a connected graph")
    ng = nx.Graph()
    ng.add_nodes_from(g.nodes())
    ng.add_edges_from(g.edges())
    is_planar, result = nx.check_planarity(ng, counterexample=counterexample)
    if not is_planar:
        return _witness_from_subgraph(result) if counterexample else None
    data = result.get_data()  # clockwise per networkx; reverse for ccw
    return canonical_rotation({v: list(reversed(ring)) for v, ring in data.items()})


def _check_permutations(g: Graph, rot: RotationSystem) -> bool:
    if set(rot.rotation) != set(g.nodes()):
        return False
    for v in g.nodes():
        ring = rot.rotation[v]
        if len(ring) != len(set(ring)) or set(ring) != set(g.neighbors(v)):
            return False
    return True


def faces(g: Graph, rot: RotationSystem) -> list[tuple[tuple[int, int], ...]]:
    """Faces of the embedding as cycles of directed edges.

    Rule: after arriving at v along (u, v), leave along the edge that comes
    just before (v, u) in the counterclockwise order at v. Every directed
    edge lies on exactly one face; the count feeds the Euler test.  Faces
    come in the order of their smallest directed edge, each starting there.
    """
    if not _check_permutations(g, rot):
        raise StructuralError("rotation is not a neighbor permutation of the graph")
    return _trace_faces(rot)


def _trace_faces(rot: RotationSystem) -> list[tuple[tuple[int, int], ...]]:
    """``faces`` on a rotation already known to permute every neighborhood.

    O(m log m): one map gives each step in O(1), and the directed edges are
    scanned once in sorted order, so the first one not yet on a face starts
    the next face.
    """
    # before[(v, u)]: the neighbor just before u in the counterclockwise
    # order at v.  Its keys are exactly the directed edges.
    before = {}
    for v, ring in rot.rotation.items():
        for k, u in enumerate(ring):
            before[(v, u)] = ring[k - 1]
    seen: set[tuple[int, int]] = set()
    out: list[tuple[tuple[int, int], ...]] = []
    for start in sorted(before):
        if start in seen:
            continue
        face = []
        cur = start
        while True:
            face.append(cur)
            seen.add(cur)
            u, v = cur
            cur = (v, before[(v, u)])
            if cur == start:
                break
        out.append(tuple(face))
    return out


def validate_rotation(g: Graph, rot: RotationSystem) -> bool:
    """True iff rot permutes every neighborhood and passes the Euler test."""
    if not _check_permutations(g, rot):
        return False
    if g.m == 0:
        return g.n == 1  # a single node embeds with one (outer) face
    if not g.connected:
        return False
    return g.n - g.m + len(_trace_faces(rot)) == 2
