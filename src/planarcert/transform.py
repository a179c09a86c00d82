"""Reduction of an embedded planar graph to a virtual path graph.

A depth-first spanning tree is grown so that every node scans its neighbors
in counterclockwise rotation order, starting just after the edge it was
entered through.  Unrolling the tree's Euler tour yields a path on ``2n - 1``
virtual copies of the original nodes; every non-tree edge then reappears as a
chord between two uniquely determined copies: at each endpoint, the copy
that departs along the nearest tree edge counterclockwise in the rotation.
One backward pass over each rotation ring reads all of a node's chord ends
off the tour, so the unfolding is linear in the edge count.  For a planar
rotation the resulting graph is path-outerplanar in the identity order, and
contracting consecutive copies of the same node recovers the input graph
exactly.  Those two facts are what the certificate layers build on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import RotationSystem, _ring_matches
from .errors import ParameterError, StructuralError
from .graphs import Edge, Graph, build_graph, contract_edges, norm_edge, relabel


@dataclass(frozen=True)
class RootedTree:
    """Spanning tree with embedding-aligned child order at every node.

    ``parent`` maps each node to its tree parent (``None`` for the root);
    ``children_order`` lists each node's children in the order the DFS
    discovered them, which by construction is the counterclockwise rotation
    order starting after the parent edge (after the virtual anchor position
    for the root).
    """

    root: int
    parent: dict[int, int | None]
    children_order: dict[int, tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.parent)


@dataclass(frozen=True)
class DfsMapping:
    """Euler tour of a rooted tree, one entry per visit.

    ``f`` has length ``2n + 1``: real tour positions are ``1..2n-1`` and hold
    node ids, while positions ``0`` and ``2n`` hold ``None`` — a sentinel for
    the virtual anchor that opens and closes the tour at the root.
    ``copies`` maps each node to the sorted tuple of its tour positions; a
    node appears once per incident tree edge, plus once more for the root
    (whose extra visit pairs with the anchor).
    """

    f: tuple[int | None, ...]
    copies: dict[int, tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.f) // 2

    @property
    def n_virtual(self) -> int:
        return len(self.f) - 2


@dataclass(frozen=True)
class InducedGraph:
    """Virtual path graph of a tour: a path on ``1..n_virtual`` plus chords.

    ``cotree_map`` sends every non-tree edge ``{u, v}`` of the original graph
    to the virtual chord ``{i, j}`` joining the designated copies of ``u``
    and ``v``.
    """

    n_virtual: int
    cotree_map: dict[Edge, Edge]

    def path_edges(self) -> list[Edge]:
        return [(i, i + 1) for i in range(1, self.n_virtual)]

    def virtual_graph(self) -> Graph:
        """The path plus the chords, built as constructed: the ids are
        1..n_virtual, the path spans them, and no chord joins two copies
        next to each other on it, since those are the ends of a tree edge."""
        nv = self.n_virtual
        nbrs = {k: [k - 1, k + 1] for k in range(1, nv + 1)}
        nbrs[1].remove(0)
        nbrs[nv].remove(nv + 1)
        for i, j in self.cotree_map.values():
            nbrs[i].append(j)
            nbrs[j].append(i)
        return Graph({k: tuple(sorted(nb)) for k, nb in nbrs.items()}, connected=True)


def _checked_ring(g: Graph, rot: RotationSystem, v: int) -> tuple[int, ...]:
    """The rotation at ``v``, which must order exactly ``v``'s neighbors."""
    ring = rot.rotation.get(v, ())
    if not _ring_matches(ring, g.adj[v]):
        raise StructuralError(f"rotation at {v} does not match its neighbors")
    return ring


def _scan_order(ring: tuple[int, ...], parent: int | None) -> tuple[int, ...]:
    """A node's ring in ccw order starting after the entry edge.

    For the root the virtual anchor sits just before the canonical first
    rotation entry, so the scan is the stored ring itself.
    """
    if parent is None:
        return ring
    idx = ring.index(parent)
    return ring[idx + 1 :] + ring[:idx]


def spanning_tree_dfs(g: Graph, rot: RotationSystem, root: int) -> RootedTree:
    """Depth-first spanning tree following the rotation at every node.

    A neighbor becomes a child only if it is still unvisited when the scan
    reaches it, so the tree is exactly the one traced by a walker that keeps
    the embedding on its left.
    """
    if not g.has_node(root):
        raise ParameterError(f"root {root} is not a node of the graph")
    if not g.connected:
        raise ParameterError("spanning tree requires a connected graph")
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {v: [] for v in g.nodes()}
    stack = [(root, iter(_scan_order(_checked_ring(g, rot, root), None)))]
    while stack:
        v, scan = stack[-1]
        w = next(scan, None)
        if w is None:
            stack.pop()
            continue
        if w in parent:
            continue
        parent[w] = v
        children[v].append(w)
        stack.append((w, iter(_scan_order(_checked_ring(g, rot, w), v))))
    if len(parent) != g.n:
        raise StructuralError("rotation walk did not reach every node")
    return RootedTree(
        root=root,
        parent=parent,
        children_order={v: tuple(ch) for v, ch in children.items()},
    )


def dfs_mapping(t: RootedTree) -> DfsMapping:
    """Euler tour of the tree: down one entry per child, back up after each.

    Position 1 is the root; every tree edge contributes exactly two
    consecutive pairs (once per direction), giving ``2n - 1`` real entries.
    """
    tour: list[int | None] = [None, t.root]
    copies: dict[int, list[int]] = {t.root: [1]}
    stack = [(t.root, iter(t.children_order[t.root]))]
    while stack:
        v, pending = stack[-1]
        c = next(pending, None)
        if c is None:
            stack.pop()
            if stack:
                up = stack[-1][0]
                tour.append(up)
                copies[up].append(len(tour) - 1)
            continue
        tour.append(c)
        copies.setdefault(c, []).append(len(tour) - 1)
        stack.append((c, iter(t.children_order[c])))
    tour.append(None)
    if len(tour) != 2 * t.n + 1:
        raise StructuralError("tour length mismatch; tree is not spanning")
    return DfsMapping(
        f=tuple(tour),
        copies={v: tuple(ix) for v, ix in copies.items()},
    )


def induce_graph(
    g: Graph, rot: RotationSystem, t: RootedTree, fm: DfsMapping
) -> InducedGraph:
    """Build the virtual path graph: tour path plus one chord per non-tree edge.

    The copy of ``u`` that hosts the chord for a non-tree edge ``{u, v}`` is
    the one that departs along the first tree edge met walking
    counterclockwise in the rotation at ``u`` from ``v``.  At the root the
    virtual anchor, owned by the last root copy, counts as a tree edge and
    sits between the last and first rotation entries.  So one backward pass
    over each node's scan order finds all its chord ends: it starts at the
    last copy, which departs toward the parent (or the anchor), and each
    child ``w`` it passes moves it to the copy just before ``w``'s first
    visit, the one that steps down to ``w``.

    ``t`` must be the tree ``spanning_tree_dfs`` grows on ``rot`` and ``fm``
    its tour, as ``dfs_mapping`` builds it.  A ring that does not order
    exactly the node's neighbors, or meets its children in another order
    than the tree visited them, raises StructuralError.  Each chord end is
    then a copy of its own endpoint (the tour steps from ``u`` down to each
    child), so a chord names its edge and no two edges share one.
    """
    if t.n != g.n or fm.n != g.n:
        raise ParameterError("graph, tree, and tour disagree on node count")
    ends: dict[tuple[int, int], int] = {}
    for u in g.nodes():
        parent = t.parent[u]
        kids = t.children_order[u]
        left = len(kids)
        at = fm.copies[u][-1]
        for v in reversed(_scan_order(_checked_ring(g, rot, u), parent)):
            if t.parent.get(v) == u:  # a child
                left -= 1
                if left < 0 or kids[left] != v:
                    raise StructuralError(f"rotation at {u} does not match its tree children")
                at = fm.copies[v][0] - 1
            else:
                ends[(u, v)] = at
        if left:
            raise StructuralError(f"rotation at {u} does not match its tree children")

    cotree_map: dict[Edge, Edge] = {}
    for u, v in g.edges():
        if t.parent[u] == v or t.parent[v] == u:
            continue  # a tree edge
        cotree_map[(u, v)] = norm_edge(ends[(u, v)], ends[(v, u)])
    return InducedGraph(n_virtual=fm.n_virtual, cotree_map=cotree_map)


def contract_check(g: Graph, induced: InducedGraph, fm: DfsMapping) -> bool:
    """Verify that collapsing copies of each node recovers ``g`` exactly.

    The virtual graph is extended with an edge between consecutive copies of
    the same node; contracting those extra edges merges every node's copies
    into one vertex, which is then renamed back to the original id.  Returns
    whether the contracted graph equals ``g``.  A chord whose endpoints do
    not map back to the claimed edge is a malformed input and raises.
    """
    f = fm.f
    tree_pairs = {
        norm_edge(f[i], f[i + 1])  # type: ignore[arg-type]
        for i in range(1, len(f) - 2)
    }
    expected_cotree = {e for e in g.edges() if e not in tree_pairs}
    if set(induced.cotree_map) != expected_cotree:
        raise ParameterError("chord map does not cover the non-tree edges")
    for (u, v), (i, j) in induced.cotree_map.items():
        if {f[i], f[j]} != {u, v}:
            raise ParameterError(
                f"chord {(i, j)} does not land on copies of {(u, v)}"
            )

    repeat_edges: list[Edge] = []
    for ix in fm.copies.values():
        repeat_edges.extend(norm_edge(a, b) for a, b in zip(ix, ix[1:]))
    full = build_graph(
        induced.path_edges() + sorted(induced.cotree_map.values()) + repeat_edges,
        nodes=range(1, induced.n_virtual + 1),
    )
    collapsed = contract_edges(full, repeat_edges)
    back = {ix[0]: v for v, ix in fm.copies.items()}
    return relabel(collapsed, back) == g
