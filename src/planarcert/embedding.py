"""Combinatorial planar embeddings as rotation systems.

A rotation system stores, for every node, the counterclockwise cyclic order
of its neighbors. That is all the prover needs from a drawing: faces are
recovered by the standard next-edge traversal, and Euler's formula
|V| - |E| + #faces = 2 certifies that the rotation system really comes from a
planar drawing of a connected graph.

Embeddings come from an array-based, iterative port of Brandes's left-right
planarity test, with its visiting order fixed so that the rotation is a pure
function of the graph.  Everything downstream talks only to the
`RotationSystem` contract (and the `validate_rotation` check), so rotations
may equally come from a file or from an adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .graphs import Graph, build_graph


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


def _left_right(n: int, edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """Brandes's left-right planarity test on nodes 0..n-1.

    ``edges`` are index pairs; their order fixes each adjacency list, and
    lexicographically sorted pairs give sorted lists.  Returns each node's
    neighbors in counterclockwise order, or None for a non-planar graph.
    The graph may be disconnected: every component is searched from its
    least node.

    The four phases follow Brandes (*The Left-Right Planarity Test*, 2009):
    orientation, testing, sign and embedding, each an explicit-stack DFS.
    Oriented edges are int ids with ``tail`` and ``head``; a conflict pair
    is a list [left.low, left.high, right.low, right.high] with -1 for an
    empty end.  The visiting order is fixed: one root per component in node
    order, adjacency in the given order, and out-edges stably sorted by
    nesting depth.  ``tests/test_embedding.py`` checks the rotation against
    a reference implementation of the same test.
    """
    m = len(edges)
    if n > 2 and m > 3 * n - 6:
        return None
    nbrs: list[list[int]] = [[] for _ in range(n)]
    eids: list[list[int]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        nbrs[a].append(b)
        eids[a].append(e)
        nbrs[b].append(a)
        eids[b].append(e)

    # Orientation: a DFS orients every edge away from the root side and
    # gives each edge its lowpoints and nesting depth.
    height = [-1] * n
    parent = [-1] * n  # the tree edge into a node, -1 at a root
    tail = [-1] * m
    head = [-1] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    depth = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # out-edges, in orientation order
    ind = [0] * n
    roots = []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            nb, ev, ov = nbrs[v], eids[v], out[v]
            i, k = ind[v], len(nb)
            while i < k:
                vw = ev[i]
                t = tail[vw]
                if t < 0:
                    w = nb[i]
                    tail[vw] = v
                    head[vw] = w
                    ov.append(vw)
                    lowpt2[vw] = hv
                    hw = height[w]
                    if hw < 0:  # tree edge: finish w, then come back to vw
                        lowpt[vw] = hv
                        parent[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = hw
                elif t != v:  # oriented from w's side already
                    i += 1
                    continue
                # t == v: back from the subtree under the tree edge vw
                lp, l2 = lowpt[vw], lowpt2[vw]
                depth[vw] = 2 * lp + 1 if l2 < hv else 2 * lp
                if e >= 0:
                    le = lowpt[e]
                    if lp < le:
                        lowpt2[e] = le if le < l2 else l2
                        lowpt[e] = lp
                    elif lp > le:
                        if lp < lowpt2[e]:
                            lowpt2[e] = lp
                    elif l2 < lowpt2[e]:
                        lowpt2[e] = l2
                i += 1
    del nbrs, eids, lowpt2

    # Testing: merge the return edges of each node's out-edges into
    # conflict pairs on one stack; a pair that cannot be split is a
    # non-planarity.
    key = depth.__getitem__
    ordered = [sorted(ov, key=key) if len(ov) > 1 else ov for ov in out]
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = [-1] * m
    bottom: list[list[int] | None] = [None] * m
    S: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        P = [-1, -1, -1, -1]
        lpe = lowpt[e]
        stop = bottom[ei]
        while True:  # merge the return edges of ei into P's right side
            Q = S.pop()
            if Q[0] >= 0 or Q[1] >= 0:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] >= 0 or Q[1] >= 0:
                    return False
            if lowpt[Q[2]] > lpe:
                if P[2] < 0 and P[3] < 0:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align with e's lowest return edge
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stop:
                break
        lpi = lowpt[ei]
        while S:  # merge the earlier siblings' conflicting edges into P's left
            T = S[-1]
            if not (T[1] >= 0 and lowpt[T[1]] > lpi or T[3] >= 0 and lowpt[T[3]] > lpi):
                break
            Q = S.pop()
            if Q[3] >= 0 and lowpt[Q[3]] > lpi:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[3] >= 0 and lowpt[Q[3]] > lpi:
                    return False
            if P[2] >= 0:
                ref[P[2]] = Q[3]
            if Q[2] >= 0:
                P[2] = Q[2]
            if P[0] < 0 and P[1] < 0:
                P[1] = Q[1]
            elif P[0] >= 0:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] >= 0 or P[1] >= 0 or P[2] >= 0 or P[3] >= 0:
            S.append(P)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        while S:  # drop the pairs whose lowest edge returns to u
            T = S[-1]
            if T[0] < 0 and T[1] < 0:
                low = lowpt[T[2]]
            elif T[2] < 0 and T[3] < 0:
                low = lowpt[T[0]]
            else:
                a, b = lowpt[T[0]], lowpt[T[2]]
                low = a if a < b else b
            if low != hu:
                break
            S.pop()
            if T[0] >= 0:
                side[T[0]] = -1
        if S:  # trim the next pair's intervals of edges into u
            P = S[-1]
            h = P[1]
            while h >= 0 and head[h] == u:
                h = ref[h]
            P[1] = h
            if h < 0 and P[0] >= 0:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            h = P[3]
            while h >= 0 and head[h] == u:
                h = ref[h]
            P[3] = h
            if h < 0 and P[2] >= 0:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        if lowpt[e] < hu:  # e takes the side of its highest return edge
            T = S[-1]
            hl, hr = T[1], T[3]
            ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr

    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            resume = v < 0
            if resume:
                v = ~v
            e = parent[v]
            hv = height[v]
            ov = ordered[v]
            i, k = ind[v], len(ov)
            while i < k:
                ei = ov[i]
                if resume:  # back from the subtree under ei
                    resume = False
                else:
                    bottom[ei] = S[-1] if S else None
                    w = head[ei]
                    if parent[w] == ei:
                        ind[v] = i
                        stack.append(~v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei
                    S.append([-1, -1, ei, ei])
                if lowpt[ei] < hv:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            else:  # no break: v is finished
                if e >= 0:
                    remove_back_edges(e)

    # Sign: resolve each edge's side along its chain of references.
    chain: list[int] = []
    for e in range(m):
        f = e
        while ref[f] >= 0:
            chain.append(f)
            f = ref[f]
        s = side[f]
        while chain:
            f = chain.pop()
            s = side[f] = side[f] * s
            ref[f] = -1
        depth[e] *= side[e]

    # Embedding: half-edge 2e leaves tail[e], 2e + 1 leaves head[e].  Each
    # node's out-edges start in nesting order; a DFS then inserts every
    # incoming half-edge beside its reference.  A tree edge's half-edge goes
    # just counterclockwise of its head's leftmost one and becomes leftmost.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    leftmost = [-1] * n
    for v, ov in enumerate(out):
        if len(ov) > 1:
            ov = ordered[v] = sorted(ov, key=key)
        else:
            ordered[v] = ov
        prev = -1
        for e in ov:
            h = 2 * e
            if prev < 0:
                cw[h] = ccw[h] = h
                leftmost[v] = h
            else:
                nxt = cw[prev]
                cw[h], ccw[h] = nxt, prev
                ccw[nxt] = cw[prev] = h
            prev = h
    left_ref = [0] * n
    right_ref = [0] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            ov = ordered[v]
            i, k = ind[v], len(ov)
            while i < k:
                e = ov[i]
                i += 1
                w = head[e]
                h = 2 * e + 1
                if parent[w] == e:  # h becomes w's leftmost half-edge
                    lm = leftmost[w]
                    if lm < 0:
                        cw[h] = ccw[h] = h
                    else:
                        p = ccw[lm]
                        cw[h], ccw[h] = lm, p
                        cw[p] = ccw[lm] = h
                    leftmost[w] = h
                    left_ref[v] = right_ref[v] = 2 * e
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[e] == 1:  # just clockwise of w's right reference
                    r_ = right_ref[w]
                    nxt = cw[r_]
                    cw[h], ccw[h] = nxt, r_
                    ccw[nxt] = cw[r_] = h
                else:  # just counterclockwise of w's left reference
                    l_ = left_ref[w]
                    p = ccw[l_]
                    cw[h], ccw[h] = l_, p
                    cw[p] = ccw[l_] = h
                    if leftmost[w] == l_:
                        leftmost[w] = h
                    left_ref[w] = h
    rings: list[list[int]] = []
    for v in range(n):
        start = leftmost[v]
        ring = []
        if start >= 0:
            h = start
            while True:
                e = h >> 1
                ring.append(tail[e] if h & 1 else head[e])
                h = ccw[h]
                if h == start:
                    break
        rings.append(ring)
    return rings


def _kuratowski_edges(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """An edge-minimal non-planar subset of a non-planar graph's ``edges``.

    Deletion search over batches: drop a whole batch if the edges left stay
    non-planar, otherwise split it; a single edge that cannot go is kept.
    Every kept edge was needed by a superset of what is left, so removing
    any one of them makes the result planar: it is a subdivision of K5 or
    K3,3 (Kuratowski), plus isolated nodes.
    """
    kept: list[tuple[int, int]] = []
    todo = [edges]  # batches still to decide, the next one last
    while todo:
        batch = todo.pop()
        rest = kept + [e for b in todo for e in b]
        if _left_right(n, rest) is None:
            continue
        if len(batch) == 1:
            kept += batch
        else:
            half = len(batch) // 2
            todo += [batch[half:], batch[:half]]
    return kept


def _witness_from_subgraph(adj: dict[int, tuple[int, ...]]) -> NonPlanarWitness:
    """Split a Kuratowski subgraph into branch nodes and subdivision paths."""
    branch = sorted(v for v, nb in adj.items() if len(nb) >= 3)
    max_deg = max(len(adj[v]) for v in branch)
    kind = "K5-subdivision" if max_deg == 4 else "K33-subdivision"
    branch_set = set(branch)
    paths: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for start in branch:
        for first in sorted(adj[start]):
            if (start, first) in used:
                continue
            path = [start, first]
            prev, cur = start, first
            while cur not in branch_set:
                nxt = next(w for w in adj[cur] if w != prev)
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
    subdivision is searched for.  That search reruns the planarity test on
    halving batches of deleted edges, O(k log m) tests for a witness of k
    edges, so callers that read only the verdict skip it.  A planar graph
    gives the same rotation system either way.

    Deterministic for a fixed input graph: nodes and adjacency lists are
    handed to the planarity test in sorted order.
    """
    if not g.connected:
        raise StructuralError("planar_embed requires a connected graph")
    nodes = sorted(g.adj)
    index = {v: i for i, v in enumerate(nodes)}
    adj = g.adj
    edges = [(i, index[w]) for i, v in enumerate(nodes) for w in adj[v] if w > v]
    rings = _left_right(len(nodes), edges)
    if rings is None:
        if not counterexample:
            return None
        kept = _kuratowski_edges(len(nodes), edges)
        return _witness_from_subgraph(build_graph((nodes[a], nodes[b]) for a, b in kept).adj)
    return RotationSystem(
        {v: _canonical_ring([nodes[x] for x in ring]) for v, ring in zip(nodes, rings)}
    )


def _ring_matches(ring, nb: tuple[int, ...]) -> bool:
    """True iff ``ring`` orders exactly the neighbors ``nb``, which are sorted
    as ``Graph.adj`` holds them.  A ring that cannot be sorted does not."""
    try:
        return tuple(sorted(ring)) == nb
    except TypeError:
        return False


def _check_permutations(g: Graph, rot: RotationSystem) -> bool:
    """True iff rot has a ring for exactly g's nodes, each a permutation of
    the node's neighbors."""
    rotation = rot.rotation
    return len(rotation) == len(g.adj) and all(
        v in rotation and _ring_matches(rotation[v], nb) for v, nb in g.adj.items()
    )


def _face_cycles(rot: RotationSystem) -> list[list[tuple[int, int]]]:
    """The faces of a rotation already known to permute every neighborhood,
    each a cycle of directed edges, in no fixed order.

    O(m): ``nxt[(u, v)]`` is the neighbor just before u in the
    counterclockwise order at v, so the face goes on from (u, v) along
    (v, nxt[(u, v)]).  That step permutes the directed edges, one cycle per
    face, so each cycle is popped from the map until it closes.
    """
    nxt: dict[tuple[int, int], int] = {}
    for v, ring in rot.rotation.items():
        for k, u in enumerate(ring):
            nxt[u, v] = ring[k - 1]
    out = []
    while nxt:
        start, w = nxt.popitem()
        face = [start]
        cur = (start[1], w)
        while cur != start:
            face.append(cur)
            cur = (cur[1], nxt.pop(cur))
        out.append(face)
    return out


def faces(g: Graph, rot: RotationSystem) -> list[tuple[tuple[int, int], ...]]:
    """Faces of the embedding as cycles of directed edges.

    Rule: after arriving at v along (u, v), leave along the edge that comes
    just before (v, u) in the counterclockwise order at v. Every directed
    edge lies on exactly one face; the count feeds the Euler test.  Faces
    come in the order of their smallest directed edge, each starting there.
    """
    if not _check_permutations(g, rot):
        raise StructuralError("rotation is not a neighbor permutation of the graph")
    out = []
    for face in _face_cycles(rot):
        k = face.index(min(face))
        out.append(tuple(face[k:] + face[:k]))
    out.sort()
    return out


def validate_rotation(g: Graph, rot: RotationSystem) -> bool:
    """True iff rot permutes every neighborhood and passes the Euler test.

    Any RotationSystem gets True or False: rings of any entries, or of none,
    never raise.
    """
    if not _check_permutations(g, rot):
        return False
    if g.m == 0:
        return g.n == 1  # a single node embeds with one (outer) face
    if not g.connected:
        return False
    return g.n - g.m + len(_face_cycles(rot)) == 2
