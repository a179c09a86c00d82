"""The holder search as it stood before its sizes came from per-node tables.

``_held_edges`` here prices every size from per-edge costs: a normalized key
per far end, the edge's four slot copies added to a fresh set, and a new
list for each trade it tries.  It decides the same holders as
``pls._held_edges``, which prices from one table per node; a test compares
the two on every graph of a corpus.  The three functions are kept as they
were, names included, but for the size rule, which states the layout's
widths and moves with it.
"""

from __future__ import annotations

from bisect import insort
from math import inf

from planarcert.errors import NonPlanarError
from planarcert.graphs import Edge, Graph, degeneracy_order
from planarcert.pls import MAX_EDGE_CERTS, _field_widths


def _held_edges(
    g: Graph, slots: dict[Edge, tuple[int, int, int, int]], root: int
) -> dict[int, list[int]]:
    """Who holds each edge's certificate: every node's far ends, ascending.

    Each edge starts at the endpoint that comes first in the degeneracy
    order.  A tree edge names four tour copies and a chord two, and a copy
    that two held edges share is sent once, so the holders set the packed
    sizes.  Round by round, every node holding three or more whose size is
    the largest, ``top``, in ascending id order, searches breadth-first along
    held edges for a path to a node holding fewer than three, or a cycle
    back to itself, after whose reversal every node on it packs fewer than
    ``top`` bytes.  When all of them find one, the next round aims lower;
    the first search that finds none ends the lowering.  No count rises
    above three: a path ends at a node holding fewer, and a cycle keeps
    every count.  A graph where no node holds three costs one pass.

    A node holding more than ``MAX_EDGE_CERTS`` has size inf, so those
    rounds come first, and an overloaded node searches again until it holds
    three.  Every subgraph of a planar graph has at most 3n - 6 edges, so
    the nodes such a search reaches cannot all hold three or more; a graph
    where they do is not planar, and raises NonPlanarError.

    No node is sized while ``top`` is inf.  The first finite round sizes
    every node then holding three, and after that a node is sized again
    only when a reversal changes its held edges.  A size depends on the
    held edges alone, so sizing late changes no size.  Each size is priced
    from per-edge costs computed once (``_edge_costs``), and a node's size
    after giving up one held edge for another, which the search tries, is
    kept until its held edges change.
    """
    position = degeneracy_order(g).position()
    held: dict[int, list[int]] = {}
    for u in g.nodes():
        pu = position[u]
        held[u] = [v for v in g.adj[u] if pu < position[v]]

    costs = _edge_costs(slots)
    idx_bits = _field_widths(root, g.n)[1]

    def size(x: int, fars: list[int]) -> int:
        return _packed_bytes(x, fars, costs, root, idx_bits, 2 * g.n - 1)

    # per node: its size after it gives up one held edge for another, kept
    # until its held edges change
    swapped: dict[int, dict[tuple[int, int], int]] = {}

    def size_swapped(u: int, out: int, into: int) -> int:
        memo = swapped.setdefault(u, {})
        b = memo.get((out, into))
        if b is None:
            b = memo[out, into] = size(u, [v for v in held[u] if v != out] + [into])
        return b

    def search(x: int, top: float) -> list[int] | None:
        """A path or cycle from ``x`` after which every node on it packs
        fewer than ``top`` bytes, or None; NonPlanarError if ``top`` is inf."""
        finite = top < inf
        parent: dict[int, int | None] = {x: None}
        first: dict[int, int] = {}  # the path's first step from x
        queue = [x]
        for u in queue:  # grows as it goes: breadth-first
            back = parent[u]
            for w in held[u]:
                if w in parent and w != x:
                    continue
                # u would give up w and take back the edge it was reached by
                if u != x and finite and size_swapped(u, w, back) >= top:
                    continue
                if w == x:  # a cycle: x gives up its first step and takes u
                    # a cycle keeps x's count, so it cannot lower an overloaded x
                    if not finite or size_swapped(x, first[u], u) >= top:
                        continue
                    path = [x]
                else:
                    parent[w] = u
                    first[w] = w if u == x else first[u]
                    # w ends the path holding at most three, so only a finite
                    # top needs its size
                    if len(held[w]) >= MAX_EDGE_CERTS or finite and size(w, held[w] + [u]) >= top:
                        queue.append(w)
                        continue
                    path = [w]
                while u is not None:
                    path.append(u)
                    u = parent[u]
                return path[::-1]
        if not finite:
            raise NonPlanarError(
                f"{len(queue)} nodes span more than {MAX_EDGE_CERTS * len(queue)} "
                "edges, so the graph is not planar"
            )
        return None

    def reverse(path: list[int]) -> None:
        for a, b in zip(path, path[1:]):
            held[a].remove(b)
            insort(held[b], a)
        for y in path:
            swapped.pop(y, None)

    # the inf rounds: no path raises a count above three, so one round, in
    # ascending id order (held's order), relieves every overloaded node
    for x in [x for x, fars in held.items() if len(fars) > MAX_EDGE_CERTS]:
        while len(held[x]) > MAX_EDGE_CERTS:
            reverse(search(x, inf))

    sizes = {x: size(x, fars) for x, fars in held.items() if len(fars) == MAX_EDGE_CERTS}
    while sizes:
        top = max(sizes.values())
        for x in sorted(x for x, b in sizes.items() if b == top):
            while sizes.get(x) == top:  # until lowered, on its own path or an earlier one
                path = search(x, top)
                if path is None:
                    return held
                reverse(path)
                for y in path:
                    if len(held[y]) == MAX_EDGE_CERTS:
                        sizes[y] = size(y, held[y])
                    else:
                        sizes.pop(y, None)
    return held


def _edge_costs(
    slots: dict[Edge, tuple[int, int, int, int]]
) -> dict[Edge, tuple[tuple[int, int, int, int], int]]:
    """What each edge adds to its holder's packed size, keyed as ``slots``:
    the tour copies its slots name, and its step bits, two for a tree edge,
    which sends two tour steps, and none for a chord."""
    return {e: (c, 2 if c[0] != c[2] or c[1] != c[3] else 0) for e, c in slots.items()}


def _packed_bytes(
    x: int,
    fars: list[int],
    costs: dict[Edge, tuple[tuple[int, int, int, int], int]],
    root: int,
    idx_bits: int,
    nv: int,
) -> int:
    """``len(pack_certificate(...))`` for ``x`` holding the edges to ``fars``,
    which is not empty, from ``_edge_costs``, the graph's ``idx_bits`` and
    its tour length ``nv``.

    It restates the widths the writer writes, and a test keeps the two equal:
    an index takes the bits of ``nv``, a copy k's ``lo`` and ``hi`` take the
    bits of k and of nv + 1 - k and go once per certificate, a tree edge adds
    two step bits, and ``far`` and ``root_id`` take the widest id among them.
    """
    id_bits = max(root, *fars).bit_length()  # ids are positive, so at least 1
    bits = 2 + idx_bits + id_bits + len(fars) * (id_bits + 1 + 2 * nv.bit_length())
    copies: set[int] = set()
    for v in fars:
        c, steps = costs[(x, v) if x < v else (v, x)]
        copies.update(c)
        bits += steps
    bits += sum(k.bit_length() + (nv + 1 - k).bit_length() for k in copies)
    return 2 + (bits + 7) // 8
