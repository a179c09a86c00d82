"""Path-outerplanarity: definition oracle, honest prover, per-node verifier.

A graph with a total order on its nodes is *path-outerplanar* when the order
is a Hamiltonian path and, drawing the nodes on a line in order, no two edges
cross: every pair of edges is either disjoint (up to touching) or nested.

The certification scheme for this property gives every node its rank on the
line and one interval: the shortest edge (in rank space) that strictly covers
the node, or the full range if none does. The verifier re-derives everything
locally. Two virtual ranks 0 and n+1 with an edge between them close the
range: the rank-1 and rank-n nodes see their fixed certificates as
neighbors, and the virtual ranks' own checks come down to one rule there,
which pins the end ranks' intervals to (0, n+1).  One stack sweep along the
line both checks that no edges cross and reads off every rank's interval.

Certificates use plain integers: the interval bound "minus infinity" is
stored as -1 and "plus infinity" as n+2, so all checks are ordinary
comparisons.  A ``PopCertificate`` is an immutable named tuple: it compares
equal to the plain tuple ``(n, rank, lo, hi)``, and ``._replace`` makes an
edited copy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError, WitnessError
from .graphs import Graph

# Reject diagnostics: stable codes matching the verifier's check order.
REJECT_PATH_STRUCTURE = 3  # ranks do not locally look like a spanning path
REJECT_INTERVAL_BOUNDS = 5  # own interval fails a < rank < b or strays
REJECT_RIGHT_CHAIN = 7  # right-neighbor interval chain broken
REJECT_LEFT_CHAIN = 9  # left-neighbor interval chain broken
REJECT_RIGHT_BOUNDARY = 11  # last right neighbor below b must inherit [a,b]
REJECT_LEFT_BOUNDARY = 13  # first left neighbor above a must inherit [a,b]
REJECT_ENDPOINT_ADJACENCY = 16  # neighbor interval ends here, far end not adjacent

REJECT_REASONS = {
    REJECT_PATH_STRUCTURE: "rank neighborhood is not consistent with a spanning path",
    REJECT_INTERVAL_BOUNDS: "own interval does not strictly cover the rank or a neighbor escapes it",
    REJECT_RIGHT_CHAIN: "interval of a right neighbor differs from [rank, next right neighbor]",
    REJECT_LEFT_CHAIN: "interval of a left neighbor differs from [next left neighbor, rank]",
    REJECT_RIGHT_BOUNDARY: "interval of the last right neighbor strictly inside must equal own interval",
    REJECT_LEFT_BOUNDARY: "interval of the first left neighbor strictly inside must equal own interval",
    REJECT_ENDPOINT_ADJACENCY: "a neighbor interval ends at this rank but its far end is not a neighbor",
}

NEG_INF = -1  # encoded minus infinity

#: Builds a named tuple from a plain one without the Python-level ``__new__``
#: each class defines.  ``pop_prove`` builds 2n - 1 interval certificates
#: with it, the prover its edge and node certificates, and decoding a dozen
#: named tuples per certificate.
_new = tuple.__new__


def pos_inf(n: int) -> int:
    """Encoded plus infinity for instances with n real ranks."""
    return n + 2


@dataclass(frozen=True)
class PopWitness:
    """A node order claimed to exhibit path-outerplanarity."""

    order: tuple[int, ...]


class PopCertificate(NamedTuple):
    """What one node holds: instance size, own rank, covering interval."""

    n: int
    rank: int
    lo: int
    hi: int

    @property
    def interval(self) -> tuple[int, int]:
        return (self.lo, self.hi)


def virtual_certificate(n: int, rank: int) -> PopCertificate:
    """Fixed certificate of a virtual end rank (0 or n+1): interval (-inf, +inf)."""
    return PopCertificate(n=n, rank=rank, lo=NEG_INF, hi=pos_inf(n))


def is_path_outerplanar(g: Graph, order, *, sweep: list | None = None) -> bool:
    """True iff order is a Hamiltonian path of g along which no edges cross.

    One sweep along the line checks the nesting and reads off the intervals.
    The open spans wait on a stack, innermost last.  At each rank x the
    spans that end at x leave; the top is then x's narrowest covering span,
    or the virtual (0, n+1) if the stack is empty; then the spans that start
    at x enter, farthest first.  Open spans are nested, so a span crosses
    one of them iff it ends past the top.  When the verdict is True, a list
    passed as ``sweep`` receives each rank's covering span, ranks 1..n in
    order; ``pop_prove`` reads its certificates off it.  The spans come
    straight off the adjacency, with no sort: walking the line backwards,
    each node's rank is the end of a span to every earlier neighbor, so the
    ends of the spans that start at one rank arrive farthest first.
    """
    order = tuple(order)
    n = len(order)
    adj = g.adj
    rank = {v: r for r, v in enumerate(order, start=1)}
    if len(rank) != n or rank.keys() != adj.keys():
        raise ParameterError("order is not a permutation of the graph's nodes")
    ends: list[list[int]] = [[] for _ in range(n + 1)]  # by start rank
    for b in range(n, 0, -1):
        for u in adj[order[b - 1]]:
            a = rank[u]
            if a < b:
                ends[a].append(b)
    # the order is a path iff each rank's nearest later neighbor is the next
    if not all(ends[a] and ends[a][-1] == a + 1 for a in range(1, n)):
        return False
    cover: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []
    for x in range(1, n + 1):
        while stack and stack[-1][1] <= x:
            stack.pop()
        cover.append(stack[-1] if stack else (0, n + 1))
        for b in ends[x]:
            if stack and b > stack[-1][1]:
                return False
            stack.append((x, b))
    if sweep is not None:
        sweep[:] = cover
    return True


def shortest_covering_interval(spans, x: int, n: int) -> tuple[int, int]:
    """Narrowest span (a, b) with a < x < b; defaults to the virtual (0, n+1).

    Brute force over the spans; well-defined for arbitrary (even crossing)
    span families, which the sweep in ``is_path_outerplanar`` is not.
    """
    best = (0, n + 1)
    for a, b in spans:
        if a < x < b and b - a < best[1] - best[0]:
            best = (a, b)
    return best


def pop_prove(g: Graph, w: PopWitness) -> dict[int, PopCertificate]:
    """Honest certificates for a valid witness: rank + shortest covering span.

    The intervals are the ones the sweep in ``is_path_outerplanar`` hands back.
    Each certificate is built with ``_new`` from a plain tuple, which skips
    the keyword-argument ``__new__`` and gives the same ``PopCertificate``.
    """
    cover: list[tuple[int, int]] = []
    if not is_path_outerplanar(g, w.order, sweep=cover):
        raise WitnessError("order is not a path-outerplanarity witness for this graph")
    n = g.n
    return {
        v: _new(PopCertificate, (n, x, lo, hi))
        for x, (v, (lo, hi)) in enumerate(zip(w.order, cover), start=1)
    }


def pop_verify_node(
    rank: int, own: PopCertificate, neighbor_certs: dict[int, PopCertificate]
) -> int | None:
    """One node's verdict: None to accept, else the first failing check code.

    The view must be well-formed, as ``pop_verify_all`` and the reader
    build it: ``own`` has rank ``rank`` in 1..n, and neighbor_certs keys
    each neighbor by its own rank, in 1..n, with the node's n.  It covers
    exactly the real neighbors; ``rank`` among them, or a missing tour
    neighbor, rejects with the structural code.  Ranks 1 and n also see
    the fixed certificates of virtual ranks 0 and n+1 as neighbors (no
    extra communication); those decide the bounds, boundary and endpoint
    codes there.  The virtual ranks' own checks come down to one rule.
    Rank 0's neighbors are rank 1 and the fixed rank n+1, so its structure,
    bounds, boundary and endpoint checks hold whenever its right chain
    does, and that chain holds iff rank 1's interval is (0, n+1); rank n+1
    mirrors this with its left chain and rank n.  So an end rank whose own
    checks pass rejects any other interval: rank 1 with the right-chain
    code, rank n with the left.
    """
    n, _, lo, hi = own
    nbrs = neighbor_certs
    if rank in nbrs:
        return REJECT_PATH_STRUCTURE
    if (rank > 1 and rank - 1 not in nbrs) or (rank < n and rank + 1 not in nbrs):
        return REJECT_PATH_STRUCTURE
    if rank == 1:
        nbrs = {**nbrs, 0: virtual_certificate(n, 0)}
    if rank == n:
        nbrs = {**nbrs, n + 1: virtual_certificate(n, n + 1)}
    # own interval strictly covers the rank; neighbors stay inside it
    if not (NEG_INF <= lo < rank < hi <= pos_inf(n)):
        return REJECT_INTERVAL_BOUNDS
    # ranks[:split] lie left of rank and ranks[split:] right of it, so
    # ranks[0] and ranks[last] are the outermost neighbors on their sides
    ranks = sorted(nbrs)
    split = bisect_left(ranks, rank)
    last = len(ranks) - 1
    if split <= last and ranks[last] > hi:
        return REJECT_INTERVAL_BOUNDS
    if split and ranks[0] < lo:
        return REJECT_INTERVAL_BOUNDS
    # chains: consecutive same-side neighbors pin each other's intervals
    for t in range(split, last):
        c = nbrs[ranks[t]]
        if c.lo != rank or c.hi != ranks[t + 1]:
            return REJECT_RIGHT_CHAIN
    for t in range(split - 1, 0, -1):
        c = nbrs[ranks[t]]
        if c.lo != ranks[t - 1] or c.hi != rank:
            return REJECT_LEFT_CHAIN
    # boundaries: the outermost same-side neighbor strictly inside [lo, hi]
    # must carry [lo, hi] itself
    if split <= last and ranks[last] < hi:
        c = nbrs[ranks[last]]
        if c.lo != lo or c.hi != hi:
            return REJECT_RIGHT_BOUNDARY
    if split and ranks[0] > lo:
        c = nbrs[ranks[0]]
        if c.lo != lo or c.hi != hi:
            return REJECT_LEFT_BOUNDARY
    # neighbor intervals ending exactly here: far end adjacent, hence in
    # [lo, hi], so the interval nests strictly inside (an interval ending
    # here at both ends has its far end here, which is no neighbor)
    for c in nbrs.values():
        if c.lo == rank:
            far = c.hi
        elif c.hi == rank:
            far = c.lo
        else:
            continue
        if far not in nbrs:
            return REJECT_ENDPOINT_ADJACENCY
    # the virtual ranks' checks (docstring)
    if (rank == 1 or rank == n) and (lo, hi) != (0, n + 1):
        return REJECT_RIGHT_CHAIN if rank == 1 else REJECT_LEFT_CHAIN
    return None


def pop_verify_all(g: Graph, certs: dict[int, PopCertificate]) -> dict[int, int | None]:
    """Evaluate every node against its neighbors' certificates.

    Certificates may be arbitrary, so views are checked for shape here: a
    node whose rank is outside 1..n, or that sees a neighbor with another
    n, a rank outside 1..n or a rank claimed twice, rejects with the
    structural code.
    """
    out: dict[int, int | None] = {}
    for v in g.nodes():
        own = certs[v]
        n, rank = own.n, own.rank
        out[v] = REJECT_PATH_STRUCTURE
        if 1 <= rank <= n:
            by_rank: dict[int, PopCertificate] = {}
            for u in g.neighbors(v):
                c = certs[u]
                if c.n != n or not 1 <= c.rank <= n or c.rank in by_rank:
                    break
                by_rank[c.rank] = c
            else:
                out[v] = pop_verify_node(rank, own, by_rank)
    return out
