"""Path-outerplanarity: definition oracle, honest prover, per-node verifier.

A graph with a total order on its nodes is *path-outerplanar* when the order
is a Hamiltonian path and, drawing the nodes on a line in order, no two edges
cross: every pair of edges is either disjoint (up to touching) or nested.

The certification scheme for this property gives every node its rank on the
line and one interval: the shortest edge (in rank space) that strictly covers
the node, or the full range if none does. The verifier re-derives everything
locally. Two virtual ranks 0 and n+1 with an edge between them close the
range; the rank-1 and rank-n nodes run the virtual nodes' checks themselves,
which pins the certificates at the two ends of the line.

Certificates use plain integers: the interval bound "minus infinity" is
stored as -1 and "plus infinity" as n+2, so all checks are ordinary
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, ResourceError, WitnessError
from .graphs import Graph

# Reject diagnostics: stable codes matching the verifier's check order.
REJECT_PATH_STRUCTURE = 3  # ranks do not locally look like a spanning path
REJECT_INTERVAL_BOUNDS = 5  # own interval fails a < rank < b or strays
REJECT_RIGHT_CHAIN = 7  # right-neighbor interval chain broken
REJECT_LEFT_CHAIN = 9  # left-neighbor interval chain broken
REJECT_RIGHT_BOUNDARY = 11  # last right neighbor below b must inherit [a,b]
REJECT_LEFT_BOUNDARY = 13  # first left neighbor above a must inherit [a,b]
REJECT_ENDPOINT_ADJACENCY = 16  # neighbor interval ends here, far end not adjacent
REJECT_ENDPOINT_NESTING = 17  # neighbor interval ends here but is not nested

REJECT_REASONS = {
    REJECT_PATH_STRUCTURE: "rank neighborhood is not consistent with a spanning path",
    REJECT_INTERVAL_BOUNDS: "own interval does not strictly cover the rank or a neighbor escapes it",
    REJECT_RIGHT_CHAIN: "interval of a right neighbor differs from [rank, next right neighbor]",
    REJECT_LEFT_CHAIN: "interval of a left neighbor differs from [next left neighbor, rank]",
    REJECT_RIGHT_BOUNDARY: "interval of the last right neighbor strictly inside must equal own interval",
    REJECT_LEFT_BOUNDARY: "interval of the first left neighbor strictly inside must equal own interval",
    REJECT_ENDPOINT_ADJACENCY: "a neighbor interval ends at this rank but its far end is not a neighbor",
    REJECT_ENDPOINT_NESTING: "a neighbor interval ends at this rank without nesting strictly inside",
}

NEG_INF = -1  # encoded minus infinity


def pos_inf(n: int) -> int:
    """Encoded plus infinity for instances with n real ranks."""
    return n + 2


@dataclass(frozen=True)
class PopWitness:
    """A node order claimed to exhibit path-outerplanarity."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class PopCertificate:
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


def _edges_in_rank_space(g: Graph, order: tuple[int, ...]) -> list[tuple[int, int]]:
    rank = {v: i + 1 for i, v in enumerate(order)}
    out = []
    for u, v in g.edges():
        a, b = rank[u], rank[v]
        out.append((a, b) if a < b else (b, a))
    return out


def _spans_noncrossing(spans: list[tuple[int, int]]) -> bool:
    """True iff every two spans are disjoint (up to touching) or nested.

    Sweep in (start, -end) order with the ends of the open spans on a stack:
    those are nested, so a new span crosses one of them iff it ends past the
    innermost one still open.
    """
    stack: list[int] = []
    for a, b in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1] <= a:
            stack.pop()
        if stack and b > stack[-1]:
            return False
        stack.append(b)
    return True


def is_path_outerplanar(g: Graph, order) -> bool:
    """True iff order is a Hamiltonian path of g along which no edges cross."""
    order = tuple(order)
    if sorted(order) != list(g.nodes()):
        raise ParameterError("order is not a permutation of the graph's nodes")
    if any(not g.has_edge(u, v) for u, v in zip(order, order[1:])):
        return False
    return _spans_noncrossing(_edges_in_rank_space(g, order))


def find_witness_exhaustive(g: Graph) -> PopWitness | None:
    """Smallest-lexicographic witness order, or None. Tiny inputs only.

    Depth-first over partial orders; a partial order is extended only by a
    neighbor of its last node (Hamiltonian path) whose new back-edges do not
    cross any edge already placed, so the first completed order is both valid
    and lexicographically least.
    """
    if g.n > 10:
        raise ResourceError(f"exhaustive witness search capped at 10 nodes, got {g.n}")
    nodes = list(g.nodes())
    if g.n == 1:
        return PopWitness(order=(nodes[0],))

    rank: dict[int, int] = {}
    placed: list[tuple[int, int]] = []  # edges among placed nodes, rank space

    def compatible(a: int, b: int) -> bool:
        return all(
            b <= c or d <= a or (a <= c and d <= b) or (c <= a and b <= d)
            for c, d in placed
        )

    def extend(order: list[int]) -> tuple[int, ...] | None:
        if len(order) == g.n:
            return tuple(order)
        last = order[-1]
        for v in nodes:
            if v in rank or not g.has_edge(last, v):
                continue
            i = len(order) + 1
            new = sorted((rank[u], i) for u in g.neighbors(v) if u in rank)
            if all(compatible(a, b) for a, b in new):
                rank[v] = i
                placed.extend(new)
                got = extend(order + [v])
                if got is not None:
                    return got
                del rank[v]
                del placed[len(placed) - len(new) :]
        return None

    for start in nodes:
        rank[start] = 1
        got = extend([start])
        if got is not None:
            return PopWitness(order=got)
        rank.clear()
    return None


def shortest_covering_interval(spans, x: int, n: int) -> tuple[int, int]:
    """Narrowest span (a, b) with a < x < b; defaults to the virtual (0, n+1).

    Brute force over the spans; well-defined for arbitrary (even crossing)
    span families, which the honest prover's sweep is not.
    """
    best = (0, n + 1)
    for a, b in spans:
        if a < x < b and b - a < best[1] - best[0]:
            best = (a, b)
    return best


def pop_prove(g: Graph, w: PopWitness) -> dict[int, PopCertificate]:
    """Honest certificates for a valid witness: rank + shortest covering span.

    Single sweep along the line: spans sorted by (start asc, end desc) are
    pushed on a stack; valid witnesses have laminar spans, so the innermost
    live span — the certificate interval — is always on top.
    """
    if not is_path_outerplanar(g, w.order):
        raise WitnessError("order is not a path-outerplanarity witness for this graph")
    n = g.n
    spans = sorted(_edges_in_rank_space(g, w.order), key=lambda e: (e[0], -e[1]))
    certs: dict[int, PopCertificate] = {}
    stack: list[tuple[int, int]] = []
    next_span = 0
    for x, v in enumerate(w.order, start=1):
        while next_span < len(spans) and spans[next_span][0] < x:
            stack.append(spans[next_span])
            next_span += 1
        while stack and stack[-1][1] <= x:
            stack.pop()
        lo, hi = stack[-1] if stack else (0, n + 1)
        certs[v] = PopCertificate(n=n, rank=x, lo=lo, hi=hi)
    return certs


def _verify_at(x: int, own: PopCertificate, nbrs: dict[int, PopCertificate], n: int) -> int | None:
    """Run the interval checks for one (possibly virtual) rank x."""
    lo, hi = own.lo, own.hi
    top = pos_inf(n)
    # structural rank checks
    for r, c in nbrs.items():
        if c.rank != r or c.n != n or r == x or not (0 <= r <= n + 1):
            return REJECT_PATH_STRUCTURE
    for required in (x - 1, x + 1):
        if 0 <= required <= n + 1 and required not in nbrs:
            return REJECT_PATH_STRUCTURE
    # own interval strictly covers the rank; neighbors stay inside it
    if not (NEG_INF <= lo < x < hi <= top):
        return REJECT_INTERVAL_BOUNDS
    right = sorted(r for r in nbrs if r > x)
    left = sorted((r for r in nbrs if r < x), reverse=True)
    if right and right[-1] > hi:
        return REJECT_INTERVAL_BOUNDS
    if left and left[-1] < lo:
        return REJECT_INTERVAL_BOUNDS
    # chains: consecutive same-side neighbors pin each other's intervals
    for i in range(len(right) - 1):
        if nbrs[right[i]].interval != (x, right[i + 1]):
            return REJECT_RIGHT_CHAIN
    for i in range(len(left) - 1):
        if nbrs[left[i]].interval != (left[i + 1], x):
            return REJECT_LEFT_CHAIN
    # boundaries: the outermost same-side neighbor strictly inside [lo, hi]
    # must carry [lo, hi] itself
    if right and right[-1] < hi and nbrs[right[-1]].interval != (lo, hi):
        return REJECT_RIGHT_BOUNDARY
    if left and left[-1] > lo and nbrs[left[-1]].interval != (lo, hi):
        return REJECT_LEFT_BOUNDARY
    # neighbor intervals ending exactly here: far end adjacent, strictly nested
    for r, c in nbrs.items():
        for far in ((c.hi,) if c.lo == x else ()) + ((c.lo,) if c.hi == x else ()):
            if far not in nbrs:
                return REJECT_ENDPOINT_ADJACENCY
            if not (lo <= c.lo and c.hi <= hi and (lo < c.lo or c.hi < hi)):
                return REJECT_ENDPOINT_NESTING
    return None


def pop_verify_node(
    rank: int, own: PopCertificate, neighbor_certs: dict[int, PopCertificate]
) -> int | None:
    """One node's verdict: None to accept, else the first failing check code.

    neighbor_certs is keyed by claimed rank and must cover exactly the real
    neighbors. The rank-1 node additionally runs the checks of virtual rank 0
    and the rank-n node those of virtual rank n+1; both virtual certificates
    are fixed, so no extra communication is implied.
    """
    n = own.n
    if own.rank != rank or not (1 <= rank <= n):
        return REJECT_PATH_STRUCTURE
    if any(not (1 <= r <= n) for r in neighbor_certs):
        return REJECT_PATH_STRUCTURE
    certs = dict(neighbor_certs)
    if rank == 1:
        certs[0] = virtual_certificate(n, 0)
    if rank == n:
        certs[n + 1] = virtual_certificate(n, n + 1)
    code = _verify_at(rank, own, certs, n)
    if code is not None:
        return code
    if rank == 1:
        side = {1: own, n + 1: virtual_certificate(n, n + 1)}
        code = _verify_at(0, virtual_certificate(n, 0), side, n)
        if code is not None:
            return code
    if rank == n:
        side = {0: virtual_certificate(n, 0), n: own}
        code = _verify_at(n + 1, virtual_certificate(n, n + 1), side, n)
        if code is not None:
            return code
    return None


def pop_verify_all(g: Graph, certs: dict[int, PopCertificate]) -> dict[int, int | None]:
    """Evaluate every node against its neighbors' certificates.

    Two neighbors claiming one rank cannot both be handed to the verifier;
    the node observing the clash rejects with the structural code.
    """
    out: dict[int, int | None] = {}
    for v in g.nodes():
        by_rank: dict[int, PopCertificate] = {}
        clash = False
        for u in g.neighbors(v):
            c = certs[u]
            if c.rank in by_rank:
                clash = True
                break
            by_rank[c.rank] = c
        out[v] = REJECT_PATH_STRUCTURE if clash else pop_verify_node(certs[v].rank, certs[v], by_rank)
    return out
