"""Reference per-node verifier: the oracle for ``pls.verify_node_planarity``.

These are ``verify_node_planarity`` and the interval checks it calls as they
read before the verification round was made lean: they read every edge
certificate's slots through ``bindings()``, tell tree edges from chords by
comparing slot sets, sort whole certificate items, copy the interval
neighbor dict and read intervals through the ``interval`` property.
``tests/test_verdict_oracle.py`` requires the verifier in ``src`` to give
the same verdict, reason and phase as this one on every view.  Keep it as
it is: it states what the verifier must decide, not how fast.
"""

from __future__ import annotations

from planarcert.graphs import norm_edge
from planarcert.pls import (
    PHASE_COLLECT,
    PHASE_POP,
    PHASE_TREE,
    EdgeCertificate,
    NodeCertificate,
    Verdict,
    _accept,
    _reject,
    verify_spanning_tree_sub,
)
from planarcert.pop import (
    NEG_INF,
    REJECT_ENDPOINT_ADJACENCY,
    REJECT_INTERVAL_BOUNDS,
    REJECT_LEFT_BOUNDARY,
    REJECT_LEFT_CHAIN,
    REJECT_PATH_STRUCTURE,
    REJECT_REASONS,
    REJECT_RIGHT_BOUNDARY,
    REJECT_RIGHT_CHAIN,
    PopCertificate,
    pos_inf,
    virtual_certificate,
)

# The nesting check ``pop._verify_at`` dropped once it was shown unable to
# fail; the oracle keeps it, so the comparison shows it never decides.
REJECT_ENDPOINT_NESTING = 17


def _is_tree(ec: EdgeCertificate) -> bool:
    """A tree edge names two different slot pairs; a chord one pair twice."""
    return {ec.i, ec.j} != {ec.i2, ec.j2}


def oracle_verify_node_planarity(
    x: int,
    own: NodeCertificate,
    neighbor_certs: dict[int, NodeCertificate],
) -> Verdict:
    """One node's verdict after a single exchange of certificates.

    ``neighbor_certs`` must hold the certificate of every graph neighbor of
    ``x`` and nothing else; that is the one-round view.  Every certificate
    must be well-formed, as ``unpack_certificate`` returns them: each field
    in its legal range for the node count that certificate claims.
    """
    # Phase 1: recover the local virtual-graph slice.  Once the node counts
    # agree, every tour index lies in 1..2n-1, and the layout already put
    # both copies of each tree-edge tour step next to each other.
    for cert in neighbor_certs.values():
        if cert.n != own.n:
            return _reject(PHASE_COLLECT, "node-count claims disagree")
    n = own.n
    nv = 2 * n - 1

    # Each certificate of the edge (x, other), keyed by other, with the
    # copies of x and those of other: x's own certificates concern the edge
    # to their far end, a neighbor's only those whose far end is x.
    found: dict[int, tuple[EdgeCertificate, tuple[int, int], tuple[int, int]]] = {}
    for holder, cert in [(x, own)] + sorted(neighbor_certs.items()):
        for ec in cert.edge_certs:
            if holder == x:
                other, xs, ys = ec.far, (ec.i, ec.i2), (ec.j, ec.j2)
                if other not in neighbor_certs:
                    e = norm_edge(x, other)
                    return _reject(PHASE_COLLECT, f"certified edge {e} is not in the graph")
            elif ec.far == x:
                other, xs, ys = holder, (ec.j, ec.j2), (ec.i, ec.i2)
            else:
                continue  # someone else's edge; not locally checkable
            if other in found:
                e = norm_edge(x, other)
                return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
            found[other] = (ec, xs, ys)
    for y in neighbor_certs:
        if y not in found:
            return _reject(PHASE_COLLECT, f"edge {norm_edge(x, y)} has no certificate")

    pop_table: dict[int, PopCertificate] = {}
    for ec, _, _ in found.values():
        for k, pc in ec.bindings():
            held = pop_table.get(k)
            if held is not None and held != pc:
                return _reject(PHASE_COLLECT, f"conflicting certificates for copy {k}")
            pop_table[k] = pc

    parent_nbr: int | None = None
    parent_sides: tuple[int, int] | None = None
    child_spans: list[tuple[int, int]] = []
    chords: list[tuple[int, int]] = []  # (copy of x, copy of the other end)
    side_count: dict[int, int] = {}
    for other, (ec, xs, ys) in sorted(found.items()):
        if not _is_tree(ec):
            chords.append((xs[0], ys[0]))
            continue
        for k in xs:
            side_count[k] = side_count.get(k, 0) + 1
        if min(ys) < min(xs):
            if parent_nbr is not None:
                return _reject(PHASE_COLLECT, "more than one neighbor claims parenthood")
            parent_nbr = other
            parent_sides = xs
        else:
            child_spans.append((min(ys), max(ys)))

    is_root_claim = parent_nbr is None
    copies = sorted(side_count)
    if n == 1:
        # A single node has no incident edges to carry its certificate, so
        # its lone tour copy gets the canonical full interval.
        copies = [1]
        pop_table[1] = PopCertificate(n=1, rank=1, lo=0, hi=2)
    else:
        for k in copies:
            expected = 1 if (is_root_claim and k in (1, nv)) else 2
            if side_count[k] != expected:
                return _reject(
                    PHASE_COLLECT, f"copy {k} lacks a certified tour step"
                )

    copy_set = set(copies)
    chord_at: dict[int, list[int]] = {}
    for mine, partner in chords:
        if mine not in copy_set:
            return _reject(
                PHASE_COLLECT, f"chord attached to foreign copy {mine}"
            )
        chord_at.setdefault(mine, []).append(partner)

    # Phase 2: spanning tree and tour consistency.
    reason = verify_spanning_tree_sub(
        x,
        own.tree_sub,
        {y: c.tree_sub for y, c in neighbor_certs.items()},
        parent_nbr,
    )
    if reason is not None:
        return _reject(PHASE_TREE, reason)
    if is_root_claim and not {1, nv} <= copy_set:
        return _reject(PHASE_TREE, "root does not own the tour endpoints")
    if parent_sides is not None and set(parent_sides) != {copies[0], copies[-1]}:
        return _reject(
            PHASE_TREE, "parent edge does not bracket the first and last visits"
        )
    # A childless node has one copy already: phase 1 rejects a parent edge
    # naming two copies, and the root check a root claim without tree edges.
    child_spans.sort()
    if child_spans:
        for (_, a_max), (b_min, _) in zip(child_spans, child_spans[1:]):
            if b_min != a_max + 2:
                return _reject(PHASE_TREE, "children subtours are not contiguous")
        expected_copies = {child_spans[0][0] - 1}
        expected_copies.update(cmax + 1 for _, cmax in child_spans)
        if copy_set != expected_copies:
            return _reject(
                PHASE_TREE, "visits do not interleave the children subtours"
            )

    # Phase 3: interval checks for every owned copy.
    for k in copies:
        own_pc = pop_table[k]
        nbr: dict[int, PopCertificate] = {}
        for r in (k - 1, k + 1):
            if 1 <= r <= nv:
                pc = pop_table.get(r)
                if pc is None:
                    return _reject(
                        PHASE_POP, f"no certificate for tour neighbor {r}"
                    )
                nbr[r] = pc
        for partner in chord_at.get(k, ()):
            nbr[partner] = pop_table[partner]
        code = oracle_pop_verify_node(k, own_pc, nbr)
        if code is not None:
            return _reject(PHASE_POP, f"copy {k}: {REJECT_REASONS[code]}")
    return _accept()



def _oracle_verify_at(
    x: int, own: PopCertificate, nbrs: dict[int, PopCertificate], n: int
) -> int | None:
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


def oracle_pop_verify_node(
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
    code = _oracle_verify_at(rank, own, certs, n)
    if code is not None:
        return code
    if rank == 1:
        side = {1: own, n + 1: virtual_certificate(n, n + 1)}
        code = _oracle_verify_at(0, virtual_certificate(n, 0), side, n)
        if code is not None:
            return code
    if rank == n:
        side = {0: virtual_certificate(n, 0), n: own}
        code = _oracle_verify_at(n + 1, virtual_certificate(n, n + 1), side, n)
        if code is not None:
            return code
    return None
