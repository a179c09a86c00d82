"""One-round planarity certification: honest prover, per-node verifier, codec.

The prover embeds the graph, cuts it along a depth-first spanning tree, and
certifies path-outerplanarity of the resulting virtual path graph.  Every
graph edge gets one edge certificate carrying the tour positions of its
virtual endpoints together with their interval certificates; the certificate
is stored at the endpoint that comes first in a degeneracy order, so no node
holds more than five of them.  The verifier reassembles its local slice of
the virtual graph from its own and its neighbors' certificates, replays the
interval checks for every tour copy it owns, and runs standard spanning-tree
consistency checks on the side.

Certificates travel as packed bits in one layout, stated once in ``_walk``:
it drives packing, unpacking, the size count and the attack harness's
forging and field edits.  Decoding is the gate: a field outside its legal
range raises FormatError, so the verifier sees only well-formed
certificates and judges what they claim.  No value the verifier would force
is sent: a chord sends its one tour index pair once, and a flag bit tells it
from a tree edge, which sends two tour steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .embedding import NonPlanarWitness, RotationSystem, planar_embed, validate_rotation
from .errors import FormatError, NonPlanarError, ParameterError
from .graphs import Edge, Graph, degeneracy_order, norm_edge
from .pop import (
    REJECT_REASONS,
    PopCertificate,
    PopWitness,
    pop_prove,
    pop_verify_node,
)
from .transform import dfs_mapping, induce_graph, spanning_tree_dfs

PHASE_COLLECT = 1  # recover tree / tour / virtual-graph structure
PHASE_TREE = 2  # spanning-tree and tour-consistency checks
PHASE_POP = 3  # interval checks per owned copy

#: Degeneracy of a planar graph, hence the most edge certificates per node.
MAX_EDGE_CERTS = 5


@dataclass(frozen=True)
class TreeSub:
    """Classic spanning-tree sub-certificate: root identity, parent, depth."""

    root_id: int
    parent_id: int | None
    dist: int


@dataclass(frozen=True)
class EdgeCertificate:
    """Everything one graph edge contributes to the virtual path graph.

    A tree edge is traversed twice by the tour and owns two distinct virtual
    path edges; a non-tree edge owns a single chord, repeated in both slots
    here and sent once on the wire.
    Indices ``i``/``i2`` are copies of ``id_x`` and ``j``/``j2`` copies of
    ``id_y``; each index comes with the interval certificate of that copy.
    """

    id_x: int
    id_y: int
    i: int
    j: int
    i2: int
    j2: int
    pop_i: PopCertificate
    pop_j: PopCertificate
    pop_i2: PopCertificate
    pop_j2: PopCertificate

    def is_tree(self) -> bool:
        return {self.i, self.j} != {self.i2, self.j2}

    def side_indices(self, node: int) -> tuple[int, int]:
        if node == self.id_x:
            return (self.i, self.i2)
        if node == self.id_y:
            return (self.j, self.j2)
        raise ParameterError(f"{node} is not an endpoint of this certificate")

    def bindings(self) -> tuple[tuple[int, PopCertificate], ...]:
        return (
            (self.i, self.pop_i),
            (self.j, self.pop_j),
            (self.i2, self.pop_i2),
            (self.j2, self.pop_j2),
        )


@dataclass(frozen=True)
class NodeCertificate:
    """What one node receives: its assigned edge certificates plus tree data."""

    edge_certs: tuple[EdgeCertificate, ...]
    tree_sub: TreeSub
    n: int


@dataclass(frozen=True)
class Verdict:
    decision: str  # "accept" | "reject"
    reason: str
    phase: int

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def _accept() -> Verdict:
    return Verdict(decision="accept", reason="", phase=PHASE_POP)


def _reject(phase: int, reason: str) -> Verdict:
    return Verdict(decision="reject", reason=reason, phase=phase)


# --- honest prover ----------------------------------------------------------


def prove_planar(
    g: Graph, rot: RotationSystem | None = None
) -> dict[int, NodeCertificate]:
    """Certificates that make every node of a planar graph accept.

    With no rotation supplied the graph is embedded first; a non-planar
    input is refused with the embedder's subdivision witness attached.  A
    supplied rotation must be a planar embedding of ``g``.
    """
    if not g.connected:
        raise ParameterError("certification requires a connected graph")
    if rot is not None and not validate_rotation(g, rot):
        raise ParameterError(
            "the supplied rotation is not a planar embedding of the graph: it must "
            "order every node's neighbors and pass the Euler face count"
        )
    if rot is None:
        found = planar_embed(g)
        if isinstance(found, NonPlanarWitness):
            raise NonPlanarError("input graph is not planar", witness=found)
        rot = found
    root = min(g.nodes())
    t = spanning_tree_dfs(g, rot, root)
    fm = dfs_mapping(t)
    induced = induce_graph(g, rot, t, fm)
    nv = induced.n_virtual
    pop_certs = pop_prove(
        induced.virtual_graph(), PopWitness(order=tuple(range(1, nv + 1)))
    )

    f = fm.f
    traversals: dict[Edge, list[tuple[int, int]]] = {}
    for k in range(1, nv):
        e = norm_edge(f[k], f[k + 1])  # type: ignore[arg-type]
        traversals.setdefault(e, []).append((k, k + 1))

    def oriented(pair: tuple[int, int], u: int) -> tuple[int, int]:
        a, b = pair
        return (a, b) if f[a] == u else (b, a)

    edge_certs: dict[Edge, EdgeCertificate] = {}
    for u, v in g.edges():
        if (u, v) in traversals:
            first, second = traversals[(u, v)]
            i, j = oriented(first, u)
            i2, j2 = oriented(second, u)
        else:
            ci, cj = induced.cotree_map[(u, v)]
            i, j = (ci, cj) if f[ci] == u else (cj, ci)
            i2, j2 = i, j
        edge_certs[(u, v)] = EdgeCertificate(
            id_x=u,
            id_y=v,
            i=i,
            j=j,
            i2=i2,
            j2=j2,
            pop_i=pop_certs[i],
            pop_j=pop_certs[j],
            pop_i2=pop_certs[i2],
            pop_j2=pop_certs[j2],
        )

    position = degeneracy_order(g).position()
    depth: dict[int, int] = {root: 0}
    queue = [root]
    while queue:
        v = queue.pop()
        for c in t.children_order[v]:
            depth[c] = depth[v] + 1
            queue.append(c)

    out: dict[int, NodeCertificate] = {}
    for x in g.nodes():
        mine = tuple(
            edge_certs[e]
            for e in sorted(edge_certs)
            if x == (e[0] if position[e[0]] < position[e[1]] else e[1])
        )
        out[x] = NodeCertificate(
            edge_certs=mine,
            tree_sub=TreeSub(root_id=root, parent_id=t.parent[x], dist=depth[x]),
            n=g.n,
        )
    return out


# --- verifier: spanning-tree sub-check ---------------------------------------


def verify_spanning_tree_sub(
    x: int,
    own: TreeSub,
    neighbor_subs: dict[int, TreeSub],
    parent_id: int | None,
) -> str | None:
    """Classic root/parent/distance consistency; None means accept.

    ``parent_id`` is the parent derived from the edge certificates (None for
    a node claiming to be the root).
    """
    for sub in neighbor_subs.values():
        if sub.root_id != own.root_id:
            return "root identity disagrees with a neighbor"
    if parent_id is None:
        if own.root_id != x:
            return "node without a parent is not the claimed root"
        if own.dist != 0:
            return "claimed root has nonzero distance"
    else:
        if own.parent_id != parent_id:
            return "parent pointer disagrees with the edge certificates"
        if own.dist != neighbor_subs[parent_id].dist + 1:
            return "distance is not one more than the parent's"
    for y, sub in neighbor_subs.items():
        if sub.dist == 0 and sub.root_id != y:
            return "a neighbor claims distance zero without being the root"
    return None


# --- verifier ----------------------------------------------------------------


def verify_node_planarity(
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

    holders: dict[Edge, list[int]] = {}
    found: dict[Edge, EdgeCertificate] = {}
    for holder, cert in [(x, own)] + sorted(neighbor_certs.items()):
        for ec in cert.edge_certs:
            e = norm_edge(ec.id_x, ec.id_y)
            if x not in e:
                continue  # someone else's edge; not locally checkable
            other = e[0] if e[1] == x else e[1]
            if other not in neighbor_certs:
                return _reject(PHASE_COLLECT, f"certified edge {e} is not in the graph")
            if holder not in e:
                return _reject(PHASE_COLLECT, f"edge {e} certified away from its endpoints")
            holders.setdefault(e, []).append(holder)
            found[e] = ec
    for e, who in holders.items():
        if len(who) > 1:
            return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
    for y in neighbor_certs:
        if norm_edge(x, y) not in found:
            return _reject(PHASE_COLLECT, f"edge {norm_edge(x, y)} has no certificate")

    pop_table: dict[int, PopCertificate] = {}
    for ec in found.values():
        for k, pc in ec.bindings():
            held = pop_table.get(k)
            if held is not None and held != pc:
                return _reject(PHASE_COLLECT, f"conflicting certificates for copy {k}")
            pop_table[k] = pc

    parent_nbr: int | None = None
    parent_sides: tuple[int, int] | None = None
    child_spans: list[tuple[int, int]] = []
    chord_certs: list[EdgeCertificate] = []
    side_count: dict[int, int] = {}
    for e, ec in sorted(found.items()):
        other = e[0] if e[1] == x else e[1]
        if not ec.is_tree():
            chord_certs.append(ec)
            continue
        xs = ec.side_indices(x)
        ys = ec.side_indices(other)
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
    for ec in chord_certs:
        mine = ec.i if ec.id_x == x else ec.j
        partner = ec.j if ec.id_x == x else ec.i
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
    child_spans.sort()
    if not child_spans:
        if len(copies) != 1:
            return _reject(PHASE_TREE, "childless node visited more than once")
    else:
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
        code = pop_verify_node(k, own_pc, nbr)
        if code is not None:
            return _reject(PHASE_POP, f"copy {k}: {REJECT_REASONS[code]}")
    return _accept()


# --- the wire layout -----------------------------------------------------------


class Field(NamedTuple):
    """One field of the wire layout: width in bits, legal values lo..hi."""

    name: str
    width: int
    lo: int
    hi: int
    value: int


def _walk(
    field, id_bits: int, idx_bits: int, cert: NodeCertificate | None = None
) -> NodeCertificate:
    """The wire layout, stated once: every field in order, with its legal range.

    ``field(name, width, lo, hi, value)`` is called once per field and returns
    the value the field takes; ``value`` is the field's value in ``cert``, or
    None when there is no certificate to read it from.  The walk rebuilds a
    certificate from the returned values and refills what the wire leaves
    out, all values the verifier would force anyway:

    - each interval certificate's instance size (2n - 1) and rank (its copy
      index);
    - a chord's second slot pair, which repeats its first;
    - in a tree edge, the copy at the far end of each tour step, which is
      next to the near one: a step bit says whether it comes after it.

    Node ids take ``id_bits``; the node count, distance, tour indices and
    interval endpoints take ``idx_bits``, enough for the 2n + 3 codes of an
    endpoint (-1 .. 2n + 1, stored plus one).  Edge certificates number at
    most five, so their count takes 3 bits.
    """
    ts = cert.tree_sub if cert else None
    any_id = (1, (1 << id_bits) - 1)
    count = field("count", 3, 0, MAX_EDGE_CERTS, cert and len(cert.edge_certs))
    n = field("n", idx_bits, 1, ((1 << idx_bits) - 3) // 2, cert and cert.n)
    nv = 2 * n - 1
    has_parent = field("has_parent", 1, 0, 1, ts and int(ts.parent_id is not None))
    root_id = field("root_id", id_bits, *any_id, ts and ts.root_id)
    parent_id = field("parent_id", id_bits, *any_id, ts and ts.parent_id) if has_parent else None
    dist = field("dist", idx_bits, 0, n - 1, ts and ts.dist)
    edge_certs = []
    for e in range(count):
        ec = cert.edge_certs[e] if cert else None
        id_x = field("id_x", id_bits, *any_id, ec and ec.id_x)
        id_y = field("id_y", id_bits, *any_id, ec and ec.id_y)
        held = ec.bindings() if ec else (None,) * 4
        # 0: the certificate is one chord, whose single slot pair fills both
        # slots; 1: a second pair follows (a tree edge's second tour step),
        # which takes a tour of at least two nodes.
        second = field("second", 1, 0, int(n > 1), ec and int(held[2:] != held[:2]))
        slots = []
        for s, b in enumerate(held[: 4 if second else 2]):
            if second and s % 2:
                # the far end of a tour step, next to its near end
                at = slots[-1][0]
                up = field("step", 1, int(at == 1), int(at < nv), b and int(b[0] > at))
                k = at + 2 * up - 1
            else:
                k = field("index", idx_bits, 1, nv, b and b[0])
            lo = field("lo", idx_bits, 0, nv + 3, b and b[1].lo + 1) - 1
            hi = field("hi", idx_bits, 0, nv + 3, b and b[1].hi + 1) - 1
            slots.append((k, PopCertificate(n=nv, rank=k, lo=lo, hi=hi)))
        if not second:
            slots *= 2
        (i, pop_i), (j, pop_j), (i2, pop_i2), (j2, pop_j2) = slots
        edge_certs.append(EdgeCertificate(id_x, id_y, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2))
    return NodeCertificate(
        edge_certs=tuple(edge_certs),
        tree_sub=TreeSub(root_id=root_id, parent_id=parent_id, dist=dist),
        n=n,
    )


def _width_for_codes(codes: int) -> int:
    return max(1, (codes - 1).bit_length())


def _widths(cert: NodeCertificate) -> tuple[int, int]:
    ids = [cert.tree_sub.root_id]
    if cert.tree_sub.parent_id is not None:
        ids.append(cert.tree_sub.parent_id)
    for ec in cert.edge_certs:
        ids.extend((ec.id_x, ec.id_y))
    return _width_for_codes(max(ids) + 1), _width_for_codes(2 * cert.n + 3)


def certificate_bit_fields(cert: NodeCertificate) -> tuple[Field, ...]:
    """The fields pack_certificate writes, in order, two width bytes excluded.

    The attack harness corrupts an encoded certificate through these windows.
    """
    fields: list[Field] = []

    def record(name, width, lo, hi, value):
        fields.append(Field(name, width, lo, hi, value))
        return value

    _walk(record, *_widths(cert), cert)
    return tuple(fields)


def certificate_size_bits(cert: NodeCertificate, n: int) -> int:
    """Canonical packed length in bits: the fields' widths, padding excluded."""
    return sum(f.width for f in certificate_bit_fields(cert))


def encode_fields(
    choose, id_bits: int, idx_bits: int, cert: NodeCertificate | None = None
) -> tuple[bytes, NodeCertificate]:
    """Pack the values ``choose(name, width, lo, hi, value)`` picks per field.

    Returns the bytes, two width bytes up front, and the certificate they
    decode to.
    """
    acc = nbits = 0

    def put(name, width, lo, hi, value):
        nonlocal acc, nbits
        value = choose(name, width, lo, hi, value)
        acc = (acc << width) | value
        nbits += width
        return value

    decoded = _walk(put, id_bits, idx_bits, cert)
    pad = -nbits % 8
    payload = (acc << pad).to_bytes((nbits + pad) // 8, "big")
    return bytes((id_bits, idx_bits)) + payload, decoded


def _in_range(name, width, lo, hi, value):
    if not lo <= value <= hi:
        raise ParameterError(f"cannot pack {name} = {value}: legal values are {lo}..{hi}")
    return value


def pack_certificate(cert: NodeCertificate) -> bytes:
    """Serialize to the canonical layout; unrepresentable certificates raise."""
    id_bits, idx_bits = _widths(cert)
    if id_bits > 255 or idx_bits > 255:
        raise ParameterError("identifiers too large to pack")
    data, decoded = encode_fields(_in_range, id_bits, idx_bits, cert)
    if decoded != cert:
        raise ParameterError("certificate holds a value the layout leaves out and forces")
    return data


def unpack_certificate(data: bytes) -> NodeCertificate:
    """The only way into the verifier: any out-of-range field raises FormatError."""
    if len(data) < 3:
        raise FormatError("certificate bytes too short")
    id_bits, idx_bits = data[0], data[1]
    if id_bits < 1 or idx_bits < 1:
        raise FormatError("implausible field widths")
    stream = int.from_bytes(data[2:], "big")
    total = 8 * (len(data) - 2)
    pos = 0

    def take(name, width, lo, hi, value):
        nonlocal pos
        pos += width
        if pos > total:
            raise FormatError("certificate bitstream is truncated")
        got = (stream >> (total - pos)) & ((1 << width) - 1)
        if not lo <= got <= hi:
            raise FormatError(f"{name} = {got} is outside {lo}..{hi}")
        return got

    cert = _walk(take, id_bits, idx_bits)
    tail = total - pos
    if tail >= 8 or stream & ((1 << tail) - 1):
        raise FormatError("certificate bitstream has trailing data")
    return cert
