"""One-round planarity certification: honest prover, per-node verifier, codec.

The prover embeds the graph, cuts it along a depth-first spanning tree, and
certifies path-outerplanarity of the resulting virtual path graph.  Every
graph edge gets one edge certificate carrying the tour positions of its
virtual endpoints together with their interval certificates; the certificate
is stored at the endpoint that comes first in a degeneracy order, so no node
holds more than five of them.  The verifier reassembles its local slice of
the virtual graph from its own and its neighbors' certificates, replays the
interval checks for every tour copy it owns, and checks the spanning tree
and the tour around it.

No certificate carries a tree depth, because the tour checks already make
parent pointers acyclic.  Let x be an accepting node with parent p, where
the parent is the tree-edge neighbor whose copy on the shared edge comes
first.  The bracket check makes x's copies on that edge its first and last
copies, so p's copy on the edge comes before x's first copy.  p reads the
same certificate and counts that copy among its own, so
first(p) < first(x).  First copies strictly fall along every parent chain,
so no chain cycles, and each one ends at a parentless node.  Such a node
must be the root it claims, and root identities agree across every edge of
a connected graph, so when every node accepts there is exactly one root.

Certificates travel as packed bits in one layout, stated once in ``_walk``:
it drives packing, unpacking, the size count and the attack harness's
forging and field edits.  Decoding is the gate: a field outside its legal
range raises FormatError, so the verifier sees only well-formed
certificates and judges what they claim.  Decoding is also the only walk
that builds certificate objects; packing writes the fields in one walk and
checks, as it writes them, that the certificate holds each value the layout
forces, raising ParameterError otherwise.  No value the verifier would force
is sent: a chord sends its one tour index pair once, and a flag bit tells it
from a tree edge, which sends two tour steps.  Nor is an id the view already
holds: an edge certificate names only its far endpoint, and no parent is
sent, as the verifier reads it off the tree-edge certificates.

Certificates and verdicts are immutable named tuples (``TreeSub``,
``EdgeCertificate``, ``NodeCertificate``, ``Verdict``, and the interval
certificate ``pop.PopCertificate``).  The simulator hands one decoded object
to every node and round that sees the same bytes, which is sound only
because no field can be set.  As tuples they compare equal to plain tuples
of the same values and iterate over their fields; ``._replace`` makes an
edited copy.
"""

from __future__ import annotations

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


class TreeSub(NamedTuple):
    """Spanning-tree sub-certificate: the claimed root's id, and no depth."""

    root_id: int


class EdgeCertificate(NamedTuple):
    """Everything one graph edge contributes to the virtual path graph.

    A tree edge is traversed twice by the tour and owns two distinct virtual
    path edges; a non-tree edge owns a single chord, repeated in both slots
    here and sent once on the wire.
    The certificate belongs to one endpoint of the edge, its holder, and
    names only the other one, ``far``.  Indices ``i``/``i2`` are copies of
    the holder and ``j``/``j2`` copies of ``far``; each index comes with the
    interval certificate of that copy.
    """

    far: int
    i: int
    j: int
    i2: int
    j2: int
    pop_i: PopCertificate
    pop_j: PopCertificate
    pop_i2: PopCertificate
    pop_j2: PopCertificate

    def is_tree(self) -> bool:
        # a chord names one slot pair twice, in either orientation
        return (self.i2, self.j2) not in ((self.i, self.j), (self.j, self.i))

    def bindings(self) -> tuple[tuple[int, PopCertificate], ...]:
        return (
            (self.i, self.pop_i),
            (self.j, self.pop_j),
            (self.i2, self.pop_i2),
            (self.j2, self.pop_j2),
        )


class NodeCertificate(NamedTuple):
    """What one node receives: its assigned edge certificates plus tree data."""

    edge_certs: tuple[EdgeCertificate, ...]
    tree_sub: TreeSub
    n: int


class Verdict(NamedTuple):
    """One node's decision, the check that decided it, and that check's phase."""

    decision: str  # "accept" | "reject"
    reason: str
    phase: int

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def _accept() -> Verdict:
    return Verdict("accept", "", PHASE_POP)


def _reject(phase: int, reason: str) -> Verdict:
    return Verdict("reject", reason, phase)


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

    # One pass over the tour: each tree edge's two steps, as (copy of the
    # smaller id, copy of the larger id) in tour order.
    f = fm.f
    steps: dict[Edge, list[tuple[int, int]]] = {}
    for k in range(1, nv):
        a, b = f[k], f[k + 1]  # real tour positions: never the anchor
        steps.setdefault(norm_edge(a, b), []).append((k, k + 1) if a < b else (k + 1, k))

    # One pass over the edges, in ascending order: each certificate goes to
    # the endpoint that comes first in the degeneracy order, oriented to it.
    # Every node's certificates thus come in ascending order of ``far``.
    position = degeneracy_order(g).position()
    mine: dict[int, list[EdgeCertificate]] = {x: [] for x in g.nodes()}
    for u, v in g.edges():
        if (u, v) in steps:
            (i, j), (i2, j2) = steps[(u, v)]
        else:
            ci, cj = induced.cotree_map[(u, v)]
            i, j = (ci, cj) if f[ci] == u else (cj, ci)
            i2, j2 = i, j
        if position[v] < position[u]:
            u, v, i, j, i2, j2 = v, u, j, i, j2, i2
        ec = EdgeCertificate(v, i, j, i2, j2, pop_certs[i], pop_certs[j], pop_certs[i2], pop_certs[j2])
        mine[u].append(ec)

    tree_sub = TreeSub(root_id=root)
    return {
        x: NodeCertificate(edge_certs=tuple(ecs), tree_sub=tree_sub, n=g.n)
        for x, ecs in mine.items()
    }


# --- verifier: spanning-tree sub-check ---------------------------------------


def verify_spanning_tree_sub(
    x: int,
    own: TreeSub,
    neighbor_subs: dict[int, TreeSub],
    parent_id: int | None,
) -> str | None:
    """Root agreement, and only the root goes parentless; None means accept.

    ``parent_id`` is the parent derived from the edge certificates (None for
    a node claiming to be the root).  Parent chains need no check here: the
    tour checks already make them acyclic (see the module docstring).
    """
    for sub in neighbor_subs.values():
        if sub.root_id != own.root_id:
            return "root identity disagrees with a neighbor"
    if parent_id is None and own.root_id != x:
        return "node without a parent is not the claimed root"
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
    n = own.n
    for cert in neighbor_certs.values():
        if cert.n != n:
            return _reject(PHASE_COLLECT, "node-count claims disagree")
    nv = 2 * n - 1

    # Each certificate of the edge (x, other), keyed by other, with the
    # copies of x and those of other: x's own certificates concern the edge
    # to their far end, a neighbor's only those whose far end is x.  Own
    # certificates come first, then the neighbors' in ascending id order.
    found: dict[int, tuple[EdgeCertificate, tuple[int, int], tuple[int, int]]] = {}
    for ec in own.edge_certs:
        other = ec.far
        if other not in neighbor_certs:
            e = norm_edge(x, other)
            return _reject(PHASE_COLLECT, f"certified edge {e} is not in the graph")
        if other in found:
            e = norm_edge(x, other)
            return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
        found[other] = (ec, (ec.i, ec.i2), (ec.j, ec.j2))
    for other in sorted(neighbor_certs):
        for ec in neighbor_certs[other].edge_certs:
            if ec.far != x:
                continue  # someone else's edge; not locally checkable
            if other in found:
                e = norm_edge(x, other)
                return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
            found[other] = (ec, (ec.j, ec.j2), (ec.i, ec.i2))
    for y in neighbor_certs:
        if y not in found:
            return _reject(PHASE_COLLECT, f"edge {norm_edge(x, y)} has no certificate")

    pop_table: dict[int, PopCertificate] = {}
    for ec, _, _ in found.values():
        _, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2 = ec
        for k, pc in ((i, pop_i), (j, pop_j), (i2, pop_i2), (j2, pop_j2)):
            if pop_table.setdefault(k, pc) != pc:
                return _reject(PHASE_COLLECT, f"conflicting certificates for copy {k}")

    parent_nbr: int | None = None
    parent_sides: tuple[int, int] | None = None
    child_spans: list[tuple[int, int]] = []
    chords: list[tuple[int, int]] = []  # (copy of x, copy of the other end)
    side_count: dict[int, int] = {}
    for other in sorted(found):
        ec, xs, ys = found[other]
        if (ec.i2, ec.j2) in ((ec.i, ec.j), (ec.j, ec.i)):  # not ec.is_tree()
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
    field,
    id_bits: int,
    idx_bits: int,
    cert: NodeCertificate | None = None,
    build: bool = False,
) -> NodeCertificate | None:
    """The wire layout, stated once: every field in order, with its legal range.

    ``field(name, width, lo, hi, value)`` is called once per field and returns
    the value the field takes; ``value`` is the field's value in ``cert``, or
    None when there is no certificate to read it from.  The wire leaves out
    every value the verifier would force anyway:

    - each interval certificate's instance size (2n - 1) and rank (its copy
      index);
    - a chord's second slot pair, which repeats its first;
    - in a tree edge, the copy at the other end of each tour step, which is
      next to the near one: a step bit says whether it comes after it.

    Nor are two ids the verifier reads off its view: an edge certificate's
    holder, so it sends one id (``far``), and the tree parent.  So decoding
    does not depend on which node holds the certificate.

    Given a certificate, the walk checks the forced values as it goes and
    raises ParameterError on one the layout cannot carry: a slot whose copy
    index is not the one written or derived from the step bit, or whose
    interval certificate's size or rank is not the forced one.  With
    ``build=True`` it rebuilds a certificate from the returned values,
    refilling what the wire leaves out; otherwise it returns None.  Only
    decoding builds.

    Node ids take ``id_bits``; the node count, tour indices and
    interval endpoints take ``idx_bits``, enough for the 2n + 3 codes of an
    endpoint (-1 .. 2n + 1, stored plus one).  Edge certificates number at
    most five, so their count takes 3 bits.
    """
    any_id = (1, (1 << id_bits) - 1)
    count = field("count", 3, 0, MAX_EDGE_CERTS, cert and len(cert.edge_certs))
    n = field("n", idx_bits, 1, ((1 << idx_bits) - 3) // 2, cert and cert.n)
    nv = 2 * n - 1
    root_id = field("root_id", id_bits, *any_id, cert and cert.tree_sub.root_id)
    edge_certs = []
    for e in range(count):
        ec = cert.edge_certs[e] if cert else None
        far = field("far", id_bits, *any_id, ec and ec.far)
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
            if b and (b[0] != k or b[1].n != nv or b[1].rank != k):
                raise ParameterError(
                    f"cannot pack copy {b[0]} with interval size {b[1].n} and rank "
                    f"{b[1].rank}: the layout forces copy {k}, size {nv} and rank {k}"
                )
            slots.append((k, PopCertificate(nv, k, lo, hi) if build else None))
        if build:
            if not second:
                slots *= 2
            (i, pop_i), (j, pop_j), (i2, pop_i2), (j2, pop_j2) = slots
            edge_certs.append(EdgeCertificate(far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2))
    if not build:
        return None
    return NodeCertificate(tuple(edge_certs), TreeSub(root_id), n)


def _field_widths(top_id: int, n: int) -> tuple[int, int]:
    """``id_bits`` for ids up to ``top_id``, ``idx_bits`` for node count ``n``."""
    return max(1, top_id.bit_length()), max(1, (2 * n + 2).bit_length())


def _widths(cert: NodeCertificate) -> tuple[int, int]:
    top_id = max([cert.tree_sub.root_id] + [ec.far for ec in cert.edge_certs])
    return _field_widths(top_id, cert.n)


def _set_field(data: bytes, fields, target: int, value: int) -> bytes:
    """Overwrite the window of ``fields[target]`` in packed bytes, width header kept."""
    offset = sum(f.width for f in fields[:target])
    width = fields[target].width
    payload = data[2:]
    shift = 8 * len(payload) - offset - width
    as_int = int.from_bytes(payload, "big") & ~(((1 << width) - 1) << shift)
    return data[:2] + (as_int | (value << shift)).to_bytes(len(payload), "big")


def certificate_bit_fields(cert: NodeCertificate) -> tuple[Field, ...]:
    """The fields pack_certificate writes, in order, two width bytes excluded.

    The attack harness corrupts an encoded certificate through these windows.
    A certificate holding a value the layout forces otherwise raises
    ParameterError, as it does in pack_certificate.
    """
    fields: list[Field] = []

    def record(name, width, lo, hi, value):
        fields.append(Field(name, width, lo, hi, value))
        return value

    _walk(record, *_widths(cert), cert)
    return tuple(fields)


def certificate_size_bits(cert: NodeCertificate) -> int:
    """Canonical packed length in bits: the fields' widths, padding excluded."""
    return sum(f.width for f in certificate_bit_fields(cert))


def encode_fields(
    choose,
    id_bits: int,
    idx_bits: int,
    cert: NodeCertificate | None = None,
) -> tuple[bytes, int]:
    """Pack the values ``choose(name, width, lo, hi, value)`` picks per field.

    Returns the bytes, two width bytes up front, and the fields' total width
    in bits, padding excluded.  No certificate object is built; given one,
    the walk checks its forced values as it writes.
    """
    acc = nbits = 0

    def put(name, width, lo, hi, value):
        nonlocal acc, nbits
        value = choose(name, width, lo, hi, value)
        acc = (acc << width) | value
        nbits += width
        return value

    _walk(put, id_bits, idx_bits, cert)
    pad = -nbits % 8
    payload = (acc << pad).to_bytes((nbits + pad) // 8, "big")
    return bytes((id_bits, idx_bits)) + payload, nbits


def _in_range(name, width, lo, hi, value):
    if not lo <= value <= hi:
        raise ParameterError(f"cannot pack {name} = {value}: legal values are {lo}..{hi}")
    return value


def pack_certificate_with_bits(cert: NodeCertificate) -> tuple[bytes, int]:
    """``pack_certificate``'s bytes and ``certificate_size_bits``, in one walk.

    The walk checks each field's range and each value the layout forces as
    it writes; it builds no certificate object.
    """
    id_bits, idx_bits = _widths(cert)
    if id_bits > 255 or idx_bits > 255:
        raise ParameterError("identifiers too large to pack")
    return encode_fields(_in_range, id_bits, idx_bits, cert)


def pack_certificate(cert: NodeCertificate) -> bytes:
    """Serialize to the canonical layout; unrepresentable certificates raise."""
    return pack_certificate_with_bits(cert)[0]


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

    cert = _walk(take, id_bits, idx_bits, build=True)
    tail = total - pos
    if tail >= 8 or stream & ((1 << tail) - 1):
        raise FormatError("certificate bitstream has trailing data")
    return cert
