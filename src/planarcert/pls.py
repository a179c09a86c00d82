"""One-round planarity certification: honest prover, per-node verifier, codec.

The prover embeds the graph, cuts it along a depth-first spanning tree, and
certifies path-outerplanarity of the resulting virtual path graph.  Every
graph edge gets one edge certificate carrying the tour positions of its
virtual endpoints together with their interval certificates; the certificate
is stored at one endpoint, its holder, and no node holds more than three of
them.  Holders start from a degeneracy order, where each edge goes to the
endpoint peeled first, which gives a planar graph's nodes at most five.
Which endpoint holds an edge also sets how many tour copies a certificate
names, so one search (``_held_edges``) then lowers the largest packed
certificate by path and cycle reversals along held edges.  A node holding
more than three counts as infinitely large, so overloaded nodes pass edges
on first, and three suffice because a planar graph has arboricity at most
3.  The largest size then does not hinge on one node that happens to hold
two tree edges with no copy in common.  The verifier reassembles its local
slice of the virtual graph from its own and its neighbors' certificates,
replays the interval checks for every tour copy it owns, and checks the
spanning tree and the tour around it.

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

Certificates travel as packed bits in one layout, which one reader, one
writer and one walk state.  The reader, ``unpack_certificate``, reads each
field straight off the packed integer, and the writer,
``pack_certificate_with_bits``, writes each straight off a certificate and
gives the packed size too; both check every field inline and make no call
per field.  Over the prove benchmark's 3072 certificates the writer packed
in about 0.7, and the reader decoded in about 0.6, of the time a walk with a
range-checking callback per field took.  The walk, ``_walk``, asks a
callback for each field in order and builds no certificate: it draws the
attack harness's random fields and lists the fields of packed bytes for
its field edits.

Decoding is the gate, and the only shape check: a field outside its legal
range, or past the last bit, raises FormatError, so the verifier sees only
well-formed certificates and judges what they claim.  Phase 3 hands their
intervals to ``pop_verify_node`` keyed by copy index, which the reader made
each one's rank, so that function checks no shape of its own.  The writer
checks, as it writes, each field's range and that the certificate holds
each value the layout forces, raising ParameterError otherwise.  No value
the verifier would force is sent: a chord sends its one tour index pair
once, and a flag bit tells it from a tree edge, which sends two tour steps.
Nor is an id the view already holds: an edge certificate names only its
far endpoint, and no parent is sent, as the verifier reads it off the
tree-edge certificates.

Each copy's interval goes out once per certificate, with the first slot
that names the copy; a later slot naming it sends no interval, and the
decoder refills it from the first.  This costs no soundness.  Each slot's
copy index, or the step bit that gives it, comes before its interval, so
the decoder always knows whether an interval follows, and every bit string
decodes to a certificate that the layout with every interval sent could
also carry: the one whose repeats equal their first slot.  The verifier is
unchanged, so the views it accepts can only be fewer.  Nor does it cost
completeness: the verifier reads every edge certificate of its own
certificate and rejects two slots that give one copy different intervals,
so an accepting certificate repeats each copy with the same interval.

The edge certificate count takes 2 bits, for 0..3 certificates.  This
costs no soundness either: every bit string decodes to a certificate that
the layout with a 3-bit count, for up to five, could also carry.  The
verifier does not depend on the count's width, so the views it accepts can
only be fewer.  Nor does it cost completeness, because the prover gives no
node more than three.

Certificates and verdicts are immutable named tuples (``TreeSub``,
``EdgeCertificate``, ``NodeCertificate``, ``Verdict``, and the interval
certificate ``pop.PopCertificate``).  Within one round, or one ``attack``
call, the simulator hands one decoded object to every node that sees the
same bytes, which is sound only because no field can be set.  For the same
reason every accepting node gets one shared accept ``Verdict``: no holder
can change it, verdicts compare by value, and the simulator's verdict cache
already hands one verdict object to every node with the same view.  As
tuples they compare equal to plain tuples of the same values and iterate
over their fields; ``._replace`` makes an edited copy.
"""

from __future__ import annotations

import functools
import gc
from bisect import insort
from math import inf
from typing import NamedTuple

from .embedding import NonPlanarWitness, RotationSystem, planar_embed, validate_rotation
from .errors import FormatError, NonPlanarError, ParameterError
from .graphs import Edge, Graph, degeneracy_order, norm_edge
from .pop import (
    REJECT_REASONS,
    PopCertificate,
    PopWitness,
    _new,
    pop_prove,
    pop_verify_node,
)
from .transform import dfs_mapping, induce_graph, spanning_tree_dfs

PHASE_COLLECT = 1  # recover tree / tour / virtual-graph structure
PHASE_TREE = 2  # spanning-tree and tour-consistency checks
PHASE_POP = 3  # interval checks per owned copy

#: The most edge certificates per node.  A planar graph has arboricity at
#: most 3 (Nash-Williams), so its edges orient with out-degree at most 3.
MAX_EDGE_CERTS = 3


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


#: The one accepting verdict, shared by every accepting node (module docstring).
_ACCEPT = Verdict("accept", "", PHASE_POP)


def _reject(phase: int, reason: str) -> Verdict:
    return Verdict("reject", reason, phase)


# --- honest prover ----------------------------------------------------------


def _collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector off, then restore its state.

    The prover and the round build large acyclic heaps and leave no cyclic
    garbage, so a collection inside them only walks again what they are
    building.  A caller that already has the collector off keeps it off; no
    collection is forced on the way out.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_collector_paused
def prove_planar(
    g: Graph, rot: RotationSystem | None = None
) -> dict[int, NodeCertificate]:
    """Certificates that make every node of a planar graph accept.

    With no rotation supplied the graph is embedded first; a non-planar
    input is refused with the embedder's subdivision witness attached.  A
    supplied rotation must be a planar embedding of ``g``.

    The cyclic garbage collector is paused for the call and restored on the
    way out, however the call ends.  The pause is process-wide, which is
    safe because planarcert is single-threaded.
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

    # Every edge's slots: copies of its smaller id, larger id, smaller, larger
    # end.  A tree edge's are its two tour steps, from the parent down to the
    # child's first copy a and from the child's last copy b back up.  A chord
    # repeats its one pair.
    parent = t.parent
    slots: dict[Edge, tuple[int, int, int, int]] = {}
    for c, ix in fm.copies.items():
        p = parent[c]
        if p is None:
            continue
        a, b = ix[0], ix[-1]
        if p < c:
            slots[p, c] = (a - 1, a, b + 1, b)
        else:
            slots[c, p] = (a, a - 1, b, b + 1)
    f = fm.f
    for e, (i, j) in induced.cotree_map.items():
        slots[e] = (i, j, i, j) if f[i] == e[0] else (j, i, j, i)

    # Each certificate goes to the node that holds its edge, oriented to it,
    # in ascending order of ``far``.
    held = _held_edges(g, slots, root)
    tree_sub = _new(TreeSub, (root,))
    n = g.n
    certs: dict[int, NodeCertificate] = {}
    for x, fars in held.items():
        ecs = []
        for v in fars:
            if x < v:
                i, j, i2, j2 = slots[x, v]
            else:
                j, i, j2, i2 = slots[v, x]
            ecs.append(_new(EdgeCertificate, (
                v, i, j, i2, j2, pop_certs[i], pop_certs[j], pop_certs[i2], pop_certs[j2]
            )))
        certs[x] = _new(NodeCertificate, (tuple(ecs), tree_sub, n))
    return certs


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
        return _packed_bytes(x, fars, costs, root, idx_bits)

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
) -> int:
    """``len(pack_certificate(...))`` for ``x`` holding the edges to ``fars``,
    which is not empty, from ``_edge_costs`` and the graph's ``idx_bits``.

    It restates the widths the writer writes, and a test keeps the two equal:
    a copy's ``lo`` and ``hi`` go once per certificate, a tree edge adds two
    step bits, and ``far`` and ``root_id`` take the widest id among them.
    """
    id_bits = max(root, *fars).bit_length()  # ids are positive, so at least 1
    bits = 2 + idx_bits + id_bits + len(fars) * (id_bits + 1 + 2 * idx_bits)
    copies: set[int] = set()
    for v in fars:
        c, steps = costs[(x, v) if x < v else (v, x)]
        copies.update(c)
        bits += steps
    return 2 + (bits + 2 * idx_bits * len(copies) + 7) // 8


# --- verifier ----------------------------------------------------------------


def verify_node_planarity(
    x: int,
    own: NodeCertificate,
    neighbor_certs: dict[int, NodeCertificate],
) -> Verdict:
    """One node's verdict after a single exchange of certificates.

    ``neighbor_certs`` must hold the certificate of every graph neighbor of
    ``x``, never ``x`` itself, and nothing else: the one-round view.  Every
    certificate must be well-formed, as ``unpack_certificate`` returns them:
    each field in its legal range for the node count it claims.
    """
    # Phase 1: recover the local virtual-graph slice.  Once the node counts
    # agree, every tour index lies in 1..2n-1, and the layout already put
    # both copies of each tree-edge tour step next to each other.
    own_ecs, (root_id,), n = own
    for _, _, cert_n in neighbor_certs.values():
        if cert_n != n:
            return _reject(PHASE_COLLECT, "node-count claims disagree")
    nv = 2 * n - 1

    # Each certificate of the edge (x, other), keyed by other.  x's own
    # certificates concern the edge to their far end, a neighbor's only
    # those whose far end is x, so a certificate is x's iff its far end is
    # not x.  Own certificates come first, then the neighbors' in ascending
    # id order.
    found: dict[int, EdgeCertificate] = {}
    for ec in own_ecs:
        other = ec.far
        if other not in neighbor_certs:
            e = norm_edge(x, other)
            return _reject(PHASE_COLLECT, f"certified edge {e} is not in the graph")
        if other in found:
            e = norm_edge(x, other)
            return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
        found[other] = ec
    for other in sorted(neighbor_certs):
        for ec in neighbor_certs[other].edge_certs:
            if ec.far != x:
                continue  # someone else's edge; not locally checkable
            if other in found:
                e = norm_edge(x, other)
                return _reject(PHASE_COLLECT, f"edge {e} certified more than once")
            found[other] = ec
    # found's keys are neighbors, so a missing one shows in the count
    if len(found) != len(neighbor_certs):
        for y in neighbor_certs:
            if y not in found:
                return _reject(PHASE_COLLECT, f"edge {norm_edge(x, y)} has no certificate")

    # One pass in that order registers each slot's interval, and sorts the
    # edge by x's copies (xa, xb) and the other end's (ya, yb).  A second
    # parent rejects after the pass, so conflicting intervals reject first.
    pop_table: dict[int, PopCertificate] = {}
    setdefault = pop_table.setdefault
    parents = 0
    parent_sides: tuple[int, int] | None = None  # x's copies on it, ascending
    child_spans: list[tuple[int, int]] = []
    chords: list[tuple[int, int, int]] = []  # (other, copy of x, copy of other)
    side_count: dict[int, int] = {}
    for other, (far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2) in found.items():
        # k: the first slot whose copy holds another interval (no slot tuples)
        if (held := setdefault(i, pop_i)) is not pop_i and held != pop_i:
            k = i
        elif (held := setdefault(j, pop_j)) is not pop_j and held != pop_j:
            k = j
        elif (held := setdefault(i2, pop_i2)) is not pop_i2 and held != pop_i2:
            k = i2
        elif (held := setdefault(j2, pop_j2)) is not pop_j2 and held != pop_j2:
            k = j2
        else:
            k = None
        if k is not None:
            return _reject(PHASE_COLLECT, f"conflicting certificates for copy {k}")
        xa, xb, ya, yb = (j, j2, i, i2) if far == x else (i, i2, j, j2)
        if (xb == xa and yb == ya) or (xb == ya and yb == xa):  # a chord
            chords.append((other, xa, ya))
            continue
        side_count[xa] = side_count.get(xa, 0) + 1
        side_count[xb] = side_count.get(xb, 0) + 1
        x_first, x_last = (xa, xb) if xa < xb else (xb, xa)
        y_first, y_last = (ya, yb) if ya < yb else (yb, ya)
        if y_first < x_first:
            parents += 1
            parent_sides = (x_first, x_last)
        else:
            child_spans.append((y_first, y_last))
    if parents > 1:
        return _reject(PHASE_COLLECT, "more than one neighbor claims parenthood")
    get = pop_table.get

    is_root_claim = parent_sides is None
    if n == 1:
        # A single node has no incident edges to carry its certificate, so
        # its lone tour copy gets the canonical full interval.
        copies = [1]
        owned = {1}
        pop_table[1] = PopCertificate(n=1, rank=1, lo=0, hi=2)
    else:
        copies = sorted(side_count)
        owned = side_count.keys()
        for k in copies:
            expected = 1 if (is_root_claim and (k == 1 or k == nv)) else 2
            if side_count[k] != expected:
                return _reject(PHASE_COLLECT, f"copy {k} lacks a certified tour step")

    chord_at: dict[int, list[int]] = {}
    for _, mine, partner in sorted(chords):  # in ascending neighbor order
        if mine not in owned:
            return _reject(PHASE_COLLECT, f"chord attached to foreign copy {mine}")
        chord_at.setdefault(mine, []).append(partner)

    # Phase 2: spanning tree and tour consistency.  Parent chains need no
    # check of their own: the tour checks make them acyclic (module docstring).
    for _, (other_root,), _ in neighbor_certs.values():
        if other_root != root_id:
            return _reject(PHASE_TREE, "root identity disagrees with a neighbor")
    if is_root_claim and root_id != x:
        return _reject(PHASE_TREE, "node without a parent is not the claimed root")
    # Every copy lies in 1..nv, so the sorted copies hold both tour endpoints
    # iff they run from 1 to nv; a parent edge names copies of x, so it
    # brackets them iff its two copies are the first and the last.
    if is_root_claim and not (copies and copies[0] == 1 and copies[-1] == nv):
        return _reject(PHASE_TREE, "root does not own the tour endpoints")
    if parent_sides is not None and parent_sides != (copies[0], copies[-1]):
        return _reject(PHASE_TREE, "parent edge does not bracket the first and last visits")
    # A childless node has one copy already: phase 1 rejects a parent edge
    # naming two copies, and the root check a root claim without tree edges.
    child_spans.sort()
    if child_spans:
        for (_, a_max), (b_min, _) in zip(child_spans, child_spans[1:]):
            if b_min != a_max + 2:
                return _reject(PHASE_TREE, "children subtours are not contiguous")
        # contiguous spans make these visits ascending, so they compare with
        # the sorted copies as a list
        expected_copies = [child_spans[0][0] - 1] + [b_max + 1 for _, b_max in child_spans]
        if copies != expected_copies:
            return _reject(PHASE_TREE, "visits do not interleave the children subtours")

    # Phase 3: interval checks for every owned copy.  Tour neighbors k ± 1
    # enter nbr when a certificate names them (no copy is 0 or nv + 1), and
    # pop_verify_node rejects a missing one as a path-structure fault.
    for k in copies:
        nbr: dict[int, PopCertificate] = {}
        pc = get(k - 1)
        if pc is not None:
            nbr[k - 1] = pc
        pc = get(k + 1)
        if pc is not None:
            nbr[k + 1] = pc
        for partner in chord_at.get(k, ()):
            nbr[partner] = pop_table[partner]
        code = pop_verify_node(pop_table[k], nbr)
        if code is not None:
            return _reject(PHASE_POP, f"copy {k}: {REJECT_REASONS[code]}")
    return _ACCEPT


# --- the wire layout -----------------------------------------------------------


class Field(NamedTuple):
    """One field of the wire layout: width in bits, legal values lo..hi."""

    name: str
    width: int
    lo: int
    hi: int
    value: int


def _walk(field, id_bits: int, idx_bits: int) -> int:
    """The wire layout: every field in order, with its legal range.

    ``field(name, width, lo, hi)`` is called once per field and returns the
    value the field takes, drawn or read back from bytes; the walk returns
    the values packed, each in its field's width, after a leading 1 bit that
    marks where the fields begin.  It draws the attack harness's random
    fields (``encode_fields``) and lists a packed certificate's fields
    (``certificate_bit_fields``), and builds no certificate.  The writer,
    ``pack_certificate_with_bits``, and the reader, ``unpack_certificate``,
    write and read the same fields in the same order, and a change to the
    layout changes all three.

    The wire leaves out every value the verifier would force anyway:

    - each interval certificate's instance size (2n - 1) and rank (its copy
      index);
    - a chord's second slot pair, which repeats its first;
    - in a tree edge, the copy at the other end of each tour step, which is
      next to the near one: a step bit says whether it comes after it;
    - the interval of a copy that an earlier slot of the same certificate
      already named: only a copy's first slot sends ``lo`` and ``hi``.

    Nor are two ids the verifier reads off its view: an edge certificate's
    holder, so it sends one id (``far``), and the tree parent.  So decoding
    does not depend on which node holds the certificate.

    Node ids take ``id_bits``; the node count, tour indices and
    interval endpoints take ``idx_bits``, enough for the 2n + 3 codes of an
    endpoint (-1 .. 2n + 1, stored plus one).  Edge certificates number at
    most three, so their count takes 2 bits.
    """
    top_id = (1 << id_bits) - 1
    count = field("count", 2, 0, MAX_EDGE_CERTS)
    n = field("n", idx_bits, 1, ((1 << idx_bits) - 3) // 2)
    nv = 2 * n - 1
    root_id = field("root_id", id_bits, 1, top_id)
    acc = ((1 << 2 | count) << idx_bits | n) << id_bits | root_id  # the leading 1 bit first
    sent: set[int] = set()  # copies whose interval went out
    for _ in range(count):
        far = field("far", id_bits, 1, top_id)
        # 0: the certificate is one chord, whose single slot pair fills both
        # slots; 1: a second pair follows (a tree edge's second tour step),
        # which takes a tour of at least two nodes.
        second = field("second", 1, 0, 1 if n > 1 else 0)
        acc = (acc << id_bits | far) << 1 | second
        k = 0
        for s in range(4 if second else 2):
            if second and s & 1:
                # the far end of a tour step, next to its near end k
                up = field("step", 1, 1 if k == 1 else 0, 1 if k < nv else 0)
                k += 2 * up - 1
                acc = acc << 1 | up
            else:
                k = field("index", idx_bits, 1, nv)
                acc = acc << idx_bits | k
            if k not in sent:
                lo = field("lo", idx_bits, 0, nv + 3)
                hi = field("hi", idx_bits, 0, nv + 3)
                acc = (acc << idx_bits | lo) << idx_bits | hi
                sent.add(k)
    return acc


def _field_widths(top_id: int, n: int) -> tuple[int, int]:
    """``id_bits`` for ids up to ``top_id``, ``idx_bits`` for node count ``n``."""
    return max(1, top_id.bit_length()), max(1, (2 * n + 2).bit_length())


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

    The writer packs ``cert``, and the walk reads the bytes back, so
    the listing names the fields the writer wrote, with the values it wrote.
    The attack harness corrupts an encoded certificate through these windows.
    A certificate the writer refuses raises ParameterError here too.
    """
    data = pack_certificate_with_bits(cert)[0]
    stream = int.from_bytes(data[2:], "big")
    rest = 8 * (len(data) - 2)  # bits not yet read
    fields: list[Field] = []

    def record(name, width, lo, hi):
        nonlocal rest
        rest -= width
        value = (stream >> rest) & ((1 << width) - 1)
        fields.append(_new(Field, (name, width, lo, hi, value)))
        return value

    _walk(record, data[0], data[1])
    return tuple(fields)


def certificate_size_bits(cert: NodeCertificate) -> int:
    """Canonical packed length in bits: the fields' widths, padding excluded."""
    return pack_certificate_with_bits(cert)[1]


def _wire_bytes(acc: int, id_bits: int, idx_bits: int) -> tuple[bytes, int]:
    """Fields packed after a leading 1 bit, as bytes with the two width bytes
    up front, and the fields' total width in bits, padding excluded."""
    nbits = acc.bit_length() - 1  # the leading 1 bit is no field
    pad = -nbits % 8
    # padded, the leading 1 bit fills a byte of its own, which is dropped
    payload = (acc << pad).to_bytes((nbits + pad) // 8 + 1, "big")[1:]
    return bytes((id_bits, idx_bits)) + payload, nbits


def encode_fields(choose, id_bits: int, idx_bits: int) -> tuple[bytes, int]:
    """Pack the values ``choose(name, width, lo, hi)`` picks per field.

    The walk asks ``choose`` for each field in layout order.  Returns
    the bytes, two width bytes up front, and the fields' total width in
    bits, padding excluded.  No certificate object is built.
    """
    return _wire_bytes(_walk(choose, id_bits, idx_bits), id_bits, idx_bits)


def _out_of_range(name: str, value: int, lo: int, hi: int) -> ParameterError:
    return ParameterError(f"cannot pack {name} = {value}: legal values are {lo}..{hi}")


def pack_certificate_with_bits(cert: NodeCertificate) -> tuple[bytes, int]:
    """``pack_certificate``'s bytes and ``certificate_size_bits``: the writer.

    It writes the fields of the layout ``_walk`` lists, in the same order,
    straight off ``cert``, and builds no certificate object.  As it writes,
    it checks each field's legal range, and that ``cert`` holds every value
    the layout forces, raising ParameterError on one the layout cannot
    carry: a field outside its range, a slot whose copy index is not the
    one derived from the step bit, an interval certificate whose size or
    rank is not the forced one, or a copy repeated with another interval
    than its first slot's.
    """
    edge_certs, (root_id,), n = cert
    top_id = root_id
    for ec in edge_certs:
        if ec[0] > top_id:
            top_id = ec[0]
    id_bits, idx_bits = _field_widths(top_id, n)
    if id_bits > 255 or idx_bits > 255:
        raise ParameterError("identifiers too large to pack")
    top_id = (1 << id_bits) - 1
    count = len(edge_certs)
    if count > MAX_EDGE_CERTS:
        raise _out_of_range("count", count, 0, MAX_EDGE_CERTS)
    top_n = ((1 << idx_bits) - 3) // 2
    if not 1 <= n <= top_n:
        raise _out_of_range("n", n, 1, top_n)
    if not 1 <= root_id <= top_id:
        raise _out_of_range("root_id", root_id, 1, top_id)
    nv = 2 * n - 1
    top_end = nv + 3
    acc = ((1 << 2 | count) << idx_bits | n) << id_bits | root_id  # the leading 1 bit first
    sent: dict[int, PopCertificate] = {}  # copy index -> its first slot's interval
    for far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2 in edge_certs:
        if not 1 <= far <= top_id:
            raise _out_of_range("far", far, 1, top_id)
        # each slot's copy, its interval, and whether a step bit names it
        if i2 == i and j2 == j and pop_i2 == pop_i and pop_j2 == pop_j:
            second = 0
            slots = ((i, pop_i, False), (j, pop_j, False))
        else:
            second = 1
            if n == 1:
                raise _out_of_range("second", 1, 0, 0)
            slots = ((i, pop_i, False), (j, pop_j, True), (i2, pop_i2, False), (j2, pop_j2, True))
        acc = (acc << id_bits | far) << 1 | second
        k = 0
        for held_k, held_pc, step in slots:
            if step:  # the copy next to k: after it unless k is the last copy,
                if held_k > k:
                    if k >= nv:
                        raise _out_of_range("step", 1, int(k == 1), 0)
                    k += 1
                    acc = acc << 1 | 1
                else:  # before it unless k is the first
                    if k == 1:
                        raise _out_of_range("step", 0, 1, int(k < nv))
                    k -= 1
                    acc <<= 1
            else:
                if not 1 <= held_k <= nv:
                    raise _out_of_range("index", held_k, 1, nv)
                k = held_k
                acc = acc << idx_bits | k
            pc_n, pc_rank, pc_lo, pc_hi = held_pc
            if held_k != k or pc_n != nv or pc_rank != k:
                raise ParameterError(
                    f"cannot pack copy {held_k} with interval size {pc_n} and rank "
                    f"{pc_rank}: the layout forces copy {k}, size {nv} and rank {k}"
                )
            pc = sent.get(k)
            if pc is None:
                lo, hi = pc_lo + 1, pc_hi + 1
                if not 0 <= lo <= top_end:
                    raise _out_of_range("lo", lo, 0, top_end)
                if not 0 <= hi <= top_end:
                    raise _out_of_range("hi", hi, 0, top_end)
                acc = (acc << idx_bits | lo) << idx_bits | hi
                sent[k] = held_pc
            elif pc is not held_pc and pc != held_pc:
                raise ParameterError(
                    f"cannot pack copy {k} with two intervals, {pc} and {held_pc}: "
                    "the layout sends a copy's interval once per certificate"
                )
    return _wire_bytes(acc, id_bits, idx_bits)


def pack_certificate(cert: NodeCertificate) -> bytes:
    """Serialize to the canonical layout; unrepresentable certificates raise."""
    return pack_certificate_with_bits(cert)[0]


def unpack_certificate(data: bytes) -> NodeCertificate:
    """The only way into the verifier, and the reader: bytes to a certificate.

    It reads the fields of the layout ``_walk`` lists, in the same order,
    straight off the packed integer, and refills what the wire leaves out;
    a repeated copy shares its first slot's interval object.  Each field is
    checked as it is read, first that the bytes hold it and then that it
    lies in its legal range, so any malformed bytes raise FormatError, with
    the text of the first field that fails: a field past the last bit makes
    its shift raise ValueError (a negative count) before its range check,
    and one ``except`` refuses it as truncated.  Bytes left over after the
    last field, beyond zero padding to a byte, raise FormatError too.  Each
    interval certificate it returns has its copy index, in 1..2n - 1, as
    its rank and 2n - 1 as its size, as ``pop_verify_node`` requires.
    """
    if len(data) < 3:
        raise FormatError("certificate bytes too short")
    id_bits, idx_bits = data[0], data[1]
    if id_bits < 1 or idx_bits < 1:
        raise FormatError("implausible field widths")
    stream = int.from_bytes(data[2:], "big")
    # bits not yet read; count's 2 bits always fit in the first byte
    rest = 8 * (len(data) - 2) - 2
    count = stream >> rest
    top_id = (1 << id_bits) - 1  # also the mask of an id field
    mask = (1 << idx_bits) - 1  # of an index field
    try:
        rest -= idx_bits
        n = stream >> rest & mask
        top_n = (mask - 2) // 2
        if not 1 <= n <= top_n:
            raise FormatError(f"n = {n} is outside 1..{top_n}")
        rest -= id_bits
        root_id = stream >> rest & top_id
        if not root_id:
            raise FormatError(f"root_id = 0 is outside 1..{top_id}")
        nv = 2 * n - 1
        top_end = nv + 3
        sent: dict[int, PopCertificate] = {}  # copy index -> its first slot's interval
        edge_certs = []
        for _ in range(count):
            rest -= id_bits
            far = stream >> rest & top_id
            if not far:
                raise FormatError(f"far = 0 is outside 1..{top_id}")
            rest -= 1
            second = stream >> rest & 1
            if second and n == 1:
                raise FormatError("second = 1 is outside 0..0")
            slots = []  # each slot's copy index, then its interval certificate
            k = 0
            for step in ((0, 1, 0, 1) if second else (0, 0)):
                if step:  # the far end of a tour step, next to its near end k
                    rest -= 1
                    if stream >> rest & 1:  # after it unless k is the last copy
                        if k >= nv:
                            raise FormatError(f"step = 1 is outside {int(k == 1)}..0")
                        k += 1
                    else:  # before it unless k is the first
                        if k == 1:
                            raise FormatError(f"step = 0 is outside 1..{int(k < nv)}")
                        k -= 1
                else:
                    rest -= idx_bits
                    k = stream >> rest & mask
                    if not 1 <= k <= nv:
                        raise FormatError(f"index = {k} is outside 1..{nv}")
                pc = sent.get(k)
                if pc is None:
                    rest -= idx_bits
                    lo = stream >> rest & mask
                    if lo > top_end:
                        raise FormatError(f"lo = {lo} is outside 0..{top_end}")
                    rest -= idx_bits
                    hi = stream >> rest & mask
                    if hi > top_end:
                        raise FormatError(f"hi = {hi} is outside 0..{top_end}")
                    pc = sent[k] = _new(PopCertificate, (nv, k, lo - 1, hi - 1))
                slots.append(k)
                slots.append(pc)
            if not second:
                slots *= 2
            i, pop_i, j, pop_j, i2, pop_i2, j2, pop_j2 = slots
            edge_certs.append(_new(EdgeCertificate, (far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2)))
    except FormatError:
        raise
    except ValueError:  # "negative shift count": a field runs past the last bit
        raise FormatError("certificate bitstream is truncated") from None
    if rest >= 8 or stream & ((1 << rest) - 1):
        raise FormatError("certificate bitstream has trailing data")
    return _new(NodeCertificate, (tuple(edge_certs), _new(TreeSub, (root_id,)), n))
