"""End-to-end planarity scheme: prover, per-node verifier, sizes, packing."""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import FormatError, NonPlanarError, ParameterError
from planarcert.graphs import build_graph, degeneracy_order, generate, norm_edge, relabel
from planarcert.pls import (
    MAX_EDGE_CERTS,
    PHASE_COLLECT,
    PHASE_POP,
    PHASE_TREE,
    EdgeCertificate,
    Field,
    NodeCertificate,
    TreeSub,
    Verdict,
    _in_range,
    _set_field,
    _walk,
    _widths,
    certificate_bit_fields,
    certificate_size_bits,
    pack_certificate,
    prove_planar,
    unpack_certificate,
    verify_node_planarity,
    verify_spanning_tree_sub,
)
from planarcert.embedding import planar_embed
from planarcert.pop import PopCertificate
from planarcert.sim import planarity_verifier
from planarcert.transform import dfs_mapping, spanning_tree_dfs


def _cycle(n: int):
    return build_graph([(i, i % n + 1) for i in range(1, n + 1)])


def _path(n: int):
    return build_graph([(i, i + 1) for i in range(1, n)])


def _planar_corpus():
    rng_seeds = (7, 8, 9)
    return [
        build_graph([], nodes=[1]),
        build_graph([(1, 2)]),
        build_graph([(1, 2), (2, 3), (1, 3)]),
        _path(6),
        _cycle(6),
        generate("grid", w=3, h=3),
        generate("wheel", n=6),
        generate("tree", n=12, seed=1),
        generate("random_maximal_planar", n=14, seed=2),
        generate("random_maximal_planar", n=25, seed=5),
    ] + [generate("tree", n=9, seed=s) for s in rng_seeds]


def _verdicts(g, certs) -> dict[int, Verdict]:
    return {
        x: verify_node_planarity(x, certs[x], {y: certs[y] for y in g.neighbors(x)})
        for x in g.nodes()
    }


def _all_accept(g, certs) -> bool:
    return all(v.accepted for v in _verdicts(g, certs).values())


def _rejectors(g, certs) -> dict[int, Verdict]:
    return {x: v for x, v in _verdicts(g, certs).items() if not v.accepted}


# --- honest prover -----------------------------------------------------------


def test_honest_certificates_accept_everywhere():
    for g in _planar_corpus():
        certs = prove_planar(g)
        assert set(certs) == set(g.nodes())
        assert _all_accept(g, certs), f"rejection on corpus graph with n={g.n}"


def test_prover_refuses_nonplanar_with_witness():
    with pytest.raises(NonPlanarError) as exc:
        prove_planar(generate("complete", k=5))
    assert exc.value.witness is not None
    assert exc.value.witness.kind == "K5-subdivision"


def test_prover_refuses_disconnected():
    g = build_graph([(1, 2), (3, 4)])
    with pytest.raises(ParameterError):
        prove_planar(g)


def test_triangle_edge_classification():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    certs = prove_planar(g)
    all_ecs = [ec for c in certs.values() for ec in c.edge_certs]
    assert len(all_ecs) == 3
    tree = [ec for ec in all_ecs if ec.is_tree()]
    assert len(tree) == 2
    chord = next(ec for ec in all_ecs if not ec.is_tree())
    assert (chord.i, chord.j) == (chord.i2, chord.j2)


def test_is_tree_compares_slot_pairs_as_sets():
    pc = PopCertificate(n=7, rank=1, lo=0, hi=8)
    for i, j, i2, j2 in itertools.product(range(1, 5), repeat=4):
        ec = EdgeCertificate(2, i, j, i2, j2, pc, pc, pc, pc)
        assert ec.is_tree() == ({i, j} != {i2, j2}), (i, j, i2, j2)


def test_path_is_all_tree_edges_with_full_intervals():
    n = 6
    certs = prove_planar(_path(n))
    for cert in certs.values():
        for ec in cert.edge_certs:
            assert ec.is_tree()
            for _, pc in ec.bindings():
                assert (pc.lo, pc.hi) == (0, 2 * n)


def test_edge_cert_assignment_respects_degeneracy_bound():
    base = generate("random_maximal_planar", n=60, seed=4)
    graphs = [
        generate("grid", w=9, h=7),
        generate("tree", n=80, seed=3),
        *(generate("random_maximal_planar", n=n, seed=s) for n, s in ((100, 5), (64, 11), (200, 12))),
        relabel(base, {v: 3 * v + 7 for v in base.nodes()}),  # ids with gaps
    ]
    for g in graphs:
        certs = prove_planar(g)
        position = degeneracy_order(g).position()
        seen: dict[tuple[int, int], int] = {}
        for x, cert in certs.items():
            assert len(cert.edge_certs) <= MAX_EDGE_CERTS
            held = [ec.far for ec in cert.edge_certs]
            assert held == sorted(held), "edge certificates out of far-endpoint order"
            for ec in cert.edge_certs:
                assert g.has_edge(x, ec.far)
                e = norm_edge(x, ec.far)
                assert position[x] < position[ec.far]
                assert e not in seen, "edge certified at both endpoints"
                seen[e] = x
        assert set(seen) == set(g.edges())


def test_parent_rule_matches_prover_tree():
    g = generate("random_maximal_planar", n=30, seed=3)
    certs = prove_planar(g)
    root = min(g.nodes())
    t = spanning_tree_dfs(g, planar_embed(g), root)
    f = dfs_mapping(t).f
    for holder, cert in certs.items():
        for ec in cert.edge_certs:
            # oriented to the holder: i/i2 copy the holder, j/j2 the far end
            assert f[ec.i] == f[ec.i2] == holder
            assert f[ec.j] == f[ec.j2] == ec.far
    for x, cert in certs.items():
        assert cert.tree_sub.root_id == root
        # recover the parent the way the verifier does: among tree-edge
        # certificates of x's edges, the far end whose copies start earlier
        parents = []
        for holder, c in certs.items():
            for ec in c.edge_certs:
                if not ec.is_tree():
                    continue
                if holder == x:
                    other, xs, ys = ec.far, (ec.i, ec.i2), (ec.j, ec.j2)
                elif ec.far == x:
                    other, xs, ys = holder, (ec.j, ec.j2), (ec.i, ec.i2)
                else:
                    continue
                if min(ys) < min(xs):
                    parents.append(other)
        assert parents == ([] if x == root else [t.parent[x]])


def test_node_with_no_assigned_certs_still_verifies():
    # The last node in the degeneracy order never holds an edge certificate;
    # it must reconstruct all of its copies from its neighbors' certificates.
    g = build_graph([(1, k) for k in range(2, 8)])  # star
    certs = prove_planar(g)
    position = degeneracy_order(g).position()
    last = max(g.nodes(), key=position.__getitem__)
    assert certs[last].edge_certs == ()
    assert _all_accept(g, certs)


def test_singleton_graph():
    g = build_graph([], nodes=[4])
    certs = prove_planar(g)
    assert certs[4].n == 1 and certs[4].edge_certs == ()
    assert verify_node_planarity(4, certs[4], {}).accepted


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 18), st.integers(0, 10_000))
def test_completeness_on_random_trees(n, seed):
    g = generate("tree", n=n, seed=seed)
    assert _all_accept(g, prove_planar(g))


# --- verifier soundness against tampering ------------------------------------


@pytest.fixture(scope="module")
def tampering_setup():
    g = generate("random_maximal_planar", n=14, seed=2)
    return g, prove_planar(g)


def test_rejects_flipped_interval(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    bad = ec._replace(pop_i=ec.pop_i._replace(hi=ec.pop_i.lo))
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    # Every copy of the holder is bound by two tour steps, so the holder
    # also holds the honest interval of copy ec.i.
    reason = f"conflicting certificates for copy {ec.i}"
    assert _rejectors(g, certs)[holder] == Verdict("reject", reason, PHASE_COLLECT)


def test_rejects_deleted_edge_cert(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    far = honest[holder].edge_certs[0].far
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(edge_certs=honest[holder].edge_certs[1:])
    reason = f"edge {norm_edge(holder, far)} has no certificate"
    assert _rejectors(g, certs) == {
        holder: Verdict("reject", reason, PHASE_COLLECT),
        far: Verdict("reject", reason, PHASE_COLLECT),
    }


def test_rejects_edge_cert_stored_at_both_endpoints(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    # the same certificate, oriented to its far end
    copy = EdgeCertificate(
        holder, ec.j, ec.i, ec.j2, ec.i2, ec.pop_j, ec.pop_i, ec.pop_j2, ec.pop_i2
    )
    certs = dict(honest)
    certs[ec.far] = honest[ec.far]._replace(
        edge_certs=honest[ec.far].edge_certs + (copy,)
    )
    rej = _rejectors(g, certs)
    assert rej and all(v.phase == PHASE_COLLECT for v in rej.values())
    assert "certified more than once" in rej[holder].reason


def test_rejects_edge_cert_naming_a_non_neighbor_at_its_holder(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    stranger = next(z for z in g.nodes() if z != holder and not g.has_edge(holder, z))
    for far in (stranger, holder):
        ec = honest[holder].edge_certs[0]._replace(far=far)
        certs = dict(honest)
        certs[holder] = honest[holder]._replace(
            edge_certs=(ec,) + honest[holder].edge_certs[1:]
        )
        v = _verdicts(g, certs)[holder]
        assert not v.accepted and v.phase == PHASE_COLLECT
        assert "is not in the graph" in v.reason


def test_rejects_zeroed_certificate(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = NodeCertificate(edge_certs=(), tree_sub=TreeSub(1), n=g.n)
    assert _rejectors(g, certs)


def test_rejects_node_count_disagreement(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = honest[x]._replace(n=g.n + 1)
    rej = _rejectors(g, certs)
    assert set(rej) == {x, *g.neighbors(x)}
    assert set(rej.values()) == {Verdict("reject", "node-count claims disagree", PHASE_COLLECT)}


def test_rejects_junk_own_certificate():
    # Garbage enters as bytes; the decoder turns it into a phase-1 reject.
    v = planarity_verifier(1, b"garbage", {})
    assert not v.accepted and v.phase == PHASE_COLLECT


def test_rejects_oversized_edge_cert_list(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=honest[holder].edge_certs + (ec,) * (MAX_EDGE_CERTS + 1),
    )
    assert _rejectors(g, certs)


def test_leaf_visited_twice_is_rejected_in_phase_one():
    # A leaf's one tree edge names its copy in both tour steps.  Naming two
    # copies leaves each with one step, so phase 1 rejects before any tree
    # check could see a childless node with two copies.
    g = generate("tree", n=12, seed=4)
    honest = prove_planar(g)
    leaves = [x for x in g.nodes() if g.degree(x) == 1 and x != min(g.nodes())]
    assert leaves
    for leaf in leaves:
        (parent,) = g.neighbors(leaf)
        holder = leaf if any(ec.far == parent for ec in honest[leaf].edge_certs) else parent
        ecs = list(honest[holder].edge_certs)
        at = next(s for s, ec in enumerate(ecs) if ec.far in (leaf, parent))
        ec = ecs[at]
        slot = "i2" if holder == leaf else "j2"
        k = next(k for k in range(1, 2 * g.n) if k not in (ec.i, ec.j, ec.i2, ec.j2))
        pc = getattr(ec, "pop_" + slot)
        ecs[at] = ec._replace(**{slot: k, "pop_" + slot: pc._replace(rank=k)})
        certs = dict(honest)
        certs[holder] = honest[holder]._replace(edge_certs=tuple(ecs))
        v = _verdicts(g, certs)[leaf]
        assert not v.accepted and v.phase == PHASE_COLLECT
        assert "lacks a certified tour step" in v.reason


def test_interval_corruption_reaching_interval_phase():
    # On a path no copy is bound twice, so a flipped interval survives the
    # consistency checks and must be caught by the interval check itself.
    g = _path(5)
    honest = prove_planar(g)
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    bad = ec._replace(pop_j=ec.pop_j._replace(lo=3, hi=4))
    certs = dict(honest)
    certs[holder] = honest[holder]._replace(
        edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    rej = _rejectors(g, certs)
    assert rej and any(v.phase == PHASE_POP for v in rej.values())


def _full_interval_edge(nv: int, far: int, i: int, j: int, i2: int, j2: int) -> EdgeCertificate:
    """An edge certificate whose four copies all carry the full interval."""
    pc = {k: PopCertificate(n=nv, rank=k, lo=0, hi=nv + 1) for k in (i, j, i2, j2)}
    return EdgeCertificate(far, i, j, i2, j2, pc[i], pc[j], pc[i2], pc[j2])


#: One view per reject site that the forging strategies rarely or never
#: reach: node 1 holds every edge certificate, as (far, i, j, i2, j2), and
#: its neighbors hold none.  Tree steps name adjacent copies, so every view
#: packs and decodes unchanged.
_CRAFTED_VIEWS = [
    (3, [(2, 2, 1, 2, 3), (3, 2, 1, 2, 3)], PHASE_COLLECT,
     "more than one neighbor claims parenthood"),
    (3, [(2, 1, 2, 1, 2)], PHASE_COLLECT, "chord attached to foreign copy 1"),
    (3, [(2, 2, 3, 3, 4), (3, 2, 3, 3, 4)], PHASE_TREE, "root does not own the tour endpoints"),
    (4, [(2, 1, 2, 2, 3), (3, 1, 2, 2, 3), (4, 3, 2, 3, 4)], PHASE_TREE,
     "parent edge does not bracket the first and last visits"),
    (3, [(2, 1, 2, 2, 3), (3, 2, 3, 5, 4)], PHASE_TREE, "children subtours are not contiguous"),
    (3, [(2, 2, 1, 3, 2), (3, 2, 3, 3, 4)], PHASE_TREE,
     "visits do not interleave the children subtours"),
    (3, [(2, 2, 1, 4, 3), (3, 2, 3, 4, 3)], PHASE_POP, "no certificate for tour neighbor 5"),
]


@pytest.mark.parametrize(
    "n, edges, phase, reason", _CRAFTED_VIEWS, ids=[v[3] for v in _CRAFTED_VIEWS]
)
def test_crafted_view_reaches_its_reject_site(n, edges, phase, reason):
    nv = 2 * n - 1
    ecs = tuple(_full_interval_edge(nv, *e) for e in edges)
    # The tree data pass the spanning-tree check: the claimed parent, if
    # any, is the root.
    parent = next((ec.far for ec in ecs if min(ec.j, ec.j2) < min(ec.i, ec.i2)), None)
    tree_sub = TreeSub(parent or 1)
    own = NodeCertificate(edge_certs=ecs, tree_sub=tree_sub, n=n)
    view = {ec.far: NodeCertificate((), tree_sub, n) for ec in ecs}
    for cert in (own, *view.values()):
        assert unpack_certificate(pack_certificate(cert)) == cert
    assert verify_node_planarity(1, own, view) == Verdict("reject", reason, phase)


# --- spanning-tree sub-check in isolation ------------------------------------


def test_tree_sub_accepts_honest_path():
    # path 1-2-3-4-5 rooted at 1
    for x in range(1, 6):
        nbrs = {y: TreeSub(1) for y in (x - 1, x + 1) if 1 <= y <= 5}
        parent = x - 1 if x > 1 else None
        assert verify_spanning_tree_sub(x, TreeSub(1), nbrs, parent) is None


def test_tree_sub_rejects_root_identity_conflict():
    own = TreeSub(1)
    nbr = {2: TreeSub(2)}
    assert verify_spanning_tree_sub(1, own, nbr, None) is not None


def test_tree_sub_rejects_false_root_claim():
    assert verify_spanning_tree_sub(3, TreeSub(1), {}, None) is not None


@pytest.mark.parametrize("k", [3, 4])
def test_no_tour_indices_let_a_cycle_of_tree_edges_pass_phase_2(k):
    # A k-cycle whose every edge holds a tree-edge certificate is no tree, so
    # no choice of tour indices and root may get every node past phase 2.
    # Node x holds the certificate of edge (x, x % k + 1); its verdict reads
    # only the certificates of its own two edges, so the search goes over
    # per-node pass tables and is exhaustive: a fooling assignment is a
    # closed walk through them.  Copies carry the full interval, so no two
    # ever conflict.  At node x the verifier compares root ids only with
    # each other and with x, so one table for root x and one for any other
    # root cover every root, k + 1 (no node) included.
    nv = 2 * k - 1
    steps = [(c, c + d) for c in range(1, nv + 1) for d in (-1, 1) if 1 <= c + d <= nv]
    options = [(a, b) for a in steps for b in steps if b not in (a, a[::-1])]
    assert len(options) == {3: 48, 4: 120}[k]
    nxt = {x: x % k + 1 for x in range(1, k + 1)}
    prv = {y: x for x, y in nxt.items()}

    def passing(x, root):
        """For each option x holds, the options of its left edge, held by
        prv[x], with which x gets past phase 2."""
        cert = {
            (y, o): NodeCertificate(
                (_full_interval_edge(nv, nxt[y], *o[0], *o[1]),), TreeSub(root), k
            )
            for y in (prv[x], x, nxt[x])
            for o in options
        }
        far = cert[nxt[x], options[0]]  # its edge's far end is not x
        return {
            right: {
                left
                for left in options
                if verify_node_planarity(
                    x, cert[x, right], {prv[x]: cert[prv[x], left], nxt[x]: far}
                ).phase
                == PHASE_POP
            }
            for right in options
        }

    as_root = {x: passing(x, x) for x in nxt}
    not_root = {x: passing(x, k + 1) for x in nxt}
    # Each node alone can be fooled, so the search below is not vacuous.
    assert all(any(table.values()) for table in not_root.values())
    for root in range(1, k + 2):
        tables = {x: as_root[x] if x == root else not_root[x] for x in nxt}
        for last in options:
            # the options of edge (x, x + 1) that extend a passing walk from
            # edge (k, 1) = last through nodes 1..x
            reach = {last}
            for x in range(1, k + 1):
                reach = {o for o in options if tables[x][o] & reach}
            assert last not in reach, f"root {root}: a parent cycle passes phase 2"
    for o in options:  # every option is a certificate the wire carries
        cert = NodeCertificate((_full_interval_edge(nv, 2, *o[0], *o[1]),), TreeSub(1), k)
        assert unpack_certificate(pack_certificate(cert)) == cert


# --- certificate size --------------------------------------------------------


def test_size_formula_matches_packed_length():
    for g in _planar_corpus():
        certs = prove_planar(g)
        for cert in certs.values():
            packed_bits = (len(pack_certificate(cert)) - 2) * 8
            stated = certificate_size_bits(cert)
            assert stated <= packed_bits < stated + 8


def test_size_within_log_bound_on_small_graphs():
    for g in _planar_corpus():
        if g.n < 2:
            continue
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c) for c in certs.values())
        assert worst <= 150 * math.log2(g.n)


def test_size_grows_logarithmically_on_grids():
    ratios = []
    for side in (4, 8, 16, 32):
        g = generate("grid", w=side, h=side)
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c) for c in certs.values())
        ratios.append(worst / math.log2(g.n))
    assert ratios == sorted(ratios, reverse=True), "bits per log2(n) crept up"
    assert ratios[0] <= 75


# --- packing -----------------------------------------------------------------


def test_pack_round_trip_on_corpus():
    for g in _planar_corpus():
        for cert in prove_planar(g).values():
            data = pack_certificate(cert)
            again = unpack_certificate(data)
            assert again == cert
            assert pack_certificate(again) == data


def test_pack_rejects_malformed():
    with pytest.raises(ParameterError):
        pack_certificate(NodeCertificate(edge_certs=(), tree_sub=TreeSub(0), n=2))


def test_unpack_rejects_truncation_and_trailing_junk():
    cert = prove_planar(build_graph([(1, 2), (2, 3), (1, 3)]))[1]
    data = pack_certificate(cert)
    with pytest.raises(FormatError):
        unpack_certificate(data[:3])
    with pytest.raises(FormatError):
        unpack_certificate(data + b"\xff")
    with pytest.raises(FormatError):
        unpack_certificate(b"")


def test_unpack_rejects_zero_widths():
    with pytest.raises(FormatError):
        unpack_certificate(b"\x00\x04\x00\x00")


def _index_fields(fields: tuple[Field, ...]) -> int:
    return sum(f.name in ("index", "lo", "hi") for f in fields)


def test_wire_leaves_out_forced_fields():
    # Per certificate: the root's id but no parent.  Per edge certificate:
    # one id, its far end's, and a one-bit flag.  A chord then sends
    # (index, lo, hi) for both of its copies; a tree edge sends them for the
    # holder's copy of each tour step and (step bit, lo, hi) for the far
    # end's copy next to it.
    g = generate("random_maximal_planar", n=25, seed=5)
    layout = {"count", "n", "root_id", "far", "second", "index", "step", "lo", "hi"}
    for cert in prove_planar(g).values():
        fields = certificate_bit_fields(cert)
        names = [f.name for f in fields]
        tree = sum(ec.is_tree() for ec in cert.edge_certs)
        chords = len(cert.edge_certs) - tree
        assert set(names) <= layout
        assert names.count("root_id") == 1
        assert names.count("far") == names.count("second") == len(cert.edge_certs)
        assert names.count("step") == 2 * tree
        assert _index_fields(fields) == 10 * tree + 6 * chords
        assert all(f.lo <= f.value <= f.hi for f in fields)


def test_pack_refuses_a_tree_edge_off_the_tour():
    g = _path(4)
    cert = next(c for c in prove_planar(g).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    far = ec.i + 3 if ec.i + 3 <= 2 * g.n - 1 else ec.i - 3
    bad = ec._replace(j=far, pop_j=ec.pop_j._replace(rank=far))
    with pytest.raises(ParameterError):
        pack_certificate(cert._replace(edge_certs=(bad,) + cert.edge_certs[1:]))


def test_unpack_refills_forced_values():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    for cert in prove_planar(g).values():
        again = unpack_certificate(pack_certificate(cert))
        for ec in again.edge_certs:
            for k, pc in ec.bindings():
                assert (pc.n, pc.rank) == (2 * g.n - 1, k)
            if not ec.is_tree():
                assert ec.bindings()[2:] == ec.bindings()[:2]


def _old_pack_refuses(cert: NodeCertificate) -> bool:
    """Reference check: write each field the layout reads off ``cert``, each
    in its legal range, decode what was written into a new certificate, and
    refuse unless it equals ``cert``."""
    values = [len(cert.edge_certs), cert.n, cert.tree_sub.root_id]
    for ec in cert.edge_certs:
        held = ec.bindings()
        second = held[2:] != held[:2]
        values += [ec.far, int(second)]
        for s, (k, pc) in enumerate(held[: 4 if second else 2]):
            near = int(k > held[s - 1][0]) if second and s % 2 else k
            values += [near, pc.lo + 1, pc.hi + 1]
    feed = iter(values)
    try:
        rebuilt = _walk(
            lambda name, width, lo, hi, value: _in_range(name, width, lo, hi, next(feed)),
            *_widths(cert),
            build=True,
        )
    except ParameterError:
        return True
    return rebuilt != cert


def _forced_value_edits(ec: EdgeCertificate):
    """One edit per forced value of ``ec``: each interval certificate's size
    and rank, each tour step's far copy moved by two (alone and with its
    rank), and a chord's second slot pair made different from its first."""
    for slot in ("pop_i", "pop_j", "pop_i2", "pop_j2"):
        pc = getattr(ec, slot)
        yield ec._replace(**{slot: pc._replace(n=pc.n + 1)})
        yield ec._replace(**{slot: pc._replace(rank=pc.rank + 1)})
    if ec.is_tree():
        for copy, slot in (("j", "pop_j"), ("j2", "pop_j2")):
            for delta in (2, -2):
                k = getattr(ec, copy) + delta
                pc = getattr(ec, slot)
                yield ec._replace(**{copy: k})
                yield ec._replace(**{copy: k, slot: pc._replace(rank=k)})
    else:
        yield ec._replace(i2=ec.j, j2=ec.i, pop_i2=ec.pop_j, pop_j2=ec.pop_i)
        k = ec.i2 + 1
        yield ec._replace(j2=k, pop_j2=ec.pop_j2._replace(rank=k))


#: First 16 hex digits of the sha256 of the honest certificates' packed bytes,
#: concatenated in node order.
_PACKED_PINS = {
    "grid": "3a86743edcf20e6a",
    "random_maximal_planar": "79f73fa06f8d8bcb",
    "tree": "3bd60a984232ac2a",
    "complete": "57fa7f496c8c8934",
}


def test_pack_refuses_values_the_layout_forces():
    graphs = {
        "grid": generate("grid", w=6, h=5),
        "random_maximal_planar": generate("random_maximal_planar", n=40, seed=3),
        "tree": generate("tree", n=30, seed=4),
        "complete": generate("complete", k=4),
    }
    outcomes = set()
    for kind, g in graphs.items():
        digest = hashlib.sha256()
        for x, cert in sorted(prove_planar(g).items()):
            assert not _old_pack_refuses(cert)
            digest.update(pack_certificate(cert))
            for e, ec in enumerate(cert.edge_certs):
                for bad_ec in _forced_value_edits(ec):
                    edge_certs = cert.edge_certs[:e] + (bad_ec,) + cert.edge_certs[e + 1 :]
                    bad = cert._replace(edge_certs=edge_certs)
                    refused = _old_pack_refuses(bad)
                    outcomes.add(refused)
                    if refused:
                        with pytest.raises(ParameterError):
                            pack_certificate(bad)
                    else:
                        assert unpack_certificate(pack_certificate(bad)) == bad
        assert digest.hexdigest()[:16] == _PACKED_PINS[kind], kind
    assert outcomes == {True, False}
    # Sizing walks the same layout, so it refuses a forced value too.
    cert = next(c for c in prove_planar(graphs["complete"]).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    bad_ec = ec._replace(pop_i=ec.pop_i._replace(n=ec.pop_i.n + 1))
    bad = cert._replace(edge_certs=(bad_ec,) + cert.edge_certs[1:])
    with pytest.raises(ParameterError):
        certificate_size_bits(bad)
    with pytest.raises(ParameterError):
        certificate_bit_fields(bad)


def test_unpack_rejects_every_out_of_range_field():

    cert = prove_planar(generate("wheel", n=6))[2]
    data = pack_certificate(cert)
    fields = certificate_bit_fields(cert)
    for target, f in enumerate(fields):
        for value in range(1 << f.width):
            if f.lo <= value <= f.hi or f.name in ("count", "second", "step"):
                continue  # those re-frame the stream; covered by the fuzz test
            with pytest.raises(FormatError):
                unpack_certificate(_set_field(data, fields, target, value))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_unpack_is_the_single_gate(data):
    try:
        cert = unpack_certificate(data)
    except FormatError:
        return
    assert unpack_certificate(pack_certificate(cert)) == cert


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.lists(st.binary(max_size=64), max_size=4))
def test_byte_verifier_is_total(own, neighbors):
    v = planarity_verifier(1, own, {y: b for y, b in enumerate(neighbors, start=2)})
    assert isinstance(v, Verdict)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.binary(min_size=1, max_size=8))
def test_byte_verifier_is_total_on_near_honest_bytes(seed, junk):
    # Bytes that mostly decode: an honest certificate with a few bytes
    # overwritten, so the semantic checks see odd but in-range values.
    g = generate("random_maximal_planar", n=8, seed=seed % 7)
    packed = {x: pack_certificate(c) for x, c in prove_planar(g).items()}
    x = seed % g.n + 1
    at = seed % max(1, len(packed[x]) - 2) + 2
    packed[x] = (packed[x][:at] + junk + packed[x][at + len(junk) :])[: len(packed[x])]
    for y in g.nodes():
        v = planarity_verifier(y, packed[y], {z: packed[z] for z in g.neighbors(y)})
        assert isinstance(v, Verdict)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10_000))
def test_pack_round_trip_random_trees(n, seed):
    g = generate("tree", n=n, seed=seed)
    for cert in prove_planar(g).values():
        assert unpack_certificate(pack_certificate(cert)) == cert


# --- caller-supplied rotation -------------------------------------------------


def test_prove_with_explicit_rotation():
    from planarcert.embedding import planar_embed

    g = generate("wheel", n=6)
    rot = planar_embed(g)
    certs = prove_planar(g, rot)
    assert _all_accept(g, certs)


def test_prove_refuses_a_rotation_that_is_not_planar():
    from planarcert.embedding import canonical_rotation

    k4 = generate("complete", k=4)
    genus_one = {v: tuple(u for u in range(1, 5) if u != v) for v in range(1, 5)}
    with pytest.raises(ParameterError, match="rotation"):
        prove_planar(k4, canonical_rotation(genus_one))
    with pytest.raises(ParameterError, match="rotation"):
        prove_planar(k4, canonical_rotation({1: (2, 3, 4)}))
