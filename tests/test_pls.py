"""End-to-end planarity scheme: prover, per-node verifier, sizes, packing."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import FormatError, NonPlanarError, ParameterError
from planarcert.graphs import build_graph, degeneracy_order, generate, norm_edge
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
    certificate_bit_fields,
    certificate_size_bits,
    pack_certificate,
    prove_planar,
    unpack_certificate,
    verify_node_planarity,
    verify_spanning_tree_sub,
)
from planarcert.pop import PopCertificate
from planarcert.sim import planarity_verifier


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


def test_path_is_all_tree_edges_with_full_intervals():
    n = 6
    certs = prove_planar(_path(n))
    for cert in certs.values():
        for ec in cert.edge_certs:
            assert ec.is_tree()
            for _, pc in ec.bindings():
                assert (pc.lo, pc.hi) == (0, 2 * n)


def test_edge_cert_assignment_respects_degeneracy_bound():
    g = generate("random_maximal_planar", n=100, seed=5)
    certs = prove_planar(g)
    position = degeneracy_order(g).position()
    seen: dict[tuple[int, int], int] = {}
    for x, cert in certs.items():
        assert len(cert.edge_certs) <= MAX_EDGE_CERTS
        for ec in cert.edge_certs:
            e = norm_edge(ec.id_x, ec.id_y)
            assert x in e
            assert position[x] == min(position[e[0]], position[e[1]])
            assert e not in seen, "edge certified at both endpoints"
            seen[e] = x
    assert set(seen) == set(g.edges())


def test_parent_rule_matches_prover_tree():
    g = generate("random_maximal_planar", n=30, seed=3)
    certs = prove_planar(g)
    root = min(g.nodes())
    for x, cert in certs.items():
        ts = cert.tree_sub
        assert ts.root_id == root
        assert (ts.parent_id is None) == (x == root)
        if ts.parent_id is None:
            continue
        # recover the parent the way the verifier does: among tree-edge
        # certificates incident to x, the neighbor whose copies start earlier
        incident = [
            ec
            for c in certs.values()
            for ec in c.edge_certs
            if ec.is_tree() and x in (ec.id_x, ec.id_y)
        ]
        parents = []
        for ec in incident:
            other = ec.id_y if ec.id_x == x else ec.id_x
            if min(ec.side_indices(other)) < min(ec.side_indices(x)):
                parents.append(other)
        assert parents == [ts.parent_id]
        assert certs[x].tree_sub.dist == certs[ts.parent_id].tree_sub.dist + 1


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
    bad = dataclasses.replace(ec, pop_i=dataclasses.replace(ec.pop_i, hi=ec.pop_i.lo))
    certs = dict(honest)
    certs[holder] = dataclasses.replace(
        honest[holder], edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    assert _rejectors(g, certs)


def test_rejects_deleted_edge_cert(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    certs = dict(honest)
    certs[holder] = dataclasses.replace(
        honest[holder], edge_certs=honest[holder].edge_certs[1:]
    )
    rej = _rejectors(g, certs)
    assert rej and all(v.phase == PHASE_COLLECT for v in rej.values())


def test_rejects_edge_cert_stored_at_both_endpoints(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    other = ec.id_y if ec.id_x == holder else ec.id_x
    certs = dict(honest)
    certs[other] = dataclasses.replace(
        honest[other], edge_certs=honest[other].edge_certs + (ec,)
    )
    assert _rejectors(g, certs)


def test_rejects_corrupted_distance(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    ts = honest[x].tree_sub
    certs = dict(honest)
    certs[x] = dataclasses.replace(
        honest[x], tree_sub=TreeSub(ts.root_id, ts.parent_id, ts.dist + 1)
    )
    rej = _rejectors(g, certs)
    assert rej and any(v.phase == PHASE_TREE for v in rej.values())


def test_rejects_zeroed_certificate(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = NodeCertificate(edge_certs=(), tree_sub=TreeSub(1, None, 0), n=g.n)
    assert _rejectors(g, certs)


def test_rejects_node_count_disagreement(tampering_setup):
    g, honest = tampering_setup
    x = max(g.nodes())
    certs = dict(honest)
    certs[x] = dataclasses.replace(honest[x], n=g.n + 1)
    rej = _rejectors(g, certs)
    assert rej and all(v.phase == PHASE_COLLECT for v in rej.values())


def test_rejects_junk_own_certificate():
    # Garbage enters as bytes; the decoder turns it into a phase-1 reject.
    v = planarity_verifier(1, b"garbage", {})
    assert not v.accepted and v.phase == PHASE_COLLECT


def test_rejects_oversized_edge_cert_list(tampering_setup):
    g, honest = tampering_setup
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    certs = dict(honest)
    certs[holder] = dataclasses.replace(
        honest[holder],
        edge_certs=honest[holder].edge_certs + (ec,) * (MAX_EDGE_CERTS + 1),
    )
    assert _rejectors(g, certs)


def test_interval_corruption_reaching_interval_phase():
    # On a path no copy is bound twice, so a flipped interval survives the
    # consistency checks and must be caught by the interval check itself.
    g = _path(5)
    honest = prove_planar(g)
    holder = next(x for x in g.nodes() if honest[x].edge_certs)
    ec = honest[holder].edge_certs[0]
    bad = dataclasses.replace(
        ec, pop_j=dataclasses.replace(ec.pop_j, lo=3, hi=4)
    )
    certs = dict(honest)
    certs[holder] = dataclasses.replace(
        honest[holder], edge_certs=(bad,) + honest[holder].edge_certs[1:]
    )
    rej = _rejectors(g, certs)
    assert rej and any(v.phase == PHASE_POP for v in rej.values())


# --- spanning-tree sub-check in isolation ------------------------------------


def test_tree_sub_accepts_honest_path():
    # path 1-2-3-4-5 rooted at 1
    subs = {k: TreeSub(1, k - 1 if k > 1 else None, k - 1) for k in range(1, 6)}
    for x in range(1, 6):
        nbrs = {y: subs[y] for y in (x - 1, x + 1) if 1 <= y <= 5}
        parent = x - 1 if x > 1 else None
        assert verify_spanning_tree_sub(x, subs[x], nbrs, parent) is None


def test_tree_sub_rejects_root_identity_conflict():
    own = TreeSub(1, None, 0)
    nbr = {2: TreeSub(2, None, 0)}
    assert verify_spanning_tree_sub(1, own, nbr, None) is not None


def test_tree_sub_rejects_false_root_claim():
    assert verify_spanning_tree_sub(3, TreeSub(1, None, 0), {}, None) is not None
    assert verify_spanning_tree_sub(1, TreeSub(1, None, 2), {}, None) is not None


def test_tree_sub_rejects_impostor_at_distance_zero():
    own = TreeSub(1, 2, 1)
    nbrs = {2: TreeSub(1, None, 0)}
    # neighbor 2 claims distance zero but the root is node 1
    assert verify_spanning_tree_sub(3, own, nbrs, 2) is not None


def test_parent_cycle_has_no_consistent_distances():
    # Four nodes in a cycle, each naming the next as parent: whatever
    # distances are claimed, someone's is not one more than its parent's.
    n = 4
    ring = {1: 2, 2: 3, 3: 4, 4: 1}
    for bits in range(n**n):
        dists = [(bits // n**k) % n for k in range(n)]
        ok = True
        for x in range(1, 5):
            own = TreeSub(1, ring[x], dists[x - 1])
            nbrs = {
                y: TreeSub(1, ring[y], dists[y - 1])
                for y in (ring[x], [k for k, v in ring.items() if v == x][0])
            }
            if verify_spanning_tree_sub(x, own, nbrs, ring[x]) is not None:
                ok = False
                break
        assert not ok, f"distance labelling {dists} fooled every node"


# --- certificate size --------------------------------------------------------


def test_size_formula_matches_packed_length():
    for g in _planar_corpus():
        certs = prove_planar(g)
        for cert in certs.values():
            packed_bits = (len(pack_certificate(cert)) - 2) * 8
            stated = certificate_size_bits(cert, g.n)
            assert stated <= packed_bits < stated + 8


def test_size_within_log_bound_on_small_graphs():
    for g in _planar_corpus():
        if g.n < 2:
            continue
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c, g.n) for c in certs.values())
        assert worst <= 150 * math.log2(g.n)


def test_size_grows_logarithmically_on_grids():
    ratios = []
    for side in (4, 8, 16, 32):
        g = generate("grid", w=side, h=side)
        certs = prove_planar(g)
        worst = max(certificate_size_bits(c, g.n) for c in certs.values())
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
        pack_certificate(NodeCertificate(edge_certs=(), tree_sub=TreeSub(1, None, 5), n=2))


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
    # Per edge certificate: two ids and a one-bit flag.  A chord then sends
    # (index, lo, hi) for both of its copies; a tree edge sends them for the
    # id_x copy of each tour step and (step bit, lo, hi) for the id_y copy
    # next to it.
    g = generate("random_maximal_planar", n=25, seed=5)
    for cert in prove_planar(g).values():
        fields = certificate_bit_fields(cert)
        names = [f.name for f in fields]
        tree = sum(ec.is_tree() for ec in cert.edge_certs)
        chords = len(cert.edge_certs) - tree
        assert names.count("second") == len(cert.edge_certs)
        assert names.count("step") == 2 * tree
        assert _index_fields(fields) == 10 * tree + 6 * chords
        assert all(f.lo <= f.value <= f.hi for f in fields)


def test_pack_refuses_a_tree_edge_off_the_tour():
    g = _path(4)
    cert = next(c for c in prove_planar(g).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    far = ec.i + 3 if ec.i + 3 <= 2 * g.n - 1 else ec.i - 3
    bad = dataclasses.replace(ec, j=far, pop_j=dataclasses.replace(ec.pop_j, rank=far))
    with pytest.raises(ParameterError):
        pack_certificate(dataclasses.replace(cert, edge_certs=(bad,) + cert.edge_certs[1:]))


def test_unpack_refills_forced_values():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    for cert in prove_planar(g).values():
        again = unpack_certificate(pack_certificate(cert))
        for ec in again.edge_certs:
            for k, pc in ec.bindings():
                assert (pc.n, pc.rank) == (2 * g.n - 1, k)
            if not ec.is_tree():
                assert ec.bindings()[2:] == ec.bindings()[:2]


def test_pack_refuses_values_the_layout_forces():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    cert = next(c for c in prove_planar(g).values() if c.edge_certs)
    ec = cert.edge_certs[0]
    for bad in (
        dataclasses.replace(ec, pop_i=dataclasses.replace(ec.pop_i, n=ec.pop_i.n + 1)),
        dataclasses.replace(ec, pop_i=dataclasses.replace(ec.pop_i, rank=ec.i + 1)),
    ):
        with pytest.raises(ParameterError):
            pack_certificate(dataclasses.replace(cert, edge_certs=(bad,) + cert.edge_certs[1:]))


def test_unpack_rejects_every_out_of_range_field():
    from planarcert.sim import _set_field

    cert = prove_planar(generate("wheel", n=6))[2]
    data = pack_certificate(cert)
    fields = certificate_bit_fields(cert)
    for target, f in enumerate(fields):
        for value in range(1 << f.width):
            if f.lo <= value <= f.hi or f.name in ("count", "has_parent", "second", "step"):
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
