"""Hard-instance generators: shapes, invariants, oracle-checked claims."""

from __future__ import annotations

import pytest

from planarcert.errors import ParameterError
from planarcert.graphs import build_graph
from planarcert.lowerbound import (
    BipartiteInstance,
    BlockInstance,
    gen_bipartite_instance,
    gen_block_instance,
    gen_glued_instance,
    glued_contracts_to_biclique,
    validate_lowerbound_claims,
)
from planarcert.minors import has_biclique_minor, has_clique_minor
from planarcert.pls import prove_planar, verify_node_planarity


# --- block chains and cycles ---------------------------------------------------


def test_chain_node_count_and_block_contents():
    for k, p in [(3, 1), (4, 2), (5, 3)]:
        g = gen_block_instance(BlockInstance.path(k, p))
        assert g.n == (k - 1) * (p + 2)
        spec = BlockInstance.path(k, p)
        for r in range(p + 2):
            ids = spec.block_ids(r)
            assert ids == tuple(range(r * (k - 1) + 1, (r + 1) * (k - 1) + 1))
            for s in range(len(ids)):
                for t in range(s + 1, len(ids)):
                    assert ids[t] in g.neighbors(ids[s])


def test_k4_connections_have_two_edges():
    g = gen_block_instance(BlockInstance.path(4, 2))
    spec = BlockInstance.path(4, 2)
    blocks = [set(spec.block_ids(r)) for r in range(4)]
    for src, dst in zip(blocks, blocks[1:]):
        between = [e for e in g.edges() if (e[0] in src) != (e[1] in src) and set(e) <= src | dst]
        assert len(between) == 2


def test_permutation_scrambles_chain_order_not_ids():
    base = gen_block_instance(BlockInstance.path(4, 3))
    permuted = gen_block_instance(BlockInstance.path(4, 3, permutation=(3, 1, 2)))
    assert base.nodes() == permuted.nodes()
    assert base.m == permuted.m
    assert base != permuted


def test_every_interior_block_node_touches_exactly_one_other_block():
    for perm in (None, (2, 3, 1)):
        spec = BlockInstance.path(5, 3, permutation=perm)
        g = gen_block_instance(spec)
        for r in range(1, spec.p + 1):  # ordinary blocks only
            own = set(spec.block_ids(r))
            for v in own:
                foreign_blocks = {
                    (u - 1) // (spec.k - 1) for u in g.neighbors(v) if u not in own
                }
                assert len(foreign_blocks) == 1, f"node {v} touches {foreign_blocks}"


def test_block_parameter_errors():
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.path(2, 2))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.path(4, 0))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance(k=4, p=2, permutation=(1, 1)))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.cycle(4, 3, 2, 2))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.cycle(4, 3, 1, 4))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance(k=4, p=2, permutation=(1, 2), shape="helix"))
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance(k=4, p=2, permutation=(1, 2), shape="cycle"))


def test_extended_chain_is_a_superset_with_bounded_jumps():
    for k in (4, 5):
        spec = BlockInstance.path(k, 3)
        plain = gen_block_instance(spec)
        extended = gen_block_instance(spec, extended=True)
        assert set(plain.edges()) <= set(extended.edges())
        assert max(abs(u - v) for u, v in extended.edges()) <= k - 2


def test_extended_requires_identity_chain():
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.path(4, 2, permutation=(2, 1)), extended=True)
    with pytest.raises(ParameterError):
        gen_block_instance(BlockInstance.cycle(4, 2, 1, 2), extended=True)


def test_chains_are_clique_minor_free_and_cycles_are_not():
    for k in (4, 5):
        chain = gen_block_instance(BlockInstance.path(k, 2))
        assert not has_clique_minor(chain, k)
        cycle = gen_block_instance(BlockInstance.cycle(k, 2, 1, 2))
        assert has_clique_minor(cycle, k)


def test_cycle_uses_only_the_selected_blocks():
    spec = BlockInstance.cycle(4, 3, 2, 3)
    g = gen_block_instance(spec)
    expect = set(spec.block_ids(2)) | set(spec.block_ids(3))
    assert set(g.nodes()) == expect


def test_chains_are_planar_and_honestly_certifiable():
    for k in (4, 5):
        g = gen_block_instance(BlockInstance.path(k, 2))
        certs = prove_planar(g)
        for x in g.nodes():
            nbr = {y: certs[y] for y in g.neighbors(x)}
            assert verify_node_planarity(x, certs[x], nbr).accepted


# --- crossed paths ---------------------------------------------------------------


def test_crossed_paths_example_layout():
    g = gen_bipartite_instance(BipartiteInstance(n=22, p=3, q=3))
    assert g.n == 22
    rungs = sorted(e for e in g.edges() if abs(e[0] - e[1]) > 1)
    assert rungs == [(3, 14), (6, 17), (9, 20)]  # d=3: positions 3, 6, 9


def test_crossed_paths_structure_q2():
    g = gen_bipartite_instance(BipartiteInstance(n=12, p=2, q=2))
    rungs = [e for e in g.edges() if abs(e[0] - e[1]) > 1]
    assert len(rungs) == 2
    assert g.m == (6 - 1) + (6 - 1) + 2


def test_crossed_paths_custom_ids():
    a = tuple(range(100, 111))
    b = tuple(range(200, 211))
    g = gen_bipartite_instance(BipartiteInstance(n=22, p=2, q=3, a=a, b=b))
    assert set(g.nodes()) == set(a) | set(b)
    assert (a[2], b[2]) in g.edges()


def test_crossed_paths_parameter_errors():
    with pytest.raises(ParameterError):
        gen_bipartite_instance(BipartiteInstance(n=17, p=2, q=3))  # n < 6q
    with pytest.raises(ParameterError):
        gen_bipartite_instance(BipartiteInstance(n=22, p=4, q=3))  # p > q
    with pytest.raises(ParameterError):
        gen_bipartite_instance(BipartiteInstance(n=22, p=1, q=3))  # p < 2
    with pytest.raises(ParameterError):
        gen_bipartite_instance(
            BipartiteInstance(n=22, p=2, q=3, a=tuple(range(1, 12)), b=tuple(range(5, 16)))
        )
    with pytest.raises(ParameterError):
        gen_bipartite_instance(
            BipartiteInstance(n=22, p=2, q=3, a=(1, 2), b=tuple(range(12, 23)))
        )


def test_crossed_paths_have_no_k23_minor():
    g = gen_bipartite_instance(BipartiteInstance(n=22, p=3, q=3))
    assert not has_biclique_minor(g, 2, 3)


# --- glued families --------------------------------------------------------------


def test_glued_instance_shape():
    q, n = 3, 18
    g = gen_glued_instance(n, q)
    assert g.n == 2 * q * (n // 2)
    path_edges = sum(1 for u, v in g.edges() if abs(u - v) == 1)
    assert g.m == path_edges + q * q  # q² rotated rungs


def test_glued_contracts_to_complete_bipartite():
    for q, n in [(2, 12), (3, 18), (3, 22)]:
        g = gen_glued_instance(n, q)
        assert glued_contracts_to_biclique(g, n, q)
        assert has_biclique_minor(g, q, q, cap=80)


def test_glued_random_partition_is_seed_deterministic():
    g1 = gen_glued_instance(18, 3, id_partition="random", seed=5)
    g2 = gen_glued_instance(18, 3, id_partition="random", seed=5)
    g3 = gen_glued_instance(18, 3, id_partition="random", seed=6)
    assert g1 == g2
    assert g1 != g3
    assert has_biclique_minor(g1, 3, 3, cap=80)


def test_glued_explicit_partition_checked():
    with pytest.raises(ParameterError):
        gen_glued_instance(12, 2, id_partition=[(1, 2, 3)])
    with pytest.raises(ParameterError):
        gen_glued_instance(
            12, 2, id_partition=[tuple(range(1, 7))] * 4  # repeated ids
        )
    with pytest.raises(ParameterError):
        gen_glued_instance(12, 2, id_partition="mosaic")
    with pytest.raises(ParameterError):
        gen_glued_instance(11, 2)
    with pytest.raises(ParameterError):
        gen_glued_instance(12, 1)


# --- claim validation -------------------------------------------------------------


def test_validate_lowerbound_claims_passes():
    report = validate_lowerbound_claims(k_range=[4], p_range=[2], q_range=[2])
    assert report.all_ok
    assert [c for c in report.checks if not c.ok] == []
    text = report.render()
    assert "[ok ]" in text and "BUG" not in text
    kinds = {c.construction for c in report.checks}
    assert kinds == {"block-chain", "block-cycle", "crossed-paths", "glued-paths"}


def test_validate_report_flags_failures():
    # sanity-check the reporting path itself with a claim that is false
    report = validate_lowerbound_claims(k_range=[4], p_range=[2], q_range=[2])
    assert all(c.ok for c in report.checks)
    from planarcert.lowerbound import ClaimCheck, ClaimReport

    bad = ClaimReport(checks=report.checks + (ClaimCheck("x", "y", "z", False),))
    assert not bad.all_ok
    assert [c for c in bad.checks if not c.ok] == [bad.checks[-1]]
    assert "BUG" in bad.render()
