"""Path-outerplanarity: definition, exhaustive witness search, prover, verifier."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import ParameterError, ResourceError, WitnessError
from planarcert.graphs import Graph, build_graph, generate
from planarcert.pop import (
    REJECT_LEFT_BOUNDARY,
    REJECT_LEFT_CHAIN,
    REJECT_PATH_STRUCTURE,
    REJECT_REASONS,
    REJECT_RIGHT_CHAIN,
    PopCertificate,
    PopWitness,
    is_path_outerplanar,
    pop_prove,
    pop_verify_all,
    pop_verify_node,
    shortest_covering_interval,
)
from soundness_search import (
    connected_graphs_upto_iso,
    find_accepting_assignment,
    find_accepting_intervals_for_ranks,
)

CROSSING = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]  # smallest crossing instance
FAN = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (1, 4), (1, 5)]


def _pairs_noncrossing(spans: list[tuple[int, int]]) -> bool:
    """The definition, pair by pair: the oracle for the sweep in pop."""
    for (a, b), (c, d) in itertools.combinations(spans, 2):
        if not (b <= c or d <= a or (a <= c and d <= b) or (c <= a and b <= d)):
            return False
    return True


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


def test_definition_examples():
    p4 = build_graph([(1, 2), (2, 3), (3, 4)])
    assert is_path_outerplanar(p4, (1, 2, 3, 4))
    assert not is_path_outerplanar(build_graph(CROSSING), (1, 2, 3, 4))
    tri = build_graph([(1, 2), (2, 3), (1, 3)])
    assert is_path_outerplanar(tri, (1, 2, 3))


def test_definition_rejects_non_hamiltonian_order():
    star = build_graph([(1, 2), (1, 3), (1, 4)])
    for order in ((2, 1, 3, 4), (1, 2, 3, 4)):
        assert not is_path_outerplanar(star, order)


def test_definition_requires_permutation():
    g = build_graph([(1, 2), (2, 3)])
    with pytest.raises(ParameterError):
        is_path_outerplanar(g, (1, 2))
    with pytest.raises(ParameterError):
        is_path_outerplanar(g, (1, 2, 2))


@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 30)).map(
            lambda t: (min(t), max(t) + 1)
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=500)
def test_sweep_matches_pairwise_oracle(spans):
    # The spans ride on the path 1..31, whose own spans (a, a+1) cross none.
    g = build_graph([(a, a + 1) for a in range(1, 31)] + spans)
    assert is_path_outerplanar(g, range(1, 32)) == _pairs_noncrossing(spans)


def test_sweep_is_every_covering_interval_for_any_order():
    # The spans come off the adjacency with no sort.  The verdict is the
    # definition: a Hamiltonian path along which no two spans cross.  When
    # it holds, the sweep hands back each rank's narrowest covering span.
    rng = random.Random(3)
    paths = crossings = 0
    for _ in range(400):
        n = rng.randrange(1, 9)
        ids = rng.sample(range(1, 40), n)
        edges = [(ids[k], ids[k + 1]) for k in range(n - 1)] if rng.random() < 0.7 else []
        if n > 1:
            edges += [tuple(rng.sample(ids, 2)) for _ in range(rng.randrange(2 * n))]
        g = build_graph(edges, nodes=ids)
        order = tuple(ids) if rng.random() < 0.5 else tuple(rng.sample(ids, n))
        rank = {v: r for r, v in enumerate(order, start=1)}
        spans = [tuple(sorted((rank[u], rank[v]))) for u, v in g.edges()]
        is_path = all(g.has_edge(u, v) for u, v in zip(order, order[1:]))
        sweep: list = []
        verdict = is_path_outerplanar(g, order, sweep=sweep)
        assert verdict == (is_path and _pairs_noncrossing(spans))
        if is_path:
            paths += 1
            crossings += not verdict
        if verdict:
            assert sweep == [shortest_covering_interval(spans, x, n) for x in range(1, n + 1)]
    assert paths > 100 and crossings > 10


def test_large_instance_uses_same_predicate():
    n = 300
    edges = [(i, i + 1) for i in range(1, n)] + [(1, j) for j in range(3, n + 1)]
    g = build_graph(edges)
    assert g.m >= 200  # a large fan: many spans open at once
    assert is_path_outerplanar(g, tuple(range(1, n + 1)))
    crossed = build_graph(edges + [(2, 4)])
    assert not is_path_outerplanar(crossed, tuple(range(1, n + 1)))


def test_exhaustive_witness_examples():
    p3 = build_graph([(1, 2), (2, 3)])
    assert find_witness_exhaustive(p3) == PopWitness(order=(1, 2, 3))
    assert find_witness_exhaustive(generate("complete", k=4)) is None
    c5_chord = build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    w = find_witness_exhaustive(c5_chord)
    assert w is not None and is_path_outerplanar(c5_chord, w.order)


def test_exhaustive_witness_is_lexicographically_least():
    c4 = build_graph([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert find_witness_exhaustive(c4).order == (1, 2, 3, 4)


def test_exhaustive_witness_cap():
    with pytest.raises(ResourceError):
        find_witness_exhaustive(generate("tree", n=11, seed=1))


def test_prove_examples():
    p3 = build_graph([(1, 2), (2, 3)])
    certs = pop_prove(p3, PopWitness(order=(1, 2, 3)))
    assert all(c.interval == (0, 4) for c in certs.values())

    tri = build_graph([(1, 2), (2, 3), (1, 3)])
    certs = pop_prove(tri, PopWitness(order=(1, 2, 3)))
    assert certs[2].interval == (1, 3)
    assert certs[1].interval == (0, 4) and certs[3].interval == (0, 4)

    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    assert certs[2].interval == (1, 3)
    assert certs[3].interval == (1, 4)
    assert certs[4].interval == (1, 5)
    assert certs[1].interval == (0, 6) and certs[5].interval == (0, 6)


def test_prove_rejects_invalid_witness():
    with pytest.raises(WitnessError):
        pop_prove(build_graph(CROSSING), PopWitness(order=(1, 2, 3, 4)))


def _random_laminar_instance(rng: random.Random, n: int):
    """Random graph + identity-order witness built from non-crossing spans."""
    spans = [(i, i + 1) for i in range(1, n)]
    for _ in range(2 * n):
        a = rng.randint(1, n - 1)
        b = rng.randint(a + 1, n)
        cand = (a, b)
        if cand in spans:
            continue
        if all(
            b <= c or d <= a or (a <= c and d <= b) or (c <= a and b <= d)
            for c, d in spans
        ):
            spans.append(cand)
    g = build_graph(spans)
    return g, spans


def test_prover_interval_matches_bruteforce_oracle():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 40)
        g, spans = _random_laminar_instance(rng, n)
        certs = pop_prove(g, PopWitness(order=tuple(range(1, n + 1))))
        for x in range(1, n + 1):
            assert certs[x].interval == shortest_covering_interval(spans, x, n)
            assert certs[x].rank == x and certs[x].n == n


def test_completeness_on_exhaustive_small_corpus():
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs_upto_iso(n):
            w = find_witness_exhaustive(g)
            if w is None:
                continue
            verdicts = pop_verify_all(g, pop_prove(g, w))
            assert all(code is None for code in verdicts.values()), (g.edges(), w)
            checked += 1
    assert checked > 20


def test_completeness_on_random_laminar_instances():
    rng = random.Random(3)
    for _ in range(10):
        g, _ = _random_laminar_instance(rng, rng.randint(2, 60))
        certs = pop_prove(g, PopWitness(order=tuple(sorted(g.nodes()))))
        assert all(code is None for code in pop_verify_all(g, certs).values())


def test_tampered_interval_is_caught_by_chain():
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    certs[3] = PopCertificate(n=5, rank=3, lo=1, hi=5)  # honest is (1, 4)
    verdicts = pop_verify_all(fan, certs)
    assert verdicts[1] == REJECT_RIGHT_CHAIN
    assert any(code is not None for code in verdicts.values())


def test_tampered_end_interval_is_caught_by_virtual_checks():
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    # node 1 must carry the full-range interval; the rank-1 node's own checks
    # all pass, but its simulation of virtual rank 0 pins the interval down
    certs[1] = PopCertificate(n=5, rank=1, lo=0, hi=5)
    verdicts = pop_verify_all(fan, certs)
    assert verdicts[1] is not None


def test_tampered_rank_is_caught():
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    certs[2] = PopCertificate(n=5, rank=4, lo=1, hi=5)
    verdicts = pop_verify_all(fan, certs)
    assert any(code is not None for code in verdicts.values())


def test_rank_outside_one_to_n_is_caught():
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    certs[5] = PopCertificate(n=5, rank=6, lo=4, hi=7)
    assert pop_verify_all(fan, certs)[5] == REJECT_PATH_STRUCTURE


@pytest.mark.parametrize(
    "node, edit, rejecting",
    [
        (3, {"n": 6}, {1, 2, 3, 4}),
        (3, {"rank": 0}, {1, 2, 3, 4}),
        (5, {"rank": 6}, {1, 4, 5}),
    ],
    ids=["another n", "rank 0", "rank n + 1"],
)
def test_views_of_the_wrong_shape_reject_on_structure(node, edit, rejecting):
    # One fan certificate claims another instance size, or a rank outside
    # 1..n.  Its holder and every neighbor that sees it reject on shape,
    # before any interval check; nodes that do not see it accept.
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    certs[node] = certs[node]._replace(**edit)
    want = {v: REJECT_PATH_STRUCTURE if v in rejecting else None for v in fan.nodes()}
    assert pop_verify_all(fan, certs) == want


def test_boundary_inheritance_reject_code():
    fan = build_graph(FAN)
    certs = pop_prove(fan, PopWitness(order=(1, 2, 3, 4, 5)))
    assert pop_verify_node(certs[5], {1: certs[1], 4: certs[4]}) is None
    # chain break: the nearest left neighbor must carry [1, 5]
    bad_four = PopCertificate(n=5, rank=4, lo=0, hi=6)
    assert (
        pop_verify_node(certs[5], {1: certs[1], 4: bad_four}) == REJECT_LEFT_CHAIN
    )
    # boundary break: the farthest left neighbor strictly inside must inherit (0, 6)
    bad_one = PopCertificate(n=5, rank=1, lo=0, hi=5)
    assert (
        pop_verify_node(certs[5], {1: bad_one, 4: certs[4]}) == REJECT_LEFT_BOUNDARY
    )


def test_duplicate_neighbor_ranks_reject():
    tri = build_graph([(1, 2), (2, 3), (1, 3)])
    certs = pop_prove(tri, PopWitness(order=(1, 2, 3)))
    certs[3] = PopCertificate(n=3, rank=certs[2].rank, lo=certs[2].lo, hi=certs[2].hi)
    verdicts = pop_verify_all(tri, certs)
    assert verdicts[1] == REJECT_PATH_STRUCTURE


def test_reason_table_covers_all_codes():
    from planarcert import pop as mod

    codes = {v for k, v in vars(mod).items() if k.startswith("REJECT_") and isinstance(v, int)}
    assert codes == set(REJECT_REASONS)


def test_crossing_instance_is_order_sound_but_graph_satisfiable():
    # With the path's own ranking the chords {1,3} and {2,4} cross, and no
    # interval choice survives; but the graph itself admits the alternative
    # order (1,2,4,3) under which everything nests, so a full search over
    # rank labelings does find an accepting assignment.
    g = build_graph(CROSSING)
    identity = {v: v for v in g.nodes()}
    assert find_accepting_intervals_for_ranks(g, identity) is None
    assert find_witness_exhaustive(g).order == (1, 2, 4, 3)
    full = find_accepting_assignment(g)
    assert full is not None
    assert all(code is None for code in pop_verify_all(g, full).values())


def test_soundness_k4():
    assert find_accepting_assignment(generate("complete", k=4)) is None


def test_engine_finds_assignment_on_honest_instance():
    tri = build_graph([(1, 2), (2, 3), (1, 3)])
    got = find_accepting_assignment(tri)
    assert got is not None
    assert all(code is None for code in pop_verify_all(tri, got).values())
