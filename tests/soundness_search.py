"""Exhaustive adversary for the path-outerplanarity verifier.

Searches the full certificate space of a small graph for an assignment that
every node accepts. Soundness of the scheme on a non-path-outerplanar graph
means the search must come up empty.

Search space: the claimed instance size can be any value up to |V| (a larger
claim always strands some node without the claimed-rank chain it needs, so
nothing is lost); ranks range over [1, claimed n] subject to the local chain
rule; interval endpoints range over the full encodable domain, minus choices
the bound check rejects on sight. The verdict authority is always the real
verifier — the enumeration only proposes.
"""

from __future__ import annotations

import itertools

from planarcert.graphs import Graph
from planarcert.pop import PopCertificate, pop_verify_all, pop_verify_node


def rank_functions(g: Graph, n_claim: int):
    """All rank assignments passing the purely rank-level local checks."""
    nodes = g.nodes()

    def dfs(i: int, ranks: dict[int, int]):
        if i == len(nodes):
            for v in nodes:
                r = ranks[v]
                around = {ranks[u] for u in g.neighbors(v)}
                if (r > 1 and r - 1 not in around) or (r < n_claim and r + 1 not in around):
                    return
            yield dict(ranks)
            return
        v = nodes[i]
        taken = {ranks[u] for u in g.neighbors(v) if u in ranks}
        for r in range(1, n_claim + 1):
            if r not in taken:
                ranks[v] = r
                yield from dfs(i + 1, ranks)
                del ranks[v]

    yield from dfs(0, {})


def _interval_domain(rank: int, n: int) -> list[tuple[int, int]]:
    lows = range(-1, rank)
    highs = range(rank + 1, n + 3)
    return [(lo, hi) for lo in lows for hi in highs]


def _node_verdict(g: Graph, certs: dict[int, PopCertificate], v: int):
    by_rank: dict[int, PopCertificate] = {}
    for u in g.neighbors(v):
        c = certs[u]
        if c.rank in by_rank:
            return False
        by_rank[c.rank] = c
    return pop_verify_node(certs[v], by_rank) is None


def _search_intervals(g: Graph, ranks: dict[int, int], n: int):
    order = list(g.nodes())
    certs: dict[int, PopCertificate] = {}

    def complete(u: int) -> bool:
        return u in certs and all(w in certs for w in g.neighbors(u))

    def dfs(i: int):
        if i == len(order):
            return dict(certs)
        v = order[i]
        for lo, hi in _interval_domain(ranks[v], n):
            certs[v] = PopCertificate(n=n, rank=ranks[v], lo=lo, hi=hi)
            ready = [u for u in (v, *g.neighbors(v)) if complete(u)]
            if all(_node_verdict(g, certs, u) for u in ready):
                got = dfs(i + 1)
                if got is not None:
                    return got
            del certs[v]
        return None

    return dfs(0)


def find_accepting_assignment(g: Graph) -> dict[int, PopCertificate] | None:
    """An all-accepting certificate assignment, or None if none exists."""
    for n_claim in range(1, g.n + 1):
        for ranks in rank_functions(g, n_claim):
            got = _search_intervals(g, ranks, n_claim)
            if got is not None:
                assert all(code is None for code in pop_verify_all(g, got).values())
                return got
    return None


def find_accepting_intervals_for_ranks(
    g: Graph, ranks: dict[int, int]
) -> dict[int, PopCertificate] | None:
    """Like find_accepting_assignment but with the rank labeling pinned.

    Soundness relative to one ordering: if the given ranks list the nodes in
    an order whose edges cross, no choice of intervals can satisfy everyone.
    """
    n_claim = max(ranks.values())
    got = _search_intervals(g, ranks, n_claim)
    if got is not None:
        assert all(code is None for code in pop_verify_all(g, got).values())
    return got


def connected_graphs_upto_iso(n: int):
    """All connected graphs on exactly n labeled nodes 1..n, one per iso class."""
    from planarcert.graphs import build_graph

    nodes = list(range(1, n + 1))
    pairs = list(itertools.combinations(nodes, 2))
    seen: set[frozenset] = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = build_graph(edges, nodes=nodes)
        if not g.connected:
            continue
        canon = min(
            frozenset(
                (min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in edges
            )
            for p in itertools.permutations(nodes)
        )
        if canon in seen:
            continue
        seen.add(canon)
        yield g
