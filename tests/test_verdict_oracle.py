"""The per-node verifier decides exactly as the reference in ``verdict_oracle``.

Every node of every view below must get the same ``Verdict`` (decision,
reason and phase) from ``pls.verify_node_planarity`` as from the reference,
and the interval checks the same code from ``pop.pop_verify_node``.  The
views are the honest one (on a non-planar graph, the attack's planar
template), random field values, template edits of 1, 2 and 4 fields, swaps
and replayed donors, on planar and non-planar graphs.
"""

from __future__ import annotations

import random
import re
from collections import Counter

from planarcert.errors import FormatError
from planarcert.embedding import planar_embed
from planarcert.graphs import build_graph, generate
from planarcert.pls import pack_certificate, prove_planar, unpack_certificate, verify_node_planarity
from planarcert.pop import (
    REJECT_REASONS,
    PopWitness,
    pop_prove,
    pop_verify_node,
)
from planarcert.sim import (
    EDIT_BUDGETS,
    _edit_one_field,
    _planar_template,
    _replay_graph,
    random_assignment,
)
from verdict_oracle import oracle_pop_verify_node, oracle_verify_node_planarity

_TRIALS = 12  # assignments per forging strategy and graph


def _graphs():
    return {
        "grid": generate("grid", w=5, h=4),
        "random_maximal_planar": generate("random_maximal_planar", n=18, seed=6),
        "tree": generate("tree", n=16, seed=2),
        "K33": generate("complete_bipartite", p=3, q=3),
        "K5": generate("complete", k=5),
        "petersen": generate("petersen"),
    }


def _views(name, g):
    """(strategy, packed certificates per node) for every forging strategy."""
    planar = planar_embed(g, counterexample=False) is not None
    template, _ = _planar_template(g, f"oracle/{name}", planar)
    packed = {x: pack_certificate(c) for x, c in template.items()}
    nodes = g.nodes()
    rng = random.Random(f"oracle/{name}")
    yield "honest", packed
    for t in range(_TRIALS):
        yield "random-fields", random_assignment(g, f"oracle/{name}/{t}").certs
    for k in EDIT_BUDGETS:
        for _ in range(_TRIALS):
            edited = dict(packed)
            for _ in range(k):
                x = rng.choice(nodes)
                edited[x] = _edit_one_field(template[x], edited[x], rng)
            yield f"edit-{k}", edited
    for _ in range(_TRIALS):
        swapped = dict(packed)
        x, y = rng.sample(nodes, 2)
        swapped[x], swapped[y] = swapped[y], swapped[x]
        yield "swap", swapped
    for t in range(_TRIALS):
        donor, rot = _replay_graph(g, rng.randrange(2**32))
        yield "replay", {x: pack_certificate(c) for x, c in prove_planar(donor, rot).items()}


def _decoded(data):
    try:
        return unpack_certificate(data)
    except FormatError:
        return None


def test_verdicts_match_the_reference_on_every_view():
    reasons: Counter[str] = Counter()
    phases: set[int] = set()
    for name, g in _graphs().items():
        for strategy, packed in _views(name, g):
            certs = {x: _decoded(b) for x, b in packed.items()}
            for x in g.nodes():
                view = {y: certs[y] for y in g.neighbors(x)}
                if certs[x] is None or None in view.values():
                    continue  # rejected at decode, before this verifier runs
                got = verify_node_planarity(x, certs[x], view)
                want = oracle_verify_node_planarity(x, certs[x], view)
                assert got == want, (name, strategy, x)
                reasons[re.sub(r"\d+", "#", want.reason)] += 1
                phases.add(want.phase)
    # The views reach every phase and these checks, so a verifier that
    # differs in any of them shows up here.
    assert phases == {1, 2, 3}
    assert reasons[""] > 0  # accepting nodes
    assert set(reasons) == _REACHED, sorted(reasons)


#: Every reason the views above reach, digits as "#"; "" is accept.
_REACHED = {
    "",
    "certified edge (#, #) is not in the graph",
    "chord attached to foreign copy #",
    "conflicting certificates for copy #",
    "copy # lacks a certified tour step",
    "edge (#, #) certified more than once",
    "edge (#, #) has no certificate",
    "more than one neighbor claims parenthood",
    "node-count claims disagree",
    "node without a parent is not the claimed root",
    "root identity disagrees with a neighbor",
    "visits do not interleave the children subtours",
    "copy #: interval of a left neighbor differs from [next left neighbor, rank]",
    "copy #: interval of a right neighbor differs from [rank, next right neighbor]",
    "copy #: interval of the first left neighbor strictly inside must equal own interval",
    "copy #: interval of the last right neighbor strictly inside must equal own interval",
    "copy #: own interval does not strictly cover the rank or a neighbor escapes it",
}


def _random_pop_view(rng: random.Random):
    """One rank's honest interval view on a random laminar instance, with up
    to three of its intervals moved and a neighbor maybe added or dropped."""
    n = rng.randint(1, 9)
    spans = {(r, r + 1) for r in range(1, n)}
    for _ in range(2 * n if n > 1 else 0):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        if all(b <= c or d <= a or (a <= c and d <= b) or (c <= a and b <= d) for c, d in spans):
            spans.add((a, b))
    ranks = tuple(range(1, n + 1))
    certs = pop_prove(build_graph(sorted(spans), nodes=ranks), PopWitness(ranks))
    rank = rng.randint(1, n)
    nbrs = {r: certs[r] for a, b in spans for r in (a, b) if rank in (a, b) and r != rank}
    if rng.random() < 0.2:
        extra = rng.randint(1, n)
        nbrs[extra] = certs[extra]
    if nbrs and rng.random() < 0.1:
        del nbrs[rng.choice(sorted(nbrs))]
    own = certs[rank]
    for _ in range(rng.randint(0, 3)):
        r = rng.choice(sorted(nbrs) + [rank])
        c = own if r == rank else nbrs[r]
        moved = c._replace(**{rng.choice(("lo", "hi")): rng.randint(-1, n + 2)})
        if r == rank:
            own = moved
        else:
            nbrs[r] = moved
    return rank, own, nbrs


def test_interval_codes_match_the_reference():
    rng = random.Random(41)
    codes: Counter[int | None] = Counter()
    for _ in range(40_000):
        rank, own, nbrs = _random_pop_view(rng)
        want = oracle_pop_verify_node(rank, own, nbrs)
        assert pop_verify_node(rank, own, nbrs) == want, (rank, own, nbrs)
        codes[want] += 1
    # Every code the interval checks have, and accept.  The reference's
    # nesting check (code 17) never decides: the far end of a neighbor
    # interval that ends at x is a neighbor, so it lies in [lo, hi], and
    # lo < x < hi.
    assert set(codes) == set(REJECT_REASONS) | {None}, codes
