"""Lifts of planar graphs, with the base's honest certificates carried up.

A one-round verifier sees a lift's node exactly as its base node, ids aside,
so on a non-planar lift only the ids can give the forgery away: each sheet's
copy of the root claims the root's id without being it.  Criterion 10
requires exactly those copies to reject.
"""

from __future__ import annotations

import random

from planarcert.graphs import Graph, build_graph
from planarcert.pls import pack_certificate, prove_planar
from planarcert.sim import Assignment, Origin


def _lift(g: Graph, k: int, seed: int | str) -> tuple[Graph, Assignment]:
    """A k-lift of planar g, and g's honest certificates carried up to it.

    Each edge (u, v), u < v, gets a random voltage a in 0..k-1 and lifts to
    the k edges from copy s of u to copy s + a (mod k) of v.  Copy s of node
    v has id v + s * max(g's ids), so sheet 0 keeps g's ids.  Every copy of v
    gets v's honest certificate with each ``far`` mapped to the copy of that
    neighbor it is joined to, re-packed; nothing else is edited.  Each copy's
    radius-1 view then looks like its base node's, except through the ids.
    """
    rng = random.Random(seed)
    top = max(g.nodes())
    voltage: dict[tuple[int, int], int] = {}
    for u, v in g.edges():
        voltage[(u, v)] = a = rng.randrange(k)
        voltage[(v, u)] = -a % k
    edges = [
        (u + s * top, v + (s + voltage[(u, v)]) % k * top)
        for u, v in g.edges()
        for s in range(k)
    ]
    lifted = build_graph(edges, nodes=[v + s * top for s in range(k) for v in g.nodes()])
    certs = {}
    for v, cert in prove_planar(g).items():
        for s in range(k):
            ecs = tuple(
                ec._replace(far=ec.far + (s + voltage[(v, ec.far)]) % k * top)
                for ec in cert.edge_certs
            )
            certs[v + s * top] = pack_certificate(cert._replace(edge_certs=ecs))
    return lifted, Assignment(certs, Origin("external", base=f"{k}-lift"))
