"""Splice forgeries: a non-planar graph's honest proof minus one edge, plus it.

Take an edge e of g such that g - e is planar and prove g - e honestly.  The
tree, the tour and every interval are then honest, and only e lacks a
certificate.  Splice it back in as a chord between one copy of each end,
reusing the intervals the honest proof gives those copies.  On K5 and
K3,3 every node of every splice passes phases 1 and 2, and the chord
crosses an edge of the unfolding, so the interval checks of phase 3 are
what rejects it.
"""

from __future__ import annotations

from planarcert.embedding import planar_embed
from planarcert.graphs import Graph, build_graph
from planarcert.pls import EdgeCertificate, pack_certificate, prove_planar
from planarcert.sim import Assignment, Origin


_SPLICE = Origin("external", base="splice")


def _copies(certs) -> dict[int, dict]:
    """Each node's tour copies, with the interval the honest proof gives each."""
    copies: dict[int, dict] = {}
    for holder, cert in certs.items():
        for far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2 in cert.edge_certs:
            copies.setdefault(holder, {}).update({i: pop_i, i2: pop_i2})
            copies.setdefault(far, {}).update({j: pop_j, j2: pop_j2})
    return copies


def splice_forgeries(g: Graph) -> list[tuple[str, Assignment]]:
    """Every splice forgery of g, each with a label naming its chord.

    For each edge (u, v) of g whose removal leaves g planar, each end that
    holds fewer than three edge certificates in the proof of g - (u, v)
    holds the chord in turn, once for every pair of copies of u and v.
    """
    out = []
    for u, v in g.edges():
        rest = build_graph([e for e in g.edges() if e != (u, v)], nodes=g.nodes())
        rot = planar_embed(rest, counterexample=False)
        if rot is None:
            continue
        certs = prove_planar(rest, rot)
        packed = {x: pack_certificate(cert) for x, cert in certs.items()}
        copies = _copies(certs)
        for holder, far in ((u, v), (v, u)):
            held = certs[holder].edge_certs
            if len(held) >= 3:
                continue
            for i, pop_i in sorted(copies[holder].items()):
                for j, pop_j in sorted(copies[far].items()):
                    chord = EdgeCertificate(far, i, j, i, j, pop_i, pop_j, pop_i, pop_j)
                    forged = certs[holder]._replace(edge_certs=held + (chord,))
                    label = f"chord {holder}-{far} at copies {i}, {j}"
                    a = Assignment({**packed, holder: pack_certificate(forged)}, _SPLICE)
                    out.append((label, a))
    return out
