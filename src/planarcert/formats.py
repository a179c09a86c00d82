"""Shared text formats: graph files and per-node certificate files.

Graph files: first significant line is ``n m``, followed by ``m`` lines
``u v``, one per edge of a simple graph: a self-loop or a repeated edge is a
format error.  Isolated nodes get ``node u`` lines (the edge list cannot
mention them), counterclockwise orders ride along as ``rot u: v1 v2 ... vd``
lines, and ``#`` starts a comment.

Certificate files hold one line per node, ``<id> <hex> #bits=<n>``: the
node's packed certificate bytes (``pls.pack_certificate``) in hex, and a
comment stating the canonical packed size without padding.  Parsing only
reads the bytes; whether they decode is the verifier's business, exactly as
for bytes handed to ``sim.run_round``.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph, build_graph, norm_edge
from .pls import NodeCertificate, pack_certificate_with_bits


def write_graph(g: Graph, rot: dict[int, tuple[int, ...]] | None = None) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"node {v}" for v in g.nodes() if not g.neighbors(v))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    if rot is not None:
        for v in sorted(rot):
            lines.append(f"rot {v}: " + " ".join(str(u) for u in rot[v]))
    return "\n".join(lines) + "\n"


def _significant_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _int_or_fail(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {token!r}") from None


def parse_graph(text: str) -> tuple[Graph, dict[int, tuple[int, ...]] | None]:
    """Parse the shared graph format; returns (graph, rotation or None)."""
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    n, m = (_int_or_fail(t, "header") for t in head)
    edges: set[tuple[int, int]] = set()
    isolated: list[int] = []
    rot: dict[int, tuple[int, ...]] = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise FormatError(f"malformed node line {line!r}")
            isolated.append(_int_or_fail(parts[1], "node line"))
        elif parts[0] == "rot":
            if len(parts) < 2 or not parts[1].endswith(":"):
                raise FormatError(f"malformed rotation line {line!r}")
            v = _int_or_fail(parts[1][:-1], "rotation line")
            if v in rot:
                raise FormatError(f"duplicate rotation line for node {v}")
            rot[v] = tuple(_int_or_fail(t, "rotation line") for t in parts[2:])
        elif len(parts) == 2:
            u, v = (_int_or_fail(t, "edge line") for t in parts)
            if u == v:
                raise FormatError(f"self-loop {line!r}: the graph must be simple")
            if norm_edge(u, v) in edges:
                raise FormatError(f"repeated edge {line!r}: the graph must be simple")
            edges.add(norm_edge(u, v))
        else:
            raise FormatError(f"unrecognized line {line!r}")
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, file has {len(edges)}")
    try:
        g = build_graph(edges, nodes=isolated)
    except Exception as exc:
        raise FormatError(f"invalid graph data: {exc}") from None
    if g.n != n:
        raise FormatError(f"header promises {n} nodes, edges mention {g.n}")
    if rot:
        extra = set(rot) - set(g.nodes())
        if extra:
            raise FormatError(f"rotation lines for unknown nodes {sorted(extra)}")
    return g, (rot or None)


# --- certificate files ----------------------------------------------------------


def write_certificates(certs: dict[int, NodeCertificate]) -> str:
    lines = []
    for x, c in sorted(certs.items()):
        data, bits = pack_certificate_with_bits(c)
        lines.append(f"{x} {data.hex()} #bits={bits}")
    return "\n".join(lines) + "\n"


def parse_certificates(text: str) -> dict[int, bytes]:
    """Each node's certificate bytes; a line that is not ``<id> <hex>`` raises."""
    out: dict[int, bytes] = {}
    for line in _significant_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"certificate line must be '<id> <hex>', got {line!r}")
        x = _int_or_fail(parts[0], "certificate line")
        if x in out:
            raise FormatError(f"duplicate certificate for node {x}")
        try:
            out[x] = bytes.fromhex(parts[1])
        except ValueError:
            raise FormatError(f"node {x}: certificate is not hex") from None
    if not out:
        raise FormatError("certificate file has no records")
    return out
