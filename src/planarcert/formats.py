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
from .graphs import Graph, build_graph
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
    """Each line that holds a token: its text before any ``#``, and the
    tokens of that text."""
    for raw in text.splitlines():
        body = raw.partition("#")[0]
        tokens = body.split()
        if tokens:
            yield body, tokens


def _not_an_int(tokens: list[str], what: str) -> FormatError:
    """The refusal naming the first of ``tokens`` that ``int`` refuses; it
    is built only after ``int`` refused one of them."""
    for token in tokens:
        try:
            int(token)
        except ValueError:
            return FormatError(f"{what}: expected an integer, got {token!r}")


def parse_graph(text: str) -> tuple[Graph, dict[int, tuple[int, ...]] | None]:
    """Parse the shared graph format; returns (graph, rotation or None).

    Each line is read in one step: its tokens are split off once and each
    is turned into an int once; a refusal's text is built only when it is
    raised.
    """
    lines = _significant_lines(text)
    body, head = next(lines, ("", None))
    if head is None:
        raise FormatError("empty graph file")
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {body.strip()!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise _not_an_int(head, "header") from None
    edges: set[tuple[int, int]] = set()
    isolated: list[int] = []
    rot: dict[int, tuple[int, ...]] = {}
    for body, tokens in lines:
        kind = tokens[0]
        if kind == "node":
            if len(tokens) != 2:
                raise FormatError(f"malformed node line {body.strip()!r}")
            try:
                isolated.append(int(tokens[1]))
            except ValueError:
                raise _not_an_int(tokens[1:], "node line") from None
        elif kind == "rot":
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise FormatError(f"malformed rotation line {body.strip()!r}")
            try:
                v = int(tokens[1][:-1])
            except ValueError:
                raise _not_an_int([tokens[1][:-1]], "rotation line") from None
            if v in rot:
                raise FormatError(f"duplicate rotation line for node {v}")
            try:
                rot[v] = tuple(map(int, tokens[2:]))
            except ValueError:
                raise _not_an_int(tokens[2:], "rotation line") from None
        elif len(tokens) == 2:
            try:
                u, v = int(kind), int(tokens[1])
            except ValueError:
                raise _not_an_int(tokens, "edge line") from None
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                what = "self-loop" if u == v else "repeated edge"
                raise FormatError(f"{what} {body.strip()!r}: the graph must be simple")
            edges.add(e)
        else:
            raise FormatError(f"unrecognized line {body.strip()!r}")
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
    for body, tokens in _significant_lines(text):
        if len(tokens) != 2:
            raise FormatError(f"certificate line must be '<id> <hex>', got {body.strip()!r}")
        try:
            x = int(tokens[0])
        except ValueError:
            raise _not_an_int(tokens, "certificate line") from None
        if x in out:
            raise FormatError(f"duplicate certificate for node {x}")
        try:
            out[x] = bytes.fromhex(tokens[1])
        except ValueError:
            raise FormatError(f"node {x}: certificate is not hex") from None
    if not out:
        raise FormatError("certificate file has no records")
    return out
