"""Round-trip and rejection behavior of the shared text formats."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import FormatError
from planarcert.formats import (
    parse_certificates,
    parse_graph,
    write_certificates,
    write_graph,
)
from planarcert.graphs import build_graph, generate
from planarcert.pls import (
    _set_field,
    certificate_bit_fields,
    certificate_size_bits,
    pack_certificate,
    prove_planar,
    unpack_certificate,
)
from reference_formats import reference_parse_certificates, reference_parse_graph


def test_graph_round_trip_plain():
    g = generate("grid", w=3, h=3)
    parsed, rot = parse_graph(write_graph(g))
    assert rot is None
    assert parsed.nodes() == g.nodes()
    assert parsed.edges() == g.edges()


def test_graph_round_trip_with_rotation_and_isolated_node():
    g = build_graph([(1, 2), (2, 3)], nodes=[9])
    rot = {1: (2,), 2: (1, 3), 3: (2,), 9: ()}
    text = write_graph(g, rot)
    assert "node 9" in text
    parsed, parsed_rot = parse_graph(text)
    assert parsed.nodes() == [1, 2, 3, 9]
    assert parsed_rot == rot


def test_graph_comments_and_blank_lines_ignored():
    text = "# corpus item\n\n3 2\n1 2  # an edge\n2 3\n"
    g, _ = parse_graph(text)
    assert g.n == 3 and g.m == 2


#: Each malformed graph file and its refusal, word for word.
_GRAPH_REFUSALS = dict(
    [
        ("", "empty graph file"),
        ("3\n1 2\n", "header must be 'n m', got '3'"),  # header too short
        ("a b\n", "header: expected an integer, got 'a'"),  # header not numeric
        ("3 x\n", "header: expected an integer, got 'x'"),
        ("3 2\n1 2\n", "header promises 2 edges, file has 1"),  # promised edges missing
        ("4 2\n1 2\n2 3\n", "header promises 4 nodes, edges mention 3"),  # node count off
        # rot line without colon
        ("3 2\n1 2\n2 3\nrot 1 2 3\n", "malformed rotation line 'rot 1 2 3'"),
        ("3 2\n1 2\n2 3\nrot\n", "malformed rotation line 'rot'"),
        ("3 2\n1 2\n2 3\nrot 1: 2\nrot 1: 2\n", "duplicate rotation line for node 1"),
        # rotation for unknown node
        ("3 2\n1 2\n2 3\nrot 7: 1\n", "rotation lines for unknown nodes [7]"),
        ("3 2\n1 2\n2 3 4\n", "unrecognized line '2 3 4'"),  # unrecognized line shape
        ("2 1\nnode\n1 2\n", "malformed node line 'node'"),
        ("2 1\n1 2\nnode 1 2\n", "malformed node line 'node 1 2'"),
        ("2 2\n1 2\n1 1\n", "self-loop '1 1': the graph must be simple"),
        ("2 2\n1 2\n1 2\n", "repeated edge '1 2': the graph must be simple"),
        # repeated edge, other orientation
        ("3 3\n1 2\n2 3\n2 1\n", "repeated edge '2 1': the graph must be simple"),
        # a refusal quotes the line as the file writes it, without its comment
        ("3 3\n1 2\n2 3\n 2\t1 # again\n", "repeated edge '2\\t1': the graph must be simple"),
        ("2 1\n1 -2\n", "invalid graph data: node id must be positive, got -2"),  # an id below 1
        ("2 1\n1 2\nnode 0\n", "invalid graph data: node id must be positive, got 0"),
        # which token a refusal names: the first that is not an integer
        ("2 1\n1 x\n", "edge line: expected an integer, got 'x'"),
        ("2 1\nx 1\n", "edge line: expected an integer, got 'x'"),
        ("2 1\ny x\n", "edge line: expected an integer, got 'y'"),
        ("2 1\n1 2\nnode x\n", "node line: expected an integer, got 'x'"),
        ("2 1\n1 2\nrot x: 1\n", "rotation line: expected an integer, got 'x'"),
        ("2 1\n1 2\nrot 1: x\n", "rotation line: expected an integer, got 'x'"),
        ("2 1\n1 2\nrot y: x\n", "rotation line: expected an integer, got 'y'"),
        ("2 1\n1 2\nrot 1: 2 y x\n", "rotation line: expected an integer, got 'y'"),
    ]
)


@pytest.mark.parametrize("text", list(_GRAPH_REFUSALS))
def test_graph_parse_rejects(text):
    with pytest.raises(FormatError, match=f"^{re.escape(_GRAPH_REFUSALS[text])}$"):
        parse_graph(text)


def _packed(certs):
    return {x: pack_certificate(c) for x, c in certs.items()}


def test_certificates_round_trip_identically():
    g = generate("wheel", n=8)
    certs = prove_planar(g)
    parsed = parse_certificates(write_certificates(certs))
    # the file carries the very same bytes, which decode to the certificates
    assert parsed == _packed(certs)
    assert {x: unpack_certificate(b) for x, b in parsed.items()} == certs


def test_certificate_lines_state_canonical_bits():
    g = generate("grid", w=2, h=2)
    certs = prove_planar(g)
    text = write_certificates(certs)
    for line in text.strip().splitlines():
        assert " #bits=" in line
        x, data = line.split()[:2]
        bits = int(line.rpartition(" #bits=")[2])
        assert bits == certificate_size_bits(certs[int(x)]) > 0
        assert bytes.fromhex(data) == pack_certificate(certs[int(x)])


def test_certificate_bits_annotation_is_advisory():
    g = generate("grid", w=2, h=2)
    certs = prove_planar(g)
    doctored = write_certificates(certs).replace(" #bits=", " #bits=junk-", 1)
    assert parse_certificates(doctored) == _packed(certs)


#: Each malformed certificate file and its refusal, word for word.
_CERTIFICATE_REFUSALS = dict(
    [
        ("", "certificate file has no records"),
        ("# only a comment\n\n", "certificate file has no records"),
        ("1 {broken\n", "node 1: certificate is not hex"),
        ('1 {"n":1}\n', "node 1: certificate is not hex"),  # the retired JSON layout
        (
            '1 {"n":1,"tree_sub":{"root_id":1,"parent_id":null,"dist":0},"edge_certs":{}}\n',
            "node 1: certificate is not hex",
        ),
        ('1 {"n":1,"tree_sub":{"root_id":1},"edge_certs":[]}\n', "node 1: certificate is not hex"),
        (
            'x {"n":1,"tree_sub":{"root_id":1,"parent_id":null,"dist":0},"edge_certs":[]}\n',
            "certificate line: expected an integer, got 'x'",
        ),
        ("1 0a0b0\n", "node 1: certificate is not hex"),  # odd number of hex digits
        ("1 0a0b 0c\n", "certificate line must be '<id> <hex>', got '1 0a0b 0c'"),  # three tokens
        ("1 zz\n", "node 1: certificate is not hex"),  # not hex
        ("1\n", "certificate line must be '<id> <hex>', got '1'"),  # no bytes
        # the id is read before the bytes
        ("x 0a\n", "certificate line: expected an integer, got 'x'"),
        ("x zz\n", "certificate line: expected an integer, got 'x'"),
        ("1 0a\n 1\t0b #bits=8\n", "duplicate certificate for node 1"),
    ]
)


@pytest.mark.parametrize("text", list(_CERTIFICATE_REFUSALS))
def test_certificate_parse_rejects(text):
    with pytest.raises(FormatError, match=f"^{re.escape(_CERTIFICATE_REFUSALS[text])}$"):
        parse_certificates(text)


def test_certificate_duplicate_node_rejected():
    g = build_graph([(1, 2)])
    text = write_certificates(prove_planar(g))
    line = text.splitlines()[0]
    with pytest.raises(FormatError):
        parse_certificates(text + line + "\n")


def test_certificate_values_pass_through_unjudged():
    # A root id of 0 is outside the root_id field's legal range; the parser
    # hands the bytes over anyway and only decoding objects.
    g = build_graph([(1, 2)])
    certs = prove_planar(g)
    cert = certs[2]
    fields = certificate_bit_fields(cert)
    root = next(k for k, f in enumerate(fields) if f.name == "root_id")
    assert fields[root].value == 1 and fields[root].lo == 1
    edited = _set_field(pack_certificate(cert), fields, root, 0)
    text = write_certificates(certs).replace(pack_certificate(cert).hex(), edited.hex())
    parsed = parse_certificates(text)
    assert parsed[2] == edited
    with pytest.raises(FormatError):
        unpack_certificate(parsed[2])


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_certificate_parser_raises_only_format_errors(text):
    try:
        parsed = parse_certificates(text)
    except FormatError:
        return
    assert parsed and all(isinstance(b, bytes) for b in parsed.values())


# Text over the format's own alphabet reaches the deeper checks; arbitrary
# text exercises the rest.
GRAPH_LIKE = st.text(alphabet=st.sampled_from("0123456789 \n#:rotnde-x"), max_size=120)


@settings(max_examples=300, deadline=None)
@given(GRAPH_LIKE | st.text(max_size=120))
def test_graph_parser_raises_only_format_errors(text):
    try:
        parse_graph(text)
    except FormatError:
        pass


# --- the readers against the reference readers ----------------------------------


def _read_or_refusal(parse, text: str):
    try:
        return parse(text)
    except FormatError as refused:
        return str(refused)


def _assert_reads_as_the_reference(text: str) -> None:
    """Both readers give the reference's graph, rotation and bytes, down to
    the order of every map, or its refusal text."""
    got = _read_or_refusal(parse_graph, text)
    want = _read_or_refusal(reference_parse_graph, text)
    assert type(got) is type(want), text
    if isinstance(got, str):
        assert got == want, text
    else:
        (g, rot), (want_g, want_rot) = got, want
        assert list(g.adj.items()) == list(want_g.adj.items()), text
        assert g.connected is want_g.connected
        assert rot == want_rot and list((rot or {}).items()) == list((want_rot or {}).items())
    got = _read_or_refusal(parse_certificates, text)
    want = _read_or_refusal(reference_parse_certificates, text)
    assert type(got) is type(want), text
    if isinstance(got, str):
        assert got == want, text
    else:
        assert list(got.items()) == list(want.items()), text


#: Line ends (the breaks ``str.splitlines`` knows, or a blank that joins two
#: lines), blanks ``str.split`` knows, and tokens that ``int`` reads or
#: refuses in less common ways.
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", " "])
_BLANKS = st.sampled_from([" ", " ", "\t", "  ", "\xa0", "　"])
_ODD_TOKENS = st.sampled_from(
    ["0", "-1", "+2", "0_3", "1__2", "٣", "x", "0a", "zz", "node", "rot", "1:", ":", "rot:", "#"]
)


@st.composite
def _format_texts(draw):
    """Graph or certificate files that are mostly well formed: lines of
    small ids, a header that is right or drawn, comments, blank lines, now
    and then odd tokens, and every line break and blank the readers split
    on."""
    ids = st.integers(1, 7)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=12))
        isolated = draw(st.lists(st.integers(1, 9), max_size=2))
        lines = [[str(u), str(v)] for u, v in edges] + [["node", str(v)] for v in isolated]
        named = sorted({v for e in edges for v in e} | set(isolated))
        for v in draw(st.lists(st.sampled_from(named), max_size=3, unique=True)) if named else ():
            lines.append(["rot", f"{v}:", *(str(u) for e in edges for u in e if v in e and u != v)])
        simple = {(min(u, v), max(u, v)) for u, v in edges}
        header = [[str(len(named)), str(len(simple))]]
    else:
        odd_end = st.sampled_from(["z", "0"] + [""] * 14)  # not hex, or an odd digit count
        lines = [
            [str(v), draw(st.binary(min_size=1, max_size=6)).hex() + draw(odd_end)]
            for v in draw(st.lists(st.integers(0, 9), max_size=6, unique=draw(st.booleans())))
        ]
        header = []
    if draw(st.integers(0, 2)) == 0:
        lines.append(draw(st.lists(_ODD_TOKENS | st.integers(-2, 9).map(str), min_size=1, max_size=3)))
    lines = draw(st.permutations(lines))
    if header and draw(st.integers(0, 3)) == 0:
        header = [draw(st.lists(_ODD_TOKENS | st.integers(0, 9).map(str), max_size=3))]
    out = []
    for tokens in header + lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["", "#", "# note", "  "])))
        line = draw(_BLANKS).join(tokens)
        if draw(st.integers(0, 3)) == 0:
            line = draw(_BLANKS) + line + draw(st.sampled_from(["", " # c", "#bits=9", "\t"]))
        out.append(line)
    return "".join(line + draw(_BREAKS) for line in out)


@settings(max_examples=600, deadline=None)
@given(_format_texts())
def test_readers_match_the_reference_readers(text):
    _assert_reads_as_the_reference(text)


@settings(max_examples=300, deadline=None)
@given(GRAPH_LIKE | st.text(max_size=120))
def test_readers_match_the_reference_on_arbitrary_text(text):
    _assert_reads_as_the_reference(text)


def test_readers_match_the_reference_on_the_benchmark_files():
    # The verify benchmark's graphs (seed 101) and certificates, as written
    # and with a comment line, blank lines and CRLF line breaks added.
    for g in (
        generate("grid", w=32, h=32),
        generate("random_maximal_planar", n=1024, seed=101),
        generate("tree", n=1024, seed=101),
    ):
        for text in (write_graph(g), write_certificates(prove_planar(g))):
            _assert_reads_as_the_reference(text)
            _assert_reads_as_the_reference("# a copy\r\n\r\n" + text.replace("\n", "\r\n") + "\r\n")
