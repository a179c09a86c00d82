"""Round-trip and rejection behavior of the shared text formats."""

from __future__ import annotations

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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n1 2\n",  # header too short
        "a b\n",  # header not numeric
        "3 2\n1 2\n",  # promised edges missing
        "4 2\n1 2\n2 3\n",  # node count off
        "3 2\n1 2\n2 3\nrot 1 2 3\n",  # rot line without colon
        "3 2\n1 2\n2 3\nrot 1: 2\nrot 1: 2\n",  # duplicate rotation
        "3 2\n1 2\n2 3\nrot 7: 1\n",  # rotation for unknown node
        "3 2\n1 2\n2 3 4\n",  # unrecognized line shape
        "2 1\nnode\n1 2\n",  # malformed node line
        "2 2\n1 2\n1 1\n",  # self-loop
        "2 2\n1 2\n1 2\n",  # repeated edge
        "3 3\n1 2\n2 3\n2 1\n",  # repeated edge, other orientation
        "2 1\n1 -2\n",  # a node id below 1
    ],
)
def test_graph_parse_rejects(text):
    with pytest.raises(FormatError):
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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 {broken\n",
        '1 {"n":1}\n',  # missing keys
        '1 {"n":1,"tree_sub":{"root_id":1,"parent_id":null,"dist":0},"edge_certs":{}}\n',
        '1 {"n":1,"tree_sub":{"root_id":1},"edge_certs":[]}\n',
        'x {"n":1,"tree_sub":{"root_id":1,"parent_id":null,"dist":0},"edge_certs":[]}\n',
        "1 0a0b0\n",  # odd number of hex digits
        "1 0a0b 0c\n",  # three tokens
        "1 zz\n",  # not hex
        "1\n",  # no bytes
    ],
)
def test_certificate_parse_rejects(text):
    with pytest.raises(FormatError):
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
