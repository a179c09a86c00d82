"""A reference decoder for the wire layout: one callback per field.

It states the layout the way ``pls._walk`` reads it: ``field(name, width,
lo, hi)`` is asked for each field in order and returns its value, and the
walk rebuilds the certificate from those values, refilling what the wire
leaves out.  A repeated copy shares its first slot's interval object.
``reference_unpack`` feeds it from packed bytes, range-checking each field,
so its certificates and FormatError texts are what ``unpack_certificate``
must give; a test compares the two.
"""

from __future__ import annotations

from planarcert.errors import FormatError
from planarcert.pls import MAX_EDGE_CERTS, EdgeCertificate, NodeCertificate, TreeSub
from planarcert.pop import PopCertificate


def reference_walk(field, id_bits: int, idx_bits: int) -> NodeCertificate:
    """The certificate whose fields, in layout order, ``field`` returns."""
    top_id = (1 << id_bits) - 1
    count = field("count", 2, 0, MAX_EDGE_CERTS)
    n = field("n", idx_bits, 1, ((1 << idx_bits) - 3) // 2)
    nv = 2 * n - 1
    index_bits = nv.bit_length()
    root_id = field("root_id", id_bits, 1, top_id)
    sent: dict[int, PopCertificate] = {}  # copy index -> its first slot's interval
    edge_certs = []
    for _ in range(count):
        far = field("far", id_bits, 1, top_id)
        # 0: one chord, whose single slot pair fills both slots; 1: a second
        # pair follows (a tree edge's second tour step)
        second = field("second", 1, 0, 1 if n > 1 else 0)
        slots = []  # each slot's copy index, then its interval certificate
        k = 0
        for s in range(4 if second else 2):
            if second and s & 1:
                # the far end of a tour step, next to its near end k
                up = field("step", 1, 1 if k == 1 else 0, 1 if k < nv else 0)
                k += 2 * up - 1
            else:
                k = field("index", index_bits, 1, nv)
            if k not in sent:
                # lo + 1 in 0..k and hi - k - 1 in 0..nv + 1 - k, each in the
                # bits of its largest value
                lo = field("lo", k.bit_length(), 0, k)
                hi = field("hi", (nv + 1 - k).bit_length(), 0, nv + 1 - k)
                sent[k] = PopCertificate(nv, k, lo - 1, hi + k + 1)
            slots += (k, sent[k])
        if not second:
            slots *= 2
        i, pop_i, j, pop_j, i2, pop_i2, j2, pop_j2 = slots
        edge_certs.append(EdgeCertificate(far, i, j, i2, j2, pop_i, pop_j, pop_i2, pop_j2))
    return NodeCertificate(tuple(edge_certs), TreeSub(root_id), n)


def reference_unpack(data: bytes) -> NodeCertificate:
    """Decode packed bytes through ``reference_walk``, one call per field."""
    if len(data) < 3:
        raise FormatError("certificate bytes too short")
    id_bits, idx_bits = data[0], data[1]
    if id_bits < 1 or idx_bits < 1:
        raise FormatError("implausible field widths")
    stream = int.from_bytes(data[2:], "big")
    rest = 8 * (len(data) - 2)  # bits not yet taken

    def take(name, width, lo, hi):
        nonlocal rest
        rest -= width
        if rest < 0:
            raise FormatError("certificate bitstream is truncated")
        got = (stream >> rest) & ((1 << width) - 1)
        if not lo <= got <= hi:
            raise FormatError(f"{name} = {got} is outside {lo}..{hi}")
        return got

    cert = reference_walk(take, id_bits, idx_bits)
    if rest >= 8 or stream & ((1 << rest) - 1):
        raise FormatError("certificate bitstream has trailing data")
    return cert
