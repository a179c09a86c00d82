"""Command surface: exit codes, output shapes, and the file round-trip."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarcert

from planarcert.cli import _parse_params, main, verdicts_from_files
from planarcert.formats import parse_certificates, parse_graph, write_certificates, write_graph
from planarcert.graphs import build_graph, generate
from planarcert.pls import (
    _set_field,
    certificate_bit_fields,
    pack_certificate,
    pack_certificate_with_bits,
    prove_planar,
)
from planarcert.sim import honest_assignment, run_round


def _graph_file(tmp_path, g, name="graph.txt", rot=None):
    path = tmp_path / name
    path.write_text(write_graph(g, rot))
    return str(path)


# --- embed ------------------------------------------------------------------


def test_embed_grid_emits_nine_rotation_lines(tmp_path, capsys):
    code = main(["embed", _graph_file(tmp_path, generate("grid", w=3, h=3))])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("rot ")) == 9
    g, rot = parse_graph(out)
    assert g.n == 9 and rot is not None


def test_embed_k5_reports_witness(tmp_path, capsys):
    code = main(["embed", _graph_file(tmp_path, generate("complete", k=5))])
    out = capsys.readouterr().out
    assert code == 2
    assert "K5-subdivision" in out


def test_embed_malformed_header_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n")
    assert main(["embed", str(path)]) == 64
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    assert main(["embed", str(tmp_path / "absent.txt")]) == 64
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 64
    assert "error:" in capsys.readouterr().err


# --- prove / verify -----------------------------------------------------------


def test_prove_then_verify_wheel(tmp_path, capsys):
    g = generate("wheel", n=8)
    graph = _graph_file(tmp_path, g)
    certs = str(tmp_path / "certs.txt")
    assert main(["prove", graph, "--out", certs]) == 0
    capsys.readouterr()

    code = main(["verify", graph, certs])
    out = capsys.readouterr().out
    assert code == 0
    node_lines = [line for line in out.splitlines() if line.startswith("node ")]
    assert len(node_lines) == 8
    assert all(line.endswith("accept") for line in node_lines)
    assert "global: accept" in out


def test_file_round_trip_reproduces_in_process_verdicts():
    g = generate("random_maximal_planar", n=18, seed=5)
    in_process = run_round(g, honest_assignment(g))
    graph_text = write_graph(g)
    cert_text = write_certificates(prove_planar(g))

    from_files = verdicts_from_files(graph_text, cert_text)
    assert from_files == in_process.per_node

    reparsed = parse_certificates(cert_text)
    for x, cert in prove_planar(g).items():
        assert reparsed[x] == pack_certificate(cert)


def test_prove_non_planar_exits_with_witness(tmp_path, capsys):
    code = main(["prove", _graph_file(tmp_path, generate("complete_bipartite", p=3, q=3))])
    assert code == 2
    assert "subdivision" in capsys.readouterr().out


def test_verify_foreign_certificates_mismatch(tmp_path, capsys):
    wheel = _graph_file(tmp_path, generate("wheel", n=8), "wheel.txt")
    grid = _graph_file(tmp_path, generate("grid", w=3, h=3), "grid.txt")
    certs = str(tmp_path / "grid-certs.txt")
    assert main(["prove", grid, "--out", certs]) == 0
    capsys.readouterr()
    assert main(["verify", wheel, certs]) == 65
    assert "mismatch" in capsys.readouterr().err


def _edited_field(cert, name: str, value: int) -> bytes:
    """The packed certificate with its first ``name`` field set to ``value``."""
    fields = certificate_bit_fields(cert)
    target = next(k for k, f in enumerate(fields) if f.name == name)
    return _set_field(pack_certificate(cert), fields, target, value)


def test_verify_one_edited_field_rejects(tmp_path, capsys):
    g = generate("wheel", n=8)
    graph = _graph_file(tmp_path, g)
    certs = prove_planar(g)
    x = 3  # claims node 2 as root, which its neighbors do not
    text = write_certificates(certs)
    doctored = tmp_path / "doctored.txt"
    edited = _edited_field(certs[x], "root_id", 2)
    doctored.write_text(text.replace(pack_certificate(certs[x]).hex(), edited.hex(), 1))
    code = main(["verify", graph, str(doctored)])
    out = capsys.readouterr().out
    assert code == 3
    assert "global: reject" in out
    assert any("reject [phase" in line for line in out.splitlines())


def test_verify_undecodable_bytes_reject_in_phase_one(tmp_path, capsys):
    # root_id = 0 is no node id: the line is hex, so this is a verdict
    # (exit 3), not a parse error.
    g = generate("wheel", n=8)
    graph = _graph_file(tmp_path, g)
    certs = prove_planar(g)
    edited = _edited_field(certs[3], "root_id", 0)
    doctored = tmp_path / "doctored.txt"
    doctored.write_text(
        write_certificates(certs).replace(pack_certificate(certs[3]).hex(), edited.hex(), 1)
    )
    assert main(["verify", graph, str(doctored)]) == 3
    out = capsys.readouterr().out
    assert "node 3: reject [phase 1] own certificate does not decode" in out


#: Certificate files ``prove`` wrote while the layout still sent each
#: node's tree depth (a ``dist`` field after ``root_id``).
_DEPTH_LAYOUT_FILES = {
    "edge": (build_graph([(1, 2)]), "1 020329149b359a34\n2 01030a40\n"),
    "wheel-6": (
        generate("wheel", n=6),
        "1 03044c42ac751332c74c74\n"
        "2 03046c44c8743b4f91d6a7c66cd21d8ed3e1ec\n"
        "3 03044c5499b2c7659b0b8cd97b\n"
        "4 03044c509572c76d57098ef77b\n"
        "5 03042c4f51303b0f77b0\n"
        "6 01040d20\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_DEPTH_LAYOUT_FILES))
def test_verify_rejects_files_in_the_depth_layout(tmp_path, capsys, name):
    # The layout has no version field; a file in the old layout is still
    # hex, so every node's own bytes fail to decode: a verdict, not a crash.
    g, text = _DEPTH_LAYOUT_FILES[name]
    certs = tmp_path / "certs.txt"
    certs.write_text(text)
    assert main(["verify", _graph_file(tmp_path, g), str(certs)]) == 3
    node_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("node ")]
    assert node_lines == [
        f"node {x}: reject [phase 1] own certificate does not decode" for x in g.nodes()
    ]


#: Certificate files ``prove`` wrote while the layout still sent a copy's
#: interval (``lo``, ``hi``) with every slot that named the copy, and its
#: edge certificate count in 3 bits, the lines ``verify`` prints for them
#: now, and the nodes whose certificates moved.  The count now takes 2 bits,
#: which shifts every later field, and no certificate in these files
#: decodes.  In the wheel, node 2 held three edges and packed the largest
#: certificate (16 bytes): it now passes one to node 1, which passes one to
#: node 5, and the largest is 12 bytes.
_EVERY_INTERVAL_FILES = {
    "edge": (
        build_graph([(1, 2)]),
        "1 020329a4d9acd1a0\n2 01030a\n",
        (
            "node 1: reject [phase 1] own certificate does not decode",
            "node 2: reject [phase 1] own certificate does not decode",
        ),
        set(),
    ),
    "wheel-6": (
        generate("wheel", n=6),
        "1 03044c6ac751332c74c740\n"
        "2 03046c4c8743b4f91d6a7c66cd21d8ed3e1ec0\n"
        "3 03044c499b2c7659b0b8cd97b0\n"
        "4 03044c49572c76d57098ef77b0\n"
        "5 03042c751303b0f77b\n"
        "6 01040d\n",
        (
            "node 1: reject [phase 1] own certificate does not decode",
            "node 2: reject [phase 1] own certificate does not decode",
            "node 3: reject [phase 1] own certificate does not decode",
            "node 4: reject [phase 1] own certificate does not decode",
            "node 5: reject [phase 1] own certificate does not decode",
            "node 6: reject [phase 1] own certificate does not decode",
        ),
        {1, 2, 5},
    ),
    "grid-3x3": (
        generate("grid", w=3, h=3),
        "1 0305492a10ce19c433165110cc8198\n"
        "2 0305492d02c92595883386702c8a88\n"
        "3 0305293a92c85924b2aa20\n"
        "4 0305493640cc19b9b0aa3e40ce5939b03600\n"
        "5 040549163d5152a307aa2c5c00\n"
        "6 04052919a0b2164a546b80\n"
        "7 0405291894b2964d6c0b80\n"
        "8 0405291998b2964c5c0b80\n"
        "9 01050980\n",
        (
            "node 1: reject [phase 1] own certificate does not decode",
            "node 2: reject [phase 1] own certificate does not decode",
            "node 3: reject [phase 1] own certificate does not decode",
            "node 4: reject [phase 1] own certificate does not decode",
            "node 5: reject [phase 1] own certificate does not decode",
            "node 6: reject [phase 1] own certificate does not decode",
            "node 7: reject [phase 1] own certificate does not decode",
            "node 8: reject [phase 1] own certificate does not decode",
            "node 9: reject [phase 1] own certificate does not decode",
        ),
        set(),
    ),
}


def _verify_prints(tmp_path, capsys, g, text, lines):
    certs = tmp_path / "certs.txt"
    certs.write_text(text)
    assert main(["verify", _graph_file(tmp_path, g), str(certs)]) == 3
    out = capsys.readouterr().out
    assert tuple(line for line in out.splitlines() if line.startswith("node ")) == lines
    assert "global: reject" in out


@pytest.mark.parametrize("name", sorted(_EVERY_INTERVAL_FILES))
def test_verify_judges_files_in_the_every_interval_layout(tmp_path, capsys, name):
    _verify_prints(tmp_path, capsys, *_EVERY_INTERVAL_FILES[name][:3])


def _bits(data: bytes) -> str:
    return "".join(f"{b:08b}" for b in data[2:])


@pytest.mark.parametrize("name", sorted(_EVERY_INTERVAL_FILES))
def test_honest_bytes_are_the_every_interval_layout_without_its_repeats(name):
    # The earlier layout sent the count in 3 bits, and lo and hi (idx_bits
    # each) after every index or step field; this one sends the count in 2
    # bits, and lo and hi only after the first field naming a copy.  No node
    # of these graphs held more than three certificates, so the count's first
    # bit was 0.  Where a node kept its certificates, cutting that bit and the
    # repeats' windows out of the old bits gives the new ones.
    g, text, _, moved = _EVERY_INTERVAL_FILES[name]
    certs = prove_planar(g)
    kept = set()
    for x, old in parse_certificates(text).items():
        new, nbits = pack_certificate_with_bits(certs[x])
        bits = _bits(old)
        assert bits[0] == "0", x
        fields = certificate_bit_fields(certs[x])
        cut, at = [], 1
        for f, after in zip(fields, fields[1:] + (None,)):
            cut.append(bits[at : at + f.width])
            at += f.width
            if f.name in ("index", "step") and (after is None or after.name != "lo"):
                at += 2 * old[1]  # a repeated copy's interval
        payload = _bits(new)
        if (
            new[:2] == old[:2]
            and payload[:nbits] == "".join(cut)
            and "1" not in payload[nbits:] + bits[at:]  # padding only
        ):
            kept.add(x)
    assert set(certs) - kept == moved


#: Certificate files ``prove`` wrote while a node held up to five edge
#: certificates and the count took 3 bits, the lines ``verify`` prints for
#: them now, and the nodes whose certificates moved.  Node 1 of the maximal
#: planar graph held four, and node 2 of the wheel packed the largest
#: certificate; lowering the largest (18 bytes to 15 in the maximal planar
#: graph) moved edges at every node of that graph.
_THREE_BIT_COUNT_FILES = {
    "wheel-6": (
        generate("wheel", n=6),
        "1 03044c6ac751332cc740\n"
        "2 03046c4c8743b4f91d6a66cd28ed1ec0\n"
        "3 03044c499b2c7658b8d7b0\n"
        "4 03044c49572c76d498ef77b0\n"
        "5 03042c751303b0f77b\n"
        "6 01040d\n",
        (
            "node 1: reject [phase 1] own certificate does not decode",
            "node 2: reject [phase 1] own certificate does not decode",
            "node 3: reject [phase 1] own certificate does not decode",
            "node 4: reject [phase 1] own certificate does not decode",
            "node 5: reject [phase 1] own certificate does not decode",
            "node 6: reject [phase 1] own certificate does not decode",
        ),
        {1, 2, 5},
    ),
    "rmp-7-s1": (
        generate("random_maximal_planar", n=7, seed=1),
        "1 0305872e10be17b42f1dd4d185f8d295dcd319c0\n"
        "2 0305473873b528679c671e8500\n"
        "3 03056728c3b8e76d882f85ec21bcc319c0\n"
        "4 030567244239a17d9017a94ca1ba495ca218\n"
        "5 03054728b434e76e2d2860\n"
        "6 0305273e52ba67250c2140\n"
        "7 01050780\n",
        (
            "node 1: reject [phase 1] own certificate does not decode",
            "node 2: reject [phase 1] own certificate does not decode",
            "node 3: reject [phase 1] own certificate does not decode",
            "node 4: reject [phase 1] own certificate does not decode",
            "node 5: reject [phase 1] own certificate does not decode",
            "node 6: reject [phase 1] own certificate does not decode",
            "node 7: reject [phase 1] own certificate does not decode",
        ),
        {1, 2, 3, 4, 5, 6, 7},
    ),
}


@pytest.mark.parametrize("name", sorted(_THREE_BIT_COUNT_FILES))
def test_verify_judges_files_in_the_three_bit_count_layout(tmp_path, capsys, name):
    _verify_prints(tmp_path, capsys, *_THREE_BIT_COUNT_FILES[name][:3])


@pytest.mark.parametrize("name", sorted(_THREE_BIT_COUNT_FILES))
def test_honest_bytes_are_the_three_bit_count_layout_without_its_first_bit(name):
    # A node that kept its certificates sends the same fields with the
    # count's first bit, a 0, cut; the others' certificates moved, which
    # happens only where some node held more than three or where the
    # largest certificate shrank.
    g, text, _, moved = _THREE_BIT_COUNT_FILES[name]
    certs = prove_planar(g)
    kept, most, largest = set(), 0, 0
    for x, old in parse_certificates(text).items():
        new, nbits = pack_certificate_with_bits(certs[x])
        bits = _bits(old)
        most = max(most, int(bits[:3], 2))
        largest = max(largest, len(old))
        if new[:2] == old[:2] and bits[: 1 + nbits] == "0" + _bits(new)[:nbits] and "1" not in bits[1 + nbits :]:
            kept.add(x)
    assert set(certs) - kept == moved
    shrank = max(len(pack_certificate(c)) for c in certs.values()) < largest
    assert (most > 3 or shrank) == bool(moved)


def test_verify_non_hex_line_is_a_parse_error(tmp_path, capsys):
    g = generate("wheel", n=6)
    graph = _graph_file(tmp_path, g)
    certs = tmp_path / "certs.txt"
    certs.write_text(write_certificates(prove_planar(g)).replace(" ", " zz", 1))
    assert main(["verify", graph, str(certs)]) == 64
    assert "error:" in capsys.readouterr().err


K4_EDGES = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


@pytest.mark.parametrize(
    "rot_lines",
    [
        "rot 1: 2 3 4\nrot 2: 1 3 4\nrot 3: 1 2 4\nrot 4: 1 2 3\n",  # genus 1
        "rot 1: 2 3 4\n",  # rotation for one node only
    ],
)
def test_prove_refuses_a_rotation_that_is_not_planar(tmp_path, capsys, rot_lines):
    path = tmp_path / "k4.txt"
    path.write_text(K4_EDGES + rot_lines)
    assert main(["prove", str(path)]) == 64
    err = capsys.readouterr().err
    assert "error:" in err and "rotation" in err


@pytest.mark.parametrize("text", ["2 2\n1 2\n1 1\n", "2 2\n1 2\n2 1\n"])
def test_prove_refuses_a_graph_file_that_is_not_simple(tmp_path, capsys, text):
    path = tmp_path / "multi.txt"
    path.write_text(text)
    assert main(["prove", str(path)]) == 64
    assert "must be simple" in capsys.readouterr().err


# --- attack -------------------------------------------------------------------


def test_attack_on_k33_accepts_nothing(tmp_path, capsys):
    graph = _graph_file(tmp_path, generate("complete_bipartite", p=3, q=3))
    code = main(["attack", graph, "--trials", "25", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("accepted: 0")


def test_attack_csv_format(tmp_path, capsys):
    graph = _graph_file(tmp_path, generate("complete", k=5))
    code = main(["attack", graph, "--trials", "10", "--seed", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "strategy,trials,accepts" in out
    assert "accepted: 0" in out


def test_attack_refuses_a_disconnected_graph(tmp_path, capsys):
    graph = _graph_file(tmp_path, build_graph([(1, 2), (2, 3), (4, 5)]))
    assert main(["attack", graph, "--trials", "5"]) == 64
    assert "requires a connected graph" in capsys.readouterr().err


def test_attack_refuses_swap_on_a_one_node_graph(tmp_path, capsys):
    graph = _graph_file(tmp_path, build_graph([], nodes=[1]))
    assert main(["attack", graph, "--trials", "5"]) == 64
    assert "swap strategy needs a graph with at least two nodes" in capsys.readouterr().err


def test_prove_and_embed_run_without_networkx(tmp_path):
    """The package needs no third-party module: with networkx, numpy,
    hypothesis and pytest blocked, every module imports, and prove, verify,
    embed and attack run."""
    grid = _graph_file(tmp_path, generate("grid", w=4, h=4), "grid.txt")
    certs = str(tmp_path / "grid.certs")
    k5 = _graph_file(tmp_path, generate("complete", k=5), "k5.txt")
    code = (
        "import importlib, pkgutil, sys\n"
        "for name in ('networkx', 'numpy', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "import planarcert\n"
        "for info in pkgutil.iter_modules(planarcert.__path__):\n"
        "    importlib.import_module('planarcert.' + info.name)\n"
        "from planarcert.cli import main\n"
        f"assert main(['prove', {grid!r}, '--out', {certs!r}]) == 0\n"
        f"assert main(['verify', {grid!r}, {certs!r}]) == 0\n"
        f"assert main(['embed', {k5!r}]) == 2\n"
        f"assert main(['attack', {k5!r}, '--trials', '5']) == 0\n"
    )
    env = dict(os.environ)
    src = str(Path(planarcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "non-planar: K5-subdivision" in proc.stdout
    assert "global: accept" in proc.stdout and "accepted: 0" in proc.stdout


# --- gen ----------------------------------------------------------------------


def test_gen_block_chain_has_fifteen_nodes(capsys):
    code = main(["gen", "blocks", "k=4", "p=3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# gen blocks")
    g, _ = parse_graph(out)
    assert g.n == 15


def test_gen_block_cycle_and_permutation(capsys):
    code = main(["gen", "blocks", "k=4", "p=3", "cycle=1:3", "perm=2,1,3"])
    assert code == 0
    g, _ = parse_graph(capsys.readouterr().out)
    assert g.n == 9  # three ordinary blocks of k-1 nodes


def test_gen_crossed_and_glued(capsys):
    assert main(["gen", "crossed", "n=22", "q=3"]) == 0
    g, _ = parse_graph(capsys.readouterr().out)
    assert g.n == 22

    assert main(["gen", "glued", "n=12", "q=2"]) == 0
    g, _ = parse_graph(capsys.readouterr().out)
    assert g.n == 24  # two paths of six per crossing pattern


@pytest.mark.parametrize(
    "params",
    [
        ["blocks", "k=4", "p=3", "cycle=1:3", "perm=2,1,3"],
        ["crossed", "n=22", "q=3"],
        ["glued", "n=24", "q=2", "partition=random"],
    ],
)
def test_gen_header_reads_back_as_the_typed_parameters(params, capsys):
    seed = ["--seed", "5"] if params[0] == "glued" else []
    assert main(["gen", *params, *seed]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.split()[:3] == ["#", "gen", params[0]]
    typed = first.split()[3:]
    if params[0] == "glued":  # the only randomized family of the three
        assert typed.pop() == "seed=5"
    assert not any(t.startswith("seed=") for t in typed)
    assert _parse_params(typed) == _parse_params(params[1:])
    assert main(["gen", params[0], *typed, *seed]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first


def test_gen_fallthrough_generator_with_seed(capsys):
    assert main(["gen", "random_maximal_planar", "n=10", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "seed=4" in out.splitlines()[0]
    g, _ = parse_graph(out)
    assert (g.n, g.m) == (10, 3 * 10 - 6)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "blocks", "k=4"],  # missing p
        ["gen", "blocks", "k=4", "p=3", "bogus=1"],
        ["gen", "blocks", "k=4", "p=3", "k=5"],  # duplicate key
        ["gen", "blocks", "k=4", "p=3", "shape"],  # not key=value
        ["gen", "nosuchfamily", "n=4"],
        ["gen", "blocks", "k=2", "p=3"],  # module precondition
        ["gen", "subdivided", "base=x", "steps=1"],  # no argv can name a base graph
        ["gen", "grid", "w=2", "h=2", "typo=5"],  # a parameter the kind does not take
        ["gen", "grid", "w=2", "h=2", "seed=1"],  # grid is not randomized
        ["gen", "crossed", "n=22", "p=2", "q=3"],  # p never shaped the graph
        ["gen", "blocks", "k=4", "p=3", "shape=cycle", "cycle=1:3"],  # cycle= alone decides
        ["gen", "blocks", "k=4", "p=2", "extended=no"],  # not a flag value
        ["gen", "tree", "n=5", "seed=3", "--seed", "4"],  # two seeds that disagree
        ["gen", "tree", "n=5", "seed=x"],  # a seed is an integer
        ["gen", "grid", "w=2", "h=2", "--seed", "3"],  # nor through --seed
        ["gen", "grid", "w=true", "h=2"],  # a size is an integer, not a flag
        ["gen", "blocks", "k=4", "p=3", "cycle=1"],  # a cycle range is two ids
        ["gen", "glued", "n=24", "q=2", "bogus=1"],  # a parameter glued does not take
        ["gen", "blocks", "k=4", "p=true"],  # a block count is an integer, not a flag
        ["gen", "blocks", "k=true", "p=3"],
        ["gen", "blocks", "k=4", "p=3", "perm=true"],
        ["gen", "blocks", "k=4", "p=3", "cycle=true:3"],
        ["gen", "crossed", "n=true", "q=3"],
        ["gen", "crossed", "n=22", "q=true"],
        ["gen", "glued", "n=true", "q=2"],
        ["gen", "glued", "n=24", "q=true"],
        ["gen", "glued", "n=24", "q=2", "seed=true"],
    ],
)
def test_gen_bad_requests_are_parse_errors(argv, capsys):
    assert main(argv) == 64
    assert "error:" in capsys.readouterr().err


def test_gen_extended_takes_only_flag_values(capsys):
    def body(*flag):
        assert main(["gen", "blocks", "k=4", "p=2", *flag]) == 0
        return capsys.readouterr().out.split("\n", 1)[1]

    plain, extended = body(), body("extended=true")
    assert plain != extended
    assert body("extended=false") == body("extended=0") == plain
    assert body("extended=1") == extended


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "tree", "n=5", "seed=3"],
        ["gen", "tree", "n=5", "--seed", "3"],
        ["gen", "tree", "seed=3", "n=5", "--seed", "3"],
        ["gen", "glued", "n=24", "q=2", "partition=random", "seed=3"],
    ],
)
def test_gen_header_names_the_seed_once_and_reads_back(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert [t for t in header if t.startswith("seed=")] == ["seed=3"]
    assert header[-1] == "seed=3"
    assert main(["gen", *header[2:]]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "grid", "w=2", "h=2"],
        ["gen", "complete_bipartite", "p=3", "q=3"],
        ["gen", "wheel", "n=6"],
        ["gen", "complete", "k=5"],
        ["gen", "petersen"],
        ["gen", "blocks", "k=4", "p=3"],
        ["gen", "crossed", "n=22", "q=3"],
    ],
)
def test_gen_header_of_a_seedless_family_names_no_seed_and_reads_back(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert not any(t.startswith("seed=") for t in header)
    assert main(["gen", *header[2:]]) == 0
    assert capsys.readouterr().out == out


# --- sweep / oracle-check -------------------------------------------------------


def test_sweep_csv_has_ratio_column(capsys):
    code = main(["sweep", "--kind", "grid", "--sizes", "16,64", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "n,max_bits,max_bits_per_log2_n"
    assert len(rows) == 2
    n, bits, ratio = rows[0].split(",")
    assert int(n) == 16 and float(ratio) == pytest.approx(int(bits) / 4)


def test_sweep_human_format(capsys):
    assert main(["sweep", "--kind", "tree", "--sizes", "8,27", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert "max_bits" in out and "per_log2_n" in out


def test_sweep_bad_sizes_is_parse_error(capsys):
    assert main(["sweep", "--sizes", "64,16"]) == 64
    assert "error:" in capsys.readouterr().err


def test_oracle_check_pop_scope(capsys):
    code = main(["oracle-check", "--scope", "pop"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[ok ]" in out and "[BUG]" not in out
    assert "all checks passed" in out


def test_oracle_check_lowerbound_scope(capsys):
    code = main(["oracle-check", "--scope", "lowerbound"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
