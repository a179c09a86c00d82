"""Command surface: exit codes, output shapes, and the file round-trip."""

from __future__ import annotations

import pytest

from planarcert.cli import main, verdicts_from_files
from planarcert.formats import parse_certificates, parse_graph, write_certificates, write_graph
from planarcert.graphs import generate
from planarcert.pls import certificate_bit_fields, pack_certificate, prove_planar
from planarcert.sim import _set_field, honest_assignment, run_round


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
    x = min(x for x, c in certs.items() if c.tree_sub.dist == 1)
    text = write_certificates(certs)
    doctored = tmp_path / "doctored.txt"
    edited = _edited_field(certs[x], "dist", 6)
    doctored.write_text(text.replace(pack_certificate(certs[x]).hex(), edited.hex(), 1))
    code = main(["verify", graph, str(doctored)])
    out = capsys.readouterr().out
    assert code == 3
    assert "global: reject" in out
    assert any("reject [phase" in line for line in out.splitlines())


def test_verify_undecodable_bytes_reject_in_phase_one(tmp_path, capsys):
    # dist = 9 is outside 0..n-1: the line is hex, so this is a verdict
    # (exit 3), not a parse error.
    g = generate("wheel", n=8)
    graph = _graph_file(tmp_path, g)
    certs = prove_planar(g)
    edited = _edited_field(certs[3], "dist", 9)
    doctored = tmp_path / "doctored.txt"
    doctored.write_text(
        write_certificates(certs).replace(pack_certificate(certs[3]).hex(), edited.hex(), 1)
    )
    assert main(["verify", graph, str(doctored)]) == 3
    out = capsys.readouterr().out
    assert "node 3: reject [phase 1] own certificate does not decode" in out


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


def test_verify_rejects_multi_round_requests(tmp_path, capsys):
    g = generate("wheel", n=6)
    graph = _graph_file(tmp_path, g)
    certs = str(tmp_path / "certs.txt")
    assert main(["prove", graph, "--out", certs]) == 0
    capsys.readouterr()
    assert main(["verify", graph, certs, "--radius", "2"]) == 64


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


# --- gen ----------------------------------------------------------------------


def test_gen_block_chain_has_fifteen_nodes(capsys):
    code = main(["gen", "blocks", "k=4", "p=3", "shape=path"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# gen blocks")
    g, _ = parse_graph(out)
    assert g.n == 15


def test_gen_block_cycle_and_permutation(capsys):
    code = main(["gen", "blocks", "k=4", "p=3", "shape=cycle", "cycle=1:3", "perm=2,1,3"])
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


def test_gen_fallthrough_generator_with_seed(capsys):
    assert main(["gen", "random_maximal_planar", "n=10", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "seed=4" in out.splitlines()[0]
    g, _ = parse_graph(out)
    assert (g.n, g.m) == (10, 3 * 10 - 6)


def test_gen_out_joins_corpus_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLANARCERT_CORPUS", str(tmp_path))
    assert main(["gen", "grid", "w=2", "h=3", "--out", "grid2x3.txt"]) == 0
    assert "wrote" in capsys.readouterr().out
    g, _ = parse_graph((tmp_path / "grid2x3.txt").read_text())
    assert g.n == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "blocks", "k=4"],  # missing p
        ["gen", "blocks", "k=4", "p=3", "bogus=1"],
        ["gen", "blocks", "k=4", "p=3", "k=5"],  # duplicate key
        ["gen", "blocks", "k=4", "p=3", "shape"],  # not key=value
        ["gen", "nosuchfamily", "n=4"],
        ["gen", "blocks", "k=2", "p=3"],  # module precondition
    ],
)
def test_gen_bad_requests_are_parse_errors(argv, capsys):
    assert main(argv) == 64
    assert "error:" in capsys.readouterr().err


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
    code = main(["oracle-check", "--scope", "lowerbound", "--cap", "80"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
