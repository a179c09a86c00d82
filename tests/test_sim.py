"""Simulator round semantics, firewall, attack harness, size sweeps."""

from __future__ import annotations

import hashlib
import random

import pytest

from planarcert.embedding import (
    RotationSystem,
    canonical_rotation,
    planar_embed,
    validate_rotation,
)
from planarcert.errors import FirewallViolation, ParameterError
from planarcert.graphs import build_graph, generate, norm_edge, relabel
from planarcert.pls import (
    Verdict,
    _field_widths,
    certificate_bit_fields,
    pack_certificate,
    prove_planar,
    unpack_certificate,
)
from planarcert.sim import (
    DEFAULT_STRATEGIES,
    Assignment,
    Origin,
    _cached_verdict,
    _decode,
    _edit_one_field,
    _planar_template,
    _replay_graph,
    attack,
    attack_report,
    attack_to_csv,
    honest_assignment,
    planarity_verifier,
    random_assignment,
    run_round,
    size_sweep,
    sweep_to_csv,
)


def _grid33():
    return generate("grid", w=3, h=3)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _maximal_planar_plus_one_edge(n: int, seed: int):
    base = generate("random_maximal_planar", n=n, seed=seed)
    nodes = base.nodes()
    missing = [(u, v) for u in nodes for v in nodes if u < v and not base.has_edge(u, v)]
    return build_graph(base.edges() + [random.Random(seed).choice(missing)], nodes=nodes)


def _forgery_cases():
    """(graph, assignments) with honest (template), random-fields,
    template-edit and swap assignments on three small graphs."""
    for g in (
        _grid33(),
        generate("random_maximal_planar", n=15, seed=8),
        generate("complete_bipartite", p=3, q=3),
    ):
        planar = planar_embed(g, counterexample=False) is not None
        template, kind = _planar_template(g, "differential", planar)
        packed = {x: pack_certificate(c) for x, c in template.items()}
        nodes = g.nodes()
        rng = random.Random(5)
        assignments = [Assignment(packed, Origin(kind))]
        for seed in range(3):
            assignments.append(random_assignment(g, seed=seed))
        for _ in range(6):
            edited = dict(packed)
            for _ in range(rng.choice((1, 2, 4))):
                x = rng.choice(nodes)
                edited[x] = _edit_one_field(template[x], edited[x], rng)
            assignments.append(Assignment(edited, Origin("mutated", base=kind)))
            swapped = dict(packed)
            x, y = rng.sample(nodes, 2)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            assignments.append(Assignment(swapped, Origin("mutated", base=kind, edits=2)))
        yield g, assignments


def _firewalled(x, own, view):
    # the built-in verifier, passed in as a callable: it runs behind the firewall
    return planarity_verifier(x, own, view)


# --- run_round ----------------------------------------------------------------


def test_honest_round_accepts():
    for g in (
        build_graph([(1, 2)]),
        _grid33(),
        generate("wheel", n=7),
        generate("random_maximal_planar", n=20, seed=4),
    ):
        report = run_round(g, honest_assignment(g))
        assert report.accepted and report.first_rejector is None
        assert all(v.accepted for v in report.per_node.values())
        assert report.stats.max_bits >= report.stats.mean_bits > 0


def test_global_decision_matches_per_node():
    g = _grid33()
    a = honest_assignment(g)
    broken = dict(a.certs)
    broken[5] = b""
    report = run_round(g, Assignment(broken, Origin("mutated", "honest", 1)))
    assert not report.accepted
    rejecting = {x for x, v in report.per_node.items() if not v.accepted}
    assert rejecting and report.first_rejector == min(rejecting)
    assert report.global_decision == "reject"


def test_incomplete_assignment_is_a_parameter_error():
    g = _grid33()
    a = honest_assignment(g)
    partial = dict(a.certs)
    del partial[1]
    with pytest.raises(ParameterError):
        run_round(g, Assignment(partial, a.origin))
    stray = dict(a.certs)
    stray[99] = b"\x01\x01\x00"
    with pytest.raises(ParameterError):
        run_round(g, Assignment(stray, a.origin))


def test_round_is_deterministic():
    g = generate("random_maximal_planar", n=12, seed=0)
    a = random_assignment(g, seed=5)
    assert run_round(g, a) == run_round(g, a)


# Digests of random_assignment(g, f"7/random/{t}").certs for t = 0..9.  They
# move with the wire layout, whose fields the draws fill.
_PINNED_FORGERIES = {
    "K33": "ff79c78c4edd0cae",
    "petersen": "1f6ea90171b75c73",
    "n28": "b0627fd442e9f013",
}


def test_random_assignment_draws_are_pinned():
    for name, g in (
        ("K33", generate("complete_bipartite", p=3, q=3)),
        ("petersen", generate("petersen")),
        ("n28", _maximal_planar_plus_one_edge(28, seed=3)),
    ):
        forged = [sorted(random_assignment(g, f"7/random/{t}").certs.items()) for t in range(10)]
        assert _digest(forged) == _PINNED_FORGERIES[name], name


def test_early_stop_round_matches_the_full_round():
    # attack reads only the decision and the first rejector's verdict, so its
    # rounds stop at the first rejector; all they report is the full round's.
    mid_round_stops = 0
    for g, assignments in _forgery_cases():
        nodes = g.nodes()
        for a in assignments:
            for verifier in (planarity_verifier, _firewalled):
                full = run_round(g, a, verifier)
                early = run_round(g, a, verifier, stop_at_first_reject=True)
                assert early.global_decision == full.global_decision
                assert early.first_rejector == full.first_rejector
                assert early.stats == full.stats
                stop = full.first_rejector
                prefix = nodes if stop is None else nodes[: nodes.index(stop) + 1]
                assert early.per_node == {x: full.per_node[x] for x in prefix}
                assert list(early.per_node) == prefix
                mid_round_stops += stop not in (None, nodes[0])
    assert mid_round_stops > 0


def test_random_assignment_stays_in_legal_ranges():
    # Forged fields are drawn from the layout's legal ranges, so every
    # certificate decodes and the verifier has to judge what it claims.
    g = generate("random_maximal_planar", n=12, seed=0)
    for seed in range(20):
        for data in random_assignment(g, seed=seed).certs.values():
            unpack_certificate(data)


def test_edit_changes_one_field_to_another_legal_value():
    g = generate("random_maximal_planar", n=12, seed=0)
    rng = random.Random(4)
    for cert in prove_planar(g).values():
        data = pack_certificate(cert)
        fields = certificate_bit_fields(cert)
        for _ in range(10):
            edited = _edit_one_field(cert, data, rng)
            payload = int.from_bytes(edited[2:], "big")
            total, offset, changed = 8 * (len(edited) - 2), 0, []
            for f in fields:
                offset += f.width
                value = (payload >> (total - offset)) & ((1 << f.width) - 1)
                if value != f.value:
                    changed.append((f, value))
            assert len(changed) == 1
            f, value = changed[0]
            assert f.lo <= value <= f.hi or f.lo >= f.hi


def test_verifier_is_total_on_garbage_bytes():
    g = _grid33()
    junk = {x: bytes([x % 256, 1, 7]) for x in g.nodes()}
    report = run_round(g, Assignment(junk, Origin("external")))
    assert not report.accepted


# --- firewall -----------------------------------------------------------------


def test_firewall_traps_out_of_view_reads():
    g = build_graph([(1, 2), (2, 3), (3, 4)])  # 1 and 4 are not adjacent
    a = honest_assignment(g)

    def nosy(x, own, view):
        if x == 1:
            view[4]
        return planarity_verifier(x, own, view)

    with pytest.raises(FirewallViolation):
        run_round(g, a, verifier=nosy)


def test_firewall_view_exposes_exactly_the_neighbors():
    g = build_graph([(1, 2), (2, 3), (3, 4)])
    a = honest_assignment(g)
    seen = {}

    def recorder(x, own, view):
        seen[x] = sorted(view)
        assert 1 not in view or x != 4  # membership probe must not raise
        return Verdict(decision="accept", reason="", phase=3)

    run_round(g, a, verifier=recorder)
    assert seen == {1: [2], 2: [1, 3], 3: [2, 4], 4: [3]}


def test_memoized_verdicts_match_the_firewalled_path():
    # The built-in verifier's verdicts are memoized on plain tuples, so it
    # never meets the firewall; the same verifier passed in as a callable
    # runs behind it.  Both paths must give the same verdict at every node.
    for g, assignments in _forgery_cases():
        for a in assignments:
            memoized = run_round(g, a).per_node
            assert run_round(g, a, verifier=_firewalled).per_node == memoized


def test_decoded_records_are_shared_and_immutable():
    # _decode and _cached_verdict hand one object to every node and round
    # that sees the same bytes; that is sound only if no field can be set.
    g = generate("random_maximal_planar", n=12, seed=0)
    certs = honest_assignment(g).certs
    fresh = {x: bytes(bytearray(b)) for x, b in certs.items()}  # equal bytes, other objects
    x = next(x for x in g.nodes() if _decode(certs[x]).edge_certs)
    cert = _decode(certs[x])
    assert _decode(fresh[x]) is cert
    verdict = _cached_verdict(x, certs[x], tuple((y, certs[y]) for y in g.neighbors(x)))
    assert _cached_verdict(x, fresh[x], tuple((y, fresh[y]) for y in g.neighbors(x))) is verdict
    ec = cert.edge_certs[0]
    for record in (cert, cert.tree_sub, ec, ec.pop_i, verdict):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "extra"


# --- attack harness -------------------------------------------------------------


def test_attack_rejects_everything_on_k33():
    g = generate("complete_bipartite", p=3, q=3)
    summary = attack(g, trials=120, seed=3)
    assert summary.strategies == DEFAULT_STRATEGIES
    assert not summary.planar
    assert summary.total_accepts == 0
    for outcome in summary.outcomes:
        assert outcome.accepts == 0
        assert sum(outcome.phase_histogram.values()) == outcome.trials == 120


def test_attack_control_arm_accepts_on_planar():
    summary = attack(_grid33(), strategies=["honest", "swap"], trials=25, seed=0)
    honest = next(o for o in summary.outcomes if o.strategy == "honest")
    assert honest.accepts == 25
    swap = next(o for o in summary.outcomes if o.strategy == "swap")
    assert swap.accepts == 0


def test_attack_template_is_a_maximal_planar_spanning_subgraph():
    # The forgeries of template-edits and swap start from honest
    # certificates of a planar subgraph grown edge by edge; growth stops at
    # 3n - 6 edges, where Euler's bound leaves no room for another.
    seed = 1
    for g in (
        generate("complete", k=5),
        generate("complete_bipartite", p=3, q=3),
        generate("petersen"),
        _maximal_planar_plus_one_edge(28, seed=3),
    ):
        certs, kind = _planar_template(g, f"{seed}/template", planar=False)
        assert kind == "planar-subgraph-template"
        kept = sorted({norm_edge(x, ec.far) for x, c in certs.items() for ec in c.edge_certs})
        assert set(kept) < set(g.edges())
        sub = build_graph(kept, nodes=g.nodes())
        assert sub.connected and isinstance(planar_embed(sub), RotationSystem)
        for e in set(g.edges()) - set(kept):
            extended = build_graph(kept + [e], nodes=g.nodes())
            assert planar_embed(extended, counterexample=False) is None
        packed = {x: pack_certificate(c) for x, c in certs.items()}
        assert run_round(sub, Assignment(packed, Origin("honest"))).accepted


# The edges the attack's template leaves out at seed 11.  They do not depend
# on the certificate layout, so unlike the CSV pin below this one holds
# across layout changes and guards the growth rule by itself.
_PINNED_LEFT_OUT = {"K33": {(3, 5)}, "petersen": {(4, 5), (8, 10)}}


def test_attack_template_edges_are_pinned():
    for name, g in (
        ("K33", generate("complete_bipartite", p=3, q=3)),
        ("petersen", generate("petersen")),
    ):
        certs, _ = _planar_template(g, "11/template", planar=False)
        kept = {norm_edge(x, ec.far) for x, c in certs.items() for ec in c.edge_certs}
        assert set(g.edges()) - kept == _PINNED_LEFT_OUT[name]


# Every template-edits and swap forgery derives from the template, so a
# change in how the template is grown that changes it shows up here.  The
# counts also move with the wire layout, whose fields the forgeries draw and
# edit.
_PINNED_CSV = {
    "K33": """\
# nodes=6 edges=9 planar=False
# seed=11 trials=40 strategies=random-fields,template-edits,swap,replay
strategy,trials,accepts,phase1,phase2,phase3
random-fields,40,0,40,0,0
template-edits,40,0,38,2,0
swap,40,0,40,0,0
replay,40,0,40,0,0
""",
    "petersen": """\
# nodes=10 edges=15 planar=False
# seed=11 trials=40 strategies=random-fields,template-edits,swap,replay
strategy,trials,accepts,phase1,phase2,phase3
random-fields,40,0,40,0,0
template-edits,40,0,34,1,5
swap,40,0,40,0,0
replay,40,0,39,0,1
""",
}


def test_attack_outcomes_are_pinned():
    for name, g in (
        ("K33", generate("complete_bipartite", p=3, q=3)),
        ("petersen", generate("petersen")),
    ):
        assert attack_to_csv(attack(g, trials=40, seed=11)) == _PINNED_CSV[name]


def test_attack_is_deterministic():
    g = generate("petersen")
    assert attack(g, trials=30, seed=12) == attack(g, trials=30, seed=12)


def test_attack_rejects_bad_parameters():
    g = generate("complete", k=5)
    with pytest.raises(ParameterError):
        attack(g, strategies=["mind-reading"], trials=5, seed=0)
    with pytest.raises(ParameterError):
        attack(g, strategies=["honest"], trials=5, seed=0)  # non-planar control
    with pytest.raises(ParameterError):
        attack(g, trials=0, seed=0)
    with pytest.raises(ParameterError, match="requires a connected graph"):
        attack(build_graph([(1, 2), (3, 4)]), trials=5, seed=0)
    with pytest.raises(ParameterError, match="at least two nodes"):
        attack(build_graph([], nodes=[1]), trials=5, seed=0)  # swap is a default


def test_replay_donor_rotation_is_the_generators_embedding():
    # The replay arm proves each donor on its generator's own embedding.  A
    # maximal planar graph on n >= 4 nodes is 3-connected, so by Whitney's
    # theorem that embedding is the embedder's, up to a mirror image.
    grid = _grid33()
    for g in (
        generate("complete", k=5),
        generate("petersen"),
        _maximal_planar_plus_one_edge(28, seed=3),
        relabel(grid, {v: 3 * v + 7 for v in grid.nodes()}),
    ):
        label = dict(enumerate(g.nodes(), start=1))
        for seed in range(4):
            donor, rot = _replay_graph(g, seed)
            expected = generate("random_maximal_planar", n=g.n, seed=seed)
            assert donor == relabel(expected, label)
            assert validate_rotation(donor, rot)
            ref = planar_embed(donor)
            mirror = canonical_rotation({v: ring[::-1] for v, ring in ref.rotation.items()})
            assert rot in (ref, mirror)
    donor, rot = _replay_graph(build_graph([(4, 9), (9, 11)]), seed=1)
    assert donor.nodes() == [4, 9, 11] and rot is None


def test_replayed_certificates_from_other_graph_reject():
    donor = _grid33()
    target = generate("wheel", n=9)  # same node ids 1..9
    report = run_round(target, honest_assignment(donor))
    assert not report.accepted


def test_attack_csv_and_report_shapes():
    summary = attack(generate("complete", k=5), trials=9, seed=4)
    csv = attack_to_csv(summary)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("#") and "seed=4" in lines[1]
    assert lines[2] == "strategy,trials,accepts,phase1,phase2,phase3"
    assert len(lines) == 3 + len(DEFAULT_STRATEGIES)
    text = attack_report(summary)
    assert "non-planar" in text and "accepting runs" in text


def test_origin_rendering():
    assert str(Origin("honest")) == "honest"
    assert str(Origin("mutated", base="honest-template", edits=4)) == (
        "mutated(honest-template, edits=4)"
    )
    assert str(Origin("external", base="replayed-planar-proof")) == (
        "external(replayed-planar-proof)"
    )


# --- size sweep -----------------------------------------------------------------


def test_size_sweep_single_row_sanity():
    rows = size_sweep("path", [4])
    assert len(rows) == 1 and rows[0].n == 4
    assert rows[0].ratio == rows[0].max_bits / 2  # log2(4)


def test_size_sweep_grid_ratio_bounded():
    rows = size_sweep("grid", [16, 64, 256], seed=0)
    assert [r.n for r in rows] == [16, 64, 256]
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert max(ratios) <= 75


def test_size_sweep_random_planar_same_shape():
    # Maximal planar graphs have denser certificates than grids, but the
    # normalized column stays within criterion 2's bound of 1.1 times its
    # n = 16 value, and it shrinks from n = 64 on.  (From 16 to 64 it may
    # rise a little: by 0.08 at this seed.)
    rows = size_sweep("random_maximal_planar", [16, 64, 256, 1024], seed=2)
    # The same certificates in the layout that still sent a tree depth,
    # one idx_bits field, took 209/313/391/469 bits.
    depth_layout = (209, 313, 391, 469)
    assert [r.max_bits for r in rows] == [
        bits - _field_widths(1, r.n)[1] for bits, r in zip(depth_layout, rows)
    ]
    ratios = [r.ratio for r in rows]
    assert ratios[1:] == sorted(ratios[1:], reverse=True)
    assert max(ratios) <= min(1.1 * ratios[0], 140)


def test_size_sweep_parameter_errors():
    with pytest.raises(ParameterError):
        size_sweep("grid", [64, 16])
    with pytest.raises(ParameterError):
        size_sweep("grid", [15])
    with pytest.raises(ParameterError):
        size_sweep("path", [1, 4])
    with pytest.raises(ParameterError):
        size_sweep("moebius", [16])


def test_sweep_csv():
    rows = size_sweep("path", [4, 8])
    csv = sweep_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,max_bits,max_bits_per_log2_n"
    assert len(lines) == 3
