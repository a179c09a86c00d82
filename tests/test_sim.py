"""Simulator round semantics, firewall, attack harness, size sweeps."""

from __future__ import annotations

import random

import pytest

from planarcert.errors import FirewallViolation, ParameterError
from planarcert.graphs import build_graph, generate
from planarcert.pls import (
    Verdict,
    certificate_bit_fields,
    pack_certificate,
    prove_planar,
    unpack_certificate,
)
from planarcert.sim import (
    DEFAULT_STRATEGIES,
    Assignment,
    Origin,
    _edit_one_field,
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


def test_only_radius_one_supported():
    g = build_graph([(1, 2)])
    with pytest.raises(ParameterError):
        run_round(g, honest_assignment(g), radius=2)


def test_round_is_deterministic():
    g = generate("random_maximal_planar", n=12, seed=0)
    a = random_assignment(g, seed=5)
    assert run_round(g, a) == run_round(g, a)


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


def test_builtin_verifier_never_trips_the_firewall():
    g = generate("random_maximal_planar", n=15, seed=8)
    for a in (honest_assignment(g), random_assignment(g, seed=1)):
        run_round(g, a)  # would raise FirewallViolation on any overreach


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


def test_attack_never_mutates_the_template_in_place():
    g = generate("complete", k=5)
    before = {x: bytes(b) for x, b in honest_assignment(_grid33()).certs.items()}
    attack(g, trials=40, seed=1)
    after = {x: bytes(b) for x, b in honest_assignment(_grid33()).certs.items()}
    assert before == after  # honest proving is stable and unmodified


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
    # maximal planar graphs have denser certificates than grids but the
    # normalized column still shrinks as n grows
    rows = size_sweep("random_maximal_planar", [16, 64], seed=2)
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert max(ratios) <= 140


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
