"""Simulator round semantics, firewall, attack harness, size sweeps."""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import tracemalloc
import types
from collections import Counter

import pytest

from lifts import _lift
from planarcert.embedding import (
    RotationSystem,
    canonical_rotation,
    planar_embed,
    validate_rotation,
)
from planarcert import pls, sim
from planarcert.errors import FirewallViolation, FormatError, NonPlanarError, ParameterError
from planarcert.graphs import build_graph, generate, norm_edge, relabel
from planarcert.pls import (
    Field,
    Verdict,
    _field_widths,
    _walk,
    certificate_bit_fields,
    encode_fields,
    pack_certificate,
    prove_planar,
    unpack_certificate,
)
from planarcert.sim import (
    DEFAULT_STRATEGIES,
    Assignment,
    Origin,
    _cached_verdict,
    _Decodes,
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
                edited[x] = _edit_one_field(certificate_bit_fields(template[x]), edited[x], rng)
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


def test_round_refuses_certificates_that_are_not_bytes():
    g = _grid33()
    a = honest_assignment(g)
    for odd in (bytearray(a.certs[5]), a.certs[5].hex(), memoryview(a.certs[5]), None):
        certs = dict(a.certs)
        certs[5] = odd
        for verifier in (planarity_verifier, _firewalled):
            with pytest.raises(ParameterError, match=rf"node 5 is {type(odd).__name__}, not bytes"):
                run_round(g, Assignment(certs, a.origin), verifier)
    # a missing certificate is named first
    del certs[1]
    with pytest.raises(ParameterError, match=r"lacks certificates for nodes \[1\]"):
        run_round(g, Assignment(certs, a.origin))


def test_round_on_a_graph_without_nodes_is_a_parameter_error():
    with pytest.raises(ParameterError, match="at least one node"):
        run_round(build_graph([]), Assignment({}, Origin("external")))


def test_round_is_deterministic():
    g = generate("random_maximal_planar", n=12, seed=0)
    a = random_assignment(g, seed=5)
    assert run_round(g, a) == run_round(g, a)


# Digests of random_assignment(g, f"7/random/{t}").certs for t = 0..9.  They
# move with the wire layout, whose fields the draws fill.
_PINNED_FORGERIES = {
    "K33": "9852b397e8727b67",
    "petersen": "48e6344becadf524",
    "n28": "96553b4a71a631f9",
}


def test_random_assignment_draws_are_pinned():
    for name, g in (
        ("K33", generate("complete_bipartite", p=3, q=3)),
        ("petersen", generate("petersen")),
        ("n28", _maximal_planar_plus_one_edge(28, seed=3)),
    ):
        forged = [sorted(random_assignment(g, f"7/random/{t}").certs.items()) for t in range(10)]
        assert _digest(forged) == _PINNED_FORGERIES[name], name


def test_random_assignment_draws_as_randint_does(monkeypatch):
    # Each field is drawn as Random.randint(lo, hi) draws it, draw for draw,
    # over every range the layout uses, one-value ranges included.
    calls: list[tuple[int, int]] = []

    class Logged(random.Random):
        def getrandbits(self, k):
            r = super().getrandbits(k)
            calls.append((k, r))
            return r

    monkeypatch.setattr("planarcert.sim.random", types.SimpleNamespace(Random=Logged))
    ranges: set[tuple[int, int]] = set()
    for g in (
        build_graph([], nodes=[1]),
        build_graph([(1, 2)]),
        _grid33(),
        relabel(_grid33(), {v: 3 * v + 7 for v in range(1, 10)}),
        _maximal_planar_plus_one_edge(28, seed=3),
    ):
        widths = _field_widths(max(g.nodes()), g.n)
        for seed in (0, 1, 2, "7/random/0", "7/random/1"):
            calls.clear()
            got = random_assignment(g, seed).certs
            drawn = calls[:]
            calls.clear()
            rng = Logged(seed)

            def randint(name, width, lo, hi):
                ranges.add((lo, hi))
                return rng.randint(lo, hi)

            assert got == {x: encode_fields(randint, *widths)[0] for x in g.nodes()}
            assert drawn == calls
    assert {(0, 0), (1, 1)} <= ranges  # one-value ranges, each still drawn
    assert len(ranges) > 20


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


def _places(fields) -> list[tuple[int, int, str]]:
    """Each field's place in its certificate: edge certificate, slot, name."""
    edge = slot = 0
    places = []
    for f in fields:
        if f.name == "far":
            edge, slot = edge + 1, 0
        elif f.name in ("index", "step"):
            slot += 1
        places.append((edge, slot, f.name))
    return places


def _listed(data: bytes) -> list[Field]:
    """The fields of packed bytes that decode, read back through the walk."""
    stream, rest, fields = int.from_bytes(data[2:], "big"), 8 * (len(data) - 2), []

    def record(name, width, lo, hi):
        nonlocal rest
        rest -= width
        fields.append(Field(name, width, lo, hi, (stream >> rest) & ((1 << width) - 1)))
        return fields[-1].value

    _walk(record, data[0], data[1])
    return fields


def test_edit_changes_one_field_to_another_legal_value():
    # An edit gives one field another legal value, and every later field
    # keeps the value it had at its place while that value is still legal
    # there: an index, step or n sets the widths of the fields after it, so
    # the edited certificate is packed again, not written over in place.  A
    # field with one legal value gets another value in its own window, and
    # the reader refuses it.
    g = generate("random_maximal_planar", n=12, seed=0)
    rng = random.Random(4)
    repacked = moved = 0
    for cert in prove_planar(g).values():
        data = pack_certificate(cert)
        fields = certificate_bit_fields(cert)
        before = dict(zip(_places(fields), fields))
        for _ in range(10):
            edited = _edit_one_field(fields, data, rng)
            try:
                unpack_certificate(edited)
            except FormatError:
                payload = int.from_bytes(edited[2:], "big")
                total, offset, changed = 8 * (len(edited) - 2), 0, []
                for f in fields:
                    offset += f.width
                    value = (payload >> (total - offset)) & ((1 << f.width) - 1)
                    if value != f.value:
                        changed.append(f)
                assert len(changed) == 1 and changed[0].lo == changed[0].hi
                continue
            repacked += 1
            after = _listed(edited)
            t = next(t for t, (f, e) in enumerate(zip(fields, after)) if f != e)
            assert after[t][:4] == fields[t][:4] and after[t].value != fields[t].value
            for place, f in list(zip(_places(after), after))[t + 1 :]:
                old = before.get(place)
                if old is not None and f.lo <= old.value <= f.hi:
                    assert f.value == old.value, (place, f, old)
                    moved += f.width != old.width
    assert repacked > 100 and moved > 0


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


def test_firewall_view_holds_only_the_neighbors_certificates():
    # The view's own state is the one-round view: a verifier that reads the
    # view's attributes instead of looking keys up still sees no more.
    g = _grid33()
    a = honest_assignment(g)
    states = {}

    def peek(x, own, view):
        states[x] = [getattr(view, name) for name in type(view).__slots__]
        return planarity_verifier(x, own, view)

    run_round(g, a, verifier=peek)
    assert set(states) == set(g.nodes())
    for x, state in states.items():
        assert state == [{y: a.certs[y] for y in g.neighbors(x)}], x
    assert states[1] == [{2: a.certs[2], 4: a.certs[4]}]


def test_memoized_verdicts_match_the_firewalled_path():
    # The built-in verifier's verdicts are memoized on plain tuples, so it
    # never meets the firewall; the same verifier passed in as a callable
    # runs behind it.  Both paths must give the same verdict at every node.
    for g, assignments in _forgery_cases():
        for a in assignments:
            memoized = run_round(g, a).per_node
            assert run_round(g, a, verifier=_firewalled).per_node == memoized


def test_decoded_records_are_shared_and_immutable():
    # One call's decode table hands one object to every node that sees the
    # same bytes, and the verdict memo hands one verdict to every equal
    # view; that is sound only if no field can be set.
    g = generate("random_maximal_planar", n=12, seed=0)
    certs = honest_assignment(g).certs
    fresh = {x: bytes(bytearray(b)) for x, b in certs.items()}  # equal bytes, other objects
    table = _Decodes()
    x = next(x for x in g.nodes() if table[certs[x]].edge_certs)
    cert = table[certs[x]]
    assert table[fresh[x]] is cert
    ids = g.neighbors(x)
    verdict = _cached_verdict(x, certs[x], ids, tuple(certs[y] for y in ids))
    same_ids = tuple(list(ids))  # an equal neighbor tuple, another object
    assert _cached_verdict(x, fresh[x], same_ids, tuple(fresh[y] for y in ids)) is verdict
    ec = cert.edge_certs[0]
    for record in (cert, cert.tree_sub, ec, ec.pop_i, verdict):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "extra"


def test_no_decoded_certificate_outlives_its_call(monkeypatch):
    # Every certificate decoded is also kept in ``decoded``.  Once the round
    # or the campaign has returned, that list must hold the only reference.
    decoded = []

    def keep(data):
        cert = unpack_certificate(data)
        decoded.append(cert)
        return cert

    monkeypatch.setattr(sim, "unpack_certificate", keep)
    _cached_verdict.cache_clear()  # a memoized verdict decodes nothing
    g = generate("random_maximal_planar", n=20, seed=3)
    assert run_round(g, honest_assignment(g)).accepted
    assert len(decoded) == g.n
    alone = {sys.getrefcount(c) for c in [object()]}
    assert {sys.getrefcount(c) for c in decoded} == alone
    decoded.clear()
    assert attack(generate("complete_bipartite", p=3, q=3), trials=12, seed=5).total_accepts == 0
    assert decoded
    assert {sys.getrefcount(c) for c in decoded} == alone


def test_one_attack_call_decodes_each_certificate_once(monkeypatch):
    # template-edits and swap judge edits of one template on every trial;
    # the call's decode table decodes each template certificate once for
    # all of them, where a table per round would decode it again per trial.
    calls = Counter()

    def count(data):
        calls[data] += 1
        return unpack_certificate(data)

    monkeypatch.setattr(sim, "unpack_certificate", count)
    _cached_verdict.cache_clear()
    g = generate("petersen")
    summary = attack(g, strategies=["template-edits", "swap"], trials=30, seed=2)
    assert summary.total_accepts == 0
    assert len(calls) > g.n
    assert max(calls.values()) == 1


def test_random_fields_decodes_do_not_outlive_their_round():
    # A random-fields trial's bytes never repeat, so each of its rounds
    # drops what it decoded.  A 1000-trial call on an n = 28 non-planar
    # target then peaks near what the verdict memo keeps (about 1 MB), where
    # the call's table, kept for every trial, peaked at 9.4 MB above start.
    base = generate("random_maximal_planar", n=28, seed=3)
    nodes = base.nodes()
    missing = next((u, v) for u in nodes for v in nodes if u < v and not base.has_edge(u, v))
    g = build_graph(base.edges() + [missing], nodes=nodes)
    _cached_verdict.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summary = attack(g, strategies=["random-fields"], trials=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert summary.total_accepts == 0 and not summary.planar
    assert peak - start < 3_000_000


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


def test_attack_swap_accepts_nothing_on_planar():
    # On a planar graph the swapped certificates come from the honest proof
    # of the graph itself, and still every swap is rejected.
    summary = attack(_grid33(), strategies=["swap"], trials=25, seed=0)
    assert summary.planar and summary.strategies == ("swap",)
    (swap,) = summary.outcomes
    assert swap.accepts == summary.total_accepts == 0
    assert sum(swap.phase_histogram.values()) == swap.trials == 25


def test_attack_template_is_a_maximal_planar_spanning_subgraph():
    # The forgeries of template-edits and swap start from honest
    # certificates of a planar subgraph grown by batches of edges; growth
    # stops at 3n - 6 edges, where Euler's bound leaves no room for another.
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


def _greedy_template_edges(g, seed):
    """Reference growth: the template's spanning tree, then each other edge
    in the template's shuffled order, kept iff the graph stays planar."""
    nodes = g.nodes()
    seen, frontier, kept = {nodes[0]}, [nodes[0]], []
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                kept.append(norm_edge(u, v))
                frontier.append(u)
    rest = [e for e in g.edges() if e not in set(kept)]
    random.Random(seed).shuffle(rest)
    for e in rest:
        if planar_embed(build_graph(kept + [e], nodes=nodes), counterexample=False) is not None:
            kept.append(e)
    return set(kept)


def test_attack_template_keeps_what_edge_by_edge_greedy_keeps():
    # The template tests whole batches of edges and splits the ones that
    # fail; planarity is closed under subgraphs, so it keeps the same edges.
    rng = random.Random(5)
    graphs = [
        generate("complete", k=5),
        generate("complete", k=6),
        generate("complete_bipartite", p=3, q=3),
        generate("petersen"),
        _maximal_planar_plus_one_edge(28, seed=3),
    ]
    for n in (9, 14):
        nodes = list(range(1, n + 1))
        pairs = [(u, v) for u in nodes for v in nodes if u < v]
        graphs.append(build_graph(rng.sample(pairs, 3 * n), nodes=nodes))
    for g in graphs:
        assert g.connected and planar_embed(g, counterexample=False) is None
        for seed in ("1/template", "7/template"):
            certs, _ = _planar_template(g, seed, planar=False)
            kept = {norm_edge(x, ec.far) for x, c in certs.items() for ec in c.edge_certs}
            assert kept == _greedy_template_edges(g, seed), (g, seed)


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
# edit, and the replay counts with the holders of the donors' honest proofs.
_PINNED_CSV = {
    "K33": """\
# nodes=6 edges=9 planar=False
# seed=11 trials=40 strategies=random-fields,template-edits,swap,replay
strategy,trials,accepts,phase1,phase2,phase3
random-fields,40,0,40,0,0
template-edits,40,0,36,1,3
swap,40,0,40,0,0
replay,40,0,40,0,0
""",
    "petersen": """\
# nodes=10 edges=15 planar=False
# seed=11 trials=40 strategies=random-fields,template-edits,swap,replay
strategy,trials,accepts,phase1,phase2,phase3
random-fields,40,0,40,0,0
template-edits,40,0,31,3,6
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
    with pytest.raises(ParameterError, match="unknown strategies"):
        attack(g, strategies=["mind-reading"], trials=5, seed=0)
    with pytest.raises(ParameterError, match="unknown strategies"):
        attack(g, strategies=["honest"], trials=5, seed=0)  # no adversary
    with pytest.raises(ParameterError):
        attack(g, trials=0, seed=0)
    with pytest.raises(ParameterError, match="requires a connected graph"):
        attack(build_graph([(1, 2), (3, 4)]), trials=5, seed=0)
    with pytest.raises(ParameterError, match="at least two nodes"):
        attack(build_graph([], nodes=[1]), trials=5, seed=0)  # swap is a default


def test_attack_refuses_trials_that_are_not_ints():
    g = generate("complete", k=5)
    for trials in (True, False, 2.0, "3", None):
        with pytest.raises(ParameterError, match="trials must be an int"):
            attack(g, trials=trials, seed=0)


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
            # canonical as built: each ring is a tuple from its least neighbor
            assert all(type(ring) is tuple and ring[0] == min(ring) for ring in rot.rotation.values())
            ref = planar_embed(donor)
            mirror = canonical_rotation({v: ring[::-1] for v, ring in ref.rotation.items()})
            assert rot in (ref, mirror)
    donor, rot = _replay_graph(build_graph([(4, 9), (9, 11)]), seed=1)
    assert donor.nodes() == [4, 9, 11] and rot is None


def test_lift_carries_each_base_view_up():
    # Each copy of a node sees what its base node sees, ids mapped by sheet.
    base = generate("random_maximal_planar", n=12, seed=1)
    top = max(base.nodes())
    honest = honest_assignment(base).certs
    for k in (1, 2, 3):
        lifted, a = _lift(base, k, seed=4)
        assert lifted.n == k * base.n and lifted.m == k * base.m
        for x in lifted.nodes():
            v = (x - 1) % top + 1
            assert sorted((y - 1) % top + 1 for y in lifted.neighbors(x)) == list(base.neighbors(v))
            cert = unpack_certificate(a.certs[x])
            assert {(y - 1) % top + 1 for y in (ec.far for ec in cert.edge_certs)} <= set(base.neighbors(v))
            assert cert._replace(
                edge_certs=tuple(ec._replace(far=(ec.far - 1) % top + 1) for ec in cert.edge_certs)
            ) == unpack_certificate(honest[v])
    assert run_round(*_lift(base, 1, seed=4)).accepted


def test_lift_with_a_root_per_sheet_fails_root_agreement():
    # If each sheet names its own copy of the root in root_id, every copy of
    # the root is the root it claims; then neighbors across sheets disagree
    # on the root, and only root agreement sees it.
    base = generate("random_maximal_planar", n=28, seed=2)
    root, top = min(base.nodes()), max(base.nodes())
    for k in (2, 3):
        lifted, a = _lift(base, k, seed=2)
        assert lifted.connected and planar_embed(lifted, counterexample=False) is None
        certs = {}
        for x, data in a.certs.items():
            cert = unpack_certificate(data)
            own_root = root + (x - 1) // top * top
            certs[x] = pack_certificate(cert._replace(tree_sub=cert.tree_sub._replace(root_id=own_root)))
        report = run_round(lifted, Assignment(certs, Origin("external", base=f"{k}-lift")))
        assert not report.accepted
        rejectors = [v for v in report.per_node.values() if not v.accepted]
        assert {(v.phase, v.reason) for v in rejectors} == {
            (2, "root identity disagrees with a neighbor")
        }


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
    # n = 16 value.  With every index and interval end in the bits of its
    # range the column is flat, near 27.5 bits per log2 n: at this seed it
    # falls by 0.5 from 16 to 64, rises by 0.5 to 256 and falls by 0.6 to
    # 1024.  While every index and interval end took idx_bits, the layout's
    # fixed overhead made it shrink from n = 64 on (33.5, 31.4, 30.1).
    rows = size_sweep("random_maximal_planar", [16, 64, 256, 1024], seed=2)
    # The layout where every index and interval end took idx_bits took
    # 141/201/251/301 bits here, and with holders set by the count bound
    # alone 155/201/263/325; with up to five edge certificates per node and
    # a 3-bit count 167/241/321/385; the layout that sent a copy's interval
    # with every slot naming it 203/305/381/457, and the one that also sent
    # a tree depth 209/313/391/469.
    assert [r.max_bits for r in rows] == [112, 165, 224, 274]
    ratios = [r.ratio for r in rows]
    assert [round(r, 2) for r in ratios] == [28.0, 27.5, 28.0, 27.4]
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


# --- the collector pause ------------------------------------------------------


@pytest.fixture
def collector():
    """Start with the cyclic collector on; leave it as the test found it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_prover_and_round_run_with_the_collector_paused(collector, monkeypatch):
    seen = []
    real_tree = pls.spanning_tree_dfs

    def tree_spy(*args):
        seen.append(("tree", gc.isenabled()))
        return real_tree(*args)

    def verifier(x, own, neighbors):
        seen.append(("verify", gc.isenabled()))
        return planarity_verifier(x, own, neighbors)

    monkeypatch.setattr(pls, "spanning_tree_dfs", tree_spy)
    g = _grid33()
    a = honest_assignment(g)
    assert gc.isenabled()
    assert run_round(g, a, verifier).global_decision == "accept"
    assert gc.isenabled()
    assert seen == [("tree", False)] + [("verify", False)] * g.n


def test_collector_is_back_on_however_the_call_ends(collector):
    g = _grid33()
    a = honest_assignment(g)
    assert gc.isenabled()
    with pytest.raises(NonPlanarError):
        prove_planar(generate("complete", k=5))
    assert gc.isenabled()
    with pytest.raises(ParameterError):
        prove_planar(build_graph([(1, 2), (3, 4)]))
    assert gc.isenabled()
    lacking = Assignment(certs={x: c for x, c in a.certs.items() if x != 1}, origin=a.origin)
    with pytest.raises(ParameterError):
        run_round(g, lacking)
    assert gc.isenabled()


def test_collector_a_caller_turned_off_stays_off(collector):
    gc.disable()
    g = _grid33()
    assert run_round(g, honest_assignment(g)).global_decision == "accept"
    assert not gc.isenabled()
    with pytest.raises(NonPlanarError):
        prove_planar(generate("complete", k=5))
    assert not gc.isenabled()


def test_paused_paths_leave_no_cyclic_garbage(collector):
    # The pause is safe only while these calls free everything they drop by
    # reference counting: a reference cycle here would pile up unreclaimed
    # whenever a caller proves or verifies many graphs in one pause.  With
    # the collector off, every object the calls make stays young, so after
    # one full collection the young generations hold all of them; a full
    # collection per step would walk the whole suite's heap again.
    gc.disable()
    gc.collect()
    for g in (
        generate("grid", w=8, h=8),
        generate("random_maximal_planar", n=64, seed=1),
        generate("tree", n=64, seed=1),
    ):
        assert run_round(g, honest_assignment(g)).global_decision == "accept"
        assert gc.collect(1) == 0
    try:
        prove_planar(generate("complete", k=5))
    except NonPlanarError:
        pass
    assert gc.collect(1) == 0
    summary = attack(generate("complete_bipartite", p=3, q=3), trials=20, seed=0)
    assert summary.total_accepts == 0
    assert gc.collect(1) == 0
