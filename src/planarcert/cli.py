"""Command-line surface tying the pipeline together for scripted and corpus use.

Subcommands: ``embed``, ``prove``, ``verify``, ``attack``, ``gen``, ``sweep``,
``oracle-check``.  Exit codes are a stable contract::

    0   accept / success
    2   input graph is non-planar (witness printed)
    3   verification or validation rejected
    64  parse, usage, or parameter error
    65  certificate file does not match the graph

``--out`` names the output file as given; without it, output goes to
stdout.  ``gen`` takes ``key=value`` parameters, integers only for the
families of ``graphs.GENERATORS`` and, apart from ``extended`` and
``partition``, for the lower-bound families.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .embedding import NonPlanarWitness, RotationSystem, canonical_rotation, planar_embed
from .errors import NonPlanarError, ParameterError, PlanarCertError
from .formats import parse_certificates, parse_graph, write_certificates, write_graph
from .graphs import GENERATORS, Graph, build_graph, generate
from .lowerbound import (
    BipartiteInstance,
    BlockInstance,
    gen_bipartite_instance,
    gen_block_instance,
    gen_glued_instance,
    validate_lowerbound_claims,
)
from .pls import Verdict, prove_planar
# verify runs through run_round; the name stays importable from here because
# perfbench/spans.py traces cli.verify_node_planarity by name.
from .pls import verify_node_planarity  # noqa: F401
from .pop import is_path_outerplanar
from .sim import (
    DEFAULT_TRIALS,
    Assignment,
    Origin,
    attack,
    attack_report,
    attack_to_csv,
    run_round,
    size_sweep,
    sweep_to_csv,
)
from .transform import contract_check, dfs_mapping, induce_graph, spanning_tree_dfs

EXIT_ACCEPT = 0
EXIT_WITNESS = 2
EXIT_REJECT = 3
EXIT_PARSE = 64
EXIT_MISMATCH = 65


class _UsageError(Exception):
    """Bad flags or arguments; reported on stderr with exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), colliding with witnesses
        raise _UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.write_text(text)
        print(f"wrote {path}")


def _witness_report(w: NonPlanarWitness) -> str:
    lines = [
        f"non-planar: {w.kind}",
        "branch nodes: " + " ".join(str(v) for v in w.branch_nodes),
    ]
    lines.extend("path: " + " ".join(str(v) for v in p) for p in w.paths)
    return "\n".join(lines) + "\n"


# --- subcommands ----------------------------------------------------------------


def _cmd_embed(args) -> int:
    g, _ = parse_graph(_read(args.graph))
    result = planar_embed(g)
    if isinstance(result, NonPlanarWitness):
        sys.stdout.write(_witness_report(result))
        return EXIT_WITNESS
    _emit(write_graph(g, result.rotation), args.out)
    return EXIT_ACCEPT


def _cmd_prove(args) -> int:
    g, file_rot = parse_graph(_read(args.graph))
    rot = canonical_rotation(file_rot) if file_rot else None
    _emit(write_certificates(prove_planar(g, rot)), args.out)
    return EXIT_ACCEPT


def verdicts_from_files(graph_text: str, cert_text: str) -> dict[int, Verdict]:
    """Per-node verdicts for a serialized graph/certificate pair.

    The certificate bytes take the simulator's path: one ``run_round``.  It
    raises ParameterError when the certificate ids do not cover exactly the
    graph's nodes; the CLI maps that case to its own exit code.
    """
    g, _ = parse_graph(graph_text)
    certs = parse_certificates(cert_text)
    return run_round(g, Assignment(certs, Origin("external", base="certificate file"))).per_node


def _cmd_verify(args) -> int:
    try:
        per_node = verdicts_from_files(_read(args.graph), _read(args.certs))
    except ParameterError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    for x in sorted(per_node):
        v = per_node[x]
        if v.decision == "accept":
            print(f"node {x}: accept")
        else:
            print(f"node {x}: reject [phase {v.phase}] {v.reason}")
    ok = all(v.decision == "accept" for v in per_node.values())
    print(f"global: {'accept' if ok else 'reject'}")
    return EXIT_ACCEPT if ok else EXIT_REJECT


def _cmd_attack(args) -> int:
    g, _ = parse_graph(_read(args.graph))
    summary = attack(g, trials=args.trials, seed=args.seed)
    text = attack_to_csv(summary) if args.format == "csv" else attack_report(summary)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    print(f"accepted: {summary.total_accepts}")
    return EXIT_ACCEPT


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    if ":" in value or "," in value:
        sep = ":" if ":" in value else ","
        try:
            return tuple(int(t) for t in value.split(sep))
        except ValueError:
            pass
    return value


def _parse_params(pairs: list[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise _UsageError(f"parameters look like key=value, got {pair!r}")
        if key in params:
            raise _UsageError(f"duplicate parameter {key!r}")
        params[key] = _coerce(value)
    return params


def _gen_graph(construction: str, params: dict[str, object], seed: int) -> Graph:
    p = dict(params)
    if construction == "blocks":
        extended = p.pop("extended", False)
        if extended not in (True, False):  # _coerce makes true/false bools, 1/0 ints
            raise _UsageError(f"extended takes true, false, 1 or 0, got {extended!r}")
        k, blocks = p.pop("k"), p.pop("p")
        spec = BlockInstance(
            k=k,
            p=blocks,
            permutation=tuple(p.pop("perm", range(1, blocks + 1))),
            cycle_range=p.pop("cycle", None),
        )
        if p:
            raise _UsageError(f"unknown blocks parameters {sorted(p)}")
        return gen_block_instance(spec, extended=bool(extended))
    if construction == "crossed":
        spec = BipartiteInstance(n=p.pop("n"), q=p.pop("q"))
        if p:
            raise _UsageError(f"unknown crossed parameters {sorted(p)}")
        return gen_bipartite_instance(spec)
    if construction == "glued":
        n, q = p.pop("n"), p.pop("q")
        partition = p.pop("partition", "contiguous")
        seed = p.pop("seed", seed)
        if p:
            raise _UsageError(f"unknown glued parameters {sorted(p)}")
        return gen_glued_instance(n, q, id_partition=partition, seed=seed)
    if _takes_seed(construction):
        p.setdefault("seed", seed)
    return generate(construction, **p)


def _takes_seed(construction: str) -> bool:
    return construction == "glued" or (
        construction in GENERATORS and "seed" in GENERATORS[construction][1]
    )


def _cmd_gen(args) -> int:
    params = _parse_params(args.params)
    # A typed seed= and --seed give one value two ways: they must agree, and
    # the header of a randomized family names it once, as its last token.
    seed = params.get("seed", 0 if args.seed is None else args.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _UsageError(f"seed must be an integer, got {seed!r}")
    if args.seed is not None and seed != args.seed:
        raise _UsageError(f"seed={seed} disagrees with --seed {args.seed}")
    if args.seed is not None and not _takes_seed(args.construction):
        raise _UsageError(f"generator '{args.construction}' takes no seed")
    try:
        g = _gen_graph(args.construction, params, seed)
    except KeyError as exc:
        raise _UsageError(f"missing required parameter {exc.args[0]!r}") from None
    except TypeError as exc:
        raise _UsageError(str(exc)) from None
    typed = [t for t in args.params if t.partition("=")[0] != "seed"]
    if _takes_seed(args.construction):
        typed.append(f"seed={seed}")
    header = " ".join(["# gen", args.construction, *typed])
    _emit(header + "\n" + write_graph(g), args.out)
    return EXIT_ACCEPT


def _cmd_sweep(args) -> int:
    sizes = tuple(int(t) for t in args.sizes.split(","))
    rows = size_sweep(args.kind, sizes, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(sweep_to_csv(rows))
    else:
        for r in rows:
            print(f"n={r.n:>6}  max_bits={r.max_bits:>6}  per_log2_n={r.ratio:.2f}")
    return EXIT_ACCEPT


def _oracle_corpus() -> list[tuple[str, Graph]]:
    return [
        ("grid(3,3)", generate("grid", w=3, h=3)),
        ("wheel(8)", generate("wheel", n=8)),
        ("tree(12)", generate("tree", n=12, seed=1)),
        ("random_maximal_planar(12)", generate("random_maximal_planar", n=12, seed=1)),
        ("path(7)", build_graph([(i, i + 1) for i in range(1, 7)])),
    ]


def _check_pop_oracles() -> list[tuple[str, bool]]:
    """Identity-order interval check and contraction check across a small corpus."""
    results = []
    for label, g in _oracle_corpus():
        rot = planar_embed(g)
        assert isinstance(rot, RotationSystem)
        nodes = g.nodes()
        for root in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
            t = spanning_tree_dfs(g, rot, root)
            fm = dfs_mapping(t)
            ind = induce_graph(g, rot, t, fm)
            ordered = is_path_outerplanar(
                ind.virtual_graph(), range(1, ind.n_virtual + 1)
            )
            results.append((f"identity-order intervals {label} root={root}", ordered))
            results.append((f"contraction recovers {label} root={root}", contract_check(g, ind, fm)))
    return results


def _cmd_oracle_check(args) -> int:
    ok = True
    if args.scope in ("pop", "all"):
        for label, good in _check_pop_oracles():
            print(f"[{'ok ' if good else 'BUG'}] {label}")
            ok = ok and good
    if args.scope in ("lowerbound", "all"):
        report = validate_lowerbound_claims(
            k_range=(4, 5), p_range=(1, 2, 3), q_range=(2, 3)
        )
        print(report.render())
        ok = ok and report.all_ok
    print(f"oracle-check: {'all checks passed' if ok else 'FAILURES FOUND'}")
    return EXIT_ACCEPT if ok else EXIT_REJECT


# --- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="planarcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a planar graph or print a witness")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("prove", help="write honest per-node certificates")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", help="run the one-round verifier at every node")
    p.add_argument("graph")
    p.add_argument("certs")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("attack", help="run adversarial certificate campaigns")
    p.add_argument("graph")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "human"), default="human")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("gen", help="generate corpus graphs (key=value parameters)")
    p.add_argument("construction")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, help="the seed of a randomized family (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="measure certificate size growth")
    p.add_argument("--kind", default="grid")
    p.add_argument("--sizes", default="16,64,256,1024,4096")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "human"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle-check", help="re-run structural validations")
    p.add_argument("--scope", choices=("pop", "lowerbound", "all"), default="all")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonPlanarError as exc:
        sys.stdout.write(_witness_report(exc.witness))
        return EXIT_WITNESS
    except (PlanarCertError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
