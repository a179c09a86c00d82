"""Hard-instance generators showing certification needs Θ(log n)-bit labels.

Three families, each validated against the minor oracle rather than trusted:

* Chains and cycles of cliques: complete graphs on k−1 nodes occupying
  consecutive id ranges, joined end to end through small bipartite
  connections.  Chains stay K_k-minor-free however the interior blocks are
  permuted; closing a chain into a cycle creates a K_k minor.
* Crossed path pairs: two node paths with q evenly spaced rungs between
  them.  The result is outerplanar, hence K_{2,3}-minor-free.
* Glued path families: q copies of each path with the rungs rotated so
  contracting every path to a point yields exactly K_{q,q}.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph, build_graph, contract_edges, generate, relabel
from .minors import DEFAULT_CAP, has_biclique_minor, has_clique_minor


@dataclass(frozen=True)
class BlockInstance:
    """A chain or cycle of complete blocks.

    ``permutation`` places ordinary block ``r`` at chain position
    ``permutation[r-1]``; the two boundary blocks are pinned to the ends.
    Cycles use only the ordinary blocks at chain positions
    ``cycle_range[0]..cycle_range[1]`` and add the closing connection.
    """

    k: int
    p: int
    permutation: tuple[int, ...]
    shape: str = "path"
    cycle_range: tuple[int, int] | None = None

    @classmethod
    def path(cls, k: int, p: int, permutation: Sequence[int] | None = None):
        perm = tuple(permutation) if permutation else tuple(range(1, p + 1))
        return cls(k=k, p=p, permutation=perm)

    @classmethod
    def cycle(cls, k: int, p: int, lo: int, hi: int, permutation: Sequence[int] | None = None):
        perm = tuple(permutation) if permutation else tuple(range(1, p + 1))
        return cls(k=k, p=p, permutation=perm, shape="cycle", cycle_range=(lo, hi))

    def block_ids(self, r: int) -> tuple[int, ...]:
        """Consecutive ids of block r; r=0 and r=p+1 are the boundary blocks."""
        w = self.k - 1
        return tuple(range(r * w + 1, (r + 1) * w + 1))


@dataclass(frozen=True)
class BipartiteInstance:
    """Two paths with q rungs at positions d, 2d, ..., qd (d = ⌊n/(2q)⌋).

    ``a`` and ``b`` are the node ids along each path; left empty they
    default to the contiguous slices 1..⌊n/2⌋ and ⌊n/2⌋+1..n.
    """

    n: int
    p: int
    q: int
    a: tuple[int, ...] = ()
    b: tuple[int, ...] = ()

    @property
    def d(self) -> int:
        return self.n // (2 * self.q)

    def resolved_ids(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n_a = self.n // 2
        a = self.a or tuple(range(1, n_a + 1))
        b = self.b or tuple(range(n_a + 1, self.n + 1))
        return a, b


def _check_permutation(perm: tuple[int, ...], p: int) -> dict[int, int]:
    if sorted(perm) != list(range(1, p + 1)):
        raise ParameterError(f"permutation {perm} is not a bijection on 1..{p}")
    return {perm[r - 1]: r for r in range(1, p + 1)}  # chain position → block


def _connection(src_ids: tuple[int, ...], dst_ids: tuple[int, ...], k: int):
    right = src_ids[-((k - 1 + 1) // 2) :]  # ⌈(k−1)/2⌉ rightmost of the source
    left = dst_ids[: (k - 1) // 2]  # ⌊(k−1)/2⌋ leftmost of the target
    return [(u, v) for u in right for v in left]


def gen_block_instance(spec: BlockInstance, extended: bool = False) -> Graph:
    """Materialize a chain or cycle of complete blocks.

    With ``extended`` the chain's connections are widened to every pair
    (i-th of one block, j-th of the next) with j < i — the superset used to
    argue minor-freeness, only defined for identity-ordered chains.
    """
    if spec.k < 3 or spec.p < 1:
        raise ParameterError("block instances need k >= 3 and p >= 1")
    at_position = _check_permutation(spec.permutation, spec.p)

    if spec.shape == "path":
        chain = [0] + [at_position[c] for c in range(1, spec.p + 1)] + [spec.p + 1]
        closing = False
    elif spec.shape == "cycle":
        if spec.cycle_range is None:
            raise ParameterError("cycle shape needs a cycle_range")
        lo, hi = spec.cycle_range
        if not 1 <= lo < hi <= spec.p:
            raise ParameterError(f"cycle range {spec.cycle_range} not within 1..{spec.p}")
        chain = [at_position[c] for c in range(lo, hi + 1)]
        closing = True
    else:
        raise ParameterError(f"unknown shape '{spec.shape}'")

    if extended:
        if spec.shape != "path" or spec.permutation != tuple(range(1, spec.p + 1)):
            raise ParameterError("the extended form is defined for identity-ordered chains")

    edges: list[tuple[int, int]] = []
    for r in chain:
        ids = spec.block_ids(r)
        edges.extend((ids[s], ids[t]) for s in range(len(ids)) for t in range(s + 1, len(ids)))
    hops = list(zip(chain, chain[1:]))
    if closing:
        hops.append((chain[-1], chain[0]))
    for src, dst in hops:
        src_ids, dst_ids = spec.block_ids(src), spec.block_ids(dst)
        if extended:
            edges.extend(
                (src_ids[i], dst_ids[j]) for i in range(spec.k - 1) for j in range(i)
            )
        else:
            edges.extend(_connection(src_ids, dst_ids, spec.k))
    return build_graph(edges)


def gen_bipartite_instance(spec: BipartiteInstance) -> Graph:
    """Two id-ordered paths plus the q evenly spaced rungs."""
    if spec.n < 6 * spec.q:
        raise ParameterError("need n >= 6q")
    if not spec.q >= spec.p >= 2:
        raise ParameterError("need q >= p >= 2")
    a, b = spec.resolved_ids()
    if len(a) != spec.n // 2 or len(b) != spec.n - spec.n // 2:
        raise ParameterError("id lists must have sizes floor(n/2) and ceil(n/2)")
    if set(a) & set(b):
        raise ParameterError("path id sets must be disjoint")
    edges = list(zip(a, a[1:])) + list(zip(b, b[1:]))
    d = spec.d
    edges.extend((a[j * d - 1], b[j * d - 1]) for j in range(1, spec.q + 1))
    return build_graph(edges)


def gen_glued_instance(
    n: int, q: int, id_partition: str | Sequence[Sequence[int]] = "contiguous", seed: int = 0
) -> Graph:
    """q crossed-path instances glued by rotating the rung targets.

    Path copy a_i keeps its rungs at positions d, 2d, ..., qd but the j-th
    rung of a_i lands on path b_{i+j} (indices wrapping past q), so
    contracting every path to a single node leaves exactly K_{q,q}.
    """
    if q < 2:
        raise ParameterError("gluing needs q >= 2")
    if n < 6 * q:
        raise ParameterError("need n >= 6q")
    n_a, n_b = n // 2, n - n // 2
    sizes = [n_a] * q + [n_b] * q
    if isinstance(id_partition, str):
        pool = list(range(1, sum(sizes) + 1))
        if id_partition == "random":
            random.Random(seed).shuffle(pool)
        elif id_partition != "contiguous":
            raise ParameterError(f"unknown id partition '{id_partition}'")
        paths = []
        at = 0
        for size in sizes:
            paths.append(tuple(pool[at : at + size]))
            at += size
    else:
        paths = [tuple(ids) for ids in id_partition]
        if len(paths) != 2 * q or [len(ids) for ids in paths] != sizes:
            raise ParameterError("id partition must give 2q paths of sizes n_A, n_B")
        flat = [v for ids in paths for v in ids]
        if len(set(flat)) != len(flat):
            raise ParameterError("id partition has repeated ids")
    a, b = paths[:q], paths[q:]
    edges: list[tuple[int, int]] = []
    for ids in paths:
        edges.extend(zip(ids, ids[1:]))
    d = n // (2 * q)
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            t = ((i + j - 1) % q) + 1
            edges.append((a[i - 1][j * d - 1], b[t - 1][j * d - 1]))
    return build_graph(edges)


def glued_contracts_to_biclique(g: Graph, n: int, q: int) -> bool:
    """Check by explicit contraction that the glued instance is K_{q,q} over its
    paths, whose ids run contiguously, as ``gen_glued_instance``'s default."""
    n_a, n_b = n // 2, n - n // 2
    sizes = [n_a] * q + [n_b] * q
    paths = []
    at = 0
    for size in sizes:
        paths.append(tuple(range(at + 1, at + size + 1)))
        at += size
    contracted = contract_edges(g, [e for ids in paths for e in zip(ids, ids[1:])])
    reference = generate("complete_bipartite", p=q, q=q)
    mapping = dict(zip(range(1, 2 * q + 1), (ids[0] for ids in paths)))
    return contracted == relabel(reference, mapping)


# --- claim validation ----------------------------------------------------------


@dataclass(frozen=True)
class ClaimCheck:
    construction: str
    params: str
    claim: str
    ok: bool


@dataclass(frozen=True)
class ClaimReport:
    checks: tuple[ClaimCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok " if c.ok else "BUG"
            lines.append(f"[{mark}] {c.construction}({c.params}): {c.claim}")
        return "\n".join(lines) + "\n"


def _nontrivial_permutation(p: int) -> tuple[int, ...]:
    if p < 2:
        return tuple(range(1, p + 1))
    return (2, 1) + tuple(range(3, p + 1))


def validate_lowerbound_claims(
    k_range: Sequence[int],
    p_range: Sequence[int],
    q_range: Sequence[int],
    cap: int = 2 * DEFAULT_CAP,
) -> ClaimReport:
    """Re-derive every structural claim the hard instances rely on.

    A failed check marks the corresponding construction buggy in the report
    instead of raising, so one regression cannot mask the others.
    """
    checks: list[ClaimCheck] = []
    for k in k_range:
        for p in p_range:
            for perm in dict.fromkeys((tuple(range(1, p + 1)), _nontrivial_permutation(p))):
                g = gen_block_instance(BlockInstance.path(k, p, perm))
                checks.append(
                    ClaimCheck(
                        "block-chain",
                        f"k={k}, p={p}, perm={perm}",
                        f"no K_{k} minor",
                        not has_clique_minor(g, k, cap=cap),
                    )
                )
                if p >= 2:
                    c = gen_block_instance(BlockInstance.cycle(k, p, 1, p, perm))
                    checks.append(
                        ClaimCheck(
                            "block-cycle",
                            f"k={k}, p={p}, perm={perm}",
                            f"contains a K_{k} minor",
                            has_clique_minor(c, k, cap=cap),
                        )
                    )
    for q in q_range:
        n = 6 * q + 4
        inst = BipartiteInstance(n=n, p=2, q=q)
        g = gen_bipartite_instance(inst)
        checks.append(
            ClaimCheck(
                "crossed-paths",
                f"n={n}, q={q}",
                "no K_{2,3} minor (outerplanar)",
                not has_biclique_minor(g, 2, 3, cap=cap),
            )
        )
        j = gen_glued_instance(n, q)
        ok = has_biclique_minor(j, q, q, cap=cap) and glued_contracts_to_biclique(
            j, n, q
        )
        checks.append(
            ClaimCheck(
                "glued-paths",
                f"n={n}, q={q}",
                f"contracts to K_{{{q},{q}}}",
                ok,
            )
        )
    return ClaimReport(checks=tuple(checks))
