"""Brute-force minor containment for small graphs.

The oracle decides whether a clique K_k or a biclique K_{p,q} is a minor of a
graph by branch-and-bound over branch-set assignments. Branch sets are grown
one vertex at a time, kept connected by construction, and the search is cut by
reachability tests, counting bounds, symmetry breaking, and a dead-state table.

Before searching, the host graph is shrunk by moves that preserve containment
in both directions: low-degree reductions, component splits, and one
separator search. For a target whose connectivity exceeds s, the graph is
split along its best separator of s vertices, first s = 1 (a cut vertex) and
then s = 2: each piece is a component of what remains plus the separator.
The search then only ever runs on the highly connected pieces, which keeps
negative answers affordable on chain- and grid-like inputs.

Intended for validation work on small instances (at most ``NODE_CAP``
nodes); positive instances usually resolve quickly, negative ones pay for
the full search tree of each piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterError, ResourceError
from .graphs import Graph, _components, _reach

#: The oracle refuses graphs on more nodes.  The largest instance the
#: lower-bound claims check, the glued paths at q = 3, has 66.
NODE_CAP = 80
_MEMO_LIMIT = 2_000_000


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class _MinorSearch:
    adj: list[int]          # adjacency masks, vertex index -> neighbor mask
    sets: list[int]         # branch-set masks, target-vertex -> mask (0 = empty)
    nbr: list[int]          # cached neighbor mask per branch set
    groups: list[range]     # interchangeable target-vertex index ranges
    pairs: list[tuple[int, int]]  # target pairs that must see an edge
    all_mask: int
    swap_break: bool        # biclique with p == q: break the side swap too

    def run(self) -> bool:
        self.assigned = 0
        self.dead: set = set()
        return self._solve()

    # -- helpers ----------------------------------------------------------

    def _seed_floor(self, t: int) -> int:
        """Smallest admissible seed index for target set t (symmetry break)."""
        for grp in self.groups:
            if t in grp:
                if t > grp.start:
                    prev = self.sets[t - 1]
                    return (prev & -prev).bit_length()  # prev seed + 1
                if self.swap_break and grp.start > 0:
                    first = self.sets[0]
                    return (first & -first).bit_length()
                return 0
        raise AssertionError("target index outside all groups")

    def _feasible(self, violated: list[tuple[int, int]]) -> bool:
        """Every violated pair must still be connectable through unassigned
        vertices; one BFS per involved set, recording which sets its
        unassigned halo touches."""
        involved = {t for pair in violated for t in pair}
        unassigned = self.all_mask & ~self.assigned
        touch: dict[int, int] = {}
        for t in involved:
            # the halo is every layer's neighbors; the first layer is the
            # set's own cached neighbors
            frontier = region = self.nbr[t] & unassigned
            halo = 0
            while frontier:
                nxt = 0
                for i in _iter_bits(frontier):
                    nxt |= self.adj[i]
                halo |= nxt
                frontier = nxt & unassigned & ~region
                region |= frontier
            touch[t] = halo
        for a, b in violated:
            if not (touch[a] & self.sets[b]):
                return False
        return True

    def _state_key(self):
        """The state up to symmetry: ``_seed_floor`` keeps each group's sets
        in ascending seed order, so the sets as they stand name it."""
        if self.swap_break:
            p = self.groups[1].start
            left, right = tuple(self.sets[:p]), tuple(self.sets[p:])
            return min((left, right), (right, left))
        return tuple(self.sets)

    # -- search -----------------------------------------------------------

    def _place(self, t: int, v: int) -> int:
        old_nbr = self.nbr[t]
        self.sets[t] |= 1 << v
        self.nbr[t] |= self.adj[v]
        self.assigned |= 1 << v
        return old_nbr

    def _unplace(self, t: int, v: int, old_nbr: int) -> None:
        self.sets[t] &= ~(1 << v)
        self.nbr[t] = old_nbr
        self.assigned &= ~(1 << v)

    def _solve(self) -> bool:
        sets = self.sets
        unassigned = self.all_mask & ~self.assigned
        violated = [
            (a, b)
            for a, b in self.pairs
            if sets[a] and sets[b] and not (self.nbr[a] & sets[b])
        ]
        empties = [t for t in range(len(sets)) if not sets[t]]
        if not violated and not empties:
            return True
        if unassigned.bit_count() < len(empties):
            return False
        key = self._state_key()
        if key in self.dead:
            return False
        if violated and not self._feasible(violated):
            if len(self.dead) < _MEMO_LIMIT:
                self.dead.add(key)
            return False

        if violated:
            # fail-first: repair the pair with the fewest growth options
            def fanout(pair):
                a, b = pair
                return (self.nbr[a] & unassigned).bit_count() + (
                    self.nbr[b] & unassigned
                ).bit_count()

            a, b = min(violated, key=fanout)
            for t in (a, b):
                seed = sets[t] & -sets[t]
                floor = seed.bit_length()  # grow only above the own seed
                cands = self.nbr[t] & unassigned & ~((1 << floor) - 1)
                for v in _iter_bits(cands):
                    old = self._place(t, v)
                    if self._solve():
                        return True
                    self._unplace(t, v, old)
        else:
            t = empties[0]
            floor = self._seed_floor(t)
            for v in _iter_bits(unassigned >> floor):
                v += floor
                old = self._place(t, v)
                if self._solve():
                    return True
                self._unplace(t, v, old)
        if len(self.dead) < _MEMO_LIMIT:
            self.dead.add(key)
        return False


def _spec_props(spec: tuple) -> tuple[int, int, int]:
    """(node count, edge count, vertex connectivity) of the target graph.

    For K_k connectivity is k - 1; for K_{p,q} it is min(p, q). The target's
    minimum degree coincides with its connectivity for both families, which is
    what the reduction safety conditions below key on.
    """
    if spec[0] == "clique":
        k = spec[1]
        return k, k * (k - 1) // 2, k - 1
    p, q = spec[1], spec[2]
    return p + q, p * q, min(p, q)


def _induced(adj: dict[int, set[int]], keep: set[int]) -> dict[int, set[int]]:
    return {u: adj[u] & keep for u in keep}


def _reduce_adj(adj: dict[int, set[int]], target_min_degree: int) -> dict[int, set[int]]:
    """Shrink the host graph without changing the answer.

    Deleting a degree-<=1 vertex is safe when the target has minimum degree
    >= 2 (such a vertex can only ever be a private leaf of a branch set).
    Dissolving a degree-2 vertex into a neighbor is safe when the target has
    minimum degree >= 3 — but not below that: dissolving inside a long two
    path can create adjacencies a degree-2 target vertex could not have used.
    """
    if target_min_degree < 2:
        return adj
    suppress = target_min_degree >= 3
    adj = {u: set(ns) for u, ns in adj.items()}
    queue = [u for u in adj if len(adj[u]) <= 2]
    while queue:
        u = queue.pop()
        if u not in adj:
            continue
        degree = len(adj[u])
        if degree > 2 or (degree == 2 and not suppress):
            continue
        ns = adj.pop(u)
        for w in ns:
            adj[w].discard(u)
        if degree == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        for w in ns:
            if len(adj[w]) <= 2:
                queue.append(w)
    return adj


def _separator_split(adj: dict[int, set[int]], size: int) -> list[dict[int, set[int]]] | None:
    """Pieces for the best separator of ``size`` vertices, or None if none.

    The best separator leaves the smallest largest component, ties to the
    first in ``combinations`` order. Each piece is a component together with
    the separator, plus an x-y edge for each separator pair {x, y} that stays
    connected outside that component (the outside walk can then be contracted
    onto the pair). A target whose connectivity exceeds ``size`` is a minor of
    the whole graph iff it is a minor of one of the pieces: branch sets
    avoiding the separator cannot straddle two components without giving the
    target a separator of ``size`` vertices.
    """
    best = None
    for sep in combinations(adj, size):
        cut = set(sep)
        comps = _components({u: adj[u] - cut for u in adj if u not in cut})
        if len(comps) < 2:
            continue
        score = max(len(comp) for comp in comps)
        if best is None or score < best[0]:
            best = (score, cut, comps)
    if best is None:
        return None
    _, cut, comps = best
    pieces = []
    for comp in comps:
        sub = _induced(adj, comp | cut)
        for x, y in combinations(cut, 2):
            if y in _reach(_induced(adj, set(adj) - comp), x):
                sub[x].add(y)
                sub[y].add(x)
        pieces.append(sub)
    return pieces


def _base_search(adj: dict[int, set[int]], spec: tuple) -> bool:
    nodes = sorted(adj)
    pos = {v: i for i, v in enumerate(nodes)}
    masks = [0] * len(nodes)
    for u, ns in adj.items():
        for w in ns:
            masks[pos[u]] |= 1 << pos[w]
    if spec[0] == "clique":
        k = spec[1]
        count, groups = k, [range(k)]
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        swap = False
    else:
        p, q = spec[1], spec[2]
        count, groups = p + q, [range(p), range(p, p + q)]
        pairs = [(i, p + j) for i in range(p) for j in range(q)]
        swap = p == q
    search = _MinorSearch(
        adj=masks,
        sets=[0] * count,
        nbr=[0] * count,
        groups=groups,
        pairs=pairs,
        all_mask=(1 << len(nodes)) - 1,
        swap_break=swap,
    )
    return search.run()


def _decide(adj: dict[int, set[int]], spec: tuple) -> bool:
    """Recursive driver: reduce, split along small separators, then search."""
    size, edges_needed, connectivity = _spec_props(spec)
    adj = _reduce_adj(adj, connectivity)
    if len(adj) < size or sum(len(ns) for ns in adj.values()) // 2 < edges_needed:
        return False
    comps = _components(adj)
    if len(comps) > 1:
        return any(_decide(_induced(adj, comp), spec) for comp in comps)
    for sep_size in (1, 2):
        if connectivity > sep_size:
            pieces = _separator_split(adj, sep_size)
            if pieces is not None:
                return any(_decide(piece, spec) for piece in pieces)
    return _base_search(adj, spec)


def _adj_dict(g: Graph) -> dict[int, set[int]]:
    return {u: set(g.neighbors(u)) for u in g.nodes()}


def has_clique_minor(g: Graph, k: int) -> bool:
    """True iff K_k is a minor of g. Exponential search; see module docstring."""
    if type(k) is not int or k < 1:
        raise ParameterError(f"k must be an int >= 1, got {k!r}")
    if g.n > NODE_CAP:
        raise ResourceError(f"graph has {g.n} nodes, above the cap {NODE_CAP}")
    if k == 1:
        return g.n >= 1
    if k == 2:
        return g.m >= 1
    if g.n < k:
        return False
    return _decide(_adj_dict(g), ("clique", k))


def has_biclique_minor(g: Graph, p: int, q: int) -> bool:
    """True iff K_{p,q} is a minor of g."""
    for name, size in (("p", p), ("q", q)):
        if type(size) is not int or size < 1:
            raise ParameterError(f"{name} must be an int >= 1, got {size!r}")
    if g.n > NODE_CAP:
        raise ResourceError(f"graph has {g.n} nodes, above the cap {NODE_CAP}")
    if p == 1 and q == 1:
        return g.m >= 1
    if g.n < p + q:
        return False
    return _decide(_adj_dict(g), ("biclique", p, q))


def parse_minor_spec(spec: str) -> tuple:
    """Parse "K5" into ("clique", 5) and "K3,3" into ("biclique", 3, 3); refuse other text."""
    s = spec.strip().upper().replace("_", "").replace("{", "").replace("}", "")
    try:
        sizes = tuple(int(t) for t in s[1:].split(",")) if s[:1] == "K" else ()
    except ValueError:
        sizes = ()
    if not 1 <= len(sizes) <= 2:
        raise ParameterError(f"unrecognized minor spec {spec!r}")
    return ("clique" if len(sizes) == 1 else "biclique", *sizes)


def minor_contains(g: Graph, h) -> bool:
    """Decide whether ``h`` (a spec like "K5"/"K3,3" or a parsed tuple) is a minor of g."""
    if isinstance(h, str):
        h = parse_minor_spec(h)
    kind, *sizes = tuple(h) or (None,)
    if kind == "clique" and len(sizes) == 1:
        return has_clique_minor(g, *sizes)
    if kind == "biclique" and len(sizes) == 2:
        return has_biclique_minor(g, *sizes)
    raise ParameterError(f"unrecognized minor spec {h!r}")
