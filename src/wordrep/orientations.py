"""Semi-transitive orientations: checking, searching, and colour-based construction.

An orientation is semi-transitive when it is acyclic and has no shortcut: a
directed path v1 -> ... -> vk (k >= 4) whose closing arc v1 -> vk is present
while some arc vi -> vj (i < j) is missing.  A graph is word-representable
exactly when it admits a semi-transitive orientation, which is what
``decide_word_representable`` computes.  ``check_odd_wheel`` re-checks an
induced odd wheel as proof that a graph is not word-representable, without
any orientation search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError
from .graphs import Colouring, Graph, bits, cycle, find_odd_wheel, is_k_colourable

DEFAULT_EDGE_BUDGET = 48
MAX_SEARCH_VERTICES = 20

FORWARD = 1  # arc u -> v for the stored edge (u, v), u < v
BACKWARD = -1


@dataclass(frozen=True)
class Orientation:
    """Per-edge directions over a graph; ``None`` marks an undecided edge."""

    graph: Graph
    directions: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if len(self.directions) != self.graph.edge_count:
            raise ValueError("one direction slot per edge required")
        for d in self.directions:
            if d not in (FORWARD, BACKWARD, None):
                raise ValueError(f"bad direction value {d!r}")

    @property
    def is_total(self) -> bool:
        return all(d is not None for d in self.directions)

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for (u, v), d in zip(self.graph.edges, self.directions):
            if d == FORWARD:
                out.append((u, v))
            elif d == BACKWARD:
                out.append((v, u))
        return out

    def has_arc(self, tail: int, head: int) -> bool:
        key = (tail, head) if tail < head else (head, tail)
        try:
            i = self.graph.edges.index(key)
        except ValueError:
            return False
        d = self.directions[i]
        if d is None:
            return False
        return (d == FORWARD) == (tail < head)

    def out_masks(self) -> list[int]:
        out = [0] * self.graph.n
        for tail, head in self.arcs():
            out[tail] |= 1 << head
        return out

    def reversed(self) -> Orientation:
        return Orientation(
            self.graph,
            tuple(None if d is None else -d for d in self.directions),
        )

    def to_json_obj(self) -> dict:
        return {
            "edges": [
                [u, v, "uv" if d == FORWARD else "vu"]
                for (u, v), d in zip(self.graph.edges, self.directions)
                if d is not None
            ]
        }


def orientation_from_arcs(g: Graph, arcs: list[tuple[int, int]]) -> Orientation:
    index = {e: i for i, e in enumerate(g.edges)}
    dirs: list[Optional[int]] = [None] * g.edge_count
    for tail, head in arcs:
        key = (tail, head) if tail < head else (head, tail)
        if key not in index:
            raise ValueError(f"arc {tail}->{head} is not an edge of the graph")
        dirs[index[key]] = FORWARD if tail < head else BACKWARD
    return Orientation(g, tuple(dirs))


def _closure(out: list[int], n: int) -> Optional[tuple[list[int], list[int]]]:
    """Descendant and ancestor masks of a DAG, or None if a directed cycle exists."""
    indeg = [0] * n
    for u in range(n):
        m = out[u]
        while m:
            low = m & -m
            indeg[low.bit_length() - 1] += 1
            m ^= low
    order = [v for v in range(n) if indeg[v] == 0]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        m = out[u]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
            m ^= low
    if len(order) != n:
        return None
    desc = [0] * n
    for u in reversed(order):
        d = out[u]
        m = out[u]
        while m:
            low = m & -m
            d |= desc[low.bit_length() - 1]
            m ^= low
        desc[u] = d
    anc = [0] * n
    for u in range(n):
        m = desc[u]
        while m:
            low = m & -m
            anc[low.bit_length() - 1] |= 1 << u
            m ^= low
    return desc, anc


def _shortcut(
    adj: tuple[int, ...],
    arcs: Iterable[tuple[int, int]],
    desc: list[int],
    anc: list[int],
) -> Optional[tuple[int, int, int, int]]:
    """First completed shortcut among ``arcs`` as (tail, head, x, y), or None.

    ``arcs`` yields (tail, mask of heads) pairs; the arcs are scanned in that
    order, heads ascending.  The arc tail -> head is present, x and y lie in
    that order on a directed path from tail to head, and x, y are not
    adjacent.  On a partial orientation the shortcut persists under any
    extension: arcs are only ever added, so reachability grows and
    non-adjacent pairs stay non-adjacent.
    """
    for u, heads in arcs:
        reach = desc[u] | 1 << u
        while heads:
            low = heads & -heads
            v = low.bit_length() - 1
            heads ^= low
            between = reach & (anc[v] | low)
            probe = between
            while probe:
                lp = probe & -probe
                x = lp.bit_length() - 1
                probe ^= lp
                bad = desc[x] & between & ~adj[x] & ~lp
                if bad:
                    return u, v, x, (bad & -bad).bit_length() - 1
    return None


def is_acyclic(o: Orientation) -> bool:
    if not o.is_total:
        raise ValueError("acyclicity is only defined for total orientations")
    return _closure(o.out_masks(), o.graph.n) is not None


@dataclass(frozen=True)
class ShortcutWitness:
    """A directed path whose closing arc exists but misses a transitive arc."""

    path: tuple[int, ...]
    missing: tuple[int, int]

    def verify(self, o: Orientation) -> bool:
        p = self.path
        if len(p) < 4 or len(set(p)) != len(p):
            return False
        if not all(o.has_arc(p[i], p[i + 1]) for i in range(len(p) - 1)):
            return False
        if not o.has_arc(p[0], p[-1]):
            return False
        x, y = self.missing
        if x not in p or y not in p or p.index(x) >= p.index(y):
            return False
        return not o.has_arc(x, y)


def _bfs_path(out: list[int], src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    parent = {src: -1}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in bits(out[u]):
                if v not in parent:
                    parent[v] = u
                    if v == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        frontier = nxt
    raise AssertionError("reachability promised a path that BFS cannot find")


def find_shortcut(o: Orientation) -> Optional[ShortcutWitness]:
    """A verifiable shortcut witness of a total acyclic orientation, or None."""
    if not o.is_total:
        raise ValueError("shortcut search needs a total orientation")
    g = o.graph
    out = o.out_masks()
    closed = _closure(out, g.n)
    if closed is None:
        raise ValueError("shortcut search needs an acyclic orientation")
    hit = _shortcut(g.adj, enumerate(out), *closed)
    if hit is None:
        return None
    tail, head, x, y = hit
    path = _bfs_path(out, tail, x)
    path += _bfs_path(out, x, y)[1:]
    path += _bfs_path(out, y, head)[1:]
    return ShortcutWitness(tuple(path), (x, y))


def is_semi_transitive(o: Orientation) -> bool:
    if not o.is_total:
        raise ValueError("acyclicity is only defined for total orientations")
    g = o.graph
    out = o.out_masks()
    closed = _closure(out, g.n)
    return closed is not None and _shortcut(g.adj, enumerate(out), *closed) is None


def orientation_from_colouring(g: Graph, c: Colouring) -> Orientation:
    """Orient every edge from the lower colour class to the higher.

    Any directed path then climbs strictly through {1,2,3}, so it has at most
    three vertices and no shortcut can exist; the result is always
    semi-transitive.
    """
    if len(c.colours) != g.n:
        raise ValueError("colouring length does not match the graph")
    if any(col not in (1, 2, 3) for col in c.colours):
        raise ValueError("colour values must lie in {1, 2, 3}")
    if not c.is_proper_for(g):
        raise ValueError("colouring is not proper")
    dirs = tuple(
        FORWARD if c.colours[u] < c.colours[v] else BACKWARD for u, v in g.edges
    )
    return Orientation(g, dirs)


@lru_cache(maxsize=None)
def cycle_is_comparability(m: int) -> bool:
    """True iff the chordless m-cycle (m >= 3) has a transitive orientation.

    Brute force over all 2^m orientations of C_m: an orientation is
    transitive when every directed path a -> b -> c has the arc a -> c.  The
    cost grows as 2^m; on the swept 3x3 boards the rims ``classify`` checks
    have m <= 9.
    """
    c = cycle(m)
    for dirs in product((FORWARD, BACKWARD), repeat=c.edge_count):
        out = Orientation(c, dirs).out_masks()
        if all(out[b] & ~out[a] == 0 for a in range(m) for b in bits(out[a])):
            return True
    return False


def check_odd_wheel(g: Graph, hub: int, rim: Sequence[int]) -> bool:
    """True when ``hub`` and ``rim`` prove that ``g`` is not word-representable.

    The rim must list at least 3 distinct in-range vertices other than the
    hub, each adjacent to the hub, that form a chordless cycle C_m in the
    order given; hub and rim then induce the wheel W_m.  Every neighbourhood
    of a word-representable graph induces a comparability graph
    (Kitaev-Pyatkin 2008), so the certificate holds when the brute force of
    ``cycle_is_comparability`` finds that C_m is not one, which is the case
    exactly for odd m >= 5.  Word-representability is hereditary
    (Halldorsson-Kitaev-Pyatkin 2016), so ``g`` is not word-representable
    either.  No search over the orientations of ``g`` is involved.
    """
    m = len(rim)
    if m < 3:
        return False
    if not all(0 <= v < g.n for v in (hub, *rim)):
        return False
    if len(set(rim)) != m or hub in rim:
        return False
    for i, u in enumerate(rim):
        if not g.has_edge(hub, u):
            return False
        for j in range(i + 1, m):
            consecutive = j == i + 1 or (i == 0 and j == m - 1)
            if g.has_edge(u, rim[j]) != consecutive:
                return False
    return not cycle_is_comparability(m)


def exists_semi_transitive(
    g: Graph, edge_budget: Optional[int] = None
) -> Optional[Orientation]:
    """Exhaustive search for a semi-transitive orientation.

    Backtracks over edges (most-constrained-first) and keeps the descendant
    and ancestor masks of the partial orientation for the whole search.
    Orienting an edge t -> h fails at once if h already reaches t; otherwise
    every vertex of A = anc(t) + t gains B = desc(h) + h as descendants.  Each
    undecided edge between A and B is then forced from A to B, and the search
    prunes as soon as one of the arcs from A to B closes a shortcut: these
    are the only arcs whose in-between sets the new reachability grows, so a
    new shortcut must close on one of them.  Forced arcs join vertices that
    already reach each other and leave reachability as it is, so one update
    per branch reaches the fixpoint.  A branch saves the four state lists
    (directions, out-arcs, descendants, ancestors) and restores them when it
    fails.  Returns the first orientation found, None after exhausting the
    space, and raises BudgetExceededError when the graph is beyond the
    configured budget.
    """
    budget = DEFAULT_EDGE_BUDGET if edge_budget is None else edge_budget
    if g.n > MAX_SEARCH_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the {MAX_SEARCH_VERTICES}-vertex search limit"
        )
    if g.edge_count > budget:
        raise BudgetExceededError(
            f"{g.edge_count} edges exceed the search budget of {budget}"
        )
    m = g.edge_count
    if m == 0:
        return Orientation(g, ())

    order = sorted(
        range(m),
        key=lambda i: (-min(g.degree(g.edges[i][0]), g.degree(g.edges[i][1])), g.edges[i]),
    )
    n = g.n
    adj = g.adj
    dirs: list[Optional[int]] = [None] * m
    out = [0] * n
    desc = [0] * n
    anc = [0] * n
    index = [[-1] * n for _ in range(n)]
    for i, (u, v) in enumerate(g.edges):
        index[u][v] = index[v][u] = i

    def add_arc(t: int, h: int) -> bool:
        """Orient t -> h and what it forces; False on a cycle or a shortcut."""
        if desc[h] >> t & 1:
            return False  # directed cycle
        sources = anc[t] | 1 << t
        sinks = desc[h] | 1 << h
        mask = sources
        while mask:
            low = mask & -mask
            mask ^= low
            desc[low.bit_length() - 1] |= sinks
        mask = sinks
        while mask:
            low = mask & -mask
            mask ^= low
            anc[low.bit_length() - 1] |= sources
        mask = sources
        while mask:
            low = mask & -mask
            mask ^= low
            a = low.bit_length() - 1
            # a reaches every vertex of sinks now, so each undecided edge from
            # a into sinks is forced away from a; t -> h is among them.
            heads = adj[a] & sinks
            new = heads & ~out[a]
            if new:
                out[a] |= new
                row = index[a]
                while new:
                    lb = new & -new
                    new ^= lb
                    b = lb.bit_length() - 1
                    dirs[row[b]] = FORWARD if a < b else BACKWARD
            if heads and _shortcut(adj, ((a, heads),), desc, anc) is not None:
                return False
        return True

    def solve(pos: int, first_branch: bool) -> bool:
        while pos < m and dirs[order[pos]] is not None:
            pos += 1
        if pos == m:
            return True
        u, v = g.edges[order[pos]]
        choices = ((u, v),) if first_branch else ((u, v), (v, u))
        for t, h in choices:
            saved = dirs[:], out[:], desc[:], anc[:]
            if add_arc(t, h) and solve(pos + 1, False):
                return True
            dirs[:], out[:], desc[:], anc[:] = saved
        return False

    if solve(0, True):
        return Orientation(g, tuple(dirs))
    return None


def semi_transitive_certificate(
    g: Graph, edge_budget: Optional[int] = None
) -> Optional[Orientation]:
    """A semi-transitive orientation if one exists, else None.

    Three routes, in this order.  An induced odd wheel from ``find_odd_wheel``,
    re-checked by ``check_odd_wheel``, gives None: such a graph is not
    word-representable, and it is not 3-colourable either, so the colouring
    would fail.  A proper 3-colouring gives its colour-level orientation; a
    3-colourable graph has only bipartite neighbourhoods, so the finder skips
    each of its hubs after one parity test.  Otherwise the exhaustive search
    decides, within ``edge_budget``.  The orientation of either "yes" route
    is re-checked with ``is_semi_transitive`` before it is returned.
    """
    found = find_odd_wheel(g)
    if found is not None:
        if not check_odd_wheel(g, *found):
            raise AssertionError("odd wheel failed its re-check")
        return None
    colouring = is_k_colourable(g, 3)
    if colouring is not None:
        o = orientation_from_colouring(g, colouring)
        route = "colour-level orientation"
    else:
        o = exists_semi_transitive(g, edge_budget)
        if o is None:
            return None
        route = "searched orientation"
    if not is_semi_transitive(o):
        raise AssertionError(f"{route} failed the semi-transitivity self-check")
    return o


def decide_word_representable(g: Graph, edge_budget: Optional[int] = None) -> bool:
    """True iff the graph admits a semi-transitive orientation.

    Raises BudgetExceededError instead of guessing when the search space is
    over budget.
    """
    return semi_transitive_certificate(g, edge_budget) is not None
