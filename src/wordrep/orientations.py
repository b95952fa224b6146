"""Semi-transitive orientations: checking, searching, and colour-based construction.

An orientation is semi-transitive when it is acyclic and has no shortcut: a
directed path v1 -> ... -> vk (k >= 4) whose closing arc v1 -> vk is present
while some arc vi -> vj (i < j) is missing.  A graph is word-representable
exactly when it admits a semi-transitive orientation.  The checks sort an
orientation into topological layers first: a directed cycle leaves vertices
unsorted, and an orientation with fewer than four layers has no directed
path on four vertices, hence no shortcut, so only a taller one pays for the
descendant masks and the shortcut scan.  The scan is one exact test per arc
tail, ``_tail_shortcut``, over transitively closed descendant and ancestor
masks; the checks run it on every tail and the search on every tail its
newest arc extends.  ``certify`` is the one
decision procedure: it decides by an induced odd wheel, a 3-colouring or the
exhaustive search, in that order, and returns the verdict's certificate.
``check_odd_wheel`` re-checks an induced odd wheel as proof that a graph is
not word-representable, without any orientation search.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError
from .graphs import Colouring, Graph, _Frozen, bits, cycle, find_odd_wheel, is_k_colourable

DEFAULT_EDGE_BUDGET = 48
MAX_SEARCH_VERTICES = 20


class Orientation(_Frozen):
    """A total orientation: ``out[v]`` is the mask of v's out-neighbours.

    Every edge of the graph is oriented exactly one way, and every arc is an
    edge; the constructor refuses anything else.
    """

    _compared = ("graph", "out")
    graph: Graph
    out: tuple[int, ...]

    def __init__(self, graph: Graph, out: tuple[int, ...]) -> None:
        if len(out) != graph.n:
            raise ValueError("one out-neighbour mask per vertex required")
        for v, heads in enumerate(out):
            if heads & ~graph.adj[v]:
                raise ValueError(f"an arc out of {v} is not an edge of the graph")
        for u, v in graph.edges:
            if out[u] >> v & 1 == out[v] >> u & 1:
                raise ValueError(f"edge ({u}, {v}) needs exactly one direction")
        self.__dict__.update(graph=graph, out=out)

    def arcs(self) -> list[tuple[int, int]]:
        """Every arc, in edge order."""
        return [(u, v) if self.out[u] >> v & 1 else (v, u) for u, v in self.graph.edges]

    def has_arc(self, tail: int, head: int) -> bool:
        return 0 <= tail < self.graph.n and head >= 0 and bool(self.out[tail] >> head & 1)

    def reversed(self) -> Orientation:
        return Orientation(self.graph, tuple(a & ~o for a, o in zip(self.graph.adj, self.out)))

    def to_json_obj(self) -> dict:
        return {
            "edges": [
                [u, v, "uv" if self.out[u] >> v & 1 else "vu"] for u, v in self.graph.edges
            ]
        }


def orientation_from_arcs(g: Graph, arcs: Iterable[tuple[int, int]]) -> Orientation:
    out = [0] * g.n
    for tail, head in arcs:
        if not (0 <= tail < g.n and 0 <= head < g.n and g.has_edge(tail, head)):
            raise ValueError(f"arc {tail}->{head} is not an edge of the graph")
        out[tail] |= 1 << head
    return Orientation(g, tuple(out))


def _layers(adj: Sequence[int], out: Sequence[int]) -> Optional[list[list[int]]]:
    """Topological sort of an orientation, one layer at a time, or None on a
    directed cycle.

    Every edge has exactly one direction, so v's in-neighbours are
    ``adj[v] & ~out[v]``.  Layer 0 holds the sources, and each next layer
    the vertices left with no in-neighbour among those left, in ascending
    order.  So layer k + 1 holds the vertices whose highest in-neighbour
    lies in layer k, every arc climbs to a higher layer, and the number of
    layers is the number of vertices on a longest directed path.
    """
    into = [a & ~o for a, o in zip(adj, out)]
    layers = []
    rest = range(len(out))  # the vertices left, ascending
    left = (1 << len(out)) - 1  # and as a mask
    while rest:
        layer = []
        keep = []
        taken = 0
        for v in rest:
            if into[v] & left:
                keep.append(v)
            else:
                layer.append(v)
                taken |= 1 << v
        if not layer:
            return None
        layers.append(layer)
        left ^= taken
        rest = keep
    return layers


def _reach(out: Sequence[int], layers: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Descendant and ancestor masks of a DAG, from its ``_layers`` taken in reverse."""
    n = len(out)
    desc = [0] * n
    for layer in reversed(layers):
        for u in layer:
            d = m = out[u]
            while m:
                low = m & -m
                d |= desc[low.bit_length() - 1]
                m ^= low
            desc[u] = d
    anc = [0] * n
    for u, m in enumerate(desc):
        bit = 1 << u
        while m:
            low = m & -m
            anc[low.bit_length() - 1] |= bit
            m ^= low
    return desc, anc


def _tail_shortcut(
    adj: tuple[int, ...], desc: Sequence[int], anc: Sequence[int], a: int, heads: int
) -> Optional[tuple[int, int]]:
    """(x, y) of a shortcut closing on some arc a -> v, v in ``heads``, or None.

    ``desc`` and ``anc`` must be transitively closed.  Let ``above`` be the
    union of anc(v) over the heads, and Z = ``above`` + heads.  A shortcut
    closes on one of these arcs iff some x in desc(a) + a, x in ``above``,
    has a non-neighbour y in desc(x) and Z.  If: y reaches or is some head
    v, so x reaches v, and x, y lie in that order on a directed path from a
    to v.  Only if: x and y of a shortcut on a -> v lie between a and v,
    and x reaches y, so x is not v but one of its ancestors.  Each x costs
    one test, whatever the number of heads; x is the lowest such vertex and
    y its lowest such descendant.  On a partial orientation the shortcut
    persists under any extension: arcs are only ever added, so reachability
    grows and non-adjacent pairs stay non-adjacent.
    """
    if heads & (heads - 1):
        above = 0
        m = heads
        while m:
            low = m & -m
            m ^= low
            above |= anc[low.bit_length() - 1]
    else:
        above = anc[heads.bit_length() - 1]
    z = above | heads
    probe = (desc[a] | 1 << a) & above
    while probe:
        low = probe & -probe
        probe ^= low
        x = low.bit_length() - 1
        bad = desc[x] & z & ~adj[x]
        if bad:
            return x, (bad & -bad).bit_length() - 1
    return None


def _first_shortcut(
    adj: tuple[int, ...], out: Sequence[int], layers: Sequence[Sequence[int]]
) -> Optional[tuple[int, int, int, int]]:
    """First shortcut of an acyclic orientation as (tail, head, x, y), or None.

    One ``_tail_shortcut`` test per arc tail, tails ascending; the head is
    the lowest head of that tail that y reaches or is.
    """
    desc, anc = _reach(out, layers)
    for a, heads in enumerate(out):
        if heads:
            hit = _tail_shortcut(adj, desc, anc, a, heads)
            if hit is not None:
                x, y = hit
                ends = heads & (desc[y] | 1 << y)
                return a, (ends & -ends).bit_length() - 1, x, y
    return None


def is_acyclic(o: Orientation) -> bool:
    return _layers(o.graph.adj, o.out) is not None


class ShortcutWitness(NamedTuple):
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


def _bfs_path(out: Sequence[int], src: int, dst: int) -> list[int]:
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
    """A verifiable shortcut witness of an acyclic orientation, or None.

    An orientation with fewer than four layers has none, since a shortcut
    needs a directed path on four vertices.
    """
    g = o.graph
    out = o.out
    layers = _layers(g.adj, out)
    if layers is None:
        raise ValueError("shortcut search needs an acyclic orientation")
    if len(layers) < 4:
        return None
    hit = _first_shortcut(g.adj, out, layers)
    if hit is None:
        return None
    tail, head, x, y = hit
    path = _bfs_path(out, tail, x)
    path += _bfs_path(out, x, y)[1:]
    path += _bfs_path(out, y, head)[1:]
    return ShortcutWitness(tuple(path), (x, y))


def is_semi_transitive(o: Orientation) -> bool:
    """True iff the orientation is acyclic and has no shortcut.

    The topological layers decide acyclicity.  Fewer than four layers means
    no directed path has four vertices, so no shortcut can exist and the
    descendant masks and the shortcut scan are skipped; this is always the
    case for a colour-level orientation.
    """
    g = o.graph
    layers = _layers(g.adj, o.out)
    if layers is None:
        return False
    if len(layers) < 4:
        return True
    return _first_shortcut(g.adj, o.out, layers) is None


def orientation_from_colouring(g: Graph, c: Colouring) -> Orientation:
    """Orient every edge from the lower colour class to the higher.

    Any directed path then climbs strictly through {1,2,3}, so it has at most
    three vertices and no shortcut can exist; the result is always
    semi-transitive.  Its topological layers number at most three, so
    ``is_semi_transitive`` re-checks it by the sort alone.

    The colouring is refused unless it is proper, as strictly as
    ``Colouring.is_proper_for`` refuses it, but on one mask per colour
    class: no vertex may have a neighbour in its own class.
    """
    colours = c.colours
    if len(colours) != g.n:
        raise ValueError("colouring length does not match the graph")
    if any(col not in (1, 2, 3) for col in colours):
        raise ValueError("colour values must lie in {1, 2, 3}")
    klass = [0, 0, 0, 0]  # klass[k]: the vertices coloured k
    for v, col in enumerate(colours):
        klass[col] |= 1 << v
    adj = g.adj
    if any(a & klass[col] for a, col in zip(adj, colours)):
        raise ValueError("colouring is not proper")
    above = (0, klass[2] | klass[3], klass[3], 0)  # above[k]: coloured higher than k
    return Orientation(g, tuple(a & above[col] for a, col in zip(adj, colours)))


@lru_cache(maxsize=None)
def cycle_is_comparability(m: int) -> bool:
    """True iff the chordless m-cycle (m >= 3) has a transitive orientation.

    Brute force over all 2^m orientations of C_m: an orientation is
    transitive when every directed path a -> b -> c has the arc a -> c.  The
    cost grows as 2^m; on the swept 3x3 boards the rims ``classify`` checks
    have m <= 9.
    """
    c = cycle(m)
    for arcs in product(*(((u, v), (v, u)) for u, v in c.edges)):
        out = orientation_from_arcs(c, arcs).out
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
    either.  No search over the orientations of ``g`` is involved: the wheel
    is checked on bit masks, the rim inside the hub's row and each rim
    vertex's row meeting the rim in exactly its two cyclic neighbours.
    """
    m = len(rim)
    if m < 3 or not 0 <= hub < g.n:
        return False
    ring = 0  # the rim as a mask: m bits iff its vertices are distinct
    for v in rim:
        if not 0 <= v < g.n:
            return False
        ring |= 1 << v
    if ring.bit_count() != m:
        return False
    if g.adj[hub] & ring != ring:  # also rejects the hub on its own rim
        return False
    for i, u in enumerate(rim):
        if g.adj[u] & ring != 1 << rim[i - 1] | 1 << rim[(i + 1) % m]:
            return False
    return not cycle_is_comparability(m)


def exists_semi_transitive(
    g: Graph, edge_budget: Optional[int] = None
) -> Optional[Orientation]:
    """Exhaustive search for a semi-transitive orientation.

    Backtracks over edges (most-constrained-first, by a degree list worked
    out once) and keeps the descendant and ancestor masks of the partial
    orientation, transitively closed, for the whole search.  Orienting an
    edge t -> h fails at once if h already reaches t; otherwise every vertex
    of A = anc(t) + t gains B = desc(h) + h as descendants.  Each undecided
    edge between A and B is then forced from A to B, and the search prunes
    as soon as one of the arcs from A to B closes a shortcut: these are the
    only arcs whose in-between sets the new reachability grows, so a new
    shortcut must close on one of them.  ``_add_arc`` asks this of each
    tail in A with heads in B in one ``_tail_shortcut`` test, which is exact
    (see there), so a branch is accepted or pruned as by a scan of each arc
    on its own.  Forced arcs join vertices that already reach each other
    and leave reachability as it is, so one update per branch reaches the
    fixpoint.  A search node saves the three state lists (out-neighbour,
    descendant and ancestor masks) once and restores them when its first
    branch fails; the root has one branch and saves nothing.  Returns the
    first orientation found, whose masks are the search's
    own out-neighbour list, None after exhausting the space, and raises
    BudgetExceededError when the graph is beyond the configured budget.  Its
    steps are module-level functions over the state lists, not closures, so
    a search leaves no reference cycle for the cycle collector.
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
    degree = [a.bit_count() for a in g.adj]
    edges = sorted(g.edges, key=lambda e: (-min(degree[e[0]], degree[e[1]]), e))
    out = [0] * g.n
    if _solve(edges, g.adj, out, [0] * g.n, [0] * g.n, 0, True):
        return Orientation(g, tuple(out))
    return None


def _add_arc(
    adj: tuple[int, ...], out: list[int], desc: list[int], anc: list[int], t: int, h: int
) -> bool:
    """Orient t -> h and what it forces; False on a cycle or a shortcut.

    Every vertex a of anc(t) + t comes to reach every vertex of desc(h) + h,
    so each edge from a into that set is oriented away from a, t -> h among
    them; then one ``_tail_shortcut`` test per such tail asks whether any of
    its arcs into the set closes a shortcut.  The masks stay transitively
    closed, as that test needs.
    """
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
        heads = adj[a] & sinks
        if heads:
            out[a] |= heads
            if _tail_shortcut(adj, desc, anc, a, heads) is not None:
                return False
    return True


def _solve(
    edges: list[tuple[int, int]], adj: tuple[int, ...], out: list[int], desc: list[int],
    anc: list[int], pos: int, first_branch: bool,
) -> bool:
    """Orient ``edges[pos:]`` in order, each undecided edge u -> v first and
    then v -> u.  The first undecided edge of the search gets u -> v only:
    the reverse of a semi-transitive orientation is one too."""
    m = len(edges)
    while pos < m:
        u, v = edges[pos]
        if not (out[u] >> v | out[v] >> u) & 1:
            break  # the first undecided edge
        pos += 1
    if pos == m:
        return True
    if not first_branch:
        saved = out[:], desc[:], anc[:]
        if _add_arc(adj, out, desc, anc, u, v) and _solve(
            edges, adj, out, desc, anc, pos + 1, False
        ):
            return True
        out[:], desc[:], anc[:] = saved
        u, v = v, u
    return _add_arc(adj, out, desc, anc, u, v) and _solve(
        edges, adj, out, desc, anc, pos + 1, False
    )


def certify(
    g: Graph, edge_budget: Optional[int] = None
) -> tuple[Optional[Orientation], Optional[dict]]:
    """The decision procedure: a semi-transitive orientation or None, and the
    certificate of the verdict.

    Three routes, in this order.  An induced odd wheel from ``find_odd_wheel``,
    re-checked by ``check_odd_wheel``, gives ``(None, {"odd_wheel": (hub,
    *rim)})``: such a graph is not word-representable, and not 3-colourable
    either, since an odd wheel needs four colours.  A proper 3-colouring gives
    its colour-level orientation and ``{"colouring": [...]}``; a 3-colourable
    graph has only bipartite neighbourhoods, so its odd-link scan, kept on
    the graph for the catalog too, finds no vertex and the finder tries no
    hub.
    Otherwise the exhaustive search decides, within ``edge_budget``: ``(o,
    {"orientation": ...})`` for its orientation ``o``, or ``(None, None)``,
    since a searched "no" has no certificate.  The orientation of either
    "yes" route is re-checked with ``is_semi_transitive`` before it is
    returned, a rejected wheel raises ``AssertionError``, and
    ``BudgetExceededError`` propagates.  The re-check sorts the orientation
    into topological layers; a colour-level orientation has at most three,
    so no directed path on four vertices and no shortcut, and its re-check
    stops after the sort, while a searched one with four or more layers also
    gets the shortcut scan.
    """
    found = find_odd_wheel(g)
    if found is not None:
        hub, rim = found
        if not check_odd_wheel(g, hub, rim):
            raise AssertionError("odd wheel failed its re-check")
        return None, {"odd_wheel": (hub, *rim)}
    colouring = is_k_colourable(g, 3)
    if colouring is not None:
        o = orientation_from_colouring(g, colouring)
        certificate = {"colouring": list(colouring.colours)}
        route = "colour-level orientation"
    else:
        o = exists_semi_transitive(g, edge_budget)
        if o is None:
            return None, None
        certificate = {"orientation": o.to_json_obj()}
        route = "searched orientation"
    if not is_semi_transitive(o):
        raise AssertionError(f"{route} failed the semi-transitivity self-check")
    return o, certificate


def route_of(certificate: Optional[dict]) -> str:
    """The route a ``certify`` certificate came from: odd_wheel, colouring or
    search (a searched "yes" carries its orientation, a searched "no" nothing)."""
    if certificate is None or "orientation" in certificate:
        return "search"
    (kind,) = certificate
    return kind


def semi_transitive_certificate(
    g: Graph, edge_budget: Optional[int] = None
) -> Optional[Orientation]:
    """A re-checked semi-transitive orientation if one exists, else None: the
    orientation of ``certify``, which says which route decided."""
    return certify(g, edge_budget)[0]


def decide_word_representable(g: Graph, edge_budget: Optional[int] = None) -> bool:
    """True iff the graph admits a semi-transitive orientation.

    Raises BudgetExceededError instead of guessing when the search space is
    over budget.
    """
    return semi_transitive_certificate(g, edge_budget) is not None
