"""Small labeled undirected graphs with bit-set adjacency.

Vertices are 0..n-1, with no cap on n: an adjacency row is a Python int, so
a row of any length is one bit mask.  A graph built from a list of pairs
takes one pass over them, which checks each pair and sets its bits in both
rows; its sorted edge list is then read off the rows.  Graphs are immutable
values: safe to hash, share, and send between workers.  The facts derived
from a graph are kept on it, each worked out on first use: its adjacency
``matrix`` as one int, its degree classes ``at_least`` and its odd-link
vertices.  The value types are plain classes that refuse assignment
(``_Frozen``) or named tuples, so importing the package pulls in no record
machinery.  The odd links are found by one resumable scan that runs the
parity tests in index order, each vertex at most once, and only as far as a
caller asks: ``first_odd_link`` stops at the first odd-link vertex it needs,
``odd_links`` finishes the scan.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar

from .errors import GraphSizeError

MAX_PATTERN_VERTICES = 12

_T = TypeVar("_T")


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _kept:
    """A fact worked out from an instance on first read and kept in its
    ``__dict__``, which later reads find first (a non-data descriptor).

    ``functools.cached_property`` does the same, but on Python 3.11 its
    ``__get__`` takes a lock on every first read; nothing here is shared
    between threads while it is worked out, so no lock is taken.
    """

    def __init__(self, work: Callable[[Any], Any]) -> None:
        self.work = work
        self.name = work.__name__
        self.__doc__ = work.__doc__

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.work(obj)
        return value


class _Frozen:
    """Base of the value classes whose constructor checks or derives
    something: an attribute can be neither assigned nor deleted.

    Each subclass names ``_compared``, the fields that equality and the hash
    read; its other fields follow from them or are caches.  The repr shows
    ``_shown``, by default the compared fields.  Each constructor writes its
    instance ``__dict__`` directly, as ``_prechecked`` does, and so does
    ``_kept``.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if not cls._compared:
            raise TypeError(f"{cls.__name__} names no compared field")
        cls._shown = cls.__dict__.get("_shown", cls._compared)
        # C code, since hashing a graph is on the search-plan cache's path.
        cls._key_of = staticmethod(attrgetter(*cls._compared))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key_of(self) == self._key_of(other)

    def __hash__(self) -> int:
        return hash(self._key_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """Simple undirected graph; ``edges`` is the sorted tuple of pairs (u, v), u < v.

    Two graphs are equal when ``n`` and ``edges`` are; ``adj`` (one
    neighbour mask per vertex) and the facts kept on the graph follow from
    them.
    """

    _compared = ("n", "edges")
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        _check_count(n)
        masks = [0] * n
        prev: Optional[tuple[int, int]] = None
        for e in edges:
            u, v = e
            if not (0 <= u < v < n):
                raise ValueError(f"edge {e!r} is not a sorted in-range pair")
            if prev is not None and e <= prev:
                raise ValueError("edges must be strictly sorted (no duplicates)")
            prev = e
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.__dict__.update(n=n, edges=edges, adj=tuple(masks))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from any iterable of (u, v) pairs, in any order and
        either way round; a repeated pair is one edge.

        One pass over the pairs checks each one and sets its bits in both
        adjacency rows, and the sorted ``edges`` are read off the rows.
        ``ValueError`` when ``n`` is negative or a pair has an end that is
        not an ``int`` (a bool would pass as 0 or 1 and stay a bool in
        ``edges``), is a self-loop, or has an end outside 0..n-1.  ``n`` is
        checked first and then each pair in turn, so for an input with
        several faults the first fault in input order is the one reported.
        """
        _check_count(n)
        rows = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an end that is not an int")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge {(u, v)!r} is not a sorted in-range pair")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _graph_of_rows(n, rows)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @_kept
    def matrix(self) -> int:
        """The adjacency matrix as one int: bit u * n + v is set iff u and v
        are adjacent.  ``boards.walk_hosts`` fills it in from its board
        template; any other graph works it out on first use."""
        n = self.n
        return sum(a << (u * n) for u, a in enumerate(self.adj))

    @_kept
    def at_least(self) -> tuple[int, ...]:
        """``at_least[d]``: bit mask of the vertices of degree at least d, for d < n."""
        out = [0] * self.n
        for v, ring in enumerate(self.adj):
            out[ring.bit_count()] |= 1 << v
        for d in range(self.n - 2, -1, -1):
            out[d] |= out[d + 1]
        return tuple(out)

    @_kept
    def _odd_scan(self) -> _OddLinkScan:
        return _OddLinkScan(self.adj)

    def first_odd_link(self, v: int = 0) -> int:
        """The lowest vertex at or above v of the ``odd_links`` mask, or -1.

        Runs the parity tests only until it is found, so a caller that stops
        at the first vertex it needs leaves the higher ones untested.
        """
        return self._odd_scan.lowest_from(v)

    @property
    def odd_links(self) -> int:
        """Bit mask of the vertices of degree at least 5 whose open
        neighbourhood is not bipartite; reading it finishes the scan.

        An induced odd wheel W_m (odd m >= 5) can only have its hub on such a
        vertex, and so can a catalog pattern's hub, whose rim is at least that
        long; a vertex of degree below 5 is not tested.
        """
        scan = self._odd_scan
        scan.lowest_from(self.n)  # no vertex is >= n: tests every vertex left
        return scan.state[0]

    def relabel(self, perm: tuple[int, ...]) -> Graph:
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> Graph:
        """The graph of a ``to_json_obj`` object, built by ``from_edges``;
        ``ValueError`` when ``n`` is not an ``int`` (a bool is not) or when
        ``from_edges`` refuses the count or a pair."""
        n = obj["n"]
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is not an int")
        return cls.from_edges(n, obj["edges"])


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")


def _graph_of_rows(n: int, rows: list[int]) -> Graph:
    """The graph whose adjacency rows are ``rows``, which must be symmetric
    and loop-free, with its sorted ``edges`` read off the rows: row u's bits
    above u, in ascending order."""
    edges = []
    for u, row in enumerate(rows):
        m = row >> u >> 1  # bit i: vertex u + 1 + i
        while m:
            low = m & -m
            edges.append((u, u + low.bit_length()))
            m ^= low
    return _prechecked(Graph, n=n, edges=tuple(edges), adj=tuple(rows))


def _prechecked(cls: type[_T], **values: object) -> _T:
    """An instance of the frozen class ``cls`` holding ``values``, one per
    attribute (``Graph``'s ``adj`` included) and any kept fact already
    known (``Graph.matrix``), without running its checking ``__init__``.

    Only for values already checked, once for many instances or in the pass
    that built them: ``boards.walk_hosts`` checks a board's template once
    and builds every host's ``Graph`` and ``EmbeddedGraph`` through here,
    and ``Graph.from_edges`` checks each pair as it sets its row bits.
    ``Graph`` and ``EmbeddedGraph`` still check whatever they are given.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


class Colouring(NamedTuple):
    """A vertex colouring; colour values are 1-based."""

    colours: tuple[int, ...]

    def is_proper_for(self, g: Graph) -> bool:
        return len(self.colours) == g.n and all(
            self.colours[u] != self.colours[v] for u, v in g.edges
        )


def _narrow(adj: tuple[int, ...], domains: list[int], v: int, c: int) -> bool:
    """Colour v with c in ``domains``; False when some domain runs empty.

    Each domain is a bit mask of the colours still open to an uncoloured
    vertex (bit c for colour c).  Colour c leaves the domains of v's
    uncoloured neighbours, those above v; a neighbour left with one colour
    passes that colour on to its own uncoloured neighbours in turn, at once
    and to all of them.
    """
    above = -2 << v  # the vertices after v, all uncoloured
    stack = [(v, c)]
    while stack:
        u, c = stack.pop()
        bit = 1 << c
        m = adj[u] & above
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            d = domains[w]
            if d & bit:
                d ^= bit
                if not d:
                    return False
                domains[w] = d
                if not d & (d - 1):
                    stack.append((w, d.bit_length() - 1))
    return True


def is_k_colourable(g: Graph, k: int) -> Optional[Colouring]:
    """First proper k-colouring in lexicographic order, or None.

    Deterministic: vertices in index order, colours tried ascending, vertex 0
    pinned to colour 1.  Branches that would introduce colour c before all of
    1..c-1 appeared are skipped; this never changes the first witness.

    Every uncoloured vertex keeps a domain of open colours, narrowed by
    ``_narrow`` after each choice, and a branch fails as soon as a domain is
    empty.  A colour leaves a domain only when the colouring so far, or a
    neighbour's forced last colour, rules it out of every proper extension,
    so a pruned branch holds no witness and the first witness is the one the
    plain lexicographic backtracking finds.  ``_narrow`` passes a forced
    colour on to every later neighbour as soon as it is forced, so a vertex
    reached with one open colour takes it without copying or narrowing the
    domains again; with k = 1 the starting domains are single colours that
    nobody has passed on, so there every vertex narrows.  The depth-first
    search keeps each vertex's domains and untried colours in arrays and
    loops over the vertices instead of recursing through a closure, so a
    call leaves no reference cycle behind.
    """
    if k < 0:
        raise ValueError("negative colour count")
    if g.n == 0:
        return Colouring(())
    if k == 0:
        return None
    n, adj = g.n, g.adj
    assigned = [0] * n
    levels: list[list[int]] = [[]] * n  # levels[v]: the domains as v is reached
    untried = [0] * n  # untried[v]: the colours of v not tried yet
    used = [0] * n  # used[v]: the highest colour below v
    levels[0] = [(2 << k) - 2] * n
    untried[0] = 2  # vertex 0 takes colour 1
    v = 0
    while True:
        open_ = untried[v]
        if not open_:
            if not v:
                return None
            v -= 1
            continue
        low = open_ & -open_
        untried[v] = open_ ^ low
        c = low.bit_length() - 1
        narrowed = levels[v]
        if narrowed[v] != low or k == 1:  # else v's forced colour is passed on
            narrowed = narrowed.copy()
            if not _narrow(adj, narrowed, v, c):
                continue
        assigned[v] = c
        v += 1
        if v == n:
            return Colouring(tuple(assigned))
        top = used[v] = max(used[v - 1], c)
        levels[v] = narrowed
        untried[v] = narrowed[v] & ((2 << min(k, top + 1)) - 2)


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if is_k_colourable(g, k) is not None:
            return k
    raise AssertionError("unreachable: every graph is n-colourable")


def induced(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``, relabeled 0..|keep|-1 in ascending vertex order."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph.from_edges(len(kept), edges)


PlanStep = tuple[int, int, tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=64)
def _search_plan(pattern: Graph, first: Optional[int]) -> tuple[PlanStep, ...]:
    """The order in which ``_induced_search`` places the pattern's vertices.

    ``first`` (the anchored vertex), or else a highest-degree vertex of lowest
    index, goes first; each next vertex is the one with the most placed
    neighbours (ties to the higher degree, then the lower index).  Step i is
    ``(p, degree of p, the earlier steps p is adjacent to, the earlier steps
    it is not adjacent to)``.  The plan depends on the pattern alone, so a
    small cache keeps the catalog's anchored plans across hosts.
    """
    degree = [pattern.degree(p) for p in range(pattern.n)]
    order: list[int] = []
    placed = 0
    if first is not None:
        order.append(first)
        placed = 1 << first
    while len(order) < pattern.n:
        best = min(
            (p for p in range(pattern.n) if not placed >> p & 1),
            key=lambda p: (-(pattern.adj[p] & placed).bit_count(), -degree[p], p),
        )
        order.append(best)
        placed |= 1 << best
    steps = []
    for i, p in enumerate(order):
        adjacent: list[int] = []
        apart: list[int] = []
        for j in range(i):
            (adjacent if pattern.adj[p] >> order[j] & 1 else apart).append(j)
        steps.append((p, degree[p], tuple(adjacent), tuple(apart)))
    return tuple(steps)


def _induced_search(
    host: Graph, pattern: Graph, anchor: Optional[tuple[int, int]] = None
) -> Optional[tuple[int, ...]]:
    """First induced embedding of pattern into host, or None.

    Pattern vertex p may go to the host vertices of degree at least its own;
    an ``anchor`` ``(p, allowed)`` also keeps p to the bit mask ``allowed``
    and places it first.  The vertices are placed in the order of
    ``_search_plan``.  A vertex's candidates are the unused allowed host
    vertices in the host row of the image of every earlier step it is
    adjacent to and in no host row of the image of an earlier step it is not
    adjacent to, tried in ascending index, so the embedding found first is
    deterministic.  The depth-first search keeps each step's untried
    candidates in an array and loops over the steps instead of recursing
    through a closure, so a call leaves no reference cycle behind.
    """
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return ()
    at_least = host.at_least
    plan = _search_plan(pattern, None if anchor is None else anchor[0])
    allowed = [at_least[d] for _, d, _, _ in plan]
    if anchor is not None:
        allowed[0] &= anchor[1]
    if not all(allowed):
        return None

    k, adj = pattern.n, host.adj
    rows = [0] * k  # rows[i]: host row of the image of step i
    images = [0] * k  # images[i]: bit of the image of step i
    cands = [0] * k  # cands[i]: candidates of step i not tried yet
    mapping = [-1] * k
    cands[0] = allowed[0]
    used, i = 0, 0
    while True:
        cand = cands[i]
        if not cand:
            if not i:
                return None
            i -= 1
            used ^= images[i]
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        h = low.bit_length() - 1
        mapping[plan[i][0]] = h
        if i + 1 == k:
            return tuple(mapping)
        rows[i], images[i] = adj[h], low
        used |= low
        i += 1
        _, _, nbrs, non = plan[i]
        cand = allowed[i] & ~used
        for j in nbrs:
            cand &= rows[j]
        for j in non:
            cand &= ~rows[j]
        cands[i] = cand


def contains_induced(
    host: Graph, pattern: Graph, anchor: Optional[tuple[int, int]] = None
) -> Optional[tuple[int, ...]]:
    """Injective map m with pattern-edge(u,v) iff host-edge(m(u),m(v)), or None.

    ``anchor=(p, allowed)`` restricts pattern vertex p to the host vertices
    in the bit mask ``allowed``; the catalog anchors each pattern's odd-wheel
    hub on ``host.odd_links``.
    """
    if pattern.n > MAX_PATTERN_VERTICES:
        raise GraphSizeError(
            f"pattern has {pattern.n} > {MAX_PATTERN_VERTICES} vertices"
        )
    return _induced_search(host, pattern, anchor)


def _odd_link(adj: tuple[int, ...], ring: int) -> bool:
    """True when the vertex set ``ring`` does not induce a bipartite graph.

    A breadth-first search by layers inside ``ring``: an edge between two
    vertices of one layer closes an odd cycle, and without one the layer
    parity is a proper 2-colouring.
    """
    unseen = ring
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        while layer:
            reach = 0
            m = layer
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            if reach & layer:
                return True
            layer = reach & unseen
            unseen ^= layer
    return False


class _OddLinkScan:
    """The parity tests of one graph's neighbourhoods, run lazily in index order.

    ``state`` is (found, next): the odd-link vertices among the vertices
    below ``next``, which are all tested, and the first vertex not reached
    yet.  The scan reaches the vertices one at a time, testing the degree of
    each as it comes to it and the parity of each of degree at least 5, so
    each vertex is tested at most once and the odd-link vertices come out in
    index order, whichever caller asks first.  The pair is replaced as a
    whole, so a graph shared between threads never holds one half of a
    scan's progress without the other.
    """

    __slots__ = ("adj", "state")

    def __init__(self, adj: tuple[int, ...]) -> None:
        self.adj, self.state = adj, (0, 0)

    def lowest_from(self, v: int) -> int:
        """The lowest odd-link vertex at or above v, or -1."""
        above = -1 << v
        found, w = self.state
        hit = found & above
        if not hit:
            adj = self.adj
            while not hit and w < len(adj):
                ring = adj[w]
                if ring.bit_count() >= 5 and _odd_link(adj, ring):
                    found |= 1 << w
                    hit = found & above
                w += 1
            self.state = found, w
        return (hit & -hit).bit_length() - 1


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def wheel(m: int) -> Graph:
    """Cycle of length m plus an all-adjacent hub; the hub is vertex m."""
    if m < 3:
        raise ValueError("wheel needs a cycle of length at least 3")
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m) for i in range(m)]
    return Graph.from_edges(m + 1, edges)


def _close_odd_cycle(
    adj: tuple[int, ...], inner: int, close: int, path: list[int], blocked: int
) -> bool:
    """Extend the induced path ``path`` to an induced odd cycle of length >= 5.

    ``close`` holds the neighbours of path[0] that may end the cycle and
    ``inner`` the other vertices it may use; ``blocked`` holds the path and
    every neighbour of a path vertex before its end, except path[0].  The
    path closes at the lowest vertex of ``close`` next to its end when the
    cycle then has odd length at least 5; otherwise it extends through its
    end's neighbours in ``inner``, lower first.  True when ``path`` holds
    the cycle.
    """
    end = adj[path[-1]] & ~blocked
    shut = end & close
    if shut and len(path) >= 4 and not len(path) & 1:
        path.append((shut & -shut).bit_length() - 1)
        return True
    ext = end & inner
    blocked |= adj[path[-1]]
    while ext:
        low = ext & -ext
        ext ^= low
        path.append(low.bit_length() - 1)
        if _close_odd_cycle(adj, inner, close, path, blocked | low):
            return True
        path.pop()
    return False


def find_odd_wheel(g: Graph) -> Optional[tuple[int, tuple[int, ...]]]:
    """(hub, rim) of an induced odd wheel W_m (odd m >= 5), or None.

    Hubs are the vertices of ``g.odd_links`` in index order, taken one at a
    time from the graph's resumable odd-link scan, so the finder stops at its
    first wheel hub and leaves the vertices above it untested.  Inside the
    neighbourhood of each hub, every neighbour s is tried in ascending order
    as the rim's lowest vertex: a depth-first search over the induced paths
    from s through the vertices above s, stepping first to s's lower
    neighbours, returns the first induced odd cycle of length at least 5.  The rim lists that cycle in cyclic order, from s to
    its lower rim neighbour: a cycle through a higher first step b and back
    through a lower a closes, reversed, in the earlier branch through a, so
    the branch through b lets only neighbours of s above b close.  Where a
    neighbourhood is a chordless cycle or a path, as on a triangulation host,
    the rim is that whole cycle.
    """
    adj, scan = g.adj, g._odd_scan
    hub = scan.lowest_from(0)
    while hub >= 0:
        ring = adj[hub]
        while ring.bit_count() >= 5:
            first = ring & -ring
            s = first.bit_length() - 1
            ring ^= first  # the neighbours above s
            close = adj[s] & ring
            inner = ring & ~close
            while close:
                low = close & -close
                close ^= low
                path = [s, low.bit_length() - 1]
                if _close_odd_cycle(adj, inner, close, path, first | low):
                    return hub, tuple(path)
        hub = scan.lowest_from(hub + 1)
    return None


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _refine_colours(g: Graph, rounds: int = 4) -> tuple[int, ...]:
    """Iterated neighbourhood-signature refinement (Weisfeiler-Lehman style)."""
    colours = [g.degree(v) for v in range(g.n)]
    for _ in range(rounds):
        sigs = [
            (colours[v], tuple(sorted(colours[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colours:
            break
        colours = new
    return tuple(colours)


def refinement_hash(g: Graph) -> tuple:
    """Isomorphism-invariant key; collisions resolved by are_isomorphic."""
    return (g.n, g.edge_count, tuple(sorted(_refine_colours(g))))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test: an induced embedding of equal order and size."""
    return (
        a.n == b.n
        and a.edge_count == b.edge_count
        and _induced_search(b, a) is not None
    )


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism (n <= 6), in a fixed order."""
    if n > 6:
        raise GraphSizeError("exhaustive enumeration capped at 6 vertices")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    reps: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    for mask in range(1 << len(pairs)):
        g = Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
        key = refinement_hash(g)
        bucket = buckets.setdefault(key, [])
        if not any(are_isomorphic(g, r) for r in bucket):
            bucket.append(g)
            reps.append(g)
    return tuple(reps)
