"""Reference computations shared by the test modules, written from the
definitions rather than from the library's optimised code."""

from __future__ import annotations

from wordrep.boards import Diag, EmbeddedGraph
from wordrep.graphs import Graph, bits
from wordrep.orientations import cycle_is_comparability


def reference_colouring(g, k):
    """The plain lexicographic backtracker: vertices in index order, colours
    ascending up to one more than the largest used, no look-ahead."""
    if g.n == 0:
        return ()
    if k == 0:
        return None
    assigned = [0] * g.n

    def extend(v, used):
        if v == g.n:
            return True
        taken = 0
        for u in bits(g.adj[v]):
            taken |= 1 << assigned[u]
        for c in range(1, min(k, used + 1) + 1):
            if not taken >> c & 1:
                assigned[v] = c
                if extend(v + 1, max(used, c)):
                    return True
        assigned[v] = 0
        return False

    return tuple(assigned) if extend(0, 0) else None


def _reference_grid_edges(board):
    skipped = {frozenset(d.interior_edge()) for d in board.dominoes}
    edges = []
    for r in range(board.vertex_rows):
        for c in range(board.vertex_cols):
            if c + 1 < board.vertex_cols:
                e = ((r, c), (r, c + 1))
                if frozenset(e) not in skipped:
                    edges.append(e)
            if r + 1 < board.vertex_rows:
                e = ((r, c), (r + 1, c))
                if frozenset(e) not in skipped:
                    edges.append(e)
    return edges


def _reference_embed(board, coord_edges):
    coords = tuple(
        (r, c) for r in range(board.vertex_rows) for c in range(board.vertex_cols)
    )
    g = Graph.from_edges(
        board.vertex_count,
        [(board.vertex_id(a), board.vertex_id(b)) for a, b in coord_edges],
    )
    return EmbeddedGraph(g, coords)


def reference_base_graph(board):
    """All unit grid edges except domino interiors, built edge by edge in
    coordinates and normalised by ``Graph.from_edges``."""
    return _reference_embed(board, _reference_grid_edges(board))


def reference_triangulate(board, t):
    """The host of one triangulation, built per host from coordinates: the
    grid edges, one diagonal per unit cell and the chords of each domino."""
    cells = board.unit_cells()
    if len(t.cell_diag) != len(cells) or len(t.domino_pattern) != len(board.dominoes):
        raise ValueError("triangulation shape does not match the board")
    edges = _reference_grid_edges(board)
    for (r, c), diag in zip(cells, t.cell_diag):
        if diag is Diag.SLASH:
            edges.append(((r + 1, c), (r, c + 1)))
        else:
            edges.append(((r, c), (r + 1, c + 1)))
    for domino, pattern in zip(board.dominoes, t.domino_pattern):
        edges.extend(domino.chords(pattern))
    return _reference_embed(board, edges)


def reference_induced_search(host, pattern, anchor=None):
    """The induced-embedding search with its vertex order recomputed per call:
    degree-dominating candidates, the anchor (or a highest-degree vertex)
    first, then the vertex with the most placed neighbours, and each
    candidate checked against every placed vertex in turn, ascending."""
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return ()
    at_least = [0] * host.n
    for h in range(host.n):
        at_least[host.degree(h)] |= 1 << h
    for d in range(host.n - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    degree = [pattern.degree(p) for p in range(pattern.n)]
    allowed = [at_least[d] for d in degree]
    order = []
    placed = 0
    if anchor is not None:
        first, mask = anchor
        allowed[first] &= mask
        order.append(first)
        placed = 1 << first
    if not all(allowed):
        return None
    while len(order) < pattern.n:
        best = min(
            (p for p in range(pattern.n) if not placed >> p & 1),
            key=lambda p: (-(pattern.adj[p] & placed).bit_count(), -degree[p], p),
        )
        order.append(best)
        placed |= 1 << best

    mapping = [-1] * pattern.n

    def place(i, used):
        if i == pattern.n:
            return True
        p = order[i]
        cand = allowed[p] & ~used
        for q in order[:i]:
            image = host.adj[mapping[q]]
            cand &= image if pattern.adj[p] >> q & 1 else ~image
        while cand:
            low = cand & -cand
            mapping[p] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
            cand ^= low
        return False

    return tuple(mapping) if place(0, 0) else None


def reference_check_odd_wheel(g, hub, rim):
    """The odd-wheel certificate check with the wheel tested pair by pair:
    every rim vertex adjacent to the hub, and two rim vertices adjacent iff
    they are consecutive in the cyclic order given."""
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


def reference_descendants(out):
    """Descendant masks of the digraph with out-neighbour masks ``out``, or
    None when it has a directed cycle: every vertex's reach grows by the
    reach of each vertex in it until no reach changes."""
    desc = list(out)
    grown = True
    while grown:
        grown = False
        for u, reach in enumerate(desc):
            wider = reach
            for v in bits(reach):
                wider |= desc[v]
            if wider != reach:
                desc[u], grown = wider, True
    if any(reach >> u & 1 for u, reach in enumerate(desc)):
        return None
    return desc


def reference_has_shortcut(adj, out, desc):
    """Whether some arc u -> v has two non-adjacent vertices x and y, x
    before y on a directed path from u to v: arc by arc, pair by pair, with
    ``desc`` the descendant masks of the acyclic orientation ``out``."""

    def reaches(a, b):
        return a == b or bool(desc[a] >> b & 1)

    for u, heads in enumerate(out):
        for v in bits(heads):
            on_path = [w for w in range(len(out)) if reaches(u, w) and reaches(w, v)]
            for x in on_path:
                for y in on_path:
                    if x != y and reaches(x, y) and not adj[x] >> y & 1:
                        return True
    return False
