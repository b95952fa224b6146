"""Reference computations shared by the test modules, written from the
definitions rather than from the library's optimised code."""

from __future__ import annotations

from wordrep.boards import Diag, EmbeddedGraph
from wordrep.graphs import Graph, bits


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
