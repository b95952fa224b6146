"""Rectangular cell boards with domino tiles, their triangulations, and grid symmetries.

Vertex coordinates are (row, col) with row 0 at the top; vertices are numbered
row-major.  A horizontal domino at cell (r, c) covers cells (r, c) and
(r, c+1); a vertical one covers (r, c) and (r+1, c).  The edge shared by a
domino's two cells is absent from the vertex graph, so each domino bounds a
chordless hexagon.

Each unit cell is triangulated by one of its two diagonals; each domino
hexagon by one of two three-chord patterns.  For a horizontal domino with top
corners TL, TM, TR and bottom corners BL, BM, BR:

    FALL: TL-BM, TL-BR, TM-BR      RISE: BL-TM, BL-TR, BM-TR

Vertical dominoes use the quarter-turn images of the same two patterns.
"""

from __future__ import annotations

import re
from bisect import insort
from enum import Enum
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .errors import BudgetExceededError
from .graphs import Graph, _Frozen, _prechecked

Coord = tuple[int, int]
Edge = tuple[int, int]  # vertex ids u < v


class Axis(str, Enum):
    H = "H"
    V = "V"


class Diag(str, Enum):
    SLASH = "/"
    BACKSLASH = "\\"


class DominoPattern(str, Enum):
    FALL = "F"
    RISE = "R"


class Symmetry(str, Enum):
    """The eight symmetries of the square grid."""

    IDENTITY = "identity"
    ROT90 = "rot90"
    ROT180 = "rot180"
    ROT270 = "rot270"
    FLIP_H = "flip_h"  # mirror across a horizontal line (rows reversed)
    FLIP_V = "flip_v"  # mirror across a vertical line (columns reversed)
    FLIP_MAIN = "flip_main"  # transpose
    FLIP_ANTI = "flip_anti"


def _apply_symmetry(s: Symmetry, rc: Coord, max_row: int, max_col: int) -> Coord:
    r, c = rc
    if s is Symmetry.IDENTITY:
        return (r, c)
    if s is Symmetry.ROT90:  # clockwise
        return (c, max_row - r)
    if s is Symmetry.ROT180:
        return (max_row - r, max_col - c)
    if s is Symmetry.ROT270:
        return (max_col - c, r)
    if s is Symmetry.FLIP_H:
        return (max_row - r, c)
    if s is Symmetry.FLIP_V:
        return (r, max_col - c)
    if s is Symmetry.FLIP_MAIN:
        return (c, r)
    if s is Symmetry.FLIP_ANTI:
        return (max_col - c, max_row - r)
    raise ValueError(s)


class Domino(NamedTuple):
    row: int
    col: int
    axis: Axis

    def cells(self) -> tuple[Coord, Coord]:
        if self.axis is Axis.H:
            return ((self.row, self.col), (self.row, self.col + 1))
        return ((self.row, self.col), (self.row + 1, self.col))

    def interior_edge(self) -> tuple[Coord, Coord]:
        """The grid edge shared by the two covered cells (absent from the graph)."""
        if self.axis is Axis.H:
            return ((self.row, self.col + 1), (self.row + 1, self.col + 1))
        return ((self.row + 1, self.col), (self.row + 1, self.col + 1))

    def corners(self) -> tuple[Coord, ...]:
        """The six hexagon corners: top row then bottom row for H, left then right for V."""
        r, c = self.row, self.col
        if self.axis is Axis.H:
            return ((r, c), (r, c + 1), (r, c + 2), (r + 1, c), (r + 1, c + 1), (r + 1, c + 2))
        return ((r, c), (r + 1, c), (r + 2, c), (r, c + 1), (r + 1, c + 1), (r + 2, c + 1))

    def chords(self, pattern: DominoPattern) -> tuple[tuple[Coord, Coord], ...]:
        r, c = self.row, self.col
        if self.axis is Axis.H:
            tl, tm, tr = (r, c), (r, c + 1), (r, c + 2)
            bl, bm, br = (r + 1, c), (r + 1, c + 1), (r + 1, c + 2)
            if pattern is DominoPattern.FALL:
                return ((tl, bm), (tl, br), (tm, br))
            return ((bl, tm), (bl, tr), (bm, tr))
        tl, tr = (r, c), (r, c + 1)
        ml, mr = (r + 1, c), (r + 1, c + 1)
        bl, br = (r + 2, c), (r + 2, c + 1)
        if pattern is DominoPattern.FALL:
            return ((tr, ml), (tr, bl), (mr, bl))
        return ((tl, mr), (tl, br), (ml, br))


class Board(_Frozen):
    """A cell_rows x cell_cols rectangle of unit cells with disjoint domino tiles.

    At most one domino is accepted unless ``exploratory`` is set; the
    single-domino restriction is the scope of the theorem checks, while
    multi-domino boards exist only for exploration.
    """

    _compared = ("cell_rows", "cell_cols", "dominoes", "exploratory")
    cell_rows: int
    cell_cols: int
    dominoes: tuple[Domino, ...]
    exploratory: bool

    def __init__(
        self,
        cell_rows: int,
        cell_cols: int,
        dominoes: tuple[Domino, ...] = (),
        exploratory: bool = False,
    ) -> None:
        if cell_rows < 1 or cell_cols < 1:
            raise ValueError("board needs at least one cell in each dimension")
        covered: set[Coord] = set()
        for d in dominoes:
            for cell in d.cells():
                r, c = cell
                if not (0 <= r < cell_rows and 0 <= c < cell_cols):
                    raise ValueError(f"domino {d} leaves the board")
                if cell in covered:
                    raise ValueError(f"domino {d} overlaps another domino")
                covered.add(cell)
        if len(dominoes) > 1 and not exploratory:
            raise ValueError(
                "more than one domino requires exploratory=True; "
                "theorem checks only cover single-domino boards"
            )
        # The unit cells are worked out once per board: parsing a literal and
        # laying the board out both need them.
        unit_cells = tuple(
            (r, c) for r in range(cell_rows) for c in range(cell_cols) if (r, c) not in covered
        )
        self.__dict__.update(
            cell_rows=cell_rows, cell_cols=cell_cols, dominoes=dominoes, exploratory=exploratory,
            _unit_cells=unit_cells,
        )

    @property
    def vertex_rows(self) -> int:
        return self.cell_rows + 1

    @property
    def vertex_cols(self) -> int:
        return self.cell_cols + 1

    @property
    def vertex_count(self) -> int:
        return self.vertex_rows * self.vertex_cols

    def vertex_id(self, rc: Coord) -> int:
        r, c = rc
        return r * self.vertex_cols + c

    def unit_cells(self) -> tuple[Coord, ...]:
        """Cells not covered by any domino, in row-major order."""
        return self._unit_cells

    def spec_string(self) -> str:
        parts = [f"cells {self.cell_rows}x{self.cell_cols}"]
        parts += [f"domino {d.axis.value} {d.row} {d.col}" for d in self.dominoes]
        return "; ".join(parts)


_SPEC_CELLS = re.compile(r"^cells\s+(\d+)x(\d+)$")
_SPEC_DOMINO = re.compile(r"^domino\s+([HV])\s+(\d+)\s+(\d+)$")


def parse_board(spec: str, exploratory: bool = False) -> Board:
    """Parse the board mini-language, e.g. ``cells 2x2; domino H 0 0``."""
    parts = [p.strip() for p in spec.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty board spec")
    m = _SPEC_CELLS.match(parts[0])
    if not m:
        raise ValueError(f"board spec must start with 'cells RxC': {spec!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    dominoes = []
    for part in parts[1:]:
        dm = _SPEC_DOMINO.match(part)
        if not dm:
            raise ValueError(f"bad domino clause {part!r}")
        dominoes.append(Domino(int(dm.group(2)), int(dm.group(3)), Axis(dm.group(1))))
    return Board(rows, cols, tuple(dominoes), exploratory=exploratory)


class Triangulation(NamedTuple):
    """One diagonal per unit cell (board order) and one pattern per domino."""

    cell_diag: tuple[Diag, ...]
    domino_pattern: tuple[DominoPattern, ...]

    def literal(self) -> str:
        return "".join(self.cell_diag) + "".join(self.domino_pattern)


_DIAG_OF = {m.value: m for m in Diag}
_PATTERN_OF = {m.value: m for m in DominoPattern}


def parse_triangulation(board: Board, literal: str) -> Triangulation:
    cells = len(board.unit_cells())
    expected = cells + len(board.dominoes)
    if len(literal) != expected:
        raise ValueError(
            f"triangulation literal needs {cells} diagonal chars plus "
            f"{len(board.dominoes)} pattern chars, got {literal!r}"
        )
    diags, patterns = literal[:cells], literal[cells:]
    try:
        return Triangulation(tuple(map(_DIAG_OF.__getitem__, diags)),
                             tuple(map(_PATTERN_OF.__getitem__, patterns)))
    except KeyError:
        pass  # a character that names no member: the enum raises its own error
    return Triangulation(tuple(map(Diag, diags)), tuple(map(DominoPattern, patterns)))


def flip_domino_pattern(t: Triangulation, which: int) -> Triangulation:
    """Swap FALL/RISE at one domino, leaving everything else unchanged."""
    if not 0 <= which < len(t.domino_pattern):
        raise IndexError(f"no domino at index {which}")
    flipped = (
        DominoPattern.RISE
        if t.domino_pattern[which] is DominoPattern.FALL
        else DominoPattern.FALL
    )
    patterns = t.domino_pattern[:which] + (flipped,) + t.domino_pattern[which + 1:]
    return Triangulation(t.cell_diag, patterns)


class EmbeddedGraph(_Frozen):
    """A graph together with distinct integer grid coordinates per vertex."""

    _compared = ("graph", "coords")
    graph: Graph
    coords: tuple[Coord, ...]

    def __init__(self, graph: Graph, coords: tuple[Coord, ...]) -> None:
        if len(coords) != graph.n:
            raise ValueError("one coordinate per vertex required")
        if len(set(coords)) != len(coords):
            raise ValueError("coordinates must be distinct")
        self.__dict__.update(graph=graph, coords=coords)

    def coord_index(self) -> dict[Coord, int]:
        return {rc: v for v, rc in enumerate(self.coords)}


def _layout(board: Board) -> tuple[
    tuple[Coord, ...],
    list[Edge],
    list[tuple[Edge, Edge]],
    list[tuple[tuple[Edge, ...], tuple[Edge, ...]]],
]:
    """Everything a host takes from its board alone, as sorted vertex-id pairs.

    The coordinates (row-major), the sorted base edges (every unit grid edge
    except each domino's interior edge), each unit cell's (slash, backslash)
    diagonal and each domino's (FALL, RISE) chord triple.  This is the one
    place where cells, diagonals and chords become edges.
    """
    w, n = board.vertex_cols, board.vertex_count

    def pair(a: Coord, b: Coord) -> Edge:
        u, v = a[0] * w + a[1], b[0] * w + b[1]
        return (u, v) if u < v else (v, u)

    coords = tuple((r, c) for r in range(board.vertex_rows) for c in range(w))
    skipped = {pair(*d.interior_edge()) for d in board.dominoes}
    base = []  # (u, u + 1) before (u, u + w), u ascending: already sorted
    for u in range(n):
        if (u + 1) % w:
            base.append((u, u + 1))
        if u + w < n:
            base.append((u, u + w))
    if skipped:
        base = [e for e in base if e not in skipped]
    # A cell with top-left corner a: its slash joins a + 1 and a + w, its
    # backslash a and a + w + 1.
    tops = [r * w + c for r, c in board.unit_cells()]
    cells = [((a + 1, a + w), (a, a + w + 1)) for a in tops]
    chords = [
        (
            tuple(pair(a, b) for a, b in d.chords(DominoPattern.FALL)),
            tuple(pair(a, b) for a, b in d.chords(DominoPattern.RISE)),
        )
        for d in board.dominoes
    ]
    return coords, base, cells, chords


def base_graph(board: Board) -> EmbeddedGraph:
    """The untriangulated vertex graph: all unit grid edges except domino interiors."""
    coords, base, _, _ = _layout(board)
    return EmbeddedGraph(Graph(board.vertex_count, tuple(base)), coords)


# The literal characters of slash, backslash, FALL and RISE, read off the
# members once: each template and one-off host needs them, and a member's
# ``value`` is a descriptor lookup.
_CHARS = tuple(m.value for m in (*Diag, *DominoPattern))

# One pair of a host's choices: (pair u v, u, bit v, v, bit u, both of the
# pair's bits in the adjacency matrix).
PairRecord = tuple[Edge, int, int, int, int, int]
# One choice of a slot: its literal character and the records of its pairs
# (a diagonal or a domino's chord triple).
Option = tuple[str, tuple[PairRecord, ...]]


class _Template(NamedTuple):
    """A board's hosts, laid out and checked once: everything but the choices.

    ``slots`` holds one (first option, second option) pair per unit cell
    (slash, backslash) and then per domino (FALL, RISE), in choice-vector
    order.
    """

    n: int
    coords: tuple[Coord, ...]
    base: list[Edge]
    rows: tuple[int, ...]
    matrix: int
    slots: list[tuple[Option, Option]]


def _template(board: Board) -> _Template:
    """Lay the board out and check its template once.

    The base edges, both diagonals of every unit cell and both chord triples
    of every domino must be distinct in-range pairs u < v, the base edges
    sorted and the coordinates distinct.  No choice of diagonals and chords
    can then give a host that ``Graph`` or ``EmbeddedGraph`` would refuse.
    """
    coords, base, cells, chords = _layout(board)
    g = EmbeddedGraph(Graph(board.vertex_count, tuple(base)), coords).graph
    n = g.n
    choices = [e for both in cells for e in both]
    choices += [e for fall, rise in chords for e in (*fall, *rise)]
    pairs = base + choices
    if len(set(pairs)) != len(pairs):
        raise ValueError("board template holds a repeated pair")

    def record(e: Edge) -> PairRecord:
        u, v = e
        if not 0 <= u < v < n:
            raise ValueError(f"board template holds an out-of-range pair {e}")
        return e, u, 1 << v, v, 1 << u, 1 << (u * n + v) | 1 << (v * n + u)

    slash, backslash, fall, rise = _CHARS
    slots = [((slash, (record(a),)), (backslash, (record(b),))) for a, b in cells]
    slots += [
        ((fall, tuple(map(record, a))), (rise, tuple(map(record, b)))) for a, b in chords
    ]
    return _Template(n, coords, base, g.adj, g.matrix, slots)


def triangulate(board: Board, t: Triangulation) -> EmbeddedGraph:
    """The host of triangulation t: the board's base edges plus the chosen
    diagonal of each unit cell and chord triple of each domino, sorted.

    A one-off host is built straight from ``_layout`` through the public
    constructors, which check it; its ``Graph.matrix`` is packed on first
    use.  ``walk_hosts`` builds a range of a board's hosts from its checked
    template instead.
    """
    coords, edges, cells, chords = _layout(board)
    if len(t.cell_diag) != len(cells) or len(t.domino_pattern) != len(chords):
        raise ValueError("triangulation shape does not match the board")
    slash, _, fall, _ = _CHARS
    edges += [slash_e if d == slash else backslash_e
              for (slash_e, backslash_e), d in zip(cells, t.cell_diag)]
    for (fall_es, rise_es), p in zip(chords, t.domino_pattern):
        edges += fall_es if p == fall else rise_es
    edges.sort()
    return EmbeddedGraph(Graph(board.vertex_count, tuple(edges)), coords)


def triangulation_count(board: Board) -> int:
    """2^(unit cells + dominoes); raises ``BudgetExceededError`` when that
    exponent exceeds the enumeration budget of 20 binary choices."""
    m = len(board.unit_cells()) + len(board.dominoes)
    if m > 20:
        raise BudgetExceededError(f"{m} binary choices exceed the enumeration budget")
    return 1 << m


def enumerate_triangulations(board: Board) -> Iterator[Triangulation]:
    """All 2^(unit cells + dominoes) triangulations, in choice-vector order.

    The last choice varies fastest, and the dominoes' patterns are the last
    choices, FALL before RISE: on a one-domino board, triangulations 2i and
    2i+1 differ only in the domino's pattern.
    """
    triangulation_count(board)
    cells = board.unit_cells()
    slots = [(Diag.SLASH, Diag.BACKSLASH)] * len(cells)
    slots += [(DominoPattern.FALL, DominoPattern.RISE)] * len(board.dominoes)
    split = len(cells)
    for combo in product(*slots):
        yield Triangulation(combo[:split], combo[split:])


HostVisitor = Callable[[str, EmbeddedGraph], object]


def walk_hosts(board: Board, start: int, stop: int, visit: HostVisitor) -> None:
    """Call ``visit(literal, host)`` for hosts start..stop-1 of the board, in
    ``enumerate_triangulations`` order; a stop past the last host stops there.

    The budget is checked first, as ``enumerate_triangulations`` does, and
    the board is laid out once by ``_template``.  A depth-first walk over
    the choice vector then builds each prefix's adjacency rows, matrix,
    sorted edge list and literal once, shared by every host under it, and
    skips every subtree outside the range.  Each leaf's ``Graph`` and
    ``EmbeddedGraph`` are assembled through ``graphs._prechecked``, with
    the matrix filled in, and not checked again: the template was.  The
    walk is a module-level function, not a nested closure, so it leaves no
    reference cycle behind.
    """
    count = triangulation_count(board)
    stop = min(stop, count)
    if start >= stop:
        return
    template = _template(board)
    _walk(template, visit, 0, 0, count, start, stop,
          template.rows, template.matrix, template.base, "")


def _walk(
    template: _Template,
    visit: HostVisitor,
    depth: int,
    lo: int,
    size: int,
    start: int,
    stop: int,
    adj: tuple[int, ...],
    matrix: int,
    edges: list[Edge],
    literal: str,
) -> None:
    """The hosts under prefix ``literal`` of ``depth`` choices, which are
    hosts lo..lo+size-1, clipped to start..stop-1."""
    half = size >> 1
    last = depth + 1 == len(template.slots)
    for char, records in template.slots[depth]:
        if lo < stop and start < lo + half:
            grown, merged, grown_matrix = list(adj), edges.copy(), matrix
            for e, u, bit_v, v, bit_u, bits_uv in records:
                grown[u] |= bit_v
                grown[v] |= bit_u
                grown_matrix |= bits_uv
                insort(merged, e)
            if last:
                g = _prechecked(Graph, n=template.n, edges=tuple(merged), adj=tuple(grown),
                                matrix=grown_matrix)
                visit(literal + char, _prechecked(EmbeddedGraph, graph=g, coords=template.coords))
            else:
                _walk(template, visit, depth + 1, lo, half, start, stop, tuple(grown),
                      grown_matrix, merged, literal + char)
        lo += half


def domino_placements(cell_rows: int, cell_cols: int, axis: Axis) -> list[Domino]:
    if cell_rows < 1 or cell_cols < 1:
        raise ValueError("dimensions must be at least 1")
    if axis is Axis.H:
        return [
            Domino(r, c, Axis.H)
            for r in range(cell_rows)
            for c in range(cell_cols - 1)
        ]
    return [
        Domino(r, c, Axis.V) for r in range(cell_rows - 1) for c in range(cell_cols)
    ]


def _normalise(coords: list[Coord]) -> list[Coord]:
    min_r = min(r for r, _ in coords)
    min_c = min(c for _, c in coords)
    return [(r - min_r, c - min_c) for r, c in coords]


def transform(e: EmbeddedGraph, s: Symmetry) -> EmbeddedGraph:
    """Apply a grid symmetry, renumbering vertices row-major over the new layout."""
    max_r = max((r for r, _ in e.coords), default=0)
    max_c = max((c for _, c in e.coords), default=0)
    moved = _normalise([_apply_symmetry(s, rc, max_r, max_c) for rc in e.coords])
    order = sorted(range(len(moved)), key=lambda v: moved[v])
    perm = [0] * len(moved)
    for new, old in enumerate(order):
        perm[old] = new
    g = Graph.from_edges(e.graph.n, [(perm[u], perm[v]) for u, v in e.graph.edges])
    return EmbeddedGraph(g, tuple(moved[v] for v in order))


def transform_board(board: Board, s: Symmetry) -> Board:
    """The board occupying the transformed cell layout."""
    max_r, max_c = board.cell_rows - 1, board.cell_cols - 1
    swap = s in (Symmetry.ROT90, Symmetry.ROT270, Symmetry.FLIP_MAIN, Symmetry.FLIP_ANTI)
    dominoes = []
    for d in board.dominoes:
        cells = [_apply_symmetry(s, cell, max_r, max_c) for cell in d.cells()]
        first = min(cells)
        axis = Axis.H if cells[0][0] == cells[1][0] else Axis.V
        dominoes.append(Domino(first[0], first[1], axis))
    rows, cols = (board.cell_cols, board.cell_rows) if swap else (board.cell_rows, board.cell_cols)
    return Board(rows, cols, tuple(sorted(dominoes, key=lambda d: (d.row, d.col, d.axis.value))),
                 exploratory=board.exploratory)


def transform_triangulation(
    board: Board, t: Triangulation, s: Symmetry
) -> tuple[Board, Triangulation]:
    """Carry a triangulation along a board symmetry.

    The image is read off the moved graph: each cell of the moved board takes
    the diagonal whose endpoints are adjacent there, each domino the pattern
    whose three chords are edges, so no per-symmetry case table is needed.
    """
    e = transform(triangulate(board, t), s)
    new_board = transform_board(board, s)
    _, _, cells, chords = _layout(new_board)
    new_t = Triangulation(
        tuple(
            Diag.SLASH if e.graph.has_edge(*slash) else Diag.BACKSLASH
            for slash, _ in cells
        ),
        tuple(
            DominoPattern.FALL
            if all(e.graph.has_edge(*p) for p in fall)
            else DominoPattern.RISE
            for fall, _ in chords
        ),
    )
    if triangulate(new_board, new_t) != e:
        raise AssertionError("transported triangulation does not rebuild the moved graph")
    return new_board, new_t
