"""The catalog of minimal non-3-colourable, non-word-representable triangulation graphs.

Twelve patterns: T1 and T2 (triangulations of the 3x3 vertex grid), A1-A8
(single-horizontal-domino triangulations on an 11-vertex corner-truncated
grid) and B1, B2 (single-domino triangulations of the 3x3 vertex grid).
Every non-3-colourable triangulation of a rectangular board with at most one
horizontal domino contains one of them as an induced subgraph; the forbidden
set is their closure under the grid symmetries that keep a horizontal domino
horizontal (plus all quarter turns for the domino-free T patterns).

A cut corner is free.  Each A pattern is drawn on a 3x4 vertex patch with one
bounding-box corner cut off, and the cell at that corner keeps no diagonal in
the pattern.  In a rectangular board the corner vertex is always there, and
the corner cell's diagonal either runs through it (the induced subgraph on
the pattern's vertices is the pattern itself) or joins the corner's two
neighbours (the induced subgraph is the *corner-closed form*: the pattern
plus that one edge).  An A pattern is present when either form is induced.
Each pattern is drawn in ``DRAWINGS`` and built with ``boards.triangulate``;
a corner-closed form is the other diagonal of the cut corner's cell.  Only
those of A1, A3 and A8 contain no base pattern, so only they add obstructions.
"""

from __future__ import annotations

import json
import zlib
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

from .boards import (
    Axis,
    Board,
    Coord,
    Diag,
    Domino,
    DominoPattern,
    EmbeddedGraph,
    Symmetry,
    Triangulation,
    transform,
    triangulate,
)
from .graphs import _Frozen, contains_induced, find_odd_wheel, induced, is_k_colourable

S, B = Diag.SLASH, Diag.BACKSLASH
F, R = DominoPattern.FALL, DominoPattern.RISE


class Drawing(NamedTuple):
    """A catalog pattern as drawn on a patch of cells."""

    cell_rows: int
    cell_cols: int
    domino: Optional[tuple[Domino, DominoPattern]]
    diagonals: dict[Coord, Diag]
    cut_corner: Optional[Coord]  # a bounding-box vertex left out of the pattern


DRAWINGS: dict[str, Drawing] = {
    "T1": Drawing(2, 2, None, {(0, 0): S, (0, 1): B, (1, 0): S, (1, 1): S}, None),
    "T2": Drawing(2, 2, None, {(0, 0): B, (0, 1): S, (1, 0): B, (1, 1): B}, None),
    "A1": Drawing(2, 3, (Domino(1, 0, Axis.H), R), {(0, 1): B, (0, 2): S, (1, 2): B}, (0, 0)),
    "A2": Drawing(2, 3, (Domino(1, 0, Axis.H), R), {(0, 1): S, (0, 2): B, (1, 2): B}, (0, 0)),
    "A3": Drawing(2, 3, (Domino(1, 0, Axis.H), F), {(0, 1): B, (0, 2): S, (1, 2): B}, (0, 0)),
    "A4": Drawing(2, 3, (Domino(1, 0, Axis.H), F), {(0, 1): S, (0, 2): B, (1, 2): B}, (0, 0)),
    "A5": Drawing(2, 3, (Domino(0, 0, Axis.H), R), {(0, 2): B, (1, 1): B, (1, 2): B}, (2, 0)),
    "A6": Drawing(2, 3, (Domino(0, 0, Axis.H), F), {(0, 2): B, (1, 1): B, (1, 2): B}, (2, 0)),
    "A7": Drawing(2, 3, (Domino(0, 1, Axis.H), R), {(0, 0): S, (1, 0): B, (1, 1): B}, (2, 3)),
    "A8": Drawing(2, 3, (Domino(0, 1, Axis.H), F), {(0, 0): S, (1, 0): B, (1, 1): B}, (2, 3)),
    "B1": Drawing(2, 2, (Domino(1, 0, Axis.H), F), {(0, 0): S, (0, 1): S}, None),
    "B2": Drawing(2, 2, (Domino(1, 0, Axis.H), F), {(0, 0): B, (0, 1): B}, None),
}


def readings(d: Drawing) -> tuple[EmbeddedGraph, ...]:
    """The pattern a drawing shows, then (if a corner is cut) its corner-closed form.

    The drawing must name exactly the cells that need a diagonal: every cell
    outside the domino except the cut corner's.  A cut patch is triangulated
    in full with each diagonal in the corner's cell and the corner deleted;
    the reading with fewer edges (the diagonal ran through the corner) is the
    pattern.
    """
    board = Board(d.cell_rows, d.cell_cols, (d.domino[0],) if d.domino else ())
    patterns = (d.domino[1],) if d.domino else ()
    need = set(board.unit_cells())
    if d.cut_corner is not None:
        r, c = d.cut_corner
        corner_cell = (min(r, d.cell_rows - 1), min(c, d.cell_cols - 1))
        need.discard(corner_cell)
    if set(d.diagonals) != need:
        raise ValueError(f"cells needing a diagonal: {sorted(need)}, got {sorted(d.diagonals)}")

    def build(diagonals: dict[Coord, Diag]) -> EmbeddedGraph:
        cells = tuple(diagonals[cell] for cell in board.unit_cells())
        return triangulate(board, Triangulation(cells, patterns))

    if d.cut_corner is None:
        return (build(d.diagonals),)
    forms = []
    for diag in (S, B):
        full = build({**d.diagonals, corner_cell: diag})
        keep = [v for v, rc in enumerate(full.coords) if rc != d.cut_corner]
        forms.append(
            EmbeddedGraph(induced(full.graph, keep), tuple(full.coords[v] for v in keep))
        )
    return tuple(sorted(forms, key=lambda e: e.graph.edge_count))


class ForbiddenMember(_Frozen):
    """A catalog pattern, a closure member or a corner-closed form.

    A base pattern is the identity member of its own name, and the drawing of
    its base pattern says whether a member has a domino.  The odd-wheel hub
    and its rim length m are derived once, when the member is built; they
    anchor the general matcher, and equality ignores them.
    """

    _compared = ("name", "base_name", "symmetry", "embedded")
    _shown = (*_compared, "hub", "rim_length")
    name: str  # e.g. "A3@flip_h"
    base_name: str
    symmetry: Symmetry
    embedded: EmbeddedGraph
    hub: int
    rim_length: int

    def __init__(
        self, name: str, base_name: str, symmetry: Symmetry, embedded: EmbeddedGraph
    ) -> None:
        found = find_odd_wheel(embedded.graph)
        if found is None:
            raise AssertionError(f"{name} has no odd-wheel hub")
        hub, rim = found
        self.__dict__.update(
            name=name,
            base_name=base_name,
            symmetry=symmetry,
            embedded=embedded,
            hub=hub,
            rim_length=len(rim),
        )

    @property
    def has_domino(self) -> bool:
        return DRAWINGS[self.base_name].domino is not None

    @property
    def provenance(self) -> str:
        if self.has_domino:
            return "minimal catalog: single horizontal-domino triangulations"
        return "minimal catalog: square 2x2-cell triangulations"


@lru_cache(maxsize=1)
def minimal_graphs() -> tuple[ForbiddenMember, ...]:
    """The twelve catalog patterns; loading re-validates the fixture checksums."""
    patterns = tuple(
        ForbiddenMember(name, name, Symmetry.IDENTITY, readings(drawing)[0])
        for name, drawing in DRAWINGS.items()
    )
    _validate(patterns)
    return patterns


def fixture_digest(e: EmbeddedGraph) -> str:
    data = json.dumps(
        {"coords": list(e.coords), "edges": [list(x) for x in e.graph.edges]},
        separators=(",", ":"),
    ).encode()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


# Frozen digests (CRC-32, then Adler-32) of the transcribed fixtures; any
# drift in the tables above fails loudly at load time.
FIXTURE_DIGESTS = {
    "T1": "3f0f8b6534332c4d",
    "T2": "00193387343b2c4d",
    "A1": "45decc85977735b9",
    "A2": "bf9628ec976b35b9",
    "A3": "1cc4de12979f35b9",
    "A4": "e68c3a7b979335b9",
    "A5": "51a04987961735b6",
    "A6": "1e06db4d963f35b6",
    "A7": "2b68bcce935335ae",
    "A8": "91a4cd0d936935ae",
    "B1": "18bc2c6734412c4d",
    "B2": "4325aa7f34432c4d",
}


def _validate(patterns: tuple[ForbiddenMember, ...]) -> None:
    if len(patterns) != 12:
        raise AssertionError("catalog must hold exactly 12 patterns")
    for p in patterns:
        n = p.embedded.graph.n
        want = 11 if p.name.startswith("A") else 9
        if n != want:
            raise AssertionError(f"{p.name}: expected {want} vertices, found {n}")
        if is_k_colourable(p.embedded.graph, 3) is not None:
            raise AssertionError(f"{p.name} is 3-colourable; transcription is wrong")
        digest = fixture_digest(p.embedded)
        if digest != FIXTURE_DIGESTS.get(p.name):
            raise AssertionError(
                f"{p.name}: fixture digest {digest} does not match the frozen value"
            )


class ClosurePolicy(str, Enum):
    LITERAL = "literal"
    EXTENDED = "extended"


_T_GROUPS = {
    ClosurePolicy.LITERAL: (
        Symmetry.IDENTITY,
        Symmetry.ROT90,
        Symmetry.ROT180,
        Symmetry.ROT270,
    ),
    ClosurePolicy.EXTENDED: tuple(Symmetry),
}
# Symmetries that keep a horizontal domino horizontal.
_AB_GROUPS = {
    ClosurePolicy.LITERAL: (Symmetry.IDENTITY, Symmetry.ROT180),
    ClosurePolicy.EXTENDED: (
        Symmetry.IDENTITY,
        Symmetry.ROT180,
        Symmetry.FLIP_H,
        Symmetry.FLIP_V,
    ),
}


# (member name, pair mask, edge mask, mapping): one translation of a member
# into a host layout of n vertices.  The pair mask has bit a*n+b set for every
# a, b in the image, the edge mask both bits of each mapped pattern edge.
Placement = tuple[str, int, int, tuple[int, ...]]

# (first, pair mask, hits): the placements of one image.  ``first`` is the
# table index of the earliest of them; ``hits`` maps each of their edge masks
# to (table index, member name, mapping) of the earliest placement with it.
ImageGroup = tuple[int, int, dict[int, tuple[int, str, tuple[int, ...]]]]


def _placements(
    members: tuple[ForbiddenMember, ...], coords: tuple[Coord, ...]
) -> tuple[Placement, ...]:
    """Every translation of every member that lands on vertices of the layout.

    Members in member order, each at its offsets in row-major order.
    """
    n = len(coords)
    index = {rc: v for v, rc in enumerate(coords)}
    max_hr, max_hc = max(r for r, _ in coords), max(c for _, c in coords)
    table = []
    for member in members:
        pattern = member.embedded
        max_pr = max(r for r, _ in pattern.coords)
        max_pc = max(c for _, c in pattern.coords)
        for dr in range(max_hr - max_pr + 1):
            for dc in range(max_hc - max_pc + 1):
                mapping = tuple(index.get((r + dr, c + dc)) for r, c in pattern.coords)
                if None in mapping:
                    continue
                image = sum(1 << h for h in mapping)
                pairs = sum(image << (h * n) for h in mapping)
                edges = sum(
                    1 << (mapping[u] * n + mapping[v]) | 1 << (mapping[v] * n + mapping[u])
                    for u, v in pattern.graph.edges
                )
                table.append((member.name, pairs, edges, mapping))
    return tuple(table)


def _image_groups(table: tuple[Placement, ...]) -> tuple[ImageGroup, ...]:
    """The placement table grouped by image, in the order of each group's
    earliest placement."""
    groups: dict[int, ImageGroup] = {}
    for i, (name, pairs, edges, mapping) in enumerate(table):
        groups.setdefault(pairs, (i, pairs, {}))[2].setdefault(edges, (i, name, mapping))
    return tuple(groups.values())


class ForbiddenSet(_Frozen):
    """The closure members under one policy, with their placement tables
    (``_tables``, by host layout), which equality ignores."""

    _compared = ("policy", "members")
    policy: ClosurePolicy
    members: tuple[ForbiddenMember, ...]
    _tables: dict[tuple[Coord, ...], tuple[ImageGroup, ...]]

    def __init__(self, policy: ClosurePolicy, members: tuple[ForbiddenMember, ...]) -> None:
        self.__dict__.update(policy=policy, members=members, _tables={})

    def placements(self, coords: tuple[Coord, ...]) -> tuple[ImageGroup, ...]:
        """The members' placement table for one host layout, grouped by
        image and built on first use.

        All hosts of one board shape share a layout, with or without a
        domino: the extended closure's 128 placements on a 3x3 layout fall
        into 12 images.
        """
        table = self._tables.get(coords)
        if table is None:
            table = self._tables[coords] = _image_groups(_placements(self.members, coords))
        return table


@lru_cache(maxsize=None)
def forbidden_set(policy: ClosurePolicy = ClosurePolicy.EXTENDED) -> ForbiddenSet:
    """Symmetry closure of the catalog, deduplicated by embedded footprint.

    Every image of a pattern is isomorphic to the pattern itself, so the
    closure only ever grows the set of *embedded* footprints available to the
    translation matcher; the abstract isomorphism classes stay those of the
    twelve base patterns.
    """
    members: list[ForbiddenMember] = []
    seen: set[tuple] = set()
    for p in minimal_graphs():
        group = _AB_GROUPS[policy] if p.has_domino else _T_GROUPS[policy]
        for s in group:
            image = transform(p.embedded, s)
            key = (image.coords, image.graph.edges)
            if key in seen:
                continue
            seen.add(key)
            name = p.name if s is Symmetry.IDENTITY else f"{p.name}@{s.value}"
            members.append(ForbiddenMember(name, p.name, s, image))
    return ForbiddenSet(policy, tuple(members))


def closure_report() -> dict:
    """Size data for both closure policies.

    Footprints are embedded drawings up to translation; every symmetry image
    stays abstractly isomorphic to its base pattern, so the isomorphism-class
    count cannot grow under either policy and the interesting delta is the
    footprint count available to the translation matcher.
    """
    from .graphs import are_isomorphic

    base = minimal_graphs()
    classes: list = []
    for p in base:
        if not any(are_isomorphic(p.embedded.graph, q.embedded.graph) for q in classes):
            classes.append(p)
    lit = forbidden_set(ClosurePolicy.LITERAL)
    ext = forbidden_set(ClosurePolicy.EXTENDED)
    lit_keys = {(m.embedded.coords, m.embedded.graph.edges) for m in lit.members}
    ext_keys = {(m.embedded.coords, m.embedded.graph.edges) for m in ext.members}
    return {
        "base_patterns": len(base),
        "isomorphism_classes": len(classes),
        "isomorphic_base_pairs": [
            [a.name, b.name]
            for i, a in enumerate(base)
            for b in base[i + 1 :]
            if are_isomorphic(a.embedded.graph, b.embedded.graph)
        ],
        "literal_footprints": len(lit.members),
        "extended_footprints": len(ext.members),
        "extended_only_footprints": len(ext_keys - lit_keys),
        "extended_adds_isomorphism_classes": False,
    }


class ForbiddenHit(NamedTuple):
    name: str
    mapping: tuple[int, ...]
    via_embedded: bool


@lru_cache(maxsize=1)
def corner_closed_forms() -> tuple[ForbiddenMember, ...]:
    """Each cut pattern with its corner cell's other diagonal, avoiding the cut corner.

    Named ``A1'`` etc.; ``base_name`` is the pattern they are a reading of.
    """
    forms = []
    for name, drawing in DRAWINGS.items():
        if drawing.cut_corner is not None:
            closed = readings(drawing)[1]
            forms.append(ForbiddenMember(f"{name}'", name, Symmetry.IDENTITY, closed))
    return tuple(forms)


@lru_cache(maxsize=1)
def corner_closed_obstructions() -> tuple[ForbiddenMember, ...]:
    """The corner-closed forms that contain no base pattern (A1', A3', A8').

    The others can never add a host the base patterns miss.
    """
    return tuple(
        m
        for m in corner_closed_forms()
        if all(
            contains_induced(m.embedded.graph, p.embedded.graph) is None
            for p in minimal_graphs()
        )
    )


@lru_cache(maxsize=1)
def _general_patterns() -> tuple[ForbiddenMember, ...]:
    """What the general matcher tries, in order: the base patterns, then the
    corner-closed obstructions."""
    return (*minimal_graphs(), *corner_closed_obstructions())


def find_forbidden(
    host: EmbeddedGraph, s: ForbiddenSet, embedded_only: bool = False
) -> Optional[ForbiddenHit]:
    """First forbidden pattern induced in the host, in deterministic member order.

    The translation matcher runs first over every closure member; the general
    induced matcher is the fallback and the ground truth (``embedded_only``
    disables it, for agreement measurements).  The general matcher tries
    ``_general_patterns``; a hit is reported under its base pattern's name,
    so a corner-closed form's under the pattern it is a reading of, because
    a cut corner leaves its cell's diagonal free.

    The translation matcher is a table lookup: with the host's adjacency
    matrix as one int (``Graph.matrix``), a placement from ``s.placements``
    matches iff the host's bits on the image's vertex pairs are exactly the
    mapped pattern edges.  The table is grouped by image, so one dict lookup
    finds the earliest matching placement of an image; the scan keeps the
    earliest hit in table order and stops at the first group that starts
    after it.  Only the general matcher is anchored, on each pattern's
    odd-wheel hub: an induced embedding puts the hub, whose neighbourhood is
    a chordless C_m, on a host vertex of degree at least m whose
    neighbourhood is not bipartite, a vertex of the host graph's
    ``odd_links``.  A host without such a vertex contains no pattern, so the
    first thing asked is whether the graph's odd-link scan finds any; a
    matching placement already puts its hub on one, so only a table miss
    reads the full mask to anchor the general matcher.  A pattern with rim
    length m is anchored on ``odd_links & at_least[m]``, the odd-link
    vertices of degree at least m (none when m is at least the host's
    order).
    """
    g = host.graph
    if g.first_odd_link() < 0:
        return None
    matrix = g.matrix
    hit = None
    for first, pairs, hits in s.placements(host.coords):
        if hit is not None and hit[0] < first:
            break
        found = hits.get(matrix & pairs)
        if found is not None and (hit is None or found[0] < hit[0]):
            hit = found
    if hit is not None:
        return ForbiddenHit(hit[1], hit[2], via_embedded=True)
    if embedded_only:
        return None
    odd, at_least, n = g.odd_links, g.at_least, g.n
    for p in _general_patterns():
        m = p.rim_length
        allowed = odd & at_least[m] if m < n else 0
        if allowed:
            mapping = contains_induced(g, p.embedded.graph, anchor=(p.hub, allowed))
            if mapping is not None:
                return ForbiddenHit(p.base_name, mapping, via_embedded=False)
    return None
