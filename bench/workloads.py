"""Seeded benchmark inputs and the benchmark's own oracles.

Nothing here imports ``wordrep``: the inputs are plain board strings,
triangulation literals, words and graph dicts, and the oracles (host
construction, interior-parity 3-colourability, alternation edges,
3-colouring, acyclicity and shortcut scan) are written from the definitions
so that they check the library rather than repeat it.

The generators are stratified: every seed draws the same number of items of
each shape and kind, so a seed changes which inputs are run but not how much
work they are.
"""

from __future__ import annotations

import random
import re
from itertools import product

EDGE_BUDGET = 48  # the library's default orientation-search edge cap

# ---------------------------------------------------------------- boards ---

_SPEC = re.compile(r"^cells (\d+)x(\d+)(?:; domino ([HV]) (\d+) (\d+))?$")


def parse_spec(spec: str) -> tuple[int, int, tuple | None]:
    """``cells RxC[; domino A r c]`` -> (rows, cols, (axis, r, c) or None)."""
    m = _SPEC.match(spec)
    if not m:
        raise ValueError(f"unsupported board spec {spec!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    domino = None
    if m.group(3):
        domino = (m.group(3), int(m.group(4)), int(m.group(5)))
    return rows, cols, domino


def _domino_cells(domino) -> tuple[tuple[int, int], tuple[int, int]]:
    axis, r, c = domino
    return ((r, c), (r, c + 1)) if axis == "H" else ((r, c), (r + 1, c))


def unit_cells(spec: str) -> list[tuple[int, int]]:
    rows, cols, domino = parse_spec(spec)
    covered = set(_domino_cells(domino)) if domino else set()
    return [(r, c) for r in range(rows) for c in range(cols) if (r, c) not in covered]


def _chords(domino, pattern: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The three hexagon chords of a domino, as documented for the literal format."""
    axis, r, c = domino
    if axis == "H":
        tl, tm, tr = (r, c), (r, c + 1), (r, c + 2)
        bl, bm, br = (r + 1, c), (r + 1, c + 1), (r + 1, c + 2)
        if pattern == "F":
            return [(tl, bm), (tl, br), (tm, br)]
        return [(bl, tm), (bl, tr), (bm, tr)]
    tl, tr = (r, c), (r, c + 1)
    ml, mr = (r + 1, c), (r + 1, c + 1)
    bl, br = (r + 2, c), (r + 2, c + 1)
    if pattern == "F":
        return [(tr, ml), (tr, bl), (mr, bl)]
    return [(tl, mr), (tl, br), (ml, br)]


def host_graph(spec: str, literal: str) -> tuple[int, frozenset]:
    """The triangulation graph of (board, literal): vertex count and edge set.

    Vertices are the grid points numbered row-major; edges are the unit grid
    edges (minus the edge inside the domino), one diagonal per unit cell and
    the domino's chords.
    """
    rows, cols, domino = parse_spec(spec)
    cells = unit_cells(spec)
    if len(literal) != len(cells) + (1 if domino else 0):
        raise ValueError(f"literal {literal!r} does not fit {spec!r}")
    width = cols + 1

    def vid(p):
        return p[0] * width + p[1]

    skipped = set()
    if domino:
        axis, r, c = domino
        inner = ((r, c + 1), (r + 1, c + 1)) if axis == "H" else ((r + 1, c), (r + 1, c + 1))
        skipped.add(frozenset(inner))
    edges = set()

    def add(a, b):
        u, v = sorted((vid(a), vid(b)))
        edges.add((u, v))

    for r in range(rows + 1):
        for c in range(cols + 1):
            for nb in ((r, c + 1), (r + 1, c)):
                if nb[0] <= rows and nb[1] <= cols and frozenset(((r, c), nb)) not in skipped:
                    add((r, c), nb)
    for (r, c), ch in zip(cells, literal):
        if ch == "/":
            add((r + 1, c), (r, c + 1))
        elif ch == "\\":
            add((r, c), (r + 1, c + 1))
        else:
            raise ValueError(f"bad diagonal {ch!r}")
    if domino:
        for a, b in _chords(domino, literal[-1]):
            add(a, b)
    return (rows + 1) * width, frozenset(edges)


def interior_parity_ok(spec: str, literal: str) -> bool:
    """Parity oracle: a triangulated disc is 3-colourable iff every interior
    vertex has even degree."""
    rows, cols, _ = parse_spec(spec)
    n, edges = host_graph(spec, literal)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    width = cols + 1
    return all(
        degree[r * width + c] % 2 == 0 for r in range(1, rows) for c in range(1, cols)
    )


def all_literals(spec: str) -> list[str]:
    """Every triangulation literal of a board, in choice-vector order."""
    cells = len(unit_cells(spec))
    tail = [("F", "R")] if parse_spec(spec)[2] else []
    return ["".join(t) for t in product(*([("/", "\\")] * cells + tail))]


def domino_specs(rows: int, cols: int, axis: str) -> list[str]:
    if axis == "H":
        places = [(r, c) for r in range(rows) for c in range(cols - 1)]
    else:
        places = [(r, c) for r in range(rows - 1) for c in range(cols)]
    return [f"cells {rows}x{cols}; domino {axis} {r} {c}" for r, c in places]


# ----------------------------------------------------------------- sweep ---

SWEEP_BARE = "cells 3x3"
# Single-domino 3x3 boards whose full sweeps cost within about 15% of each
# other on a 2-core Xeon at the commit that introduced this benchmark.  The
# other placements cost up to twice as much, so drawing from them would make
# a seed change the amount of work rather than which hosts are swept.
SWEEP_DOMINO_POOL = (
    "cells 3x3; domino H 1 0",
    "cells 3x3; domino H 1 1",
    "cells 3x3; domino V 0 1",
)
SWEEP_DOMINOES = 2


def sweep_boards(seed: int) -> list[str]:
    """The bare 3x3 board plus a seeded choice of domino boards, in seeded order."""
    rng = random.Random(f"sweep:{seed}")
    boards = [SWEEP_BARE] + rng.sample(SWEEP_DOMINO_POOL, SWEEP_DOMINOES)
    rng.shuffle(boards)
    return boards


# ------------------------------------------------------------ colourable ---

COLOURABLE_SHAPES = ((3, 3), (2, 4), (3, 4), (2, 5), (3, 5))
COLOURABLE_KINDS = ("bare", "H", "V")
COLOURABLE_PER_SLOT = 16  # 5 shapes x 3 kinds x 16 = 240 hosts


def _parity_masks(spec: str):
    """Interior-vertex parity as XOR masks: base (grid + chords) and per cell.

    Rejection sampling tries hundreds of literals per 3x5 host, so each try
    is a few XORs instead of a host build.
    """
    rows, cols, domino = parse_spec(spec)
    width = cols + 1
    interior = {r * width + c for r in range(1, rows) for c in range(1, cols)}
    # Grid edges and domino chords are fixed by the board, except that the
    # chord pattern adds an even amount to every corner but the middle two,
    # so either pattern gives the same parity.
    fixed = "/" * len(unit_cells(spec)) + ("F" if domino else "")
    n, edges = host_graph(spec, fixed)
    base = 0
    for u, v in edges:
        base ^= (1 << u) ^ (1 << v)
    toggles = []
    for r, c in unit_cells(spec):
        slash = (1 << ((r + 1) * width + c)) ^ (1 << (r * width + c + 1))
        back = (1 << (r * width + c)) ^ (1 << ((r + 1) * width + c + 1))
        toggles.append(slash ^ back)  # switching "/" to "\" flips these four
    interior_mask = sum(1 << v for v in interior)
    return base, toggles, interior_mask


def _colourable_literal(spec: str, rng: random.Random) -> str:
    base, toggles, interior = _parity_masks(spec)
    has_domino = parse_spec(spec)[2] is not None
    while True:
        flips = [rng.random() < 0.5 for _ in toggles]
        parity = base
        for flip, t in zip(flips, toggles):
            if flip:
                parity ^= t
        if parity & interior == 0:
            literal = "".join("\\" if f else "/" for f in flips)
            if has_domino:
                literal += rng.choice("FR")
            return literal


def colourable_hosts(seed: int) -> list[tuple[str, str]]:
    """3-colourable (board, literal) pairs, stratified over shape and domino kind."""
    rng = random.Random(f"colourable:{seed}")
    hosts = []
    for rows, cols in COLOURABLE_SHAPES:
        for kind in COLOURABLE_KINDS:
            for _ in range(COLOURABLE_PER_SLOT):
                if kind == "bare":
                    spec = f"cells {rows}x{cols}"
                else:
                    spec = rng.choice(domino_specs(rows, cols, kind))
                hosts.append((spec, _colourable_literal(spec, rng)))
    rng.shuffle(hosts)
    return hosts


# ---------------------------------------------------------------- decide ---

YES_LETTERS = range(10, 17)
NO_WHEELS = (5, 7)
NO_EXTRA = range(2, 9)
YES_PER_LETTERS = 60  # x 7 letter counts = 420 "yes" graphs
NO_PER_CELL = 60  # x 2 wheels x 7 extra counts = 840 "no" graphs
ATTACH_PER_TWO_EXTRAS = 5  # edges from extra vertices to the wheel, per two extras


def alternation_edges(word, n: int) -> frozenset:
    """Pairs of letters whose occurrences strictly alternate in the word."""
    positions = [[] for _ in range(n)]
    for i, letter in enumerate(word):
        positions[letter].append(i)
    edges = set()
    for x in range(n):
        for y in range(x + 1, n):
            merged = sorted([(p, x) for p in positions[x]] + [(p, y) for p in positions[y]])
            letters = [letter for _, letter in merged]
            if all(a != b for a, b in zip(letters, letters[1:])):
                edges.add((x, y))
    return frozenset(edges)


def three_colourable(n: int, edges) -> bool:
    """Plain backtracking 3-colouring, highest degree first."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    order = sorted(range(n), key=lambda v: -len(nbrs[v]))
    colour = [0] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in (1, 2, 3):
            if all(colour[u] != c for u in nbrs[v]):
                colour[v] = c
                if place(i + 1):
                    return True
        colour[v] = 0
        return False

    return place(0)


def _yes_item(n: int, rng: random.Random) -> dict:
    while True:
        word = list(range(n)) * 2
        rng.shuffle(word)
        edges = alternation_edges(word, n)
        if len(edges) <= EDGE_BUDGET and not three_colourable(n, edges):
            return {"kind": "yes", "word": tuple(word), "n": n}


def _no_item(rim: int, extra: int, rng: random.Random) -> dict:
    """An odd wheel with extra vertices attached; the wheel stays induced
    because no edge is ever added between two wheel vertices."""
    hub = rim
    edges = {tuple(sorted((i, (i + 1) % rim))) for i in range(rim)}
    edges |= {(i, hub) for i in range(rim)}
    n = rim + 1
    # Extra vertices attach to 1-4 wheel vertices, 5 attachments per 2
    # extras in all (W7 plus 8 extras has 34 edges).  Search cost grows fast
    # with the edge count, so a fixed total keeps the seed from changing how
    # much work a run is.  Extras joined to one another make the exhaustive
    # search heavy-tailed: single graphs took up to 1.5 s against a 100 ms
    # median, so a handful of them decided a whole run's time.
    degrees = [1] * extra
    for _ in range(ATTACH_PER_TWO_EXTRAS * extra // 2 - extra):
        degrees[rng.choice([i for i, d in enumerate(degrees) if d < 4])] += 1
    for degree in degrees:
        for u in rng.sample(range(rim + 1), degree):
            edges.add((u, n))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    graph_edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    return {
        "kind": "no",
        "graph": {"n": n, "edges": [list(e) for e in graph_edges]},
        "wheel": (perm[hub], tuple(perm[i] for i in range(rim))),
    }


def decide_items(seed: int) -> list[dict]:
    """Representable word graphs ("yes") and planted odd wheels ("no"), mixed."""
    rng = random.Random(f"decide:{seed}")
    items = [_yes_item(n, rng) for n in YES_LETTERS for _ in range(YES_PER_LETTERS)]
    items += [
        _no_item(rim, extra, rng)
        for rim in NO_WHEELS
        for extra in NO_EXTRA
        for _ in range(NO_PER_CELL)
    ]
    rng.shuffle(items)
    return items


def item_edges(item: dict) -> tuple[int, frozenset]:
    """Vertex count and edge set of a decide item, by the benchmark's own rules."""
    if item["kind"] == "yes":
        return item["n"], alternation_edges(item["word"], item["n"])
    return item["graph"]["n"], frozenset(tuple(e) for e in item["graph"]["edges"])


# --------------------------------------------------------------- oracles ---


def semi_transitive(n: int, edges, arcs) -> bool:
    """Acyclicity and shortcut scan of an orientation given as (tail, head) arcs.

    A shortcut exists iff for some arc a -> b there are x != y, both on
    a directed a-b path, with y reachable from x but x, y not adjacent.
    """
    if {tuple(sorted(a)) for a in arcs} != set(edges) or len(arcs) != len(edges):
        return False
    out = [set() for _ in range(n)]
    indeg = [0] * n
    for a, b in arcs:
        out[a].add(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        return False
    reach = [set() for _ in range(n)]
    for v in reversed(order):
        for w in out[v]:
            reach[v] |= {w} | reach[w]
    adjacent = set(edges)
    for a, b in arcs:
        between = [x for x in ({a} | reach[a]) if x == b or b in reach[x]]
        for x in between:
            for y in between:
                if x != y and y in reach[x] and tuple(sorted((x, y))) not in adjacent:
                    return False
    return True
