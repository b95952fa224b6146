"""Alternation words: the word -> graph map and bounded direct witness search.

Letters x and y alternate in a word when deleting every other letter leaves
xyxy... or yxyx...; a word represents a graph when its alternation relation
equals the edge set exactly.  The direct k-uniform search here is a
small-scale oracle for the orientation-based decision procedure, not a
production decider: budgets are hard caps with a distinct error so an
unfinished search is never read as a negative.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .graphs import Graph

Word = tuple[int, ...]

SEARCH_MAX_VERTICES = 6
SEARCH_MAX_UNIFORMITY = 3


def alternates(w: Sequence[int], x: int, y: int) -> bool:
    """True iff the x/y-subsequence of w strictly alternates."""
    if x == y:
        raise ValueError("alternation needs two distinct letters")
    if x not in w or y not in w:
        raise ValueError("both letters must occur in the word")
    last = -1
    for letter in w:
        if letter == x or letter == y:
            if letter == last:
                return False
            last = letter
    return True


def graph_of_word(w: Sequence[int], n: int) -> Graph:
    """The graph on 0..n-1 whose edges are exactly the alternating pairs of w.

    One pass over w: ``since[x]`` is the bit mask of the letters seen since
    x last occurred (-1 before x first occurs).  When x comes again, every
    letter missing from that mask sits out a gap between two x's, so it does
    not alternate with x.
    """
    since = [-1] * n
    broken = [0] * n
    for letter in w:
        if not 0 <= letter < n:
            raise ValueError(f"letter {letter} outside alphabet 0..{n - 1}")
        bit = 1 << letter
        if since[letter] >= 0:
            broken[letter] |= ~since[letter]
        since = [s | bit for s in since]
        since[letter] = 0
    missing = [x for x in range(n) if since[x] < 0]
    if missing:
        raise ValueError(f"letters {missing} never occur in the word")
    edges = tuple(
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if not (broken[x] >> y & 1 or broken[y] >> x & 1)
    )
    return Graph(n, edges)


def represents(w: Sequence[int], g: Graph) -> bool:
    """Exact equality of graph_of_word(w) with g; no isomorphism slack."""
    if any(not 0 <= letter < g.n for letter in w):
        raise ValueError("word alphabet does not match the graph")
    return graph_of_word(w, g.n) == g


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All adjacency-preserving vertex permutations (n <= 6)."""
    if g.n > SEARCH_MAX_VERTICES:
        raise BudgetExceededError("automorphism enumeration capped at 6 vertices")
    return tuple(
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
    )


def search_uniform_word(g: Graph, k: int) -> Optional[Word]:
    """First k-uniform representing word in canonical order, or None.

    Positions are filled left to right with alternation-feasibility pruning
    after each placement.  Canonical pruning: only words whose sequence of
    first occurrences is lexicographically minimal within its
    automorphism orbit are explored (relabelling along an automorphism
    preserves the represented graph, so one word per orbit suffices; a
    stronger rule would lose exact witnesses).  Exhaustive within the budget
    (n <= 6, k <= 3); beyond it raises BudgetExceededError.
    """
    if k < 1:
        raise ValueError("uniformity must be at least 1")
    if g.n > SEARCH_MAX_VERTICES or k > SEARCH_MAX_UNIFORMITY:
        raise BudgetExceededError(
            f"uniform search capped at n <= {SEARCH_MAX_VERTICES}, "
            f"k <= {SEARCH_MAX_UNIFORMITY}"
        )
    n = g.n
    if n == 0:
        return ()
    auts = [a for a in automorphisms(g) if a != tuple(range(n))]
    total = n * k
    counts = [0] * n
    # Pairwise state, symmetric in both indices: the letter of the pair that
    # occurred last (-1 for none), and whether the pair's subsequence has
    # already stopped alternating.
    last = [[-1] * n for _ in range(n)]
    broken = [[False] * n for _ in range(n)]
    word: list[int] = []
    first_seen: list[int] = []

    def dead_after_placing(x: int) -> bool:
        """Pair-state updates for appending x; True when no completion can work."""
        for y in range(n):
            if y == x:
                continue
            if last[x][y] == x:
                if g.has_edge(x, y):
                    return True  # an edge pair just repeated: alternation lost
                broken[x][y] = broken[y][x] = True
            last[x][y] = last[y][x] = x
        if counts[x] == k:
            # A still-alternating non-edge pair with at most one y left can
            # only finish as a perfect alternation, which a non-edge forbids.
            for y in range(n):
                if y == x or g.has_edge(x, y) or broken[x][y]:
                    continue
                if k - counts[y] <= 1:
                    return True
        return False

    def orbit_minimal() -> bool:
        for a in auts:
            image = [a[v] for v in first_seen]
            if image < first_seen:
                return False
        return True

    def search(pos: int) -> bool:
        if pos == total:
            return True
        for x in range(n):
            if counts[x] == k:
                continue
            is_first = counts[x] == 0
            if is_first:
                first_seen.append(x)
                if not orbit_minimal():
                    first_seen.pop()
                    continue
            saved_last = [row[x] for row in last]
            saved_broken = [row[x] for row in broken]
            counts[x] += 1
            if not dead_after_placing(x):
                word.append(x)
                if search(pos + 1):
                    return True
                word.pop()
            counts[x] -= 1
            for y in range(n):
                if y != x:
                    last[x][y] = last[y][x] = saved_last[y]
                    broken[x][y] = broken[y][x] = saved_broken[y]
            if is_first:
                first_seen.pop()
        return False

    if search(0):
        return tuple(word)
    return None


def parse_word(text: str) -> Word:
    """CLI word syntax: 1-based letters, all single digits or comma-separated."""
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    letters = []
    for p in parts:
        if not p.isdigit():
            raise ValueError(f"bad letter {p!r} in word")
        value = int(p)
        if value < 1:
            raise ValueError("letters are 1-based")
        letters.append(value - 1)
    return tuple(letters)


def format_word(w: Word) -> str:
    if any(letter > 8 for letter in w):
        return ",".join(str(letter + 1) for letter in w)
    return "".join(str(letter + 1) for letter in w)
