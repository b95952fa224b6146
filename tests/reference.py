"""Reference computations shared by the test modules, written from the
definitions rather than from the library's optimised code."""

from __future__ import annotations

from wordrep.graphs import bits


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
