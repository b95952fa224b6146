from __future__ import annotations

import gc
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordrep.graphs
from wordrep.boards import (
    enumerate_triangulations,
    parse_board,
    triangulate,
    walk_hosts,
)
from wordrep.catalog import corner_closed_obstructions, minimal_graphs
from wordrep.errors import GraphSizeError
from wordrep.graphs import (
    Graph,
    are_isomorphic,
    bits,
    chromatic_number,
    complete,
    contains_induced,
    cycle,
    find_odd_wheel,
    induced,
    is_k_colourable,
    nonisomorphic_graphs,
    wheel,
)
from wordrep.orientations import check_odd_wheel

from reference import reference_colouring, reference_induced_search


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (0, 1)))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (0, 1)))

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_degree_classes(self, g):
        assert g.at_least == tuple(
            sum(1 << v for v in range(g.n) if g.degree(v) >= d) for d in range(g.n)
        )

    def test_rejects_too_many_vertices(self):
        with pytest.raises(GraphSizeError):
            Graph(25, ())

    def test_from_edges_normalises(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_adjacency_symmetric(self):
        g = cycle(5)
        for u, v in g.edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_json_round_trip(self):
        g = wheel(5)
        assert Graph.from_json_obj(g.to_json_obj()) == g

    @pytest.mark.parametrize(
        "obj",
        [{"n": 2.5, "edges": []}, {"n": "2", "edges": []}, {"n": 2, "edges": [[0, True]]}],
        ids=["float-n", "string-n", "bool-end"],
    )
    def test_json_refuses_non_int_values(self, obj):
        # int(2.5) would read a 2-vertex graph, and a True end would stay a
        # bool in ``edges``.
        with pytest.raises(ValueError, match="is not an int"):
            Graph.from_json_obj(obj)


class TestColouring:
    def test_triangle_three_colours(self):
        c = is_k_colourable(complete(3), 3)
        assert c is not None and c.is_proper_for(complete(3))

    def test_w5_needs_four(self):
        w5 = wheel(5)
        assert is_k_colourable(w5, 3) is None
        c = is_k_colourable(w5, 4)
        assert c is not None and c.is_proper_for(w5)

    def test_first_vertex_pinned(self):
        c = is_k_colourable(cycle(6), 3)
        assert c.colours[0] == 1

    def test_deterministic(self):
        g = wheel(6)
        assert is_k_colourable(g, 4) == is_k_colourable(g, 4)

    def test_chromatic_examples(self):
        assert chromatic_number(cycle(4)) == 2
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(wheel(5)) == 4
        assert chromatic_number(wheel(3)) == 4  # K4

    def test_empty_graph(self):
        assert chromatic_number(Graph(0, ())) == 0
        assert is_k_colourable(Graph(4, ()), 1).colours == (1, 1, 1, 1)

    @given(graphs(), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_returned_colouring_is_proper(self, g, k):
        c = is_k_colourable(g, k)
        if c is not None:
            assert c.is_proper_for(g)
            assert all(1 <= col <= k for col in c.colours)


def assert_same_colourings(graphs_, ks=range(5)):
    for g in graphs_:
        for k in ks:
            found = is_k_colourable(g, k)
            assert (found and found.colours) == reference_colouring(g, k), (g, k)


class TestColouringExactness:
    """The propagating colouring returns the reference's first witness, and
    None exactly when the reference finds none."""

    def test_every_labelled_graph_up_to_five_vertices(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            assert_same_colourings(
                Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
                for mask in range(1 << len(pairs))
            )

    @given(graphs(min_n=0, max_n=12))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, g):
        assert_same_colourings([g])

    def test_decide_workload_graphs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        items = workloads.decide_items(1)
        assert len(items) == 1260
        assert_same_colourings(
            Graph.from_edges(*workloads.item_edges(item)) for item in items
        )

    @pytest.mark.parametrize("spec", ["cells 3x3", "cells 3x3; domino H 1 1"])
    def test_board_hosts(self, spec):
        board = parse_board(spec)
        assert_same_colourings(
            triangulate(board, t).graph for t in enumerate_triangulations(board)
        )


@pytest.mark.parametrize(
    "spec",
    [
        "cells 3x3",
        "cells 3x3; domino H 1 1",
        "cells 3x3; domino V 0 1",
        "cells 3x4; domino H 1 1",
        "cells 2x5; domino V 0 2",
    ],
)
def test_forced_colours_are_narrowed_once(monkeypatch, spec):
    # The first two vertices of a 3-colourable triangulation force every
    # other colour, and ``_narrow`` passes each forced colour on when it is
    # forced, so the loop takes the rest without narrowing again.
    calls = []

    def counting(adj, domains, v, c):
        calls.append(v)
        return narrow(adj, domains, v, c)

    narrow = wordrep.graphs._narrow
    monkeypatch.setattr(wordrep.graphs, "_narrow", counting)
    board = parse_board(spec)
    colourable = 0
    for t in enumerate_triangulations(board):
        calls.clear()
        if is_k_colourable(triangulate(board, t).graph, 3) is not None:
            colourable += 1
            assert len(calls) == 2, (spec, t)
    assert colourable > 0


def test_colouring_leaves_no_garbage():
    # A self-recursive closure in the colouring would leave one reference
    # cycle per call (4,096 objects on these hosts), which only the cycle
    # collector frees.
    hosts = []
    walk_hosts(parse_board("cells 3x3"), 0, 512, lambda literal, host: hosts.append(host.graph))
    gc.collect()
    gc.disable()
    try:
        colourings = [is_k_colourable(g, 3) for g in hosts]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sum(c is not None for c in colourings) == 32


class TestInduced:
    def test_identity(self):
        assert induced(cycle(4), range(4)) == cycle(4)

    def test_adjacent_pair(self):
        assert induced(cycle(4), [0, 1]).edges == ((0, 1),)

    def test_non_adjacent_pair(self):
        assert induced(cycle(4), [0, 2]).edges == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced(cycle(4), [0, 7])


class TestContainsInduced:
    def test_triangle_free_host(self):
        assert contains_induced(cycle(4), complete(3)) is None

    def test_rim_of_wheel(self):
        m = contains_induced(wheel(6), cycle(6))
        assert m is not None
        assert set(m) == set(range(6))

    def test_induced_rejects_extra_edges(self):
        # A path on 3 vertices is not induced in a triangle: the missing pair
        # would land on an edge.
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert contains_induced(complete(3), path) is None

    def test_pattern_size_budget(self):
        with pytest.raises(GraphSizeError):
            contains_induced(complete(14), complete(13))

    @given(graphs(max_n=6), graphs(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_mapping_induces_isomorphic_copy(self, host, pattern):
        m = contains_induced(host, pattern)
        if m is not None:
            assert are_isomorphic(induced(host, m), pattern)

    def test_anchor_pins_the_anchored_vertex(self):
        # Two disjoint triangles: anchoring triangle vertex 0 on host vertex 4
        # forces the second triangle; an empty mask leaves no embedding.
        host = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        m = contains_induced(host, complete(3), anchor=(0, 1 << 4))
        assert m is not None and m[0] == 4 and set(m) == {3, 4, 5}
        assert contains_induced(host, complete(3), anchor=(0, 0)) is None

    @given(graphs(max_n=6), graphs(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_anchor_keeps_exactly_the_allowed_images(self, host, pattern, data):
        p = data.draw(st.integers(0, pattern.n - 1))
        allowed = data.draw(st.integers(0, (1 << host.n) - 1))
        m = contains_induced(host, pattern, anchor=(p, allowed))
        if m is not None:
            assert allowed >> m[p] & 1
            assert are_isomorphic(induced(host, m), pattern)
        # Anchoring on every host vertex changes nothing but the search order.
        full = contains_induced(host, pattern, anchor=(p, (1 << host.n) - 1))
        assert (full is None) == (contains_induced(host, pattern) is None)


def brute_force_embeddings(host, pattern, anchor=None):
    """Every injective map that is an induced embedding respecting the anchor."""
    pairs = list(combinations(range(pattern.n), 2))
    for m in permutations(range(host.n), pattern.n):
        if anchor is not None and not anchor[1] >> m[anchor[0]] & 1:
            continue
        if all(pattern.has_edge(u, v) == host.has_edge(m[u], m[v]) for u, v in pairs):
            yield m


class TestSearchExactness:
    @given(graphs(max_n=7), graphs(max_n=4), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_none_exactly_when_no_embedding_exists(self, host, pattern, anchored, data):
        anchor = None
        if anchored:
            anchor = (
                data.draw(st.integers(0, pattern.n - 1)),
                data.draw(st.integers(0, (1 << host.n) - 1)),
            )
        m = contains_induced(host, pattern, anchor=anchor)
        found = set(brute_force_embeddings(host, pattern, anchor))
        assert m in found if m is not None else not found

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_are_isomorphic_matches_brute_force(self, a, data):
        # Half the partners are relabelled copies, half share a's order and size.
        if data.draw(st.booleans()):
            perm = data.draw(st.permutations(range(a.n)))
            b = a.relabel(tuple(perm))
        else:
            pairs = list(combinations(range(a.n), 2))
            chosen = data.draw(st.permutations(pairs))[: a.edge_count]
            b = Graph(a.n, tuple(sorted(chosen)))
        brute = any(a.relabel(perm) == b for perm in permutations(range(a.n)))
        assert are_isomorphic(a, b) == brute == are_isomorphic(b, a)


class TestSearchPlans:
    """The search placed from compiled plans finds the same first embedding,
    or the same None, as the search that recomputes its order per call."""

    @pytest.mark.parametrize(
        "spec", ["cells 3x3", "cells 3x3; domino H 1 1", "cells 3x3; domino V 0 1"]
    )
    def test_catalog_anchors_on_board_hosts(self, spec):
        # Every base pattern and corner-closed obstruction, anchored as
        # find_forbidden anchors it: its hub on the odd-link vertices of
        # degree at least its rim length.
        board = parse_board(spec)
        patterns = [*minimal_graphs(), *corner_closed_obstructions()]
        found = 0
        for t in enumerate_triangulations(board):
            g = triangulate(board, t).graph
            odd = g.odd_links
            for p in patterns:
                allowed = sum(1 << v for v in bits(odd) if g.degree(v) >= p.rim_length)
                anchor = (p.hub, allowed)
                m = contains_induced(g, p.embedded.graph, anchor=anchor)
                assert m == reference_induced_search(g, p.embedded.graph, anchor)
                found += m is not None
        assert found

    @given(graphs(max_n=9), graphs(max_n=5), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_first_embedding_on_any_graphs(self, host, pattern, anchored, data):
        anchor = None
        if anchored:
            anchor = (
                data.draw(st.integers(0, pattern.n - 1)),
                data.draw(st.integers(0, (1 << host.n) - 1)),
            )
        m = contains_induced(host, pattern, anchor=anchor)
        assert m == reference_induced_search(host, pattern, anchor)

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_first_embedding_between_equal_orders(self, a, data):
        # are_isomorphic's calls: a pattern as large as its host.
        b = a.relabel(tuple(data.draw(st.permutations(range(a.n)))))
        assert contains_induced(b, a) == reference_induced_search(b, a)


class TestConstructors:
    def test_cycle(self):
        c = cycle(4)
        assert c.n == 4 and c.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_wheel_counts(self):
        w = wheel(5)
        assert w.n == 6 and w.edge_count == 10
        assert w.degree(5) == 5  # hub is the last vertex

    def test_wheel3_is_k4(self):
        assert are_isomorphic(wheel(3), complete(4))

    def test_too_short(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(2)


def chorded(g: Graph, u: int, v: int) -> Graph:
    return Graph.from_edges(g.n, [*g.edges, (u, v)])


class TestFindOddWheel:
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_odd_wheels(self, m):
        # wheel(m) has its hub at m; the rim starts at 0 and steps to 1 first.
        assert find_odd_wheel(wheel(m)) == (m, tuple(range(m)))

    def test_rim_order_after_relabelling(self):
        # Rim 0-1-2-3-4 becomes 4-0-5-1-3 and the hub 5 becomes 2.  The rim
        # starts at 0 and steps to 4, the lower of its rim neighbours 4 and 5.
        g = wheel(5).relabel((4, 0, 5, 1, 3, 2))
        assert find_odd_wheel(g) == (2, (0, 4, 3, 1, 5))

    def test_first_hub_in_index_order(self):
        # A W5 with hub 0 and rim 1..5 beside a W7 with hub 6 and rim 7..13.
        w5 = [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]
        w7 = [(6, v) for v in range(7, 14)] + [(v, (v - 6) % 7 + 7) for v in range(7, 14)]
        g = Graph.from_edges(14, w5 + w7)
        assert find_odd_wheel(g) == (0, (1, 2, 3, 4, 5))
        # Reversing the labels puts the W7's hub first, at 7.
        assert find_odd_wheel(g.relabel(tuple(range(13, -1, -1)))) == (
            7,
            (0, 1, 2, 3, 4, 5, 6),
        )

    @pytest.mark.parametrize(
        "g",
        [wheel(4), wheel(6), cycle(5), complete(4), chorded(wheel(5), 0, 2)],
        ids=["W4", "W6", "C5", "K4", "W5+chord"],
    )
    def test_none_without_odd_wheel(self, g):
        assert find_odd_wheel(g) is None

    @pytest.mark.parametrize(
        "g,found",
        [
            # Hub 6 sees the 5-cycle 0..4 and vertex 5, which closes the
            # triangle 0-1-5 beside it; the rim is the 5-cycle.
            (
                Graph.from_edges(7, [*cycle(5).edges, (0, 5), (1, 5)] + [(v, 6) for v in range(6)]),
                (6, (0, 1, 2, 3, 4)),
            ),
            # The chord 0-3 of W7's rim leaves the 4-cycle 0-1-2-3, tried first
            # from 0 and abandoned, and the 5-cycle 0-3-4-5-6.
            (chorded(wheel(7), 0, 3), (7, (0, 3, 4, 5, 6))),
            # Vertex 0 hangs off the rim 1..5 of a W5 with hub 6: the search
            # from 0 finds nothing, the one from 1 the 5-cycle.
            (
                Graph.from_edges(
                    7, [(0, 1)] + [(v, v % 5 + 1) for v in range(1, 6)] + [(v, 6) for v in range(6)]
                ),
                (6, (1, 2, 3, 4, 5)),
            ),
            # Hub 0 of a fan over the path 1..5, with the chords 1-3, 2-4 and
            # 3-5, sees triangles only: its neighbourhood is odd but holds no
            # rim.  A W5 on 6..11 comes after it.
            (
                Graph.from_edges(
                    12,
                    [(0, v) for v in range(1, 6)]
                    + [(v, v + 1) for v in range(1, 5)]
                    + [(1, 3), (2, 4), (3, 5)]
                    + [(u + 6, v + 6) for u, v in wheel(5).edges],
                ),
                (11, (6, 7, 8, 9, 10)),
            ),
        ],
        ids=["C5-in-six", "chorded-C7", "pendant-below-rim", "triangles-only-hub"],
    )
    def test_wheels_in_chorded_neighbourhoods(self, g, found):
        assert find_odd_wheel(g) == found

    @given(graphs(max_n=9))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, g):
        found = find_odd_wheel(g)
        assert (found is not None) == has_induced_odd_wheel(g)
        if found is not None:
            hub, rim = found
            assert check_odd_wheel(g, hub, rim)
            assert rim[0] == min(rim) and rim[1] < rim[-1]

    @pytest.mark.parametrize(
        "spec", ["cells 3x3", "cells 3x3; domino H 0 0", "cells 3x3; domino H 1 1"]
    )
    def test_agrees_with_chordless_link_finder_on_triangulations(self, spec):
        board = parse_board(spec)
        checked = 0
        for t in enumerate_triangulations(board):
            g = triangulate(board, t).graph
            if is_k_colourable(g, 3) is None:
                assert find_odd_wheel(g) == chordless_link_wheel(g)
                checked += 1
        assert checked


def has_induced_odd_wheel(g: Graph) -> bool:
    """Brute force: some odd set of >= 5 neighbours of a vertex induces a cycle."""
    for hub in range(g.n):
        ring = [v for v in range(g.n) if g.has_edge(hub, v)]
        for size in range(5, len(ring) + 1, 2):
            for rim in combinations(ring, size):
                if are_isomorphic(induced(g, rim), cycle(size)):
                    return True
    return False


def chordless_link_wheel(g: Graph):
    """Reference finder: the first hub whose whole neighbourhood is a chordless
    odd cycle of length >= 5, with its rim in the normal order."""
    for hub in range(g.n):
        ring = g.adj[hub]
        size = ring.bit_count()
        if size < 5 or not size & 1:
            continue
        if any((g.adj[v] & ring).bit_count() != 2 for v in range(g.n) if ring >> v & 1):
            continue
        start = (ring & -ring).bit_length() - 1
        nbrs = g.adj[start] & ring
        prev, cur = start, (nbrs & -nbrs).bit_length() - 1
        rim = [start]
        while cur != start:
            rim.append(cur)
            prev, cur = cur, (g.adj[cur] & ring & ~(1 << prev)).bit_length() - 1
        if len(rim) == size:
            return hub, tuple(rim)
    return None


class TestOddLinks:
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_odd_wheel_hubs(self, m):
        assert wheel(m).odd_links >> m & 1

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_even_wheel_hubs(self, m):
        assert not wheel(m).odd_links >> m & 1

    def test_empty_on_three_colourable_hosts(self):
        # A proper 3-colouring gives each neighbourhood at most two colours,
        # so find_forbidden returns at once on every 3-colourable host.
        for spec in ["cells 2x2", "cells 3x3", "cells 3x3; domino H 1 1"]:
            b = parse_board(spec)
            hosts = [triangulate(b, t).graph for t in enumerate_triangulations(b)]
            colourable = [g for g in hosts if is_k_colourable(g, 3) is not None]
            assert colourable and len(colourable) < len(hosts)
            assert all(g.odd_links == 0 for g in colourable)

    @staticmethod
    def assert_scan_order_free(make):
        """Fresh copies from ``make()`` find the same wheel and end with the
        same mask whether the mask is read before the finder, after it or
        never, and that mask is the one the definition gives."""
        before = make()
        mask = before.odd_links
        found = find_odd_wheel(before)
        assert before.odd_links == mask
        after = make()
        assert find_odd_wheel(after) == found
        assert after.odd_links == mask
        assert find_odd_wheel(make()) == found
        assert make().first_odd_link() == (mask & -mask).bit_length() - 1
        g = make()
        assert mask == sum(
            1 << v
            for v in range(g.n)
            if g.degree(v) >= 5 and is_k_colourable(induced(g, bits(g.adj[v])), 2) is None
        )

    @given(graphs(max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_scan_order_changes_nothing(self, g):
        self.assert_scan_order_free(lambda: Graph(g.n, g.edges))

    def test_scan_order_changes_nothing_on_board_hosts(self):
        b = parse_board("cells 3x3; domino V 0 1")
        for t in enumerate_triangulations(b):
            self.assert_scan_order_free(lambda: triangulate(b, t).graph)

    @given(graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_marks_exactly_the_non_bipartite_neighbourhoods(self, g):
        # Only vertices of degree >= 5 are tested: no smaller one can be a
        # hub of an odd wheel W_m, m >= 5.
        for v in range(g.n):
            link = induced(g, [u for u in range(g.n) if g.has_edge(u, v)])
            expected = g.degree(v) >= 5 and is_k_colourable(link, 2) is None
            assert bool(g.odd_links >> v & 1) == expected


class TestIsomorphism:
    def test_relabelled_cycle(self):
        assert are_isomorphic(cycle(4), cycle(4).relabel((2, 0, 3, 1)))

    def test_different_edge_counts(self):
        assert not are_isomorphic(wheel(5), cycle(6))

    def test_same_degrees_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 vertices.
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not are_isomorphic(cycle(6), two_triangles)

    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, g.relabel(tuple(perm)))

    def test_equivalence_relation_spot_checks(self):
        a, b, c = cycle(5), cycle(5).relabel((4, 2, 0, 3, 1)), cycle(5).relabel((1, 3, 0, 2, 4))
        assert are_isomorphic(a, a)
        assert are_isomorphic(a, b) == are_isomorphic(b, a)
        assert are_isomorphic(a, b) and are_isomorphic(b, c) and are_isomorphic(a, c)


def test_nonisomorphic_graph_counts():
    # OEIS A000088.
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
