from __future__ import annotations

import gc
import itertools
import random
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep import orientations
from wordrep.boards import enumerate_triangulations, parse_board, triangulate
from wordrep.catalog import ClosurePolicy, forbidden_set
from wordrep.errors import BudgetExceededError
from wordrep.graphs import (
    Colouring,
    Graph,
    complete,
    cycle,
    find_odd_wheel,
    is_k_colourable,
    nonisomorphic_graphs,
    wheel,
)
from wordrep.orientations import (
    Orientation,
    certify,
    check_odd_wheel,
    cycle_is_comparability,
    decide_word_representable,
    exists_semi_transitive,
    find_shortcut,
    is_acyclic,
    is_semi_transitive,
    orientation_from_arcs,
    orientation_from_colouring,
    semi_transitive_certificate,
)
from wordrep.verify import classify
from wordrep.words import graph_of_word

from reference import (
    reference_check_odd_wheel,
    reference_colouring,
    reference_descendants,
    reference_has_shortcut,
)


def transitive_tournament(n: int) -> Orientation:
    g = complete(n)
    return orientation_from_arcs(g, [(u, v) for u, v in g.edges])


def per_edge(g: Graph, forward) -> Orientation:
    """Edge (u, v), u < v, oriented u -> v where ``forward`` marks it, else v -> u."""
    return orientation_from_arcs(
        g, [(u, v) if f else (v, u) for (u, v), f in zip(g.edges, forward)]
    )


class TestOrientationValues:
    def test_wrong_mask_count(self):
        with pytest.raises(ValueError, match="per vertex"):
            Orientation(complete(3), (0b110, 0b100))

    def test_non_edge_arc(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not an edge"):
            Orientation(path, (0b110, 0b100, 0))

    def test_edge_in_both_directions(self):
        with pytest.raises(ValueError, match="exactly one direction"):
            Orientation(complete(2), (0b10, 0b01))

    def test_unoriented_edge(self):
        with pytest.raises(ValueError, match="exactly one direction"):
            Orientation(complete(2), (0, 0))

    @pytest.mark.parametrize("arc", [(0, 3), (3, 0), (-1, 0), (0, -1)])
    def test_out_of_range_arc(self, arc):
        with pytest.raises(ValueError, match="not an edge"):
            orientation_from_arcs(cycle(3), [arc])

    def test_arcs_and_json_follow_edge_order(self):
        o = orientation_from_arcs(cycle(3), [(1, 2), (2, 0), (1, 0)])
        assert o.arcs() == [(1, 0), (2, 0), (1, 2)]
        assert o.to_json_obj() == {"edges": [[0, 1, "vu"], [0, 2, "vu"], [1, 2, "uv"]]}
        assert o.has_arc(1, 0) and not o.has_arc(0, 1) and not o.has_arc(0, 5)

    def test_reversed_twice_is_original(self):
        for o in (transitive_tournament(5), exists_semi_transitive(wheel(6))):
            r = o.reversed()
            assert r.arcs() == [(h, t) for t, h in o.arcs()]
            assert r.reversed() == o


class TestAcyclicity:
    def test_transitive_tournament(self):
        assert is_acyclic(transitive_tournament(4))

    def test_directed_triangle(self):
        o = orientation_from_arcs(complete(3), [(0, 1), (1, 2), (2, 0)])
        assert not is_acyclic(o)

    def test_partial_rejected(self):
        with pytest.raises(ValueError):
            orientation_from_arcs(cycle(3), [(0, 1), (1, 2)])


class TestShortcuts:
    def test_minimal_shortcut(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        o = orientation_from_arcs(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = find_shortcut(o)
        assert w is not None
        assert w.path == (0, 1, 2, 3)
        assert w.missing in ((0, 2), (1, 3))
        assert w.verify(o)

    def test_transitive_tournaments_have_none(self):
        for n in range(4, 7):
            assert find_shortcut(transitive_tournament(n)) is None

    def test_square_orientations(self):
        # Of the 14 acyclic orientations of the 4-cycle, the 8 that orient a
        # three-arc path plus a same-direction closing arc are shortcuts; the
        # other 6 are semi-transitive.
        acyclic = semi_transitive = 0
        for forward in itertools.product((True, False), repeat=4):
            o = per_edge(cycle(4), forward)
            if is_acyclic(o):
                acyclic += 1
                w = find_shortcut(o)
                if w is None:
                    semi_transitive += 1
                else:
                    assert w.verify(o)
        assert acyclic == 14
        assert semi_transitive == 6

    def test_cyclic_rejected(self):
        o = orientation_from_arcs(complete(3), [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            find_shortcut(o)

    def test_witness_self_contained(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        o = orientation_from_arcs(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = find_shortcut(o)
        arcs = [(w.path[i], w.path[i + 1]) for i in range(len(w.path) - 1)]
        arcs.append((w.path[0], w.path[-1]))
        for arc in arcs:
            weakened = [(h, t) if (t, h) == arc else (t, h) for t, h in o.arcs()]
            assert not w.verify(orientation_from_arcs(g, weakened))


def semi_transitive_by_paths(o: Orientation) -> bool:
    """The definition, by enumerating every simple directed path."""
    arcs = set(o.arcs())
    stack = [(v,) for v in range(o.graph.n)]
    while stack:
        p = stack.pop()
        if (p[-1], p[0]) in arcs:
            return False  # the path closes a directed cycle
        if (
            len(p) >= 4
            and (p[0], p[-1]) in arcs
            and not set(itertools.combinations(p, 2)) <= arcs
        ):
            return False
        stack.extend(p + (h,) for t, h in arcs if t == p[-1] and h not in p)
    return True


@pytest.mark.parametrize(
    "g",
    [cycle(4), cycle(5), complete(4), wheel(4), wheel(5), complete(5)],
    ids=["C4", "C5", "K4", "W4", "W5", "K5"],
)
def test_shortcut_scan_matches_definition_on_every_orientation(g):
    any_passes = False
    for forward in itertools.product((True, False), repeat=g.edge_count):
        o = per_edge(g, forward)
        expected = semi_transitive_by_paths(o)
        assert is_semi_transitive(o) == expected
        any_passes = any_passes or expected
        if is_acyclic(o):
            w = find_shortcut(o)
            assert (w is None) == expected
            assert w is None or w.verify(o)
    assert (exists_semi_transitive(g) is None) == (not any_passes)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_shortcut_scan_matches_reference_on_random_acyclic_orientations(data):
    # Up to 12 vertices, each edge oriented up a random vertex rank.
    n = data.draw(st.integers(1, 12))
    size = n * (n - 1) // 2
    g = chosen_graph(n, data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    rank = data.draw(st.permutations(range(n)))
    o = orientation_from_arcs(g, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
    shortcut = reference_has_shortcut(g.adj, o.out, reference_descendants(o.out))
    assert is_semi_transitive(o) == (not shortcut)
    w = find_shortcut(o)
    assert (w is not None) == shortcut
    assert w is None or w.verify(o)


def longest_path_vertices(o: Orientation) -> int:
    """The vertex count of a longest directed path of an acyclic
    orientation, by enumerating every directed path."""
    arcs = o.arcs()
    longest = 0
    stack = [(v,) for v in range(o.graph.n)]
    while stack:
        p = stack.pop()
        longest = max(longest, len(p))
        stack.extend(p + (h,) for t, h in arcs if t == p[-1])
    return longest


class TestLayers:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_layers_match_brute_force(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = itertools.combinations(range(n), 2)
        g = Graph(n, tuple(e for e in pairs if data.draw(st.booleans())))
        forward = [data.draw(st.booleans()) for _ in g.edges]
        o = per_edge(g, forward)
        layers = orientations._layers(g.adj, o.out)
        assert (layers is None) == (reference_descendants(o.out) is None)
        assert is_semi_transitive(o) == semi_transitive_by_paths(o)
        if layers is None:
            return
        assert sorted(v for layer in layers for v in layer) == list(range(n))
        level = {v: k for k, layer in enumerate(layers) for v in layer}
        assert all(level[t] < level[h] for t, h in o.arcs())
        for k in range(1, len(layers)):
            for v in layers[k]:
                assert any(o.has_arc(u, v) for u in layers[k - 1])
        assert len(layers) == longest_path_vertices(o)


class TestColourOrientation:
    def test_triangle(self):
        o = orientation_from_colouring(complete(3), Colouring((1, 2, 3)))
        assert o.has_arc(0, 1) and o.has_arc(1, 2) and o.has_arc(0, 2)
        assert is_semi_transitive(o)

    def test_bipartite_square(self):
        o = orientation_from_colouring(cycle(4), Colouring((1, 2, 1, 2)))
        assert all(o.has_arc(u, v) == (u in (0, 2)) for u, v in [(0, 1), (2, 3)])
        assert is_semi_transitive(o)

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            orientation_from_colouring(complete(3), Colouring((1, 1, 2)))

    def test_rejects_fourth_colour(self):
        with pytest.raises(ValueError):
            orientation_from_colouring(Graph(2, ()), Colouring((1, 4)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_refuses_exactly_the_improper_colourings(self, data):
        n = data.draw(st.integers(0, 10))
        pairs = itertools.combinations(range(n), 2)
        g = Graph(n, tuple(e for e in pairs if data.draw(st.booleans())))
        colours = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
        if any(colours[u] == colours[v] for u, v in g.edges):
            with pytest.raises(ValueError, match="not proper"):
                orientation_from_colouring(g, Colouring(colours))
            return
        o = orientation_from_colouring(g, Colouring(colours))
        assert all(o.has_arc(u, v) == (colours[u] < colours[v]) for u, v in g.edges)
        assert all(o.has_arc(v, u) == (colours[v] < colours[u]) for u, v in g.edges)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tripartite_ladders_are_semi_transitive(self, data):
        n = data.draw(st.integers(3, 10))
        classes = [data.draw(st.integers(1, 3)) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if classes[u] != classes[v] and data.draw(st.booleans())
        ]
        g = Graph.from_edges(n, edges)
        o = orientation_from_colouring(g, Colouring(tuple(classes)))
        assert is_semi_transitive(o)


class TestSearch:
    def test_complete_graphs(self):
        for n in (2, 3, 4, 5):
            o = exists_semi_transitive(complete(n))
            assert o is not None and is_semi_transitive(o)

    def test_odd_wheels_exhausted(self):
        assert exists_semi_transitive(wheel(5)) is None
        assert exists_semi_transitive(wheel(7)) is None

    def test_even_wheel_found(self):
        o = exists_semi_transitive(wheel(6))
        assert o is not None and is_semi_transitive(o)

    def test_certificates_reverse(self):
        for g in (cycle(5), wheel(6), complete(4)):
            o = exists_semi_transitive(g)
            assert o is not None
            assert is_semi_transitive(o.reversed())

    def test_vertex_budget(self):
        path = Graph.from_edges(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(BudgetExceededError):
            exists_semi_transitive(path)

    def test_edge_budget(self):
        with pytest.raises(BudgetExceededError):
            exists_semi_transitive(complete(11))
        with pytest.raises(BudgetExceededError):
            exists_semi_transitive(cycle(5), edge_budget=3)

    def test_search_leaves_no_garbage(self):
        # A search built from a self-recursive closure would leave one
        # reference cycle per call, which only the cycle collector frees.
        words = [
            (0, 1, 2, 3, 0, 2, 1, 3, 4, 0, 4, 2),
            (0, 1, 2, 0, 3, 1, 4, 2, 3, 5, 4, 0, 5, 1),
            (3, 0, 4, 1, 5, 2, 0, 3, 1, 4, 2, 5, 6, 0, 6, 3),
        ]
        graphs = [complete(4), wheel(5), wheel(6), cycle(5)]
        graphs += [graph_of_word(w, max(w) + 1) for w in words]
        gc.collect()
        gc.disable()
        try:
            found = [exists_semi_transitive(g) for g in graphs]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [o is not None for o in found] == [True, False, True, True, True, True, True]


def reference_search(g: Graph) -> Optional[tuple[bool, ...]]:
    """The search with the closure and every check rebuilt from scratch.

    Same edge order and branch order as ``exists_semi_transitive``; after
    each branch it recomputes the descendants, scans every arc for a
    shortcut and every edge for a forced direction, until nothing changes.
    The closure and the shortcut scan are ``reference``'s, so they share no
    code with the library's.  Returns, per edge (u, v) in edge order,
    whether it is oriented u -> v.
    """
    m = g.edge_count
    order = sorted(
        range(m),
        key=lambda i: (-min(g.degree(g.edges[i][0]), g.degree(g.edges[i][1])), g.edges[i]),
    )
    dirs: list[Optional[bool]] = [None] * m

    def out_masks() -> list[int]:
        out = [0] * g.n
        for (u, v), d in zip(g.edges, dirs):
            if d is not None:
                t, h = (u, v) if d else (v, u)
                out[t] |= 1 << h
        return out

    def propagate(trail: list[int]) -> bool:
        while True:
            out = out_masks()
            desc = reference_descendants(out)
            if desc is None or reference_has_shortcut(g.adj, out, desc):
                return False
            forced = []
            for i, (u, v) in enumerate(g.edges):
                if dirs[i] is None and desc[u] >> v & 1:
                    forced.append(i)
                    dirs[i] = True
                elif dirs[i] is None and desc[v] >> u & 1:
                    forced.append(i)
                    dirs[i] = False
            if not forced:
                return True
            trail += forced

    def solve(pos: int, first_branch: bool) -> bool:
        while pos < m and dirs[order[pos]] is not None:
            pos += 1
        if pos == m:
            return True
        i = order[pos]
        for d in (True,) if first_branch else (True, False):
            trail = [i]
            dirs[i] = d
            if propagate(trail) and solve(pos + 1, False):
                return True
            for j in trail:
                dirs[j] = None
        return False

    return tuple(dirs) if solve(0, True) else None


def assert_search_matches_reference(g: Graph) -> None:
    o = exists_semi_transitive(g)
    found = None if o is None else tuple(o.has_arc(u, v) for u, v in g.edges)
    assert found == reference_search(g), g


def chosen_graph(n: int, chosen) -> Graph:
    """The graph on n vertices keeping the pairs (u, v), u < v, that ``chosen`` marks."""
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, tuple(e for e, keep in zip(pairs, chosen) if keep))


def wheel_with_extras(rng: random.Random) -> Graph:
    m = rng.choice((5, 7))
    w = wheel(m)
    n = w.n + rng.randint(1, 3)
    edges = list(w.edges)
    for x in range(w.n, n):
        edges += [(u, x) for u in range(x) if rng.random() < 0.35] or [(0, x)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, edges).relabel(tuple(perm))


class TestSearchExactness:
    """The incremental search returns what the from-scratch search returns."""

    def test_every_labelled_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            for chosen in itertools.product((False, True), repeat=n * (n - 1) // 2):
                assert_search_matches_reference(chosen_graph(n, chosen))

    @pytest.mark.parametrize(
        "g",
        [wheel(m) for m in range(4, 10)] + [complete(n) for n in range(1, 7)],
        ids=[f"W{m}" for m in range(4, 10)] + [f"K{n}" for n in range(1, 7)],
    )
    def test_wheels_and_cliques(self, g):
        assert_search_matches_reference(g)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, data):
        n = data.draw(st.integers(1, 9))
        size = n * (n - 1) // 2
        chosen = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        assert_search_matches_reference(chosen_graph(n, chosen))

    def test_odd_wheels_with_extra_vertices(self):
        rng = random.Random("odd wheels with extras")
        for _ in range(24):
            assert_search_matches_reference(wheel_with_extras(rng))

    def test_double_occurrence_word_graphs(self):
        # The shape every searched "yes" of the decide benchmark has: the
        # graph of a word holding each of 10-16 letters twice, within the
        # edge budget and not 3-colourable, so certify reaches the search.
        rng = random.Random("double-occurrence word graphs")
        found = 0
        while found < 40:
            n = rng.randint(10, 16)
            word = list(range(n)) * 2
            rng.shuffle(word)
            g = graph_of_word(word, n)
            if g.edge_count > orientations.DEFAULT_EDGE_BUDGET or is_k_colourable(g, 3) is not None:
                continue
            assert exists_semi_transitive(g) is not None
            assert_search_matches_reference(g)
            found += 1


class TestDecide:
    def test_square_yes(self):
        assert decide_word_representable(cycle(4))

    def test_w5_no(self):
        assert not decide_word_representable(wheel(5))

    def test_single_vertex(self):
        assert decide_word_representable(Graph(1, ()))

    def test_fast_path_produces_checked_certificate(self):
        o = semi_transitive_certificate(cycle(6))
        assert o is not None and is_semi_transitive(o)
        assert is_k_colourable(cycle(6), 3) is not None

    def test_agreement_with_word_oracle_small(self):
        from wordrep.words import represents, search_uniform_word

        for g in nonisomorphic_graphs(4):
            assert decide_word_representable(g)
            w = next(
                w
                for k in (1, 2, 3)
                if (w := search_uniform_word(g, k)) is not None
            )
            assert represents(w, g)

    def test_searched_certificate_is_rechecked(self, monkeypatch):
        # Neither 3-colourable nor holding an odd wheel, so the certificate
        # comes from the search.
        g = complete(4)
        cyclic = orientation_from_arcs(g, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        assert not is_acyclic(cyclic)
        monkeypatch.setattr(orientations, "exists_semi_transitive", lambda g, budget: cyclic)
        with pytest.raises(AssertionError, match="searched orientation"):
            semi_transitive_certificate(g)

    @pytest.mark.parametrize(
        "arcs",
        [[(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1), (1, 2), (2, 3), (0, 3)]],
        ids=["cycle", "four-layer-shortcut"],
    )
    def test_colour_level_certificate_is_rechecked(self, monkeypatch, arcs):
        # C4 is 3-colourable and holds no odd wheel, so the certificate comes
        # from the colouring; a directed cycle fails the sort, and the path
        # 0 -> 1 -> 2 -> 3 closed by 0 -> 3 has four layers and a shortcut.
        g = cycle(4)
        bad = orientation_from_arcs(g, arcs)
        monkeypatch.setattr(orientations, "orientation_from_colouring", lambda g, c: bad)
        with pytest.raises(AssertionError, match="colour-level orientation"):
            certify(g)

    def test_colour_route_rechecks_by_layers_alone(self, monkeypatch):
        def no_reach(out, layers):
            raise AssertionError("the reach step ran")

        monkeypatch.setattr(orientations, "_reach", no_reach)
        board = parse_board("cells 3x3")
        s = forbidden_set(ClosurePolicy.EXTENDED)
        routes = [classify(triangulate(board, t), s).route for t in enumerate_triangulations(board)]
        assert "colouring" in routes
        assert set(routes) <= {"colouring", "odd_wheel"}

    def test_odd_wheels_with_extra_vertices_are_certified(self, monkeypatch):
        def no_search(g, budget):
            raise AssertionError("the search ran")

        monkeypatch.setattr(orientations, "exists_semi_transitive", no_search)
        rng = random.Random("odd wheels with extras")
        for _ in range(24):
            g = wheel_with_extras(rng)
            found = find_odd_wheel(g)
            assert found is not None and check_odd_wheel(g, *found)
            assert semi_transitive_certificate(g) is None

    def test_odd_wheel_is_rechecked(self, monkeypatch):
        monkeypatch.setattr(orientations, "find_odd_wheel", lambda g: (6, (0, 1, 2, 3, 4)))
        with pytest.raises(AssertionError, match="odd wheel"):
            semi_transitive_certificate(wheel(6))

    def test_orientation_json(self):
        o = semi_transitive_certificate(complete(3))
        obj = o.to_json_obj()
        assert all(len(entry) == 3 and entry[2] in ("uv", "vu") for entry in obj["edges"])


def masks(o: Optional[Orientation]) -> Optional[tuple[int, ...]]:
    return None if o is None else o.out


def colour_first(g: Graph) -> tuple[Optional[Orientation], Optional[dict]]:
    """The routes ``verify.classify`` took before ``certify``: a 3-colouring,
    then a re-checked odd wheel, then the search, with their certificates.
    The colouring is the reference backtracker's."""
    colours = reference_colouring(g, 3)
    if colours is not None:
        return orientation_from_colouring(g, Colouring(colours)), {"colouring": list(colours)}
    found = find_odd_wheel(g)
    if found is not None and check_odd_wheel(g, *found):
        hub, rim = found
        return None, {"odd_wheel": (hub, *rim)}
    o = exists_semi_transitive(g)
    return o, None if o is None else {"orientation": o.to_json_obj()}


def wheel_first(g: Graph) -> Optional[Orientation]:
    """The routes ``semi_transitive_certificate`` took before ``certify``: a
    re-checked odd wheel, then a 3-colouring, then the search."""
    found = find_odd_wheel(g)
    if found is not None:
        assert check_odd_wheel(g, *found)
        return None
    colours = reference_colouring(g, 3)
    if colours is not None:
        return orientation_from_colouring(g, Colouring(colours))
    return exists_semi_transitive(g)


def assert_certified_as_before(g: Graph) -> bool:
    """``certify`` agrees with both former route orders; returns whether its
    certificate is a colouring, after checking that against ``is_k_colourable``."""
    o, certificate = certify(g)
    expected_o, expected_certificate = colour_first(g)
    assert (masks(o), certificate) == (masks(expected_o), expected_certificate), g
    assert masks(o) == masks(wheel_first(g)), g
    colourable = certificate is not None and "colouring" in certificate
    assert colourable == (is_k_colourable(g, 3) is not None), g
    return colourable


class TestCertify:
    """One wheel-first ``certify`` gives the orientation and certificate of
    both former route orders: no 3-colourable graph holds an odd wheel."""

    def test_every_labelled_graph_up_to_five_vertices(self):
        for n in range(6):
            for chosen in itertools.product((False, True), repeat=n * (n - 1) // 2):
                assert_certified_as_before(chosen_graph(n, chosen))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, data):
        n = data.draw(st.integers(1, 9))
        size = n * (n - 1) // 2
        chosen = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        assert_certified_as_before(chosen_graph(n, chosen))

    def test_decide_workload_graphs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        items = workloads.decide_items(1)
        assert len(items) == 1260
        for item in items:
            assert_certified_as_before(Graph.from_edges(*workloads.item_edges(item)))

    @pytest.mark.parametrize("spec", ["cells 3x3", "cells 3x3; domino H 1 1"])
    def test_board_hosts(self, spec):
        board = parse_board(spec)
        s = forbidden_set(ClosurePolicy.EXTENDED)
        for t in enumerate_triangulations(board):
            host = triangulate(board, t)
            colourable = assert_certified_as_before(host.graph)
            assert classify(host, s).three_colourable == colourable


def without_edge(g: Graph, u: int, v: int) -> Graph:
    return Graph(g.n, tuple(e for e in g.edges if e != (u, v)))


@st.composite
def wheel_claims(draw):
    """A graph with a wheel W_m (m >= 3) planted on random vertices among
    random other edges, and its (hub, rim) claim, either as planted or with
    one fault: a rim chord, a missing spoke, a rim vertex repeated or out of
    range, or the rim listed out of cyclic order."""
    m = draw(st.sampled_from([5, 7, 9, 3, 4, 6, 8]))
    n = draw(st.sampled_from(range(m + 1, 12)))
    order = draw(st.permutations(range(n)))
    hub, rim = order[0], list(order[1 : m + 1])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {p for p in pairs if draw(st.booleans())}
    for i, u in enumerate(rim):
        edges.add((min(hub, u), max(hub, u)))
        for w in rim[i + 1 :]:
            edges.discard((min(u, w), max(u, w)))
        w = rim[(i + 1) % m]
        edges.add((min(u, w), max(u, w)))
    fault = draw(
        st.sampled_from(["none"] * 5 + ["chord", "spoke", "repeat", "range", "shuffle"])
    )
    i = draw(st.integers(0, m - 1))
    if fault == "chord" and m >= 4:
        u, w = rim[i], rim[(i + 2) % m]
        edges.add((min(u, w), max(u, w)))
    elif fault == "spoke":
        edges.discard((min(hub, rim[i]), max(hub, rim[i])))
    elif fault == "repeat":
        rim[i] = rim[i - 1]
    elif fault == "range":
        rim[i] = draw(st.sampled_from([-1, n, n + 3]))
    elif fault == "shuffle":
        rim = draw(st.permutations(rim))
    return Graph(n, tuple(sorted(edges))), hub, tuple(rim)


class TestOddWheelCertificate:
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_accepts_odd_wheels_in_either_direction(self, m):
        rim = tuple(range(m))
        assert check_odd_wheel(wheel(m), m, rim)
        assert check_odd_wheel(wheel(m), m, rim[::-1])
        assert check_odd_wheel(wheel(m), m, rim[2:] + rim[:2])

    @pytest.mark.parametrize(
        "g,hub,rim",
        [
            (wheel(6), 6, (0, 1, 2, 3, 4, 5)),
            (Graph.from_edges(6, [*wheel(5).edges, (0, 2)]), 5, (0, 1, 2, 3, 4)),
            (without_edge(wheel(5), 0, 5), 5, (0, 1, 2, 3, 4)),
            (wheel(5), 5, (0, 1, 2, 3, 0)),
            (wheel(5), 5, (0, 1, 2, 1, 0)),
            (wheel(5), 5, (5, 1, 2, 3, 4)),
            (wheel(3), 3, (0, 1, 2)),
            (wheel(5), 5, (0, 1, 2, 3, 9)),
            (wheel(5), 5, (0, 1, 2, 3, -1)),
            (wheel(5), 9, (0, 1, 2, 3, 4)),
            (wheel(5), 5, (0, 2, 1, 3, 4)),
            (wheel(5), 5, (0, 1)),
            (wheel(3), 3, (0, 1, 2) * 3),
        ],
        ids=[
            "even-rim",
            "rim-chord",
            "missing-spoke",
            "repeated-vertex",
            "doubled-back",
            "hub-on-rim",
            "three-rim",
            "out-of-range",
            "negative",
            "hub-out-of-range",
            "not-cyclic-order",
            "two-rim",
            "triangle-walked-thrice",
        ],
    )
    def test_rejects(self, g, hub, rim):
        assert not check_odd_wheel(g, hub, rim)

    @given(wheel_claims())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_pairwise_check_on_planted_wheels(self, claim):
        g, hub, rim = claim
        assert check_odd_wheel(g, hub, rim) == reference_check_odd_wheel(g, hub, rim)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_pairwise_check_on_any_claim(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, tuple(p for p in pairs if data.draw(st.booleans())))
        vertex = st.integers(-1, n)
        hub = data.draw(vertex)
        rim = data.draw(st.lists(vertex, max_size=9))
        assert check_odd_wheel(g, hub, rim) == reference_check_odd_wheel(g, hub, rim)

    def test_cycle_comparability(self):
        assert [m for m in range(3, 10) if cycle_is_comparability(m)] == [3, 4, 6, 8]

    @pytest.mark.parametrize("m", range(3, 10))
    def test_comparability_agrees_with_search(self, m):
        # W_m is word-representable iff its hub's neighbourhood C_m is a
        # comparability graph.
        assert cycle_is_comparability(m) == (exists_semi_transitive(wheel(m)) is not None)
