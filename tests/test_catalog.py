from __future__ import annotations

import gc
import hashlib
import json

import pytest

from wordrep import catalog
from wordrep.boards import (
    Board,
    EmbeddedGraph,
    base_graph,
    enumerate_triangulations,
    parse_board,
    parse_triangulation,
    triangulate,
    walk_hosts,
)
from wordrep.catalog import (
    DRAWINGS,
    ClosurePolicy,
    ForbiddenHit,
    ForbiddenSet,
    closure_report,
    corner_closed_forms,
    corner_closed_obstructions,
    find_forbidden,
    forbidden_set,
    minimal_graphs,
    readings,
)
from wordrep.graphs import (
    Graph,
    are_isomorphic,
    chromatic_number,
    contains_induced,
    induced,
    is_k_colourable,
    wheel,
)
from wordrep.orientations import exists_semi_transitive

PATTERNS = {p.name: p for p in minimal_graphs()}


class TestPatterns:
    def test_twelve_patterns(self):
        assert len(minimal_graphs()) == 12
        assert sorted(PATTERNS) == [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B1", "B2", "T1", "T2",
        ]

    def test_vertex_and_edge_counts(self):
        for name, p in PATTERNS.items():
            if name.startswith("A"):
                assert p.embedded.graph.n == 11
                assert p.embedded.graph.edge_count == 20
                assert p.has_domino
            else:
                assert p.embedded.graph.n == 9
                assert p.embedded.graph.edge_count == 16
                assert p.has_domino == name.startswith("B")

    def test_all_four_chromatic(self):
        for p in PATTERNS.values():
            assert is_k_colourable(p.embedded.graph, 3) is None
            assert chromatic_number(p.embedded.graph) == 4

    def test_t_patterns_not_isomorphic(self):
        assert not are_isomorphic(PATTERNS["T1"].embedded.graph, PATTERNS["T2"].embedded.graph)

    def test_a6_a7_isomorphic_but_distinct_drawings(self):
        a6, a7 = PATTERNS["A6"].embedded, PATTERNS["A7"].embedded
        assert are_isomorphic(a6.graph, a7.graph)
        assert a6.coords != a7.coords or a6.graph != a7.graph

    def test_digest_guard_trips_on_corruption(self, monkeypatch):
        import wordrep.catalog as cat

        monkeypatch.setitem(cat.FIXTURE_DIGESTS, "T1", "0" * 16)
        cat.minimal_graphs.cache_clear()
        try:
            with pytest.raises(AssertionError, match="digest"):
                cat.minimal_graphs()
        finally:
            monkeypatch.undo()
            cat.minimal_graphs.cache_clear()
            assert len(cat.minimal_graphs()) == 12

    def test_drawings_match_the_former_sha256_digests(self):
        # The digests were the first 16 hex digits of SHA-256 until the check
        # moved to zlib; the drawings still give the values frozen then.
        former = {
            "T1": "26bf4f6c48baee20", "T2": "69b1764788222153",
            "A1": "efde74dda36be5a2", "A2": "65cc25025975524d",
            "A3": "09ef490cfee9b03e", "A4": "d995ba43fd58b936",
            "A5": "4311551b5d765206", "A6": "b627ff4944b11355",
            "A7": "98bf5fa310127c8d", "A8": "63a30ef63d83595c",
            "B1": "37521bc232e9bbde", "B2": "ca1753394e0bcd84",
        }
        assert set(PATTERNS) == set(former) == set(catalog.FIXTURE_DIGESTS)
        for name, p in PATTERNS.items():
            payload = json.dumps(
                {"coords": list(p.embedded.coords),
                 "edges": [list(e) for e in p.embedded.graph.edges]},
                separators=(",", ":"),
            )
            assert hashlib.sha256(payload.encode()).hexdigest()[:16] == former[name], name

    def test_drawing_must_name_every_cell(self):
        t1 = DRAWINGS["T1"]
        missing = {cell: d for cell, d in t1.diagonals.items() if cell != (1, 1)}
        with pytest.raises(ValueError, match="cells needing a diagonal"):
            readings(t1._replace(diagonals=missing))


class TestWheelContainments:
    def test_a1_loses_vertex_to_w9(self):
        a1 = PATTERNS["A1"].embedded
        drop = a1.coord_index()[(1, 0)]
        rest = [v for v in range(a1.graph.n) if v != drop]
        assert are_isomorphic(induced(a1.graph, rest), wheel(9))

    @pytest.mark.parametrize("name", ["A2", "A3", "A6", "A7"])
    def test_w7_carriers(self, name):
        assert contains_induced(PATTERNS[name].embedded.graph, wheel(7)) is not None

    @pytest.mark.parametrize("name", ["A4", "A5", "A8", "B1", "B2"])
    def test_w5_carriers(self, name):
        assert contains_induced(PATTERNS[name].embedded.graph, wheel(5)) is not None

    def test_a1_contains_w9(self):
        assert contains_induced(PATTERNS["A1"].embedded.graph, wheel(9)) is not None


HUB_RIM_LENGTHS = {
    "T1": 5, "T2": 7,
    "A1": 9, "A2": 7, "A3": 7, "A4": 5, "A5": 5, "A6": 7, "A7": 7, "A8": 5,
    "B1": 5, "B2": 5,
    "A1'": 9, "A3'": 7, "A8'": 5,
}  # fmt: skip


class TestHubs:
    def test_derived_rim_lengths(self):
        patterns = [*minimal_graphs(), *corner_closed_obstructions()]
        assert {p.name: p.rim_length for p in patterns} == HUB_RIM_LENGTHS

    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_every_member_keeps_its_base_rim_length(self, policy):
        for m in forbidden_set(policy).members:
            assert m.rim_length == HUB_RIM_LENGTHS[m.base_name]


class TestClosures:
    def test_footprint_counts(self):
        lit = forbidden_set(ClosurePolicy.LITERAL)
        ext = forbidden_set(ClosurePolicy.EXTENDED)
        assert len(lit.members) == 28
        assert len(ext.members) == 48
        lit_keys = {(m.embedded.coords, m.embedded.graph.edges) for m in lit.members}
        ext_keys = {(m.embedded.coords, m.embedded.graph.edges) for m in ext.members}
        assert lit_keys <= ext_keys

    def test_members_stay_four_chromatic(self):
        for m in forbidden_set(ClosurePolicy.EXTENDED).members:
            assert is_k_colourable(m.embedded.graph, 3) is None

    def test_members_isomorphic_to_their_base(self):
        bases = {p.name: p.embedded.graph for p in minimal_graphs()}
        for m in forbidden_set(ClosurePolicy.EXTENDED).members:
            assert are_isomorphic(m.embedded.graph, bases[m.base_name])

    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_closed_under_their_groups(self, policy):
        from wordrep.boards import Symmetry, transform
        from wordrep.catalog import _AB_GROUPS, _T_GROUPS

        s = forbidden_set(policy)
        keys = {(m.embedded.coords, m.embedded.graph.edges) for m in s.members}
        for m in s.members:
            group = _AB_GROUPS[policy] if "A" in m.base_name or "B" in m.base_name else _T_GROUPS[policy]
            for sym in group:
                image = transform(m.embedded, sym)
                assert (image.coords, image.graph.edges) in keys

    def test_closure_report(self):
        rep = closure_report()
        assert rep["base_patterns"] == 12
        assert rep["isomorphism_classes"] == 11
        assert rep["isomorphic_base_pairs"] == [["A6", "A7"]]
        assert rep["literal_footprints"] == 28
        assert rep["extended_footprints"] == 48
        assert rep["extended_only_footprints"] == 20
        assert rep["extended_adds_isomorphism_classes"] is False


class TestFindForbidden:
    def test_square_board_realising_t1(self):
        b = Board(2, 2)
        host = triangulate(b, parse_triangulation(b, "/\\//"))
        hit = find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED))
        assert hit is not None
        assert hit.name == "T1"
        assert hit.via_embedded

    def test_embedded_hit_confirmed_by_general_matcher(self):
        b = parse_board("cells 2x2; domino H 0 0")
        host = triangulate(b, parse_triangulation(b, "//F"))
        hit = find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED))
        assert hit is not None and hit.via_embedded
        base = hit.name.split("@")[0]
        image = induced(host.graph, hit.mapping)
        assert are_isomorphic(image, PATTERNS[base].embedded.graph)

    def test_three_colourable_host_clean(self):
        b = Board(2, 2)
        host = triangulate(b, parse_triangulation(b, "////"))
        assert find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED)) is None

    def test_host_smaller_than_patterns(self):
        b = Board(1, 1)
        host = triangulate(b, parse_triangulation(b, "/"))
        assert find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED)) is None

    def test_literal_policy_needs_general_fallback_for_flips(self):
        # The catalog's own mirror image is only grid-matched under the
        # extended policy; the general matcher still finds it under literal.
        b = parse_board("cells 2x2; domino H 0 0")
        host = triangulate(b, parse_triangulation(b, "\\\\R"))
        lit = find_forbidden(host, forbidden_set(ClosurePolicy.LITERAL))
        ext = find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED))
        assert lit is not None and ext is not None
        assert ext.via_embedded
        assert not lit.via_embedded

    def test_matcher_leaves_no_garbage(self):
        # A recursive closure in the general matcher would leave one
        # reference cycle per call (about 6,000 objects on this board's hosts),
        # which only the cycle collector frees.
        b = parse_board("cells 3x3; domino V 0 1")
        hosts = []
        walk_hosts(b, 0, 256, lambda literal, host: hosts.append(host))
        s = forbidden_set(ClosurePolicy.EXTENDED)
        gc.collect()
        gc.disable()
        try:
            hits = [find_forbidden(host, s) for host in hosts]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert sum(hit is not None and not hit.via_embedded for hit in hits) == 240


CLOSED = {m.base_name: m for m in corner_closed_forms()}


class TestCornerClosedForms:
    @pytest.mark.parametrize("name", [f"A{i}" for i in range(1, 9)])
    def test_forms_are_the_two_readings_of_the_corner_cell(self, name):
        # The corner cell's other diagonal joins the cut corner's two grid
        # neighbours, so the corner-closed form is the base pattern plus that
        # one edge; the catalog builds it by triangulating instead.
        r, c = DRAWINGS[name].cut_corner
        dr, dc = (1 if r == 0 else -1), (1 if c == 0 else -1)
        base, closed = PATTERNS[name].embedded, CLOSED[name].embedded
        index = base.coord_index()
        edge = (index[(r, c + dc)], index[(r + dr, c)])
        assert closed.coords == base.coords
        assert closed.graph == Graph.from_edges(base.graph.n, base.graph.edges + (edge,))
        assert closed.graph.edge_count == base.graph.edge_count + 1

    def test_only_a1_a3_a8_add_obstructions(self):
        assert [m.name for m in corner_closed_obstructions()] == ["A1'", "A3'", "A8'"]
        for m in corner_closed_forms():
            inside = {
                p.name
                for p in minimal_graphs()
                if contains_induced(m.embedded.graph, p.embedded.graph) is not None
            }
            if m in corner_closed_obstructions():
                assert not inside
            else:
                assert inside and inside <= {"T2", "B1", "B2"}

    @pytest.mark.parametrize("name,size", [("A1", 9), ("A3", 7), ("A8", 5)])
    def test_obstructions_are_non_representable(self, name, size):
        g = CLOSED[name].embedded.graph
        assert is_k_colourable(g, 3) is None
        assert exists_semi_transitive(g) is None
        assert contains_induced(g, wheel(size)) is not None

    def test_general_matcher_finds_a1_through_the_free_corner(self):
        b = parse_board("cells 2x3; domino H 0 0")
        host = triangulate(b, parse_triangulation(b, "/\\/\\F"))
        hit = find_forbidden(host, forbidden_set(ClosurePolicy.EXTENDED))
        assert hit is not None and hit.name == "A1" and not hit.via_embedded
        image = induced(host.graph, hit.mapping)
        assert are_isomorphic(image, CLOSED["A1"].embedded.graph)

    @pytest.mark.parametrize("spec", ["cells 2x3", "cells 2x3; domino H 0 0"])
    def test_hits_track_non_colourability(self, spec):
        b = parse_board(spec)
        s = forbidden_set(ClosurePolicy.EXTENDED)
        for t in enumerate_triangulations(b):
            host = triangulate(b, t)
            colourable = is_k_colourable(host.graph, 3) is not None
            assert (find_forbidden(host, s) is None) == colourable, t.literal()


def reference_embedded(host: EmbeddedGraph, s) -> tuple[str, tuple[int, ...]] | None:
    """Unanchored translation matcher: every member at every offset, row-major.

    Returns the member name and mapping of the first induced placement.
    """
    index = host.coord_index()
    max_hr = max(r for r, _ in host.coords)
    max_hc = max(c for _, c in host.coords)
    for member in s.members:
        p = member.embedded
        max_pr = max(r for r, _ in p.coords)
        max_pc = max(c for _, c in p.coords)
        for dr in range(max_hr - max_pr + 1):
            for dc in range(max_hc - max_pc + 1):
                mapping = [index.get((r + dr, c + dc)) for r, c in p.coords]
                if None not in mapping and induced_at(host.graph, p.graph, mapping):
                    return member.name, tuple(mapping)
    return None


def induced_at(g: Graph, pattern: Graph, mapping) -> bool:
    """Whether ``mapping`` is an induced embedding of ``pattern`` into ``g``."""
    return all(
        pattern.has_edge(u, v) == g.has_edge(mapping[u], mapping[v])
        for u in range(pattern.n)
        for v in range(u + 1, pattern.n)
    )


def reference_general(host: EmbeddedGraph) -> str | None:
    """Unanchored general matcher: base patterns, then corner-closed obstructions."""
    for p in minimal_graphs():
        if contains_induced(host.graph, p.embedded.graph) is not None:
            return p.name
    for m in corner_closed_obstructions():
        if contains_induced(host.graph, m.embedded.graph) is not None:
            return m.base_name
    return None


@pytest.mark.parametrize(
    "spec",
    [
        "cells 3x3",
        "cells 3x3; domino V 0 1",
        "cells 2x3; domino H 0 0",
        "cells 3x3; domino H 1 1",
    ],
)
def test_anchored_matchers_agree_with_unanchored_reference(spec):
    b = parse_board(spec)
    hosts = [(t.literal(), triangulate(b, t)) for t in enumerate_triangulations(b)]
    general = {literal: reference_general(host) for literal, host in hosts}
    for policy in ClosurePolicy:
        s = forbidden_set(policy)
        for literal, host in hosts:
            embedded = reference_embedded(host, s)
            want = embedded and ForbiddenHit(*embedded, via_embedded=True)
            assert find_forbidden(host, s, embedded_only=True) == want, (policy, literal)
            hit = find_forbidden(host, s)
            if embedded:
                assert hit == want, (policy, literal)
                continue
            name = general[literal]
            assert (hit and (hit.name, hit.via_embedded)) == (name and (name, False))
            if hit is not None:
                forms = [PATTERNS[name].embedded.graph]
                if name in CLOSED:
                    forms.append(CLOSED[name].embedded.graph)
                assert any(induced_at(host.graph, f, hit.mapping) for f in forms)


class TestPlacementTables:
    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_every_member_finds_itself(self, policy):
        # The A members leave their cut corner out, so their layouts have a hole.
        s = forbidden_set(policy)
        for m in s.members:
            e = m.embedded
            hit = find_forbidden(e, s, embedded_only=True)
            assert hit == ForbiddenHit(m.name, tuple(range(e.graph.n)), True), m.name

    def test_first_offset_in_row_major_order(self):
        # T1@rot180 is induced at two offsets of one row of this host (vertex
        # columns 0-2 and 2-4); the hit is the left one.
        b = Board(3, 4)
        host = triangulate(b, parse_triangulation(b, "////////\\/\\/"))
        for policy in ClosurePolicy:
            s = forbidden_set(policy)
            want = ForbiddenHit("T1@rot180", (5, 6, 7, 10, 11, 12, 15, 16, 17), True)
            assert reference_embedded(host, s) == (want.name, want.mapping)
            assert find_forbidden(host, s) == want

    @pytest.mark.parametrize("spec", ["cells 1x3", "cells 2x1"])
    def test_layout_smaller_than_every_footprint(self, spec):
        b = parse_board(spec)
        for policy in ClosurePolicy:
            s = forbidden_set(policy)
            for t in enumerate_triangulations(b):
                host = triangulate(b, t)
                assert s.placements(host.coords) == ()
                hit = find_forbidden(host, s)
                assert (hit and hit.name) == reference_general(host)

    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_grouped_by_image_keeping_every_placement(self, policy):
        # The placements of the 3x3 layout fall into 12 images.  A group
        # starts at its earliest placement and maps each edge mask to a
        # placement of its image, so no placement is lost.
        s = forbidden_set(policy)
        coords = base_graph(Board(3, 3)).coords
        flat = catalog._placements(s.members, coords)
        groups = s.placements(coords)
        assert (len(flat), len(groups)) == ((128 if policy is ClosurePolicy.EXTENDED else 80), 12)
        assert [first for first, _, _ in groups] == sorted(first for first, _, _ in groups)
        kept = sorted(hit for _, _, hits in groups for hit in hits.values())
        assert kept == [(i, name, mapping) for i, (name, _, _, mapping) in enumerate(flat)]
        for first, pairs, hits in groups:
            assert first == min(i for i, _, _ in hits.values())
            assert all(flat[i][1:3] == (pairs, edges) for edges, (i, _, _) in hits.items())

    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_table_built_once_per_layout(self, policy):
        coords = triangulate(Board(3, 3), parse_triangulation(Board(3, 3), "/" * 9)).coords
        s = forbidden_set(policy)
        assert s.placements(coords) is forbidden_set(policy).placements(coords)

    @pytest.mark.parametrize("policy", list(ClosurePolicy))
    def test_set_stays_equal_and_hashable(self, policy):
        s = forbidden_set(policy)
        s.placements(triangulate(Board(2, 2), parse_triangulation(Board(2, 2), "////")).coords)
        fresh = ForbiddenSet(s.policy, s.members)
        assert s == fresh and hash(s) == hash(fresh)
        assert {s: policy}[fresh] is policy
