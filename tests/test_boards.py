from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep import boards
from wordrep.boards import (
    Axis,
    Board,
    Diag,
    Domino,
    DominoPattern,
    Symmetry,
    Triangulation,
    base_graph,
    domino_placements,
    enumerate_triangulations,
    flip_domino_pattern,
    parse_board,
    parse_triangulation,
    transform,
    transform_board,
    transform_triangulation,
    triangulate,
    triangulation_count,
    walk_hosts,
)
from wordrep.errors import BudgetExceededError
from wordrep.graphs import (
    are_isomorphic,
    chromatic_number,
    cycle,
    induced,
    is_k_colourable,
)

from reference import reference_base_graph, reference_triangulate


def assert_walk_gives(board, start, stop, expected):
    """``walk_hosts`` over start..stop-1 gives exactly ``expected``, a list of
    (literal, reference host), compared field by field."""
    walked = []
    walk_hosts(board, start, stop, lambda literal, host: walked.append((literal, host)))
    assert [literal for literal, _ in walked] == [literal for literal, _ in expected]
    for (literal, host), (_, reference) in zip(walked, expected):
        g, r = host.graph, reference.graph
        assert (g.n, g.edges, g.adj, g.matrix) == (r.n, r.edges, r.adj, r.matrix), literal
        assert host.coords == reference.coords, literal


class TestBoardType:
    def test_spec_round_trip(self):
        spec = "cells 2x3; domino H 1 1"
        assert parse_board(spec).spec_string() == spec

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            parse_board("cells 1x1; domino H 0 0")
        with pytest.raises(ValueError):
            Board(2, 2, (Domino(1, 1, Axis.V),))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Board(2, 3, (Domino(0, 0, Axis.H), Domino(0, 1, Axis.H)), exploratory=True)

    def test_multi_domino_needs_exploratory(self):
        dominoes = (Domino(0, 0, Axis.H), Domino(1, 0, Axis.H))
        with pytest.raises(ValueError):
            Board(2, 2, dominoes)
        assert Board(2, 2, dominoes, exploratory=True).unit_cells() == ()

    def test_bad_specs(self):
        for spec in ("", "cells x2", "cells 2x2; domino X 0 0", "domino H 0 0"):
            with pytest.raises(ValueError):
                parse_board(spec)


class TestBaseGraph:
    def test_unit_square(self):
        e = base_graph(Board(1, 1))
        assert e.graph.n == 4 and e.graph.edge_count == 4

    def test_domino_hexagon(self):
        e = base_graph(parse_board("cells 1x2; domino H 0 0"))
        assert e.graph.n == 6 and e.graph.edge_count == 6
        assert are_isomorphic(e.graph, cycle(6))

    def test_hexagon_chordless_inside_larger_board(self):
        board = parse_board("cells 2x2; domino H 0 0")
        e = base_graph(board)
        idx = e.coord_index()
        corners = [idx[rc] for rc in board.dominoes[0].corners()]
        assert are_isomorphic(induced(e.graph, corners), cycle(6))

    def test_three_domino_board(self):
        # 3x4-cell board with two horizontal dominoes and one vertical one.
        board = Board(
            3,
            4,
            (Domino(0, 0, Axis.H), Domino(1, 0, Axis.V), Domino(2, 2, Axis.H)),
            exploratory=True,
        )
        e = base_graph(board)
        assert e.graph.n == 20
        assert e.graph.edge_count == 28


class TestTriangulate:
    def test_unit_square_slash(self):
        b = Board(1, 1)
        e = triangulate(b, parse_triangulation(b, "/"))
        assert e.graph.edge_count == 5

    def test_hexagon_fall_chords(self):
        b = parse_board("cells 1x2; domino H 0 0")
        e = triangulate(b, parse_triangulation(b, "F"))
        assert e.graph.edge_count == 9
        idx = e.coord_index()
        for a, c in (((0, 0), (1, 1)), ((0, 0), (1, 2)), ((0, 1), (1, 2))):
            assert e.graph.has_edge(idx[a], idx[c])

    def test_two_by_two_all_slash(self):
        b = Board(2, 2)
        e = triangulate(b, parse_triangulation(b, "////"))
        assert e.graph.n == 9 and e.graph.edge_count == 16

    def test_edge_count_formula(self):
        for spec in ("cells 2x2", "cells 2x2; domino H 0 0", "cells 2x3; domino H 1 1"):
            b = parse_board(spec)
            base = base_graph(b).graph.edge_count
            for t in enumerate_triangulations(b):
                e = triangulate(b, t)
                assert (
                    e.graph.edge_count
                    == base + len(b.unit_cells()) + 3 * len(b.dominoes)
                )

    def test_triangulations_are_three_or_four_chromatic(self):
        b = parse_board("cells 2x2; domino H 1 0")
        for t in enumerate_triangulations(b):
            assert chromatic_number(triangulate(b, t).graph) in (3, 4)

    def test_three_domino_triangulation(self):
        board = Board(
            3,
            4,
            (Domino(0, 0, Axis.H), Domino(1, 0, Axis.V), Domino(2, 2, Axis.H)),
            exploratory=True,
        )
        # cells row-major: (0,2),(0,3),(1,1),(1,2),(1,3),(2,1); then H, V, H.
        t = parse_triangulation(board, "//" + "//\\" + "\\" + "RFF")
        e = triangulate(board, t)
        assert e.graph.edge_count == 28 + 6 + 9
        assert chromatic_number(e.graph) in (3, 4)

    def test_shape_mismatch(self):
        b = Board(2, 2)
        with pytest.raises(ValueError):
            parse_triangulation(b, "///")

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("/xF", "'x' is not a valid Diag"),
            ("F/F", "'F' is not a valid Diag"),
            ("//x", "'x' is not a valid DominoPattern"),
            ("///", "'/' is not a valid DominoPattern"),
        ],
    )
    def test_bad_character_message(self, literal, message):
        # The enum's own message, as reading every character through the
        # enum constructor gave it.
        b = parse_board("cells 2x2; domino H 0 0")
        with pytest.raises(ValueError) as caught:
            parse_triangulation(b, literal)
        assert str(caught.value) == message

    def test_unit_cells_are_worked_out_once_per_board(self):
        b = parse_board("cells 3x3; domino V 0 1")
        assert b.unit_cells() is b.unit_cells()
        covered = {(0, 1), (1, 1)}
        assert b.unit_cells() == tuple(
            (r, c) for r in range(3) for c in range(3) if (r, c) not in covered
        )


class TestHostBuilder:
    BOARDS = [
        "cells 1x1",
        "cells 1x4",
        "cells 4x1",
        "cells 3x3",
        "cells 3x3; domino H 1 1",
        "cells 3x3; domino V 0 1",
        "cells 4x3; domino V 1 1",
        "cells 2x5; domino H 0 3",
        "cells 2x3; domino H 0 0; domino V 0 2",
    ]

    @pytest.mark.parametrize("spec", BOARDS)
    def test_every_host_equals_the_per_host_reference(self, spec):
        b = parse_board(spec, exploratory=True)
        expected = []
        for t in enumerate_triangulations(b):
            host, reference = triangulate(b, t), reference_triangulate(b, t)
            # Graph equality skips Graph.adj, so the rows are compared too.
            assert host == reference, t.literal()
            assert host.graph.adj == reference.graph.adj, t.literal()
            expected.append((t.literal(), reference))
        assert_walk_gives(b, 0, len(expected), expected)

    @given(
        st.sampled_from(["cells 3x3; domino V 0 1", "cells 2x5; domino H 1 3"]),
        st.integers(0, 512),
        st.integers(0, 512),
    )
    @settings(max_examples=40, deadline=None)
    def test_walk_gives_exactly_its_range(self, spec, start, stop):
        b = parse_board(spec)
        expected = [
            (t.literal(), reference_triangulate(b, t))
            for t in list(enumerate_triangulations(b))[start:stop]
        ]
        assert_walk_gives(b, start, stop, expected)

    def test_walk_checks_the_budget_before_any_layout(self, monkeypatch):
        # cells 1x21 has 44 vertices, too many for a Graph: the budget must
        # be what refuses it.
        monkeypatch.setattr(boards, "_layout", None)
        with pytest.raises(BudgetExceededError, match="21 binary choices exceed"):
            walk_hosts(parse_board("cells 1x21"), 0, 1, lambda literal, host: None)

    def test_walk_leaves_no_garbage(self):
        b = parse_board("cells 3x3; domino V 0 1")
        gc.collect()
        gc.disable()
        try:
            walk_hosts(b, 0, 256, lambda literal, host: None)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "spec", ["cells 3x3", "cells 3x3; domino V 0 1", "cells 2x5; domino H 1 3"]
    )
    def test_template_fills_the_matrix(self, spec):
        # The walk ORs each chosen pair's bits into the board's base matrix;
        # a one-off host, like any graph from the public constructor, packs
        # its rows on first use, to the same value.
        b = parse_board(spec)
        walked = {}
        walk_hosts(b, 0, triangulation_count(b),
                   lambda literal, host: walked.setdefault(literal, host.graph))
        for literal, w in walked.items():
            packed = sum(a << (u * w.n) for u, a in enumerate(w.adj))
            assert vars(w)["matrix"] == packed, literal
            g = triangulate(b, parse_triangulation(b, literal)).graph
            assert "matrix" not in vars(g), literal
            assert g.matrix == vars(w)["matrix"], literal

    @pytest.mark.parametrize("spec", BOARDS)
    def test_base_graph_equals_the_reference(self, spec):
        b = parse_board(spec, exploratory=True)
        assert base_graph(b) == reference_base_graph(b)

    @pytest.mark.parametrize("spec", BOARDS)
    def test_literal_joins_the_member_values(self, spec):
        b = parse_board(spec, exploratory=True)
        for t in enumerate_triangulations(b):
            literal = t.literal()
            assert literal == "".join(d.value for d in t.cell_diag) + "".join(
                p.value for p in t.domino_pattern
            )
            assert parse_triangulation(b, literal) == t

    @pytest.mark.parametrize(
        "fault",
        [
            "base edge repeated",
            "base edge out of range",
            "base edges unsorted",
            "diagonal on a base edge",
            "both diagonals equal",
            "diagonal out of range",
            "diagonal reversed",
            "chord repeated",
            "chord out of range",
            "coordinates repeated",
        ],
    )
    def test_template_is_checked_once(self, monkeypatch, fault):
        b = parse_board("cells 2x2; domino H 0 0")
        coords, base, cells, chords = boards._layout(b)
        (fall, rise), n = chords[0], b.vertex_count
        if fault == "base edge repeated":
            base = base[:1] + base
        elif fault == "base edge out of range":
            base = base + [(n - 1, n)]
        elif fault == "base edges unsorted":
            base = base[::-1]
        elif fault == "diagonal on a base edge":
            cells = [(base[0], cells[0][1])]
        elif fault == "both diagonals equal":
            cells = [(cells[0][0], cells[0][0])]
        elif fault == "diagonal out of range":
            cells = [(cells[0][0], (0, n))]
        elif fault == "diagonal reversed":
            cells = [(cells[0][0], cells[0][1][::-1])]
        elif fault == "chord repeated":
            chords = [(fall, (fall[0], *rise[1:]))]
        elif fault == "chord out of range":
            chords = [(fall, ((-1, 0), *rise[1:]))]
        else:
            coords = (coords[1],) + coords[1:]
        monkeypatch.setattr(boards, "_layout", lambda board: (coords, base, cells, chords))
        with pytest.raises(ValueError):
            walk_hosts(b, 0, 1, lambda literal, host: None)

    @pytest.mark.parametrize(
        "fault, literal",
        [
            ("base edge repeated", "//F"),
            ("base edge out of range", "//F"),
            ("diagonal on a base edge", "//F"),
            ("diagonal out of range", "\\/F"),
            ("diagonal reversed", "\\/F"),
            ("chord repeated", "//R"),
            ("chord out of range", "//R"),
            ("coordinates repeated", "//F"),
        ],
    )
    def test_one_off_host_is_checked(self, monkeypatch, fault, literal):
        # A one-off host goes through the public constructors, so a layout
        # fault that lands in it is refused there.
        b = parse_board("cells 2x2; domino H 0 0")
        coords, base, cells, chords = boards._layout(b)
        (fall, rise), n = chords[0], b.vertex_count
        if fault == "base edge repeated":
            base = base[:1] + base
        elif fault == "base edge out of range":
            base = base + [(n - 1, n)]
        elif fault == "diagonal on a base edge":
            cells = [(base[0], cells[0][1])] + cells[1:]
        elif fault == "diagonal out of range":
            cells = [(cells[0][0], (0, n))] + cells[1:]
        elif fault == "diagonal reversed":
            cells = [(cells[0][0], cells[0][1][::-1])] + cells[1:]
        elif fault == "chord repeated":
            chords = [(fall, (rise[0], *rise[:2]))]
        elif fault == "chord out of range":
            chords = [(fall, ((-1, 0), *rise[1:]))]
        else:
            coords = (coords[1],) + coords[1:]
        t = parse_triangulation(b, literal)
        monkeypatch.setattr(boards, "_layout", lambda board: (coords, list(base), cells, chords))
        with pytest.raises(ValueError):
            triangulate(b, t)

    def test_one_off_host_needs_no_template(self, monkeypatch):
        b = parse_board("cells 3x3; domino V 0 1")
        expected = [reference_triangulate(b, t) for t in enumerate_triangulations(b)]
        monkeypatch.setattr(boards, "_template", None)
        for t, reference in zip(enumerate_triangulations(b), expected):
            assert triangulate(b, t) == reference, t.literal()

    def test_shape_mismatch(self):
        b = parse_board("cells 2x2; domino H 0 0")
        for t in (
            Triangulation((Diag.SLASH,) * 3, (DominoPattern.FALL,)),
            Triangulation((Diag.SLASH,) * 2, ()),
        ):
            with pytest.raises(ValueError, match="does not match the board"):
                triangulate(b, t)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_triangulations(Board(1, 1)))) == 2
        b = parse_board("cells 2x2; domino H 0 0")
        assert len(list(enumerate_triangulations(b))) == 8
        b33 = parse_board("cells 3x3; domino H 1 0")
        assert len(list(enumerate_triangulations(b33))) == 256

    def test_distinct_and_ordered(self):
        b = parse_board("cells 2x2; domino H 0 0")
        literals = [t.literal() for t in enumerate_triangulations(b)]
        assert literals == sorted(set(literals), key=literals.index)
        assert len(set(literals)) == len(literals)
        assert literals[0] == "//F"

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_triangulations(Board(5, 5)))


class TestPlacements:
    def test_counts(self):
        assert len(domino_placements(2, 2, Axis.H)) == 2
        assert len(domino_placements(3, 3, Axis.H)) == 6
        assert len(domino_placements(1, 1, Axis.H)) == 0
        assert len(domino_placements(3, 3, Axis.V)) == 6
        assert len(domino_placements(1, 4, Axis.V)) == 0

    def test_formula_up_to_4x4(self):
        for rows in range(1, 5):
            for cols in range(1, 5):
                assert len(domino_placements(rows, cols, Axis.H)) == rows * (cols - 1)
                assert len(domino_placements(rows, cols, Axis.V)) == (rows - 1) * cols


class TestFlip:
    def test_swaps_pattern(self):
        b = parse_board("cells 2x2; domino H 0 0")
        t = parse_triangulation(b, "//F")
        assert flip_domino_pattern(t, 0).domino_pattern == (DominoPattern.RISE,)

    def test_involution(self):
        b = parse_board("cells 2x2; domino H 0 0")
        t = parse_triangulation(b, "/\\R")
        assert flip_domino_pattern(flip_domino_pattern(t, 0), 0) == t

    def test_index_checked(self):
        b = parse_board("cells 2x2; domino H 0 0")
        with pytest.raises(IndexError):
            flip_domino_pattern(parse_triangulation(b, "//F"), 1)

    def test_preserves_three_colourability_on_small_board(self):
        b = parse_board("cells 2x2; domino H 0 0")
        for t in enumerate_triangulations(b):
            a = is_k_colourable(triangulate(b, t).graph, 3) is not None
            z = is_k_colourable(triangulate(b, flip_domino_pattern(t, 0)).graph, 3) is not None
            assert a == z


class TestSymmetry:
    def test_identity(self):
        b = parse_board("cells 2x3; domino H 0 1")
        e = triangulate(b, next(enumerate_triangulations(b)))
        assert transform(e, Symmetry.IDENTITY) == e

    def test_rot180_involution(self):
        b = parse_board("cells 2x3; domino H 1 0")
        e = triangulate(b, next(enumerate_triangulations(b)))
        assert transform(transform(e, Symmetry.ROT180), Symmetry.ROT180) == e

    def test_rot90_turns_horizontal_domino_vertical(self):
        b = parse_board("cells 2x3; domino H 0 0")
        nb = transform_board(b, Symmetry.ROT90)
        assert (nb.cell_rows, nb.cell_cols) == (3, 2)
        assert nb.dominoes[0].axis is Axis.V

    @pytest.mark.parametrize("sym", list(Symmetry))
    def test_triangulation_transport_commutes(self, sym):
        specs = [
            "cells 2x2; domino H 0 0",
            "cells 3x2; domino V 0 1",
            "cells 2x3",
            "cells 2x3; domino H 0 0; domino V 0 2",
        ]
        for spec in specs:
            b = parse_board(spec, exploratory=True)
            for t in enumerate_triangulations(b):
                nb, nt = transform_triangulation(b, t, sym)
                assert triangulate(nb, nt) == transform(triangulate(b, t), sym)

    def test_transforms_preserve_chromatic_number(self):
        b = parse_board("cells 2x2; domino H 1 0")
        t = parse_triangulation(b, "\\\\F")
        chi = chromatic_number(triangulate(b, t).graph)
        for sym in Symmetry:
            nb, nt = transform_triangulation(b, t, sym)
            assert chromatic_number(triangulate(nb, nt).graph) == chi
