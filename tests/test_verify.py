from __future__ import annotations

import io
import json
from collections import Counter
import subprocess
import sys

import pytest

from wordrep.boards import (
    Axis,
    Board,
    Domino,
    domino_placements,
    enumerate_triangulations,
    flip_domino_pattern,
    parse_board,
    parse_triangulation,
    triangulate,
)
from wordrep.catalog import ClosurePolicy, forbidden_set, minimal_graphs
from wordrep.cli import main
from wordrep.graphs import Colouring
import wordrep.graphs as graphs_module
import wordrep.orientations as orientations_module
from wordrep.orientations import (
    DEFAULT_EDGE_BUDGET,
    MAX_SEARCH_VERTICES,
    check_odd_wheel,
    exists_semi_transitive,
)
import wordrep.verify as verify_module
from wordrep.verify import (
    WHEEL_CONTAINMENTS,
    VerdictCache,
    classify,
    classify_board,
    sweep,
    sweep_boards,
    verify_catalog,
    verify_rotation_reduction,
    verify_theorem,
    write_report,
)

EXTENDED = forbidden_set(ClosurePolicy.EXTENDED)


class TestClassify:
    @pytest.mark.parametrize(
        "spec,literal,route,matcher",
        [
            ("cells 3x3", "/" * 9, "colouring", None),
            ("cells 3x3", "///////\\/", "odd_wheel", "table"),
            ("cells 3x3; domino V 0 1", "///////F", "odd_wheel", "general"),
        ],
        ids=["colouring", "odd-wheel", "general-matcher"],
    )
    def test_one_parity_test_per_vertex(self, spec, literal, route, matcher, monkeypatch):
        # The wheel finder and the catalog share one resumable odd-link scan,
        # which tests vertices of degree >= 5 in index order, each at most
        # once, and no vertex of lower degree.  The wheel finder stops at its
        # hub and a table hit needs no more; only a colourable host (no hub)
        # and a host the general matcher decides are tested throughout.
        b = parse_board(spec)
        host = triangulate(b, parse_triangulation(b, literal))
        calls = []
        real = graphs_module._odd_link

        def counted(adj, ring):
            if adj is host.graph.adj:  # not a catalog pattern's, built on first use
                calls.append(ring)
            return real(adj, ring)

        monkeypatch.setattr(graphs_module, "_odd_link", counted)
        c = classify(host, EXTENDED)
        assert c.route == route
        assert (c.forbidden_hit is not None, c.embedded_hit is not None) == (
            matcher is not None, matcher == "table"
        )
        tested = [v for v, ring in enumerate(host.graph.adj) if ring.bit_count() >= 5]
        if matcher == "table":
            hub = c.certificate["odd_wheel"][0]
            assert hub < tested[-1]
            tested = [v for v in tested if v <= hub]
        assert calls == [host.graph.adj[v] for v in tested]
        assert 0 < len(tested) < host.graph.n == 16

    def test_t1_layout(self):
        b = Board(2, 2)
        host = triangulate(b, parse_triangulation(b, "/\\//"))
        c = classify(host, EXTENDED, board_id="cells 2x2", triangulation="/\\//")
        assert not c.three_colourable
        assert c.word_representable == "no"
        assert c.forbidden_hit == "T1"
        hub, *rim = c.certificate["odd_wheel"]
        assert len(rim) == 5
        assert check_odd_wheel(host.graph, hub, rim)

    def test_all_slash_square(self):
        b = Board(2, 2)
        host = triangulate(b, parse_triangulation(b, "////"))
        c = classify(host, EXTENDED)
        assert c.three_colourable
        assert c.word_representable == "yes"
        assert c.forbidden_hit is None
        colours = Colouring(tuple(c.certificate["colouring"]))
        assert colours.is_proper_for(host.graph)

    def test_budget_recorded_not_guessed(self, monkeypatch):
        # Without a wheel the host reaches the budgeted search.
        monkeypatch.setattr(orientations_module, "find_odd_wheel", lambda g: None)
        monkeypatch.setattr(orientations_module, "DEFAULT_EDGE_BUDGET", 5)
        b = parse_board("cells 2x2; domino H 0 0")
        host = triangulate(b, parse_triangulation(b, "//F"))
        c = classify(host, EXTENDED)
        assert c.word_representable == "budget"
        assert c.route == "budget"

    def test_default_edge_budget_cannot_bind(self):
        # Every host within the search's vertex limit has 3RC + R + C edges
        # (a domino keeps the count), so at most 43, on 3x4 or 4x3 cells.
        most = 0
        for rows in range(1, MAX_SEARCH_VERTICES):
            for cols in range(1, MAX_SEARCH_VERTICES):
                if (rows + 1) * (cols + 1) > MAX_SEARCH_VERTICES:
                    continue
                boards = [Board(rows, cols)]
                if cols >= 2:
                    boards.append(Board(rows, cols, (Domino(0, 0, Axis.H),)))
                for b in boards:
                    host = triangulate(b, next(enumerate_triangulations(b)))
                    assert host.graph.edge_count == 3 * rows * cols + rows + cols
                    most = max(most, host.graph.edge_count)
        assert most == 43 < DEFAULT_EDGE_BUDGET

    @pytest.mark.parametrize(
        "found", [None, (0, (1, 2, 3, 4, 5))], ids=["no-wheel", "rejected-wheel"]
    )
    def test_search_decides_without_an_accepted_wheel(self, monkeypatch, found):
        # Without a wheel the search decides; a wheel that fails its
        # re-check is a fault, never a reason to fall back to the search.
        monkeypatch.setattr(orientations_module, "find_odd_wheel", lambda g: found)
        b = Board(2, 2)
        host = triangulate(b, parse_triangulation(b, "/\\//"))
        if found is not None:
            with pytest.raises(AssertionError, match="odd wheel"):
                classify(host, EXTENDED)
            return
        c = classify(host, EXTENDED)
        assert (c.word_representable, c.certificate, c.route) == ("no", None, "search")

    def test_cache_reuse_changes_nothing(self):
        b = parse_board("cells 2x2; domino H 0 0")
        cache = VerdictCache()
        hosts = [
            (t.literal(), triangulate(b, t)) for t in enumerate_triangulations(b)
        ]
        with_cache = [
            classify(h, EXTENDED, triangulation=lit, cache=cache) for lit, h in hosts
        ]
        without = [classify(h, EXTENDED, triangulation=lit) for lit, h in hosts]
        assert with_cache == without

    def test_sweeps_never_consult_the_cache(self, monkeypatch):
        # Every 3-colourable host has an empty odd_links mask, so the cache
        # could spare no work and a board check does not build one.
        def refuse(*args):
            raise AssertionError("VerdictCache consulted")

        monkeypatch.setattr(VerdictCache, "lookup", refuse)
        monkeypatch.setattr(VerdictCache, "store", refuse)
        report, cls = verify_theorem(parse_board("cells 3x3; domino H 1 1"))
        assert report.passed and len(cls) == 256
        assert any(c.three_colourable for c in cls)

    @pytest.mark.parametrize("spec", ["cells 2x3", "cells 2x3; domino H 0 0"])
    def test_routes_agree_with_full_search(self, spec):
        b = parse_board(spec)
        for t in enumerate_triangulations(b):
            host = triangulate(b, t)
            c = classify(host, EXTENDED)
            searched = exists_semi_transitive(host.graph)
            assert c.word_representable == ("yes" if searched is not None else "no")
            assert c.route == ("colouring" if c.three_colourable else "odd_wheel")


class TestVerifyTheorem:
    def test_small_domino_board_passes(self):
        report, cls = verify_theorem(parse_board("cells 2x2; domino H 0 0"))
        assert report.passed
        assert report.triangulations_examined == 8
        assert len(cls) == 8
        assert [c.three_colourable for c in cls].count(True) == 4

    def test_rejects_multi_domino(self):
        board = Board(
            2, 3, (Domino(0, 0, Axis.H), Domino(1, 0, Axis.H)), exploratory=True
        )
        with pytest.raises(ValueError):
            verify_theorem(board)

    def test_budget_makes_sweep_inconclusive(self, monkeypatch):
        monkeypatch.setattr(orientations_module, "find_odd_wheel", lambda g: None)
        monkeypatch.setattr(orientations_module, "DEFAULT_EDGE_BUDGET", 5)
        report, _ = verify_theorem(parse_board("cells 2x2; domino H 0 0"))
        assert report.budget_exceeded == 4
        assert not report.violations
        assert report.exit_code() == 3

    def test_known_catalog_gap_is_surfaced(self, monkeypatch):
        # These three 4-chromatic triangulations contain an A pattern only
        # with its cut corner's cell diagonal running the other way; the
        # general matcher finds them through the corner-closed forms.
        board = parse_board("cells 2x3; domino H 0 0")
        former_gaps = {"/\\/\\F": "A1", "/\\/\\R": "A3", "\\\\//R": "A8"}
        report, cls = verify_theorem(board)
        assert report.passed
        hits = {c.triangulation: (c.forbidden_hit, c.embedded_hit) for c in cls}
        for literal, name in former_gaps.items():
            assert hits[literal] == (name, None)

        # A catalog miss on a 4-chromatic host is still surfaced: the extended
        # policy reports it as a violation, the literal policy as a mismatch.
        # The equivalence itself holds.
        hidden = {
            triangulate(board, parse_triangulation(board, literal)).graph
            for literal in former_gaps
        }
        real = verify_module.find_forbidden

        def missing_former_gaps(e, s, **kwargs):
            return None if e.graph in hidden else real(e, s, **kwargs)

        monkeypatch.setattr(verify_module, "find_forbidden", missing_former_gaps)
        ext, _ = verify_theorem(board, ClosurePolicy.EXTENDED, jobs=1)
        assert [v.kind for v in ext.violations] == ["forbidden-set"] * 3
        assert {v.triangulation for v in ext.violations} == set(former_gaps)
        lit, _ = verify_theorem(board, ClosurePolicy.LITERAL, jobs=1)
        assert not lit.violations
        assert len(lit.lemma_mismatches) == 3

    @pytest.mark.parametrize(
        "spec,embedded,general",
        [
            (
                "cells 3x3; domino V 0 1",
                0,
                {"T1": 144, "T2": 48, "B1": 24, "A1": 16, "B2": 4, "A8": 4},
            ),
            ("cells 3x3; domino H 1 1", 220, {"T2": 10, "A1": 6, "A8": 4}),
        ],
    )
    def test_matcher_tiers_per_board(self, spec, embedded, general):
        # The extended closure keeps a horizontal domino horizontal, so the
        # translation table holds no vertical-domino member and the general
        # matcher decides every hit of a vertical-domino board.
        report, cls = verify_theorem(parse_board(spec))
        assert report.passed
        assert report.embedded_hits == embedded
        assert report.general_only_hits == sum(general.values())
        assert Counter(
            c.forbidden_hit for c in cls if c.forbidden_hit and c.embedded_hit is None
        ) == general

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_three_by_two_domino_boards(self, row):
        # sweep_boards keeps 2x3 for its quarter-turned twin 3x2, and sweeps
        # place only H dominoes, so no sweep reaches these 3 boards.
        report, cls = verify_theorem(parse_board(f"cells 3x2; domino H {row} 0"))
        assert report.passed
        assert report.triangulations_examined == len(cls) == 32

    def test_jobs_do_not_change_output(self):
        board = parse_board("cells 2x2; domino H 1 0")
        serial = classify_board(board, jobs=1)
        parallel = classify_board(board, jobs=2)
        assert serial == parallel


def miscolour(monkeypatch, board: Board, literal: str):
    """Make ``wordrep.orientations.is_k_colourable`` call one host of ``board``
    not 3-colourable."""
    target = triangulate(board, parse_triangulation(board, literal)).graph
    real = orientations_module.is_k_colourable

    def wrong(g, k):
        return None if g == target else real(g, k)

    monkeypatch.setattr(orientations_module, "is_k_colourable", wrong)


class TestFlip:
    def test_small_boards_hold(self):
        for spec in (
            "cells 1x2; domino H 0 0",
            "cells 2x2; domino H 0 0",
            "cells 2x2; domino H 1 0",
        ):
            report, _ = verify_theorem(parse_board(spec))
            assert report.passed

    def test_needs_exactly_one_domino(self, monkeypatch):
        # A bare board has no flip partner, so a mis-coloured host there
        # breaks the equivalence but gives no domino-flip violation.
        board = Board(2, 2)
        miscolour(monkeypatch, board, "////")
        report, _ = verify_theorem(board)
        assert report.violations
        assert not [v for v in report.violations if v.kind == "domino-flip"]
        with pytest.raises(ValueError):
            verify_theorem(
                Board(2, 3, (Domino(0, 0, Axis.H), Domino(1, 0, Axis.H)), exploratory=True)
            )

    def test_flip_partner_is_the_neighbouring_host(self):
        # verify_theorem reads host i's flip partner as host i ^ 1.
        boards = [
            Board(rows, cols, (d,))
            for rows, cols in sweep_boards(2, 3)
            for d in domino_placements(rows, cols, Axis.H)
        ]
        assert len(boards) == 9
        for b in boards:
            cls = classify_board(b)
            for i, t in enumerate(enumerate_triangulations(b)):
                assert cls[i].triangulation == t.literal()
                assert cls[i ^ 1].triangulation == flip_domino_pattern(t, 0).literal()

    def test_flip_failure_is_reported(self, monkeypatch, capsys):
        board = parse_board("cells 2x2; domino H 0 0")
        colourable = [
            c.triangulation for c in verify_theorem(board)[1] if c.three_colourable
        ]
        literal = colourable[0]
        partner = literal[:-1] + {"F": "R", "R": "F"}[literal[-1]]
        assert partner in colourable
        miscolour(monkeypatch, board, literal)

        report, _ = verify_theorem(board)
        flips = [v.to_json_obj() for v in report.violations if v.kind == "domino-flip"]
        assert flips == [
            {
                "board": "cells 2x2; domino H 0 0",
                "triangulation": t,
                "kind": "domino-flip",
                "detail": f"3-colourable={a} but flipped ({f}) gives {b}",
            }
            for t, a, f, b in [
                (literal, False, partner, True),
                (partner, True, literal, False),
            ]
        ]
        assert report.exit_code() == 1
        assert main(["verify", "--board", "cells 2x2; domino H 0 0"]) == 1
        capsys.readouterr()

        swept, _ = sweep(2, 2, (1,))
        assert [
            v.to_json_obj() for v in swept.violations if v.kind == "domino-flip"
        ] == flips
        assert swept.exit_code() == 1


class TestCatalogVerification:
    def test_everything_checks_out(self):
        report = verify_catalog()
        assert report.passed, [v.to_json_obj() for v in report.violations]

    def test_every_pattern_has_a_stated_wheel(self):
        assert set(WHEEL_CONTAINMENTS) == {p.name for p in minimal_graphs()}

    def test_derived_hub_must_match_the_stated_wheel(self, monkeypatch):
        monkeypatch.setitem(WHEEL_CONTAINMENTS, "A8", 7)
        report = verify_catalog()
        details = {(v.triangulation, v.detail) for v in report.violations}
        assert ("A8", "derived hub has a 5-cycle link, expected 7") in details
        assert ("A8'", "derived hub has a 5-cycle link, expected 7") in details


def test_import_leaves_multiprocessing_out():
    # Only a pool with jobs > 1 needs multiprocessing; importing it costs
    # memory on every single-process run.
    code = "import sys, wordrep.verify; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestSweep:
    def test_shapes_deduplicate_rotations(self):
        assert sweep_boards(3, 3) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        assert sweep_boards(3, 1) == [(1, 1), (2, 1), (3, 1)]

    def test_two_by_two_counts(self):
        report, cls = sweep(2, 2, (0, 1))
        assert report.passed
        assert report.triangulations_examined == len(cls) == 40
        assert report.board_counts == {
            "cells 1x1": 2,
            "cells 1x2": 4,
            "cells 1x2; domino H 0 0": 2,
            "cells 2x2": 16,
            "cells 2x2; domino H 0 0": 8,
            "cells 2x2; domino H 1 0": 8,
        }

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            sweep(2, 2, (2,))

    @pytest.mark.parametrize("rows,cols,modes", [(1, 1, (1,)), (0, 3, (0, 1)), (2, 2, ())])
    def test_sweep_of_no_board_raises(self, rows, cols, modes):
        with pytest.raises(ValueError, match="no board to sweep"):
            sweep(rows, cols, modes)

    def test_report_stream_is_deterministic(self):
        outputs = []
        for _ in range(2):
            report, cls = sweep(2, 2, (0, 1))
            buf = io.StringIO()
            write_report(buf, report, cls)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].strip().split("\n")
        assert len(lines) == 41
        summary = json.loads(lines[-1])
        assert summary["summary"] and summary["passed"]
        parsed = json.loads(lines[0])
        assert set(parsed) == {
            "board",
            "triangulation",
            "three_colourable",
            "word_representable",
            "forbidden_hit",
            "embedded_hit",
            "certificate",
        }


class TestRotationReduction:
    def test_vertical_domino_agrees_with_rotated(self):
        board = Board(2, 2, (Domino(0, 1, Axis.V),))
        direct, rotated = verify_rotation_reduction(board)
        assert not [v for v in direct.violations if v.kind == "rotation-reduction"]
        assert not [v for v in direct.violations if v.kind == "equivalence"]
        assert not [v for v in rotated.violations if v.kind == "equivalence"]

    def test_requires_vertical_domino(self):
        with pytest.raises(ValueError):
            verify_rotation_reduction(parse_board("cells 2x2; domino H 0 0"))
