"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 7 asserts the forbidden-set claim: every non-3-colourable
triangulation contains a catalog pattern.  It holds because the A patterns
are read with their cut bounding-box corner free (see ``wordrep.catalog``);
read as exact 11-vertex induced subgraphs they miss 28 swept triangulations
whose corner cell's diagonal avoids the cut corner.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from random import Random

import pytest

from conftest import ACCEPTANCE_LINES

from wordrep.boards import (
    Axis,
    Board,
    Domino,
    domino_placements,
    enumerate_triangulations,
    parse_board,
    parse_triangulation,
    triangulate,
)
from wordrep.catalog import closure_report, minimal_graphs
from wordrep.errors import BudgetExceededError
from wordrep.graphs import (
    Colouring,
    Graph,
    chromatic_number,
    contains_induced,
    cycle,
    induced,
    is_k_colourable,
    nonisomorphic_graphs,
    wheel,
)
from wordrep.orientations import (
    check_odd_wheel,
    decide_word_representable,
    exists_semi_transitive,
    is_semi_transitive,
    orientation_from_colouring,
)
from wordrep.verify import sweep, verify_rotation_reduction
from wordrep.words import graph_of_word, parse_word, represents, search_uniform_word

JOBS = 4
PATTERNS = {p.name: p for p in minimal_graphs()}


def record(criterion: int, passed: bool, detail: str) -> None:
    line = f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def zero_domino_sweep():
    started = time.monotonic()
    report, cls = sweep(3, 3, (0,), jobs=JOBS)
    return report, cls, time.monotonic() - started


@pytest.fixture(scope="module")
def domino_sweep():
    started = time.monotonic()
    report, cls = sweep(3, 3, (1,), jobs=JOBS)
    return report, cls, time.monotonic() - started


def test_criterion_1_word_example():
    word = parse_word("14213243")
    times = []
    for _ in range(5):
        started = time.perf_counter()
        derived = graph_of_word(word, 4)
        times.append(time.perf_counter() - started)
    best = min(times)
    exact = derived == cycle(4) and derived.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    ok = exact and represents(word, cycle(4)) and best < 0.001
    cli = subprocess.run(
        [sys.executable, "-m", "wordrep.cli", "check-word", "--word", "14213243", "--emit-graph"],
        capture_output=True,
        text=True,
    )
    ok = ok and json.loads(cli.stdout) == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
    record(1, ok, f"14213243 -> square with clockwise edges, {best * 1e6:.0f}us")


def test_criterion_2_square_grid_patterns():
    times = {}
    ok = True
    for name in ("T1", "T2"):
        g = PATTERNS[name].embedded.graph
        started = time.monotonic()
        try:
            orientation = exists_semi_transitive(g)
            exhausted = orientation is None
        except BudgetExceededError:
            exhausted = False
        times[name] = time.monotonic() - started
        ok = ok and is_k_colourable(g, 3) is None and exhausted and times[name] < 1.0
    record(2, ok, f"T1/T2 4-chromatic, searches exhausted in {times['T1']:.2f}s/{times['T2']:.2f}s")


def test_criterion_3_domino_patterns():
    started = time.monotonic()
    ok = True
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B1", "B2"):
        g = PATTERNS[name].embedded.graph
        ok = ok and is_k_colourable(g, 3) is None
        ok = ok and exists_semi_transitive(g) is None
    a1 = PATTERNS["A1"].embedded
    drop = a1.coord_index()[(1, 0)]
    from wordrep.graphs import are_isomorphic

    ok = ok and are_isomorphic(
        induced(a1.graph, [v for v in range(a1.graph.n) if v != drop]), wheel(9)
    )
    for name in ("A2", "A3", "A6", "A7"):
        ok = ok and contains_induced(PATTERNS[name].embedded.graph, wheel(7)) is not None
    for name in ("A4", "A5", "A8", "B1", "B2"):
        ok = ok and contains_induced(PATTERNS[name].embedded.graph, wheel(5)) is not None
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    record(3, ok, f"ten A/B patterns + wheel containments in {elapsed:.1f}s")


def test_criterion_4_odd_wheels():
    started = time.monotonic()
    ok = all(not decide_word_representable(wheel(m)) for m in (5, 7, 9))
    ok = ok and chromatic_number(wheel(5)) == 4
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    record(4, ok, f"W5/W7/W9 non-representable, chi(W5)=4, {elapsed:.1f}s")


def test_criterion_5_rectangles_without_domino(zero_domino_sweep):
    report, _, elapsed = zero_domino_sweep
    expected_counts = {
        "cells 1x1": 2,
        "cells 1x2": 4,
        "cells 1x3": 8,
        "cells 2x2": 16,
        "cells 2x3": 64,
        "cells 3x3": 512,
    }
    equivalence = [v for v in report.violations if v.kind == "equivalence"]
    ok = (
        report.board_counts == expected_counts
        and not equivalence
        and report.budget_exceeded == 0
        and elapsed < 120.0
    )
    record(
        5,
        ok,
        f"{report.triangulations_examined} domino-free triangulations, "
        f"0 equivalence violations, {elapsed:.1f}s",
    )


def test_criterion_6_single_domino_equivalence(domino_sweep):
    report, _, elapsed = domino_sweep
    equivalence = [v for v in report.violations if v.kind == "equivalence"]
    ok = (
        report.triangulations_examined == 1690
        and report.board_counts["cells 3x3; domino H 1 0"] == 256
        and len([b for b in report.board_counts if "3x3" in b]) == 6
        and not equivalence
        and report.budget_exceeded == 0
        and elapsed < 600.0
    )
    record(
        6,
        ok,
        f"{report.triangulations_examined} single-domino triangulations at jobs={JOBS}, "
        f"0 equivalence violations, 0 budget overruns, {elapsed:.1f}s",
    )


def test_criterion_7_forbidden_set_lemma(domino_sweep, zero_domino_sweep):
    report, cls, _ = domino_sweep
    zero_report, _, _ = zero_domino_sweep
    gaps = [v for v in report.violations if v.kind == "forbidden-set"]
    gaps += [v for v in zero_report.violations if v.kind == "forbidden-set"]
    delta = closure_report()
    detail = (
        f"literal/extended footprints {delta['literal_footprints']}/"
        f"{delta['extended_footprints']}, extended adds isomorphism classes: "
        f"{delta['extended_adds_isomorphism_classes']}"
    )
    if gaps:
        sample = gaps[0]
        detail += (
            f"; {len(gaps)} non-3-colourable triangulations contain no catalog "
            f"pattern (first: {sample.board} {sample.triangulation}); a miss "
            f"points to a catalog or matcher fault"
        )
    record(7, not gaps, detail)


def test_every_no_carries_a_checked_odd_wheel(zero_domino_sweep, domino_sweep):
    """A swept triangulation is non-3-colourable iff it has a vertex whose
    neighbourhood induces a chordless cycle of length 5, 7 or 9, and that
    odd wheel is what decides its "no"."""
    sizes = Counter()
    for _, cls, _ in (zero_domino_sweep, domino_sweep):
        for c in cls:
            if c.three_colourable:
                assert c.word_representable == "yes" and c.route == "colouring"
                continue
            assert c.word_representable == "no" and c.route == "odd_wheel"
            board = parse_board(c.board)
            host = triangulate(board, parse_triangulation(board, c.triangulation))
            hub, *rim = c.certificate["odd_wheel"]
            assert check_odd_wheel(host.graph, hub, rim)
            sizes[f"W{len(rim)}"] += 1
    assert sizes == {"W5": 1242, "W7": 772, "W9": 66}


def test_criterion_8_domino_flip_invariance(domino_sweep):
    report, _, _ = domino_sweep
    flips = [v for v in report.violations if v.kind == "domino-flip"]
    single_domino_boards = [b for b in report.board_counts if "domino" in b]
    ok = not flips and len(single_domino_boards) == 15
    record(
        8,
        ok,
        f"3-colourability invariant under the domino flip across "
        f"{len(single_domino_boards)} boards",
    )


def test_criterion_9_colour_level_orientations():
    rng = Random(20240811)
    started = time.monotonic()
    checked = 0
    ok = True
    while checked < 1000:
        n = rng.randint(3, 12)
        classes = [rng.randint(1, 3) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if classes[u] != classes[v] and rng.random() < 0.6
        ]
        g = Graph.from_edges(n, edges)
        o = orientation_from_colouring(g, Colouring(tuple(classes)))
        if not is_semi_transitive(o):
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    record(9, ok, f"{checked} random tripartite graphs all semi-transitive, {elapsed:.1f}s")


def test_criterion_10_oracle_cross_check():
    started = time.monotonic()
    ok = True
    witnessed = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            if not decide_word_representable(g):
                ok = False
                break
            word = None
            for k in (1, 2, 3):
                word = search_uniform_word(g, k)
                if word is not None:
                    break
            if word is None or not represents(word, g):
                ok = False
                break
            witnessed += 1
    ok = ok and not decide_word_representable(wheel(5))
    ok = ok and search_uniform_word(wheel(5), 2) is None
    ok = ok and search_uniform_word(wheel(5), 3) is None
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300.0
    record(
        10,
        ok,
        f"{witnessed} graphs on <=5 vertices witnessed; W5 negative on both "
        f"routes, {elapsed:.1f}s",
    )


def test_criterion_11_counting_formulas():
    started = time.monotonic()
    ok = True
    for rows in range(1, 5):
        for cols in range(1, 5):
            count = sum(1 for _ in enumerate_triangulations(Board(rows, cols)))
            ok = ok and count == 2 ** (rows * cols)
            horizontals = domino_placements(rows, cols, Axis.H)
            verticals = domino_placements(rows, cols, Axis.V)
            ok = ok and len(horizontals) == rows * (cols - 1)
            ok = ok and len(verticals) == (rows - 1) * cols
            for d in horizontals:
                board = Board(rows, cols, (d,))
                count = sum(1 for _ in enumerate_triangulations(board))
                ok = ok and count == 2 ** (rows * cols - 1)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    record(11, ok, f"triangulation and placement counts exact up to 4x4, {elapsed:.2f}s")


def test_criterion_12_rotation_reduction_guard():
    started = time.monotonic()
    board = Board(3, 3, (Domino(0, 1, Axis.V),))
    direct, rotated = verify_rotation_reduction(board, jobs=JOBS)
    disagreements = [v for v in direct.violations if v.kind == "rotation-reduction"]
    equivalence = [
        v
        for rep in (direct, rotated)
        for v in rep.violations
        if v.kind == "equivalence"
    ]
    elapsed = time.monotonic() - started
    ok = not disagreements and not equivalence and elapsed < 60.0
    record(
        12,
        ok,
        f"vertical domino board agrees with its quarter-turned twin on all "
        f"{direct.triangulations_examined} triangulations, {elapsed:.1f}s",
    )
