from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from wordrep.boards import parse_board, parse_triangulation, triangulate
from wordrep.cli import main
from wordrep.graphs import Graph, complete, cycle, find_odd_wheel, wheel
from wordrep.orientations import check_odd_wheel

# Not word-representable, with no 3-colouring and no induced odd wheel: only
# the exhaustive search decides it.
SEARCHED_NO = Graph.from_edges(
    7,
    [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (3, 4), (3, 5),
     (3, 6), (4, 6), (5, 6)],
)


def run_cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "wordrep.cli", *argv],
        capture_output=True,
        text=True,
    )
    return result.returncode, result.stdout, result.stderr


class TestCheckWord:
    def test_emit_graph_is_the_square(self):
        rc, out, _ = run_cli("check-word", "--word", "14213243", "--emit-graph")
        assert rc == 0
        assert json.loads(out) == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}

    def test_emit_graph_single_edge(self):
        rc, out, _ = run_cli("check-word", "--word", "1212", "--emit-graph")
        assert rc == 0
        assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}

    def test_represents_against_file(self, graph_file):
        rc, out, _ = run_cli(
            "check-word",
            "--word",
            "14213243",
            "--graph",
            graph_file(cycle(4)),
            "--format",
            "text",
        )
        assert rc == 0
        assert out.strip() == "represents: true"

    def test_format_must_fit_the_mode(self, graph_file):
        rc, out, err = run_cli(
            "check-word", "--word", "1212", "--emit-graph", "--format", "text"
        )
        assert (rc, out) == (2, "")
        assert "error" in err
        rc, out, err = run_cli(
            "check-word", "--word", "14213243", "--graph", graph_file(cycle(4)),
            "--format", "dot",
        )
        assert (rc, out) == (2, "")
        assert "error" in err

    def test_bad_word_is_usage_error(self):
        rc, _, err = run_cli("check-word", "--word", "1x2", "--emit-graph")
        assert rc == 2
        assert "error" in err


class TestDecide:
    def test_w5_is_no(self, graph_file):
        rc, out, _ = run_cli("decide", "--graph", graph_file(wheel(5)))
        assert rc == 0
        assert out.strip() == "no"

    def test_square_with_certificate(self, graph_file):
        rc, out, _ = run_cli(
            "decide", "--graph", graph_file(cycle(4)), "--emit-certificate"
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "yes"
        assert json.loads(lines[1])["edges"]

    def test_budget_is_inconclusive(self, graph_file):
        # K4 has neither a 3-colouring nor an odd wheel: only the search decides.
        rc, out, err = run_cli(
            "decide", "--graph", graph_file(complete(4)), "--budget-edges", "3"
        )
        assert rc == 3
        assert out.strip() == "inconclusive"
        assert err.startswith("budget: ") and "route" not in err

    def test_negative_budget_is_usage_error(self, graph_file, capsys):
        assert main(["decide", "--graph", graph_file(wheel(5)), "--budget-edges", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --budget-edges: must be at least 0, got -1" in err

    def test_zero_budget_is_legal(self, graph_file, capsys):
        assert main(["decide", "--graph", graph_file(complete(4)), "--budget-edges", "0"]) == 3
        assert capsys.readouterr().out == "inconclusive\n"
        assert main(["decide", "--graph", graph_file(cycle(4)), "--budget-edges", "0"]) == 0
        assert capsys.readouterr().out == "yes\n"

    def test_odd_wheel_is_no_at_zero_budget(self, graph_file, capsys):
        # The wheel decides before any search, so no budget can bind.
        assert main(["decide", "--graph", graph_file(wheel(5)), "--budget-edges", "0"]) == 0
        assert capsys.readouterr().out == "no\n"

    def test_odd_wheel_certificate(self, graph_file):
        g = wheel(7).relabel((3, 0, 6, 1, 5, 2, 4, 7))
        rc, out, _ = run_cli("decide", "--graph", graph_file(g), "--emit-certificate")
        assert rc == 0
        verdict, certificate = out.strip().split("\n")
        assert verdict == "no"
        # The rim starts at its lowest vertex, 0, and steps to 3, the lower
        # of 0's rim neighbours 3 and 6.
        assert json.loads(certificate) == {"odd_wheel": [7, 0, 3, 4, 2, 5, 1, 6]}
        assert check_odd_wheel(g, 7, (0, 3, 4, 2, 5, 1, 6))

    def test_searched_no_has_no_certificate(self, graph_file):
        assert find_odd_wheel(SEARCHED_NO) is None
        rc, out, _ = run_cli("decide", "--graph", graph_file(SEARCHED_NO), "--emit-certificate")
        assert rc == 0
        assert out == "no\n"

    @pytest.mark.parametrize(
        "g,verdict,route",
        [
            (wheel(5), "no", "odd_wheel"),
            (cycle(6), "yes", "colouring"),
            (complete(4), "yes", "search"),
        ],
        ids=["W5", "C6", "K4"],
    )
    def test_route_goes_to_stderr(self, graph_file, capsys, g, verdict, route):
        assert main(["decide", "--graph", graph_file(g)]) == 0
        assert capsys.readouterr() == (f"{verdict}\n", f"route: {route}\n")


class TestColour:
    def test_chromatic_number(self, graph_file):
        rc, out, _ = run_cli("colour", "--graph", graph_file(wheel(5)))
        assert rc == 0
        assert json.loads(out)["chromatic_number"] == 4

    def test_k_query(self, graph_file):
        rc, out, _ = run_cli("colour", "--graph", graph_file(wheel(5)), "--colours", "3")
        assert rc == 0
        obj = json.loads(out)
        assert obj == {"k": 3, "colourable": False, "colouring": None}

    def test_negative_colour_count_is_usage_error(self, graph_file, capsys):
        assert main(["colour", "--graph", graph_file(wheel(5)), "--colours", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --colours: must be at least 0, got -1" in err


MALFORMED_GRAPH_FILES = {
    name: json.dumps(obj).encode()
    for name, obj in {
        "no-n": {"edges": [[0, 1]]},
        "not-an-object": [1, 2],
        "string-vertex": {"n": 2, "edges": [[0, "1"]]},
        "float-vertex": {"n": 2, "edges": [[0, 1.0]]},
        "float-n": {"n": 2.5, "edges": []},
        "bool-vertex": {"n": 2, "edges": [[0, True]]},
        "one-ended-edge": {"n": 2, "edges": [[0]]},
    }.items()
} | {
    # Files that are not JSON text at all.
    "truncated": b'{"n": 2, "edges": [[0, 1]',
    "empty": b"",
    "not-utf-8": b'\xff{"n": 1, "edges": []}',
}


@pytest.mark.parametrize(
    "command",
    [["decide"], ["colour"], ["check-word", "--word", "1212"]],
    ids=["decide", "colour", "check-word"],
)
@pytest.mark.parametrize("data", MALFORMED_GRAPH_FILES.values(), ids=MALFORMED_GRAPH_FILES)
def test_malformed_graph_file_is_a_usage_error(command, data, tmp_path):
    path = tmp_path / "graph.json"
    path.write_bytes(data)
    rc, out, err = run_cli(*command, "--graph", str(path))
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert str(path) in err


def loaded_modules(code: str) -> set[str]:
    """The ``wordrep`` modules loaded after running ``code`` in a fresh interpreter."""
    code += "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('wordrep.')))\n"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_decide_loads_only_what_it_calls(graph_file):
    loaded = loaded_modules(
        f"from wordrep.cli import main\nmain(['decide', '--graph', {graph_file(wheel(5))!r}])"
    )
    assert "wordrep.orientations" in loaded
    assert loaded.isdisjoint(
        {"wordrep.boards", "wordrep.catalog", "wordrep.verify", "wordrep.words", "wordrep.dot"}
    ), loaded


def test_sweep_loads_verify():
    loaded = loaded_modules("from wordrep.cli import main\nmain(['sweep', '2x2'])")
    assert "wordrep.verify" in loaded


class TestEnumerate:
    def test_hexagon(self):
        rc, out, _ = run_cli("enumerate", "--board", "cells 1x2; domino H 0 0")
        assert rc == 0
        assert out.split() == ["F", "R"]

    def test_bad_board(self):
        rc, _, err = run_cli("enumerate", "--board", "cells 0x2")
        assert rc == 2

    def test_over_budget_board_is_inconclusive(self, capsys):
        assert main(["enumerate", "--board", "cells 5x5"]) == 3
        assert capsys.readouterr() == (
            "",
            "budget: 25 binary choices exceed the enumeration budget\n",
        )


class TestCatalog:
    def test_json_payload(self):
        rc, out, _ = run_cli("catalog", "--emit", "json", "--policy", "literal")
        assert rc == 0
        obj = json.loads(out)
        assert len(obj["patterns"]) == 12
        assert len(obj["members"]) == 28
        assert obj["closure"]["extended_footprints"] == 48

    def test_dot_output(self):
        rc, out, _ = run_cli("catalog", "--emit", "dot")
        assert rc == 0
        assert out.count("graph ") == 48
        assert 'pos="' in out


class TestVerify:
    def test_board_report(self):
        rc, out, _ = run_cli("verify", "--board", "cells 2x2; domino H 0 0")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        assert json.loads(lines[-1])["passed"] is True

    def test_placement_out_of_bounds(self):
        rc, _, err = run_cli("verify", "--board", "cells 1x1; domino H 0 0")
        assert rc == 2

    def test_over_budget_board_is_inconclusive(self, capsys):
        assert main(["verify", "--board", "cells 1x21"]) == 3
        assert capsys.readouterr() == (
            "",
            "budget: 21 binary choices exceed the enumeration budget\n",
        )

    def test_sweep_deterministic_across_jobs(self):
        outputs = []
        for jobs in ("1", "2"):
            rc, out, _ = run_cli("sweep", "2x2", "--jobs", jobs)
            assert rc == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "2x2", "--jobs", "0"),
            ("sweep", "2x2", "--jobs", "-3"),
            ("verify", "--board", "cells 1x1", "--jobs", "0"),
        ],
    )
    def test_jobs_below_one_is_usage_error(self, argv, capsys):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --jobs: must be at least 1" in err

    @pytest.mark.parametrize("size", ["3", "2xa", "0x3", "3x0"])
    def test_sweep_size_must_be_rxc(self, size, capsys):
        assert main(["sweep", size]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument RxC: must be RxC with R and C at least 1" in err

    @pytest.mark.parametrize("modes", ["x", "0,,1", "1,1", "2", ""])
    def test_sweep_domino_modes_must_be_distinct_zero_or_one(self, modes, capsys):
        assert main(["sweep", "1x2", "--domino-modes", modes]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --domino-modes: must be distinct values from 0 and 1" in err

    def test_sweep_domino_modes_in_any_order(self, capsys):
        assert main(["sweep", "1x2", "--domino-modes", "1,0"]) == 0
        swapped = capsys.readouterr().out
        assert main(["sweep", "1x2"]) == 0
        assert swapped == capsys.readouterr().out
        assert json.loads(swapped.strip().split("\n")[-1])["boards_examined"] == 3

    def test_sweep_of_no_board_is_usage_error(self, capsys):
        # A 1x1 board has no domino placement, so mode 1 alone examines nothing.
        assert main(["sweep", "1x1", "--domino-modes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no board to sweep" in err

    def test_budget_exit_code(self):
        # No host reaches the budgeted search: every non-3-colourable host
        # here is decided by its odd wheel first.
        rc, out, err = run_cli("verify", "--board", "cells 2x2; domino H 0 0")
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert lines[-1]["budget_exceeded"] == 0
        no_lines = [c for c in lines[:-1] if c["word_representable"] == "no"]
        assert len(no_lines) == 4
        assert all(set(c["certificate"]) == {"odd_wheel"} for c in no_lines)
        assert "routes: colouring=4 odd_wheel=4 search=0 budget=0" in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["sweep", "3x3"], "6c275d8e733f044b"),
        (["sweep", "3x3", "--jobs", "2"], "6c275d8e733f044b"),
        (["sweep", "3x3", "--policy", "literal"], "cccd9b582c4e731a"),
        (["catalog", "--emit", "json"], "76583e50e332ab5e"),
        (["catalog", "--emit", "dot"], "9c73159701dccf06"),
        (["catalog", "--emit", "json", "--policy", "literal"], "2ada1fbe7c94d2f2"),
        (["verify", "--board", "cells 3x3; domino H 1 0"], "8dcae867328b2b7f"),
        (["verify", "--board", "cells 3x3; domino V 0 1"], "4d5d8cb63f01ff5b"),
    ],
    ids=[
        "sweep", "sweep-jobs-2", "sweep-literal", "catalog-json",
        "catalog-dot", "catalog-json-literal", "verify-domino", "verify-domino-v",
    ],
)
def test_reports_are_byte_identical(argv, digest, capsys):
    # A deliberate change to a report's content updates its digest here.
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def word_graph(word: str) -> Graph:
    """The graph ``check-word --emit-graph`` prints for ``word``."""
    rc, out, _ = run_cli("check-word", "--word", word, "--emit-graph")
    assert rc == 0
    return Graph.from_json_obj(json.loads(out))


@pytest.mark.parametrize(
    "source,digest",
    [
        (lambda: complete(4), "408175f2cb8b90e6"),
        (lambda: wheel(5), "0626403f8ad8d5a3"),
        (lambda: wheel(6), "a371bac2364ebbdc"),
        (lambda: wheel(7), "daee1bcf649cf0f6"),
        (lambda: word_graph("14213243"), "91a5928dcaf81f2f"),
        (lambda: word_graph("123412354"), "0fd2b958e289c668"),
        (lambda: word_graph("7778362138457577"), "63cd8e57359b3ece"),
    ],
    ids=["K4", "W5", "W6", "W7", "C4-word", "K4-pendant-word", "8-letter-word"],
)
def test_decide_outputs_are_byte_identical(source, digest, graph_file, capsys):
    # The verdict, then the verdict with its certificate, hashed together.
    path = graph_file(source())
    out = ""
    for extra in ((), ("--emit-certificate",)):
        assert main(["decide", "--graph", path, *extra]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest



def board_host(spec: str, literal: str) -> Graph:
    board = parse_board(spec)
    return triangulate(board, parse_triangulation(board, literal)).graph


@pytest.mark.parametrize(
    "source,chromatic,three",
    [
        (
            lambda: cycle(6),
            '{"chromatic_number": 2, "colouring": [1, 2, 1, 2, 1, 2]}\n',
            '{"colourable": true, "colouring": [1, 2, 1, 2, 1, 2], "k": 3}\n',
        ),
        (
            lambda: wheel(6),
            '{"chromatic_number": 3, "colouring": [1, 2, 1, 2, 1, 2, 3]}\n',
            '{"colourable": true, "colouring": [1, 2, 1, 2, 1, 2, 3], "k": 3}\n',
        ),
        (
            lambda: word_graph("123456"),
            '{"chromatic_number": 6, "colouring": [1, 2, 3, 4, 5, 6]}\n',
            '{"colourable": false, "colouring": null, "k": 3}\n',
        ),
        (
            lambda: board_host("cells 3x3", "//\\//\\//\\"),
            '{"chromatic_number": 3, "colouring": '
            "[1, 2, 3, 2, 3, 1, 2, 1, 2, 3, 1, 3, 1, 2, 3, 2]}\n",
            '{"colourable": true, "colouring": '
            '[1, 2, 3, 2, 3, 1, 2, 1, 2, 3, 1, 3, 1, 2, 3, 2], "k": 3}\n',
        ),
    ],
    ids=["C6", "W6", "K6-word", "3x3-host"],
)
def test_colour_witnesses_are_byte_identical(source, chromatic, three, graph_file, capsys):
    # The first colouring in lexicographic order is part of the report.
    path = graph_file(source())
    assert main(["colour", "--graph", path]) == 0
    assert capsys.readouterr().out == chromatic
    assert main(["colour", "--graph", path, "--colours", "3"]) == 0
    assert capsys.readouterr().out == three

BASE_ARGV = {
    "check-word": ("check-word", "--word", "1212", "--emit-graph"),
    "decide": ("decide", "--graph", "g.json"),
    "colour": ("colour", "--graph", "g.json"),
    "enumerate": ("enumerate", "--board", "cells 1x1"),
    "catalog": ("catalog",),
    "verify": ("verify", "--board", "cells 1x1"),
    "sweep": ("sweep", "1x1"),
}

FLAG_VALUES = {
    "--format": "json",
    "--jobs": "1",
    "--budget-edges": "5",
    "--sweep": "2x2",
    "--domino-modes": "0",
}

UNREAD_FLAGS = [
    ("check-word", "--jobs"),
    ("check-word", "--budget-edges"),
    ("decide", "--format"),
    ("decide", "--jobs"),
    ("colour", "--format"),
    ("colour", "--jobs"),
    ("colour", "--budget-edges"),
    ("enumerate", "--format"),
    ("enumerate", "--jobs"),
    ("enumerate", "--budget-edges"),
    ("catalog", "--format"),
    ("catalog", "--jobs"),
    ("catalog", "--budget-edges"),
    ("verify", "--format"),
    ("verify", "--sweep"),
    ("verify", "--domino-modes"),
    ("verify", "--budget-edges"),
    ("sweep", "--format"),
    ("sweep", "--budget-edges"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_subcommands_reject_flags_they_do_not_read(command, flag, capsys):
    rc = main([*BASE_ARGV[command], flag, FLAG_VALUES[flag]])
    assert rc == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
