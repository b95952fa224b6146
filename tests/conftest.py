from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import wordrep
from wordrep.graphs import Graph

# CLI tests run `python -m wordrep.cli` in a child process; point it at the
# package this suite imports, also when that package is not installed.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(wordrep.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, name: str = "graph.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(g.to_json_obj()))
        return str(path)

    return write


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
