"""Smoke and unit tests of the scripts under ``scripts/``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


def test_catalog_report_runs(scripts, capsys):
    import run_catalog_report

    assert run_catalog_report.main() == 0
    lines = capsys.readouterr().out.splitlines()
    patterns = [line for line in lines if " n=" in line and "chi=" in line]
    assert len(patterns) == 12
    assert all("chi=4 semi-transitive=no" in line for line in patterns)
    assert any("catalog verification: passed=True violations=0" in line for line in lines)


def test_profile_workload_runs_one_pass():
    # A child process, since loading the benchmark's families puts its own
    # modules on the path.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "profile_workload.py"), "colourable",
         "--seed", "1", "--passes", "1", "--top", "5"],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload=colourable seed=1 passes=1 items=240 failed=0"
    assert any("Ordered by: internal time" in line for line in lines)
    assert any("tottime" in line and "filename:lineno(function)" in line for line in lines)


def runs_of(values: list[float], metrics: list[str]) -> list[dict]:
    """Run records as ``bench/run.py`` prints them, every metric at one value."""
    return [
        {"result": {"metrics": {name: {"value": v} for name in metrics}}} for v in values
    ]


def test_bench_summary_quartiles_and_pairs(scripts):
    import bench_record

    end_to_end = [
        {"name": "items_per_s", "better": "higher"},
        {"name": "wall_s", "better": "lower"},
    ]
    names = [m["name"] for m in end_to_end]
    # Pairs: the change is higher in three, lower in one and level in one.
    runs = {
        "parent": runs_of([1, 2, 3, 4, 5], names),
        "change": runs_of([2, 1, 3, 6, 7], names),
    }
    summary = bench_record._summary(runs, end_to_end)
    for name, better, wins in [("items_per_s", "higher", 3), ("wall_s", "lower", 1)]:
        assert summary[name] == {
            "better": better,
            "parent": {"q1": 2, "median": 3, "q3": 4},
            "change": {"q1": 2, "median": 3, "q3": 6},
            "change_better_pairs": wins,
        }


@pytest.mark.parametrize("value, writes", [("1", False), ("", True), (None, True)])
@pytest.mark.parametrize("compiled", [False, True])
def test_bench_record_notes_the_set_up_mode(scripts, monkeypatch, tmp_path, value, writes, compiled):
    # Set-up time depends on whether bytecode is compiled afresh, so each
    # side of a record says whether it may be written and whether the
    # checkout already held some, with the interpreter version.
    import bench_record

    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    parent = tmp_path / "parent"
    cache = parent / "src" / "wordrep" / "__pycache__"
    cache.mkdir(parents=True)
    if compiled:
        (cache / f"graphs.{sys.implementation.cache_tag}.pyc").write_bytes(b"")
    declared = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    monkeypatch.setattr(bench_record, "_describe", lambda checkout: "abc1234")
    monkeypatch.setattr(
        bench_record, "_run",
        lambda checkout, workload, seed, seconds, trace: {"record": {}, **runs_of([1], names)[0]},
    )
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    for side in bench_record.SIDES:
        assert written[side]["python"] == sys.version
        assert written[side]["pythondontwritebytecode"] is not writes
        assert written[side]["describe"] == "abc1234"
    assert written["parent"]["cached_bytecode"] is compiled


def test_bench_record_summarises_five_traced_pairs(scripts, monkeypatch, tmp_path):
    # One traced run reads a layer's time far apart from the next on the
    # same code, and one side's runs can fall in two modes, so each side
    # keeps five traced runs, made in alternating pairs, and the summary
    # gives their quartiles per layer: a bimodal layer shows as a wide
    # spread around its median.
    import bench_record

    declared = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    traced = {"parent": iter([3, 1, 2, 4, 5] * 3), "change": iter([9, 4, 9, 4, 5] * 3)}
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == parent else "change"
        calls.append((workload, trace, side))
        value = next(traced[side]) if trace else 1
        return {"record": {"trace": trace}, **runs_of([value], names)[0]}

    parent = (tmp_path / "parent").resolve()
    monkeypatch.setattr(bench_record, "_describe", lambda checkout: "abc1234")
    monkeypatch.setattr(bench_record, "_run", run)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    first = [("parent", "change"), ("change", "parent")]
    assert calls == [
        (workload, trace, side)
        for workload in workloads
        for trace, pairs in ((0, 10), (1, 5))
        for i in range(pairs)
        for side in first[i % 2]
    ]
    assert written["traced_pairs"] == 5
    for workload in workloads:
        for side in bench_record.SIDES:
            runs = written[side]["runs"]
            assert [r["record"]["trace"] for r in runs[f"{workload}/trace0"]] == [0] * 10
            assert [r["record"]["trace"] for r in runs[f"{workload}/trace1"]] == [1] * 5
        per_layer = written["summary"][workload]["per_layer"]
        assert per_layer == {
            m["name"]: {
                "better": m["better"],
                "parent": {"q1": 2, "median": 3, "q3": 4},
                "change": {"q1": 4, "median": 5, "q3": 9},
            }
            for m in declared["per_layer"]
        }
        assert set(written["summary"][workload]) == {
            m["name"] for m in declared["end_to_end"]
        } | {"per_layer"}
