"""Record the benchmark of a parent checkout and of this one in one JSON file.

For every workload declared in BENCHMARK.json, runs ``bench/run.py`` of the
parent checkout and of this checkout in ten alternating ``--trace 0``
pairs, the parent first in odd pairs and the change first in even ones,
then in five alternating ``--trace 1`` pairs, and keeps the last two lines
of each run's standard output: the run record and the result line.
``runs["<workload>/trace0"]`` and ``runs["<workload>/trace1"]`` of each
side are the lists of its runs in pair order.  ``summary["<workload>"]``
holds, per end-to-end metric, each side's quartiles and median over the
untraced runs and the number of pairs in which the change is the better
side, and under ``"per_layer"``, per per-layer metric, each side's
quartiles and median over the traced runs.  One traced run can read a
layer's time far apart from the next on the same code, and the runs of
one side can fall in two modes; the quartiles then stand wide apart
around the median instead of the median silently following two or three
runs of one mode.  Each side also records what sets
its ``setup_s`` besides the code: its interpreter's ``sys.version``, whether
``PYTHONDONTWRITEBYTECODE`` was set, and whether the checkout already held
compiled bytecode of ``wordrep`` when the recording started.  The variable
only stops the interpreter from writing bytecode, not from reading it, so
a set-up compiles ``wordrep`` from source when the variable is set and the
checkout holds none, and ``setup_s`` then reads about 1.7x what it reads
with cached bytecode.  Stdlib only.

    python scripts/bench_record.py --parent ../wordrep-parent --out BENCH_8.json
    python scripts/bench_record.py --parent ../wordrep-parent --seed 2 --out BENCH_8_seed2.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_PAIRS = 5
SIDES = ("parent", "change")


def _describe(checkout: Path) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _setup_mode(checkout: Path) -> dict:
    """The interpreter the runs use, whether it may write bytecode, and
    whether the checkout holds bytecode of ``wordrep`` it can read."""
    cache = checkout / "src" / "wordrep" / "__pycache__"
    return {
        "python": sys.version,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "cached_bytecode": any(cache.glob(f"*.{sys.implementation.cache_tag}.pyc")),
    }


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=1800,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout} {workload} --trace {trace}: exit "
                           f"{done.returncode}\n{done.stderr[-2000:]}")
    return {
        "record": json.loads(lines[-2])["record"],
        "result": json.loads(lines[-1]),
    }


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs]


def _summary(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per metric: each side's q1, median and q3, and the pairs the change wins."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: _values(runs[side], name) for side in SIDES}
        entry: dict = {"better": metric["better"]}
        for side in SIDES:
            entry[side] = _quartiles(values[side])
        sign = 1 if metric["better"] == "higher" else -1
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
        out[name] = entry
    return out


def _per_layer(runs: dict[str, list[dict]], per_layer: list[dict]) -> dict:
    """Per per-layer metric: each side's q1, median and q3 over its traced runs."""
    return {
        metric["name"]: {
            "better": metric["better"],
            **{side: _quartiles(_values(runs[side], metric["name"])) for side in SIDES},
        }
        for metric in per_layer
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    out = {
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "traced_pairs": TRACED_PAIRS,
        "summary": {},
        **{
            side: {"describe": _describe(path), **_setup_mode(path), "runs": {}}
            for side, path in sides.items()
        },
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {}
        for trace, pairs in ((0, PAIRS), (1, TRACED_PAIRS)):
            runs[trace] = {side: [] for side in SIDES}
            for i in range(pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"{side} {workload} --trace {trace} pair {i + 1}/{pairs}",
                          file=sys.stderr, flush=True)
                    runs[trace][side].append(
                        _run(sides[side], workload, args.seed, seconds, trace)
                    )
            for side in SIDES:
                out[side]["runs"][f"{workload}/trace{trace}"] = runs[trace][side]
        out["summary"][workload] = {
            **_summary(runs[0], declared["end_to_end"]),
            "per_layer": _per_layer(runs[1], declared["per_layer"]),
        }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
