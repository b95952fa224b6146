"""Record the benchmark of a parent checkout and of this one in one JSON file.

For every workload declared in BENCHMARK.json, at ``--trace 0`` and
``--trace 1`` and seed 1, runs ``bench/run.py`` of the parent checkout and
of this checkout in turn, and keeps the last two lines of each run's
standard output: the run record and the result line.  Stdlib only.

    python scripts/bench_record.py --parent ../wordrep-parent --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _describe(checkout: Path) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _run(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    out = {
        "seed": SEED,
        "seconds": seconds,
        **{side: {"describe": _describe(path), "runs": {}} for side, path in sides.items()},
    }
    order = list(sides)
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            for side in order:
                print(f"{side} {workload} --trace {trace}", file=sys.stderr, flush=True)
                out[side]["runs"][f"{workload}/trace{trace}"] = _run(
                    sides[side], workload, seconds, trace
                )
            order.reverse()  # alternate which side runs first
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
