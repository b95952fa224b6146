#!/usr/bin/env python3
"""Profile one benchmark workload under cProfile and print the top self times.

Run from the repository root:

    python3 scripts/profile_workload.py colourable --seed 1 --passes 5

The workload's inputs, call and check come from ``bench/run.py``'s
``FAMILIES``, which is only read, so the profile covers exactly the calls a
benchmark pass times, at jobs=1, on the library under ``src/``.  The results
of the last pass are then checked by the benchmark's own oracles, outside
the profile; the exit status is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _families() -> dict:
    """``bench/run.py``'s workload families, loaded without running it."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES


def main(argv: list[str] | None = None) -> int:
    families = _families()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(families))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--top", type=int, default=15, help="functions to print")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    inputs, call, check = families[args.workload]
    items = inputs(args.seed)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(args.passes):
        results = [call(item, 1) for item in items]
    profile.disable()
    failed = sum(check(item, result).failed for item, result in zip(items, results))

    print(f"workload={args.workload} seed={args.seed} passes={args.passes} "
          f"items={len(items)} failed={failed}")
    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
