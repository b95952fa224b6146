#!/usr/bin/env python3
"""The wordrep benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` and driven only through
``verify.verify_theorem``, ``verify.classify(e, s)``,
``orientations.semi_transitive_certificate`` and ``words.graph_of_word`` (plus
the board and catalog constructors that build their arguments).  A workload
is a fixed, seeded list of calls; one *pass* runs them all once, and passes
repeat while another one fits in ``--seconds`` (there is always at least one).
Every result is checked by the benchmark's own oracles; a wrong or
inconclusive answer counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  Their timings are scaled to
a nominal machine speed by a reference computation sampled while they run
(see ``speed``); the run record keeps the raw wall and CPU seconds too.
``--trace 1`` runs untraced passes (for ``sweep`` one of them at jobs=2, to
exercise the verify process pool) and then a traced pass at jobs=1, and
reports the per-layer metrics.  The line before the result is the run
record: machine, seed, sample counts, verdict digest and known catalog gaps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state" / "digests.json"

if not (SRC / "wordrep" / "__init__.py").is_file():
    sys.exit(f"benchmark: no wordrep package under {SRC}")
sys.path[:0] = [str(BENCH), str(SRC)]
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wordrep import boards, catalog, graphs, orientations, verify, words  # noqa: E402

SETUP_RUNS = 6  # before the passes, and as many again after them
SETUP_CODE = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import wordrep.cli
from wordrep.catalog import ClosurePolicy, forbidden_set
forbidden_set(ClosurePolicy.EXTENDED)
took = time.process_time() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(took, speed.reference_s())
"""


# ------------------------------------------------------------- workloads ---
# Each family gives: inputs(seed), call(item, jobs) -> result (timed), and
# check(item, result) -> Outcome (untimed).


class Outcome:
    """Checked result of one call, which covers ``attempted`` hosts or graphs."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.verdicts: list[tuple] = []
        self.gaps = 0
        self.errors: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.errors.append(why)


def _verdict(spec: str, c) -> tuple:
    return (spec, c.triangulation, c.three_colourable, c.word_representable,
            c.forbidden_hit is not None)


def _sweep_call(spec: str, jobs: int):
    board = boards.parse_board(spec)
    return verify.verify_theorem(board, catalog.ClosurePolicy.EXTENDED, jobs=jobs)


def _sweep_check(spec: str, result) -> Outcome:
    expected = workloads.all_literals(spec)
    out = Outcome(len(expected))
    _, classifications = result
    seen = {c.triangulation: c for c in classifications}
    if sorted(seen) != sorted(expected) or len(classifications) != len(expected):
        out.fail(len(expected), f"{spec}: {len(classifications)} hosts, expected {len(expected)}")
        return out
    for literal in expected:
        c = seen[literal]
        colourable = workloads.interior_parity_ok(spec, literal)
        ok = (
            c.three_colourable == colourable
            and c.word_representable == ("yes" if colourable else "no")
            and not (colourable and c.forbidden_hit is not None)
        )
        if not ok:
            out.fail(1, f"{spec} {literal}: {_verdict(spec, c)}, parity says {colourable}")
        elif not colourable and c.forbidden_hit is None:
            out.gaps += 1  # the documented catalog gap (criterion 7), not a failure
        out.verdicts.append(_verdict(spec, c))
    return out


def _colourable_call(item, jobs: int):
    spec, literal = item
    board = boards.parse_board(spec)
    e = boards.triangulate(board, boards.parse_triangulation(board, literal))
    return e, verify.classify(e, catalog.forbidden_set(catalog.ClosurePolicy.EXTENDED))


def _colourable_check(item, result) -> Outcome:
    spec, literal = item
    e, c = result
    out = Outcome(1)
    n, edges = workloads.host_graph(spec, literal)
    got = e.graph.to_json_obj()
    if got["n"] != n or {tuple(x) for x in got["edges"]} != edges:
        out.fail(1, f"{spec} {literal}: host graph differs from the benchmark's own")
    elif not (c.three_colourable and c.word_representable == "yes" and c.forbidden_hit is None):
        out.fail(1, f"{spec} {literal}: {_verdict(spec, c)} on a colourable host")
    out.verdicts.append((spec, literal, c.three_colourable, c.word_representable,
                         c.forbidden_hit is not None))
    return out


def _decide_call(item, jobs: int):
    if item["kind"] == "yes":
        g = words.graph_of_word(item["word"], item["n"])
    else:
        g = graphs.Graph.from_json_obj(item["graph"])
    return g, orientations.semi_transitive_certificate(g)


def _decide_check(item, result) -> Outcome:
    g, o = result
    out = Outcome(1)
    n, edges = workloads.item_edges(item)
    got = g.to_json_obj()
    if got["n"] != n or {tuple(x) for x in got["edges"]} != edges:
        out.fail(1, f"{item['kind']} graph differs from the benchmark's own edges")
    elif (o is not None) != (item["kind"] == "yes"):
        out.fail(1, f"{item['kind']} graph decided {'yes' if o is not None else 'no'}")
    elif o is not None:
        arcs = [(u, v) if d == "uv" else (v, u) for u, v, d in o.to_json_obj()["edges"]]
        if not workloads.semi_transitive(n, edges, arcs):
            out.fail(1, "certificate fails the benchmark's own acyclicity/shortcut scan")
    return out


FAMILIES = {
    "sweep": (workloads.sweep_boards, _sweep_call, _sweep_check),
    "colourable": (workloads.colourable_hosts, _colourable_call, _colourable_check),
    "decide": (workloads.decide_items, _decide_call, _decide_check),
}

# workload -> (family, jobs of the pool pass).  Every timed pass runs at
# jobs=1; the pool pass is the extra untraced pass of a ``--trace 1`` run that
# gives ``verify.pool.busy_ratio``.  At jobs=2 (the core count of the 2-core
# Xeon the benchmark was tuned on) it is the only pass that uses the verify
# process pool, and its verdict digest must match the jobs=1 passes of the
# same run.
WORKLOADS = {
    "sweep": ("sweep", 2),
    "colourable": ("colourable", 1),
    "decide": ("decide", 1),
}


# ---------------------------------------------------------------- passes ---


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Pass:
    """One timed run over every input, checked afterwards.

    ``wall_s``, ``cpu_s`` and the per-call latencies are scaled to the
    nominal machine (see ``speed``); ``raw_wall_s``, ``raw_cpu_s`` and
    ``steal_s`` are as measured.  None of them includes the time spent
    sampling the reference.
    """

    def __init__(self, family: str, inputs: list, jobs: int, tracer=None):
        _, call, check = FAMILIES[family]
        timed = []
        with speed.Sampler() as clock:
            steal0, cpu0, t0 = speed.steal_seconds(), _cpu_seconds(), perf_counter()
            for item in inputs:
                start = perf_counter()
                try:
                    if tracer is None:
                        result = call(item, jobs)
                    else:
                        result = tracer.root(call, item, jobs)
                except Exception as exc:  # a crash is one failed operation, not a dead run
                    result = exc
                timed.append((start, perf_counter(), result))
            t1, cpu1, steal1 = perf_counter(), _cpu_seconds(), speed.steal_seconds()
        self.raw_wall_s = clock.raw(t0, t1)
        self.wall_s = clock.scaled(t0, t1)
        sampling_s = (t1 - t0) - self.raw_wall_s
        self.raw_cpu_s = cpu1 - cpu0 - sampling_s
        self.cpu_s = self.raw_cpu_s * clock.speed_scaled(t0, t1) / self.raw_wall_s
        self.speed_samples = len(clock.took)
        self.steal_s = steal1 - steal0
        results = [(clock.scaled(start, end), result) for start, end, result in timed]

        self.attempted = self.failed = self.items = self.gaps = 0
        self.errors: list[str] = []
        self.latencies_ms: list[float] = []
        verdicts = []
        for item, (seconds, result) in zip(inputs, results):
            try:
                if isinstance(result, Exception):
                    raise result
                out = check(item, result)
            except Exception as exc:  # a crash or a malformed result is one wrong answer
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            self.attempted += out.attempted
            self.failed += out.failed
            self.items += out.attempted
            self.gaps += out.gaps
            self.errors += out.errors
            verdicts += out.verdicts
            # A sweep call covers a whole board: its latency is per host.
            self.latencies_ms.append(1000 * seconds / out.attempted)
        self.digest = hashlib.sha256(repr(sorted(verdicts)).encode()).hexdigest()[:16] \
            if verdicts else None


def _measure(family: str, inputs: list, jobs: int, seconds: float) -> list[Pass]:
    """Passes while another one fits in ``seconds``; at least one."""
    passes, took = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(Pass(family, inputs, jobs))
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return passes


def _setup_seconds(runs: int) -> list[float]:
    """Import wordrep (with its CLI) and build the extended forbidden set in a
    fresh interpreter, ``runs`` times.

    Each interpreter measures the CPU seconds of its set-up, which leaves
    out time stolen by the hypervisor, then times the speed reference on its
    own core; the set-up seconds are scaled by it (see ``speed``).
    """
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, reference = map(float, done.stdout.split()[-2:])
        samples.append(took * speed.NOMINAL_S / reference)
    return samples


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024  # ru_maxrss is in KiB on Linux


def _check_digest(key: str, digest: str | None) -> str | None:
    """Compare with the digest an earlier run recorded for the same inputs."""
    if digest is None:
        return None
    try:
        known = json.loads(STATE.read_text())
    except FileNotFoundError:
        known = {}
    if known.get(key, digest) != digest:
        return f"verdict digest {digest} differs from {known[key]} recorded for {key}"
    if key not in known:
        known[key] = digest
        STATE.parent.mkdir(exist_ok=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, STATE)
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ------------------------------------------------------------------ main ---


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog.forbidden_set(catalog.ClosurePolicy.EXTENDED)  # built once, before timing

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    family, pool_jobs = WORKLOADS[args.workload]
    inputs = FAMILIES[family][0](args.seed)
    record["inputs"] = len(inputs)
    record["inputs_sha"] = hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]

    if args.trace == 0:
        # The first set-up run writes byte code and is not counted.  Taking
        # half the samples after the passes keeps one burst of load on the
        # machine from moving them all.
        setup = _setup_seconds(SETUP_RUNS + 1)[1:]
        passes = _measure(family, inputs, 1, args.seconds)
        setup += _setup_seconds(SETUP_RUNS)
        latencies = [x for p in passes for x in p.latencies_ms]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
            "item_ms.p50": spans.percentile(latencies, 50),
            "item_ms.p95": spans.percentile(latencies, 95),
            "peak_rss_mb": _peak_rss_mb(),
        }
        record.update(
            setup_samples=len(setup),
            latency_samples=len(latencies),
            speed_samples=sum(p.speed_samples for p in passes),
            raw_wall_s=statistics.median(p.raw_wall_s for p in passes),
            raw_cpu_s=statistics.median(p.raw_cpu_s for p in passes),
            steal_s=statistics.median(p.steal_s for p in passes),
        )
    else:
        # The pool pass (when it is not at jobs=1), the untraced jobs=1 pass
        # that is the base for the tracing overhead, then the traced pass.
        passes = [Pass(family, inputs, 1)]
        if pool_jobs != 1:
            passes.insert(0, Pass(family, inputs, pool_jobs))
        pool, base = passes[0], passes[-1]
        with spans.Tracer() as tracer:
            traced = Pass(family, inputs, 1, tracer)
        passes.append(traced)
        values, extra = spans.layer_metrics(tracer)
        values["verify.pool.busy_ratio"] = pool.raw_cpu_s / (pool_jobs * pool.raw_wall_s)
        values["trace.overhead_ratio"] = traced.wall_s / base.wall_s
        record.update(extra)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    digests = {p.digest for p in passes}
    gaps = {p.gaps for p in passes}
    if len(digests) > 1 or len(gaps) > 1:
        errors.append(f"passes disagree: digests {sorted(map(str, digests))}, gaps {sorted(gaps)}")
        failed = attempted
    mismatch = _check_digest(f"{family}:{args.seed}:{record['inputs_sha']}", passes[0].digest)
    if mismatch:
        errors.append(mismatch)
        failed = attempted
    record.update(
        pool_jobs=pool_jobs if args.trace else None,
        passes=len(passes),
        items_per_pass=passes[0].items,
        digest=passes[0].digest,
        known_gaps=passes[0].gaps,
        errors=errors[:5],
    )

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
