"""In-memory spans around the library's layer boundaries.

Each probe wraps one public function of a ``wordrep`` module *as bound in the
module that calls it* (``wordrep.verify.exists_semi_transitive`` is the name
``classify`` looks up, ``wordrep.orientations.exists_semi_transitive`` the one
``semi_transitive_certificate`` looks up).  Probes are found by name at run
time: one whose bindings have all gone from the library is reported as
``absent`` instead of failing the run.

Spans are (probe, start, end, parent, outcome) tuples kept in a list; a
span's self time is its duration minus the durations of its direct children.
Tracing is single-process: traced passes run at ``jobs=1``.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


def _exists_outcome(result) -> str:
    return "no" if result is None else "yes"


def _forbidden_outcome(result) -> str:
    if result is None:
        return "miss"
    return "embedded" if result.via_embedded else "general"


def _lookup_outcome(result) -> str:
    return "miss" if result is None else "hit"


# probe name -> (bindings as "module:attribute[.method]", outcome function)
PROBES = {
    "verify.verify_theorem": (["wordrep.verify:verify_theorem"], None),
    "verify.classify": (["wordrep.verify:classify"], None),
    "verify.cache.lookup": (["wordrep.verify:VerdictCache.lookup"], _lookup_outcome),
    "orientations.semi_transitive_certificate": (
        ["wordrep.orientations:semi_transitive_certificate"],
        None,
    ),
    "orientations.exists_semi_transitive": (
        ["wordrep.verify:exists_semi_transitive", "wordrep.orientations:exists_semi_transitive"],
        _exists_outcome,
    ),
    "orientations.is_semi_transitive": (
        ["wordrep.verify:is_semi_transitive", "wordrep.orientations:is_semi_transitive"],
        None,
    ),
    "graphs.are_isomorphic": (["wordrep.verify:are_isomorphic"], None),
    "graphs.refinement_hash": (["wordrep.verify:refinement_hash"], None),
    "graphs.is_k_colourable": (
        [
            "wordrep.verify:is_k_colourable",
            "wordrep.orientations:is_k_colourable",
            "wordrep.catalog:is_k_colourable",
        ],
        None,
    ),
    "graphs.contains_induced": (["wordrep.catalog:contains_induced"], None),
    "catalog.find_forbidden": (["wordrep.verify:find_forbidden"], _forbidden_outcome),
    "boards.triangulate": (["wordrep.verify:triangulate", "wordrep.boards:triangulate"], None),
    "boards.parse_triangulation": (
        ["wordrep.verify:parse_triangulation", "wordrep.boards:parse_triangulation"],
        None,
    ),
    "words.graph_of_word": (["wordrep.words:graph_of_word"], None),
}

LAYERS = ("boards", "graphs", "orientations", "catalog", "verify", "words")

ROOT = "item"  # the benchmark's own span around one end-to-end call


def _resolve(binding: str):
    """(owner object, attribute name) of a binding, or None when it is gone."""
    module_name, path = binding.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the probes, records spans, and removes the probes on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self._patched: list = []
        self.present: set[str] = set()

    def _wrap(self, name: str, fn, outcome_of):
        spans, stack = self.spans, self._stack

        def probe(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, type(exc).__name__)
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, outcome_of(result) if outcome_of else None)
            return result

        return probe

    def __enter__(self) -> "Tracer":
        for name, (bindings, outcome_of) in PROBES.items():
            for binding in bindings:
                found = _resolve(binding)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, outcome_of))
                self.present.add(name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` inside a root span: one end-to-end call of the workload."""
        return self._wrap(ROOT, fn, None)(*args, **kwargs)

    def summary(self) -> dict:
        """Per probe: calls, inclusive seconds, self seconds, outcome counts, durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, outcome) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "outcomes": {}, "durations": []}
            )
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["durations"].append(end - start)
            if outcome is not None:
                entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        return out


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metric values (``"absent"`` for vanished probes) and self-time shares."""
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "outcomes": {}, "durations": []}

    values: dict = {}

    def put(metric, name, fn):
        present = name in tracer.present
        values[metric] = fn(summary.get(name, empty)) if present else "absent"

    search = "orientations.exists_semi_transitive"
    put(f"{search}.calls", search, lambda e: e["calls"])
    put(f"{search}.s", search, lambda e: e["s"])
    for metric, outcome in (("yes", "yes"), ("no", "no"), ("budget", "BudgetExceededError")):
        put(f"{search}.{metric}", search, lambda e, o=outcome: e["outcomes"].get(o, 0))
    put("orientations.search_ms.p50", search, lambda e: 1000 * percentile(e["durations"], 50))
    put("orientations.search_ms.p95", search, lambda e: 1000 * percentile(e["durations"], 95))

    lookup = "verify.cache.lookup"
    put("verify.cache.lookups", lookup, lambda e: e["calls"])
    put("verify.cache.hit_ratio", lookup,
        lambda e: e["outcomes"].get("hit", 0) / e["calls"] if e["calls"] else 0.0)
    put("verify.cache.lookup_s", lookup, lambda e: e["s"])
    put("verify.classify.self_s", "verify.classify", lambda e: e["self_s"])

    for name in (
        "orientations.is_semi_transitive",
        "graphs.are_isomorphic",
        "graphs.refinement_hash",
        "graphs.is_k_colourable",
        "graphs.contains_induced",
        "catalog.find_forbidden",
        "boards.triangulate",
        "words.graph_of_word",
    ):
        put(f"{name}.calls", name, lambda e: e["calls"])
        put(f"{name}.s", name, lambda e: e["s"])
    put("catalog.find_forbidden.embedded_hits", "catalog.find_forbidden",
        lambda e: e["outcomes"].get("embedded", 0))
    put("catalog.find_forbidden.general_only_hits", "catalog.find_forbidden",
        lambda e: e["outcomes"].get("general", 0))
    put("boards.parse_triangulation.s", "boards.parse_triangulation", lambda e: e["s"])

    total = summary.get(ROOT, empty)["s"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        layer = name.split(".")[0]
        if layer in shares and total:
            shares[layer] += entry["self_s"] / total
    for layer, share in shares.items():
        values[f"self_share.{layer}"] = share
    return values, {"traced_s": total, "search_samples": len(summary.get(search, empty)["durations"])}
