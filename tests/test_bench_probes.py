"""The benchmark's per-layer probes resolve against the library.

A probe whose bindings have all gone from the library makes a traced
benchmark run report ``absent`` instead of a number; this test fails first.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    with spans.Tracer() as tracer:
        assert tracer.present == set(spans.PROBES)
