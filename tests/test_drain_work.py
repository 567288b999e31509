"""The speculative drain's work on the ``branchy`` benchmark, pinned.

The repository benchmark's traced ``branchy`` run counts, per pass, the
cache-domain operations (``join``, ``leq`` and ``access`` calls on the
state classes) and the metrics registry's pop and slot-transfer
counters, and CI compares them with ``.github/op-counts.json``.  A
change to the drain that moves one of them (a transfer made twice, a
delivery dropped, a pop lost) changes the work of every analysis,
whatever it does to the timing.  This test makes the same count in the
tier-1 suite: it analyses the three ``branchy`` kernels once, as one
benchmark pass does, with counting wrappers on the state classes, and
compares the counts with the file.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.bench.programs import branchy_kernel_source
from repro.bench.tables import BENCH_SPECULATION
from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.engine import AnalysisEngine, AnalysisRequest
from repro.obs import metrics

OP_COUNTS = Path(__file__).resolve().parent.parent / ".github" / "op-counts.json"

#: Branch counts of the kernels one ``branchy`` pass analyses.
BRANCHY_SIZES = (16, 24, 32)

#: ``{op-counts.json name: registry counter}``.
REGISTRY_COUNTS = {
    "analysis.pops": "fixpoint.pops",
    "analysis.slot_retransfers": "fixpoint.slot_retransfers",
    "analysis.widenings": "fixpoint.widenings",
}

#: ``{op-counts.json name: state method}``.
DOMAIN_COUNTS = {
    "cache.join_calls": "join",
    "cache.leq_calls": "leq",
    "cache.access_calls": "access",
}


def _counting(calls: Counter, method: str, original):
    def counted(self, *args, **kwargs):
        calls[method] += 1
        return original(self, *args, **kwargs)

    return counted


def branchy_pass_counts(monkeypatch) -> dict[str, int]:
    """The counts of one cold ``branchy`` pass, by op-counts.json name."""
    calls: Counter = Counter()
    for state_class in (CacheState, ShadowCacheState, SetAssocCacheState):
        for method in DOMAIN_COUNTS.values():
            monkeypatch.setattr(
                state_class, method, _counting(calls, method, getattr(state_class, method))
            )
    registry = metrics()
    before = {name: registry.counter(counter).value for name, counter in REGISTRY_COUNTS.items()}
    engine = AnalysisEngine()
    for size in BRANCHY_SIZES:
        engine.run(
            AnalysisRequest.speculative(
                source=branchy_kernel_source(size),
                cache_config=CacheConfig.paper_default(),
                speculation=BENCH_SPECULATION,
            )
        )
    counts = {
        name: registry.counter(counter).value - before[name]
        for name, counter in REGISTRY_COUNTS.items()
    }
    counts.update({name: calls[method] for name, method in DOMAIN_COUNTS.items()})
    return counts


def test_a_branchy_pass_does_the_work_the_gate_pins(monkeypatch):
    expected = json.loads(OP_COUNTS.read_text())["branchy"]
    counts = branchy_pass_counts(monkeypatch)
    assert counts == {name: expected[name] for name in counts}
