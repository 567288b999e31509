"""The in-process workloads: ``tables`` and ``branchy``.

A *pass* runs every request of the workload once, cold: a fresh
:class:`AnalysisEngine`, an emptied vcfg memo, and ``engine.run()`` per
request in an order drawn from the seed and the pass index.  Passes
repeat until the run's seconds are used; each op is timed on its own,
and its verdict is checked after the clock stops.  Untraced runs time
with a :class:`~hostspeed.HostClock`, traced runs with the raw wall
clock.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from typing import Callable

from catalogue import PAPER_SPECULATION_ONLY_LEAKS, branchy_requests, tables_requests
from hostspeed import HostClock
from stats import Outcome, median, peak_rss_kb, percentile, tail
from tracer import REGISTRY_COUNTS, Tracer
from verdicts import leaks_only_under_speculation, load_expected, result_verdict

from repro.engine.engine import AnalysisEngine
from repro.obs import metrics
from repro.speculation import vcfg as vcfg_module


@dataclass(frozen=True)
class Spec:
    build: Callable[[], list]
    #: Compile-cache hits one cold pass must show: each source compiles
    #: once per pass and is shared by that pass's analyses of it.
    compile_hits: int
    #: Tail percentile.  Chosen where the latency distribution is dense
    #: (see README.md): higher ones mostly measure stalls of the host.
    tail_q: float
    #: Spans that must fire in a traced pass.
    must_fire: tuple[str, ...]


_FRONT_AND_ANALYSIS = (
    "lang.parse", "lang.typecheck", "ir.unroll", "ir.lower", "ir.inline",
    "ir.frontend_glue", "speculation.vcfg", "analysis.init", "analysis.fixpoint",
    "analysis.classify", "cache.join", "cache.leq", "cache.access", "engine.run",
)

SPECS = {
    "tables": Spec(tables_requests, 30, 98.0, _FRONT_AND_ANALYSIS + ("analysis.baseline",)),
    "branchy": Spec(branchy_requests, 0, 99.0, _FRONT_AND_ANALYSIS),
}

#: Per-layer metrics that are operation counts and must repeat exactly.
COUNT_METRICS = (
    "ir.blocks", "speculation.scenarios", "speculation.virtual_edges",
    "analysis.pops", "analysis.slot_retransfers", "analysis.widenings",
    "cache.join_calls", "cache.leq_calls", "cache.access_calls",
    "cache.state_entries_mean", "cache.state_entries_max",
    "engine.compile_hit_rate", "engine.result_hit_rate",
)


def _registry_counts() -> dict[str, int]:
    snapshot = metrics().snapshot()
    return {
        name: snapshot.get(counter, {}).get("value", 0)
        for name, counter in REGISTRY_COUNTS.items()
    }


def _order(requests: list, seed: int, index: int) -> list:
    """Seeded shuffle of one pass's requests.  Within the requests that
    share a source, the one that runs first pays the compile; that role
    rotates with the pass index, so over a run every request pays it
    equally often and the latency distribution does not hinge on which
    ones drew it."""
    random.Random(f"{seed}/{index}").shuffle(requests)
    positions: dict[str, list[int]] = {}
    for position, (_, request) in enumerate(requests):
        positions.setdefault(request.source, []).append(position)
    for group in positions.values():
        chosen = sorted(group, key=lambda position: requests[position][0])[index % len(group)]
        requests[group[0]], requests[chosen] = requests[chosen], requests[group[0]]
    return requests


@dataclass
class _Pass:
    setup_s: float
    latencies: list[float]
    layers: dict[str, float] | None = None
    self_time_s: float = 0.0


def _run_pass(workload: str, seed: int, index: int, expected: dict, outcome: Outcome,
              traced: bool, now: Callable[[], float]) -> _Pass:
    spec = SPECS[workload]
    started = now()
    vcfg_module._vcfg_memo.clear()
    memo_before = vcfg_module.vcfg_memo_stats()
    engine = AnalysisEngine()
    requests = _order(spec.build(), seed, index)
    setup_s = now() - started

    tracer = Tracer().install() if traced else None
    counts_before = _registry_counts()
    latencies: list[float] = []
    results = []
    try:
        for request_id, request in requests:
            op_start = now()
            results.append((request_id, engine.run(request)))
            latencies.append(now() - op_start)
    finally:
        if tracer is not None:
            tracer.uninstall()
    counts_after = _registry_counts()
    outcome.attempted += len(requests)

    failed: set[str] = set()
    for request_id, result in results:
        if result_verdict(result) != expected[request_id]:
            failed.add(request_id)
            outcome.problem(f"pass {index}: verdict mismatch on {request_id}")
    if workload == "tables":
        by_id = dict(results)
        kernels = {request_id.split("/")[1] for request_id in by_id if request_id.startswith("t7/")}
        found = leaks_only_under_speculation({
            name: (by_id[f"t7/{name}/baseline"].leak_detected,
                   by_id[f"t7/{name}/speculative"].leak_detected)
            for name in kernels
        })
        if found != PAPER_SPECULATION_ONLY_LEAKS:
            wrong = found ^ PAPER_SPECULATION_ONLY_LEAKS
            failed.update(f"t7/{name}/{kind}" for name in wrong for kind in ("baseline", "speculative"))
            outcome.problem(f"pass {index}: speculation-only leaks {sorted(found)} differ from Table 7")
    stats = engine.stats
    memo_hits = vcfg_module.vcfg_memo_stats().hits - memo_before.hits
    sources = len({request.source for _, request in requests})
    if (
        memo_hits
        or stats.results.hits
        or stats.compile.hits != spec.compile_hits
        or stats.compile.misses != sources
    ):
        failed.update(request_id for request_id, _ in requests)
        outcome.problem(
            f"pass {index}: not cold (vcfg memo hits {memo_hits}, result hits "
            f"{stats.results.hits}, compile {stats.compile.hits} hits / "
            f"{stats.compile.misses} misses for {sources} sources)"
        )
    outcome.failed += len(failed)

    record = _Pass(setup_s=setup_s, latencies=latencies)
    if tracer is not None:
        layers = tracer.layer_metrics()
        for name in REGISTRY_COUNTS:
            layers[name] = counts_after[name] - counts_before[name]
        layers["engine.compile_hit_rate"] = stats.compile.hit_rate
        layers["engine.result_hit_rate"] = stats.results.hit_rate
        missing = [name for name in spec.must_fire if name not in tracer.fired()]
        if missing:
            outcome.problem(f"pass {index}: wrappers never fired: {missing}")
        record.layers = layers
        record.self_time_s = tracer.self_time_total()
    return record


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, list[float]]:
    """Run passes for ``seconds``; returns the outcome and the per-pass
    set-up times.  Untraced runs report the end-to-end metrics; traced
    runs alternate untraced and traced passes and report per-layer ones."""
    expected = load_expected()
    outcome = Outcome()
    passes: list[_Pass] = []
    traced_passes: list[_Pass] = []
    clock = contextlib.nullcontext() if trace else HostClock()
    now = time.perf_counter if trace else clock.now
    started = time.perf_counter()
    index = 0
    with clock:
        while True:
            traced = trace and index % 2 == 1
            record = _run_pass(workload, seed, index, expected, outcome, traced, now)
            (traced_passes if traced else passes).append(record)
            index += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (not trace or len(traced_passes) >= 2):
                break

    setups = [record.setup_s for record in passes + traced_passes]
    if not trace:
        latencies = [latency for record in passes for latency in record.latencies]
        value, label = tail(latencies, SPECS[workload].tail_q)
        outcome.metrics.update(
            throughput_ops=median([len(r.latencies) / _wall(r) for r in passes]),
            latency_p50_ms=percentile(latencies, 50) * 1e3,
            latency_tail_ms=value * 1e3,
            peak_rss_mb=peak_rss_kb() / 1024.0,
        )
        outcome.notes["latency_tail_ms"] = label
        outcome.notes["throughput_ops"] = f"median of {len(passes)} cold passes"
        return outcome, setups

    layers = {
        name: median([record.layers[name] for record in traced_passes])
        for name in traced_passes[0].layers
    }
    for name in COUNT_METRICS:
        values = {record.layers[name] for record in traced_passes}
        if len(values) > 1:
            outcome.problem(f"count {name} differs between traced passes: {sorted(values)}")
    coverage = median([record.self_time_s / _wall(record) for record in traced_passes])
    if abs(coverage - 1.0) > 0.10:
        outcome.problem(f"layer self times cover {coverage:.1%} of traced wall time")
    layers["trace.self_time_coverage"] = coverage
    layers["trace.overhead_frac"] = (
        median([_wall(record) for record in traced_passes])
        / median([_wall(record) for record in passes])
        - 1.0
    )
    outcome.metrics.update(layers)
    outcome.notes["trace.overhead_frac"] = (
        f"{len(traced_passes)} traced vs {len(passes)} untraced passes"
    )
    return outcome, setups


def _wall(record: _Pass) -> float:
    return sum(record.latencies)
