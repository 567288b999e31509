"""Wire encoding for the analysis service protocol.

The daemon and its clients exchange line-delimited JSON.  This module
defines the only two payload shapes that cross the socket:

* **requests** — a lossless JSON form of
  :class:`~repro.engine.request.AnalysisRequest` (including the cache
  geometry and speculation knobs), so a client-built request hashes to
  the same compile/result keys on the server;
* **results** — a report-shaped JSON form of
  :class:`~repro.analysis.result.CacheAnalysisResult`: every access-site
  classification plus the aggregate counters.  Abstract fixpoint states
  are deliberately *not* serialised — they are analysis internals, and
  the applications only consume classifications.

:func:`result_fingerprint` gives a canonical digest of the semantic
content of a result (timing and cache provenance excluded), used by
``repro submit --verify`` and the CI smoke job to assert that
service-served results are bit-identical to direct engine execution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.analysis.result import CacheAnalysisResult
from repro.cache.config import CacheConfig
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy


class WireError(ValueError):
    """Raised for malformed wire payloads."""


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------
def cache_config_to_wire(config: CacheConfig) -> dict:
    return {
        "num_lines": config.num_lines,
        "line_size": config.line_size,
        "associativity": config.associativity,
        "hit_latency": config.hit_latency,
        "miss_penalty": config.miss_penalty,
        "policy": config.policy,
    }


def cache_config_from_wire(data: Mapping[str, Any]) -> CacheConfig:
    return CacheConfig(
        num_lines=int(data["num_lines"]),
        line_size=int(data["line_size"]),
        associativity=(
            None if data.get("associativity") is None else int(data["associativity"])
        ),
        hit_latency=int(data.get("hit_latency", 2)),
        miss_penalty=int(data.get("miss_penalty", 100)),
        policy=str(data.get("policy", "lru")),
    )


def speculation_to_wire(config: SpeculationConfig) -> dict:
    return {
        "depth_miss": config.depth_miss,
        "depth_hit": config.depth_hit,
        "merge_strategy": config.merge_strategy.value,
        "dynamic_depth_bounding": config.dynamic_depth_bounding,
        "use_shadow_state": config.use_shadow_state,
    }


def speculation_from_wire(data: Mapping[str, Any]) -> SpeculationConfig:
    return SpeculationConfig(
        depth_miss=int(data["depth_miss"]),
        depth_hit=int(data["depth_hit"]),
        merge_strategy=MergeStrategy(data.get("merge_strategy", "just_in_time")),
        dynamic_depth_bounding=bool(data.get("dynamic_depth_bounding", True)),
        use_shadow_state=bool(data.get("use_shadow_state", True)),
    )


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def request_to_wire(request: AnalysisRequest) -> dict:
    return {
        "source": request.source,
        "kind": request.kind.value,
        "entry": request.entry,
        "line_size": request.line_size,
        "cache_config": (
            None
            if request.cache_config is None
            else cache_config_to_wire(request.cache_config)
        ),
        "speculation": (
            None
            if request.speculation is None
            else speculation_to_wire(request.speculation)
        ),
        "use_shadow_state": request.use_shadow_state,
        "unroll": request.unroll,
        "inline": request.inline,
        "max_unroll_iterations": request.max_unroll_iterations,
        "label": request.label,
        "warm_from": request.warm_from,
    }


def request_from_wire(data: Mapping[str, Any]) -> AnalysisRequest:
    try:
        source = data["source"]
    except KeyError as error:
        raise WireError("request payload is missing 'source'") from error
    if not isinstance(source, str):
        raise WireError(f"request 'source' must be a string, got {type(source).__name__}")
    try:
        kind = AnalysisKind(data.get("kind", AnalysisKind.SPECULATIVE.value))
    except ValueError as error:
        raise WireError(f"unknown analysis kind {data.get('kind')!r}") from error
    # Pre-incremental clients simply omit the lineage handle; a handle the
    # server has no snapshot for silently degrades to a cold run, so no
    # existence check belongs here — only a shape check.
    warm_from = data.get("warm_from")
    if warm_from is not None and not isinstance(warm_from, str):
        raise WireError(
            f"request 'warm_from' must be a string result key or null, "
            f"got {type(warm_from).__name__}"
        )
    try:
        return AnalysisRequest(
            source=source,
            kind=kind,
            entry=data.get("entry"),
            line_size=int(data.get("line_size", 64)),
            cache_config=(
                None
                if data.get("cache_config") is None
                else cache_config_from_wire(data["cache_config"])
            ),
            speculation=(
                None
                if data.get("speculation") is None
                else speculation_from_wire(data["speculation"])
            ),
            use_shadow_state=bool(data.get("use_shadow_state", True)),
            unroll=bool(data.get("unroll", True)),
            inline=bool(data.get("inline", True)),
            max_unroll_iterations=int(data.get("max_unroll_iterations", 4096)),
            # Older clients send keys of removed knobs, which are ignored:
            # ``prune_scenarios`` never changed a verdict, and requests
            # with ``scenario_shards``/``shard_backend`` get the default
            # result key and the one engine's result.
            label=data.get("label"),
            warm_from=warm_from,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise WireError(f"malformed request payload: {error}") from error


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def result_to_wire(result: CacheAnalysisResult) -> dict:
    classifications = [
        {
            "block": c.block,
            "instruction_index": c.instruction_index,
            "symbol": c.ref.symbol,
            "line": c.ref.line,
            "is_write": c.ref.is_write,
            "kind": c.kind.name.lower(),
            "must_hit": c.must_hit,
            "speculative": c.speculative,
            "scenario_color": c.scenario_color,
            "secret_indexed": c.secret_indexed,
            "secret_dependent": c.secret_dependent,
        }
        for c in result.classifications
    ]
    return {
        "program_name": result.program_name,
        "cache_config": cache_config_to_wire(result.cache_config),
        "speculation": (
            None if result.speculation is None else speculation_to_wire(result.speculation)
        ),
        "access_sites": result.access_count,
        "must_hits": result.hit_count,
        "misses": result.miss_count,
        "speculative_misses": result.speculative_miss_count,
        "speculative_branches": result.num_speculative_branches,
        "virtual_edges": result.num_virtual_edges,
        "virtual_edges_active": result.num_virtual_edges_active,
        "iterations": result.iterations,
        "widenings": result.widenings,
        "leak_detected": result.leak_detected,
        "classifications": classifications,
        "analysis_time": result.analysis_time,
        "from_cache": result.from_cache,
        "provenance": (
            None
            if getattr(result, "provenance", None) is None
            else result.provenance.to_wire()
        ),
    }


#: Wire-result keys that describe *how* a result was produced rather
#: than *what* was computed; excluded from the semantic fingerprint.
#: The provenance stamp carries a wall-clock timestamp, so it must never
#: enter the digest — "replayed from the store" and "recomputed" compare
#: equal exactly when the verdicts are bit-identical.
_PROVENANCE_KEYS = ("analysis_time", "from_cache", "provenance")


def result_fingerprint(result: "CacheAnalysisResult | Mapping[str, Any]") -> str:
    """Canonical digest of a result's semantic content.

    Accepts either a live :class:`CacheAnalysisResult` or its wire dict,
    and produces the same digest for both, with timing and cache
    provenance stripped — so "served from the store" and "recomputed
    from scratch" compare equal exactly when the analysis verdicts are
    bit-identical.
    """
    wire = dict(result) if isinstance(result, Mapping) else result_to_wire(result)
    for key in _PROVENANCE_KEYS:
        wire.pop(key, None)
    canonical = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
