"""Provenance stamps: the replayable record of how a verdict was made.

A :class:`ProvenanceStamp` is attached to every engine-executed
:class:`~repro.analysis.result.CacheAnalysisResult` (and therefore to
every artifact the persistent store writes): the source content hash,
the *resolved* cache geometry and speculation configuration, the engine
version, and the full request in wire shape.  That is sufficient to
replay the verdict bit-for-bit — :meth:`ProvenanceStamp.replay_request`
rebuilds the exact ``AnalysisRequest``, and re-running it must produce
a result with the same semantic fingerprint (pinned by
``tests/test_obs.py``).

The stamp is observational: it lives in a ``compare=False`` field, is
excluded from result fingerprints, and never participates in cache
keys.  The request is encoded and decoded by :mod:`repro.service.wire`,
the one request codec, imported at call time because the service layer
imports the engine, which imports this module.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Mapping


def _jsonable(value: Any) -> Any:
    """Render a config dataclass field as a JSON-friendly value."""
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _config_dict(config: Any) -> dict:
    """A config dataclass as a plain dict."""
    fields = getattr(config, "__dataclass_fields__", None)
    if fields is None:  # pragma: no cover - configs are dataclasses
        return dict(vars(config))
    return {name: _jsonable(getattr(config, name)) for name in fields}


@dataclass(frozen=True)
class ProvenanceStamp:
    """Everything needed to reproduce one verdict bit-for-bit."""

    engine_version: str
    source_sha256: str
    compile_key: str
    result_key: str
    kind: str
    #: The *resolved* configurations (defaults applied), so the stamp is
    #: meaningful even when the request left them as None.
    cache_config: dict = field(repr=False)
    speculation: dict | None = field(repr=False)
    #: The full request in wire shape — the replay payload.
    request: dict = field(repr=False)
    created_at: float = 0.0

    def to_wire(self) -> dict:
        """JSON-friendly dict form (the stored/wire representation)."""
        return {
            "engine_version": self.engine_version,
            "source_sha256": self.source_sha256,
            "compile_key": self.compile_key,
            "result_key": self.result_key,
            "kind": self.kind,
            "cache_config": self.cache_config,
            "speculation": self.speculation,
            "request": self.request,
            "created_at": self.created_at,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "ProvenanceStamp":
        return cls(
            engine_version=str(data["engine_version"]),
            source_sha256=str(data["source_sha256"]),
            compile_key=str(data["compile_key"]),
            result_key=str(data["result_key"]),
            kind=str(data["kind"]),
            cache_config=dict(data["cache_config"]),
            speculation=(
                None if data.get("speculation") is None else dict(data["speculation"])
            ),
            request=dict(data["request"]),
            created_at=float(data.get("created_at", 0.0)),
        )

    def replay_request(self):
        """Rebuild the exact :class:`AnalysisRequest` this stamp records.

        Resolving the rebuilt request through any engine must reproduce
        the same compile/result keys and the same semantic fingerprint.
        (Cold tooling path; defers to the service wire codec.)
        """
        from repro.service.wire import request_from_wire

        return request_from_wire(self.request)


def stamp_for_request(request: Any) -> ProvenanceStamp:
    """Stamp one request at execution time."""
    from repro import __version__  # deferred: repro.__init__ imports widely
    from repro.service.wire import request_to_wire

    return ProvenanceStamp(
        engine_version=__version__,
        source_sha256=hashlib.sha256(request.source.encode("utf-8")).hexdigest(),
        compile_key=request.compile_key(),
        result_key=request.result_key(),
        kind=request.kind.value,
        cache_config=_config_dict(request.resolved_cache_config),
        speculation=(
            _config_dict(request.resolved_speculation)
            if request.kind.value == "speculative"
            else None
        ),
        request=request_to_wire(request),
        created_at=time.time(),
    )
