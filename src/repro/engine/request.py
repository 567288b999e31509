"""Declarative analysis requests.

An :class:`AnalysisRequest` captures everything needed to reproduce one
analysis run — the MiniC source, the front-end options, the cache
geometry, and the analysis kind and knobs — as an immutable, hashable,
picklable value.  Requests are the engine's cache keys, its process-pool
work items and the service's wire-format job descriptions (see
:mod:`repro.service.wire`).

Fields come in two groups.  The semantic ones (source, front-end
options, geometry, speculation config) make up the result key.  The
execution hints (``warm_from``, ``label``) never change a verdict, so
equality and the key ignore them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from repro.cache.config import CacheConfig
from repro.speculation.config import SpeculationConfig


class AnalysisKind(str, Enum):
    """Which analysis a request runs."""

    BASELINE = "baseline"  # Algorithm 1, non-speculative must-hit
    SPECULATIVE = "speculative"  # Algorithms 2/3, speculation-sound


@dataclass(frozen=True)
class AnalysisRequest:
    """One declarative unit of analysis work.

    ``use_shadow_state`` only affects :data:`AnalysisKind.BASELINE` runs;
    the speculative analysis reads the flag from its
    :class:`SpeculationConfig`.  ``label`` is carried through for
    reporting and never affects caching.
    """

    source: str
    kind: AnalysisKind = AnalysisKind.SPECULATIVE
    entry: str | None = None
    line_size: int = 64
    cache_config: CacheConfig | None = None
    speculation: SpeculationConfig | None = None
    use_shadow_state: bool = True
    unroll: bool = True
    inline: bool = True
    max_unroll_iterations: int = 4096
    label: str | None = field(default=None, compare=False)
    #: ``result_key()`` of a prior request whose retained snapshot should
    #: warm-start this one (incremental re-analysis; see
    #: :mod:`repro.engine.incremental`).  Purely an execution hint, like
    #: ``label``: warm results are bit-identical to cold ones, so
    #: the lineage handle never affects equality or the result key, and a
    #: missing/evicted/incompatible snapshot silently means a cold run.
    warm_from: str | None = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, source: str, **kwargs) -> "AnalysisRequest":
        return cls(source=source, kind=AnalysisKind.BASELINE, **kwargs)

    @classmethod
    def speculative(cls, source: str, **kwargs) -> "AnalysisRequest":
        return cls(source=source, kind=AnalysisKind.SPECULATIVE, **kwargs)

    @classmethod
    def for_program(cls, program, kind: AnalysisKind, **kwargs) -> "AnalysisRequest":
        """Build a request matching an already-compiled program.

        The request records the program's source, entry function, line
        size and front-end options, so resolving it through the engine
        reproduces the same compile; callers holding the program can pass
        it along to skip even that (see :meth:`AnalysisEngine.run`).
        """
        return cls(
            source=program.source,
            kind=kind,
            entry=program.entry_function,
            line_size=program.layout.line_size,
            unroll=program.unroll,
            inline=program.inline,
            max_unroll_iterations=program.max_unroll_iterations,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Normalised views (None means "the paper's default")
    # ------------------------------------------------------------------
    @property
    def resolved_cache_config(self) -> CacheConfig:
        return self.cache_config or CacheConfig.paper_default()

    @property
    def resolved_speculation(self) -> SpeculationConfig:
        return self.speculation or SpeculationConfig.paper_default()

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def compile_key(self) -> str:
        """Content-hash key identifying the front-end work of this request.

        Memoised on the (frozen) instance: the dispatch path looks keys up
        several times per request and must not re-hash the source each
        time.
        """
        key = self.__dict__.get("_compile_key")
        if key is None:
            key = _digest(
                "compile",
                self.source,
                self.entry,
                self.line_size,
                self.unroll,
                self.inline,
                self.max_unroll_iterations,
            )
            object.__setattr__(self, "_compile_key", key)
        return key

    def result_key(self) -> str:
        """Content-hash key identifying the full analysis run (memoised)."""
        key = self.__dict__.get("_result_key")
        if key is None:
            # The cache config is digested via its full dataclass repr, so
            # the key separates every geometry/policy axis (num_lines,
            # associativity, replacement policy, latencies): two requests
            # differing only in geometry can never alias in the LRU tier
            # or in the persistent store.
            parts: list[object] = [
                self.compile_key(), self.kind.value, self.resolved_cache_config
            ]
            if self.kind is AnalysisKind.BASELINE:
                parts.append(self.use_shadow_state)
            else:
                parts.append(self.resolved_speculation)
            key = _digest("result", *parts)
            object.__setattr__(self, "_result_key", key)
        return key

    def describe(self) -> str:
        name = self.label or self.entry or "<anonymous>"
        return f"{self.kind.value} analysis of {name!r}"


def program_request(
    program,
    cache_config=None,
    speculation=None,
    speculative: bool = True,
    label: str | None = None,
) -> AnalysisRequest:
    """The request for one analysis of an already-compiled program.

    Shared by the WCET and side-channel applications so both build
    identical cache keys for the same work.
    """
    return AnalysisRequest.for_program(
        program,
        kind=AnalysisKind.SPECULATIVE if speculative else AnalysisKind.BASELINE,
        cache_config=cache_config,
        speculation=speculation if speculative else None,
        label=label or program.cfg.name,
    )


def _digest(*parts: object) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()
