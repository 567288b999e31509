"""Result types shared by the baseline and speculative cache analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.cache.config import CacheConfig
from repro.ir.instructions import MemoryRef
from repro.ir.memory import AccessKind
from repro.speculation.config import SpeculationConfig


class AccessClassification(NamedTuple):
    """The analysis verdict for one static memory-access site.

    ``speculative`` marks classifications of accesses *inside a
    speculative window* (they model what a mispredicted excursion does to
    the cache; their misses are the paper's "#SpMiss", which are masked by
    the pipeline and not directly observable).  ``secret_dependent`` is
    set for secret-indexed accesses whose hit/miss outcome depends on
    which element the secret selects — the side-channel condition.

    A named tuple: the fixpoint's whole output is built of these, and a
    tuple is several times cheaper to build than a frozen dataclass.
    Stored results pickle it by position, so a change to its fields needs
    a ``STORE_FORMAT_VERSION`` bump.
    """

    block: str
    instruction_index: int
    ref: MemoryRef
    kind: AccessKind
    must_hit: bool
    speculative: bool = False
    scenario_color: int | None = None
    secret_indexed: bool = False
    secret_dependent: bool = False

    @property
    def site(self) -> tuple[str, int]:
        return (self.block, self.instruction_index)


@dataclass
class CacheAnalysisResult:
    """Everything an analysis run produces.

    ``analysis_time`` is the wall-clock cost of the fixpoint computation
    that produced these states.  When the result is replayed from an
    engine's result cache, ``from_cache`` is set and ``analysis_time``
    still reports the original computation — the lookup itself is
    near-free and not an "analysis time".

    ``provenance`` is observational (``compare=False``): the replayable
    :class:`~repro.obs.provenance.ProvenanceStamp` the engine attaches
    records *how* the verdict was produced, and never participates in
    equality, result keys, or fingerprints.
    """

    program_name: str
    cache_config: CacheConfig
    speculation: SpeculationConfig | None
    entry_states: dict[str, Any] = field(default_factory=dict)
    classifications: list[AccessClassification] = field(default_factory=list)
    #: Worklist pops of the fixpoint.  A pop is one block, except on the
    #: speculative analysis's passes that cannot widen (loop-free
    #: programs), where it is one node: S at a block, or
    #: one branch's window or resume slots at a block (see
    #: :mod:`repro.analysis.multicolor`).
    iterations: int = 0
    widenings: int = 0
    analysis_time: float = 0.0
    num_speculative_branches: int = 0
    num_virtual_edges: int = 0
    num_virtual_edges_active: int = 0
    from_cache: bool = False
    provenance: Any = field(default=None, compare=False)

    def __setstate__(self, state):
        # Artifacts pickled by older versions must stay readable (and
        # `dataclasses.replace`-able) without a store format bump: default
        # the provenance stamp they may lack.  Attributes of fields since
        # removed stay in `__dict__`, read by nothing.
        self.__dict__.update(state)
        self.__dict__.setdefault("provenance", None)

    # ------------------------------------------------------------------
    # Normal-execution counts
    # ------------------------------------------------------------------
    def normal_classifications(self) -> list[AccessClassification]:
        return [c for c in self.classifications if not c.speculative]

    def speculative_classifications(self) -> list[AccessClassification]:
        return [c for c in self.classifications if c.speculative]

    @property
    def miss_count(self) -> int:
        """Number of access sites that cannot be proven to always hit
        (the paper's "#Miss" column)."""
        return sum(1 for c in self.normal_classifications() if not c.must_hit)

    @property
    def hit_count(self) -> int:
        return sum(1 for c in self.normal_classifications() if c.must_hit)

    @property
    def access_count(self) -> int:
        return len(self.normal_classifications())

    @property
    def speculative_miss_count(self) -> int:
        """Distinct sites that may miss during a speculative excursion
        (the paper's "#SpMiss")."""
        sites = {
            c.site for c in self.speculative_classifications() if not c.must_hit
        }
        return len(sites)

    # ------------------------------------------------------------------
    # Side-channel related queries
    # ------------------------------------------------------------------
    def secret_indexed_classifications(self) -> list[AccessClassification]:
        return [c for c in self.normal_classifications() if c.secret_indexed]

    def secret_dependent_classifications(self) -> list[AccessClassification]:
        return [c for c in self.normal_classifications() if c.secret_dependent]

    @property
    def leak_site_count(self) -> int:
        """Number of secret-dependent access sites (what the mitigation
        synthesiser drives to zero)."""
        return len(self.secret_dependent_classifications())

    @property
    def leak_detected(self) -> bool:
        """True when at least one secret-indexed access has a cache outcome
        that depends on the secret value."""
        return bool(self.secret_dependent_classifications())

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def must_hit_sites(self) -> set[tuple[str, int]]:
        return {c.site for c in self.normal_classifications() if c.must_hit}

    def miss_sites(self) -> set[tuple[str, int]]:
        return {c.site for c in self.normal_classifications() if not c.must_hit}

    @property
    def is_speculative(self) -> bool:
        return self.speculation is not None and self.speculation.depth_miss > 0

    def summary(self) -> str:
        mode = "speculative" if self.is_speculative else "non-speculative"
        lines = [
            f"{mode} cache analysis of {self.program_name!r}",
            f"  accesses: {self.access_count}  must-hit: {self.hit_count}  "
            f"possible misses: {self.miss_count}",
        ]
        if self.is_speculative:
            lines.append(
                f"  speculative misses: {self.speculative_miss_count}  "
                f"speculative branches: {self.num_speculative_branches}  "
                f"virtual edges: {self.num_virtual_edges_active}/{self.num_virtual_edges}"
            )
        cached = " (cached)" if self.from_cache else ""
        lines.append(
            f"  iterations: {self.iterations}  widenings: {self.widenings}  "
            f"time: {self.analysis_time:.3f}s{cached}"
        )
        if self.secret_indexed_classifications():
            verdict = "LEAK DETECTED" if self.leak_detected else "no leak found"
            lines.append(f"  side channel: {verdict}")
        return "\n".join(lines)
