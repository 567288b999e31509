"""Shared transfer-function plumbing for the cache analyses.

Both the baseline and the speculative analysis iterate the same basic
operation: push an abstract cache state through the memory accesses of a
basic block.  This module pre-resolves every instruction's
:class:`MemoryRef` to a :class:`BlockAccess` once per program and
provides the block-level transfer and classification helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.cfg import CFG
from repro.ir.memory import AccessKind, BlockAccess, MemoryLayout
from repro.analysis.result import AccessClassification


@dataclass(frozen=True)
class SiteAccess:
    """A static access site: instruction position plus resolved access."""

    instruction_index: int
    access: BlockAccess


class AccessTable:
    """Pre-resolved memory accesses for every block of a CFG."""

    def __init__(self, cfg: CFG, layout: MemoryLayout):
        self.cfg = cfg
        self.layout = layout
        self._by_block: dict[str, list[SiteAccess]] = {}
        for name in cfg.reachable_blocks():
            sites: list[SiteAccess] = []
            for index, instruction in enumerate(cfg.block(name).instructions):
                for ref in instruction.memory_refs():
                    sites.append(
                        SiteAccess(instruction_index=index, access=layout.resolve(ref))
                    )
            self._by_block[name] = sites

    def sites(self, block: str) -> list[SiteAccess]:
        return self._by_block.get(block, [])

    def sites_up_to(self, block: str, instruction_limit: int | None) -> list[SiteAccess]:
        """Sites of the first ``instruction_limit`` instructions (all when None)."""
        sites = self._by_block.get(block, [])
        if instruction_limit is None:
            return sites
        return [site for site in sites if site.instruction_index < instruction_limit]

    @property
    def total_sites(self) -> int:
        return sum(len(sites) for sites in self._by_block.values())


def new_entry_state(config: CacheConfig, use_shadow: bool, layout: MemoryLayout):
    """Fresh empty-cache state of the flavour ``config`` calls for, packed
    over ``layout``'s lane table.

    Fully-associative geometries use the flat single-set domain (the
    paper's default, bit-identical to the pre-geometry behaviour);
    set-associative ones use the per-set product domain.  Both honour
    ``config.policy``.
    """
    if config.is_fully_associative:
        flavour = ShadowCacheState if use_shadow else CacheState
        return flavour.empty(config.num_lines, layout.lanes, policy=config.policy)
    return SetAssocCacheState.empty(config, layout.lanes, use_shadow)


def new_bottom_state(config: CacheConfig, use_shadow: bool, layout: MemoryLayout):
    if config.is_fully_associative:
        flavour = ShadowCacheState if use_shadow else CacheState
        return flavour.bottom(config.num_lines, layout.lanes, policy=config.policy)
    return SetAssocCacheState.bottom(config, layout.lanes, use_shadow)


def transfer_block(state, table: AccessTable, block: str, instruction_limit: int | None = None):
    """Push ``state`` through the accesses of ``block``.

    Returns the state after the last (allowed) instruction.
    """
    current = state
    for site in table.sites_up_to(block, instruction_limit):
        current = current.access(site.access)
    return current


def transfer_block_with_prefix_join(
    state, table: AccessTable, block: str, instruction_limit: int | None = None
):
    """Like :func:`transfer_block`, but also return the join of the states
    after *every* prefix of the block.

    The prefix join is exactly the state contributed by a rollback that may
    happen at any point inside the block (Section 5.2): the merge of all
    possible rollback points.
    """
    current = state
    prefix_join = state
    for site in table.sites_up_to(block, instruction_limit):
        current = current.access(site.access)
        prefix_join = prefix_join.join(current)
    return current, prefix_join


def classify_block(
    state,
    table: AccessTable,
    block: str,
    secret_symbols: set[str],
    instruction_limit: int | None = None,
    speculative: bool = False,
    scenario_color: int | None = None,
) -> list[AccessClassification]:
    """Walk ``block`` from ``state`` and classify each access site."""
    classifications: list[AccessClassification] = []
    current = state
    for site in table.sites_up_to(block, instruction_limit):
        access = site.access
        must_hit = current.must_hit_access(access)
        secret_indexed = access.kind is AccessKind.SECRET
        secret_dependent = False
        if secret_indexed and not getattr(current, "is_bottom", False):
            hit_blocks = sum(1 for b in access.blocks if current.must_hit(b))
            secret_dependent = 0 < hit_blocks < len(access.blocks)
        classifications.append(
            AccessClassification(
                block=block,
                instruction_index=site.instruction_index,
                ref=access.ref,
                kind=access.kind,
                must_hit=must_hit,
                speculative=speculative,
                scenario_color=scenario_color,
                secret_indexed=secret_indexed,
                secret_dependent=secret_dependent,
            )
        )
        current = current.access(access)
    return classifications
