"""Shared transfer-function plumbing for the cache analyses.

Both the baseline and the speculative analysis iterate the same basic
operation: push an abstract cache state through the memory accesses of a
basic block.  This module pre-resolves every instruction's
:class:`MemoryRef` to a :class:`BlockAccess` and provides the
block-level transfers.

There is one :class:`AccessTable` per CFG and layout
(:func:`access_table`): it is kept with the CFG against its graph index,
so the baseline and every speculative analysis of a compiled program,
warm re-runs included, read the same table and its per-limit site
prefixes, and any edit the graph index sees gets a fresh table.  The
metrics registry counts ``access_table.builds`` and
``access_table.reuses``.

A table also memoises the *committed-path* transfers of the analyses
that read it: the speculative analysis's S transfer and the baseline's
transfer, both of the whole block.  Until a rollback merges a
speculative state into it, the committed flow of a speculative analysis
is the non-speculative flow, so every analysis of one compiled program
transfers the same blocks from the same states up to that point.  A
transfer is a pure function of the block's sites and its input state,
an immutable value whose equality covers flavour, line count, policy
and lane table, so :class:`CommittedTransfers` serves ``(block, state
in)`` from :attr:`AccessTable.memo` with exactly the ``(state out, site
flags)`` a walk would return.  Window and resume transfers are not
memoised: where a program is analysed once their inputs never repeat,
and there are many more of them to keep (5,640 window transfers against
219 S transfers in the ``branchy`` benchmark's three analyses).  The
registry counts ``access_table.memo_hits`` and
``access_table.memo_misses``.

Classification rides on the fixpoint's own transfers.  A *recording*
transfer (:func:`record_block`) reads each site's must-hit and
secret-dependence flags off the state it is about to access
(:func:`site_flags`), so the analyses keep the last record of each node
and turn it into :class:`AccessClassification` values once, after the
fixpoint (:func:`site_classifications`).  The speculative analysis
walks a window block's record in place, in its pop loop, where the walk
also joins the rollback prefixes.  :func:`classify_block` is the
walk for a state no transfer saw, e.g. a normal state joined with the
resume slots that reach its block.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.errors import AnalysisError
from repro.ir.cfg import CFG
from repro.ir.memory import AccessKind, BlockAccess, MemoryLayout
from repro.analysis.result import AccessClassification
from repro.obs import metrics


class SiteAccess(NamedTuple):
    """A static access site: instruction position plus resolved access."""

    instruction_index: int
    access: BlockAccess


class AccessTable:
    """Pre-resolved memory accesses for every reachable block of a CFG.

    Take a CFG's table with :func:`access_table`, which builds it once per
    graph and layout; building one per analysis repeats the work.  The
    table keeps its layout but not the CFG, which keeps the table.
    """

    def __init__(self, cfg: CFG, layout: MemoryLayout):
        self.layout = layout
        resolve = layout.resolve
        # Every site of the program passes here: build each named tuple
        # from its field values, without the keyword-binding constructor.
        new = tuple.__new__
        blocks = cfg.blocks
        self._by_block: dict[str, tuple[SiteAccess, ...]] = {
            name: tuple([
                new(SiteAccess, (index, resolve(ref)))
                for index, instruction in enumerate(blocks[name].instructions)
                for ref in instruction.memory_refs()
            ])
            for name in cfg.graph().reachable
        }
        #: ``{block: {instruction limit: site prefix}}``, filled on first use.
        self._prefixes: dict[str, dict[int, tuple[SiteAccess, ...]]] = {}
        #: ``{(block, state in): (state out, site flags)}``: the committed-path
        #: transfers made so far by the analyses reading this table
        #: (:class:`CommittedTransfers`).
        self.memo: dict[tuple[str, object], tuple[object, tuple[SiteFlags, ...]]] = {}

    def sites(self, block: str) -> tuple[SiteAccess, ...]:
        return self._by_block.get(block, ())

    def sites_up_to(
        self, block: str, instruction_limit: int | None
    ) -> tuple[SiteAccess, ...]:
        """Sites of the first ``instruction_limit`` instructions (all when
        None).  Each block's prefix is built once per limit."""
        if instruction_limit is None:
            return self._by_block.get(block, ())
        by_limit = self._prefixes.get(block)
        if by_limit is None:
            by_limit = self._prefixes[block] = {}
        prefix = by_limit.get(instruction_limit)
        if prefix is None:
            prefix = by_limit[instruction_limit] = tuple(
                site
                for site in self._by_block.get(block, ())
                if site.instruction_index < instruction_limit
            )
        return prefix


def access_table(cfg: CFG, layout: MemoryLayout) -> AccessTable:
    """The access table of ``cfg`` as it is now, under ``layout``.

    Built on first use and kept in :meth:`CFG.derived`, so it lives as
    long as the graph index does: every analysis of the graph shares it,
    and an edit that :meth:`CFG.graph` sees gets a fresh one.  Keyed by
    the layout's identity; the table holds its layout, so no other
    layout can take that identity while the entry lives.
    """
    derived = cfg.derived()
    key = (AccessTable, id(layout))
    table = derived.get(key)
    if table is None or table.layout is not layout:
        table = derived[key] = AccessTable(cfg, layout)
        metrics().counter("access_table.builds").inc()
    else:
        metrics().counter("access_table.reuses").inc()
    return table


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
    for _, access in table.sites_up_to(block, instruction_limit):
        current = current.access(access)
    return current


#: One access site's verdict as a recording transfer reads it:
#: ``(must_hit, secret_dependent)``.
SiteFlags = tuple[bool, bool]


def site_flags(state, access: BlockAccess) -> SiteFlags:
    """The verdict of ``access`` on ``state``, the state it executes in."""
    must_hit = state.must_hit_access(access)
    if access.kind is not AccessKind.SECRET or getattr(state, "is_bottom", False):
        return must_hit, False
    hit_blocks = sum(1 for b in access.blocks if state.must_hit(b))
    return must_hit, 0 < hit_blocks < len(access.blocks)


def record_block(
    state, table: AccessTable, block: str, instruction_limit: int | None = None
) -> tuple[object, tuple[SiteFlags, ...]]:
    """:func:`transfer_block`, also returning each site's flags."""
    current = state
    flags: list[SiteFlags] = []
    for _, access in table.sites_up_to(block, instruction_limit):
        flags.append(site_flags(current, access))
        current = current.access(access)
    return current, tuple(flags)


class CommittedTransfers:
    """One analysis's committed-path transfers (S, or the baseline's),
    served from its table's :attr:`~AccessTable.memo`.

    :meth:`record` is :func:`record_block` of a whole block: on a miss it
    walks the block and keeps the record in the memo, on a hit it returns
    the record an earlier walk from an equal state kept.  Analyses on
    other threads may miss one key at once: each walks it and stores an
    equal record, so the memo needs no lock.  The analysis counts its own
    hits and misses and :meth:`publish` adds them to the metrics registry
    once, so analyses sharing a table never mix their counts.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self, table: AccessTable):
        self.table = table
        self.hits = 0
        self.misses = 0

    def record(self, state, block: str) -> tuple[object, tuple[SiteFlags, ...]]:
        memo = self.table.memo
        key = (block, state)
        record = memo.get(key)
        if record is None:
            record = memo[key] = record_block(state, self.table, block)
            self.misses += 1
        else:
            self.hits += 1
        return record

    def publish(self) -> None:
        registry = metrics()
        registry.counter("access_table.memo_hits").inc(self.hits)
        registry.counter("access_table.memo_misses").inc(self.misses)


def record_mismatch(
    block: str, flags: tuple[SiteFlags, ...], sites: tuple[SiteAccess, ...]
) -> AnalysisError:
    """The error for a record of ``block`` that does not cover exactly the
    classified prefix ``sites``."""
    return AnalysisError(
        f"a record of block {block!r} holds {len(flags)} sites, "
        f"its classified prefix {len(sites)}"
    )


def site_classifications(
    block: str,
    sites: tuple[SiteAccess, ...],
    flags: tuple[SiteFlags, ...],
    speculative: bool = False,
    scenario_color: int | None = None,
) -> list[AccessClassification]:
    """The classifications of ``sites`` (a prefix of ``block``'s sites)
    from a recording transfer's ``flags`` for that same prefix."""
    if len(flags) != len(sites):
        raise record_mismatch(block, flags, sites)
    # The fixpoint's whole output passes here: build each named tuple
    # from its field values in order, without the keyword-binding
    # constructor.
    new = tuple.__new__
    secret = AccessKind.SECRET
    return [
        new(
            AccessClassification,
            (
                block,
                index,
                access.ref,
                access.kind,
                must_hit,
                speculative,
                scenario_color,
                access.kind is secret,
                secret_dependent,
            ),
        )
        for (index, access), (must_hit, secret_dependent) in zip(sites, flags)
    ]


def classify_block(
    state,
    table: AccessTable,
    block: str,
    instruction_limit: int | None = None,
    speculative: bool = False,
    scenario_color: int | None = None,
) -> list[AccessClassification]:
    """Walk ``block`` from ``state`` and classify each access site."""
    _, flags = record_block(state, table, block, instruction_limit)
    return site_classifications(
        block,
        table.sites_up_to(block, instruction_limit),
        flags,
        speculative=speculative,
        scenario_color=scenario_color,
    )
