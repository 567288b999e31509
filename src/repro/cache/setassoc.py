"""Per-set decomposition of the must-hit abstract domain.

A set-associative cache is, semantically, ``num_sets`` independent small
caches of ``ways`` lines each: an access to a block only touches the set
the block maps to, and replacement happens within that set.  The sound
abstraction is therefore the *product* of the single-set domain over all
sets — :class:`SetAssocCacheState` partitions blocks with the same
deterministic placement function the concrete simulator uses
(:mod:`repro.cache.placement`) and runs the existing age-bound domain
(:class:`~repro.cache.abstract.CacheState`, or the shadow-refined
:class:`~repro.cache.shadow.ShadowCacheState`) per set with
``num_lines = ways``.

Note this is *not* the fully-associative model restricted to fewer
lines: the fully-associative abstraction is **unsound** for
set-associative concrete caches, because it lets blocks of one set "age"
blocks of another — a direct-mapped cache conflict-misses two same-set
blocks that a 2-line fully-associative model happily proves both cached
(the counterexample in ``tests/test_setassoc.py``).

Index-unknown and secret-indexed accesses may touch any of the object's
blocks, hence any of the sets those blocks map to: each such set is aged
conservatively (no placeholder refinement — a placeholder's own set
placement says nothing about which set the real access falls in), while
sets the access provably cannot reach keep their bounds unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.abstract import AGE_INFINITY, CacheState
from repro.cache.config import CacheConfig
from repro.cache.placement import set_index
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import AccessKind, BlockAccess, LaneTable, MemoryBlock


@dataclass(frozen=True)
class SetAssocCacheState:
    """Product of per-set age-bound states, one per cache set.

    ``sets`` always has ``num_sets`` entries; entry ``i`` is the state of
    cache set ``i`` with ``ways`` lines.  All per-set states share the
    replacement ``policy`` and the layout's lane table (only the lanes of
    blocks placed in a set are ever non-zero in that set's state).  The
    wrapper carries its own ``is_bottom`` flag (⊥ of the product is ⊥ in
    every component; keeping the flag here makes the join identity cheap
    to test).
    """

    num_sets: int
    ways: int
    sets: tuple
    is_bottom: bool = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, config: CacheConfig, lanes: LaneTable, use_shadow: bool = False
    ) -> "SetAssocCacheState":
        """Entry state for ``config``: every set an empty cache."""
        flavour = ShadowCacheState if use_shadow else CacheState
        per_set = flavour.empty(config.ways, lanes, policy=config.policy)
        return cls(
            num_sets=config.num_sets,
            ways=config.ways,
            sets=tuple(per_set for _ in range(config.num_sets)),
        )

    @classmethod
    def bottom(
        cls, config: CacheConfig, lanes: LaneTable, use_shadow: bool = False
    ) -> "SetAssocCacheState":
        flavour = ShadowCacheState if use_shadow else CacheState
        per_set = flavour.bottom(config.ways, lanes, policy=config.policy)
        return cls(
            num_sets=config.num_sets,
            ways=config.ways,
            sets=tuple(per_set for _ in range(config.num_sets)),
            is_bottom=True,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def policy(self) -> str:
        return self.sets[0].policy

    @property
    def lanes(self) -> LaneTable:
        return self.sets[0].lanes

    def set_of(self, block: MemoryBlock) -> int:
        return set_index(block, self.num_sets)

    def age(self, block: MemoryBlock) -> int:
        """Upper bound on the *within-set* age of ``block`` (1..ways, or
        :data:`AGE_INFINITY` when not guaranteed cached)."""
        if self.is_bottom:
            return AGE_INFINITY
        return self.sets[self.set_of(block)].age(block)

    def must_hit(self, block: MemoryBlock) -> bool:
        return not self.is_bottom and self.sets[self.set_of(block)].must_hit(block)

    def must_hit_access(self, access: BlockAccess) -> bool:
        if self.is_bottom:
            return False
        return all(self.must_hit(block) for block in access.blocks)

    def cached_blocks(self) -> set[MemoryBlock]:
        blocks: set[MemoryBlock] = set()
        if self.is_bottom:
            return blocks
        for state in self.sets:
            blocks |= state.cached_blocks()
        return blocks

    def __len__(self) -> int:
        return sum(len(state.cached_blocks()) for state in self.sets)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "SetAssocCacheState":
        """Apply the transfer for one access to the set(s) it may touch."""
        if self.is_bottom:
            return self
        if access.kind is AccessKind.CONCRETE:
            index = self.set_of(access.blocks[0])
            return self._replace_set(index, self.sets[index]._touch(access.lanes[0]))
        # Index-unknown (or secret-indexed) access: it resolves to exactly
        # one of access.blocks at run time, so exactly one of their sets
        # takes an access of unknown target; every such set must be aged
        # conservatively, the others provably keep their contents.
        targets: dict[int, list[int]] = {}
        for block, lane in zip(access.blocks, access.lanes):
            targets.setdefault(self.set_of(block), []).append(lane)
        new_sets = list(self.sets)
        for index, lanes in targets.items():
            state = new_sets[index]
            if isinstance(state, ShadowCacheState):
                new_sets[index] = state.access_unknown(self.lanes.mask(lanes))
            else:
                new_sets[index] = state.access_unknown()
        return SetAssocCacheState(
            num_sets=self.num_sets, ways=self.ways, sets=tuple(new_sets)
        )

    def access_block(self, block: MemoryBlock) -> "SetAssocCacheState":
        """Access a single statically known block (unit-test convenience)."""
        if self.is_bottom:
            return self
        index = self.set_of(block)
        return self._replace_set(index, self.sets[index].access_block(block))

    def _replace_set(self, index: int, state) -> "SetAssocCacheState":
        new_sets = list(self.sets)
        new_sets[index] = state
        return SetAssocCacheState(
            num_sets=self.num_sets, ways=self.ways, sets=tuple(new_sets)
        )

    # ------------------------------------------------------------------
    # Lattice operations (pointwise over sets)
    # ------------------------------------------------------------------
    def join(self, other: "SetAssocCacheState") -> "SetAssocCacheState":
        self._check_compatible(other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return SetAssocCacheState(
            num_sets=self.num_sets,
            ways=self.ways,
            sets=tuple(a.join(b) for a, b in zip(self.sets, other.sets)),
        )

    def widen(self, previous: "SetAssocCacheState") -> "SetAssocCacheState":
        self._check_compatible(previous)
        if previous.is_bottom or self.is_bottom:
            return self
        return SetAssocCacheState(
            num_sets=self.num_sets,
            ways=self.ways,
            sets=tuple(a.widen(b) for a, b in zip(self.sets, previous.sets)),
        )

    def leq(self, other: "SetAssocCacheState") -> bool:
        self._check_compatible(other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return all(a.leq(b) for a, b in zip(self.sets, other.sets))

    def _check_compatible(self, other: "SetAssocCacheState") -> None:
        if (
            not isinstance(other, SetAssocCacheState)
            or self.num_sets != other.num_sets
            or self.ways != other.ways
        ):
            raise ValueError(
                f"incompatible set-associative states: "
                f"{self.num_sets}x{self.ways} vs "
                f"{getattr(other, 'num_sets', '?')}x{getattr(other, 'ways', '?')}"
            )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetAssocCacheState):
            return NotImplemented
        return (
            self.num_sets == other.num_sets
            and self.ways == other.ways
            and self.is_bottom == other.is_bottom
            and self.sets == other.sets
        )

    def __hash__(self) -> int:  # pragma: no cover - not hashed in hot paths
        return hash((self.num_sets, self.ways, self.is_bottom, self.sets))

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"SetAssocCacheState(⊥, {self.num_sets}x{self.ways})"
        parts = ", ".join(
            f"s{index}={state!r}"
            for index, state in enumerate(self.sets)
            if state.cached_blocks()
        )
        return f"SetAssocCacheState({self.num_sets}x{self.ways}, {parts or 'empty'})"

    def describe(self) -> str:
        if self.is_bottom:
            return "⊥"
        return " | ".join(
            f"set{index}:{state.describe()}" for index, state in enumerate(self.sets)
        )
