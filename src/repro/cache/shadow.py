"""Refined abstract cache state with shadow variables (Section 6.3,
Appendix B).

In addition to the must-ages of :class:`~repro.cache.abstract.CacheState`
(upper bound on the age along *all* paths), this state tracks for every
block a *shadow* (may) age: a lower bound on the youngest position the
block may occupy along *some* path.  The shadow ages are used to refine
the aging rule: a block ``u`` only ages when enough distinct blocks could
actually be sitting in front of it (``NYoung(u) >= Age(u)``), which
prevents the spurious evictions illustrated in Figure 11 and fixed in
Figure 13.

Lane encoding
-------------
Both age maps use the lane encoding of :mod:`repro.cache.abstract`: one
Python int per map, one 16-bit lane per block of the layout's
:class:`~repro.ir.memory.LaneTable`, holding ``num_lines + 1 - age`` for
a block whose (must or shadow) age is at most ``num_lines`` and 0 for an
absent block.  The invariants are the same: absent = 0, every value at
most ``num_lines`` and so below the lane's guard bit, and one lane table
per layout, shared by every state of an analysis (``join``, ``leq`` and
``widen`` raise ``ValueError`` on another flavour or an unequal table).
The must join (pointwise max of ages) is then a lane-wise min of the
values and the may join (pointwise min of ages) a lane-wise max.

May ranking
-----------
The NYoung rule asks, for each must age ``a``, whether the ``a``-th
largest may value reaches a threshold, so it needs the may values in
descending order.  A state may carry them in :attr:`may_ranking`: the
lane values of ``may_packed`` sorted in descending order and packed one
per lane (``LaneTable.pack(sorted(values(may), reverse=True))``), or
None when it has not been computed.  An LRU touch derives its result's
ranking from its input's with a few big-int operations, because it
moves one contiguous prefix of the ranking (the values at least the
accessed block's).  ``widen``, and ``join`` when it hands back one of
its operands, keep it since the may map does not change.  Every other
operation that builds a new may map (``join`` results, unknown-index
and secret accesses, FIFO touches) drops it, as do fresh and unpickled
states; a touch then sorts only when its NYoung step needs the ranking.
The ranking is derived data: ``__eq__``, ``__hash__`` and pickling
ignore it.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.cache.abstract import (
    AGE_INFINITY,
    AgeView,
    age_all,
    all_lanes_present,
    check_compatible,
    check_num_lines,
    describe_ages,
    keep_at_least,
    lane_value,
    lanes_from_ages,
    placeholder_lanes,
)
from repro.ir.memory import LANE_BITS, AccessKind, BlockAccess, LaneTable, MemoryBlock

_LANE = (1 << LANE_BITS) - 1
_GUARD_SHIFT = LANE_BITS - 1


class ShadowCacheState:
    """Must-ages plus shadow (may) ages.

    ``must_packed`` holds the blocks guaranteed cached (age <=
    num_lines); ``may_packed`` the blocks that may be cached (shadow age
    <= num_lines).  :attr:`must` and :attr:`may` are read-only
    ``{MemoryBlock: age}`` views of them.  ``may_ranking`` is the derived
    descending ranking of ``may_packed``, or None (see the module
    docstring).
    """

    __slots__ = (
        "num_lines", "lanes", "must_packed", "may_packed", "is_bottom", "policy", "may_ranking"
    )

    def __init__(
        self,
        num_lines: int,
        lanes: LaneTable,
        must_packed: int = 0,
        may_packed: int = 0,
        is_bottom: bool = False,
        policy: str = "lru",
    ):
        check_num_lines(num_lines)
        self.num_lines = num_lines
        self.lanes = lanes
        self.must_packed = must_packed
        self.may_packed = may_packed
        self.is_bottom = is_bottom
        self.policy = policy
        self.may_ranking = None

    def _with(self, must: int, may: int, may_ranking: int | None = None) -> "ShadowCacheState":
        """A state of the same flavour; ``may_ranking`` must be the ranking
        of ``may`` itself, never one of another may map."""
        state = object.__new__(ShadowCacheState)
        state.num_lines = self.num_lines
        state.lanes = self.lanes
        state.must_packed = must
        state.may_packed = may
        state.is_bottom = False
        state.policy = self.policy
        state.may_ranking = may_ranking
        return state

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_lines: int, lanes: LaneTable, policy: str = "lru") -> "ShadowCacheState":
        return cls(num_lines, lanes, policy=policy)

    @classmethod
    def bottom(cls, num_lines: int, lanes: LaneTable, policy: str = "lru") -> "ShadowCacheState":
        return cls(num_lines, lanes, is_bottom=True, policy=policy)

    @classmethod
    def from_ages(
        cls,
        num_lines: int,
        lanes: LaneTable,
        must: Mapping[MemoryBlock, int],
        may: Mapping[MemoryBlock, int],
        policy: str = "lru",
    ) -> "ShadowCacheState":
        return cls(
            num_lines,
            lanes,
            lanes_from_ages(must, lanes, num_lines),
            lanes_from_ages(may, lanes, num_lines),
            policy=policy,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def must(self) -> AgeView:
        return AgeView(0 if self.is_bottom else self.must_packed, self.lanes, self.num_lines)

    @property
    def may(self) -> AgeView:
        return AgeView(0 if self.is_bottom else self.may_packed, self.lanes, self.num_lines)

    def _age_in(self, packed: int, block: MemoryBlock) -> int:
        lane = self.lanes.lane_of(block)
        if self.is_bottom or lane is None:
            return AGE_INFINITY
        value = lane_value(packed, lane)
        return self.num_lines + 1 - value if value else AGE_INFINITY

    def age(self, block: MemoryBlock) -> int:
        return self._age_in(self.must_packed, block)

    def shadow_age(self, block: MemoryBlock) -> int:
        return self._age_in(self.may_packed, block)

    def must_hit(self, block: MemoryBlock) -> bool:
        return self.age(block) != AGE_INFINITY

    def must_hit_access(self, access: BlockAccess) -> bool:
        return all_lanes_present(self.must_packed, access) and not self.is_bottom

    def cached_blocks(self) -> set[MemoryBlock]:
        return set(self.must)

    def may_cached_blocks(self) -> set[MemoryBlock]:
        return set(self.may)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "ShadowCacheState":
        if self.is_bottom:
            return self
        if access.kind is AccessKind.CONCRETE:
            return self._touch(access.lanes[0])
        if access.kind is AccessKind.SECRET:
            # Fully conservative: the side-channel verdict about this access
            # must never benefit from optimistic assumptions.
            return self.access_unknown(access.lane_mask)
        return self._access_unknown_array(access)

    def access_block(self, block: MemoryBlock) -> "ShadowCacheState":
        """Appendix B transfer for a statically known block (LRU), or the
        FIFO transfer: a guaranteed hit leaves a FIFO queue untouched; a
        possible miss may insert one new line at the front, so every must
        bound grows by one, the accessed block becomes resident with the
        weakest in-cache bound, and its shadow age drops to 1 (it may be
        the front insertion).  The NYoung refinement is LRU reasoning and
        is not applied to FIFO."""
        if self.is_bottom:
            return self
        return self._touch(self.lanes.lane(block))

    def _touch(self, lane: int) -> "ShadowCacheState":
        num_lines = self.num_lines
        lanes = self.lanes
        shift = lane * LANE_BITS
        must = self.must_packed
        may = self.may_packed
        old_must = (must >> shift) & _LANE
        old_may = (may >> shift) & _LANE
        if self.policy == "fifo":
            if old_must:
                return self
            return self._with(
                age_all(must, lanes) + (1 << shift),
                may + ((num_lines - old_may) << shift),
            )
        guards = lanes.guards
        ones = lanes.ones

        # Step 1: update the shadow (may) component.  Every block whose
        # shadow age is at most the accessed block's (lane value >= its
        # value, or every present block when it was absent) ages by one;
        # the accessed block becomes the youngest.
        aging = ((may | guards) - (old_may or 1) * ones) & guards
        may -= aging >> _GUARD_SHIFT
        may += (num_lines - ((may >> shift) & _LANE)) << shift
        ranking = self.may_ranking
        if ranking is not None:
            # The aged values (those >= old_may) are the ranking's first
            # ``aging.bit_count()`` lanes.  Their last, smallest one is the
            # accessed block's own old value and leaves (unless that was
            # 0); the others move up one lane and down one value, lane 0
            # takes the accessed block's new num_lines, and the lanes past
            # the aged ones keep their values.
            kept = aging.bit_count() * LANE_BITS
            moved = (1 << (kept - LANE_BITS if old_may else kept)) - 1
            ranking = (
                (ranking >> kept << kept)
                | (((ranking - ones) & moved) << LANE_BITS)
                | num_lines
            )

        # Step 2: update the must component using NYoung computed on the
        # *new* shadow ages.  Only blocks strictly younger than the
        # accessed block's old must age can age.
        younger = ((must | guards) - (old_must + 1) * ones) & guards
        if younger:
            if ranking is None:
                ranking = lanes.pack(sorted(lanes.values(may), reverse=True))
            must -= self._nyoung_aged(must, may, younger, ranking) >> _GUARD_SHIFT
        # _with, built in place: every access of an analysis passes here.
        state = object.__new__(ShadowCacheState)
        state.num_lines = num_lines
        state.lanes = lanes
        state.must_packed = must + ((num_lines - old_must) << shift)
        state.may_packed = may
        state.is_bottom = False
        state.policy = self.policy
        state.may_ranking = ranking
        return state

    def _nyoung_aged(self, must: int, may: int, younger: int, ranking: int) -> int:
        """Guard mask of the ``younger`` lanes of ``must`` that age under
        the new shadow ages ``may`` (Appendix B's NYoung rule), given
        ``ranking``, the lane values of ``may`` in descending order.

        A block ``u`` of must age ``a`` ages when ``NYoung(u) >= a``: at
        least ``a`` blocks other than ``u`` may sit at shadow age ``<= a``.
        With ``w_1 >= w_2 >= ...`` the lane values of ``may``, at least
        ``k`` blocks do iff ``w_k >= num_lines + 1 - a``; so ``w_a`` decides
        when ``u``'s own shadow age exceeds ``a``, and ``w_(a+1)`` when
        ``u`` is among those ``k`` blocks itself.  Both tests run
        lane-parallel over the ages (lane ``a - 1`` for age ``a``, against
        the table's countdown ``num_lines, num_lines - 1, ...``), and each
        passing lane is filled to all ones, so that the ages that pass
        form runs of set bits.  One loop walks the runs: the lowest set bit
        opens a run, adding it carries to the first gap above, which
        closes it, and each run of ages becomes one value range of
        ``must``.
        """
        num_lines = self.num_lines
        lanes = self.lanes
        guards = lanes.guards
        ones = lanes.ones
        # Absent blocks rank last as 0 and never pass: every threshold is >= 1.
        thresholds, age_guards = lanes.countdown(num_lines)
        must_guarded = must | guards
        # The younger blocks whose own shadow age is at most their must age.
        counted = younger & ((may | guards) - must)
        aged = 0
        for group, ranks in ((younger ^ counted, ranking), (counted, ranking >> LANE_BITS)):
            if not group:
                continue
            holds = ((ranks | age_guards) - thresholds) & age_guards
            runs = (holds >> _GUARD_SHIFT) * _LANE
            while runs:
                first = runs & -runs
                carried = runs + first
                runs &= carried
                # Lanes start .. end - 1: ages start + 1 .. end, must values
                # num_lines + 1 - end .. num_lines - start (none above that
                # when start is 0).
                end = (carried ^ runs).bit_length() // LANE_BITS
                reached = (must_guarded - (num_lines + 1 - end) * ones) & group
                if first > 1:
                    start = first.bit_length() // LANE_BITS
                    reached ^= (must_guarded - (num_lines + 1 - start) * ones) & group
                aged |= reached
        return aged

    def access_unknown(self, candidates: int) -> "ShadowCacheState":
        """Access whose target is one of the blocks whose lanes
        ``candidates`` marks (a :attr:`BlockAccess.lane_mask`), but unknown.

        Must component: every bound grows by one (sound, as in the plain
        state).  May component: every candidate block may now be the
        youngest line, so its shadow age drops to 1 (this only ever makes
        ``NYoung`` larger, i.e. the refinement more conservative).
        """
        if self.is_bottom:
            return self
        return self._with(
            age_all(self.must_packed, self.lanes), self._youngest(self.may_packed, candidates)
        )

    def _youngest(self, may: int, candidates: int) -> int:
        """``may`` with every lane ``candidates`` marks at shadow age 1."""
        return (may & ~(candidates * _LANE)) | (candidates * self.num_lines)

    def _access_unknown_array(self, access: BlockAccess) -> "ShadowCacheState":
        """Unknown-index access using the Table-1 placeholder convention,
        refined with shadow-variable information.

        While unused placeholders remain, the access is modelled as loading
        the next placeholder line (a plain concrete-block transfer).  Once
        all placeholders are resident the access necessarily re-uses one of
        the array's existing lines, whose age is bounded by the oldest
        placeholder; a block ``u`` therefore only needs to age when it may
        actually be older than that line, i.e. when its shadow (may) age
        does not already exceed the bound.
        """
        placeholders = placeholder_lanes(access)
        must = self.must_packed
        for lane in placeholders:
            if not lane_value(must, lane):
                state = self._touch(lane)
                return self._with(
                    state.must_packed, self._youngest(state.may_packed, access.lane_mask)
                )
        if self.policy == "fifo":
            # The age-bound refinement below reasons about LRU aging (a
            # block only ages when a younger line is inserted in front of
            # it); under FIFO fall back to the plain conservative rule.
            return self.access_unknown(access.lane_mask)
        lanes = self.lanes
        guards = lanes.guards
        # The oldest placeholder's must age is the bound: the smallest value.
        bound = min(lane_value(must, lane) for lane in placeholders)
        # Blocks whose shadow age is within the bound age by one; the
        # array's own placeholders keep their bounds (its footprint does
        # not grow by re-accessing it), which is what lets Table 1's loop
        # converge with decis_lev[1*]/[2*] still resident.
        aging = ((self.may_packed | guards) - bound * lanes.ones) & guards
        aging &= ((must | guards) - lanes.ones) & guards
        aging &= ~(access.placeholder_mask << _GUARD_SHIFT)
        return self._with(
            must - (aging >> _GUARD_SHIFT),
            self._youngest(self.may_packed, access.lane_mask),
        )

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "ShadowCacheState") -> "ShadowCacheState":
        """Must: pointwise max (intersection).  May: pointwise min (union).
        Returns ``self`` when ``other`` adds nothing."""
        if (
            other.__class__ is not ShadowCacheState
            or other.lanes is not self.lanes
            or other.num_lines != self.num_lines
            or other.policy != self.policy
        ):
            check_compatible(self, other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        guards = self.lanes.guards
        mine = self.must_packed
        theirs = other.must_packed
        ge = ((mine | guards) - theirs) & guards
        must = mine ^ ((mine ^ theirs) & (ge - (ge >> _GUARD_SHIFT)))
        mine_may = self.may_packed
        theirs = other.may_packed
        ge = ((mine_may | guards) - theirs) & guards
        may = theirs ^ ((mine_may ^ theirs) & (ge - (ge >> _GUARD_SHIFT)))
        if must == mine and may == mine_may:
            return self
        return self._with(must, may)

    def widen(self, previous: "ShadowCacheState") -> "ShadowCacheState":
        """Widen the must component (growing ages jump to infinity); the may
        component is kept as-is — its lattice is finite, so convergence
        does not depend on widening it."""
        check_compatible(self, previous)
        if previous.is_bottom or self.is_bottom:
            return self
        kept = keep_at_least(self.must_packed, previous.must_packed, self.lanes)
        if kept == self.must_packed:
            return self
        return self._with(kept, self.may_packed, self.may_ranking)

    def leq(self, other: "ShadowCacheState") -> bool:
        if other is self:
            return True
        if (
            other.__class__ is not ShadowCacheState
            or other.lanes is not self.lanes
            or other.num_lines != self.num_lines
            or other.policy != self.policy
        ):
            check_compatible(self, other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        guards = self.lanes.guards
        # Must: every bound of other is at least ours (our values >= its);
        # may: every shadow age of ours is at least other's.
        return (
            ((self.must_packed | guards) - other.must_packed) & guards == guards
            and ((other.may_packed | guards) - self.may_packed) & guards == guards
        )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ShadowCacheState:
            return NotImplemented
        return (
            self.num_lines == other.num_lines
            and self.is_bottom == other.is_bottom
            and self.policy == other.policy
            and self.must_packed == other.must_packed
            and self.may_packed == other.may_packed
            and self.lanes == other.lanes
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_lines, self.is_bottom, self.policy, self.must_packed, self.may_packed)
        )

    def __reduce__(self):
        return (
            ShadowCacheState,
            (
                self.num_lines,
                self.lanes,
                self.must_packed,
                self.may_packed,
                self.is_bottom,
                self.policy,
            ),
        )

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"ShadowCacheState(⊥, {self.num_lines} lines)"
        must = describe_ages(self.must)
        may = describe_ages(self.may, prefix="∃")
        return f"ShadowCacheState(must={{{must}}}, may={{{may}}})"

    def describe(self) -> str:
        """A Table-1-style listing of the must component, youngest first."""
        if self.is_bottom:
            return "⊥"
        return "{" + describe_ages(self.must, "@") + "}"
