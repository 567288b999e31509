"""Abstract cache state for the must-hit analysis (Section 4, Appendix A).

The state maps each memory block to an *upper bound on its LRU age*:
``age <= N`` (the number of cache lines) means the block is guaranteed to
be in the cache on every path reaching the program point — a *must hit*.
Blocks not present in the map have age "infinity" (definitely possibly
uncached).

States are immutable values: every operation returns a state (the
receiver itself when nothing changed), which is what the generic
worklist solver expects.

Lane encoding
-------------
An age map is packed into one Python int of 16-bit *lanes*, one lane per
block of the layout's :class:`~repro.ir.memory.LaneTable` (lane ``i``
is bits ``16*i .. 16*i + 15``).  A block with age bound ``age <=
num_lines`` stores ``num_lines + 1 - age`` in its lane; an absent block
stores 0.  The invariants every operation keeps:

* **absent = 0.**  The empty cache is the int 0, a younger block has the
  larger lane value, and aging a block by one is a decrement that
  evicts it exactly when its lane was 1 (age ``num_lines``).
* **Values stay below the guard bit.**  Every lane holds at most
  ``num_lines <= LANE_MAX`` (15 bits), so bit 15 of each lane is a guard:
  ``((a | guards) - b) & guards`` compares all lanes at once (the guard of
  lane ``i`` survives iff ``a_i >= b_i``) without a borrow ever crossing
  into the next lane.
* **Lane tables are per layout.**  Every state of one analysis shares its
  layout's table; ``join``, ``leq`` and ``widen`` reject a state of the
  other flavour, another geometry or an unequal table with
  ``ValueError``.

With that, the must join (pointwise max of ages) is a lane-wise min, ``⊑``
is one lane-wise compare, and aging is one subtraction: a few big-int
operations (SWAR) instead of a walk over a ``{MemoryBlock: age}`` dict.
``join`` returns the receiver itself when the other operand adds nothing,
and ``leq`` answers an identical operand at once, so the fixpoint's
join-then-compare costs one pass when nothing changed.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.ir.memory import (
    LANE_BITS,
    LANE_MAX,
    AccessKind,
    BlockAccess,
    LaneTable,
    MemoryBlock,
)

#: Symbolic "outside the cache" age returned by :meth:`CacheState.age`.
#: Any value strictly greater than every legal ``num_lines`` works; using a
#: single sentinel keeps ages comparable across configurations.
AGE_INFINITY = 1 << 30

_LANE = (1 << LANE_BITS) - 1
_GUARD_SHIFT = LANE_BITS - 1


def lane_value(packed: int, lane: int) -> int:
    """The value stored in ``lane`` of ``packed`` (0 = absent)."""
    return (packed >> (lane * LANE_BITS)) & _LANE


def age_all(packed: int, lanes: LaneTable) -> int:
    """Every present block one position older (lane 1 falls out)."""
    present = ((packed | lanes.guards) - lanes.ones) & lanes.guards
    return packed - (present >> _GUARD_SHIFT)


def keep_at_least(packed: int, floor: int, lanes: LaneTable) -> int:
    """``packed`` with every lane below the matching lane of ``floor``
    cleared."""
    kept = ((packed | lanes.guards) - floor) & lanes.guards
    return packed & (kept - (kept >> _GUARD_SHIFT))


def all_lanes_present(packed: int, access: BlockAccess) -> bool:
    """True when every lane of ``access.lane_mask`` is non-zero in
    ``packed``.  Raises ``ValueError`` for an access with no lanes (one
    that never went through :meth:`LaneTable.bind`)."""
    mask = access.lane_mask
    if not mask:
        raise ValueError(
            f"access to {access.symbol!r} has no lanes: bind it with LaneTable.bind first"
        )
    guard_mask = mask << _GUARD_SHIFT
    return ((packed | guard_mask) - mask) & guard_mask == guard_mask


def count_present(packed: int, lanes: LaneTable) -> int:
    """Number of non-zero lanes."""
    return (((packed | lanes.guards) - lanes.ones) & lanes.guards).bit_count()


def lanes_from_ages(
    ages: Mapping[MemoryBlock, int], lanes: LaneTable, num_lines: int
) -> int:
    """Pack ``{block: age}``; ages above ``num_lines`` are dropped."""
    packed = 0
    for block, age in ages.items():
        if age < 1:
            raise ValueError(f"age bound of {block} must be at least 1, got {age}")
        if age <= num_lines:
            packed |= (num_lines + 1 - age) << (lanes.lane(block) * LANE_BITS)
    return packed


def check_num_lines(num_lines: int) -> None:
    if not 1 <= num_lines <= LANE_MAX:
        raise ValueError(
            f"packed cache states hold 1..{LANE_MAX} lines per set, got {num_lines}"
        )


class AgeView(Mapping):
    """A read-only ``{MemoryBlock: age}`` view of one packed age map,
    holding only the blocks whose age bound is at most ``num_lines``."""

    __slots__ = ("_packed", "_lanes", "_num_lines")

    def __init__(self, packed: int, lanes: LaneTable, num_lines: int):
        self._packed = packed
        self._lanes = lanes
        self._num_lines = num_lines

    def __getitem__(self, block: MemoryBlock) -> int:
        lane = self._lanes.lane_of(block)
        value = 0 if lane is None else lane_value(self._packed, lane)
        if not value:
            raise KeyError(block)
        return self._num_lines + 1 - value

    def __iter__(self) -> Iterator[MemoryBlock]:
        blocks = self._lanes.blocks
        for lane, value in enumerate(self._lanes.values(self._packed)):
            if value:
                yield blocks[lane]

    def __len__(self) -> int:
        return count_present(self._packed, self._lanes)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def describe_ages(
    ages: Mapping[MemoryBlock, int], separator: str = ":", prefix: str = ""
) -> str:
    """``block:age`` items, youngest first (ties by block name)."""
    ordered = sorted(ages.items(), key=lambda item: (item[1], str(item[0])))
    return ", ".join(f"{prefix}{block}{separator}{age}" for block, age in ordered)


class CacheState:
    """Must-analysis abstract cache state.

    ``packed`` holds the age bounds of the blocks guaranteed cached (see
    the module docstring for the lane encoding over ``lanes``); every other
    block is implicitly at :data:`AGE_INFINITY`.  ``is_bottom`` marks the
    unreachable state (the join identity, written ⊥ in the paper).

    ``policy`` selects the replacement semantics the transfer functions
    model: ``lru`` (the paper's domain, Figure 4) or ``fifo`` (no age
    refresh on a hit; see :meth:`access_block`).  The lattice operations
    are policy-independent.
    """

    __slots__ = ("num_lines", "lanes", "packed", "is_bottom", "policy")

    def __init__(
        self,
        num_lines: int,
        lanes: LaneTable,
        packed: int = 0,
        is_bottom: bool = False,
        policy: str = "lru",
    ):
        check_num_lines(num_lines)
        self.num_lines = num_lines
        self.lanes = lanes
        self.packed = packed
        self.is_bottom = is_bottom
        self.policy = policy

    def _with(self, packed: int) -> "CacheState":
        state = object.__new__(CacheState)
        state.num_lines = self.num_lines
        state.lanes = self.lanes
        state.packed = packed
        state.is_bottom = False
        state.policy = self.policy
        return state

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_lines: int, lanes: LaneTable, policy: str = "lru") -> "CacheState":
        """The entry state: an empty cache (nothing is guaranteed cached).

        This is the ⊤ element of Algorithm 1/2: no information is assumed
        about the initial cache contents.
        """
        return cls(num_lines, lanes, policy=policy)

    @classmethod
    def bottom(cls, num_lines: int, lanes: LaneTable, policy: str = "lru") -> "CacheState":
        """The unreachable state (⊥): identity of the join."""
        return cls(num_lines, lanes, is_bottom=True, policy=policy)

    @classmethod
    def from_ages(
        cls,
        num_lines: int,
        lanes: LaneTable,
        ages: Mapping[MemoryBlock, int],
        policy: str = "lru",
    ) -> "CacheState":
        return cls(num_lines, lanes, lanes_from_ages(ages, lanes, num_lines), policy=policy)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ages(self) -> AgeView:
        """The guaranteed-cached blocks and their age bounds."""
        return AgeView(0 if self.is_bottom else self.packed, self.lanes, self.num_lines)

    def age(self, block: MemoryBlock) -> int:
        """Upper bound on the age of ``block`` (AGE_INFINITY if uncached)."""
        lane = self.lanes.lane_of(block)
        if self.is_bottom or lane is None:
            return AGE_INFINITY
        value = lane_value(self.packed, lane)
        return self.num_lines + 1 - value if value else AGE_INFINITY

    def must_hit(self, block: MemoryBlock) -> bool:
        """True when ``block`` is guaranteed to be cached."""
        return self.age(block) != AGE_INFINITY

    def must_hit_access(self, access: BlockAccess) -> bool:
        """True when the access is guaranteed to hit, whichever block it
        resolves to at run time."""
        return all_lanes_present(self.packed, access) and not self.is_bottom

    def cached_blocks(self) -> set[MemoryBlock]:
        return set(self.ages)

    def __len__(self) -> int:
        return 0 if self.is_bottom else count_present(self.packed, self.lanes)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "CacheState":
        """Apply the transfer function for one memory access."""
        if self.is_bottom:
            # Transfers never resurrect unreachable states.
            return self
        if access.kind is AccessKind.CONCRETE:
            return self._touch(access.lanes[0])
        if access.kind is AccessKind.SECRET:
            # Secret-indexed accesses are handled fully conservatively: the
            # side-channel queries about them must never be optimistic.
            return self.access_unknown()
        return self._access_unknown_array(access)

    def access_block(self, block: MemoryBlock) -> "CacheState":
        """Access a single, statically known block.

        LRU (Figure 4 semantics): the accessed block becomes the
        youngest; every block that may have been younger than it ages by
        one.

        FIFO: a hit leaves the queue untouched, so if the block is
        guaranteed cached the state is unchanged.  Otherwise the access
        may miss, in which case a new line is inserted at the front:
        every bound grows by one, and the accessed block — now definitely
        resident, but at an unknown position (front on a miss, anywhere
        on a hit) — gets the weakest in-cache bound ``num_lines``.
        """
        if self.is_bottom:
            return self
        return self._touch(self.lanes.lane(block))

    def _touch(self, lane: int) -> "CacheState":
        packed = self.packed
        shift = lane * LANE_BITS
        accessed = (packed >> shift) & _LANE
        lanes = self.lanes
        if self.policy == "fifo":
            if accessed:
                return self
            return self._with(age_all(packed, lanes) + (1 << shift))
        # Blocks strictly younger than the accessed one (larger lane value;
        # every present block when it was absent) age by one.
        younger = ((packed | lanes.guards) - (accessed + 1) * lanes.ones) & lanes.guards
        packed -= younger >> _GUARD_SHIFT
        return self._with(packed + ((self.num_lines - accessed) << shift))

    def access_unknown(self) -> "CacheState":
        """Access whose target block is not statically known.

        The sound must-analysis over-approximation: some (unknown) line may
        have been inserted in front of every cached block, so every age
        bound grows by one, and nothing new can be promised to be cached.
        """
        if self.is_bottom:
            return self
        return self._with(age_all(self.packed, self.lanes))

    def _access_unknown_array(self, access: BlockAccess) -> "CacheState":
        """Unknown-index access to an array, using the paper's Table-1
        convention: the access is modelled as touching the next *symbolic
        placeholder line* of the array (``decis_lev[1*]``, ``[2*]``, ...).

        An array of ``m`` blocks has ``m`` placeholders, which bounds the
        total cache pressure the analysis attributes to index-unknown
        accesses by the array's real footprint rather than by the number of
        accesses.  Once every placeholder is present the plain must state
        has no way to tell which existing line was re-used, so it falls
        back to the conservative age-everyone rule (the shadow-variable
        state refines exactly this case).
        """
        for lane in placeholder_lanes(access):
            if not lane_value(self.packed, lane):
                return self._touch(lane)
        return self.access_unknown()

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "CacheState") -> "CacheState":
        """Pointwise maximum of ages (Figure 5): a block is guaranteed
        cached after the join only if it is guaranteed cached in both
        incoming states.  Returns ``self`` when ``other`` adds nothing."""
        if (
            other.__class__ is not CacheState
            or other.lanes is not self.lanes
            or other.num_lines != self.num_lines
            or other.policy != self.policy
        ):
            check_compatible(self, other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        mine = self.packed
        theirs = other.packed
        guards = self.lanes.guards
        # Lane-wise min of the values (max of the ages).
        ge = ((mine | guards) - theirs) & guards
        joined = mine ^ ((mine ^ theirs) & (ge - (ge >> _GUARD_SHIFT)))
        return self if joined == mine else self._with(joined)

    def widen(self, previous: "CacheState") -> "CacheState":
        """Widening: any age that grew since ``previous`` jumps to infinity.

        ``self`` is the new (already joined) state, ``previous`` the state
        stored at the widening point on the previous iteration.  Blocks
        that were not guaranteed cached before keep their new bound (they
        can only have been introduced by a transfer).
        """
        check_compatible(self, previous)
        if previous.is_bottom or self.is_bottom:
            return self
        kept = keep_at_least(self.packed, previous.packed, self.lanes)
        return self if kept == self.packed else self._with(kept)

    def leq(self, other: "CacheState") -> bool:
        """Partial order: ``self ⊑ other`` iff self is at least as precise."""
        if other is self:
            return True
        if (
            other.__class__ is not CacheState
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
        return ((self.packed | guards) - other.packed) & guards == guards

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CacheState:
            return NotImplemented
        return (
            self.num_lines == other.num_lines
            and self.is_bottom == other.is_bottom
            and self.policy == other.policy
            and self.packed == other.packed
            and self.lanes == other.lanes
        )

    def __hash__(self) -> int:
        return hash((self.num_lines, self.is_bottom, self.policy, self.packed))

    def __reduce__(self):
        return (
            CacheState,
            (self.num_lines, self.lanes, self.packed, self.is_bottom, self.policy),
        )

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"CacheState(⊥, {self.num_lines} lines)"
        return f"CacheState({{{describe_ages(self.ages)}}})"

    def describe(self) -> str:
        """A Table-1-style listing: blocks ordered youngest to oldest."""
        if self.is_bottom:
            return "⊥"
        return "{" + describe_ages(self.ages, "@") + "}"


def placeholder_lanes(access: BlockAccess) -> tuple[int, ...]:
    """The placeholder lanes of an unknown-index access (in ``[1*]``,
    ``[2*]``, ... order); every unknown-index access a compiled program's
    layout resolves has them."""
    if not access.placeholder_lanes:
        raise ValueError(
            f"unknown-index access to {access.symbol!r} has no placeholder lanes: "
            "its layout was built without the analysed CFG"
        )
    return access.placeholder_lanes


def check_compatible(state, other) -> None:
    """Raise ``ValueError`` unless ``other`` is a state of the same flavour,
    line count, policy and lane table as ``state``."""
    if (
        other.__class__ is not state.__class__
        or other.num_lines != state.num_lines
        or other.policy != state.policy
        or other.lanes != state.lanes
    ):
        raise ValueError(
            f"incompatible cache states: {_shape(state)} vs {_shape(other)}"
        )


def _shape(state) -> str:
    return (
        f"{type(state).__name__}({getattr(state, 'num_lines', '?')} lines/"
        f"{getattr(state, 'policy', '?')}, {getattr(state, 'lanes', '?')!r})"
    )
