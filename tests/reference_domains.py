"""The dict-based abstract cache domains, kept as a test oracle.

These are the ``{MemoryBlock: age}`` implementations of the must state
(:class:`CacheState`) and the shadow-refined state
(:class:`ShadowCacheState`) that the lane-packed classes in
:mod:`repro.cache.abstract` and :mod:`repro.cache.shadow` replaced.  They
read exactly like the paper's definitions, so ``tests/test_packed_domains.py``
checks the packed classes against them operation by operation.  Nothing
outside the tests imports them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.cache.abstract import AGE_INFINITY
from repro.ir.memory import AccessKind, BlockAccess, MemoryBlock, placeholder_blocks


@dataclass(frozen=True)
class CacheState:
    """Must-analysis abstract cache state.

    ``ages`` only stores blocks whose age bound is at most ``num_lines``
    (i.e. blocks that are guaranteed cached); everything else is implicitly
    at :data:`AGE_INFINITY`.  ``is_bottom`` marks the unreachable state
    (the join identity, written ⊥ in the paper).

    ``policy`` selects the replacement semantics the transfer functions
    model: ``lru`` (the paper's domain, Figure 4) or ``fifo`` (no age
    refresh on a hit; see :meth:`access_block`).  The lattice operations
    are policy-independent.
    """

    num_lines: int
    ages: dict[MemoryBlock, int] = field(default_factory=dict)
    is_bottom: bool = False
    policy: str = "lru"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_lines: int, policy: str = "lru") -> "CacheState":
        """The entry state: an empty cache (nothing is guaranteed cached).

        This is the ⊤ element of Algorithm 1/2: no information is assumed
        about the initial cache contents.
        """
        return cls(num_lines=num_lines, policy=policy)

    @classmethod
    def bottom(cls, num_lines: int, policy: str = "lru") -> "CacheState":
        """The unreachable state (⊥): identity of the join."""
        return cls(num_lines=num_lines, is_bottom=True, policy=policy)

    @classmethod
    def from_ages(
        cls, num_lines: int, ages: dict[MemoryBlock, int], policy: str = "lru"
    ) -> "CacheState":
        kept = {block: age for block, age in ages.items() if age <= num_lines}
        return cls(num_lines=num_lines, ages=kept, policy=policy)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def age(self, block: MemoryBlock) -> int:
        """Upper bound on the age of ``block`` (AGE_INFINITY if uncached)."""
        if self.is_bottom:
            return AGE_INFINITY
        return self.ages.get(block, AGE_INFINITY)

    def must_hit(self, block: MemoryBlock) -> bool:
        """True when ``block`` is guaranteed to be cached."""
        return not self.is_bottom and block in self.ages

    def must_hit_access(self, access: BlockAccess) -> bool:
        """True when the access is guaranteed to hit, whichever block it
        resolves to at run time."""
        if self.is_bottom:
            return False
        return all(block in self.ages for block in access.blocks)

    def cached_blocks(self) -> set[MemoryBlock]:
        return set(self.ages)

    def __len__(self) -> int:
        return len(self.ages)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "CacheState":
        """Apply the transfer function for one memory access."""
        if self.is_bottom:
            # Transfers never resurrect unreachable states.
            return self
        if access.kind is AccessKind.CONCRETE:
            return self.access_block(access.concrete_block)
        if access.kind is AccessKind.SECRET:
            # Secret-indexed accesses are handled fully conservatively: the
            # side-channel queries about them must never be optimistic.
            return self.access_unknown()
        return self.access_unknown_array(access.symbol, len(access.blocks))

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
        if self.policy == "fifo":
            if block in self.ages:
                return self
            new_ages = {}
            for other, age in self.ages.items():
                aged = age + 1
                if aged <= self.num_lines:
                    new_ages[other] = aged
            new_ages[block] = self.num_lines
            return CacheState(
                num_lines=self.num_lines, ages=new_ages, policy=self.policy
            )
        accessed_age = self.age(block)
        new_ages: dict[MemoryBlock, int] = {}
        for other, age in self.ages.items():
            if other == block:
                continue
            if age < accessed_age:
                aged = age + 1
                if aged <= self.num_lines:
                    new_ages[other] = aged
            else:
                new_ages[other] = age
        new_ages[block] = 1
        return CacheState(num_lines=self.num_lines, ages=new_ages, policy=self.policy)

    def access_unknown(self) -> "CacheState":
        """Access whose target block is not statically known.

        The sound must-analysis over-approximation: some (unknown) line may
        have been inserted in front of every cached block, so every age
        bound grows by one, and nothing new can be promised to be cached.
        """
        if self.is_bottom:
            return self
        new_ages: dict[MemoryBlock, int] = {}
        for block, age in self.ages.items():
            aged = age + 1
            if aged <= self.num_lines:
                new_ages[block] = aged
        return CacheState(num_lines=self.num_lines, ages=new_ages, policy=self.policy)

    def access_unknown_array(self, symbol: str, num_blocks: int) -> "CacheState":
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
        if self.is_bottom:
            return self
        for placeholder in placeholder_blocks(symbol, num_blocks):
            if placeholder not in self.ages:
                return self.access_block(placeholder)
        return self.access_unknown()

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "CacheState") -> "CacheState":
        """Pointwise maximum of ages (Figure 5): a block is guaranteed
        cached after the join only if it is guaranteed cached in both
        incoming states."""
        self._check_compatible(other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        new_ages: dict[MemoryBlock, int] = {}
        for block, age in self.ages.items():
            other_age = other.ages.get(block)
            if other_age is not None:
                new_ages[block] = max(age, other_age)
        return CacheState(num_lines=self.num_lines, ages=new_ages, policy=self.policy)

    def widen(self, previous: "CacheState") -> "CacheState":
        """Widening: any age that grew since ``previous`` jumps to infinity.

        ``self`` is the new (already joined) state, ``previous`` the state
        stored at the widening point on the previous iteration.
        """
        self._check_compatible(previous)
        if previous.is_bottom or self.is_bottom:
            return self
        new_ages: dict[MemoryBlock, int] = {}
        for block, age in self.ages.items():
            previous_age = previous.ages.get(block)
            if previous_age is None:
                # The block was not guaranteed cached before; keep the new
                # bound (it can only have been introduced by a transfer).
                new_ages[block] = age
            elif age > previous_age:
                # Growing: extrapolate to "evicted".
                continue
            else:
                new_ages[block] = age
        return CacheState(num_lines=self.num_lines, ages=new_ages, policy=self.policy)

    def leq(self, other: "CacheState") -> bool:
        """Partial order: ``self ⊑ other`` iff self is at least as precise."""
        self._check_compatible(other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        for block, other_age in other.ages.items():
            if self.ages.get(block, AGE_INFINITY) > other_age:
                return False
        return True

    def _check_compatible(self, other: "CacheState") -> None:
        if self.num_lines != other.num_lines or self.policy != other.policy:
            raise ValueError(
                "incompatible cache states: "
                f"{self.num_lines} lines/{self.policy} vs "
                f"{other.num_lines} lines/{other.policy}"
            )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        return (
            self.num_lines == other.num_lines
            and self.is_bottom == other.is_bottom
            and self.policy == other.policy
            and self.ages == other.ages
        )

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed in hot paths
        return hash(
            (self.num_lines, self.is_bottom, self.policy, frozenset(self.ages.items()))
        )

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"CacheState(⊥, {self.num_lines} lines)"
        items = ", ".join(
            f"{block}:{age}" for block, age in sorted(self.ages.items(), key=lambda i: (i[1], str(i[0])))
        )
        return f"CacheState({{{items}}})"

    def describe(self) -> str:
        """A Table-1-style listing: blocks ordered youngest to oldest."""
        if self.is_bottom:
            return "⊥"
        ordered = sorted(self.ages.items(), key=lambda item: (item[1], str(item[0])))
        return "{" + ", ".join(f"{block}@{age}" for block, age in ordered) + "}"


@dataclass(frozen=True)
class ShadowCacheState:
    """Must-ages plus shadow (may) ages.

    ``must`` only stores blocks guaranteed cached (age <= num_lines);
    ``may`` only stores blocks that may be cached (shadow age <= num_lines).
    """

    num_lines: int
    must: dict[MemoryBlock, int] = field(default_factory=dict)
    may: dict[MemoryBlock, int] = field(default_factory=dict)
    is_bottom: bool = False
    policy: str = "lru"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_lines: int, policy: str = "lru") -> "ShadowCacheState":
        return cls(num_lines=num_lines, policy=policy)

    @classmethod
    def bottom(cls, num_lines: int, policy: str = "lru") -> "ShadowCacheState":
        return cls(num_lines=num_lines, is_bottom=True, policy=policy)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def age(self, block: MemoryBlock) -> int:
        if self.is_bottom:
            return AGE_INFINITY
        return self.must.get(block, AGE_INFINITY)

    def shadow_age(self, block: MemoryBlock) -> int:
        if self.is_bottom:
            return AGE_INFINITY
        return self.may.get(block, AGE_INFINITY)

    def must_hit(self, block: MemoryBlock) -> bool:
        return not self.is_bottom and block in self.must

    def must_hit_access(self, access: BlockAccess) -> bool:
        if self.is_bottom:
            return False
        return all(block in self.must for block in access.blocks)

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
            return self.access_block(access.concrete_block)
        if access.kind is AccessKind.SECRET:
            # Fully conservative: the side-channel verdict about this access
            # must never benefit from optimistic assumptions.
            return self.access_unknown(access.blocks)
        return self.access_unknown_array(access.symbol, access.blocks)

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
        if self.policy == "fifo":
            if block in self.must:
                return self
            new_must = {}
            for other, age in self.must.items():
                aged = age + 1
                if aged <= self.num_lines:
                    new_must[other] = aged
            new_must[block] = self.num_lines
            new_may = dict(self.may)
            new_may[block] = 1
            return ShadowCacheState(
                num_lines=self.num_lines,
                must=new_must,
                may=new_may,
                policy=self.policy,
            )
        old_must_age = self.age(block)
        old_shadow_age = self.shadow_age(block)

        # Step 1: update the shadow (may) component.  ``dict(d)`` clones at
        # C speed without re-hashing any key; only the entries that actually
        # age (shadow age <= the accessed block's old shadow age — none
        # when re-touching the youngest line, the hot case in loops) pay a
        # per-key update.  The accessed block's own entry is overwritten
        # with 1 at the end, which also undoes its aging-out, so the
        # result is exactly the rebuilt-from-scratch dict up to key order.
        new_may = dict(self.may)
        for other, shadow_age in self.may.items():
            if shadow_age <= old_shadow_age:
                aged = shadow_age + 1
                if aged <= self.num_lines:
                    new_may[other] = aged
                else:
                    del new_may[other]
        new_may[block] = 1

        # Step 2: update the must component using NYoung computed on the
        # *new* shadow ages.  NYoung(u) is "how many blocks may sit at age
        # <= Age(u)"; a sorted list of the new shadow ages turns each query
        # into a binary search instead of a scan over the whole may-set.
        # Only entries strictly younger than the accessed block's old must
        # age can change (the block's own entry is == old, never <), so the
        # clone-then-update shape applies here too.
        sorted_shadow_ages = sorted(new_may.values())
        new_must = dict(self.must)
        for other, must_age in self.must.items():
            if must_age < old_must_age:
                n_young = bisect_right(sorted_shadow_ages, must_age)
                if new_may.get(other, AGE_INFINITY) <= must_age:
                    n_young -= 1  # a block is never younger than itself
                if n_young >= must_age:
                    aged = must_age + 1
                    if aged <= self.num_lines:
                        new_must[other] = aged
                    else:
                        del new_must[other]
        new_must[block] = 1
        return ShadowCacheState(
            num_lines=self.num_lines, must=new_must, may=new_may, policy=self.policy
        )

    def access_unknown(self, candidate_blocks: tuple[MemoryBlock, ...]) -> "ShadowCacheState":
        """Access whose target is one of ``candidate_blocks`` but unknown.

        Must component: every bound grows by one (sound, as in the plain
        state).  May component: every candidate block may now be the
        youngest line, so its shadow age drops to 1 (this only ever makes
        ``NYoung`` larger, i.e. the refinement more conservative).
        """
        if self.is_bottom:
            return self
        new_must: dict[MemoryBlock, int] = {}
        for block, age in self.must.items():
            aged = age + 1
            if aged <= self.num_lines:
                new_must[block] = aged
        new_may = dict(self.may)
        for block in candidate_blocks:
            new_may[block] = 1
        return ShadowCacheState(
            num_lines=self.num_lines, must=new_must, may=new_may, policy=self.policy
        )

    def access_unknown_array(
        self, symbol: str, candidate_blocks: tuple[MemoryBlock, ...]
    ) -> "ShadowCacheState":
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
        if self.is_bottom:
            return self
        placeholders = placeholder_blocks(symbol, len(candidate_blocks))
        for placeholder in placeholders:
            if placeholder not in self.must:
                state = self.access_block(placeholder)
                new_may = dict(state.may)
                for block in candidate_blocks:
                    new_may[block] = 1
                return ShadowCacheState(
                    num_lines=self.num_lines,
                    must=dict(state.must),
                    may=new_may,
                    policy=self.policy,
                )
        if self.policy == "fifo":
            # The age-bound refinement below reasons about LRU aging (a
            # block only ages when a younger line is inserted in front of
            # it); under FIFO fall back to the plain conservative rule.
            return self.access_unknown(candidate_blocks)
        bound = max(self.must[placeholder] for placeholder in placeholders)
        placeholder_set = set(placeholders)
        new_must = dict(self.must)
        for block, age in self.must.items():
            if block in placeholder_set:
                # The array's own footprint does not grow by re-accessing it;
                # keeping the placeholder bounds is what lets Table 1's loop
                # converge with decis_lev[1*]/[2*] still resident.
                continue
            if self.may.get(block, AGE_INFINITY) > bound:
                continue
            aged = age + 1
            if aged <= self.num_lines:
                new_must[block] = aged
            else:
                del new_must[block]
        new_may = dict(self.may)
        for block in candidate_blocks:
            new_may[block] = 1
        return ShadowCacheState(
            num_lines=self.num_lines, must=new_must, may=new_may, policy=self.policy
        )

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "ShadowCacheState") -> "ShadowCacheState":
        """Must: pointwise max (intersection).  May: pointwise min (union)."""
        self._check_compatible(other)
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        new_must: dict[MemoryBlock, int] = {}
        for block, age in self.must.items():
            other_age = other.must.get(block)
            if other_age is not None:
                new_must[block] = max(age, other_age)
        new_may: dict[MemoryBlock, int] = dict(other.may)
        for block, age in self.may.items():
            existing = new_may.get(block)
            new_may[block] = age if existing is None else min(age, existing)
        return ShadowCacheState(
            num_lines=self.num_lines, must=new_must, may=new_may, policy=self.policy
        )

    def widen(self, previous: "ShadowCacheState") -> "ShadowCacheState":
        """Widen the must component (growing ages jump to infinity); the may
        component is kept as-is — its lattice is finite, so convergence
        does not depend on widening it."""
        self._check_compatible(previous)
        if previous.is_bottom or self.is_bottom:
            return self
        new_must: dict[MemoryBlock, int] = {}
        for block, age in self.must.items():
            previous_age = previous.must.get(block)
            if previous_age is None:
                new_must[block] = age
            elif age > previous_age:
                continue
            else:
                new_must[block] = age
        return ShadowCacheState(
            num_lines=self.num_lines,
            must=new_must,
            may=dict(self.may),
            policy=self.policy,
        )

    def leq(self, other: "ShadowCacheState") -> bool:
        self._check_compatible(other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        for block, other_age in other.must.items():
            if self.must.get(block, AGE_INFINITY) > other_age:
                return False
        for block, age in self.may.items():
            if other.may.get(block, AGE_INFINITY) > age:
                return False
        return True

    def _check_compatible(self, other: "ShadowCacheState") -> None:
        if self.num_lines != other.num_lines or self.policy != other.policy:
            raise ValueError(
                "incompatible cache states: "
                f"{self.num_lines} lines/{self.policy} vs "
                f"{other.num_lines} lines/{other.policy}"
            )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShadowCacheState):
            return NotImplemented
        return (
            self.num_lines == other.num_lines
            and self.is_bottom == other.is_bottom
            and self.policy == other.policy
            and self.must == other.must
            and self.may == other.may
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash(
            (
                self.num_lines,
                self.is_bottom,
                self.policy,
                frozenset(self.must.items()),
                frozenset(self.may.items()),
            )
        )

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"ShadowCacheState(⊥, {self.num_lines} lines)"
        must = ", ".join(f"{b}:{a}" for b, a in sorted(self.must.items(), key=lambda i: (i[1], str(i[0]))))
        may = ", ".join(f"∃{b}:{a}" for b, a in sorted(self.may.items(), key=lambda i: (i[1], str(i[0]))))
        return f"ShadowCacheState(must={{{must}}}, may={{{may}}})"

    def describe(self) -> str:
        """A Table-1-style listing of the must component, youngest first."""
        if self.is_bottom:
            return "⊥"
        ordered = sorted(self.must.items(), key=lambda item: (item[1], str(item[0])))
        return "{" + ", ".join(f"{block}@{age}" for block, age in ordered) + "}"
