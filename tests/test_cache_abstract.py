"""Unit tests for the must-analysis abstract cache state (Appendix A)."""

import pytest

from access_reference import bind
from repro.cache.abstract import AGE_INFINITY, CacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    LaneTable,
    MemoryBlock,
    MemoryRef,
    placeholder_blocks,
)


def block(name: str, index: int = 0) -> MemoryBlock:
    return MemoryBlock(name, index)


#: Every block these tests touch, plus the placeholder lines of the two
#: arrays they access with an unknown index.
LANES = LaneTable(
    [block(name) for name in "a b c k u u1 u2 u3 u4 v w1 w2 x z".split()]
    + [block("sbox", i) for i in range(3)]
    + [block("table", i) for i in range(2)]
    + [block("t", i) for i in range(3)]
    + placeholder_blocks("table", 2)
    + placeholder_blocks("t", 3)
)


def concrete_access(name: str, index: int = 0, symbol: str | None = None) -> BlockAccess:
    b = block(name, index)
    return bind(LANES, BlockAccess(
        kind=AccessKind.CONCRETE,
        symbol=symbol or name,
        blocks=(b,),
        is_write=False,
        ref=MemoryRef(symbol=symbol or name, index_const=index),
    ))


def unknown_access(name: str, num_blocks: int) -> BlockAccess:
    blocks = tuple(block(name, i) for i in range(num_blocks))
    return bind(LANES, BlockAccess(
        kind=AccessKind.UNKNOWN,
        symbol=name,
        blocks=blocks,
        is_write=False,
        ref=MemoryRef(symbol=name, index_const=None),
    ))


def secret_access(name: str, num_blocks: int) -> BlockAccess:
    blocks = tuple(block(name, i) for i in range(num_blocks))
    return bind(LANES, BlockAccess(
        kind=AccessKind.SECRET,
        symbol=name,
        blocks=blocks,
        is_write=False,
        ref=MemoryRef(symbol=name, index_const=None, index_secret=True),
    ))


class TestTransfer:
    def test_first_access_gives_age_one(self):
        state = CacheState.empty(4, LANES).access_block(block("v"))
        assert state.age(block("v")) == 1
        assert state.must_hit(block("v"))

    def test_figure4_left_eviction(self):
        """Accessing an uncached block ages everyone; the oldest falls out."""
        state = CacheState.empty(4, LANES)
        for name in ["u4", "u3", "u2", "u1"]:
            state = state.access_block(block(name))
        # ages: u1=1 u2=2 u3=3 u4=4
        state = state.access_block(block("v"))
        assert state.age(block("v")) == 1
        assert state.age(block("u1")) == 2
        assert state.age(block("u4")) == AGE_INFINITY  # evicted

    def test_figure4_right_refresh(self):
        """Re-accessing a cached block only ages the blocks younger than it."""
        state = CacheState.empty(4, LANES)
        for name in ["w2", "w1", "v", "u"]:
            state = state.access_block(block(name))
        # ages: u=1 v=2 w1=3 w2=4
        state = state.access_block(block("v"))
        assert state.age(block("v")) == 1
        assert state.age(block("u")) == 2
        assert state.age(block("w1")) == 3
        assert state.age(block("w2")) == 4

    def test_access_on_bottom_stays_bottom(self):
        bottom = CacheState.bottom(4, LANES)
        assert bottom.access(concrete_access("v")).is_bottom

    def test_unknown_access_uses_placeholders_then_ages(self):
        state = CacheState.empty(8, LANES).access_block(block("x"))
        state = state.access(unknown_access("table", 2))
        # First unknown access inserts the first placeholder.
        placeholders = [b for b in state.cached_blocks() if b.is_placeholder]
        assert len(placeholders) == 1
        assert state.age(block("x")) == 2
        state = state.access(unknown_access("table", 2))
        placeholders = [b for b in state.cached_blocks() if b.is_placeholder]
        assert len(placeholders) == 2
        # With both placeholders resident, a further access falls back to
        # the conservative rule: everything ages, nothing is inserted.
        before = state
        state = state.access(unknown_access("table", 2))
        assert state.age(block("x")) == before.age(block("x")) + 1
        assert len([b for b in state.cached_blocks() if b.is_placeholder]) == 2

    def test_unknown_access_without_placeholder_lanes_is_refused(self):
        """A table without the object's placeholder lines (a layout built
        without the analysed CFG) cannot model the Table-1 convention; the
        access is refused rather than silently aged."""
        lanes = LaneTable([block("q", 0), block("q", 1)])
        access = bind(lanes, BlockAccess(
            kind=AccessKind.UNKNOWN,
            symbol="q",
            blocks=(block("q", 0), block("q", 1)),
            is_write=False,
            ref=MemoryRef(symbol="q", index_const=None),
        ))
        assert access.placeholder_lanes == ()
        with pytest.raises(ValueError, match="placeholder"):
            CacheState.empty(4, lanes).access(access)

    def test_secret_access_is_fully_conservative(self):
        state = CacheState.empty(8, LANES)
        for i in range(3):
            state = state.access_block(block("sbox", i))
        state = state.access(secret_access("sbox", 3))
        # No placeholder inserted, every age grew by one.
        assert not any(b.is_placeholder for b in state.cached_blocks())
        assert state.age(block("sbox", 2)) == 2

    def test_eviction_at_capacity(self):
        state = CacheState.empty(2, LANES)
        state = state.access_block(block("a"))
        state = state.access_block(block("b"))
        state = state.access_block(block("c"))
        assert not state.must_hit(block("a"))
        assert len(state) == 2


class TestLattice:
    def test_join_is_pointwise_max(self):
        left = CacheState.from_ages(4, LANES, {block("x"): 1, block("z"): 3, block("k"): 4})
        right = CacheState.from_ages(
            4, LANES, {block("x"): 3, block("z"): 1, block("k"): 4, block("t"): 1}
        )
        joined = left.join(right)
        assert joined.age(block("x")) == 3
        assert joined.age(block("z")) == 3
        assert joined.age(block("k")) == 4
        # t is only cached on one side, so it is not guaranteed after the join.
        assert not joined.must_hit(block("t"))

    def test_join_with_bottom_is_identity(self):
        state = CacheState.empty(4, LANES).access_block(block("a"))
        assert state.join(CacheState.bottom(4, LANES)) == state
        assert CacheState.bottom(4, LANES).join(state) == state

    def test_join_commutative(self):
        left = CacheState.from_ages(4, LANES, {block("a"): 1, block("b"): 2})
        right = CacheState.from_ages(4, LANES, {block("b"): 1, block("c"): 2})
        assert left.join(right) == right.join(left)

    def test_leq_reflexive_and_bottom_least(self):
        state = CacheState.empty(4, LANES).access_block(block("a"))
        assert state.leq(state)
        assert CacheState.bottom(4, LANES).leq(state)
        assert not state.leq(CacheState.bottom(4, LANES))

    def test_leq_orders_by_precision(self):
        precise = CacheState.from_ages(4, LANES, {block("a"): 1, block("b"): 2})
        coarse = CacheState.from_ages(4, LANES, {block("a"): 3})
        assert precise.leq(coarse)
        assert not coarse.leq(precise)

    def test_join_is_upper_bound(self):
        left = CacheState.from_ages(4, LANES, {block("a"): 1, block("b"): 2})
        right = CacheState.from_ages(4, LANES, {block("a"): 2, block("c"): 1})
        joined = left.join(right)
        assert left.leq(joined)
        assert right.leq(joined)

    def test_widen_pushes_growing_ages_out(self):
        previous = CacheState.from_ages(4, LANES, {block("a"): 1, block("b"): 2})
        current = CacheState.from_ages(4, LANES, {block("a"): 2, block("b"): 2})
        widened = current.widen(previous)
        assert not widened.must_hit(block("a"))
        assert widened.age(block("b")) == 2

    def test_widen_keeps_new_blocks(self):
        previous = CacheState.from_ages(4, LANES, {block("a"): 1})
        current = CacheState.from_ages(4, LANES, {block("a"): 1, block("b"): 3})
        widened = current.widen(previous)
        assert widened.age(block("b")) == 3

    def test_incompatible_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheState.empty(4, LANES).join(CacheState.empty(8, LANES))

    def test_must_hit_access_requires_all_blocks(self):
        state = CacheState.from_ages(4, LANES, {block("t", 0): 1, block("t", 1): 2})
        access_all = unknown_access("t", 2)
        assert state.must_hit_access(access_all)
        assert not state.must_hit_access(unknown_access("t", 3))

    @pytest.mark.parametrize("flavour", [CacheState, ShadowCacheState])
    def test_must_hit_access_rejects_an_unbound_access(self, flavour):
        """An access that was never bound to a lane table has no lanes;
        it used to count as a guaranteed hit, even on an empty cache."""
        unbound = BlockAccess(
            kind=AccessKind.CONCRETE,
            symbol="a",
            blocks=(block("a"),),
            is_write=False,
            ref=MemoryRef(symbol="a", index_const=0),
        )
        empty = flavour.empty(4, LANES)
        with pytest.raises(ValueError, match="'a'"):
            empty.must_hit_access(unbound)
        with pytest.raises(ValueError, match="'a'"):
            flavour.bottom(4, LANES).must_hit_access(unbound)
        bound = bind(LANES, unbound)
        assert not empty.must_hit_access(bound)
        assert empty.access(bound).must_hit_access(bound)
        assert not flavour.bottom(4, LANES).must_hit_access(bound)

    def test_from_ages_drops_overflow(self):
        state = CacheState.from_ages(2, LANES, {block("a"): 1, block("b"): 5})
        assert state.must_hit(block("a"))
        assert not state.must_hit(block("b"))

    def test_repr_and_describe(self):
        state = CacheState.from_ages(4, LANES, {block("a"): 1})
        assert "a" in repr(state)
        assert "a@1" in state.describe()
        assert CacheState.bottom(4, LANES).describe() == "⊥"
