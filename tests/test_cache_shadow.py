"""Unit tests for the shadow-variable refined state (Section 6.3, Appendix B)."""

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


#: Every block these tests touch, plus the placeholder lines of the array
#: they access with an unknown index.
LANES = LaneTable(
    [block(name) for name in "a b c k t x y z".split()]
    + [block("old", i) for i in range(6)]
    + [block("sbox", i) for i in range(3)]
    + [block("t", i) for i in range(2)]
    + placeholder_blocks("t", 2)
)


def unknown_access(name: str, num_blocks: int) -> BlockAccess:
    blocks = tuple(block(name, i) for i in range(num_blocks))
    return bind(LANES, BlockAccess(
        kind=AccessKind.UNKNOWN,
        symbol=name,
        blocks=blocks,
        is_write=False,
        ref=MemoryRef(symbol=name, index_const=None),
    ))


class TestTransfer:
    def test_access_sets_both_components(self):
        state = ShadowCacheState.empty(4, LANES).access_block(block("a"))
        assert state.age(block("a")) == 1
        assert state.shadow_age(block("a")) == 1

    def test_sequential_accesses_age_like_plain_state(self):
        shadow = ShadowCacheState.empty(4, LANES)
        plain = CacheState.empty(4, LANES)
        for name in ["a", "b", "c"]:
            shadow = shadow.access_block(block(name))
            plain = plain.access_block(block(name))
        for name in ["a", "b", "c"]:
            assert shadow.age(block(name)) == plain.age(block(name))

    def test_appendix_b_example_ref_x(self):
        """Appendix B, Example B.2: ref x on the merged Figure-5 state."""
        state = ShadowCacheState.from_ages(
            4,
            LANES,
            must={block("x"): 3, block("z"): 3, block("k"): 4},
            may={block("x"): 1, block("t"): 1, block("y"): 2, block("z"): 2, block("k"): 4},
        )
        result = state.access_block(block("x"))
        # Must component: [x, {}, z, k]
        assert result.age(block("x")) == 1
        assert result.age(block("z")) == 3
        assert result.age(block("k")) == 4
        # May component: x jumps to front, former front entries age.
        assert result.shadow_age(block("x")) == 1
        assert result.shadow_age(block("t")) == 2
        assert result.shadow_age(block("y")) == 2
        assert result.shadow_age(block("z")) == 2
        assert result.shadow_age(block("k")) == 4

    def test_appendix_b_example_ref_y(self):
        """Appendix B, Example B.2: ref y evicts k in the original analysis
        and here as well (y was not in the must state)."""
        state = ShadowCacheState.from_ages(
            4,
            LANES,
            must={block("x"): 3, block("z"): 3, block("k"): 4},
            may={block("x"): 1, block("t"): 1, block("y"): 2, block("z"): 2, block("k"): 4},
        )
        result = state.access_block(block("y"))
        assert result.age(block("y")) == 1
        assert result.age(block("x")) == 4
        assert result.age(block("z")) == 4
        assert not result.must_hit(block("k"))

    def test_nyoung_rule_prevents_spurious_aging(self):
        """Appendix C, step S8: with only two shadow blocks younger than
        ``a``, the access to ``b`` must not age ``a`` past its real bound."""
        state = ShadowCacheState.from_ages(
            4, LANES, must={block("a"): 3}, may={block("b"): 1, block("c"): 1, block("a"): 2}
        )
        result = state.access_block(block("b"))
        # NYoung(a) = |{b, c}| = 2 < Age(a) = 3, so a keeps its age.
        assert result.age(block("a")) == 3

    def test_plain_state_would_age_in_same_situation(self):
        plain = CacheState.from_ages(4, LANES, {block("a"): 3})
        assert plain.access_block(block("b")).age(block("a")) == 4

    def test_unknown_access_inserts_placeholders(self):
        state = ShadowCacheState.empty(8, LANES).access_block(block("x"))
        state = state.access(unknown_access("t", 2))
        assert any(b.is_placeholder for b in state.cached_blocks())
        # All candidate blocks become may-cached.
        assert state.shadow_age(block("t", 0)) == 1
        assert state.shadow_age(block("t", 1)) == 1

    def test_unknown_access_guard_after_placeholders_exhausted(self):
        """Once every placeholder is resident, blocks whose may-age exceeds
        the oldest placeholder do not age (they are provably older than
        whatever line the access reused)."""
        state = ShadowCacheState.empty(16, LANES)
        for i in range(6):
            state = state.access_block(block("old", i))
        # old#5..old#0 have ages 1..6 and shadow ages 1..6.
        state = state.access(unknown_access("t", 1))
        state = state.access(unknown_access("t", 1))
        age_before = state.age(block("old", 0))
        state = state.access(unknown_access("t", 1))
        assert state.age(block("old", 0)) == age_before

    def test_secret_access_conservative(self):
        state = ShadowCacheState.empty(8, LANES)
        for i in range(3):
            state = state.access_block(block("sbox", i))
        aged = state.access(
            bind(LANES, BlockAccess(
                kind=AccessKind.SECRET,
                symbol="sbox",
                blocks=tuple(block("sbox", i) for i in range(3)),
                is_write=False,
                ref=MemoryRef(symbol="sbox", index_const=None, index_secret=True),
            ))
        )
        for i in range(3):
            assert aged.age(block("sbox", i)) == state.age(block("sbox", i)) + 1


class TestLattice:
    def test_join_must_max_may_min(self):
        left = ShadowCacheState.from_ages(4, LANES, must={block("a"): 1}, may={block("a"): 1})
        right = ShadowCacheState.from_ages(
            4, LANES, must={block("a"): 2, block("b"): 1}, may={block("a"): 2, block("b"): 1}
        )
        joined = left.join(right)
        assert joined.age(block("a")) == 2
        assert not joined.must_hit(block("b"))
        assert joined.shadow_age(block("a")) == 1
        assert joined.shadow_age(block("b")) == 1

    def test_join_bottom_identity(self):
        state = ShadowCacheState.empty(4, LANES).access_block(block("a"))
        assert state.join(ShadowCacheState.bottom(4, LANES)) == state
        assert ShadowCacheState.bottom(4, LANES).join(state) == state

    def test_leq_requires_both_components(self):
        small = ShadowCacheState.from_ages(4, LANES, must={block("a"): 1}, may={block("a"): 1})
        large = ShadowCacheState.from_ages(
            4, LANES, must={block("a"): 2}, may={block("a"): 1, block("b"): 1}
        )
        assert small.leq(large)
        assert not large.leq(small)

    def test_join_is_upper_bound(self):
        left = ShadowCacheState.empty(4, LANES).access_block(block("a")).access_block(block("b"))
        right = ShadowCacheState.empty(4, LANES).access_block(block("c"))
        joined = left.join(right)
        assert left.leq(joined)
        assert right.leq(joined)

    def test_widen_only_touches_must(self):
        previous = ShadowCacheState.from_ages(4, LANES, must={block("a"): 1}, may={block("a"): 1})
        current = ShadowCacheState.from_ages(4, LANES, must={block("a"): 2}, may={block("a"): 1})
        widened = current.widen(previous)
        assert not widened.must_hit(block("a"))
        assert widened.shadow_age(block("a")) == 1

    def test_repr(self):
        state = ShadowCacheState.empty(4, LANES).access_block(block("a"))
        assert "∃" in repr(state)
        assert ShadowCacheState.bottom(4, LANES).age(block("a")) == AGE_INFINITY


class TestFigure13Scenario:
    """The Figure 11 / Figure 13 loop, replayed directly on the states."""

    def _loop_round(self, state):
        left = state.access_block(block("b"))
        right = state.access_block(block("c"))
        return left.join(right)

    def test_shadow_state_keeps_a_cached(self):
        state = ShadowCacheState.empty(4, LANES).access_block(block("a"))
        for _ in range(5):
            state = self._loop_round(state)
        assert state.must_hit(block("a"))

    def test_plain_state_loses_a(self):
        """Figure 11: each round the plain join ages ``a`` once more, so after
        enough iterations it is (spuriously) evicted."""
        state = CacheState.empty(4, LANES).access_block(block("a"))
        for _ in range(5):
            left = state.access_block(block("b"))
            right = state.access_block(block("c"))
            state = left.join(right)
        assert not state.must_hit(block("a"))


class TestCompatibility:
    """Operands of the other flavour or over another lane table are a
    ``ValueError``: both flavours are plain packed ints, so accepting one
    would silently read the wrong ages."""

    @pytest.mark.parametrize("method", ["join", "leq"])
    def test_shadow_rejects_plain_operand(self, method):
        with pytest.raises(ValueError, match="incompatible"):
            getattr(ShadowCacheState.empty(4, LANES), method)(CacheState.empty(4, LANES))

    @pytest.mark.parametrize("method", ["join", "leq"])
    def test_plain_rejects_shadow_operand(self, method):
        with pytest.raises(ValueError, match="incompatible"):
            getattr(CacheState.empty(4, LANES), method)(ShadowCacheState.empty(4, LANES))

    @pytest.mark.parametrize("flavour", [CacheState, ShadowCacheState])
    @pytest.mark.parametrize("method", ["join", "leq", "widen"])
    def test_unequal_lane_tables_rejected(self, flavour, method):
        other = LaneTable([block("a")])
        with pytest.raises(ValueError, match="incompatible"):
            getattr(flavour.empty(4, LANES), method)(flavour.empty(4, other))

    def test_equal_lane_tables_mix(self):
        """Equal tables built separately (as a decoder or a second
        compile of the same layout does) are interchangeable."""
        copy = LaneTable(reversed(LANES.blocks))
        assert copy == LANES and copy is not LANES
        state = ShadowCacheState.empty(4, LANES).access_block(block("a"))
        other = ShadowCacheState.empty(4, copy).access_block(block("a"))
        assert state.join(other) is state
        assert other.leq(state) and state == other
