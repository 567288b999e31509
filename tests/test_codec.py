"""Tests for the compact abstract-state codec: round-trip identity across
every state flavour × geometry × policy, canonical (deterministic) bytes,
compactness versus pickling, and strict rejection of foreign or damaged
blobs — including the version-bump contract."""

from __future__ import annotations

import pickle
import random

import pytest

from repro import compile_source
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.programs import branchy_kernel_source
from repro.cache.abstract import AGE_INFINITY, CacheState
from repro.cache.codec import (
    CODEC_VERSION,
    MAGIC,
    CodecError,
    decode_state,
    decode_state_map,
    encode_state,
    encode_state_map,
)
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import LaneTable, MemoryBlock
from repro.speculation.config import SpeculationConfig

SEED = 0xC0DEC

_SYMBOLS = ["a", "key", "sbox", "very_long_symbol_name_for_interning", "cnd"]
# Negative indices are placeholder lines and must survive the zigzag
# encoding.
_INDICES = [0, 1, 32, 1023, -1, -17]

#: The lane table every random state is packed over.
LANES = LaneTable(MemoryBlock(symbol, index) for symbol in _SYMBOLS for index in _INDICES)

#: Every (geometry, policy) axis the codec must cover: fully associative
#: and set-associative, lru and fifo.
GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, policy="fifo"),
    CacheConfig(num_lines=8, line_size=64, associativity=2),
    CacheConfig(num_lines=16, line_size=64, associativity=4, policy="fifo"),
]


def random_blocks(rng: random.Random, count: int) -> list[MemoryBlock]:
    return [MemoryBlock(rng.choice(_SYMBOLS), rng.choice(_INDICES)) for _ in range(count)]


def random_flat(rng: random.Random, num_lines: int, policy: str) -> CacheState:
    ages = {
        block: rng.choice([1, max(1, num_lines - 1), num_lines, AGE_INFINITY])
        for block in random_blocks(rng, rng.randrange(0, 6))
    }
    return CacheState.from_ages(num_lines, LANES, ages, policy=policy)


def random_shadow(rng: random.Random, num_lines: int, policy: str) -> ShadowCacheState:
    must = {
        block: rng.randrange(1, num_lines + 1)
        for block in random_blocks(rng, rng.randrange(0, 4))
    }
    may = dict(must)
    for block in random_blocks(rng, rng.randrange(0, 4)):
        may.setdefault(block, rng.randrange(1, num_lines + 1))
    return ShadowCacheState.from_ages(num_lines, LANES, must, may, policy=policy)


def random_state(rng: random.Random, config: CacheConfig, shadow: bool):
    maker = random_shadow if shadow else random_flat
    if config.associativity is None:
        return maker(rng, config.num_lines, config.policy)
    num_sets = config.num_lines // config.associativity
    return SetAssocCacheState(
        num_sets=num_sets,
        ways=config.associativity,
        sets=tuple(
            maker(rng, config.associativity, config.policy) for _ in range(num_sets)
        ),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("shadow", [False, True])
    def test_random_states_round_trip(self, geometry, shadow):
        rng = random.Random(SEED + geometry)
        config = GEOMETRIES[geometry]
        for _ in range(50):
            state = random_state(rng, config, shadow)
            decoded = decode_state(encode_state(state))
            assert decoded == state
            assert type(decoded) is type(state)

    @pytest.mark.parametrize("shadow", [False, True])
    def test_bottom_states_round_trip(self, shadow):
        flat_cls = ShadowCacheState if shadow else CacheState
        bottom = flat_cls.bottom(4, LANES, policy="fifo")
        assert decode_state(encode_state(bottom)) == bottom
        wrapper = SetAssocCacheState(
            num_sets=2,
            ways=2,
            sets=(flat_cls.bottom(2, LANES), flat_cls.bottom(2, LANES)),
            is_bottom=True,
        )
        decoded = decode_state(encode_state(wrapper))
        assert decoded == wrapper and decoded.is_bottom

    def test_fixpoint_states_round_trip(self):
        """Real engine output — every reachable block's normal state —
        survives the codec on both abstract domains."""
        program = compile_source(branchy_kernel_source(4))
        for config in (GEOMETRIES[0], GEOMETRIES[3]):
            result = SpeculativeCacheAnalysis(
                program,
                cache_config=config,
                speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
            ).run()
            states = dict(result.entry_states)
            assert states
            assert decode_state_map(encode_state_map(states)) == states

    def test_state_map_round_trip_and_empty(self):
        rng = random.Random(SEED)
        states = {
            f"block{i}": random_state(rng, GEOMETRIES[0], shadow=False)
            for i in range(10)
        }
        assert decode_state_map(encode_state_map(states)) == states
        assert decode_state_map(encode_state_map({})) == {}

    def test_equal_states_encode_to_equal_bytes(self):
        """Lanes follow sorted block order, so neither dict insertion
        order nor the order a lane table was built in (nor hash
        randomisation) leaks into the encoding."""
        blocks = [MemoryBlock("a", 0), MemoryBlock("b", 3), MemoryBlock("c", -2)]
        forward = CacheState.from_ages(
            4, LaneTable(blocks), {b: i + 1 for i, b in enumerate(blocks)}
        )
        backward = CacheState.from_ages(
            4,
            LaneTable(reversed(blocks)),
            {b: i + 1 for i, b in reversed(list(enumerate(blocks)))},
        )
        assert forward == backward
        assert encode_state(forward) == encode_state(backward)

    def test_decoded_states_share_a_matching_lane_table(self):
        state = random_shadow(random.Random(SEED), 8, "lru")
        assert decode_state(encode_state(state), LANES).lanes is LANES
        assert decode_state(encode_state(state)).lanes == LANES


class TestCompactness:
    def test_single_state_much_smaller_than_pickle(self):
        ages = {MemoryBlock("a", 0): 1, MemoryBlock("b", 2): 3}
        state = CacheState.from_ages(4, LaneTable(ages), ages)
        encoded = len(encode_state(state))
        pickled = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        assert encoded * 5 <= pickled, (encoded, pickled)

    def test_state_map_much_smaller_than_pickle(self):
        """The shard-delta shape (many states sharing one lane table) is
        the codec's raison d'être; pickle memoises the shared table too
        and packed states pickle as a few ints, so the map-level win is
        smaller than the per-state one but must still cut the payload by
        well over a third."""
        program = compile_source(branchy_kernel_source(8))
        result = SpeculativeCacheAnalysis(
            program,
            cache_config=CacheConfig(num_lines=4, line_size=64),
            speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
        ).run()
        states = dict(result.entry_states)
        encoded = len(encode_state_map(states))
        pickled = len(pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL))
        assert encoded * 8 <= pickled * 5, (encoded, pickled)


class TestRejection:
    STATE = CacheState.from_ages(
        4, LaneTable([MemoryBlock("a", 0)]), {MemoryBlock("a", 0): 1}
    )

    def test_version_bump_rejected(self):
        blob = bytearray(encode_state(self.STATE))
        blob[len(MAGIC)] = CODEC_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_state(bytes(blob))
        map_blob = bytearray(encode_state_map({"b": self.STATE}))
        map_blob[len(MAGIC)] = CODEC_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_state_map(bytes(map_blob))

    def test_bad_magic_rejected(self):
        blob = b"XXX" + encode_state(self.STATE)[3:]
        with pytest.raises(CodecError, match="magic"):
            decode_state(blob)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_state(encode_state(self.STATE) + b"\x00")
        with pytest.raises(CodecError, match="trailing"):
            decode_state_map(encode_state_map({"b": self.STATE}) + b"\x00")

    def test_truncation_rejected(self):
        blob = encode_state(self.STATE)
        for cut in range(1, len(blob)):
            with pytest.raises(CodecError):
                decode_state(blob[:cut])

    def test_wrong_payload_tag_rejected(self):
        with pytest.raises(CodecError, match="tag"):
            decode_state_map(encode_state(self.STATE))
        with pytest.raises(CodecError, match="tag"):
            decode_state(encode_state_map({"b": self.STATE}))

    def test_unknown_kind_and_policy_rejected(self):
        empty = CacheState.empty(4, LaneTable([]))
        empty_blob = bytearray(encode_state(empty))
        # header (magic + version + tag), an empty symbol table, one lane
        # table of zero lanes, then the state kind.
        body = len(MAGIC) + 2 + 3
        assert empty_blob[body] == 0x01
        empty_blob[body] = 0x7F
        with pytest.raises(CodecError, match="kind"):
            decode_state(bytes(empty_blob))
        policy_blob = bytearray(encode_state(empty))
        policy_blob[body + 1] = 0x7F
        with pytest.raises(CodecError, match="policy"):
            decode_state(bytes(policy_blob))

    def test_lane_table_out_of_order_rejected(self):
        lanes = LaneTable([MemoryBlock("a", 0), MemoryBlock("b", 0)])
        blob = bytearray(encode_state(CacheState.empty(4, lanes)))
        # Swap the two symbol names: the table now lists b before a.
        at = blob.index(b"\x01a\x01b")
        blob[at : at + 4] = b"\x01b\x01a"
        with pytest.raises(CodecError, match="canonical"):
            decode_state(bytes(blob))

    def test_lane_value_above_num_lines_rejected(self):
        blob = bytearray(encode_state(self.STATE))
        assert blob[-1] == 4  # one (one-byte) lane: num_lines + 1 - age = 4
        blob[-1] = 5
        with pytest.raises(CodecError, match="above"):
            decode_state(bytes(blob))

    def test_unencodable_object_rejected(self):
        with pytest.raises(CodecError):
            encode_state("not a cache state")
