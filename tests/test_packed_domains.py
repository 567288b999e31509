"""Differential tests: the lane-packed cache domains against the dict
oracle in ``reference_domains.py``.

A seeded random walk drives both implementations through the same
operations — concrete, placeholder, unknown-index and secret-indexed
accesses, ``join``, ``widen`` and ``leq`` — over LRU and FIFO and line
counts from 1 to 512.  After every operation the packed state, read back
through its age views, must equal the reference state, and ``leq`` must
give the same answer.  ``join`` must also hand back its receiver itself
whenever the other operand adds nothing.
"""

from __future__ import annotations

import random

import pytest

import reference_domains as reference
from repro.cache.abstract import CacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    LaneTable,
    MemoryBlock,
    MemoryRef,
    placeholder_blocks,
)

#: Objects of the test layout: name -> number of blocks.
OBJECTS = {"a": 1, "b": 1, "c": 1, "d": 1, "t": 4, "s": 3, "k": 2}
#: Objects accessed with an unknown index (they get placeholder lanes).
UNKNOWN_INDEXED = ("t", "s")

REAL_BLOCKS = [MemoryBlock(name, i) for name, size in OBJECTS.items() for i in range(size)]
PLACEHOLDERS = [
    block for name in UNKNOWN_INDEXED for block in placeholder_blocks(name, OBJECTS[name])
]
LANES = LaneTable(REAL_BLOCKS + PLACEHOLDERS)

NUM_LINES = [1, 2, 3, 4, 8, 64, 512]
STEPS = 700


def _access(kind: AccessKind, symbol: str, blocks) -> BlockAccess:
    ref = MemoryRef(
        symbol=symbol,
        index_const=0 if kind is AccessKind.CONCRETE else None,
        index_secret=kind is AccessKind.SECRET,
    )
    return LANES.bind(
        BlockAccess(kind=kind, symbol=symbol, blocks=tuple(blocks), is_write=False, ref=ref)
    )


ACCESSES = (
    [_access(AccessKind.CONCRETE, block.symbol, [block]) for block in REAL_BLOCKS + PLACEHOLDERS]
    + [
        _access(AccessKind.UNKNOWN, name, [b for b in REAL_BLOCKS if b.symbol == name])
        for name in UNKNOWN_INDEXED
    ]
    + [
        _access(AccessKind.SECRET, name, [b for b in REAL_BLOCKS if b.symbol == name])
        for name in ("k", "t")
    ]
)


def _packed_pair(flavour: str, num_lines: int, policy: str, bottom: bool = False):
    packed_cls = ShadowCacheState if flavour == "shadow" else CacheState
    reference_cls = reference.ShadowCacheState if flavour == "shadow" else reference.CacheState
    if bottom:
        return (
            packed_cls.bottom(num_lines, LANES, policy=policy),
            reference_cls.bottom(num_lines, policy=policy),
        )
    return (
        packed_cls.empty(num_lines, LANES, policy=policy),
        reference_cls.empty(num_lines, policy=policy),
    )


def _decoded(state):
    if isinstance(state, ShadowCacheState):
        return state.is_bottom, dict(state.must), dict(state.may)
    return state.is_bottom, dict(state.ages)


def _expected(state):
    if isinstance(state, reference.ShadowCacheState):
        return state.is_bottom, dict(state.must), dict(state.may)
    return state.is_bottom, dict(state.ages)


def _walk(flavour: str, policy: str, num_lines: int, seed: int) -> int:
    rng = random.Random(f"{flavour}/{policy}/{num_lines}/{seed}")
    pool = [
        _packed_pair(flavour, num_lines, policy),
        _packed_pair(flavour, num_lines, policy, bottom=True),
    ]
    operations = 0
    for step in range(STEPS):
        op = rng.choices(["access", "join", "widen", "leq"], weights=[6, 3, 1, 2])[0]
        packed, expected = rng.choice(pool)
        context = f"{flavour}/{policy}/{num_lines} step {step} {op}"
        if op == "access":
            access = rng.choice(ACCESSES)
            result = (packed.access(access), expected.access(access))
        elif op == "leq":
            other_packed, other_expected = rng.choice(pool)
            assert packed.leq(other_packed) == expected.leq(other_expected), context
            operations += 1
            continue
        else:
            other_packed, other_expected = rng.choice(pool)
            method = op
            result = (
                getattr(packed, method)(other_packed),
                getattr(expected, method)(other_expected),
            )
            if op == "join" and result[1] == expected:
                assert result[0] is packed, f"{context}: join did not return its receiver"
        assert _decoded(result[0]) == _expected(result[1]), context
        operations += 1
        if len(pool) < 8:
            pool.append(result)
        else:
            pool[rng.randrange(len(pool))] = result
    return operations


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("flavour", ["flat", "shadow"])
def test_packed_matches_reference(flavour, policy):
    operations = sum(
        _walk(flavour, policy, num_lines, seed)
        for num_lines in NUM_LINES
        for seed in range(2)
    )
    assert operations == len(NUM_LINES) * 2 * STEPS


@pytest.mark.parametrize("flavour", ["flat", "shadow"])
def test_identical_operand_shortcuts(flavour):
    """``leq`` answers an identical operand without comparing, and a
    join with nothing new (itself, bottom, or a coarser state) hands
    back the receiver."""
    state, _ = _packed_pair(flavour, 4, "lru")
    state = state.access(ACCESSES[0]).access(ACCESSES[1])
    bottom, _ = _packed_pair(flavour, 4, "lru", bottom=True)
    coarser = state.access(ACCESSES[2])
    assert state.leq(state)
    assert state.join(state) is state
    assert state.join(bottom) is state
    assert bottom.join(state) is state
    joined = coarser.join(state)
    assert joined.join(state) is joined
