"""Differential tests: the lane-packed cache domains against the dict
oracle in ``reference_domains.py``.

A seeded random walk drives both implementations through the same
operations — concrete, placeholder, unknown-index and secret-indexed
accesses, ``join``, ``widen`` and ``leq`` — over LRU and FIFO and line
counts from 1 to 512, on a small lane table and on one as wide as the
largest layouts of the Table 5/6/7 kernels.  After every operation the
packed state, read back through its age views, must equal the reference
state, ``leq`` and ``must_hit_access`` must give the same answers, and a
shadow state that carries a may ranking must carry exactly the sorted
lane values of its may map.  ``join`` must also hand back its receiver
itself whenever the other operand adds nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from access_reference import bind
import reference_domains as reference
from repro.cache.abstract import CacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import (
    LANE_BITS,
    AccessKind,
    BlockAccess,
    LaneTable,
    MemoryBlock,
    MemoryRef,
    placeholder_blocks,
)

#: Objects accessed with an unknown index (they get placeholder lanes).
UNKNOWN_INDEXED = ("t", "s")
#: Objects accessed with a secret index.
SECRET_INDEXED = ("k", "t")


def _access(lanes: LaneTable, kind: AccessKind, symbol: str, blocks) -> BlockAccess:
    ref = MemoryRef(
        symbol=symbol,
        index_const=0 if kind is AccessKind.CONCRETE else None,
        index_secret=kind is AccessKind.SECRET,
    )
    access = BlockAccess(kind=kind, symbol=symbol, blocks=tuple(blocks), is_write=False, ref=ref)
    return bind(lanes, access)


@dataclass(frozen=True)
class Layout:
    """A lane table and every access the walk draws from."""

    lanes: LaneTable
    accesses: tuple[BlockAccess, ...]

    @classmethod
    def of(cls, objects: dict[str, int]) -> "Layout":
        """``objects`` maps names to block counts."""
        real = [MemoryBlock(name, i) for name, size in objects.items() for i in range(size)]
        placeholders = [
            block for name in UNKNOWN_INDEXED for block in placeholder_blocks(name, objects[name])
        ]
        lanes = LaneTable(real + placeholders)

        def blocks_of(name: str) -> list[MemoryBlock]:
            return [block for block in real if block.symbol == name]

        concrete = [
            _access(lanes, AccessKind.CONCRETE, block.symbol, [block])
            for block in real + placeholders
        ]
        unknown = [_access(lanes, AccessKind.UNKNOWN, n, blocks_of(n)) for n in UNKNOWN_INDEXED]
        secret = [_access(lanes, AccessKind.SECRET, n, blocks_of(n)) for n in SECRET_INDEXED]
        return cls(lanes, tuple(concrete + unknown + secret))


SMALL = Layout.of({"a": 1, "b": 1, "c": 1, "d": 1, "t": 4, "s": 3, "k": 2})
#: 86 lanes, as many as the widest layouts the ``tables`` benchmark
#: workload analyses.
WIDE = Layout.of({**dict.fromkeys("abcdefgh", 1), "t": 16, "s": 12, "k": 8, "u": 14})
LANES = SMALL.lanes
ACCESSES = SMALL.accesses

NUM_LINES = [1, 2, 3, 4, 8, 64, 512]
WIDE_NUM_LINES = [64, 512]
#: Each layout with the line counts the walk runs it at.
WALKS = [
    pytest.param(SMALL, NUM_LINES, id="small"),
    pytest.param(WIDE, WIDE_NUM_LINES, id="wide"),
]
SEEDS = range(3)
STEPS = 700


def _packed_pair(
    flavour: str, num_lines: int, policy: str, bottom: bool = False, lanes: LaneTable = LANES
):
    packed_cls = ShadowCacheState if flavour == "shadow" else CacheState
    reference_cls = reference.ShadowCacheState if flavour == "shadow" else reference.CacheState
    if bottom:
        return (
            packed_cls.bottom(num_lines, lanes, policy=policy),
            reference_cls.bottom(num_lines, policy=policy),
        )
    return (
        packed_cls.empty(num_lines, lanes, policy=policy),
        reference_cls.empty(num_lines, policy=policy),
    )


def _ranking(lanes: LaneTable, may: int) -> int:
    return LaneTable.pack(sorted(lanes.values(may), reverse=True))


def _decoded(state):
    if isinstance(state, ShadowCacheState):
        return state.is_bottom, dict(state.must), dict(state.may)
    return state.is_bottom, dict(state.ages)


def _expected(state):
    if isinstance(state, reference.ShadowCacheState):
        return state.is_bottom, dict(state.must), dict(state.may)
    return state.is_bottom, dict(state.ages)


def _walk(flavour: str, policy: str, num_lines: int, seed: int, layout: Layout = SMALL) -> int:
    """Run one seeded walk; returns the number of operations compared."""
    rng = random.Random(f"{flavour}/{policy}/{num_lines}/{seed}")
    pool = [
        _packed_pair(flavour, num_lines, policy, lanes=layout.lanes),
        _packed_pair(flavour, num_lines, policy, bottom=True, lanes=layout.lanes),
    ]
    accesses = layout.accesses
    operations = 0
    for step in range(STEPS):
        op = rng.choices(["access", "join", "widen", "leq"], weights=[6, 3, 1, 2])[0]
        packed, expected = rng.choice(pool)
        context = f"{flavour}/{policy}/{num_lines}/{len(layout.lanes)} lanes step {step} {op}"
        if op == "access":
            access = rng.choice(accesses)
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
        probe = accesses[step % len(accesses)]
        assert result[0].must_hit_access(probe) == result[1].must_hit_access(probe), context
        ranking = getattr(result[0], "may_ranking", None)
        if ranking is not None:
            assert ranking == _ranking(layout.lanes, result[0].may_packed), context
        operations += 1
        if len(pool) < 8:
            pool.append(result)
        else:
            pool[rng.randrange(len(pool))] = result
    return operations


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("flavour", ["flat", "shadow"])
@pytest.mark.parametrize("layout, line_counts", WALKS)
def test_packed_matches_reference(layout, line_counts, flavour, policy):
    operations = sum(
        _walk(flavour, policy, num_lines, seed, layout)
        for num_lines in line_counts
        for seed in SEEDS
    )
    assert operations == len(line_counts) * len(SEEDS) * STEPS


def _runs_holding(passing: list[bool], ages: set[int]) -> int:
    """How many runs of passing ages (``passing[a - 1]`` for age ``a``)
    hold one of ``ages``."""
    runs = []
    for age, passes in enumerate(passing, start=1):
        if passes and (age == 1 or not passing[age - 2]):
            runs.append(set())
        if passes:
            runs[-1].add(age)
    return sum(1 for run in runs if run & ages)


@pytest.fixture
def nyoung_calls(monkeypatch):
    """Spy on the shadow state's NYoung step.  Per call it checks the
    ranking handed in against a fresh sort, and records, from the
    definition of NYoung rather than from the implementation, the most
    runs of passing ages that hold the must age of a block of one group
    of younger blocks: the runs in which NYoung ages a block."""
    calls: list[int] = []
    nyoung_aged = ShadowCacheState._nyoung_aged

    def spy(state, must, may, younger, ranking):
        lanes = state.lanes
        assert ranking == _ranking(lanes, may)
        must_values = lanes.values(must)
        may_values = lanes.values(may)
        # w_1 >= w_2 >= ...: a block of must age a ages when w_a (w_(a+1)
        # when its own shadow age is at most a) reaches the value of age a.
        ranked = sorted(may_values, reverse=True) + [0]
        count = min(len(lanes), state.num_lines)
        most = 0
        for counted in (False, True):
            ages = {
                state.num_lines + 1 - must_values[lane]
                for lane in range(len(lanes))
                if younger >> ((lane + 1) * LANE_BITS - 1) & 1
                and (may_values[lane] >= must_values[lane]) == counted
            }
            if ages:
                passing = [
                    ranked[age - 1 + counted] >= state.num_lines + 1 - age
                    for age in range(1, count + 1)
                ]
                most = max(most, _runs_holding(passing, ages))
        calls.append(most)
        return nyoung_aged(state, must, may, younger, ranking)

    monkeypatch.setattr(ShadowCacheState, "_nyoung_aged", spy)
    return calls


def test_walk_ages_blocks_in_several_runs_of_passing_ages(nyoung_calls):
    """The shadow LRU walk reaches NYoung calls that age blocks in two or
    more runs of passing ages (12 calls on these seeds, all on the small
    table at 8 lines and seed 2), so the walk's comparison with the
    oracle covers the run walk past its first run.
    ``test_nyoung_ages_blocks_in_every_run_of_passing_ages`` pins the
    same case on a hand-built state."""
    for layout, line_counts in (walk.values for walk in WALKS):
        for num_lines in line_counts:
            for seed in SEEDS:
                _walk("shadow", "lru", num_lines, seed, layout)
    assert nyoung_calls
    assert sum(1 for most in nyoung_calls if most >= 2) >= 1


def test_nyoung_ages_blocks_in_every_run_of_passing_ages(nyoung_calls):
    """A hand-built touch whose passing ages form two runs, each holding a
    younger block: after the access to ``a``, blocks sit at shadow ages
    1, 2, 2, 4, 4, so NYoung passes at must ages 2 and 4 but not 3."""
    a, b, c, d, k = (MemoryBlock(name) for name in "abcdk")
    must = {b: 2, c: 3, d: 4}
    may = {b: 1, c: 1, d: 3, k: 3}
    state = ShadowCacheState.from_ages(8, LANES, must, may)
    expected = reference.ShadowCacheState(8, must, may).access_block(a)
    result = state.access_block(a)
    assert nyoung_calls == [2]
    assert dict(result.must) == expected.must == {a: 1, b: 3, c: 3, d: 5}
    assert dict(result.may) == expected.may


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
