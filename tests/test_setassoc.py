"""Set-associative and policy-parametric cache modelling.

Covers the soundness gap this PR closes: the abstract analysis used to
model *every* cache as fully associative, which lets it promise must-hits
that a direct-mapped or set-associative concrete cache conflict-misses.
The tests here pin

* the deterministic set-placement function shared by the concrete
  simulator and the per-set abstract domain (stable across processes and
  PYTHONHASHSEED values),
* the direct-mapped counterexample that the fully-associative
  abstraction gets wrong and the per-set domain gets right,
* FIFO replacement semantics, concrete and abstract,
* the headline property, geometry- and policy-swept: every abstract
  must-hit is a concrete hit on randomly simulated paths (fixed seed).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import zlib

import pytest

from repro import compile_source
from repro.analysis import analyze_baseline, analyze_speculative
from repro.analysis.transfer import new_bottom_state, new_entry_state
from repro.cache.abstract import AGE_INFINITY, CacheState
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.cache.placement import partition_by_set, set_index
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.errors import ConfigError
from repro.ir.memory import LaneTable, MemoryBlock
from repro.speculation.merge import MergeStrategy
from repro.speculation.predictor import OpposingPredictor
from repro.speculation.simulator import SpeculativeSimulator


def block(name: str, index: int = 0) -> MemoryBlock:
    return MemoryBlock(name, index)


# Two single-block arrays that collide in a 2-set cache (crc32("t0:0") and
# crc32("t2:0") are both even); pinned by TestStablePlacement below.
CONFLICTING = ("t0", "t2")

#: The lane table of every state these tests build directly.
LANES = LaneTable(
    [block(name) for name in ["a", "b", "c", "d", "e", "f", "g", "h", "t0", "t2"]]
    + [MemoryBlock("arr", i) for i in range(16)]
)


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestStablePlacement:
    def test_matches_crc32_spec(self):
        """The placement is crc32 of 'symbol:index' — not builtin hash(),
        which PYTHONHASHSEED randomises per process."""
        for name, index, num_sets in [("x", 0, 4), ("buf", 3, 8), ("t0", -1, 2)]:
            expected = zlib.crc32(f"{name}:{index}".encode()) % num_sets
            assert set_index(MemoryBlock(name, index), num_sets) == expected

    def test_single_set_never_hashes(self):
        assert set_index(block("anything"), 1) == 0

    def test_conflicting_pair_shares_a_set(self):
        a, b = (block(name) for name in CONFLICTING)
        assert set_index(a, 2) == set_index(b, 2)

    def test_partition_covers_all_blocks(self):
        blocks = [MemoryBlock("s", i) for i in range(8)]
        partition = partition_by_set(blocks, 4)
        assert sorted(b for group in partition.values() for b in group) == blocks
        assert set(partition) <= set(range(4))

    def test_concrete_and_abstract_agree_on_placement(self):
        config = CacheConfig(num_lines=8, associativity=2)
        cache = ConcreteCache(config)
        state = SetAssocCacheState.empty(config, LANES)
        for i in range(16):
            b = MemoryBlock("arr", i)
            assert cache._set_index(b) == state.set_of(b)

    def test_placement_stable_across_hash_seeds(self):
        """Two fresh interpreters with different PYTHONHASHSEED values must
        produce bit-identical set-associative analysis + simulation
        results (the acceptance criterion for the determinism fix), and
        bit-identical entry states for a paper-default (fully associative,
        shadow-state) analysis, down to each state's lane order and packed
        must/may ages: lane assignment follows sorted block order, never
        hashing."""
        script = (
            "import json\n"
            "from repro import compile_source\n"
            "from repro.analysis import analyze_speculative\n"
            "from repro.cache.config import CacheConfig\n"
            "from repro.service.wire import result_fingerprint\n"
            "from repro.speculation.predictor import OpposingPredictor\n"
            "from repro.speculation.simulator import SpeculativeSimulator\n"
            "src = '''\n"
            "char t0[64]; char t1[64]; char t2[64]; char t3[64];\n"
            "int p;\n"
            "int main() {\n"
            "  reg int i;\n"
            "  for (i = 0; i < 3; i++) { t0[0]; t2[0]; }\n"
            "  if (p > 1) { t1[0]; } else { t3[0]; }\n"
            "  t0[0];\n"
            "  return 0;\n"
            "}\n"
            "'''\n"
            "config = CacheConfig(num_lines=4, associativity=2)\n"
            "program = compile_source(src)\n"
            "result = analyze_speculative(program, config)\n"
            "sim = SpeculativeSimulator(program, cache_config=config,\n"
            "                           predictor=OpposingPredictor()).run({'p': 2})\n"
            "paper = analyze_speculative(program)\n"
            "def lanes(state):\n"
            "    return ([str(block) for block in state.lanes.blocks],\n"
            "            hex(state.must_packed), hex(state.may_packed))\n"
            "print(json.dumps({\n"
            "    'fingerprint': result_fingerprint(result),\n"
            "    'paper_states': {name: lanes(state) for name, state\n"
            "                     in sorted(paper.entry_states.items())},\n"
            "    'misses': sim.stats.misses,\n"
            "    'trace': [(r.memory_block.symbol, r.hit) for r in sim.accesses],\n"
            "}))\n"
        )
        outputs = []
        for seed in ("0", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1], (
            "set-associative results differ across PYTHONHASHSEED values"
        )


# ----------------------------------------------------------------------
# The direct-mapped counterexample (the soundness gap this PR closes)
# ----------------------------------------------------------------------
COUNTEREXAMPLE_SOURCE = f"""
char {CONFLICTING[0]}[64];
char {CONFLICTING[1]}[64];
int main() {{
  {CONFLICTING[0]}[0];
  {CONFLICTING[1]}[0];
  {CONFLICTING[0]}[0];
  return 0;
}}
"""

#: Two lines, direct-mapped: the two arrays above conflict in one set.
DIRECT_MAPPED = CacheConfig(num_lines=2, associativity=1)


class TestDirectMappedCounterexample:
    def test_fully_associative_model_claims_the_unsound_hit(self):
        """The *old* abstraction (a 2-line fully-associative state) proves
        both blocks cached after t0; t2; — so it promises the re-access of
        t0 hits.  This is the claim the concrete cache refutes below."""
        state = CacheState.empty(DIRECT_MAPPED.num_lines, LANES)
        state = state.access_block(block(CONFLICTING[0]))
        state = state.access_block(block(CONFLICTING[1]))
        assert state.must_hit(block(CONFLICTING[0]))  # the unsound promise

    def test_concrete_direct_mapped_cache_misses(self):
        cache = ConcreteCache(DIRECT_MAPPED)
        assert not cache.access(block(CONFLICTING[0]))
        assert not cache.access(block(CONFLICTING[1]))  # evicts t0
        assert not cache.access(block(CONFLICTING[0]))  # conflict miss
        assert cache.stats.misses == 3

    @pytest.mark.parametrize("use_shadow", [False, True])
    def test_per_set_domain_refuses_the_claim(self, use_shadow):
        state = SetAssocCacheState.empty(DIRECT_MAPPED, LANES, use_shadow=use_shadow)
        state = state.access_block(block(CONFLICTING[0]))
        state = state.access_block(block(CONFLICTING[1]))
        assert not state.must_hit(block(CONFLICTING[0]))
        assert state.must_hit(block(CONFLICTING[1]))

    @pytest.mark.parametrize("use_shadow", [False, True])
    def test_end_to_end_regression(self, use_shadow):
        """The compiled counterexample program: the analysis at the
        direct-mapped config must not claim the third access hits, and the
        concrete simulation indeed misses there.  (Before the per-set
        domain, analyze_baseline claimed a must-hit at this site.)"""
        program = compile_source(COUNTEREXAMPLE_SOURCE)
        result = analyze_baseline(
            program, DIRECT_MAPPED, use_shadow_state=use_shadow
        )
        records = SpeculativeSimulator(
            program, cache_config=DIRECT_MAPPED
        ).run().non_speculative_accesses()
        assert len(records) == 3
        third = records[2]
        assert third.memory_block == block(CONFLICTING[0])
        assert not third.hit
        assert (third.block_name, third.instruction_index) not in result.must_hit_sites()

    def test_fully_associative_config_still_claims_it(self):
        """Same program, fully-associative 2-line cache: the hit promise is
        *correct* there — the geometry axis, not the analysis, was the bug."""
        config = CacheConfig(num_lines=2)
        program = compile_source(COUNTEREXAMPLE_SOURCE)
        result = analyze_baseline(program, config)
        records = SpeculativeSimulator(program, cache_config=config).run()
        third = records.non_speculative_accesses()[2]
        assert third.hit
        assert (third.block_name, third.instruction_index) in result.must_hit_sites()


# ----------------------------------------------------------------------
# FIFO replacement
# ----------------------------------------------------------------------
class TestFifoConcrete:
    def test_hit_does_not_refresh(self):
        """a b a c on two lines: LRU keeps a (refreshed), FIFO evicts a
        (oldest insertion) — the defining difference of the policies."""
        lru = ConcreteCache(CacheConfig(num_lines=2, policy="lru"))
        fifo = ConcreteCache(CacheConfig(num_lines=2, policy="fifo"))
        for cache in (lru, fifo):
            cache.access(block("a"))
            cache.access(block("b"))
            assert cache.access(block("a"))
            cache.access(block("c"))
        assert lru.probe(block("a")) and not lru.probe(block("b"))
        assert fifo.probe(block("b")) and not fifo.probe(block("a"))

    def test_direct_mapped_policies_coincide(self):
        """With one way per set there is nothing to reorder: LRU and FIFO
        must behave identically."""
        seq = [block(name) for name in "abcabacbb"]
        results = []
        for policy in ("lru", "fifo"):
            cache = ConcreteCache(CacheConfig(num_lines=4, associativity=1, policy=policy))
            results.append([cache.access(b) for b in seq])
        assert results[0] == results[1]


class TestFifoAbstract:
    def test_guaranteed_hit_leaves_state_unchanged(self):
        state = CacheState.empty(4, LANES, policy="fifo")
        state = state.access_block(block("a"))
        assert state.must_hit(block("a"))
        assert state.access_block(block("a")) == state

    def test_miss_ages_everyone_and_gives_weakest_bound(self):
        state = CacheState.empty(2, LANES, policy="fifo")
        state = state.access_block(block("a"))
        assert state.age(block("a")) == 2  # resident, position unknown
        state = state.access_block(block("b"))
        assert not state.must_hit(block("a"))  # aged to 3 > 2: evicted
        assert state.age(block("b")) == 2

    def test_shadow_fifo_mirrors_plain_must_component(self):
        plain = CacheState.empty(3, LANES, policy="fifo")
        shadow = ShadowCacheState.empty(3, LANES, policy="fifo")
        for b in [block("a"), block("b"), block("a"), block("c")]:
            plain = plain.access_block(b)
            shadow = shadow.access_block(b)
            assert plain.cached_blocks() == shadow.cached_blocks()
            for cached in plain.cached_blocks():
                assert shadow.age(cached) <= plain.age(cached)

    def test_policies_do_not_mix(self):
        with pytest.raises(ValueError):
            CacheState.empty(4, LANES, policy="lru").join(CacheState.empty(4, LANES, policy="fifo"))

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    @pytest.mark.parametrize("config_kwargs", [
        dict(num_lines=4),
        dict(num_lines=4, associativity=1),
        dict(num_lines=4, associativity=2),
    ])
    def test_abstract_age_bounds_concrete_age(self, policy, config_kwargs):
        """Random access sequences, every geometry x policy: whenever the
        abstract state promises a block cached, the concrete cache holds it
        at a within-set age no greater than the bound."""
        config = CacheConfig(policy=policy, **config_kwargs)
        rng = random.Random(20260726)
        universe = [block(name) for name in "abcdefgh"]
        for _ in range(200):
            concrete = ConcreteCache(config)
            abstract = (
                SetAssocCacheState.empty(config, LANES)
                if not config.is_fully_associative
                else CacheState.empty(config.num_lines, LANES, policy=policy)
            )
            for b in rng.choices(universe, k=rng.randint(0, 12)):
                concrete.access(b)
                abstract = abstract.access_block(b)
            for b in universe:
                if abstract.must_hit(b):
                    concrete_age = concrete.age_of(b)
                    assert concrete_age is not None, (config, b)
                    assert concrete_age <= abstract.age(b), (config, b)


# ----------------------------------------------------------------------
# Invalid configurations
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(policy="plru")

    def test_policy_survives_wire_roundtrip(self):
        from repro.service.wire import cache_config_from_wire, cache_config_to_wire

        config = CacheConfig(num_lines=8, associativity=2, policy="fifo")
        assert cache_config_from_wire(cache_config_to_wire(config)) == config

    def test_old_wire_payload_defaults_to_lru(self):
        from repro.service.wire import cache_config_from_wire

        config = cache_config_from_wire({"num_lines": 8, "line_size": 64})
        assert config.policy == "lru"

    def test_result_keys_distinguish_geometry_and_policy(self):
        from dataclasses import replace

        from repro.engine.request import AnalysisRequest

        base = AnalysisRequest.baseline(
            "int x; int main() { x; return 0; }",
            cache_config=CacheConfig(num_lines=8),
        )
        keys = {
            replace(
                base, cache_config=replace(base.cache_config, **kwargs)
            ).result_key()
            for kwargs in (
                {}, {"associativity": 1}, {"associativity": 2},
                {"policy": "fifo"}, {"associativity": 2, "policy": "fifo"},
            )
        }
        assert len(keys) == 5


# ----------------------------------------------------------------------
# Geometry x policy x merge-strategy soundness sweep (the headline claim)
# ----------------------------------------------------------------------
SWEEP_KERNELS = [
    # Loops over conflicting arrays plus a mispredicted branch.
    f"""
char t0[64]; char t2[64]; char t1[64];
int p;
int main() {{
  reg int i;
  for (i = 0; i < 3; i++) {{ t0[0]; t2[0]; }}
  if (p > 1) {{ t1[0]; t0[0]; }} else {{ t2[0]; }}
  t0[0];
  return 0;
}}
""",
    # Secret-indexed access: the unknown-target transfer must age the
    # right sets.
    """
char sbox[256]; secret int key; int i;
int main() {
  for (i = 0; i < 2; i = i + 1) { sbox[i * 64]; }
  sbox[key];
  sbox[0];
  return 0;
}
""",
    # Nested branching with re-touched blocks.
    """
char t0[64]; char t1[64]; char t2[64]; char t3[64];
int p; int q;
int main() {
  t0[0]; t1[0];
  if (p > 0) { t2[0]; if (q > 1) { t3[0]; } else { t0[0]; } } else { t1[0]; }
  t0[0]; t1[0];
  return 0;
}
""",
]

SWEEP_GEOMETRIES = [
    dict(num_lines=4),
    dict(num_lines=4, associativity=1),
    dict(num_lines=4, associativity=2),
]


class TestGeometryPolicySoundnessSweep:
    """Every abstract must-hit is a concrete hit, for every geometry,
    policy and merge strategy, on randomly simulated paths (fixed seed)."""

    @pytest.mark.parametrize("geometry", SWEEP_GEOMETRIES,
                             ids=lambda g: f"assoc{g.get('associativity', 'Full')}")
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    def test_must_hits_never_miss_concretely(self, geometry, policy, strategy):
        rng = random.Random(97)
        for source in SWEEP_KERNELS:
            config = CacheConfig(policy=policy, **geometry)
            program = compile_source(source)
            result = analyze_speculative(program, config, merge_strategy=strategy)
            must_hit_sites = result.must_hit_sites()
            for _ in range(4):
                inputs = {
                    "p": rng.randint(0, 3),
                    "q": rng.randint(0, 3),
                    "key": rng.randint(0, 255),
                }
                simulation = SpeculativeSimulator(
                    program, cache_config=config, predictor=OpposingPredictor()
                ).run(inputs)
                for record in simulation.non_speculative_accesses():
                    site = (record.block_name, record.instruction_index)
                    if site in must_hit_sites:
                        assert record.hit, (
                            f"must-hit missed concretely at {site} "
                            f"(geometry={geometry}, policy={policy}, "
                            f"strategy={strategy}, inputs={inputs})"
                        )

    @pytest.mark.parametrize("geometry", SWEEP_GEOMETRIES,
                             ids=lambda g: f"assoc{g.get('associativity', 'Full')}")
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_speculative_subsumes_baseline_everywhere(self, geometry, policy):
        for source in SWEEP_KERNELS:
            config = CacheConfig(policy=policy, **geometry)
            program = compile_source(source)
            base = analyze_baseline(program, config)
            spec = analyze_speculative(program, config)
            assert spec.must_hit_sites() <= base.must_hit_sites()


# ----------------------------------------------------------------------
# age_of geometry awareness
# ----------------------------------------------------------------------
class TestAgeOfGeometryAware:
    def test_within_set_age_is_bounded_by_ways(self):
        config = CacheConfig(num_lines=8, associativity=2)
        cache = ConcreteCache(config)
        for i in range(16):
            cache.access(MemoryBlock("arr", i))
        for i in range(16):
            age = cache.age_of(MemoryBlock("arr", i))
            assert age is None or 1 <= age <= config.ways

    def test_age_comparable_with_per_set_abstract_age(self):
        config = CacheConfig(num_lines=4, associativity=2)
        cache = ConcreteCache(config)
        state = SetAssocCacheState.empty(config, LANES)
        for name in ["a", "b", "c", "a", "d"]:
            cache.access(block(name))
            state = state.access_block(block(name))
        for name in "abcd":
            if state.must_hit(block(name)):
                assert cache.age_of(block(name)) <= state.age(block(name))

    def test_paper_default_age_unchanged(self):
        cache = ConcreteCache(CacheConfig.small(num_lines=4))
        for name in ["a", "b", "c"]:
            cache.access(block(name))
        assert cache.age_of(block("c")) == 1
        assert cache.age_of(block("a")) == 3
        assert cache.age_of(block("z")) is None


# ----------------------------------------------------------------------
# Hashing and equality: states key the committed-path transfer memo
# ----------------------------------------------------------------------
HASH_GEOMETRIES = [
    dict(num_lines=4, associativity=1),
    dict(num_lines=4, associativity=2),
    dict(num_lines=8, associativity=2),
    dict(num_lines=8, associativity=4),
    dict(num_lines=4, associativity=2, policy="fifo"),
]


def reached_states(program, config: CacheConfig, use_shadow: bool) -> list:
    """The entry states the baseline analysis of ``program`` reaches."""
    result = analyze_baseline(program, config, use_shadow_state=use_shadow)
    return list(result.entry_states.values())


class TestHashAndEquality:
    """An access table memoises committed-path transfers keyed by their
    input state, so equal set-associative states must hash equal, and a
    state of one geometry must never equal one of another."""

    @pytest.mark.parametrize("use_shadow", [True, False])
    def test_equal_states_hash_equal(self, use_shadow):
        """Two separate compiles (so two equal lane tables) and analyses
        reach equal states that hash equal and find each other's entries
        as dict keys."""
        for source, geometry in itertools.product(SWEEP_KERNELS, HASH_GEOMETRIES):
            config = CacheConfig(**geometry)
            first = reached_states(compile_source(source), config, use_shadow)
            second = reached_states(compile_source(source), config, use_shadow)
            assert all(type(state) is SetAssocCacheState for state in first + second)
            assert first[0].lanes is not second[0].lanes
            assert first == second
            for a, b in zip(first, second):
                assert a is not b and hash(a) == hash(b)
            keyed = {state: position for position, state in enumerate(first)}
            assert [keyed[state] for state in second] == [keyed[state] for state in first]

    def test_geometries_never_compare_equal(self):
        """Across geometries, policies, per-set flavours and the fully
        associative domains, no two states compare equal, even where their
        contents agree (the empty cache, bottom)."""
        program = compile_source(SWEEP_KERNELS[0])
        states_of = {}
        for geometry in HASH_GEOMETRIES + [dict(num_lines=4), dict(num_lines=8)]:
            for use_shadow in (True, False):
                config = CacheConfig(**geometry)
                states = reached_states(program, config, use_shadow)
                states.append(new_entry_state(config, use_shadow, program.layout))
                states.append(new_bottom_state(config, use_shadow, program.layout))
                states_of[(str(geometry), use_shadow)] = states
        assert len(states_of) == 14
        for first, second in itertools.combinations(states_of.values(), 2):
            for a, b in itertools.product(first, second):
                assert a != b and b != a, (a, b)
