"""Tests for the sparse multi-color engine rebuild: differential equality
against the dense block schedule (:class:`DenseReference`), the scenario-sharded
scheduler, the heap-based window construction, the postdominator-tree
convergence fix, and the precomputed slot-placement indices."""

from __future__ import annotations

import random

import pytest

from repro import compile_source
from repro.analysis import analyze_speculative
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import (
    branchy_kernel_source,
    taint_sparse_kernel_source,
    wcet_benchmark_source,
)
from repro.cache.config import CacheConfig
from repro.engine.engine import execute_request
from repro.engine.request import AnalysisRequest
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.dominators import (
    VIRTUAL_EXIT,
    compute_postdominators,
    immediate_postdominator,
    postdominator_tree,
)
from repro.ir.instructions import CondBranch, Const, Jump, Return, Temp
from repro.service.wire import request_from_wire, request_to_wire
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.speculation.vcfg import SpeculativeWindow, build_vcfg, compute_window

# ----------------------------------------------------------------------
# Seeded random MiniC programs
# ----------------------------------------------------------------------
SEED = 0x5EED

#: Geometries of the differential matrix: the paper's shape (scaled) and a
#: set-associative FIFO one, so both abstract cache domains are exercised.
GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
]


def random_source(
    rng: random.Random, num_statements: int = 12, loops: bool = True
) -> str:
    """A random straight-line/diamond/breaking-loop MiniC program.

    Memory-dependent branch conditions produce full-depth scenarios,
    register conditions exercise the dynamic depth bounding, the breaking
    loop survives unrolling (so widening points exist), and the
    secret-indexed access exercises leak classification.  With
    ``loops=False`` a one-armed branch takes the loop's place, so the CFG
    is acyclic.
    """
    arrays = 5
    decls = [f"char a{i}[64];" for i in range(arrays)]
    decls += ["char cnd[256];", "char sbox[256];", "secret int key;",
              "reg int p;", "int q;"]

    def access() -> str:
        return f"a{rng.randrange(arrays)}[{rng.choice([0, 32])}];"

    body = []
    for _ in range(num_statements):
        roll = rng.random()
        if roll < 0.40:
            body.append("  " + access())
        elif roll < 0.80:
            cond = f"cnd[{rng.randrange(4) * 64}]" if rng.random() < 0.7 else "p"
            inner = ""
            if rng.random() < 0.3:
                inner = (
                    f" if (cnd[{rng.randrange(4) * 64}])"
                    f" {{ {access()} }} else {{ {access()} }}"
                )
            body.append(f"  if ({cond}) {{ {access()}{inner} }} else {{ {access()} }}")
        elif roll < 0.90 and loops:
            body.append(
                "  for (q = 0; q < 8; q = q + 1) {\n"
                f"    {access()}\n"
                f"    if (cnd[{rng.randrange(4) * 64}]) break;\n"
                "  }"
            )
        elif roll < 0.90:
            body.append(f"  if (cnd[{rng.randrange(4) * 64}]) {{ {access()} }}")
        else:
            body.append("  sbox[key];")
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


@pytest.fixture(scope="module")
def random_programs():
    rng = random.Random(SEED)
    return [compile_source(random_source(rng)) for _ in range(4)]


@pytest.fixture(scope="module")
def loop_free_programs():
    rng = random.Random(SEED + 1)
    return [compile_source(random_source(rng, loops=False)) for _ in range(4)]


# ----------------------------------------------------------------------
# Sparse engine == dense block-schedule reference
# ----------------------------------------------------------------------
class DenseReference(SpeculativeCacheAnalysis):
    """The dense block schedule: every pass pops whole blocks, and every pop
    re-transfers the normal state and every slot at the block, whatever
    changed."""

    def _block_granular(self, policy):
        return True

    def _process_block_sparse(self, name, pending, normal, speculative, *rest):
        pending = {None, *speculative[name]}
        return super()._process_block_sparse(name, pending, normal, speculative, *rest)


def live_slots(fixpoint) -> dict:
    """``{(block, slot): state}`` for every non-bottom slot of a fixpoint."""
    return {
        (block, slot): state
        for block, slots in fixpoint.speculative.items()
        for slot, state in slots.items()
        if not getattr(state, "is_bottom", False)
    }


def is_block_granular(engine: SpeculativeCacheAnalysis) -> bool:
    return engine._block_granular(engine._widening_policy())


def assert_matches_reference(program, **config) -> SpeculativeCacheAnalysis:
    """Run the engine and :class:`DenseReference` on ``program`` and check
    that they reach the same fixpoint: normal states, non-bottom slots,
    chosen windows, classifications and the widening and active
    virtual-edge counters.  Where the engine's own pass is block-granular
    the pop schedules coincide, so the pop counts must be equal; on the
    node schedule every live slot is transferred exactly once, and each
    reachable block's S and live slot group is popped at most once.
    Returns the engine."""
    oracle = DenseReference(program, **config)
    expected = oracle.run()
    engine = SpeculativeCacheAnalysis(program, **config)
    result = engine.run()
    assert result.classifications == expected.classifications
    assert result.entry_states == expected.entry_states
    live = live_slots(engine.last_fixpoint)
    assert live == live_slots(oracle.last_fixpoint)
    assert engine.chooser.export_state() == oracle.chooser.export_state()
    assert result.widenings == expected.widenings
    assert result.num_virtual_edges_active == expected.num_virtual_edges_active
    if is_block_granular(engine):
        assert result.iterations == expected.iterations
    else:
        assert engine._slot_transfers == len(live)
        assert engine._slot_transfers <= oracle._slot_transfers
        assert result.iterations <= len(program.cfg.reachable_blocks()) + len(live)
    return engine


class TestSparseMatchesDenseReference:
    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("config_name", ["paper_default", "no_speculation"])
    def test_differential_matrix(
        self, random_programs, loop_free_programs, strategy, geometry, config_name
    ):
        """The engine reaches the dense block schedule's fixpoint across
        merge strategies x cache geometries x speculation configs on
        seeded random programs, with and without loops.  The programs
        with a loop are scheduled block by block, like the reference, so
        there even the pop counts agree; the loop-free ones run the node
        schedule."""
        cache = GEOMETRIES[geometry]
        speculation = getattr(SpeculationConfig, config_name)().with_strategy(strategy)
        schedules = set()
        for program in random_programs + loop_free_programs:
            engine = assert_matches_reference(
                program, cache_config=cache, speculation=speculation
            )
            schedules.add(is_block_granular(engine))
        assert schedules == {True, False}, "the matrix must reach both schedules"

    def test_loop_free_programs_have_live_slots(self, loop_free_programs, bench_cache):
        """The loop-free inputs exercise what the node schedule reorders:
        live window and resume slots, and rollbacks into S."""
        for program in loop_free_programs:
            engine = SpeculativeCacheAnalysis(program, cache_config=bench_cache)
            engine.run()
            assert not is_block_granular(engine)
            kinds = {slot[0] for _, slot in live_slots(engine.last_fixpoint)}
            assert kinds == {"window", "resume"}

    def test_differential_on_table7_harnesses(self, bench_cache):
        for name in ("hash", "des", "str2key"):
            kernel = crypto_kernel(name, 64, 64)
            program = compile_source(build_client_source(kernel, 2880))
            engine = assert_matches_reference(program, cache_config=bench_cache)
            assert not is_block_granular(engine)

    def test_differential_on_widening_active_kernel(self, bench_cache):
        """adpcm is the corpus kernel whose fixpoint actually widens; its
        passes stay block-granular, so the schedules (and therefore the
        widening timing) must still agree."""
        program = compile_source(wcet_benchmark_source("adpcm"))
        engine = assert_matches_reference(program, cache_config=bench_cache)
        assert engine.last_fixpoint.widenings > 0, (
            "adpcm stopped widening; pick another kernel"
        )
        assert is_block_granular(engine)


# ----------------------------------------------------------------------
# Scenario sharding
# ----------------------------------------------------------------------
class TestScenarioSharding:
    def test_shard_counts_agree_on_widening_free_kernels(self, bench_cache):
        """Without widening the fixpoint is the unique lfp, so every shard
        count — including the canonical unsharded engine — must produce
        identical classifications."""
        for source in (
            branchy_kernel_source(6),
            build_client_source(crypto_kernel("hash", 64, 64), 2880),
        ):
            program = compile_source(source)
            canonical = SpeculativeCacheAnalysis(
                program, cache_config=bench_cache
            ).run()
            for shards in (2, 3, 8):
                sharded = SpeculativeCacheAnalysis(
                    program, cache_config=bench_cache, scenario_shards=shards
                ).run()
                assert sharded.classifications == canonical.classifications
                assert sharded.widenings == 0

    def test_sharding_is_shard_count_invariant_under_widening(self, bench_cache):
        """On widening-active programs the sharded scheduler computes the
        exact (unwidened) fixpoint: identical for every shard count, and
        never less precise than the canonical engine."""
        program = compile_source(wcet_benchmark_source("adpcm"))
        canonical = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
        assert canonical.widenings > 0
        two = SpeculativeCacheAnalysis(
            program, cache_config=bench_cache, scenario_shards=2
        ).run()
        four = SpeculativeCacheAnalysis(
            program, cache_config=bench_cache, scenario_shards=4
        ).run()
        assert two.classifications == four.classifications
        key = lambda c: (c.block, c.instruction_index, c.speculative, c.scenario_color)
        canonical_hits = {key(c): c.must_hit for c in canonical.classifications}
        sharded_hits = {key(c): c.must_hit for c in two.classifications}
        assert set(canonical_hits) == set(sharded_hits)
        # exact fixpoint: every canonical must-hit is preserved
        assert all(
            sharded_hits[site] for site, hit in canonical_hits.items() if hit
        )

    def test_shard_counts_agree_on_random_programs(self, random_programs, bench_cache):
        """At the 64-line cache the random programs' breaking loops make
        the canonical engine widen; the sharded scheduler still computes
        one exact fixpoint for every shard count, never less precise than
        the canonical one: it classifies no site the widened fixpoint
        does not reach, and keeps every must-hit of the sites it shares."""
        key = lambda c: (c.block, c.instruction_index, c.speculative, c.scenario_color)
        widened = 0
        for program in random_programs:
            canonical = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
            widened += canonical.widenings
            two = SpeculativeCacheAnalysis(
                program, cache_config=bench_cache, scenario_shards=2
            ).run()
            three = SpeculativeCacheAnalysis(
                program, cache_config=bench_cache, scenario_shards=3
            ).run()
            assert two.classifications == three.classifications
            assert two.widenings == three.widenings == 0
            canonical_hits = {key(c): c.must_hit for c in canonical.classifications}
            sharded_hits = {key(c): c.must_hit for c in two.classifications}
            assert set(sharded_hits) <= set(canonical_hits)
            assert all(
                hit for site, hit in sharded_hits.items() if canonical_hits[site]
            )
        assert widened > 0

    def test_reported_scenario_counters_are_shard_invariant(self, bench_cache):
        """Branch and virtual-edge counters describe the program, not the
        schedule: sharding must not change them."""
        program = compile_source(taint_sparse_kernel_source(8))
        canonical = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
        assert canonical.num_speculative_branches > 0
        for shards in (2, 3):
            sharded = SpeculativeCacheAnalysis(
                program, cache_config=bench_cache, scenario_shards=shards
            ).run()
            assert sharded.num_speculative_branches == canonical.num_speculative_branches
            assert sharded.num_virtual_edges == canonical.num_virtual_edges
            assert (
                sharded.num_virtual_edges_active
                == canonical.num_virtual_edges_active
            )
            assert sharded.classifications == canonical.classifications
            assert sharded.leak_detected and canonical.leak_detected

    def test_sharding_with_no_scenarios_is_harmless(self, bench_cache):
        program = compile_source(
            "char a[64];\nint main() {\n  a[0];\n  return 0;\n}\n"
        )
        result = SpeculativeCacheAnalysis(
            program, cache_config=bench_cache, scenario_shards=8
        ).run()
        assert result.num_speculative_branches == 0
        assert result.classifications

    def test_analyze_speculative_knob(self, quantl_program, bench_cache):
        plain = analyze_speculative(quantl_program, cache_config=bench_cache)
        sharded = analyze_speculative(
            quantl_program, cache_config=bench_cache, scenario_shards=3
        )
        assert sharded.classifications == plain.classifications


# ----------------------------------------------------------------------
# Request / wire plumbing for the sharding knob
# ----------------------------------------------------------------------
class TestShardingPlumbing:
    SOURCE = "char a[64]; char c[64];\nint main() {\n  if (c[0]) { a[0]; }\n  return 0;\n}\n"

    def test_result_keys_separate_shard_counts(self):
        plain = AnalysisRequest(source=self.SOURCE)
        sharded = AnalysisRequest(source=self.SOURCE, scenario_shards=2)
        assert plain.result_key() != sharded.result_key()
        # the default keeps its historical key shape (warm stores stay valid)
        assert plain.result_key() == AnalysisRequest(source=self.SOURCE).result_key()

    def test_wire_roundtrip_and_legacy_default(self):
        request = AnalysisRequest(source=self.SOURCE, scenario_shards=4)
        assert request_from_wire(request_to_wire(request)) == request
        legacy_payload = request_to_wire(AnalysisRequest(source=self.SOURCE))
        del legacy_payload["scenario_shards"]
        assert request_from_wire(legacy_payload).scenario_shards == 1

    def test_execute_request_routes_shards(self):
        plain = execute_request(AnalysisRequest(source=self.SOURCE))
        sharded = execute_request(
            AnalysisRequest(source=self.SOURCE, scenario_shards=2)
        )
        assert sharded.classifications == plain.classifications


# ----------------------------------------------------------------------
# Heap-based compute_window
# ----------------------------------------------------------------------
def reference_compute_window(cfg, start: str, depth: int) -> SpeculativeWindow:
    """The pre-heap implementation (sort-the-worklist-per-pop), kept
    verbatim as the equality oracle."""
    from repro.speculation.vcfg import first_fence_index

    if depth <= 0:
        return SpeculativeWindow(depth=depth)
    distance = {start: 0}
    worklist = [start]
    while worklist:
        worklist.sort(key=lambda name: distance[name])
        block_name = worklist.pop(0)
        if first_fence_index(cfg, block_name) is not None:
            continue
        block_distance = distance[block_name]
        exit_distance = block_distance + cfg.block(block_name).instruction_count
        if exit_distance >= depth:
            continue
        for successor in cfg.successors(block_name):
            if exit_distance < distance.get(successor, depth):
                distance[successor] = exit_distance
                if successor not in worklist:
                    worklist.append(successor)
    allowed = {}
    for name, dist in distance.items():
        if depth - dist <= 0:
            continue
        limit = cfg.block(name).instruction_count
        fence = first_fence_index(cfg, name)
        if fence is not None:
            limit = min(limit, fence)
        allowance = min(limit, depth - dist)
        if allowance > 0:
            allowed[name] = allowance
    return SpeculativeWindow(depth=depth, allowed=allowed)


class TestComputeWindowHeap:
    @pytest.mark.parametrize("name", sorted(CRYPTO_BENCHMARKS))
    def test_window_equality_on_table7_kernels(self, name):
        """The Dijkstra rewrite computes exactly the windows the old
        sort-based implementation did, for every branch target of every
        Table-7 client harness at both depth bounds."""
        kernel = crypto_kernel(name, 64, 64)
        program = compile_source(build_client_source(kernel, 2880))
        cfg = program.cfg
        starts = set()
        for branch_block in cfg.conditional_blocks():
            terminator = cfg.block(branch_block).terminator
            starts.update(terminator.targets())
        if not starts:
            # Some kernels (e.g. str2key, aes) are branchless once their
            # fixed loops unroll; sweep the windows from every block then.
            starts = set(cfg.reachable_blocks())
        for start in sorted(starts):
            for depth in (16, 20, 200):
                assert compute_window(cfg, start, depth) == reference_compute_window(
                    cfg, start, depth
                )

    def test_window_equality_on_random_programs(self, random_programs):
        for program in random_programs:
            cfg = program.cfg
            for start in cfg.reachable_blocks():
                for depth in (0, 7, 64):
                    assert compute_window(cfg, start, depth) == (
                        reference_compute_window(cfg, start, depth)
                    )


# ----------------------------------------------------------------------
# Postdominator-tree convergence fix
# ----------------------------------------------------------------------
def legacy_immediate_postdominator(cfg, block: str) -> str | None:
    """The pre-fix selection: an inverted chain test (which favours the
    postdominator *nearest the exit*) plus an arbitrary sorted fallback."""
    pdom = compute_postdominators(cfg)
    candidates = pdom.get(block, set()) - {block, VIRTUAL_EXIT}
    if not candidates:
        return None
    for candidate in candidates:
        if all(candidate in pdom[other] for other in candidates if other != candidate):
            return candidate
    return sorted(candidates)[0]


def build_double_diamond() -> CFG:
    """entry branches; both sides join at mid; mid branches; both sides
    join at last; last returns.  ipdom(entry) is mid, NOT last."""
    cfg = CFG(name="double_diamond")
    layout = {
        "entry": ("t1", "f1"),
        "t1": "mid",
        "f1": "mid",
        "mid": ("t2", "f2"),
        "t2": "last",
        "f2": "last",
    }
    for name in ("entry", "t1", "f1", "mid", "t2", "f2", "last"):
        cfg.add_block(BasicBlock(name))
    for name, target in layout.items():
        if isinstance(target, tuple):
            cfg.block(name).terminator = CondBranch(
                cond=Temp("c"), true_target=target[0], false_target=target[1]
            )
        else:
            cfg.block(name).terminator = Jump(target=target)
    cfg.block("last").terminator = Return(value=Const(0))
    return cfg


def build_doomed_branch() -> CFG:
    """entry -> exit | loop; the loop never terminates and contains a
    branch of its own.  That branch has NO postdominators — but the
    iterative sets computed over the full graph never converge past their
    all-nodes initialisation for the doomed region, so the legacy
    fallback picks an arbitrary (alphabetically first) block."""
    cfg = CFG(name="doomed")
    for name in ("entry", "aexit", "loop", "linner", "lback"):
        cfg.add_block(BasicBlock(name))
    cfg.block("entry").terminator = CondBranch(
        cond=Temp("c"), true_target="aexit", false_target="loop"
    )
    cfg.block("aexit").terminator = Return(value=Const(0))
    cfg.block("loop").terminator = CondBranch(
        cond=Temp("d"), true_target="linner", false_target="lback"
    )
    cfg.block("linner").terminator = Jump(target="lback")
    cfg.block("lback").terminator = Jump(target="loop")
    return cfg


class TestPostdominatorTree:
    def test_immediate_not_farthest(self):
        cfg = build_double_diamond()
        tree = postdominator_tree(cfg)
        assert tree["entry"] == "mid"
        assert tree["mid"] == "last"
        assert tree["t1"] == "mid"
        assert tree["last"] is None
        # Regression: the legacy selection returned the farthest
        # postdominator, silently moving the convergence point downstream.
        assert legacy_immediate_postdominator(cfg, "entry") == "last"
        assert immediate_postdominator(cfg, "entry") == "mid"

    def test_doomed_branch_has_no_convergence(self):
        cfg = build_doomed_branch()
        tree = postdominator_tree(cfg)
        assert tree["loop"] is None
        assert tree["linner"] is None
        # Regression: the legacy fallback invented a convergence point for
        # the in-loop branch — a block that does not postdominate it.
        legacy = legacy_immediate_postdominator(cfg, "loop")
        assert legacy is not None
        pdom_restricted = postdominator_tree(cfg)
        assert pdom_restricted["loop"] is None  # nothing postdominates it

    def test_vcfg_convergence_uses_the_tree(self):
        cfg = build_double_diamond()
        vcfg = build_vcfg(cfg, SpeculationConfig(depth_miss=8, depth_hit=4))
        by_branch = {s.branch_block: s for s in vcfg.scenarios}
        assert by_branch["entry"].convergence_block == "mid"
        assert by_branch["mid"].convergence_block == "last"

    def test_doomed_vcfg_never_converges(self):
        cfg = build_doomed_branch()
        vcfg = build_vcfg(cfg, SpeculationConfig(depth_miss=8, depth_hit=4))
        by_branch = {s.branch_block: s for s in vcfg.scenarios}
        assert by_branch["loop"].convergence_block is None


# ----------------------------------------------------------------------
# O(1) scenario lookup and slot-placement indices
# ----------------------------------------------------------------------
class TestScenarioIndices:
    def test_scenario_lookup_tracks_mutation(self, quantl_program):
        import dataclasses

        vcfg = build_vcfg(quantl_program.cfg, SpeculationConfig.paper_default())
        first = vcfg.scenario(0)
        assert first.color == 0
        appended = dataclasses.replace(first, color=9999)
        vcfg.scenarios.append(appended)
        assert vcfg.scenario(9999) is appended  # append detected lazily
        with pytest.raises(KeyError):
            vcfg.scenario(123456)
        assert vcfg.scenarios_at(first.branch_block)
        # Non-append mutations require the explicit invalidation contract.
        replaced = dataclasses.replace(vcfg.scenario(0), convergence_block=None)
        vcfg.scenarios = [replaced] + list(vcfg.scenarios[1:-1])
        vcfg.invalidate_indices()
        assert vcfg.scenario(0) is replaced
        with pytest.raises(KeyError):
            vcfg.scenario(9999)

    def test_fixpoint_slots_stay_within_placement_indices(self, bench_cache):
        """Every slot the fixpoint actually materialises lives at a block
        the precomputed window/resume indices predicted."""
        program = compile_source(
            build_client_source(crypto_kernel("des", 64, 64), 2880)
        )
        engine = SpeculativeCacheAnalysis(program, cache_config=bench_cache)
        fixpoint = engine.solve()
        observed = 0
        for block, slots in fixpoint.speculative.items():
            window_colors, resume_colors = engine.possible_slot_colors(block)
            for slot, state in slots.items():
                if getattr(state, "is_bottom", False):
                    continue
                observed += 1
                if slot[0] == "window":
                    assert slot[1] in window_colors, (block, slot)
                else:
                    assert slot[1] in resume_colors, (block, slot)
        assert observed, "expected live speculative slots in the des harness"
