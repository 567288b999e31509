"""Tests for the sparse multi-color engine rebuild: differential equality
against the dense block schedule (:class:`DenseReference`), soundness of
widening against the exact fixpoint (:class:`ExactReference`), the
heap-based window construction, the postdominator-tree convergence fix,
and the precomputed slot-placement indices."""

from __future__ import annotations

import random

import pytest

import graph_reference
from repro import compile_source
from repro.analysis.multicolor import WIDENING_DELAY, SpeculativeCacheAnalysis
from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import wcet_benchmark_source
from repro.cache.config import CacheConfig
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.dominators import VIRTUAL_EXIT, immediate_postdominator, postdominator_tree
from repro.engine.worklist import WideningPolicy
from repro.ir.instructions import CondBranch, Const, Jump, Return, Temp
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.speculation.vcfg import build_vcfg, compute_window

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

    def _process_block_sparse(self, name, pending, normal, speculative, mark):
        pending = {None, *speculative[name]}
        return super()._process_block_sparse(name, pending, normal, speculative, mark)


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
# Widened fixpoint vs the exact one
# ----------------------------------------------------------------------
class ExactReference(SpeculativeCacheAnalysis):
    """The exact (least) fixpoint: no widening point, so the pass iterates
    until nothing changes.  It terminates because the abstract cache
    lattices are finite."""

    def _widening_policy(self):
        return WideningPolicy(points=frozenset(), delay=WIDENING_DELAY)


def must_hits(result) -> dict:
    """``{site: must_hit}`` over a result's classifications."""
    return {
        (c.block, c.instruction_index, c.speculative, c.scenario_color): c.must_hit
        for c in result.classifications
    }


class TestWideningIsSound:
    """Widening may lose precision but never invents a guaranteed hit:
    every must-hit of the engine's widened fixpoint is a must-hit of the
    exact one."""

    def test_widened_adpcm_keeps_only_exact_must_hits(self, bench_cache):
        program = compile_source(wcet_benchmark_source("adpcm"))
        widened = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
        exact = ExactReference(program, cache_config=bench_cache).run()
        assert widened.widenings > 0, "adpcm stopped widening; pick another kernel"
        assert exact.widenings == 0
        widened_hits, exact_hits = must_hits(widened), must_hits(exact)
        assert set(widened_hits) == set(exact_hits)
        assert all(exact_hits[site] for site, hit in widened_hits.items() if hit)

    def test_widened_random_programs_keep_only_exact_must_hits(
        self, random_programs, bench_cache
    ):
        """At the 64-line cache the random programs' breaking loops make
        the engine widen.  The exact fixpoint reaches no site the widened
        one does not, and keeps every must-hit of the sites they share."""
        widenings = 0
        for program in random_programs:
            widened = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
            exact = ExactReference(program, cache_config=bench_cache).run()
            widenings += widened.widenings
            assert exact.widenings == 0
            widened_hits, exact_hits = must_hits(widened), must_hits(exact)
            assert set(exact_hits) <= set(widened_hits)
            assert all(hit for site, hit in exact_hits.items() if widened_hits[site])
        assert widenings > 0


#: Programs without a conditional branch after compilation: straight-line
#: code, and a loop the front end unrolls completely.
BRANCH_FREE = {
    "straight_line": (
        "char a0[64]; char a1[64]; char a2[64]; char sbox[256]; secret int key;\n"
        "int main() { a0[0]; a1[32]; a0[0]; sbox[key]; a2[0]; a1[0]; return 0; }\n"
    ),
    "unrolled_loop": (
        "char a0[64]; char a1[256]; char sbox[256]; secret int key;\n"
        "int main() { reg int i;\n"
        "  for (i = 0; i < 256; i = i + 64) { a1[i]; }\n"
        "  a0[0]; sbox[key]; return 0; }\n"
    ),
}


class TestWithoutScenarios:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("name", sorted(BRANCH_FREE))
    def test_branch_free_program_reaches_the_baseline_fixpoint(self, name, geometry):
        """With no branch there is nothing to mispredict: the engine
        builds no scenario and its fixpoint is the baseline analysis's."""
        from repro.analysis import analyze_baseline

        program = compile_source(BRANCH_FREE[name])
        cache = GEOMETRIES[geometry]
        engine = SpeculativeCacheAnalysis(program, cache_config=cache)
        result = engine.run()
        baseline = analyze_baseline(program, cache_config=cache)
        assert engine.vcfg.scenarios == []
        assert result.num_speculative_branches == 0
        assert result.num_virtual_edges == 0
        assert live_slots(engine.last_fixpoint) == {}
        assert result.entry_states == baseline.entry_states
        assert result.classifications == baseline.classifications


# ----------------------------------------------------------------------
# Heap-based compute_window
# ----------------------------------------------------------------------
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
                assert compute_window(cfg, start, depth) == graph_reference.compute_window(
                    cfg, start, depth
                )

    def test_window_equality_on_random_programs(self, random_programs):
        for program in random_programs:
            cfg = program.cfg
            for start in cfg.reachable_blocks():
                for depth in (0, 7, 64):
                    assert compute_window(cfg, start, depth) == (
                        graph_reference.compute_window(cfg, start, depth)
                    )


# ----------------------------------------------------------------------
# Postdominator-tree convergence fix
# ----------------------------------------------------------------------
def legacy_immediate_postdominator(cfg, block: str) -> str | None:
    """The pre-fix selection: an inverted chain test (which favours the
    postdominator *nearest the exit*) plus an arbitrary sorted fallback,
    over the set-based postdominators of the whole graph."""
    pdom = graph_reference.postdominators(cfg)
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
