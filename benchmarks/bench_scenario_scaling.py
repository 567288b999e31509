"""Scenario-count scaling of the multi-color engine.

The multi-color lifting exists so that *all* speculation scenarios are
analysed in one pass — which only pays off if the per-visit cost does not
itself grow with the scenario count.  This benchmark sweeps synthetic
straight-line kernels with 8 → 256 data-dependent branches (16 → 512
scenarios, see :func:`repro.bench.programs.branchy_kernel_source`) and
times three schedulers on each:

* **pre-PR** — a faithful reconstruction of the engine before the sparse
  rebuild: dense per-visit re-transfer of every slot at the block, the
  O(#scenarios) linear ``vcfg.scenario(color)`` scan on every slot visit,
  the sort-per-pop ``compute_window``, and the inverted
  farthest-postdominator convergence points (resume slots survived to the
  last join instead of the branch's merge point);
* **dense** — the dense block schedule (:class:`DenseSchedule`, the
  engine pinned to whole-block pops with every slot marked dirty on
  every pop): same per-visit re-transfer, but with the O(1) lookups and
  the corrected convergence points;
* **sparse** — the default delta-driven engine, which on these loop-free
  kernels pops (block, slot) nodes in dependency order and transfers
  each live slot once.

The schedules differ, but on these loop-free kernels, where widening
never fires, they compute the same unique least fixpoint: entry states
and classifications are asserted bit-identical between the dense
schedule and the sparse engine on every size.  So that the comparison
stays one between schedules, every size also checks that the dense run
kept its schedule (:func:`check_dense_schedule`): it pops more often
than the sparse engine, and each pop transfers every slot at its block.
In full mode the 128-branch kernel must show the sparse engine at least
5x faster than the pre-PR reconstruction.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenario_scaling.py [--smoke]

or under pytest (explicit path, as for all benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenario_scaling.py -s
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.programs import branchy_kernel_source
from repro.cache.config import CacheConfig
from repro.frontend import compile_source
from repro.ir.graph import VIRTUAL_EXIT
from repro.ir.instructions import Return
from repro.speculation.config import SpeculationConfig

#: Branch counts swept in full mode.  The pre-PR reconstruction is
#: quadratic-ish in the branch count, so it is only timed up to
#: MAX_REFERENCE_BRANCHES; the sparse engine runs the whole sweep.
FULL_SIZES = (8, 16, 32, 64, 128, 256)
SMOKE_SIZES = (8, 16)
MAX_REFERENCE_BRANCHES = 128

#: Small states (4-line cache) and a medium window keep a single transfer
#: cheap, so the sweep isolates *scheduling* cost rather than abstract-
#: domain cost; the windows still overlap ~10 diamonds, which is what
#: populates the blocks with many concurrent slots.
BENCH_CACHE = CacheConfig(num_lines=4, line_size=64)
BENCH_SPECULATION = SpeculationConfig(depth_miss=64, depth_hit=16)

#: Required sparse-over-pre-PR speedup on the 128-branch kernel.
REQUIRED_SPEEDUP_AT_128 = 5.0


def _legacy_postdominators(cfg) -> dict[str, set[str]]:
    """The pre-PR postdominator sets: iterative set intersection over the
    whole reachable graph plus the virtual exit."""
    nodes = cfg.reachable_blocks()
    successors = {
        node: list(cfg.blocks[node].terminator.targets()) for node in nodes
    }
    for node in nodes:
        if isinstance(cfg.blocks[node].terminator, Return):
            successors[node].append(VIRTUAL_EXIT)
    all_nodes = set(nodes) | {VIRTUAL_EXIT}
    pdom = {node: set(all_nodes) for node in nodes}
    pdom[VIRTUAL_EXIT] = {VIRTUAL_EXIT}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            new = set(all_nodes)
            for successor in successors[node]:
                new &= pdom[successor]
            new.add(node)
            if new != pdom[node]:
                pdom[node] = new
                changed = True
    return pdom


def _legacy_farthest_postdominator(cfg, pdom, block):
    """The pre-PR convergence-point selection (inverted chain test plus the
    ``sorted(...)[0]`` fallback): picks the postdominator *nearest the
    exit*, not the branch's merge point."""
    candidates = pdom.get(block, set()) - {block, VIRTUAL_EXIT}
    if not candidates:
        return None
    for candidate in candidates:
        if all(candidate in pdom[other] for other in candidates if other != candidate):
            return candidate
    return sorted(candidates)[0]


class DenseSchedule(SpeculativeCacheAnalysis):
    """The dense block schedule: every pass pops whole blocks, and every pop
    re-transfers the normal state and every slot at the block, whatever
    changed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Slots the pops were handed.  A pop transfers every slot at its
        #: block, so the pass's slot transfers must equal this.
        self.slots_offered = 0

    def _block_granular(self, policy):
        return True

    def _extend_pending(self, block, pending, slots):
        self.slots_offered += len(slots)
        return {None, *slots}


class PrePRReference(DenseSchedule):
    """The engine as it behaved before the sparse rebuild (see module doc)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pdom = _legacy_postdominators(self.cfg)
        self.vcfg.scenarios = [
            dataclasses.replace(
                scenario,
                convergence_block=_legacy_farthest_postdominator(
                    self.cfg, pdom, scenario.branch_block
                ),
            )
            for scenario in self.vcfg.scenarios
        ]
        self.vcfg.invalidate_indices()
        self._index_scenarios()

    def _linear_scenario_scan(self, color):
        for scenario in self.vcfg.scenarios:
            if scenario.color == color:
                return scenario
        raise KeyError(color)

    def _extend_pending(self, block, pending, slots):
        # The dense schedule transfers every slot at the block.
        for slot in slots:
            self._linear_scenario_scan(slot[1])
        return super()._extend_pending(block, pending, slots)


def _timed(factory):
    started = time.perf_counter()
    analysis = factory()
    result = analysis.run()
    return time.perf_counter() - started, analysis, result


def check_dense_schedule(engine: DenseSchedule, sparse_pops: int, num_branches: int) -> None:
    """Fail unless ``engine``'s finished run kept the dense schedule: it
    popped whole blocks, which on these kernels takes more pops than the
    node schedule's ``sparse_pops``, and every pop transferred every slot
    at its block."""
    assert engine.last_fixpoint.iterations > sparse_pops, (
        f"the dense schedule popped {engine.last_fixpoint.iterations} times at "
        f"{num_branches} branches, no more than the node schedule's {sparse_pops}"
    )
    assert engine._slot_transfers == engine.slots_offered, (
        f"the dense schedule transferred {engine._slot_transfers} slots at "
        f"{num_branches} branches, not the {engine.slots_offered} its pops were handed"
    )


def run_sweep(sizes, time_reference: bool):
    rows = []
    for num_branches in sizes:
        program = compile_source(branchy_kernel_source(num_branches))

        def engine(engine_class=SpeculativeCacheAnalysis):
            return engine_class(
                program, cache_config=BENCH_CACHE, speculation=BENCH_SPECULATION
            )

        sparse_time, _, sparse = _timed(engine)
        dense_time, dense_engine, dense = _timed(lambda: engine(DenseSchedule))
        check_dense_schedule(dense_engine, sparse.iterations, num_branches)
        assert dense.classifications == sparse.classifications, (
            f"sparse/dense divergence at {num_branches} branches"
        )
        assert dense.entry_states == sparse.entry_states, (
            f"sparse/dense fixpoint divergence at {num_branches} branches"
        )
        rows.append(
            {
                "branches": num_branches,
                "scenarios": 2 * num_branches,
                "pre_pr": (
                    _timed(lambda: engine(PrePRReference))[0]
                    if time_reference and num_branches <= MAX_REFERENCE_BRANCHES
                    else None
                ),
                "dense": dense_time,
                "sparse": sparse_time,
                "iterations": sparse.iterations,
            }
        )
    return rows


def report(rows):
    print(
        f"{'branches':>8} {'scenarios':>9} {'pre-PR':>10} {'dense':>10} "
        f"{'sparse':>10} {'pre-PR/sparse':>14}"
    )
    for row in rows:
        pre = "-" if row["pre_pr"] is None else f"{row['pre_pr'] * 1000:8.1f}ms"
        ratio = (
            "-"
            if row["pre_pr"] is None
            else f"{row['pre_pr'] / row['sparse']:12.1f}x"
        )
        print(
            f"{row['branches']:>8} {row['scenarios']:>9} {pre:>10} "
            f"{row['dense'] * 1000:8.1f}ms {row['sparse'] * 1000:8.1f}ms "
            f"{ratio:>14}"
        )


def _maybe_write_json(args, rows, speedups, elapsed) -> None:
    if not args.json:
        return
    import benchlib

    path = benchlib.write_bench_json(
        "scenario_scaling",
        params={"smoke": args.smoke},
        rows=rows,
        speedups=speedups,
        wall_seconds=elapsed,
    )
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="8/16 branches, identity checks only (CI-sized)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_scenario_scaling.json (see benchlib)")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    started = time.perf_counter()
    rows = run_sweep(sizes, time_reference=not args.smoke)
    elapsed = time.perf_counter() - started
    report(rows)
    print(f"\n{len(rows)} kernel sizes analysed in {elapsed:.2f}s")
    if args.smoke:
        print("OK (smoke): dense schedule kept, sparse and dense results bit-identical")
        _maybe_write_json(args, rows, {}, elapsed)
        return 0
    at_128 = next(row for row in rows if row["branches"] == 128)
    speedup = at_128["pre_pr"] / at_128["sparse"]
    assert speedup >= REQUIRED_SPEEDUP_AT_128, (
        f"sparse engine only {speedup:.1f}x faster than the pre-PR engine "
        f"at 128 branches (required: {REQUIRED_SPEEDUP_AT_128}x)"
    )
    print(
        f"OK: sparse engine {speedup:.1f}x faster than the pre-PR engine on the "
        f"128-branch kernel (>= {REQUIRED_SPEEDUP_AT_128}x), classifications bit-identical"
    )
    _maybe_write_json(args, rows, {"sparse_over_pre_pr_at_128": speedup}, elapsed)
    return 0


def test_scenario_scaling_smoke():
    """Pytest entry point: the smoke-sized sweep with identity checks."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
