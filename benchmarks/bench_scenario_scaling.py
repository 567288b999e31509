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
schedule and the sparse engine on every size, and classifications also
for the scenario-sharded scheduler.  In full mode the 128-branch kernel
must show the sparse engine at least 5x faster than the pre-PR
reconstruction.

With ``--backend processes`` the sharded column runs on the process
shard backend instead of the serial in-process scheduler, a serial
sharded run is timed alongside it for comparison, and results are
asserted bit-identical between the two.  In full mode with
``--backend processes`` the 256-branch kernel must additionally show the
process pool at least 2.5x faster than the serial sharded run — skipped
(with a note) on machines with fewer cores than ``--workers``, where the
hardware cannot express the speedup.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenario_scaling.py \
        [--smoke] [--backend processes] [--workers 4]

or under pytest (explicit path, as for all benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenario_scaling.py -s
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import time

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.programs import branchy_kernel_source
from repro.cache.config import CacheConfig
from repro.engine.request import SHARD_BACKENDS
from repro.frontend import compile_source
from repro.ir.dominators import VIRTUAL_EXIT, compute_postdominators
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

#: Required process-pool-over-serial-sharded speedup on the 256-branch
#: kernel (full mode with ``--backend processes``, given enough cores).
REQUIRED_SHARD_SPEEDUP_AT_256 = 2.5


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

    def _block_granular(self, policy):
        return True

    def _process_block_sparse(self, name, pending, normal, speculative, *rest):
        pending = {None, *speculative[name]}
        return super()._process_block_sparse(name, pending, normal, speculative, *rest)


class PrePRReference(DenseSchedule):
    """The engine as it behaved before the sparse rebuild (see module doc)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pdom = compute_postdominators(self.cfg)
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
        self._scenario_by_color = {s.color: s for s in self.vcfg.scenarios}
        self._scenarios_by_branch = {}
        for scenario in self.vcfg.scenarios:
            self._scenarios_by_branch.setdefault(scenario.branch_block, []).append(scenario)

    def _linear_scenario_scan(self, color):
        for scenario in self.vcfg.scenarios:
            if scenario.color == color:
                return scenario
        raise KeyError(color)

    def _process_window_slot(self, name, slot, slot_state, successors, chooser):
        self._linear_scenario_scan(slot[1])
        return super()._process_window_slot(name, slot, slot_state, successors, chooser)

    def _process_resume_slot(self, name, slot, slot_state, successors):
        self._linear_scenario_scan(slot[1])
        return super()._process_resume_slot(name, slot, slot_state, successors)


def _timed(factory):
    started = time.perf_counter()
    result = factory().run()
    return time.perf_counter() - started, result


def run_sweep(sizes, shards: int, time_reference: bool, backend: str = "serial"):
    rows = []
    for num_branches in sizes:
        program = compile_source(branchy_kernel_source(num_branches))

        def engine(engine_class=SpeculativeCacheAnalysis, **kwargs):
            return engine_class(
                program,
                cache_config=BENCH_CACHE,
                speculation=BENCH_SPECULATION,
                **kwargs,
            )

        sparse_time, sparse = _timed(engine)
        dense_time, dense = _timed(lambda: engine(DenseSchedule))
        assert dense.classifications == sparse.classifications, (
            f"sparse/dense divergence at {num_branches} branches"
        )
        assert dense.entry_states == sparse.entry_states, (
            f"sparse/dense fixpoint divergence at {num_branches} branches"
        )
        # The serial sharded scheduler optimises for distribution, not
        # single-thread latency; its redundant outer rounds make it
        # uncompetitive on the largest kernels, so it is swept only up to
        # the reference cut-off.  A parallel backend is the point of the
        # exercise, so it runs the whole sweep, with a serial sharded run
        # timed alongside for the speedup ratio and the identity check.
        sharded_time = sharded_serial_time = None
        run_parallel = backend != "serial"
        run_serial = num_branches <= MAX_REFERENCE_BRANCHES or run_parallel
        if run_serial:
            sharded_serial_time, sharded_serial = _timed(
                lambda: engine(scenario_shards=shards)
            )
            assert sharded_serial.classifications == sparse.classifications, (
                f"sharded divergence at {num_branches} branches "
                "(unexpected: these kernels are loop-free, widening never fires)"
            )
        if run_parallel:
            sharded_time, sharded = _timed(
                lambda: engine(scenario_shards=shards, shard_backend=backend)
            )
            assert sharded.entry_states == sharded_serial.entry_states, (
                f"{backend} sharding diverged from serial sharding "
                f"at {num_branches} branches"
            )
            assert sharded.iterations == sharded_serial.iterations
            assert sharded.classifications == sharded_serial.classifications
        else:
            sharded_time, sharded_serial_time = sharded_serial_time, None
        rows.append(
            {
                "branches": num_branches,
                "scenarios": 2 * num_branches,
                "pre_pr": (
                    _timed(
                        lambda: PrePRReference(
                            program,
                            cache_config=BENCH_CACHE,
                            speculation=BENCH_SPECULATION,
                        )
                    )[0]
                    if time_reference and num_branches <= MAX_REFERENCE_BRANCHES
                    else None
                ),
                "dense": dense_time,
                "sparse": sparse_time,
                "sharded": sharded_time,
                "sharded_serial": sharded_serial_time,
                "iterations": sparse.iterations,
            }
        )
    return rows


def report(rows, shards: int, backend: str):
    sharded_label = (
        f"sharded x{shards}" if backend == "serial" else f"{backend} x{shards}"
    )
    serial_column = "" if backend == "serial" else f" {'serial-shard':>12}"
    print(
        f"{'branches':>8} {'scenarios':>9} {'pre-PR':>10} {'dense':>10} "
        f"{'sparse':>10} {sharded_label:>12}{serial_column} {'pre-PR/sparse':>14}"
    )
    for row in rows:
        pre = "-" if row["pre_pr"] is None else f"{row['pre_pr'] * 1000:8.1f}ms"
        sharded = (
            "-" if row["sharded"] is None else f"{row['sharded'] * 1000:8.1f}ms"
        )
        serial_cell = ""
        if backend != "serial":
            serial_time = row["sharded_serial"]
            serial_cell = (
                f" {'-':>12}"
                if serial_time is None
                else f" {serial_time * 1000:10.1f}ms"
            )
        ratio = (
            "-"
            if row["pre_pr"] is None
            else f"{row['pre_pr'] / row['sparse']:12.1f}x"
        )
        print(
            f"{row['branches']:>8} {row['scenarios']:>9} {pre:>10} "
            f"{row['dense'] * 1000:8.1f}ms {row['sparse'] * 1000:8.1f}ms "
            f"{sharded:>12}{serial_cell} {ratio:>14}"
        )


def _maybe_write_json(args, rows, speedups, elapsed) -> None:
    if not args.json:
        return
    import benchlib

    path = benchlib.write_bench_json(
        "scenario_scaling",
        params={
            "smoke": args.smoke,
            "shards": args.shards,
            "backend": args.backend,
            "workers": args.workers,
        },
        rows=rows,
        speedups=speedups,
        wall_seconds=elapsed,
    )
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="8/16 branches, identity checks only (CI-sized)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the sharded column (default 4)")
    parser.add_argument("--backend", choices=SHARD_BACKENDS, default="serial",
                        help="shard backend for the sharded column")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker cap for parallel backends (default 4; "
                             "sets REPRO_MAX_WORKERS for this run)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_scenario_scaling.json (see benchlib)")
    args = parser.parse_args(argv)
    os.environ["REPRO_MAX_WORKERS"] = str(args.workers)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    started = time.perf_counter()
    rows = run_sweep(
        sizes, args.shards, time_reference=not args.smoke, backend=args.backend
    )
    elapsed = time.perf_counter() - started
    report(rows, args.shards, args.backend)
    print(f"\n{len(rows)} kernel sizes analysed in {elapsed:.2f}s")
    if args.smoke:
        print(
            "OK (smoke): sparse, dense and sharded "
            f"({args.backend}) results bit-identical"
        )
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
    speedups = {"sparse_over_pre_pr_at_128": speedup}
    if args.backend == "processes":
        at_256 = next(row for row in rows if row["branches"] == 256)
        shard_speedup = at_256["sharded_serial"] / at_256["sharded"]
        speedups["processes_over_serial_sharding_at_256"] = shard_speedup
        cores = os.cpu_count() or 1
        if cores < args.workers:
            print(
                f"NOTE: process-pool speedup at 256 branches was "
                f"{shard_speedup:.1f}x; the >= {REQUIRED_SHARD_SPEEDUP_AT_256}x "
                f"assertion is skipped ({cores} cores < {args.workers} workers)"
            )
        else:
            assert shard_speedup >= REQUIRED_SHARD_SPEEDUP_AT_256, (
                f"process pool only {shard_speedup:.1f}x faster than serial "
                f"sharding at 256 branches "
                f"(required: {REQUIRED_SHARD_SPEEDUP_AT_256}x)"
            )
            print(
                f"OK: process pool {shard_speedup:.1f}x faster than serial "
                f"sharding on the 256-branch kernel "
                f"(>= {REQUIRED_SHARD_SPEEDUP_AT_256}x)"
            )
    _maybe_write_json(args, rows, speedups, elapsed)
    return 0


def test_scenario_scaling_smoke():
    """Pytest entry point: the smoke-sized sweep with identity checks."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
