"""The lifted worklist engine with per-color speculative states
(Algorithms 2 and 3 of the paper).

Every basic block ``n`` carries a *normal* abstract state ``S[n]`` plus a
dictionary of *speculative* states ``SS[n][slot]``.  Slots are the
engine's realisation of the paper's colors:

* ``("window", c)`` — the cache state while scenario ``c``'s mispredicted
  branch is being speculatively executed (between ``vn_start`` and the
  rollback);
* ``("resume", c)`` or ``("resume", c, origin)`` — the cache state after
  the rollback, while the correct branch executes, carried until the
  conversion point (``vn_stop``).  Collapsing strategies (Figures 6c/6d)
  use a single resume slot per color; non-collapsing ones (6a/6b) keep one
  per rollback block.

The propagation rules correspond one-to-one to the virtual control-flow
edges of Section 5.1:

1. *Injection* (``n — vn_start`` and ``vn_start — n``): when a branch
   block is processed, its post-transfer normal state is copied into the
   window slot of each of its scenarios at the mispredicted target.
2. *Window propagation* (``n — n``): window slots flow along ordinary CFG
   edges between blocks of the active speculative window, with the block
   transfer truncated to the window's instruction allowance.
3. *Rollback* (``n — vn_stop``): each window block contributes the join of
   all its prefix states to the correct branch — either directly into the
   normal state (merge-at-rollback) or into a resume slot.
4. *Conversion* (``vn_stop — n``): resume slots flowing into the
   scenario's convergence block are joined into the normal state there and
   stop propagating.

The sparse engine and its schedulers
------------------------------------

There is one engine, delta-driven: a pop re-transfers only the states
(``None`` for S, or slots) whose inputs changed since they were last
transferred.  The pass queues *nodes* on a heap, each keyed by its
schedule priority (``rank`` is a block's reverse-postorder position,
``β`` the branch block of a slot's color):

* S at block ``b`` is ``(rank[b], 0, rank[b])``;
* the window slots of ``β``'s colors at ``b`` are ``(rank[β], 1, rank[b])``,
  and their resume slots ``(rank[β], 2, rank[b])``.

A map from each queued key to the states marked under it is the whole
dirty bookkeeping, and the heap's only deduplication: a key is pushed
when the first state is marked under it.  A pop takes its key's marked
set, transfers those slots in slot-creation order (each slot's position
in its block's slot dict is kept from its creation on), and collects the
deliveries as ``(target, slot, value)`` tuples (``slot`` None for S),
which are joined into their targets after the pop's transfers.

One loop does all of that (:meth:`SpeculativeCacheAnalysis._run_sparse_pass`),
so that a slot transfer costs little more than its domain work: the
lookups a transfer needs (each color's scenario and rollback target, the
chooser's windows in force, the access table, the records) are taken
once per pass, and a window block's record is walked in place.  The
generic driver of :mod:`repro.engine.worklist` serves the plain solvers
only.  A subclass may add to what a pop transfers, never take from it
(:meth:`SpeculativeCacheAnalysis._extend_pending`);
``benchmarks/bench_scenario_scaling.py`` forces the dense block schedule
below that way.

A branch's windows are thus drained, and all their rollbacks delivered,
before the correct target's S is consumed.  On an acyclic CFG every
propagation rule goes from a smaller key to a larger one.  S, window and
resume propagation follow CFG edges, which raise the block's rank.
Injection goes from S at ``β`` to ``β``'s window slots, which share its
rank and have a larger middle component.  Rollback goes to ``β``'s
resume slots or to S at the correct target, and conversion to S at the
convergence block; both blocks lie downstream of ``β``.  Pops therefore
come in strictly increasing key order, so each node is popped at most
once, after all its inputs are final: every live slot is transferred
exactly once, and each window is chosen (when ``β``'s S is popped) on
the branch's final state, before any of its slots exists.

A pass that can widen (``policy.points`` non-empty: a loop survived
unrolling) is *block-granular* instead
(:meth:`SpeculativeCacheAnalysis._block_granular`): all of a block's
nodes share the one key ``(rank[b],)``, each pop transfers everything
marked at the block, and widening fires on per-block visit counts.  That
is the *dense* schedule — every visit re-transfers S and every slot at
the block — by construction: a delivery whose inputs did not change
re-joins a value already below the target state, and a window choice on
an unchanged S chooses the same window again, so skipping either
changes neither the states nor the set of blocks re-enqueued.  Where
the engine widens, results and pop counts are therefore those of the
dense block schedule.  Warm passes never widen, so they always pop
nodes.

Where it does not, the least fixpoint is unique, and both schedules are
chaotic iterations of the same monotone equations that reach it: the
same normal and slot states, classifications and window choices (a
must-hit is only ever lost as states grow, so the window the block
schedule ends with is the one chosen on the final state).  Only the pop
counts differ.  The tests keep the drain this one replaced, forced onto
the dense block schedule, as the differential oracle
(``tests/drain_reference.py``).

The engine is driven two ways, both through one sparse pass
(:meth:`SpeculativeCacheAnalysis._run_sparse_pass`):

* **cold** (:meth:`SpeculativeCacheAnalysis._solve_sparse`) — over all
  scenarios from the entry state;
* **warm** (:meth:`SpeculativeCacheAnalysis._solve_warm`) — seeded with
  a prior run's states, draining only the region an edit affects.

Classification from the last transfer
-------------------------------------

The verdicts are read off the fixpoint's own walks, not off a second
walk after it.  The transfer of S at a block and the transfer of a
window slot (the walk that also joins the rollback prefixes) record
each access site's must-hit and secret-dependence flags on the state the
site executes in, and the pass keeps each node's last record;
:meth:`SpeculativeCacheAnalysis._classify` assembles the classifications
from them.  That is exact on the node schedule and the block-granular
schedule alike, because every change to a node's input marks the node
again: a join that grows its state, a widening, and a window that
grows, which re-marks its slot at every block of the old window.  So a
node's last transfer ran on its final state and under its final window
limit.  (Windows only grow once chosen, and no slot of a color exists
before its first choice, so no record outlives its window.)  Only where
the classified state is not one the pass transferred is there a walk:
S joined with the resume slots that reach its block, and, in a warm
pass, a node the drain never transferred, which first tries the
predecessor's retained classifications.

The S transfer, record included, comes from the access table's memo of
committed-path transfers when another analysis of the program (its
baseline, or one under another configuration) already made it from an
equal state (:class:`~repro.analysis.transfer.CommittedTransfers`): the
same value a walk would return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Mapping

from repro.analysis.depth import DepthChooser
from repro.analysis.result import AccessClassification, CacheAnalysisResult
from repro.analysis.transfer import (
    CommittedTransfers,
    SiteFlags,
    access_table,
    classify_block,
    new_bottom_state,
    new_entry_state,
    record_mismatch,
    site_classifications,
    site_flags,
    transfer_block,
)
from repro.cache.config import CacheConfig
from repro.engine.worklist import WideningPolicy
from repro.errors import AnalysisError
from repro.frontend import CompiledProgram
from repro.ir.cfg import CFG, diff_cfgs
from repro.ir.graph import GraphIndex
from repro.ir.memory import AccessKind
from repro.obs import current_reporter, metrics, publish_progress, span
from repro.obs.progress import POP_PUBLISH_INTERVAL
from repro.speculation.config import SpeculationConfig
from repro.speculation.vcfg import (
    SpeculationScenario,
    VCFGBaseline,
    build_vcfg,
    build_vcfg_incremental,
)

#: A speculative-state slot key; see the module docstring.
SlotKey = tuple

#: Number of visits to a loop header before widening is applied to S.
WIDENING_DELAY = 3

#: Hard bound on worklist pops (defensive; the lattice is finite so the
#: computation always terminates, but a bug in a transfer function should
#: surface as an error rather than an endless loop).
MAX_VISITS = 5_000_000


@dataclass
class SpeculativeFixpoint:
    """Raw fixpoint output of the engine."""

    normal: dict[str, object] = field(default_factory=dict)
    speculative: dict[str, dict[SlotKey, object]] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0


@dataclass(eq=False)
class WarmStartData:
    """A retained prior fixpoint, ready to seed a warm solve.

    What an :class:`~repro.engine.incremental.AnalysisSnapshot` keeps of a
    finished run: its live states (immutable values, shared with the run
    that produced them), scenarios, depth-chooser decisions and
    classifications, all in the *old* program's terms (old scenario
    colors, old block set) — :meth:`SpeculativeCacheAnalysis._plan_warm`
    maps them onto the edited program.  It also keeps the analysed CFG
    and the graph index the run read, and fingerprints that CFG on first
    use: a run that never seeds a warm start never hashes a block.
    """

    #: The analysed CFG and the graph index the run read.  ``CFG`` is a
    #: mutable container, so the CFG describes the analysed graph only
    #: while ``cfg.graph()`` still returns ``graph`` (see :attr:`stale`).
    cfg: CFG
    graph: GraphIndex
    #: The predecessor's speculation scenarios (old colors).
    scenarios: tuple[SpeculationScenario, ...]
    #: The predecessor fixpoint's normal states per block.
    normal: dict[str, object]
    #: The predecessor fixpoint's speculative slots per block (old colors).
    slots: dict[str, dict[SlotKey, object]]
    #: Depth of each old color's active window at the end of the prior run.
    chooser_active_depths: dict[int, int]
    #: Old colors whose window choice was locked to the long window.
    chooser_locked: frozenset[int]
    #: The predecessor run's classifications, for per-block reuse where
    #: a warm drain leaves a node untransferred
    #: (:class:`_RetainedClassifications`).
    classifications: tuple[AccessClassification, ...]
    #: ``(block fingerprints, block line signatures)``, taken on first use.
    _content: tuple[dict[str, str], dict[str, str]] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def stale(self) -> bool:
        """Whether the CFG was edited after the run and before anything
        fingerprinted it: the retained states then describe a graph that
        can no longer be hashed, and only a cold run is exact."""
        return self._content is None and self.cfg.graph() is not self.graph

    def _fingerprinted(self) -> tuple[dict[str, str], dict[str, str]]:
        if self._content is None:
            if self.stale:
                raise ValueError(
                    f"the CFG of {self.cfg.name!r} was edited after its "
                    "analysis; its retained states no longer describe it"
                )
            self._content = (
                self.cfg.block_fingerprints(),
                self.cfg.block_line_signatures(),
            )
        return self._content

    @property
    def block_fingerprints(self) -> dict[str, str]:
        """``{block name: content fingerprint}`` of the analysed CFG."""
        return self._fingerprinted()[0]

    @property
    def block_line_signatures(self) -> dict[str, str]:
        """Per-block source-line signatures of the analysed CFG.
        Classifications embed the source lines of the accesses they
        report, so reuse additionally requires the block's lines to match
        (content fingerprints are deliberately line-insensitive)."""
        return self._fingerprinted()[1]

    @property
    def old_successors(self) -> Mapping[str, tuple[str, ...]]:
        """Successors in the analysed CFG (the edited CFG cannot tell
        where removed or rewritten blocks used to deliver)."""
        return self.graph.successors


@dataclass
class _WarmPlan:
    """The affected-region computation for one warm solve."""

    warm: WarmStartData
    #: Blocks whose states must be recomputed from bottom.
    affected: set[str]
    #: ``{old color: new scenario}`` for scenarios whose structure is
    #: unchanged *and* whose branch block is outside the affected region —
    #: only these have their slots and chooser decisions seeded.
    stable: dict[int, SpeculationScenario]
    #: Branch blocks that must re-run injection even though their own
    #: normal state is untouched: they carry scenarios being rebuilt from
    #: scratch (unstable, or demoted from stable), whose slots can only be
    #: repopulated by a fresh injection.
    force_branches: set[str]


class SpeculativeCacheAnalysis:
    """The lifted analysis engine."""

    def __init__(
        self,
        program: CompiledProgram,
        cache_config: CacheConfig | None = None,
        speculation: SpeculationConfig | None = None,
        warm_start: WarmStartData | None = None,
    ):
        self.program = program
        self.cfg = program.cfg
        self.layout = program.layout
        self.cache_config = cache_config or CacheConfig.paper_default()
        self.speculation = speculation or SpeculationConfig.paper_default()
        self.warm_start = warm_start
        #: Reuse counters of the last warm solve (or the fallback reason);
        #: None until solve() runs with a warm_start.
        self.warm_info: dict | None = None
        #: The raw fixpoint of the last run() — what a snapshot retains.
        self.last_fixpoint: SpeculativeFixpoint | None = None
        #: The warm plan of the last solve, when one was used (drives
        #: classification reuse in run()).
        self._warm_plan: _WarmPlan | None = None
        if warm_start is not None:
            self.vcfg, self._vcfg_reuse = build_vcfg_incremental(
                self.cfg,
                self.speculation,
                VCFGBaseline(
                    block_fingerprints=warm_start.block_fingerprints,
                    scenarios=warm_start.scenarios,
                ),
            )
        else:
            self.vcfg = build_vcfg(self.cfg, self.speculation)
            self._vcfg_reuse = None
        self.table = access_table(self.cfg, self.layout)
        #: S transfers, served from the table's memo of committed-path
        #: transfers (shared with every other analysis of the program).
        self._committed = CommittedTransfers(self.table)
        self.chooser = DepthChooser(self.speculation, self.layout)
        self._use_shadow = self.speculation.use_shadow_state
        #: Dirty-slot re-transfers performed by the sparse scheduler
        #: (telemetry only; published to the metrics registry by run()).
        self._slot_transfers = 0
        #: ``{(block, None or window slot): site flags}``: the record of
        #: each node's last transfer in the current pass, kept until run()
        #: has assembled the classifications from it.
        self._records: dict[tuple[str, SlotKey | None], tuple[SiteFlags, ...]] = {}
        self._bottom = new_bottom_state(self.cache_config, self._use_shadow, self.layout)
        self._index_scenarios()
        # The graph index, taken once: every graph fact the passes read.
        # The schedule's ranks are its reverse postorder of the reachable
        # blocks, each block's position in it, and each color's branch
        # position (the first component of its slots' node keys).
        self._graph = graph = self.cfg.graph()
        self._successors = graph.successors
        self._rpo = graph.rpo
        self._rank = graph.rank
        self._branch_rank: dict[int, int] = {
            scenario.color: self._rank[scenario.branch_block]
            for scenario in self.vcfg.scenarios
            if scenario.branch_block in self._rank
        }

    # ------------------------------------------------------------------
    # Scenario indices
    # ------------------------------------------------------------------
    def _index_scenarios(self) -> None:
        """Build the per-scenario lookups the passes read: which scenarios
        inject at a block, O(1) color -> scenario lookup, and where each
        color's rollbacks re-enter.  They deliberately *snapshot* the
        vcfg's scenarios rather than going through VirtualCFG's
        (mutation-aware) lookups: the solver needs a stable view for the
        whole run, independent of anything external code does to
        vcfg.scenarios meanwhile."""
        self._scenario_by_color: dict[int, SpeculationScenario] = {
            scenario.color: scenario for scenario in self.vcfg.scenarios
        }
        self._scenarios_by_branch: dict[str, list[SpeculationScenario]] = {}
        for scenario in self.vcfg.scenarios:
            self._scenarios_by_branch.setdefault(scenario.branch_block, []).append(scenario)
        self._rollback: dict[int, tuple[str, SlotKey | None, bool]] = {
            scenario.color: self._rollback_target(scenario)
            for scenario in self.vcfg.scenarios
        }

    def _rollback_target(
        self, scenario: SpeculationScenario
    ) -> tuple[str, SlotKey | None, bool]:
        """Where ``scenario``'s rollbacks re-enter the normal flow (rule 3):
        ``(correct target, slot, per origin)``.  The slot is None when the
        rollback converts into S at once, else the color's resume slot,
        which non-collapsing strategies extend by the rollback block."""
        strategy = self.speculation.merge_strategy
        target = scenario.correct_target
        convergence = scenario.convergence_block
        if (
            not strategy.convert_at_merge_point
            or convergence is None
            or convergence == target
        ):
            return target, None, False
        return target, ("resume", scenario.color), not strategy.collapse_rollback_points

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> CacheAnalysisResult:
        # The public `analysis_time` is derived from the span's duration:
        # the span always times itself, sinks or not.
        publish_progress(
            "fixpoint",
            program=self.cfg.name,
            scenarios=len(self.vcfg.scenarios),
        )
        with span(
            "fixpoint",
            program=self.cfg.name,
            kind="speculative",
            scenarios=len(self.vcfg.scenarios),
        ) as fixpoint_span:
            fixpoint = self.solve()
            self.last_fixpoint = fixpoint
            fixpoint_span.set(
                iterations=fixpoint.iterations, widenings=fixpoint.widenings
            )
            if self.warm_info is not None:
                fixpoint_span.set(warm=self.warm_info.get("used", False))
        registry = metrics()
        registry.counter("fixpoint.pops").inc(fixpoint.iterations)
        registry.counter("fixpoint.widenings").inc(fixpoint.widenings)
        registry.counter("fixpoint.slot_retransfers").inc(self._slot_transfers)
        self._committed.publish()
        scenarios = self.vcfg.scenarios
        result = CacheAnalysisResult(
            program_name=self.cfg.name,
            cache_config=self.cache_config,
            speculation=self.speculation,
            entry_states=dict(fixpoint.normal),
            iterations=fixpoint.iterations,
            widenings=fixpoint.widenings,
            analysis_time=fixpoint_span.duration,
            num_speculative_branches=len(
                {scenario.branch_block for scenario in scenarios}
            ),
            num_virtual_edges=sum(
                scenario.window_miss.num_instructions for scenario in scenarios
            ),
        )
        stats = self.chooser.stats(scenarios)
        result.num_virtual_edges_active = stats.virtual_edges_active
        publish_progress(
            "classify", program=self.cfg.name, iterations=fixpoint.iterations
        )
        with span("classify", program=self.cfg.name) as classify_span:
            result.classifications = self._classify(fixpoint)
            classify_span.set(sites=len(result.classifications))
        self._records = {}
        return result

    # ------------------------------------------------------------------
    # Fixpoint dispatch
    # ------------------------------------------------------------------
    def solve(self) -> SpeculativeFixpoint:
        self._records = {}
        if self.warm_start is not None:
            plan = self._plan_warm(self.warm_start)
            if plan is not None:
                return self._solve_warm(plan)
        return self._solve_sparse()

    def _widening_policy(self) -> WideningPolicy:
        return WideningPolicy(points=self._graph.loop_headers, delay=WIDENING_DELAY)

    def _block_granular(self, policy: WideningPolicy) -> bool:
        """Whether a pass under ``policy`` pops whole blocks rather than
        nodes (see the module docstring).  Widening timing is defined by
        per-block visit counts, so a pass that can widen keeps the block
        schedule."""
        return bool(policy.points)

    # ------------------------------------------------------------------
    # Cold sparse (delta-driven) fixpoint
    # ------------------------------------------------------------------
    def _solve_sparse(self) -> SpeculativeFixpoint:
        cfg = self.cfg
        reachable = self._graph.reachable
        policy = self._widening_policy()

        normal: dict[str, object] = {name: self._bottom for name in reachable}
        normal[cfg.entry] = new_entry_state(self.cache_config, self._use_shadow, self.layout)
        speculative: dict[str, dict[SlotKey, object]] = {name: {} for name in reachable}

        fixpoint = SpeculativeFixpoint(normal=normal, speculative=speculative)
        fixpoint.iterations = self._run_sparse_pass(
            normal=normal,
            speculative=speculative,
            marks=[(cfg.entry, None)],
            policy=policy,
            description="speculative fixpoint",
        )
        fixpoint.widenings = policy.widenings
        return fixpoint

    # ------------------------------------------------------------------
    # Warm-started sparse fixpoint (incremental re-analysis)
    # ------------------------------------------------------------------
    def _plan_warm(self, warm: WarmStartData) -> _WarmPlan | None:
        """Map a retained prior run onto the edited program.

        Computes the *affected region* — the blocks whose fixpoint
        equations (or equation inputs) differ from the predecessor's —
        and the set of scenarios whose slots can be seeded verbatim.
        Every block outside the affected region has an equation system
        identical to the predecessor's and closed under its inputs, so
        its old value *is* the new least-fixpoint value; draining only
        the affected region from bottom therefore reproduces the cold
        lfp bit-for-bit.

        Returns None (cold fallback) when widening could fire: widening
        timing depends on visit counts, which a warm schedule changes.
        Fully-unrolled programs — the default pipeline — have no natural
        loops, so neither a cold nor a warm run ever widens on them.
        """
        if self._widening_policy().points:
            self.warm_info = {"used": False, "fallback": "widening"}
            return None

        cfg = self.cfg
        reachable = self._graph.reachable_set
        diff = diff_cfgs(warm.block_fingerprints, cfg)

        # --- scenario correspondence (structural, by branch identity) ----
        old_by_key = {
            (s.branch_block, s.mispredicted_taken): s for s in warm.scenarios
        }
        stable: dict[int, SpeculationScenario] = {}
        matched_old: set[int] = set()
        unstable_new: list[SpeculationScenario] = []
        for new in self.vcfg.scenarios:
            old = old_by_key.get((new.branch_block, new.mispredicted_taken))
            if (
                old is not None
                and new.branch_block in diff.unchanged
                and old.wrong_target == new.wrong_target
                and old.correct_target == new.correct_target
                and old.cond_refs == new.cond_refs
                and old.window_miss == new.window_miss
                and old.window_hit == new.window_hit
                and old.convergence_block == new.convergence_block
            ):
                stable[old.color] = new
                matched_old.add(old.color)
            else:
                unstable_new.append(new)
        unstable_old = [s for s in warm.scenarios if s.color not in matched_old]

        # --- closure seeds ------------------------------------------------
        seeds: set[str] = set()
        for name in diff.changed | diff.added:
            if name in reachable:
                seeds.add(name)
        # Removed/rewritten blocks used to deliver into their *old*
        # successors; those inputs are gone and must be recomputed.
        for name in diff.changed | diff.removed:
            for successor in warm.old_successors.get(name, ()):
                if successor in reachable:
                    seeds.add(successor)
        # A scenario whose structure changed re-derives every rollback and
        # conversion contribution; the states that absorbed the old ones
        # must be rebuilt.
        for scenario in unstable_new:
            for target in (scenario.correct_target, scenario.convergence_block):
                if target and target in reachable:
                    seeds.add(target)
        for scenario in unstable_old:
            for target in (scenario.correct_target, scenario.convergence_block):
                if target and target in reachable:
                    seeds.add(target)

        # --- forward closure over delivery edges --------------------------
        # Ordinary successor edges cover normal propagation, window
        # propagation, resume propagation, conversion, and injection
        # (a branch's mispredicted target is one of its successors).  The
        # one delivery that jumps is rollback: a window block feeds the
        # scenario's correct target, so an affected block inside a window
        # taints that target.  Stable scenarios share window geometry with
        # their predecessors, and unstable ones had their targets seeded
        # above, so triggers over the *new* scenarios suffice.
        rollback_trigger: dict[str, list[str]] = {}
        for scenario in self.vcfg.scenarios:
            blocks = set(scenario.window_miss.allowed)
            blocks.add(scenario.branch_block)
            blocks.add(scenario.wrong_target)
            for name in blocks:
                rollback_trigger.setdefault(name, []).append(scenario.correct_target)
        affected: set[str] = set()
        stack = list(seeds)
        while stack:
            name = stack.pop()
            if name in affected or name not in reachable:
                continue
            affected.add(name)
            stack.extend(self._successors[name])
            stack.extend(rollback_trigger.get(name, ()))

        # --- demote scenarios whose branch landed in the region -----------
        # The sparse engine's invariant is that a color's window choice is
        # made (at injection) before any of its slots carry state.  Seeded
        # slots of a scenario whose branch state is being recomputed would
        # be processed under the *default* (long) window before the choice
        # reruns, leaking deliveries a cold run never makes — so such
        # scenarios are rebuilt from scratch instead of seeded.
        for old_color, new_scenario in list(stable.items()):
            if new_scenario.branch_block in affected:
                del stable[old_color]

        # Rebuilt scenarios whose branch block sits *outside* the region
        # still need a fresh injection — nothing else repopulates their
        # slots (processing the branch re-delivers its unchanged normal
        # state too, a join no-op everywhere it is already seeded).
        stable_colors = {scenario.color for scenario in stable.values()}
        force_branches = {
            scenario.branch_block
            for scenario in self.vcfg.scenarios
            if scenario.color not in stable_colors
            and scenario.branch_block in reachable
            and scenario.branch_block not in affected
        }

        self.warm_info = {
            "used": True,
            "invalidated_blocks": len(affected),
            "seeded_blocks": len(reachable) - len(affected),
            "stable_scenarios": len(stable),
            "rebuilt_scenarios": len(self.vcfg.scenarios) - len(stable),
            "changed": len(diff.changed),
            "added": len(diff.added),
            "removed": len(diff.removed),
        }
        if self._vcfg_reuse is not None:
            self.warm_info["windows_reused"] = self._vcfg_reuse.get(
                "windows_reused", 0
            )
        return _WarmPlan(
            warm=warm, affected=affected, stable=stable, force_branches=force_branches
        )

    def _solve_warm(self, plan: _WarmPlan) -> SpeculativeFixpoint:
        """Drain the affected region against seeded prior states.

        Produces the same least fixpoint as :meth:`_solve_sparse` from
        scratch (see :meth:`_plan_warm`); only the pop count differs.
        """
        self._warm_plan = plan
        cfg = self.cfg
        warm = plan.warm
        affected = plan.affected
        reachable = self._graph.reachable
        policy = self._widening_policy()  # no points — checked by _plan_warm

        color_map = {
            old_color: scenario.color for old_color, scenario in plan.stable.items()
        }
        seeded_slots = 0
        normal: dict[str, object] = {}
        speculative: dict[str, dict[SlotKey, object]] = {}
        for name in reachable:
            if name in affected or name not in warm.normal:
                normal[name] = self._bottom
            else:
                normal[name] = warm.normal[name]
            slots: dict[SlotKey, object] = {}
            if name not in affected:
                for slot, value in warm.slots.get(name, {}).items():
                    mapped = color_map.get(slot[1])
                    if mapped is None:
                        continue
                    slots[(slot[0], mapped) + tuple(slot[2:])] = value
                    seeded_slots += 1
            speculative[name] = slots
        if cfg.entry in affected:
            normal[cfg.entry] = new_entry_state(self.cache_config, self._use_shadow, self.layout)

        # Seed the chooser for stable scenarios: classification reads the
        # active window of every scenario, including ones the warm drain
        # never re-processes.  Colors the prior run never chose stay
        # unseeded and fall back to the same default a cold run uses.
        self.chooser.import_state(
            warm.chooser_active_depths, warm.chooser_locked, plan.stable
        )

        # Marked frontier: every unaffected block delivering into the
        # region re-sends everything it holds (joins into unaffected
        # targets are no-ops); window slots additionally re-send when
        # their rollback target is affected, because rollback is the one
        # delivery that does not follow a successor edge.
        marks: list[tuple[str, SlotKey | None]] = []
        if cfg.entry in affected:
            marks.append((cfg.entry, None))
        for name in plan.force_branches:
            marks.append((name, None))
        for name in reachable:
            if name in affected:
                continue
            if any(successor in affected for successor in self._successors[name]):
                marks.append((name, None))
                marks.extend((name, slot) for slot in speculative[name])
                continue
            for slot in speculative[name]:
                if slot[0] != "window":
                    continue
                scenario = self._scenario_by_color.get(slot[1])
                if scenario is not None and scenario.correct_target in affected:
                    marks.append((name, slot))

        self.warm_info["seeded_slots"] = seeded_slots
        self.warm_info["frontier_blocks"] = len({name for name, _ in marks})

        fixpoint = SpeculativeFixpoint(normal=normal, speculative=speculative)
        fixpoint.iterations = self._run_sparse_pass(
            normal=normal,
            speculative=speculative,
            marks=marks,
            policy=policy,
            description="warm speculative fixpoint",
        )
        fixpoint.widenings = policy.widenings
        return fixpoint

    def _extend_pending(self, block: str, pending: set, slots: dict) -> set:
        """The states one pop at ``block`` transfers: ``pending``, those
        marked under the popped key (``None`` for S, slot keys), where
        ``slots`` is the block's slot dict.

        The engine's schedules transfer exactly what was marked.  A
        subclass may override this to transfer more, never less: a
        transfer whose input did not change re-delivers values already
        below their targets, so the fixpoint stays the same and only the
        work grows.  That is how ``benchmarks/bench_scenario_scaling.py``
        forces the dense block schedule."""
        return pending

    def _run_sparse_pass(
        self,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        marks: Iterable[tuple[str, SlotKey | None]],
        policy: WideningPolicy,
        description: str,
    ) -> int:
        """Drain one sparse fixpoint from the initial ``marks`` (``(block,
        None)`` for S, ``(block, slot)`` for a slot) to convergence;
        returns the pop count.

        The pass pops a heap of node keys (see the module docstring), or
        of ``(rank,)`` for a whole block when the pass is block-granular.
        ``marked`` maps each queued key to the states marked under it and
        is the only deduplication: a key is pushed when its first state
        is marked.  A pop transfers S, then its live slots in
        slot-creation order, then (when S was transferred at a branch
        block) chooses the branch's windows and injects; it joins the
        deliveries into their targets after all its transfers."""
        rpo = self._rpo
        rank = self._rank
        branch_rank = self._branch_rank
        block_granular = self._block_granular(policy)
        widen_points = policy.points
        bottom = self._bottom
        successors_of = self._successors
        table = self.table
        sites_up_to = table.sites_up_to
        committed = self._committed.record
        records = self._records
        scenario_by_color = self._scenario_by_color
        scenarios_by_branch = self._scenarios_by_branch
        rollback = self._rollback
        chooser = self.chooser
        # The chooser's {color: window in force}, updated in place by
        # choose(); a color not in it still runs its long window.
        active = chooser._active
        extend_pending = self._extend_pending
        secret = AccessKind.SECRET
        max_visits = MAX_VISITS
        visits = dict.fromkeys(self._graph.reachable, 0)
        heap: list[tuple] = []
        marked: dict[tuple, set] = {}
        # {block: {slot: position}}: each slot's position in its block's
        # slot dict, kept from its creation on (the order a pop transfers in).
        born = {
            name: {slot: position for position, slot in enumerate(slots)}
            for name, slots in speculative.items()
        }

        def mark(block: str, slot: SlotKey | None) -> None:
            if block_granular:
                key = (rank[block],)
            elif slot is None:
                position = rank[block]
                key = (position, 0, position)
            else:
                key = (branch_rank[slot[1]], 1 if slot[0] == "window" else 2, rank[block])
            pending = marked.get(key)
            if pending is None:
                marked[key] = {slot}
                heappush(heap, key)
            else:
                pending.add(slot)

        for block, slot in marks:
            mark(block, slot)

        # Streaming progress: throttled to one event per
        # POP_PUBLISH_INTERVAL pops, and only when a reporter is
        # installed — the common (unwatched) case pays nothing per pop.
        reporter = current_reporter()
        publish_every = POP_PUBLISH_INTERVAL if reporter.active else 0
        pops = 0
        transfers = 0

        while heap:
            key = heappop(heap)
            pops += 1
            if pops > max_visits:
                raise AnalysisError(
                    f"{description} did not converge within {max_visits} worklist pops"
                )
            if publish_every and pops % publish_every == 0:
                reporter.publish("fixpoint.pops", pops=pops, pass_name=description)
            name = rpo[key[-1]]
            visits[name] += 1
            slots_in = speculative[name]
            pending = extend_pending(name, marked.pop(key), slots_in)
            successors = successors_of[name]
            # (target, slot or None for S, value), joined after the transfers.
            deliveries: list[tuple[str, SlotKey | None, object]] = []

            # --- normal transfer and propagation (only when S[n] changed) --
            state_in = normal[name]
            normal_marked = None in pending
            if normal_marked:
                state_out, records[(name, None)] = committed(state_in, name)
                for successor in successors:
                    deliveries.append((successor, None, state_out))

            # --- marked speculative slots, in slot-creation order ----------
            # Creation order keeps the delivery order independent of hash
            # randomisation and identical to the dense schedule's relative
            # order.  Slots marked before any state reached them do not
            # exist yet and are skipped, exactly as the dense schedule
            # skips bottom slots.
            live = [slot for slot in pending if slot in slots_in]
            if len(live) > 1:
                live.sort(key=born[name].__getitem__)
            for slot in live:
                slot_state = slots_in[slot]
                if slot_state.is_bottom:
                    continue
                transfers += 1
                color = slot[1]
                if slot[0] == "resume":
                    slot_out = transfer_block(slot_state, table, name)
                    convergence = scenario_by_color[color].convergence_block
                    for successor in successors:
                        # Into the convergence block it is conversion (rule
                        # 4): vn_stop — the speculative state joins the
                        # normal flow and stops being tracked separately.
                        deliveries.append(
                            (successor, None if successor == convergence else slot, slot_out)
                        )
                    continue
                window = active.get(color)
                if window is None:
                    window = scenario_by_color[color].window_miss
                allowed = window.allowed
                limit = allowed.get(name)
                if limit is None:
                    continue
                # The window record, walked in place: each site's flags on
                # the state it executes in, and the join of the states
                # after every prefix of the block, which is what a rollback
                # anywhere inside the block contributes (Section 5.2).
                slot_out = prefix_join = slot_state
                flags = []
                for _, access in sites_up_to(name, limit):
                    flags.append(
                        (slot_out.must_hit_access(access), False)
                        if access.kind is not secret
                        else site_flags(slot_out, access)
                    )
                    slot_out = slot_out.access(access)
                    prefix_join = prefix_join.join(slot_out)
                records[(name, slot)] = tuple(flags)
                # Window propagation (rule 2): only into blocks still
                # inside the window.
                for successor in successors:
                    if successor in allowed:
                        deliveries.append((successor, slot, slot_out))
                # Rollback (rule 3): the join of all prefix states re-enters
                # the normal flow at the correct target.
                target, resume_slot, per_origin = rollback[color]
                if per_origin:
                    resume_slot += (name,)
                deliveries.append((target, resume_slot, prefix_join))

            # --- window choice and scenario injection at branch blocks -----
            # The choice reads only S[n], so it runs when S[n] is
            # transferred: re-running it on an unchanged state (as the dense
            # schedule does on every pop) chooses the same window again.
            if normal_marked:
                for scenario in scenarios_by_branch.get(name, ()):
                    previous_window = chooser.active_window(scenario)
                    window = chooser.choose(scenario, state_in)
                    if window.depth > previous_window.depth:
                        # The window grew (the condition is no longer a
                        # proven hit): re-propagate from every block of the
                        # old window, and mark the scenario's window slot
                        # there so the re-transfer runs against the new
                        # window's limits and successor set.
                        slot = ("window", scenario.color)
                        for block in previous_window.allowed:
                            if block in normal:
                                mark(block, slot)
                    if window.depth <= 0 or not window.contains(scenario.wrong_target):
                        continue
                    deliveries.append(
                        (scenario.wrong_target, ("window", scenario.color), state_out)
                    )

            # --- join every delivery; mark each state that grew ------------
            for target, slot, value in deliveries:
                if slot is None:
                    current = normal.get(target)
                    if current is None:
                        continue
                    joined = current.join(value)
                    if target in widen_points:
                        joined = policy.apply(target, visits[target], current, joined)
                    if joined.leq(current):
                        continue
                    normal[target] = joined
                    position = rank[target]
                    key = (position,) if block_granular else (position, 0, position)
                else:
                    slots = speculative.get(target)
                    if slots is None:
                        continue
                    current = slots.get(slot, bottom)
                    joined = current.join(value)
                    if joined.leq(current):
                        continue
                    if slot not in slots:
                        born[target][slot] = len(slots)
                    slots[slot] = joined
                    key = (
                        (rank[target],)
                        if block_granular
                        else (
                            branch_rank[slot[1]],
                            1 if slot[0] == "window" else 2,
                            rank[target],
                        )
                    )
                pending = marked.get(key)
                if pending is None:
                    marked[key] = {slot}
                    heappush(heap, key)
                else:
                    pending.add(slot)

        self._slot_transfers += transfers
        return pops

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self, fixpoint: SpeculativeFixpoint) -> list[AccessClassification]:
        """The verdicts of every live node, in a fixed order: each
        reachable block's committed accesses, then each scenario's window
        blocks.

        A node's verdicts come from the record of its last transfer (see
        the module docstring).  Where the classified state is not one the
        pass transferred — S joined with the resume slots that reach its
        block, or, in a warm pass, a node the drain left alone — they come
        from the predecessor run where the reuse gate allows
        (:class:`_RetainedClassifications`) and from a fresh walk
        otherwise.  A cold pass transfers every live node, so there a
        missing record is an error, not a reason to walk.
        """
        records = self._records
        table = self.table
        plan = self._warm_plan
        retained = None if plan is None else _RetainedClassifications(self, plan)
        classifications: list[AccessClassification] = []
        for block in self._graph.reachable:
            state = fixpoint.normal[block]
            # Accesses in the correct branch of a mispredicted execution
            # commit with the speculatively polluted cache, so the committed
            # classification must also hold under every *resume* state that
            # reaches the block (window states model squashed instructions
            # only, their misses are the masked "#SpMiss").
            resumes = [
                slot_state
                for slot, slot_state in fixpoint.speculative.get(block, {}).items()
                if slot[0] == "resume" and not getattr(slot_state, "is_bottom", False)
            ]
            if not resumes:
                if getattr(state, "is_bottom", False):
                    continue
                flags = records.get((block, None))
                if flags is not None:
                    classifications.extend(
                        site_classifications(block, table.sites(block), flags)
                    )
                    continue
                if retained is None:
                    raise AnalysisError(
                        f"no transfer of S at {block!r} recorded its classifications"
                    )
            reused = None if retained is None else retained.normal(block)
            if reused is not None:
                classifications.extend(reused)
                continue
            for resume in resumes:
                state = resume if getattr(state, "is_bottom", False) else state.join(resume)
            classifications.extend(classify_block(state, table, block))
        # The window records are most of a pass's records, so their
        # classifications are assembled here as site_classifications
        # would, without a call per record.
        speculative = fixpoint.speculative
        sites_up_to = table.sites_up_to
        append = classifications.append
        new = tuple.__new__
        secret = AccessKind.SECRET
        for scenario in self.vcfg.scenarios:
            color = scenario.color
            slot = ("window", color)
            for block, limit in self.chooser.active_window(scenario).allowed.items():
                state = speculative.get(block, {}).get(slot)
                if state is None or state.is_bottom:
                    continue
                flags = records.get((block, slot))
                if flags is not None:
                    sites = sites_up_to(block, limit)
                    if len(flags) != len(sites):
                        raise record_mismatch(block, flags, sites)
                    for (index, access), (must_hit, secret_dependent) in zip(sites, flags):
                        kind = access.kind
                        append(
                            new(
                                AccessClassification,
                                (
                                    block,
                                    index,
                                    access.ref,
                                    kind,
                                    must_hit,
                                    True,
                                    color,
                                    kind is secret,
                                    secret_dependent,
                                ),
                            )
                        )
                    continue
                if retained is None:
                    raise AnalysisError(
                        f"no transfer of window slot {color} at {block!r} "
                        "recorded its classifications"
                    )
                reused = retained.window(color, block)
                if reused is not None:
                    classifications.extend(reused)
                    continue
                classifications.extend(
                    classify_block(
                        state,
                        table,
                        block,
                        instruction_limit=limit,
                        speculative=True,
                        scenario_color=color,
                    )
                )
        if retained is not None:
            self.warm_info["classifications_reused"] = retained.reused
        return classifications

    def _resume_touched_blocks(self, plan: _WarmPlan) -> set[str]:
        """Blocks whose resume-slot population differs between the prior
        run and this one — where the committed (normal) classification
        cannot be reused even though the block itself is unaffected.

        A resume region is everything reachable from a scenario's correct
        target without entering its convergence block.  Regions of *stable*
        scenarios contribute identically in both runs (their slots are
        seeded verbatim and input-closed).  Regions of rebuilt scenarios
        are walked over the *new* CFG; regions of old scenarios with no
        stable counterpart — including ones whose correct target is no
        longer even reachable, so the affected-region closure never saw
        them — are walked over the *old* successor lists.
        """
        touched: set[str] = set()
        if not self.speculation.merge_strategy.convert_at_merge_point:
            # Rollbacks convert into S immediately: no resume slots exist,
            # and their normal-state contributions are inside the affected
            # closure already.
            return touched

        def walk(scenario: SpeculationScenario, successors) -> None:
            convergence = scenario.convergence_block
            if convergence is None or convergence == scenario.correct_target:
                return
            seen = {scenario.correct_target}
            stack = [scenario.correct_target]
            while stack:
                block = stack.pop()
                touched.add(block)
                for successor in successors(block):
                    if successor != convergence and successor not in seen:
                        seen.add(successor)
                        stack.append(successor)

        stable_new_colors = {s.color for s in plan.stable.values()}
        for scenario in self.vcfg.scenarios:
            if scenario.color not in stable_new_colors:
                walk(scenario, self._successors.__getitem__)
        old_successors = plan.warm.old_successors
        for scenario in plan.warm.scenarios:
            if scenario.color not in plan.stable:
                walk(scenario, lambda name: old_successors.get(name, ()))
        return touched


class _RetainedClassifications:
    """A warm pass's offer of the predecessor run's classifications for
    nodes the edit provably did not touch.

    Reuse is bit-identical to reclassification: a block outside the
    affected region has unchanged content (changed blocks seed the
    region), an identical joined state (normal and stable-scenario resume
    slots are seeded and input-closed; differing resume populations are
    excluded via :meth:`SpeculativeCacheAnalysis._resume_touched_blocks`),
    and — gated by the per-block line signature — identical source lines,
    so ``classify_block`` would emit exactly the retained objects.  The
    same argument covers window classifications of stable scenarios
    (equal windows, equal limits, seeded slots); only the scenario color
    is remapped old→new.
    """

    def __init__(self, analysis: SpeculativeCacheAnalysis, plan: _WarmPlan):
        warm = plan.warm
        self._affected = plan.affected
        self._old_lines = warm.block_line_signatures
        self._new_lines = analysis.cfg.block_line_signatures()
        self._resume_touched = analysis._resume_touched_blocks(plan)
        self._old_color_of = {
            scenario.color: old_color for old_color, scenario in plan.stable.items()
        }
        self._normal: dict[str, list[AccessClassification]] = {}
        self._window: dict[tuple[int, str], list[AccessClassification]] = {}
        for classification in warm.classifications:
            if classification.speculative:
                key = (classification.scenario_color, classification.block)
                self._window.setdefault(key, []).append(classification)
            else:
                self._normal.setdefault(classification.block, []).append(classification)
        #: Classifications handed out so far.
        self.reused = 0

    def _untouched(self, block: str) -> bool:
        return (
            block not in self._affected
            and block in self._old_lines
            and self._old_lines[block] == self._new_lines.get(block)
        )

    def normal(self, block: str) -> list[AccessClassification] | None:
        """The committed classifications of ``block``, or None where the
        gate refuses them."""
        if block in self._resume_touched or not self._untouched(block):
            return None
        retained = self._normal.get(block, [])
        self.reused += len(retained)
        return retained

    def window(self, color: int, block: str) -> list[AccessClassification] | None:
        """The classifications of ``color``'s window at ``block``, or None
        where the gate refuses them (``color`` is not a stable scenario's,
        or the block was touched)."""
        old_color = self._old_color_of.get(color)
        if old_color is None or not self._untouched(block):
            return None
        retained = [
            classification
            if classification.scenario_color == color
            else classification._replace(scenario_color=color)
            for classification in self._window.get((old_color, block), ())
        ]
        self.reused += len(retained)
        return retained
