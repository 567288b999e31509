"""Virtual control flow: the augmented CFG of Section 5.1.

For every conditional branch that may be speculatively executed we build
two *speculation scenarios* (the paper's "colors", Section 6.4): one in
which the processor mispredicts the branch as taken and speculatively
executes the true side before rolling back to the false side, and the
symmetric one.

A scenario captures, in one place, everything the lifted worklist
algorithm (Algorithm 2/3) needs:

* the *speculative window* — which blocks, and how many of their leading
  instructions, can execute speculatively within the depth bound.  Two
  windows are precomputed, one for the ``bm`` (condition may miss) bound
  and one for the ``bh`` (condition is a must hit) bound, so the dynamic
  depth-bounding optimisation of Section 6.2 is a constant-time switch;
* the *rollback target* — the entry block of the correct branch, where the
  speculative state re-enters the normal flow after the rollback
  (``vn_stop`` for the merge-at-rollback strategy);
* the *convergence block* — the post-branch merge point at which
  Just-in-Time merging converts the speculative state back into the
  normal state.

In terms of the paper's virtual nodes: injecting the scenario's state at
the branch block is ``vn_start``; the per-window-block rollback edges are
the dashed edges of Figure 6; the conversion at the rollback target or
convergence block is ``vn_stop``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.cache import LRUCache
from repro.ir.cfg import CFG, diff_cfgs
from repro.ir.graph import GraphIndex
from repro.ir.instructions import CondBranch, MemoryRef
from repro.obs import metrics, span
from repro.speculation.config import SpeculationConfig


@dataclass(frozen=True)
class SpeculativeWindow:
    """The region of the CFG that may execute speculatively for one scenario.

    ``allowed`` maps a block name to the number of its leading
    instructions that fit within the depth bound; blocks outside the
    window are absent.
    """

    depth: int
    allowed: dict[str, int] = field(default_factory=dict)

    def contains(self, block: str) -> bool:
        return block in self.allowed

    def allowed_instructions(self, block: str) -> int:
        return self.allowed.get(block, 0)

    @property
    def num_blocks(self) -> int:
        return len(self.allowed)

    @property
    def num_instructions(self) -> int:
        return sum(self.allowed.values())


@dataclass(frozen=True)
class SpeculationScenario:
    """One speculative execution of one branch (one "color")."""

    color: int
    branch_block: str
    mispredicted_taken: bool
    wrong_target: str
    correct_target: str
    cond_refs: tuple[MemoryRef, ...]
    window_miss: SpeculativeWindow
    window_hit: SpeculativeWindow
    convergence_block: str | None

    def window(self, condition_must_hit: bool) -> SpeculativeWindow:
        """Pick the window according to the dynamic depth bound."""
        return self.window_hit if condition_must_hit else self.window_miss

    def describe(self) -> str:
        direction = "taken" if self.mispredicted_taken else "not-taken"
        return (
            f"scenario #{self.color}: branch {self.branch_block} mispredicted {direction}; "
            f"speculates into {self.wrong_target} "
            f"({self.window_miss.num_blocks} blocks / {self.window_miss.num_instructions} instrs at bm, "
            f"{self.window_hit.num_blocks} blocks / {self.window_hit.num_instructions} instrs at bh); "
            f"resumes at {self.correct_target}, converges at {self.convergence_block}"
        )


@dataclass
class VirtualCFG:
    """The CFG together with all its speculation scenarios."""

    cfg: CFG
    config: SpeculationConfig
    scenarios: list[SpeculationScenario] = field(default_factory=list)
    #: Lazily (re)built lookup indices; never compared or printed.  Only
    #: *appends* (how ``build_vcfg`` and tests grow the list) are detected
    #: lazily, via the length; any other mutation — replacing the list or
    #: editing elements in place — must call :meth:`invalidate_indices`.
    #: The contract is deliberately explicit rather than heuristic:
    #: identity-based detection is unsound under allocator address reuse.
    _by_color: dict[int, SpeculationScenario] = field(
        default_factory=dict, repr=False, compare=False
    )
    _by_branch: dict[str, list[SpeculationScenario]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed_count: int = field(default=-1, repr=False, compare=False)

    @property
    def num_speculative_branches(self) -> int:
        """Number of conditional branches that can speculate at all
        (the paper's "#Branch" column counts these)."""
        return len({scenario.branch_block for scenario in self.scenarios})

    @property
    def num_virtual_edges(self) -> int:
        """Total number of rollback (virtual) edges under the ``bm`` bound.

        Counted at instruction granularity: a rollback may occur after any
        speculated instruction, so every instruction inside a scenario's
        window contributes one virtual edge.
        """
        return sum(scenario.window_miss.num_instructions for scenario in self.scenarios)

    def invalidate_indices(self) -> None:
        """Force an index rebuild on the next lookup.  Required after any
        mutation of ``scenarios`` other than appending — replacing the
        list, or editing elements in place."""
        self._indexed_count = -1

    def _refresh_indices(self) -> None:
        if self._indexed_count == len(self.scenarios):
            return
        self._by_color = {s.color: s for s in self.scenarios}
        by_branch: dict[str, list[SpeculationScenario]] = {}
        for scenario in self.scenarios:
            by_branch.setdefault(scenario.branch_block, []).append(scenario)
        self._by_branch = by_branch
        self._indexed_count = len(self.scenarios)

    def scenarios_at(self, branch_block: str) -> list[SpeculationScenario]:
        self._refresh_indices()
        return list(self._by_branch.get(branch_block, ()))

    def scenario(self, color: int) -> SpeculationScenario:
        """O(1) color lookup; raises :class:`KeyError` for unknown colors.

        This sits on the engine's inner loop (every window and resume slot
        at every block visit resolves its color), so it is dict-backed
        rather than the linear scan it used to be.
        """
        self._refresh_indices()
        try:
            return self._by_color[color]
        except KeyError:
            raise KeyError(color) from None

    def describe(self) -> str:
        lines = [
            f"virtual CFG for {self.cfg.name}: "
            f"{self.num_speculative_branches} speculative branches, "
            f"{len(self.scenarios)} scenarios, "
            f"{self.num_virtual_edges} virtual edges (bm={self.config.depth_miss})"
        ]
        lines.extend(scenario.describe() for scenario in self.scenarios)
        return "\n".join(lines)


# Scenarios of *incremental* rebuilds (``build_vcfg_incremental``) are
# memoised per (content fingerprint, config): their CFG diff fingerprints
# every block anyway.  A cold ``build_vcfg`` computes its scenarios
# directly, because its key, a reflective walk over every instruction,
# cost more than the memo saved.  Measured from a cleared memo: a
# ``tables`` pass made 30 lookups, hit 0 times, and spent 56 ms
# fingerprinting against 9 ms of scenario building; the 30 distinct
# ``service`` ops, run once in process, made 50 lookups and hit 10 times,
# spending 127 ms fingerprinting to save ~3 ms.  (The compile cache
# already hands an identical source the same ``CompiledProgram``.)  The
# memo is a bounded LRU keyed by content, so a mutated CFG simply hashes
# to a different key.
_VCFG_MEMO_SIZE = 128
_vcfg_memo: LRUCache = LRUCache(maxsize=_VCFG_MEMO_SIZE)


def vcfg_memo_stats():
    """Hit/miss/eviction counters of the scenario memo (for stats surfaces)."""
    return _vcfg_memo.stats.snapshot()


def _compute_scenarios(
    cfg: CFG,
    config: SpeculationConfig,
    window_pair: Callable[[str, bool, str], tuple[SpeculativeWindow, SpeculativeWindow]]
    | None = None,
) -> tuple[SpeculationScenario, ...]:
    """Every scenario of ``cfg``, colored in ``conditional_blocks()``
    order.  ``window_pair(branch block, mispredicted taken, wrong target)``
    supplies a scenario's ``(window_miss, window_hit)``; by default both
    are searched afresh."""
    graph = cfg.graph()
    if window_pair is None:
        def window_pair(branch_block, mispredicted_taken, wrong):
            return (
                _window(graph, wrong, config.depth_miss),
                _window(graph, wrong, config.depth_hit),
            )

    ipdom = graph.ipdom
    scenarios: list[SpeculationScenario] = []
    color = 0
    for branch_block in cfg.conditional_blocks():
        terminator = cfg.block(branch_block).terminator
        assert isinstance(terminator, CondBranch)
        if terminator.true_target == terminator.false_target:
            continue
        convergence = ipdom.get(branch_block)
        for mispredicted_taken in (True, False):
            wrong = terminator.true_target if mispredicted_taken else terminator.false_target
            correct = terminator.false_target if mispredicted_taken else terminator.true_target
            window_miss, window_hit = window_pair(branch_block, mispredicted_taken, wrong)
            scenarios.append(
                SpeculationScenario(
                    color=color,
                    branch_block=branch_block,
                    mispredicted_taken=mispredicted_taken,
                    wrong_target=wrong,
                    correct_target=correct,
                    cond_refs=terminator.cond_refs,
                    window_miss=window_miss,
                    window_hit=window_hit,
                    convergence_block=convergence,
                )
            )
            color += 1
    return tuple(scenarios)


def build_vcfg(cfg: CFG, config: SpeculationConfig) -> VirtualCFG:
    """Construct the virtual CFG (all speculation scenarios) for ``cfg``.

    Computed afresh on every call: the scenario memo serves incremental
    rebuilds only (see the comment above :data:`_VCFG_MEMO_SIZE`).  The
    :class:`SpeculationScenario` objects are frozen; the ``scenarios``
    list is the caller's own.
    """
    with span("vcfg", program=cfg.name) as vcfg_span:
        scenarios = _compute_scenarios(cfg, config)
        vcfg_span.set(scenarios=len(scenarios))
    return VirtualCFG(cfg=cfg, config=config, scenarios=list(scenarios))


@dataclass(frozen=True)
class VCFGBaseline:
    """What an incremental rebuild needs from a predecessor program.

    Holds fingerprints and frozen scenarios only — never the old CFG
    itself, so retaining a baseline does not keep a whole program alive.
    """

    block_fingerprints: dict[str, str]
    scenarios: tuple[SpeculationScenario, ...]


def _window_reusable(
    graph: GraphIndex, touched: frozenset[str], start: str, window: SpeculativeWindow
) -> bool:
    """May a baseline window be reused verbatim against the edited ``cfg``?

    Sound iff the edit cannot perturb the window's Dijkstra: distances and
    allowances only flow through the window's member blocks, and membership
    can only grow/shrink via a member or a block one edge beyond one (the
    depth/fence frontier).  So the window is reusable when the touched set
    is disjoint from ``{start} ∪ allowed ∪ successors(allowed)``.  The
    start block is included explicitly: a fence at its first instruction
    yields an *empty* window whose reusability still hinges on the start.
    """
    if start in touched:
        return False
    for name in window.allowed:
        if name in touched:
            return False
    for name in window.allowed:
        # Members are untouched, hence present in the new CFG with their
        # old terminators — successors are well-defined and unchanged.
        for successor in graph.successors[name]:
            if successor in touched:
                return False
    return True


def build_vcfg_incremental(
    cfg: CFG, config: SpeculationConfig, baseline: VCFGBaseline
) -> tuple[VirtualCFG, dict[str, int]]:
    """Rebuild the virtual CFG for an edited program, reusing what stands.

    Scenario *structure* (colors, targets, convergence) is recomputed from
    the new CFG — it is cheap and depends on global block order and the
    postdominator tree.  The expensive per-scenario window searches are
    reused from ``baseline`` whenever the edit provably cannot have
    perturbed them (see :func:`_window_reusable`); only windows
    intersecting the edit are re-run.  The result is bit-identical to a
    cold :func:`build_vcfg`, and is memoised by content for the next
    rebuild of the same graph.

    Returns the vcfg plus reuse counters for observability.
    """
    key = (cfg.content_fingerprint(), config)
    memoised = _vcfg_memo.get(key)
    if memoised is not None:
        stats = {"windows_reused": 0, "windows_recomputed": 0, "memo_hit": 1}
        return VirtualCFG(cfg=cfg, config=config, scenarios=list(memoised)), stats

    touched = diff_cfgs(baseline.block_fingerprints, cfg).touched
    old_windows: dict[tuple[str, bool], tuple[SpeculativeWindow, SpeculativeWindow]] = {
        (s.branch_block, s.mispredicted_taken): (s.window_miss, s.window_hit)
        for s in baseline.scenarios
    }
    graph = cfg.graph()
    reused = 0
    recomputed = 0

    def window_pair(branch_block: str, taken: bool, wrong: str):
        nonlocal reused, recomputed
        pair = old_windows.get((branch_block, taken))
        windows = []
        for index, depth in enumerate((config.depth_miss, config.depth_hit)):
            old = pair[index] if pair is not None else None
            if (
                old is not None
                and old.depth == depth
                and _window_reusable(graph, touched, wrong, old)
            ):
                windows.append(old)
                reused += 1
            else:
                windows.append(_window(graph, wrong, depth))
                recomputed += 1
        return windows[0], windows[1]

    with span("vcfg.incremental", program=cfg.name) as vcfg_span:
        frozen = _compute_scenarios(cfg, config, window_pair)
        vcfg_span.set(
            scenarios=len(frozen), windows_reused=reused, windows_recomputed=recomputed
        )
    _vcfg_memo.put(key, frozen)
    registry = metrics()
    registry.counter("incremental.windows_reused").inc(reused)
    registry.counter("incremental.windows_recomputed").inc(recomputed)
    stats = {"windows_reused": reused, "windows_recomputed": recomputed, "memo_hit": 0}
    return VirtualCFG(cfg=cfg, config=config, scenarios=list(frozen)), stats


def first_fence_index(cfg: CFG, block: str) -> int | None:
    """Index of the first :class:`Fence` in ``block`` (None when absent)."""
    cfg.block(block)  # CFGError for an unknown block
    return cfg.graph().fence_indexes[block]


def compute_window(cfg: CFG, start: str, depth: int) -> SpeculativeWindow:
    """Blocks reachable from ``start`` within ``depth`` instructions.

    The distance of a block is the minimum number of instructions executed
    before reaching it from ``start``; its allowance is whatever remains of
    the budget.  Using the minimum distance is the sound direction: a block
    reachable within the budget along *any* path is included.

    A :class:`Fence` is a hard speculation barrier: a block containing one
    contributes at most its pre-fence prefix to the window and never
    extends the window into its successors (a fence at instruction 0
    excludes the block — and with it the whole scenario, when the block is
    the mispredicted target).
    """
    if depth > 0:
        cfg.block(start)  # CFGError for an unknown block
    return _window(cfg.graph(), start, depth)


def _window(graph: GraphIndex, start: str, depth: int) -> SpeculativeWindow:
    """:func:`compute_window` over ``graph``'s successors, instruction
    counts and fence indexes."""
    if depth <= 0:
        return SpeculativeWindow(depth=depth)
    successors = graph.successors
    counts = graph.instruction_counts
    fences = graph.fence_indexes
    # Dijkstra over block entry distances.  Edge weights (instruction
    # counts) are non-negative, so expanding blocks in distance order
    # settles each block's final distance the first time it is popped;
    # later (stale) heap entries for an already-improved block are
    # skipped.  This replaces the re-sort-the-whole-worklist-per-pop
    # schedule, which cost O(n² log n) on wide windows.
    distance: dict[str, int] = {start: 0}
    heap: list[tuple[int, str]] = [(0, start)]
    while heap:
        block_distance, block_name = heapq.heappop(heap)
        if block_distance > distance[block_name]:
            continue  # stale entry: a shorter path was found after the push
        if fences[block_name] is not None:
            # Speculation stalls at the fence until the branch resolves
            # and the excursion is squashed: successors are unreachable
            # speculatively through this block.
            continue
        exit_distance = block_distance + counts[block_name]
        if exit_distance >= depth:
            continue
        for successor in successors[block_name]:
            if exit_distance < distance.get(successor, depth):
                distance[successor] = exit_distance
                heapq.heappush(heap, (exit_distance, successor))
    allowed: dict[str, int] = {}
    for name, dist in distance.items():
        if depth - dist <= 0:
            continue
        limit = counts[name]
        fence = fences[name]
        if fence is not None:
            limit = min(limit, fence)
        allowance = min(limit, depth - dist)
        if allowance > 0:
            allowed[name] = allowance
    return SpeculativeWindow(depth=depth, allowed=allowed)
