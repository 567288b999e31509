"""Candidate fence placements for the mitigation synthesiser.

Three candidate families, all expressed as source-level
:class:`~repro.mitigation.patch.FencePoint` values:

* the **fence-every-branch baseline** — every arm of every source
  conditional (:func:`~repro.mitigation.patch.enumerate_fence_points`);
  no analysis needed, conservative and expensive, the Table-comparison
  yardstick (what ``lfence``-after-every-branch hardening does);
* **surviving-branch points** — arms of only those branches that still
  exist as conditional branches in the *compiled* program (fully
  unrolled loops disappear, so fencing them is pure overhead the
  baseline pays and the optimizer skips);
* **dominator-guided hoist points** — blocks shared by several
  speculation windows, hoisted as high as the dominator tree allows:
  one fence placed there truncates every window flowing through the
  block, covering several leak-causing scenarios (and hence leak sites)
  at once.

The WCET-cycle scoring used to rank otherwise-equal placements lives
here too: a placement's cost is its analysis-derived cycle bound (via
:func:`repro.apps.wcet.estimated_cycles`) plus a per-fence pipeline
penalty for every fence instruction in the compiled program.
"""

from __future__ import annotations

from repro.apps.wcet import estimated_cycles
from repro.cache.config import CacheConfig
from repro.frontend import CompiledProgram
from repro.ir.cfg import CFG
from repro.ir.instructions import CondBranch, Fence
from repro.mitigation.patch import FencePoint
from repro.speculation.config import SpeculationConfig
from repro.speculation.vcfg import build_vcfg

#: Pipeline cost charged per fence *instruction* in the compiled program
#: (every execution of a fence drains in-flight work; 10 cycles is the
#: usual order of magnitude quoted for LFENCE).
FENCE_LATENCY_CYCLES = 10


def count_ir_fences(program: CompiledProgram) -> int:
    """Fence instructions in the compiled entry CFG (post unroll/inline:
    a single source fence inside an unrolled loop counts once per copy,
    which is exactly what it costs at run time)."""
    cfg = program.cfg
    return sum(
        1
        for name in cfg.graph().reachable
        for instruction in cfg.blocks[name].instructions
        if isinstance(instruction, Fence)
    )


def placement_cycles(
    hit_count: int, miss_count: int, cache_config: CacheConfig, ir_fences: int
) -> int:
    """WCET-cycle score of an analysed placement (lower is better)."""
    return (
        estimated_cycles(hit_count, miss_count, cache_config)
        + ir_fences * FENCE_LATENCY_CYCLES
    )


def surviving_branch_points(program: CompiledProgram) -> list[FencePoint]:
    """Arm points of branches that survive compilation as conditional
    branches, in (line, taken-before-fallthrough) order."""
    cfg = program.cfg
    points: set[FencePoint] = set()
    for name in cfg.conditional_blocks():
        terminator = cfg.block(name).terminator
        assert isinstance(terminator, CondBranch)
        if terminator.true_target == terminator.false_target or terminator.line <= 0:
            continue
        points.add(FencePoint("taken", terminator.line))
        points.add(FencePoint("fallthrough", terminator.line))
    return sorted(points, key=lambda p: (p.line, p.kind != "taken"))


def hoist_points(
    program: CompiledProgram, speculation: SpeculationConfig | None = None
) -> list[FencePoint]:
    """Dominator-guided hoist candidates: source points inside blocks that
    several speculation windows share.

    For every block covered by at least two scenarios' (long) windows,
    walk up the dominator tree to the highest block with the same window
    coverage — the hoisted position covers the same scenarios but sits
    earlier, truncating more of each window — and map it to a ``before``
    point at the line of its first line-carrying instruction.  Candidates
    covering more scenarios come first.

    ``speculation`` must be the *same resolved config the evaluating
    analysis runs under* (``request.resolved_speculation``): the windows
    candidates are placed against depend on the speculation depth and
    merge strategy, and a mismatch silently produces candidates for a
    different analysis than the one scoring them.  The None default
    (paper config) exists for standalone exploration only.  The vcfg is
    rebuilt here, not shared with the analysis that scored the program:
    ~0.3 ms per call on the ``service`` programs.
    """
    cfg = program.cfg
    vcfg = build_vcfg(cfg, speculation or SpeculationConfig.paper_default())
    coverage: dict[str, set[int]] = {}
    for scenario in vcfg.scenarios:
        for block in scenario.window_miss.allowed:
            coverage.setdefault(block, set()).add(scenario.color)
    shared = {block for block, colors in coverage.items() if len(colors) >= 2}
    if not shared:
        return []
    graph = cfg.graph()
    idom = graph.idom

    def hoisted(block: str) -> str:
        # The highest dominator of ``block`` that is itself shared and
        # covers at least the same scenarios (sound: a fence there still
        # truncates every window the original placement truncated).
        best = block
        candidate = idom.get(block)
        while candidate is not None:
            if candidate in shared and coverage[candidate] >= coverage[block]:
                best = candidate
            candidate = idom[candidate]
        return best

    # The first block to claim a point fixes its coverage rank, so walk
    # the shared blocks in reverse postorder (unreachable ones last, by
    # name), never in set order, which follows the hash seed.
    rank = graph.rank
    ranked: list[tuple[int, int, FencePoint]] = []
    seen: set[FencePoint] = set()
    for block in sorted(shared, key=lambda name: (rank.get(name, len(rank)), name)):
        target = hoisted(block)
        line = _first_line(cfg, target)
        if line is None:
            continue
        point = FencePoint("before", line)
        if point in seen:
            continue
        seen.add(point)
        ranked.append((-len(coverage[target]), line, point))
    ranked.sort()
    return [point for _, _, point in ranked]


def _first_line(cfg: CFG, block: str) -> int | None:
    for instruction in cfg.block(block).instructions:
        if instruction.line > 0:
            return instruction.line
    terminator = cfg.block(block).terminator
    if terminator is not None and terminator.line > 0:
        return terminator.line
    return None
