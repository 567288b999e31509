"""Classifications re-walked from final states: the oracle for the
classifications the analyses read off their fixpoints' last transfers.

The walks are the second pass the analyses once made after their
fixpoint:

* speculative: every reachable block's normal state joined with the
  resume slots that reach the block, then every live window slot, per
  scenario, up to its active window's instruction limit;
* baseline: every reachable block's entry state.

Each walk resolves a block's sites from its instructions itself, so it
shares neither the access table's site prefixes nor the recording
transfers with the code under test.
"""

from __future__ import annotations

from repro.analysis.result import AccessClassification
from repro.ir.memory import AccessKind


def _is_bottom(state) -> bool:
    return getattr(state, "is_bottom", False)


def walk(
    program,
    state,
    block: str,
    instruction_limit: int | None = None,
    speculative: bool = False,
    scenario_color: int | None = None,
) -> list[AccessClassification]:
    """Classify each access site of ``block``'s first ``instruction_limit``
    instructions (all when None), walking from ``state``."""
    classifications: list[AccessClassification] = []
    current = state
    instructions = program.cfg.blocks[block].instructions
    for index, instruction in enumerate(instructions):
        if instruction_limit is not None and index >= instruction_limit:
            break
        for ref in instruction.memory_refs():
            access = program.layout.resolve(ref)
            secret_indexed = access.kind is AccessKind.SECRET
            secret_dependent = False
            if secret_indexed and not _is_bottom(current):
                hit_blocks = sum(1 for b in access.blocks if current.must_hit(b))
                secret_dependent = 0 < hit_blocks < len(access.blocks)
            classifications.append(
                AccessClassification(
                    block=block,
                    instruction_index=index,
                    ref=access.ref,
                    kind=access.kind,
                    must_hit=current.must_hit_access(access),
                    speculative=speculative,
                    scenario_color=scenario_color,
                    secret_indexed=secret_indexed,
                    secret_dependent=secret_dependent,
                )
            )
            current = current.access(access)
    return classifications


def speculative_classifications(analysis) -> list[AccessClassification]:
    """Re-walk the final states of ``analysis`` (a
    :class:`~repro.analysis.multicolor.SpeculativeCacheAnalysis` that has
    run), with the windows its depth chooser ended on."""
    fixpoint = analysis.last_fixpoint
    program = analysis.program
    classifications: list[AccessClassification] = []
    for block in program.cfg.graph().reachable:
        state = fixpoint.normal[block]
        for slot, slot_state in fixpoint.speculative.get(block, {}).items():
            if slot[0] == "resume" and not _is_bottom(slot_state):
                state = slot_state if _is_bottom(state) else state.join(slot_state)
        if not _is_bottom(state):
            classifications.extend(walk(program, state, block))
    for scenario in analysis.vcfg.scenarios:
        slot = ("window", scenario.color)
        for block, limit in analysis.chooser.active_window(scenario).allowed.items():
            state = fixpoint.speculative.get(block, {}).get(slot)
            if state is None or _is_bottom(state):
                continue
            classifications.extend(
                walk(
                    program,
                    state,
                    block,
                    instruction_limit=limit,
                    speculative=True,
                    scenario_color=scenario.color,
                )
            )
    return classifications


def baseline_classifications(program, result) -> list[AccessClassification]:
    """Re-walk a baseline result's final entry states."""
    classifications: list[AccessClassification] = []
    for block in program.cfg.graph().reachable:
        state = result.entry_states[block]
        if not _is_bottom(state):
            classifications.extend(walk(program, state, block))
    return classifications


def assert_same_classifications(actual: list, expected: list) -> None:
    """Equal lists, compared element by element and in order, naming the
    first difference."""
    for position, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"classification {position}: {got} != {want}"
    assert len(actual) == len(expected)
