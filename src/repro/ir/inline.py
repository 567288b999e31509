"""IR-level call inlining.

The paper analyses whole programs (a client harness calling a kernel such
as ``quantl``, Figure 10).  To keep the analysis intra-procedural we
inline every call to a user-defined function into the analysis entry
point.  Calls to intrinsics (``my_abs`` and friends) remain and are
treated as opaque pure operations.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import LoweringError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    BinOp,
    CallInstr,
    CondBranch,
    Const,
    Copy,
    Instruction,
    Jump,
    Load,
    MemoryRef,
    Operand,
    Return,
    Store,
    Temp,
    Terminator,
    UnOp,
)
from repro.lang.typecheck import ProgramInfo

#: Hard ceiling on the number of call-site expansions (guards against
#: run-away recursion).
DEFAULT_MAX_EXPANSIONS = 200


def inline_calls(
    cfgs: dict[str, CFG],
    entry: str,
    info: ProgramInfo,
    max_expansions: int = DEFAULT_MAX_EXPANSIONS,
) -> CFG:
    """Return ``cfgs[entry]`` with user-function calls inlined.

    Pure: ``cfgs`` is never mutated.  The result gets its own CFG and
    :class:`BasicBlock` containers, but shares every instruction and
    terminator that inlining does not rename with ``cfgs``; the renamed
    callee instructions and terminators are built with
    ``dataclasses.replace``.  IR instructions are frozen, so sharing them
    is safe.
    """
    if entry not in cfgs:
        raise LoweringError(f"unknown entry function {entry!r}")
    original = cfgs[entry]
    result = CFG(
        name=original.name,
        entry=original.entry,
        blocks={
            name: BasicBlock(name, list(block.instructions), block.terminator)
            for name, block in original.blocks.items()
        },
        params=list(original.params),
    )
    expansions = 0
    while True:
        site = _find_call_site(result, cfgs)
        if site is None:
            break
        expansions += 1
        if expansions > max_expansions:
            raise LoweringError(
                f"inlining exceeded {max_expansions} expansions; "
                "recursive call chain suspected"
            )
        _inline_one(result, site, cfgs, info, expansions)
    result.validate()
    return result


def _find_call_site(cfg: CFG, cfgs: dict[str, CFG]) -> tuple[str, int] | None:
    """Return (block name, instruction index) of the first inlinable call."""
    for name in cfg.graph().reachable:
        block = cfg.blocks[name]
        for index, instruction in enumerate(block.instructions):
            if isinstance(instruction, CallInstr) and instruction.callee in cfgs:
                return (name, index)
    return None


def _inline_one(
    cfg: CFG,
    site: tuple[str, int],
    cfgs: dict[str, CFG],
    info: ProgramInfo,
    expansion_id: int,
) -> None:
    block_name, index = site
    block = cfg.block(block_name)
    call = block.instructions[index]
    assert isinstance(call, CallInstr)
    callee_cfg = cfgs[call.callee]
    prefix = f"inl{expansion_id}_"

    # 1. Split the block: the tail (after the call) becomes a new block.
    continuation = BasicBlock(
        name=f"{prefix}cont",
        instructions=block.instructions[index + 1 :],
        terminator=block.terminator,
    )
    cfg.add_block(continuation)
    block.instructions = block.instructions[:index]
    # The terminator is set below, after argument passing.

    # 2. Clone the callee with renamed blocks and temporaries.
    clone_blocks = _clone_callee(callee_cfg, prefix)

    # 3. Pass arguments.  In-memory parameters are written with a Store so
    #    the argument transfer itself shows up as a memory access (it does
    #    on real hardware: arguments spill to the stack / parameter slots).
    callee_info = info.functions.get(call.callee)
    params = callee_cfg.params
    for position, param_name in enumerate(params):
        arg: Operand = call.args[position] if position < len(call.args) else Const(0)
        symbol = callee_info.table.lookup(param_name) if callee_info else None
        if symbol is not None and symbol.in_memory:
            ref = MemoryRef(
                symbol=param_name,
                is_write=True,
                index_const=0,
                element_size=symbol.element_size,
                line=call.line,
            )
            block.append(Store(ref=ref, value=arg, line=call.line))
        else:
            block.append(Copy(dest=Temp(f"{prefix}r_{param_name}"), src=arg, line=call.line))
    block.terminator = Jump(target=f"{prefix}{callee_cfg.entry}", line=call.line)

    # 4. Wire return blocks of the clone to the continuation, materialising
    #    the return value into the call's destination temp.
    for clone in clone_blocks:
        terminator = clone.terminator
        if isinstance(terminator, Return):
            if call.dest is not None:
                value = terminator.value if terminator.value is not None else Const(0)
                clone.append(Copy(dest=call.dest, src=value, line=call.line))
            clone.terminator = Jump(target=continuation.name, line=call.line)
        cfg.add_block(clone)


def _clone_callee(callee: CFG, prefix: str) -> list[BasicBlock]:
    """The callee's reachable blocks with blocks and temps renamed."""
    return [
        BasicBlock(
            name=f"{prefix}{name}",
            instructions=[
                _rename_instruction(instruction, prefix)
                for instruction in callee.block(name).instructions
            ],
            terminator=_rename_terminator(callee.block(name).terminator, prefix),
        )
        for name in callee.graph().reachable
    ]


def _rename_temp(temp: Temp, prefix: str) -> Temp:
    return Temp(f"{prefix}{temp.name}")


def _rename_operand(operand: Operand | None, prefix: str) -> Operand | None:
    if isinstance(operand, Temp):
        return _rename_temp(operand, prefix)
    return operand


def _rename_instruction(instruction: Instruction, prefix: str) -> Instruction:
    if isinstance(instruction, Load):
        return replace(
            instruction,
            dest=_rename_temp(instruction.dest, prefix),
            index_operand=_rename_operand(instruction.index_operand, prefix),
        )
    if isinstance(instruction, Store):
        return replace(
            instruction,
            value=_rename_operand(instruction.value, prefix),
            index_operand=_rename_operand(instruction.index_operand, prefix),
        )
    if isinstance(instruction, BinOp):
        return replace(
            instruction,
            dest=_rename_temp(instruction.dest, prefix),
            left=_rename_operand(instruction.left, prefix),
            right=_rename_operand(instruction.right, prefix),
        )
    if isinstance(instruction, UnOp):
        return replace(
            instruction,
            dest=_rename_temp(instruction.dest, prefix),
            operand=_rename_operand(instruction.operand, prefix),
        )
    if isinstance(instruction, Copy):
        return replace(
            instruction,
            dest=_rename_temp(instruction.dest, prefix),
            src=_rename_operand(instruction.src, prefix),
        )
    if isinstance(instruction, CallInstr):
        return replace(
            instruction,
            dest=_rename_operand(instruction.dest, prefix),
            args=tuple(_rename_operand(arg, prefix) for arg in instruction.args),
        )
    return instruction


def _rename_terminator(terminator: Terminator, prefix: str) -> Terminator:
    if isinstance(terminator, Jump):
        return replace(terminator, target=f"{prefix}{terminator.target}")
    if isinstance(terminator, CondBranch):
        return replace(
            terminator,
            cond=_rename_operand(terminator.cond, prefix),
            true_target=f"{prefix}{terminator.true_target}",
            false_target=f"{prefix}{terminator.false_target}",
        )
    if isinstance(terminator, Return):
        return replace(terminator, value=_rename_operand(terminator.value, prefix))
    return terminator
