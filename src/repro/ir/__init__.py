"""Intermediate representation and control-flow-graph substrate.

The IR is a conventional three-address code organised into basic blocks.
What makes it suitable for cache analysis is that every instruction
carries explicit :class:`~repro.ir.instructions.MemoryRef` objects
describing which program variables (and which array elements, when
statically known) it reads or writes, and every conditional branch
records the memory references its condition depends on — the information
needed by the paper's dynamic speculation-depth bounding (Section 6.2).
"""

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
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, Edge
from repro.ir.memory import BlockAccess, MemoryBlock, MemoryLayout
from repro.ir.lowering import lower_function, lower_program
from repro.ir.unroll import unroll_fixed_loops
from repro.ir.inline import inline_calls
from repro.ir.printer import format_cfg, format_instruction

__all__ = [
    "BasicBlock",
    "BinOp",
    "BlockAccess",
    "CFG",
    "CallInstr",
    "CondBranch",
    "Const",
    "Copy",
    "Edge",
    "Instruction",
    "Jump",
    "Load",
    "MemoryBlock",
    "MemoryLayout",
    "MemoryRef",
    "Operand",
    "Return",
    "Store",
    "Temp",
    "Terminator",
    "UnOp",
    "format_cfg",
    "format_instruction",
    "inline_calls",
    "lower_function",
    "lower_program",
    "unroll_fixed_loops",
]
