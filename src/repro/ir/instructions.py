"""IR instructions, operands, and memory references.

Every class here is a frozen dataclass.  Instructions and terminators are
shared between CFGs (the inliner copies only block containers, and builds
the instructions it renames with ``dataclasses.replace``), so a pass that
changes one builds a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Operand:
    """Base class for instruction operands."""


@dataclass(frozen=True)
class Temp(Operand):
    """A virtual register (temporary)."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const(Operand):
    """An integer constant operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


# ----------------------------------------------------------------------
# Memory references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryRef:
    """A single memory access performed by an instruction.

    ``index_const`` is the element index when it is statically known
    (always ``0`` for scalars); ``None`` means the index is unknown at
    analysis time.  ``index_secret`` is set when the index expression is
    tainted by a ``secret`` variable, which is what the side-channel
    application looks for.
    """

    symbol: str
    is_write: bool = False
    index_const: int | None = 0
    index_secret: bool = False
    element_size: int = 4
    line: int = 0

    def __str__(self) -> str:
        mode = "store" if self.is_write else "load"
        if self.index_const is None:
            suffix = "[?]" if not self.index_secret else "[secret]"
        elif self.index_const == 0 and self.element_size == 0:
            suffix = ""
        else:
            suffix = f"[{self.index_const}]"
        return f"{mode} {self.symbol}{suffix}"


# ----------------------------------------------------------------------
# Instructions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instruction:
    """Base class for non-terminator instructions."""

    line: int = field(default=0, kw_only=True)

    def memory_refs(self) -> tuple[MemoryRef, ...]:
        """Memory references performed by this instruction (possibly empty)."""
        return ()

    def defined_temp(self) -> Temp | None:
        return None

    def used_operands(self) -> tuple[Operand, ...]:
        return ()


@dataclass(frozen=True)
class Load(Instruction):
    """Load a value from memory into a temporary.

    ``index_operand`` carries the dynamic element index (``None`` for
    scalars); the abstract analysis only looks at ``ref`` but the concrete
    simulator needs the runtime value to model the cache exactly.
    """

    dest: Temp = None  # type: ignore[assignment]
    ref: MemoryRef = None  # type: ignore[assignment]
    index_operand: Operand | None = None

    def memory_refs(self) -> tuple[MemoryRef, ...]:
        return (self.ref,)

    def defined_temp(self) -> Temp | None:
        return self.dest

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.index_operand,) if self.index_operand is not None else ()

    def __str__(self) -> str:
        return f"{self.dest} = {self.ref}"


@dataclass(frozen=True)
class Store(Instruction):
    """Store a value from an operand into memory."""

    ref: MemoryRef = None  # type: ignore[assignment]
    value: Operand = None  # type: ignore[assignment]
    index_operand: Operand | None = None

    def memory_refs(self) -> tuple[MemoryRef, ...]:
        return (self.ref,)

    def used_operands(self) -> tuple[Operand, ...]:
        used: tuple[Operand, ...] = (self.value,)
        if self.index_operand is not None:
            used = used + (self.index_operand,)
        return used

    def __str__(self) -> str:
        return f"{self.ref} <- {self.value}"


@dataclass(frozen=True)
class BinOp(Instruction):
    dest: Temp = None  # type: ignore[assignment]
    op: str = ""
    left: Operand = None  # type: ignore[assignment]
    right: Operand = None  # type: ignore[assignment]

    def defined_temp(self) -> Temp | None:
        return self.dest

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.dest} = {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class UnOp(Instruction):
    dest: Temp = None  # type: ignore[assignment]
    op: str = ""
    operand: Operand = None  # type: ignore[assignment]

    def defined_temp(self) -> Temp | None:
        return self.dest

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op}{self.operand}"


@dataclass(frozen=True)
class Copy(Instruction):
    dest: Temp = None  # type: ignore[assignment]
    src: Operand = None  # type: ignore[assignment]

    def defined_temp(self) -> Temp | None:
        return self.dest

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)

    def __str__(self) -> str:
        return f"{self.dest} = {self.src}"


@dataclass(frozen=True)
class Fence(Instruction):
    """A speculation barrier.

    Architecturally a no-op: it reads and writes nothing and touches no
    memory.  Its only semantics are microarchitectural — instructions
    after a fence never execute speculatively, so a speculative window
    (and a concrete mispredicted excursion) is truncated at the fence.
    The mitigation subsystem inserts these to close detected leaks.
    """

    def __str__(self) -> str:
        return "fence"


@dataclass(frozen=True)
class CallInstr(Instruction):
    """A function call.

    Calls to user-defined functions are removed by the inliner; calls to
    intrinsics remain and are treated as opaque pure operations.
    """

    dest: Temp | None = None
    callee: str = ""
    args: tuple[Operand, ...] = ()

    def defined_temp(self) -> Temp | None:
        return self.dest

    def used_operands(self) -> tuple[Operand, ...]:
        return tuple(self.args)

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call {self.callee}({args})"


# ----------------------------------------------------------------------
# Terminators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Terminator:
    """Base class for basic-block terminators."""

    line: int = field(default=0, kw_only=True)

    def targets(self) -> tuple[str, ...]:
        return ()

    def memory_refs(self) -> tuple[MemoryRef, ...]:
        return ()


@dataclass(frozen=True)
class Jump(Terminator):
    target: str = ""

    def targets(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class CondBranch(Terminator):
    """A two-way conditional branch.

    ``cond_refs`` records the memory references that were loaded to
    evaluate the condition; the speculative analysis uses them to decide
    whether the branch resolves quickly (operands cached, bound ``bh``)
    or slowly (operands may miss, bound ``bm``).
    """

    cond: Operand = None  # type: ignore[assignment]
    true_target: str = ""
    false_target: str = ""
    cond_refs: tuple[MemoryRef, ...] = ()

    def targets(self) -> tuple[str, ...]:
        return (self.true_target, self.false_target)

    def memory_refs(self) -> tuple[MemoryRef, ...]:
        # The loads themselves were emitted as separate Load instructions;
        # cond_refs is metadata only and must not be double counted.
        return ()

    def __str__(self) -> str:
        return f"br {self.cond} ? {self.true_target} : {self.false_target}"


@dataclass(frozen=True)
class Return(Terminator):
    value: Operand | None = None

    def __str__(self) -> str:
        if self.value is None:
            return "ret"
        return f"ret {self.value}"
