"""Secret-taint dataflow over the IR.

A forward may-taint analysis seeded from the secret-marked memory blocks
of the program layout: temporaries are tracked flow-sensitively per
block, memory blocks flow-insensitively (a store through a tainted value
or index taints every block the reference may alias, and taint is never
killed — the cache side channel does not forget), and branches whose
condition is secret-derived taint every block that is control-dependent
on them (computed against the post-dominator tree).  The fixpoint runs
on the shared :mod:`repro.engine.worklist` kernel in the same
reverse-postorder schedule as the cache analyses.

Its consumer is **leak blame paths**: :meth:`TaintResult.blame_path`
returns the shortest recorded def-use chain from a secret source to a
leaking access, for ``repro sidechannel --explain`` and the report
layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.engine.worklist import PriorityWorklist, run_fixpoint
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    CondBranch,
    Instruction,
    Load,
    MemoryRef,
    Store,
    Temp,
)
from repro.ir.memory import MemoryBlock, MemoryLayout

#: Defensive bound on taint-fixpoint pops, far above any real program.
MAX_TAINT_VISITS = 1_000_000

#: Blame-graph node kinds (first tuple element of a node key).
_SECRET = "secret"
_TEMP = "temp"
_MEM = "mem"
_SITE = "site"
_CONTROL = "control"


@dataclass(frozen=True)
class BlameStep:
    """One hop of a blame path, anchored to a block/instruction."""

    block: str
    instruction_index: int  # -1 for sources, terminators, and summaries
    line: int
    kind: str  # "source" | "load" | "store" | "compute" | "control" | "access"
    detail: str

    def render(self) -> str:
        where = self.block if self.instruction_index < 0 else (
            f"{self.block}[{self.instruction_index}]"
        )
        suffix = f" (line {self.line})" if self.line else ""
        return f"{self.kind:>7}  {where}: {self.detail}{suffix}"

    def to_dict(self) -> dict:
        return {
            "block": self.block,
            "instruction_index": self.instruction_index,
            "line": self.line,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class TaintResult:
    """Solved taint facts for one program."""

    cfg: CFG
    layout: MemoryLayout
    secret_symbols: frozenset[str]
    #: Memory blocks that may hold secret-derived data (flow-insensitive).
    tainted_blocks: frozenset[MemoryBlock]
    #: Temp names tainted at each block's entry (flow-sensitive).
    tainted_in: dict[str, frozenset[str]]
    #: Blocks control-dependent on a secret-derived branch.
    control_tainted: frozenset[str]
    #: Access sites (block, instruction index) that may touch
    #: secret-derived data or execute under secret-derived control.
    tainted_sites: frozenset[tuple[str, int]]
    #: Blame graph: node -> [(parent node, step)] in discovery order.
    _edges: dict[tuple, list[tuple[tuple, BlameStep]]] = field(default_factory=dict)

    def is_tainted_site(self, block: str, instruction_index: int) -> bool:
        return (block, instruction_index) in self.tainted_sites

    def blame_path(self, block: str, instruction_index: int) -> list[BlameStep] | None:
        """Shortest recorded chain from a secret source to the access at
        ``(block, instruction_index)``; None when the site is untainted.

        BFS backwards over the blame graph, so the witness has the fewest
        def-use hops among all recorded derivations.  The returned list is
        source-first and ends with the access itself.
        """
        start = (_SITE, block, instruction_index)
        if start not in self._edges:
            return None
        parents: dict[tuple, tuple[tuple, BlameStep] | None] = {start: None}
        queue: deque[tuple] = deque([start])
        goal: tuple | None = None
        while queue:
            node = queue.popleft()
            if node[0] == _SECRET:
                goal = node
                break
            for parent, step in self._edges.get(node, ()):
                if parent not in parents:
                    parents[parent] = (node, step)
                    queue.append(parent)
        if goal is None:
            return None
        # Walk forward from the source back down to the access.
        path: list[BlameStep] = []
        node = goal
        while node != start:
            child, step = parents[node]  # type: ignore[misc]
            path.append(step)
            node = child
        if not path or path[0].kind != "source":
            # Direct derivations (a secret-typed symbol accessed in place)
            # skip the layout-seeding edge that carries the source step;
            # synthesise one so every path starts at its secret.
            path.insert(
                0,
                BlameStep(
                    block="<secret>",
                    instruction_index=-1,
                    line=0,
                    kind="source",
                    detail=f"secret value {goal[1]!r}",
                ),
            )
        return path


class TaintAnalysis:
    """One taint solve; use :func:`analyze_taint` unless you need the
    intermediate structures."""

    def __init__(self, cfg: CFG, layout: MemoryLayout, secret_symbols):
        self.cfg = cfg
        self.layout = layout
        self.secret_symbols = frozenset(secret_symbols)
        self._tainted_blocks: set[MemoryBlock] = set()
        self._tainted_in: dict[str, set[str]] = {}
        self._control: set[str] = set()
        self._edges: dict[tuple, list[tuple[tuple, BlameStep]]] = {}
        self._edge_seen: set[tuple] = set()
        self._block_out: set[str] = set()
        self._pending_requeues: list[str] = []
        self._graph = cfg.graph()
        self._successors = self._graph.successors
        self._pdom = self._graph.ipdom
        # symbol -> blocks that read it (re-enqueued when a store taints
        # the symbol's memory blocks for the first time).
        self._readers: dict[str, set[str]] = {}
        for name in self._graph.reachable:
            for instruction in cfg.block(name).instructions:
                for ref in instruction.memory_refs():
                    if not ref.is_write:
                        self._readers.setdefault(ref.symbol, set()).add(name)
            terminator = cfg.block(name).terminator
            if isinstance(terminator, CondBranch):
                for ref in terminator.cond_refs:
                    self._readers.setdefault(ref.symbol, set()).add(name)

    # ------------------------------------------------------------------
    # Blame-graph bookkeeping
    # ------------------------------------------------------------------
    def _edge(self, child: tuple, parent: tuple, step: BlameStep) -> None:
        key = (child, parent)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        self._edges.setdefault(child, []).append((parent, step))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> TaintResult:
        for symbol in sorted(self.secret_symbols):
            if not self.layout.has_symbol(symbol):
                continue
            for block in self.layout.blocks_of(symbol):
                self._tainted_blocks.add(block)
                self._edge(
                    (_MEM, block),
                    (_SECRET, symbol),
                    BlameStep(
                        block="<layout>",
                        instruction_index=-1,
                        line=0,
                        kind="source",
                        detail=f"secret object {symbol!r} occupies {block}",
                    ),
                )
        reachable = self._graph.reachable
        for name in reachable:
            self._tainted_in.setdefault(name, set())
        worklist = PriorityWorklist(self._graph.rank, reachable)
        run_fixpoint(
            worklist,
            self._step,
            max_visits=MAX_TAINT_VISITS,
            description="taint fixpoint",
        )
        tainted_sites: set[tuple[str, int]] = set()
        for name in reachable:
            self._walk_block(name, record_sites=tainted_sites)
        return TaintResult(
            cfg=self.cfg,
            layout=self.layout,
            secret_symbols=self.secret_symbols,
            tainted_blocks=frozenset(self._tainted_blocks),
            tainted_in={
                name: frozenset(temps) for name, temps in self._tainted_in.items()
            },
            control_tainted=frozenset(self._control),
            tainted_sites=frozenset(tainted_sites),
            _edges=self._edges,
        )

    def _step(self, name: str) -> list[str]:
        self._walk_block(name)
        requeue: list[str] = []
        out = self._block_out
        for successor in self._successors[name]:
            target = self._tainted_in.setdefault(successor, set())
            before = len(target)
            target |= out
            if len(target) != before:
                requeue.append(successor)
        # Global-fact growth (memory taint, control taint) re-enqueues its
        # dependents directly: readers of the newly tainted symbol, and the
        # freshly control-tainted blocks themselves.
        requeue.extend(self._pending_requeues)
        self._pending_requeues = []
        return requeue

    # ------------------------------------------------------------------
    # Per-block transfer
    # ------------------------------------------------------------------
    def _operand_tainted(self, operand, tainted: set[str]) -> bool:
        return isinstance(operand, Temp) and operand.name in tainted

    def _ref_data_tainted(self, ref: MemoryRef) -> bool:
        """Whether the data behind ``ref`` may be secret-derived: the
        object is secret-declared, or any block the access may alias
        (the full object for unknown/secret indices) is tainted."""
        if ref.symbol in self.secret_symbols:
            return True
        if not self.layout.has_symbol(ref.symbol):
            return False
        access = self.layout.resolve(ref)
        return any(block in self._tainted_blocks for block in access.blocks)

    def _taint_stored_blocks(
        self, ref: MemoryRef, parent: tuple, step: BlameStep
    ) -> None:
        if not self.layout.has_symbol(ref.symbol):
            return
        access = self.layout.resolve(ref)
        fresh = [b for b in access.blocks if b not in self._tainted_blocks]
        for block in access.blocks:
            self._edge((_MEM, block), parent, step)
        if fresh:
            self._tainted_blocks.update(fresh)
            self._pending_requeues.extend(
                sorted(self._readers.get(ref.symbol, ()))
            )

    def _walk_block(
        self, name: str, record_sites: set[tuple[str, int]] | None = None
    ) -> bool:
        """Transfer ``name``: propagate taint through its instructions.

        Returns whether any *global* fact (memory taint, control taint)
        changed.  With ``record_sites`` given, additionally classifies
        every access site against the (final) entry facts.
        """
        tainted = set(self._tainted_in.get(name, ()))
        control = name in self._control
        changed_global = False
        mem_before = len(self._tainted_blocks)
        control_before = len(self._control)
        block = self.cfg.block(name)
        for index, instruction in enumerate(block.instructions):
            self._transfer_instruction(
                name, index, instruction, tainted, control, record_sites
            )
        terminator = block.terminator
        if isinstance(terminator, CondBranch):
            self._transfer_branch(name, terminator, tainted, control)
        self._block_out = tainted
        if len(self._tainted_blocks) != mem_before:
            changed_global = True
        if len(self._control) != control_before:
            changed_global = True
        return changed_global

    def _transfer_instruction(
        self,
        name: str,
        index: int,
        instruction: Instruction,
        tainted: set[str],
        control: bool,
        record_sites: set[tuple[str, int]] | None,
    ) -> None:
        site_node = (_SITE, name, index)
        if isinstance(instruction, Load):
            ref = instruction.ref
            index_tainted = ref.index_secret or self._operand_tainted(
                instruction.index_operand, tainted
            )
            data_tainted = self._ref_data_tainted(ref)
            site_tainted = index_tainted or data_tainted or control
            if site_tainted:
                self._record_access(
                    site_node,
                    name,
                    index,
                    ref,
                    tainted,
                    instruction.index_operand,
                    index_tainted,
                    data_tainted,
                    control,
                    record_sites,
                )
            if index_tainted or data_tainted or control:
                dest = instruction.dest.name
                if dest not in tainted:
                    tainted.add(dest)
                self._edge(
                    (_TEMP, dest),
                    self._access_parent(
                        ref, tainted, instruction.index_operand, index_tainted,
                        data_tainted, control, name,
                    ),
                    BlameStep(
                        block=name,
                        instruction_index=index,
                        line=instruction.line or ref.line,
                        kind="load",
                        detail=f"{instruction}",
                    ),
                )
            return
        if isinstance(instruction, Store):
            ref = instruction.ref
            index_tainted = ref.index_secret or self._operand_tainted(
                instruction.index_operand, tainted
            )
            value_tainted = self._operand_tainted(instruction.value, tainted)
            data_tainted = self._ref_data_tainted(ref)
            site_tainted = index_tainted or value_tainted or data_tainted or control
            if site_tainted:
                self._record_access(
                    site_node,
                    name,
                    index,
                    ref,
                    tainted,
                    instruction.index_operand,
                    index_tainted,
                    data_tainted or value_tainted,
                    control,
                    record_sites,
                    value_operand=instruction.value if value_tainted else None,
                )
            if index_tainted or value_tainted or control:
                self._taint_stored_blocks(
                    ref,
                    self._access_parent(
                        ref, tainted, instruction.index_operand, index_tainted,
                        value_tainted or data_tainted, control, name,
                        value_operand=(
                            instruction.value if value_tainted else None
                        ),
                    ),
                    BlameStep(
                        block=name,
                        instruction_index=index,
                        line=instruction.line or ref.line,
                        kind="store",
                        detail=f"{instruction}",
                    ),
                )
            return
        # Pure computation: BinOp / UnOp / Copy / CallInstr.
        dest = instruction.defined_temp()
        if dest is None:
            return
        tainted_source = None
        for operand in instruction.used_operands():
            if self._operand_tainted(operand, tainted):
                tainted_source = operand
                break
        if tainted_source is None and not control:
            return
        if dest.name not in tainted:
            tainted.add(dest.name)
        parent: tuple = (
            (_TEMP, tainted_source.name)
            if tainted_source is not None
            else (_CONTROL, name)
        )
        self._edge(
            (_TEMP, dest.name),
            parent,
            BlameStep(
                block=name,
                instruction_index=index,
                line=instruction.line,
                kind="compute" if tainted_source is not None else "control",
                detail=f"{instruction}",
            ),
        )

    def _access_parent(
        self,
        ref: MemoryRef,
        tainted: set[str],
        index_operand,
        index_tainted: bool,
        data_tainted: bool,
        control: bool,
        block_name: str,
        value_operand=None,
    ) -> tuple:
        """The most informative blame parent for an access: a tainted
        index temp, then a tainted value temp, then the secret object /
        tainted block behind the data, then control dependence."""
        if (
            index_operand is not None
            and self._operand_tainted(index_operand, tainted)
        ):
            return (_TEMP, index_operand.name)
        if ref.index_secret and ref.symbol not in self.secret_symbols:
            # The frontend already folded the secret into the index
            # expression; blame the secret objects directly.
            for symbol in sorted(self.secret_symbols):
                return (_SECRET, symbol)
        if value_operand is not None:
            return (_TEMP, value_operand.name)
        if ref.symbol in self.secret_symbols:
            return (_SECRET, ref.symbol)
        if data_tainted and self.layout.has_symbol(ref.symbol):
            for block in self.layout.resolve(ref).blocks:
                if block in self._tainted_blocks:
                    return (_MEM, block)
        if control:
            return (_CONTROL, block_name)
        for symbol in sorted(self.secret_symbols):
            return (_SECRET, symbol)
        return (_CONTROL, block_name)

    def _record_access(
        self,
        site_node: tuple,
        name: str,
        index: int,
        ref: MemoryRef,
        tainted: set[str],
        index_operand,
        index_tainted: bool,
        data_tainted: bool,
        control: bool,
        record_sites: set[tuple[str, int]] | None,
        value_operand=None,
    ) -> None:
        if record_sites is not None:
            record_sites.add((name, index))
        self._edge(
            site_node,
            self._access_parent(
                ref, tainted, index_operand, index_tainted, data_tainted,
                control, name, value_operand=value_operand,
            ),
            BlameStep(
                block=name,
                instruction_index=index,
                line=ref.line,
                kind="access",
                detail=f"{'store' if ref.is_write else 'load'} {ref.symbol}"
                + ("[secret]" if ref.index_secret else ""),
            ),
        )

    def _transfer_branch(
        self, name: str, terminator: CondBranch, tainted: set[str], control: bool
    ) -> None:
        cond_tainted = self._operand_tainted(terminator.cond, tainted) or control
        refs_tainted = any(
            ref.index_secret or self._ref_data_tainted(ref)
            for ref in terminator.cond_refs
        )
        if not (cond_tainted or refs_tainted):
            return
        region = self._control_region(name)
        fresh = region - self._control
        parent: tuple = (
            (_TEMP, terminator.cond.name)
            if isinstance(terminator.cond, Temp)
            and terminator.cond.name in tainted
            else (_CONTROL, name)
        )
        if parent == (_CONTROL, name) and refs_tainted:
            for ref in terminator.cond_refs:
                if ref.symbol in self.secret_symbols:
                    parent = (_SECRET, ref.symbol)
                    break
        for block in sorted(region):
            self._edge(
                (_CONTROL, block),
                parent,
                BlameStep(
                    block=name,
                    instruction_index=-1,
                    line=terminator.line,
                    kind="control",
                    detail=f"{block!r} is control-dependent on {terminator}",
                ),
            )
        if fresh:
            self._control.update(fresh)
            self._pending_requeues.extend(sorted(fresh))

    def _control_region(self, branch: str) -> set[str]:
        """Blocks control-dependent on ``branch``: everything reachable
        from either target before the branch's immediate post-dominator."""
        stop = self._pdom.get(branch)
        block = self.cfg.block(branch)
        terminator = block.terminator
        assert isinstance(terminator, CondBranch)
        region: set[str] = set()
        stack = [t for t in terminator.targets() if t != stop]
        while stack:
            name = stack.pop()
            if name in region:
                continue
            region.add(name)
            for successor in self._successors[name]:
                if successor != stop and successor not in region:
                    stack.append(successor)
        return region


def analyze_taint(program) -> TaintResult:
    """Solve secret-taint dataflow for a compiled program's entry CFG."""
    return TaintAnalysis(
        program.cfg, program.layout, program.info.secret_symbols
    ).solve()
