"""IR lint/verifier: structural well-formedness checks for CFGs.

:meth:`~repro.ir.cfg.CFG.validate` raises on the first structural
violation; this module instead collects *every* defect as a structured
:class:`LintFinding`, adds checks the raising validator does not cover
(terminator objects buried inside a block, fences in the terminator
slot, memory references to symbols the layout never declared,
dominator/post-dominator sanity), and renders them for humans or JSON.

Three entry points:

* :func:`verify_cfg` — lint one CFG (optionally against a memory layout);
* :func:`verify_program` — lint every function of a compiled program,
  layout included;
* :func:`assert_valid_ir` — raise :class:`~repro.errors.VerificationError`
  when a program has findings.  The front end calls this after every
  compile when ``REPRO_DEBUG_VERIFY`` is set, so a frontend, unroll,
  inline, or fence-patching bug fails fast instead of corrupting a
  fixpoint downstream.

Checks are phased: graph-level analyses (reachability, dominators) are
only attempted once the block-structural phase is clean, because a
dangling successor makes every traversal throw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError, VerificationError
from repro.ir.cfg import CFG
from repro.ir.instructions import CondBranch, Fence, MemoryRef, Terminator
from repro.ir.memory import MemoryLayout

#: Environment knob: when truthy, :func:`repro.frontend.compile_source`
#: verifies every program it produces and raises on findings.
DEBUG_VERIFY_ENV = "REPRO_DEBUG_VERIFY"

#: Finding codes, stable identifiers for tooling and regression tests.
MISSING_ENTRY = "missing-entry"
BLOCK_KEY_MISMATCH = "block-key-mismatch"
MISSING_TERMINATOR = "missing-terminator"
DANGLING_SUCCESSOR = "dangling-successor"
MID_BLOCK_TERMINATOR = "mid-block-terminator"
FENCE_AS_TERMINATOR = "fence-as-terminator"
BAD_TERMINATOR = "bad-terminator"
NO_RETURN = "no-return"
UNDECLARED_SYMBOL = "undeclared-symbol"
MALFORMED_REF = "malformed-ref"
DOMINATOR_SANITY = "dominator-sanity"
POSTDOMINATOR_SANITY = "postdominator-sanity"
GRAPH_ERROR = "graph-error"


@dataclass(frozen=True)
class LintFinding:
    """One verifier defect, anchored to a function and (usually) a block."""

    code: str
    function: str
    block: str | None
    message: str
    line: int = 0

    def render(self) -> str:
        where = self.function if self.block is None else f"{self.function}:{self.block}"
        suffix = f" (line {self.line})" if self.line else ""
        return f"[{self.code}] {where}: {self.message}{suffix}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "function": self.function,
            "block": self.block,
            "message": self.message,
            "line": self.line,
        }


def _check_ref(
    cfg_name: str,
    block: str,
    ref: MemoryRef,
    layout: MemoryLayout,
    findings: list[LintFinding],
    context: str,
) -> None:
    kind = "store to" if ref.is_write else "load from"
    if not layout.has_symbol(ref.symbol):
        findings.append(
            LintFinding(
                code=UNDECLARED_SYMBOL,
                function=cfg_name,
                block=block,
                message=f"{context}{kind} undeclared memory block {ref.symbol!r}",
                line=ref.line,
            )
        )
    if ref.element_size < 0 or (ref.index_const is not None and ref.index_const < 0):
        findings.append(
            LintFinding(
                code=MALFORMED_REF,
                function=cfg_name,
                block=block,
                message=f"{context}malformed reference {ref}",
                line=ref.line,
            )
        )


def _structural_findings(cfg: CFG, layout: MemoryLayout | None) -> list[LintFinding]:
    findings: list[LintFinding] = []
    if cfg.entry not in cfg.blocks:
        findings.append(
            LintFinding(
                code=MISSING_ENTRY,
                function=cfg.name,
                block=None,
                message=f"entry block {cfg.entry!r} is not in the graph",
            )
        )
    for name, block in cfg.blocks.items():
        if block.name != name:
            findings.append(
                LintFinding(
                    code=BLOCK_KEY_MISMATCH,
                    function=cfg.name,
                    block=name,
                    message=f"block is keyed {name!r} but names itself {block.name!r}",
                )
            )
        for index, instruction in enumerate(block.instructions):
            if isinstance(instruction, Terminator):
                findings.append(
                    LintFinding(
                        code=MID_BLOCK_TERMINATOR,
                        function=cfg.name,
                        block=name,
                        message=(
                            f"terminator {instruction!s} appears mid-block "
                            f"at instruction {index}"
                        ),
                        line=instruction.line,
                    )
                )
            elif layout is not None:
                for ref in instruction.memory_refs():
                    _check_ref(cfg.name, name, ref, layout, findings, "")
        terminator = block.terminator
        if terminator is None:
            findings.append(
                LintFinding(
                    code=MISSING_TERMINATOR,
                    function=cfg.name,
                    block=name,
                    message="block has no terminator",
                )
            )
            continue
        if not isinstance(terminator, Terminator):
            # A fence is an ordinary instruction — legal only *inside* a
            # block; finding one (or any non-terminator) in the terminator
            # slot means a patching pass dropped the real control flow.
            code = FENCE_AS_TERMINATOR if isinstance(terminator, Fence) else BAD_TERMINATOR
            what = (
                "fence placed outside the instruction list, in the terminator slot"
                if isinstance(terminator, Fence)
                else f"terminator slot holds a non-terminator {terminator!s}"
            )
            findings.append(
                LintFinding(
                    code=code,
                    function=cfg.name,
                    block=name,
                    message=what,
                    line=getattr(terminator, "line", 0),
                )
            )
            continue
        for target in terminator.targets():
            if target not in cfg.blocks:
                findings.append(
                    LintFinding(
                        code=DANGLING_SUCCESSOR,
                        function=cfg.name,
                        block=name,
                        message=f"branches to unknown block {target!r}",
                        line=terminator.line,
                    )
                )
        if layout is not None and isinstance(terminator, CondBranch):
            for ref in terminator.cond_refs:
                _check_ref(cfg.name, name, ref, layout, findings, "condition ")
    if not findings and not cfg.exit_blocks():
        findings.append(
            LintFinding(
                code=NO_RETURN,
                function=cfg.name,
                block=None,
                message="function has no return block",
            )
        )
    return findings


def _chain_reaches(start: str, tree: dict, goal: str | None, limit: int) -> bool:
    """Follow single-parent ``tree`` links from ``start``; True when the
    walk ends at ``goal`` (or at ``None`` when goal is None) within
    ``limit`` steps — i.e. the chain is acyclic and properly rooted."""
    node: str | None = start
    for _ in range(limit + 1):
        if node == goal:
            return True
        if node is None:
            return goal is None
        node = tree.get(node)
    return False


def _graph_findings(cfg: CFG) -> list[LintFinding]:
    """Dominator/post-dominator sanity; only meaningful on a graph the
    structural phase accepted."""
    findings: list[LintFinding] = []
    try:
        graph = cfg.graph()
        reachable = graph.reachable
        idom = graph.idom
        limit = len(reachable) + 1
        for block in reachable:
            if block == cfg.entry:
                if idom.get(block) is not None:
                    findings.append(
                        LintFinding(
                            code=DOMINATOR_SANITY,
                            function=cfg.name,
                            block=block,
                            message=(
                                f"entry block has an immediate dominator "
                                f"{idom[block]!r}"
                            ),
                        )
                    )
            elif not _chain_reaches(block, idom, None, limit):
                findings.append(
                    LintFinding(
                        code=DOMINATOR_SANITY,
                        function=cfg.name,
                        block=block,
                        message="immediate-dominator chain does not terminate",
                    )
                )
        pdom = graph.ipdom
        for block in reachable:
            if not _chain_reaches(block, pdom, None, limit):
                findings.append(
                    LintFinding(
                        code=POSTDOMINATOR_SANITY,
                        function=cfg.name,
                        block=block,
                        message="immediate-postdominator chain does not terminate",
                    )
                )
    except ReproError as error:
        findings.append(
            LintFinding(
                code=GRAPH_ERROR,
                function=cfg.name,
                block=None,
                message=f"graph analysis failed: {error}",
            )
        )
    return findings


def verify_cfg(cfg: CFG, layout: MemoryLayout | None = None) -> list[LintFinding]:
    """Lint one CFG; returns every finding (empty list when clean)."""
    findings = _structural_findings(cfg, layout)
    if findings:
        # Traversals are unsafe on a structurally broken graph (a dangling
        # successor throws inside reachable_blocks); report what we have.
        return findings
    return _graph_findings(cfg)


def verify_program(program) -> list[LintFinding]:
    """Lint a :class:`~repro.frontend.CompiledProgram`: the analysed entry
    CFG plus every non-entry function, all against the program's memory
    layout."""
    findings = verify_cfg(program.cfg, program.layout)
    for name, cfg in program.cfgs.items():
        if name == program.cfg.name:
            continue  # the analysed graph already covers the entry function
        findings.extend(verify_cfg(cfg, program.layout))
    from repro.obs import metrics

    registry = metrics()
    registry.counter("lint.runs").inc()
    if findings:
        registry.counter("lint.findings").inc(len(findings))
    return findings


def assert_valid_ir(program) -> None:
    """Raise :class:`VerificationError` when ``program`` has findings."""
    findings = verify_program(program)
    if findings:
        rendered = "; ".join(finding.render() for finding in findings[:5])
        more = f" (+{len(findings) - 5} more)" if len(findings) > 5 else ""
        raise VerificationError(
            f"IR verification failed with {len(findings)} finding(s): "
            f"{rendered}{more}",
            findings=tuple(findings),
        )


def debug_verify_enabled() -> bool:
    """Whether compile-time verification is forced on by the environment."""
    return os.environ.get(DEBUG_VERIFY_ENV, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )
