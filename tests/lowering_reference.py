"""The AST-to-IR lowering that :mod:`repro.ir.lowering` replaced, kept
verbatim below as a differential oracle (``tests/test_frontend_differential.py``).
Its constant fold truncates through float division and its condition
refs keep ``frozenset`` order among refs that print alike, so the
differential compares it on programs where neither shows.

Lowering from the MiniC AST to the basic-block IR.

The lowerer performs light constant folding and constant propagation
(tracking known constant values of scalar variables within straight-line
regions) so that array indices written with loop counters of fully
unrolled loops resolve to concrete memory blocks.  Indices that remain
unknown produce :class:`MemoryRef` objects with ``index_const=None``,
which the cache analysis treats with the paper's conservative
fresh-line-per-access convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoweringError
from repro.lang import ast
from repro.lang.typecheck import INTRINSIC_FUNCTIONS, ProgramInfo, Symbol
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    BinOp,
    CallInstr,
    CondBranch,
    Const,
    Copy,
    Fence,
    Jump,
    Load,
    MemoryRef,
    Operand,
    Return,
    Store,
    Temp,
    UnOp,
)

_FOLDABLE_OPS = {
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=", "&&", "||",
}


def _fold(op: str, left: int, right: int) -> int | None:
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return int(left / right) if right != 0 else None
        if op == "%":
            return left - int(left / right) * right if right != 0 else None
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "&&":
            return int(bool(left) and bool(right))
        if op == "||":
            return int(bool(left) or bool(right))
    except ValueError:
        return None
    return None


@dataclass
class _ExprValue:
    """Result of lowering an expression."""

    operand: Operand
    const: int | None = None
    refs: frozenset[MemoryRef] = field(default_factory=frozenset)


class FunctionLowerer:
    """Lowers one :class:`FunctionDef` into a :class:`CFG`."""

    def __init__(self, function: ast.FunctionDef, info: ProgramInfo):
        self.function = function
        self.info = info
        func_info = info.functions.get(function.name)
        if func_info is None:
            raise LoweringError(f"function {function.name!r} was not type-checked")
        self.table = func_info.table
        self.cfg = CFG(
            name=function.name,
            entry="entry",
            params=[param.name for param in function.params],
        )
        self._temp_counter = 0
        self._block_counter = 0
        self._current = self.cfg.add_block(BasicBlock("entry"))
        # Known constant values of scalar variables (both reg and in-memory).
        self._const_env: dict[str, int] = {}
        # Known constant values of temporaries.
        self._temp_const: dict[Temp, int] = {}
        # Dedicated temporaries backing ``reg`` variables and parameters that
        # are register allocated.
        self._reg_temps: dict[str, Temp] = {}
        # (break target, continue target) for enclosing loops.
        self._loop_stack: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def lower(self) -> CFG:
        self._lower_block(self.function.body)
        if not self._current.is_terminated:
            self._current.terminator = Return(value=None)
        self._prune_unreachable()
        self.cfg.validate()
        return self.cfg

    # ------------------------------------------------------------------
    # Fresh names
    # ------------------------------------------------------------------
    def _new_temp(self) -> Temp:
        self._temp_counter += 1
        return Temp(f"t{self._temp_counter}")

    def _new_block(self, hint: str) -> BasicBlock:
        self._block_counter += 1
        return self.cfg.add_block(BasicBlock(f"{hint}{self._block_counter}"))

    def _set_current(self, block: BasicBlock) -> None:
        self._current = block

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------
    def _symbol(self, name: str, node: ast.Node) -> Symbol:
        symbol = self.table.lookup(name)
        if symbol is None:
            raise LoweringError(f"unknown symbol {name!r} at line {node.line}")
        return symbol

    def _reg_temp(self, name: str) -> Temp:
        if name not in self._reg_temps:
            self._reg_temps[name] = Temp(f"r_{name}")
        return self._reg_temps[name]

    def _index_is_secret(self, index: ast.Expr) -> bool:
        for node in ast.walk_expr(index):
            if isinstance(node, ast.Identifier) and self.info.is_secret(node.name):
                return True
            if isinstance(node, ast.Index) and self.info.is_secret(node.array):
                return True
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._lower_statement(stmt)

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self._lower_assign_to_scalar(stmt.name, stmt.init, stmt)
        elif isinstance(stmt, ast.ArrayDecl):
            # Local array declarations generate no code; their contents are
            # whatever memory held before (matching an uninitialised C array).
            pass
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStatement):
            self._lower_expression(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Fence):
            self._current.append(Fence(line=stmt.line))
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._lower_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._lower_continue(stmt)
        else:
            raise LoweringError(f"unsupported statement {type(stmt).__name__}")

    def _lower_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.Identifier):
            self._lower_assign_to_scalar(stmt.target.name, stmt.value, stmt)
        elif isinstance(stmt.target, ast.Index):
            self._lower_assign_to_element(stmt.target, stmt.value, stmt)
        else:
            raise LoweringError(f"invalid assignment target at line {stmt.line}")

    def _lower_assign_to_scalar(self, name: str, value: ast.Expr, node: ast.Node) -> None:
        symbol = self._symbol(name, node)
        result = self._lower_expression(value)
        if symbol.in_memory:
            ref = MemoryRef(
                symbol=name,
                is_write=True,
                index_const=0,
                element_size=symbol.element_size,
                line=node.line,
            )
            self._current.append(Store(ref=ref, value=result.operand, line=node.line))
        else:
            dest = self._reg_temp(name)
            self._current.append(Copy(dest=dest, src=result.operand, line=node.line))
        if result.const is not None:
            self._const_env[name] = result.const
        else:
            self._const_env.pop(name, None)

    def _lower_assign_to_element(self, target: ast.Index, value: ast.Expr, node: ast.Node) -> None:
        symbol = self._symbol(target.array, node)
        if not symbol.is_array:
            raise LoweringError(f"{target.array!r} is not an array (line {node.line})")
        index = self._lower_expression(target.index)
        result = self._lower_expression(value)
        ref = MemoryRef(
            symbol=target.array,
            is_write=True,
            index_const=index.const,
            index_secret=self._index_is_secret(target.index),
            element_size=symbol.element_size,
            line=node.line,
        )
        if symbol.in_memory:
            self._current.append(
                Store(
                    ref=ref,
                    value=result.operand,
                    index_operand=index.operand,
                    line=node.line,
                )
            )

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_expression(stmt.cond)
        then_block = self._new_block("then")
        join_block = self._new_block("join")
        else_block = self._new_block("else") if stmt.else_body is not None else join_block
        self._current.terminator = CondBranch(
            cond=cond.operand,
            true_target=then_block.name,
            false_target=else_block.name,
            cond_refs=tuple(sorted(cond.refs, key=str)),
            line=stmt.line,
        )
        env_before = dict(self._const_env)

        self._set_current(then_block)
        self._const_env = dict(env_before)
        self._lower_block(stmt.then_body)
        env_after_then = dict(self._const_env)
        if not self._current.is_terminated:
            self._current.terminator = Jump(target=join_block.name, line=stmt.line)

        env_after_else = dict(env_before)
        if stmt.else_body is not None:
            self._set_current(else_block)
            self._const_env = dict(env_before)
            self._lower_block(stmt.else_body)
            env_after_else = dict(self._const_env)
            if not self._current.is_terminated:
                self._current.terminator = Jump(target=join_block.name, line=stmt.line)

        self._set_current(join_block)
        self._const_env = {
            name: value
            for name, value in env_after_then.items()
            if env_after_else.get(name) == value
        }
        self._temp_const = {}

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block("while.header")
        body = self._new_block("while.body")
        exit_block = self._new_block("while.exit")
        self._current.terminator = Jump(target=header.name, line=stmt.line)

        self._invalidate_assigned(stmt.body)
        self._set_current(header)
        cond = self._lower_expression(stmt.cond)
        header_exit = self._current  # condition lowering never splits blocks
        header_exit.terminator = CondBranch(
            cond=cond.operand,
            true_target=body.name,
            false_target=exit_block.name,
            cond_refs=tuple(sorted(cond.refs, key=str)),
            line=stmt.line,
        )

        self._loop_stack.append((exit_block.name, header.name))
        self._set_current(body)
        self._lower_block(stmt.body)
        if not self._current.is_terminated:
            self._current.terminator = Jump(target=header.name, line=stmt.line)
        self._loop_stack.pop()

        self._set_current(exit_block)
        self._invalidate_assigned(stmt.body)
        self._temp_const = {}

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_statement(stmt.init)
        header = self._new_block("for.header")
        body = self._new_block("for.body")
        step_block = self._new_block("for.step")
        exit_block = self._new_block("for.exit")
        self._current.terminator = Jump(target=header.name, line=stmt.line)

        loop_body_and_step = ast.Block(statements=[stmt.body] + ([stmt.step] if stmt.step else []))
        self._invalidate_assigned(loop_body_and_step)

        self._set_current(header)
        if stmt.cond is not None:
            cond = self._lower_expression(stmt.cond)
            self._current.terminator = CondBranch(
                cond=cond.operand,
                true_target=body.name,
                false_target=exit_block.name,
                cond_refs=tuple(sorted(cond.refs, key=str)),
                line=stmt.line,
            )
        else:
            self._current.terminator = Jump(target=body.name, line=stmt.line)

        self._loop_stack.append((exit_block.name, step_block.name))
        self._set_current(body)
        self._lower_block(stmt.body)
        if not self._current.is_terminated:
            self._current.terminator = Jump(target=step_block.name, line=stmt.line)
        self._loop_stack.pop()

        self._set_current(step_block)
        if stmt.step is not None:
            self._lower_statement(stmt.step)
        if not self._current.is_terminated:
            self._current.terminator = Jump(target=header.name, line=stmt.line)

        self._set_current(exit_block)
        self._invalidate_assigned(loop_body_and_step)
        self._temp_const = {}

    def _lower_return(self, stmt: ast.Return) -> None:
        operand: Operand | None = None
        if stmt.value is not None:
            operand = self._lower_expression(stmt.value).operand
        self._current.terminator = Return(value=operand, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _lower_break(self, stmt: ast.Break) -> None:
        if not self._loop_stack:
            raise LoweringError(f"'break' outside of a loop at line {stmt.line}")
        break_target, _ = self._loop_stack[-1]
        self._current.terminator = Jump(target=break_target, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _lower_continue(self, stmt: ast.Continue) -> None:
        if not self._loop_stack:
            raise LoweringError(f"'continue' outside of a loop at line {stmt.line}")
        _, continue_target = self._loop_stack[-1]
        self._current.terminator = Jump(target=continue_target, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _invalidate_assigned(self, stmt: ast.Stmt) -> None:
        """Drop constant knowledge about variables assigned inside ``stmt``."""
        for child in ast.walk_statements(stmt):
            name: str | None = None
            if isinstance(child, ast.Assign) and isinstance(child.target, ast.Identifier):
                name = child.target.name
            elif isinstance(child, ast.VarDecl):
                name = child.name
            if name is not None:
                self._const_env.pop(name, None)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _lower_expression(self, expr: ast.Expr) -> _ExprValue:
        if isinstance(expr, ast.IntLiteral):
            return _ExprValue(operand=Const(expr.value), const=expr.value)
        if isinstance(expr, ast.Identifier):
            return self._lower_identifier(expr)
        if isinstance(expr, ast.Index):
            return self._lower_index(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        raise LoweringError(f"unsupported expression {type(expr).__name__}")

    def _lower_identifier(self, expr: ast.Identifier) -> _ExprValue:
        symbol = self._symbol(expr.name, expr)
        if symbol.is_array:
            raise LoweringError(
                f"array {expr.name!r} used as a scalar value at line {expr.line}"
            )
        const = self._const_env.get(expr.name)
        if symbol.in_memory:
            dest = self._new_temp()
            ref = MemoryRef(
                symbol=expr.name,
                is_write=False,
                index_const=0,
                element_size=symbol.element_size,
                line=expr.line,
            )
            self._current.append(Load(dest=dest, ref=ref, line=expr.line))
            if const is not None:
                self._temp_const[dest] = const
            return _ExprValue(operand=dest, const=const, refs=frozenset({ref}))
        temp = self._reg_temp(expr.name)
        return _ExprValue(operand=temp, const=const)

    def _lower_index(self, expr: ast.Index) -> _ExprValue:
        symbol = self._symbol(expr.array, expr)
        if not symbol.is_array:
            raise LoweringError(f"{expr.array!r} is not an array (line {expr.line})")
        index = self._lower_expression(expr.index)
        dest = self._new_temp()
        ref = MemoryRef(
            symbol=expr.array,
            is_write=False,
            index_const=index.const,
            index_secret=self._index_is_secret(expr.index),
            element_size=symbol.element_size,
            line=expr.line,
        )
        if symbol.in_memory:
            self._current.append(
                Load(dest=dest, ref=ref, index_operand=index.operand, line=expr.line)
            )
            refs = index.refs | {ref}
        else:
            refs = index.refs
        # Constant-initialised global arrays with a known index yield a known
        # value, which keeps downstream indices precise (e.g. sbox chains).
        const: int | None = None
        init = self.info.array_initializers.get(expr.array)
        if init is not None and index.const is not None and 0 <= index.const < len(init):
            const = init[index.const]
            self._temp_const[dest] = const
        return _ExprValue(operand=dest, const=const, refs=refs)

    def _lower_binary(self, expr: ast.BinaryOp) -> _ExprValue:
        left = self._lower_expression(expr.left)
        right = self._lower_expression(expr.right)
        refs = left.refs | right.refs
        if (
            left.const is not None
            and right.const is not None
            and expr.op in _FOLDABLE_OPS
        ):
            folded = _fold(expr.op, left.const, right.const)
            if folded is not None and not refs:
                return _ExprValue(operand=Const(folded), const=folded, refs=refs)
            if folded is not None:
                # The loads still had to happen, but the value is known.
                dest = self._new_temp()
                self._current.append(
                    BinOp(dest=dest, op=expr.op, left=left.operand, right=right.operand, line=expr.line)
                )
                self._temp_const[dest] = folded
                return _ExprValue(operand=dest, const=folded, refs=refs)
        dest = self._new_temp()
        self._current.append(
            BinOp(dest=dest, op=expr.op, left=left.operand, right=right.operand, line=expr.line)
        )
        return _ExprValue(operand=dest, const=None, refs=refs)

    def _lower_unary(self, expr: ast.UnaryOp) -> _ExprValue:
        operand = self._lower_expression(expr.operand)
        const: int | None = None
        if operand.const is not None:
            if expr.op == "-":
                const = -operand.const
            elif expr.op == "~":
                const = ~operand.const
            elif expr.op == "!":
                const = int(not operand.const)
        if const is not None and not operand.refs:
            return _ExprValue(operand=Const(const), const=const)
        dest = self._new_temp()
        self._current.append(UnOp(dest=dest, op=expr.op, operand=operand.operand, line=expr.line))
        if const is not None:
            self._temp_const[dest] = const
        return _ExprValue(operand=dest, const=const, refs=operand.refs)

    def _lower_call(self, expr: ast.Call) -> _ExprValue:
        args: list[Operand] = []
        refs: frozenset[MemoryRef] = frozenset()
        arg_consts: list[int | None] = []
        for arg in expr.args:
            value = self._lower_expression(arg)
            args.append(value.operand)
            arg_consts.append(value.const)
            refs = refs | value.refs
        dest = self._new_temp()
        self._current.append(
            CallInstr(dest=dest, callee=expr.name, args=tuple(args), line=expr.line)
        )
        const: int | None = None
        if expr.name in ("my_abs", "abs") and len(arg_consts) == 1 and arg_consts[0] is not None:
            const = abs(arg_consts[0])
            self._temp_const[dest] = const
        if expr.name not in INTRINSIC_FUNCTIONS and not self.info.program.has_function(expr.name):
            # Unknown externals behave like intrinsics: opaque, no memory refs.
            pass
        return _ExprValue(operand=dest, const=const, refs=refs)

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def _prune_unreachable(self) -> None:
        # Give any unterminated (dead) block a return so validation holds,
        # then drop everything unreachable from the entry.
        for block in self.cfg.blocks.values():
            if not block.is_terminated:
                block.terminator = Return(value=None)
        reachable = self.cfg.graph().reachable_set
        self.cfg.blocks = {
            name: block for name, block in self.cfg.blocks.items() if name in reachable
        }


def lower_function(function: ast.FunctionDef, info: ProgramInfo) -> CFG:
    """Lower a single function to its CFG."""
    return FunctionLowerer(function, info).lower()


def lower_program(info: ProgramInfo) -> dict[str, CFG]:
    """Lower every function of a checked program.

    Returns a mapping from function name to CFG.
    """
    return {
        function.name: lower_function(function, info)
        for function in info.program.functions
    }
