"""Lowering from the MiniC AST to the basic-block IR.

The lowerer performs light constant folding and constant propagation
(tracking known constant values of scalar variables within straight-line
regions) so that array indices written with loop counters of fully
unrolled loops resolve to concrete memory blocks.  Indices that remain
unknown produce :class:`MemoryRef` objects with ``index_const=None``,
which the cache analysis treats with the paper's conservative
fresh-line-per-access convention.

Each function is lowered by one :class:`FunctionLowerer`, which derives
each fact once: a name's symbol facts (array or scalar, in memory or
not, element size) on the name's first use, and, per AST node by
identity, what does not depend on the constant environment (whether an
index expression is secret, and the :class:`MemoryRef` of a scalar
access or of an element access whose index stays unknown).  An unrolled
loop repeats one body object per iteration, so these memos serve every
iteration after the first; what does depend on the counter's value
(folded constants, element indexes, temporaries) is derived again for
each iteration, since each binds the counter to a new constant.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from repro.errors import LoweringError
from repro.lang import ast
from repro.lang.fold import fold_binary, fold_unary
from repro.lang.typecheck import ProgramInfo
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


class _Value(NamedTuple):
    """An expression's lowered value: its operand, its value when known,
    and the memory references its evaluation loads, in evaluation order
    (repeats included)."""

    operand: Operand
    const: int | None
    refs: tuple[MemoryRef, ...]


#: Builds a :class:`_Value` from its three fields without the keyword-
#: binding constructor (every expression node passes here).
_new = tuple.__new__


def _cond_refs(refs: tuple[MemoryRef, ...]) -> tuple[MemoryRef, ...]:
    """A condition's refs as :attr:`CondBranch.cond_refs` records them:
    each once, sorted by ``str`` and, among refs that print alike, in
    evaluation order."""
    if not refs:
        return ()
    return tuple(sorted(dict.fromkeys(refs), key=str))


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
        self._temps = count(1)
        self._block_counter = 0
        self._current = self.cfg.add_block(BasicBlock("entry"))
        self._emit = self._current.instructions.append
        # Known constant values of scalar variables (both reg and in-memory).
        self._const_env: dict[str, int] = {}
        # Dedicated temporaries backing ``reg`` variables and parameters that
        # are register allocated.
        self._reg_temps: dict[str, Temp] = {}
        # (break target, continue target) for enclosing loops.
        self._loop_stack: list[tuple[str, str]] = []
        # Per name: (is_array, in_memory, element_size).
        self._names: dict[str, tuple[bool, bool, int]] = {}
        # Per AST node id, for nodes of ``function``'s tree only (which
        # outlives the lowerer, so no id is reused meanwhile):
        # index expression -> secret?
        self._secret_index: dict[int, bool] = {}
        # scalar read or write, or element access with an unknown index
        # -> the 1-tuple of its MemoryRef
        self._refs: dict[int, tuple[MemoryRef]] = {}
        # loop -> names assigned in its body (and step)
        self._assigned: dict[int, tuple[str, ...]] = {}
        # constant -> its value, with one interned Const operand
        self._consts: dict[int, _Value] = {}
        self._initializers = info.array_initializers
        self._secret_symbols = info.secret_symbols

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def lower(self) -> CFG:
        self._lower_statements(self.function.body.statements)
        if not self._current.is_terminated:
            self._current.terminator = Return(None)
        self._prune_unreachable()
        self.cfg.validate()
        return self.cfg

    # ------------------------------------------------------------------
    # Fresh names
    # ------------------------------------------------------------------
    def _new_temp(self) -> Temp:
        return Temp(f"t{next(self._temps)}")

    def _new_block(self, hint: str) -> BasicBlock:
        self._block_counter += 1
        name = f"{hint}{self._block_counter}"
        block = self.cfg.blocks[name] = BasicBlock(name)
        return block

    def _set_current(self, block: BasicBlock) -> None:
        self._current = block
        self._emit = block.instructions.append

    def _const(self, value: int) -> _Value:
        found = self._consts.get(value)
        if found is None:
            found = self._consts[value] = _new(_Value, (Const(value), value, ()))
        return found

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------
    def _facts(self, name: str, node: ast.Node) -> tuple[bool, bool, int]:
        """``(is_array, in_memory, element_size)`` of ``name``."""
        facts = self._names.get(name)
        if facts is None:
            symbol = self.table.lookup(name)
            if symbol is None:
                raise LoweringError(f"unknown symbol {name!r} at line {node.line}")
            facts = self._names[name] = (
                symbol.is_array,
                symbol.in_memory,
                symbol.element_size,
            )
        return facts

    def _reg_temp(self, name: str) -> Temp:
        temp = self._reg_temps.get(name)
        if temp is None:
            temp = self._reg_temps[name] = Temp(f"r_{name}")
        return temp

    def _index_is_secret(self, index: ast.Expr) -> bool:
        secret = self._secret_index.get(id(index))
        if secret is None:
            symbols = self._secret_symbols
            secret = self._secret_index[id(index)] = any(
                (type(node) is ast.Identifier and node.name in symbols)
                or (type(node) is ast.Index and node.array in symbols)
                for node in ast.walk_expr(index)
            )
        return secret

    def _scalar_ref(
        self, node: ast.Node, name: str, is_write: bool, size: int
    ) -> tuple[MemoryRef]:
        refs = self._refs.get(id(node))
        if refs is None:
            refs = self._refs[id(node)] = (MemoryRef(name, is_write, 0, False, size, node.line),)
        return refs

    def _element_ref(
        self,
        node: ast.Node,
        array: str,
        is_write: bool,
        const: int | None,
        index: ast.Expr,
        size: int,
    ) -> MemoryRef:
        if const is not None:
            return MemoryRef(array, is_write, const, self._index_is_secret(index), size, node.line)
        refs = self._refs.get(id(node))
        if refs is None:
            refs = self._refs[id(node)] = (
                MemoryRef(array, is_write, None, self._index_is_secret(index), size, node.line),
            )
        return refs[0]

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _lower_statements(self, statements: list[ast.Stmt]) -> None:
        for stmt in statements:
            handler = _STATEMENTS.get(type(stmt))
            if handler is None:
                raise LoweringError(f"unsupported statement {type(stmt).__name__}")
            handler(self, stmt)

    def _lower_block(self, block: ast.Block) -> None:
        self._lower_statements(block.statements)

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.init is not None:
            self._lower_assign_to_scalar(stmt.name, stmt.init, stmt)

    def _lower_array_decl(self, stmt: ast.ArrayDecl) -> None:
        # Local array declarations generate no code; their contents are
        # whatever memory held before (matching an uninitialised C array).
        pass

    def _lower_expression_statement(self, stmt: ast.ExprStatement) -> None:
        self._lower_expression(stmt.expr)

    def _lower_fence(self, stmt: ast.Fence) -> None:
        self._emit(Fence(line=stmt.line))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if type(target) is ast.Identifier:
            self._lower_assign_to_scalar(target.name, stmt.value, stmt)
        elif type(target) is ast.Index:
            self._lower_assign_to_element(target, stmt.value, stmt)
        else:
            raise LoweringError(f"invalid assignment target at line {stmt.line}")

    def _lower_assign_to_scalar(self, name: str, value: ast.Expr, node: ast.Node) -> None:
        _, in_memory, size = self._facts(name, node)
        result = self._lower_expression(value)
        if in_memory:
            ref = self._scalar_ref(node, name, True, size)[0]
            self._emit(Store(ref, result.operand, line=node.line))
        else:
            self._emit(Copy(self._reg_temp(name), result.operand, line=node.line))
        if result.const is not None:
            self._const_env[name] = result.const
        else:
            self._const_env.pop(name, None)

    def _lower_assign_to_element(self, target: ast.Index, value: ast.Expr, node: ast.Node) -> None:
        array = target.array
        is_array, in_memory, size = self._facts(array, node)
        if not is_array:
            raise LoweringError(f"{array!r} is not an array (line {node.line})")
        index = self._lower_expression(target.index)
        result = self._lower_expression(value)
        if in_memory:
            ref = self._element_ref(node, array, True, index.const, target.index, size)
            self._emit(Store(ref, result.operand, index.operand, line=node.line))

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_expression(stmt.cond)
        then_block = self._new_block("then")
        join_block = self._new_block("join")
        else_block = self._new_block("else") if stmt.else_body is not None else join_block
        self._current.terminator = CondBranch(
            cond.operand,
            then_block.name,
            else_block.name,
            _cond_refs(cond.refs),
            line=stmt.line,
        )
        env_before = self._const_env

        self._set_current(then_block)
        self._const_env = dict(env_before)
        self._lower_statements(stmt.then_body.statements)
        env_after_then = self._const_env
        if not self._current.is_terminated:
            self._current.terminator = Jump(join_block.name, line=stmt.line)

        env_after_else = env_before
        if stmt.else_body is not None:
            self._set_current(else_block)
            self._const_env = dict(env_before)
            self._lower_statements(stmt.else_body.statements)
            env_after_else = self._const_env
            if not self._current.is_terminated:
                self._current.terminator = Jump(join_block.name, line=stmt.line)

        self._set_current(join_block)
        self._const_env = {
            name: value
            for name, value in env_after_then.items()
            if env_after_else.get(name) == value
        }

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block("while.header")
        body = self._new_block("while.body")
        exit_block = self._new_block("while.exit")
        self._current.terminator = Jump(header.name, line=stmt.line)

        self._invalidate_assigned(stmt, (stmt.body,))
        self._set_current(header)
        cond = self._lower_expression(stmt.cond)
        # Condition lowering never splits blocks.
        self._current.terminator = CondBranch(
            cond.operand,
            body.name,
            exit_block.name,
            _cond_refs(cond.refs),
            line=stmt.line,
        )

        self._loop_stack.append((exit_block.name, header.name))
        self._set_current(body)
        self._lower_statements(stmt.body.statements)
        if not self._current.is_terminated:
            self._current.terminator = Jump(header.name, line=stmt.line)
        self._loop_stack.pop()

        self._set_current(exit_block)
        self._invalidate_assigned(stmt, (stmt.body,))

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_statements((stmt.init,))
        header = self._new_block("for.header")
        body = self._new_block("for.body")
        step_block = self._new_block("for.step")
        exit_block = self._new_block("for.exit")
        self._current.terminator = Jump(header.name, line=stmt.line)

        body_and_step = (stmt.body, stmt.step) if stmt.step is not None else (stmt.body,)
        self._invalidate_assigned(stmt, body_and_step)

        self._set_current(header)
        if stmt.cond is not None:
            cond = self._lower_expression(stmt.cond)
            self._current.terminator = CondBranch(
                cond.operand,
                body.name,
                exit_block.name,
                _cond_refs(cond.refs),
                line=stmt.line,
            )
        else:
            self._current.terminator = Jump(body.name, line=stmt.line)

        self._loop_stack.append((exit_block.name, step_block.name))
        self._set_current(body)
        self._lower_statements(stmt.body.statements)
        if not self._current.is_terminated:
            self._current.terminator = Jump(step_block.name, line=stmt.line)
        self._loop_stack.pop()

        self._set_current(step_block)
        if stmt.step is not None:
            self._lower_statements((stmt.step,))
        if not self._current.is_terminated:
            self._current.terminator = Jump(header.name, line=stmt.line)

        self._set_current(exit_block)
        self._invalidate_assigned(stmt, body_and_step)

    def _lower_return(self, stmt: ast.Return) -> None:
        operand: Operand | None = None
        if stmt.value is not None:
            operand = self._lower_expression(stmt.value).operand
        self._current.terminator = Return(operand, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _lower_break(self, stmt: ast.Break) -> None:
        if not self._loop_stack:
            raise LoweringError(f"'break' outside of a loop at line {stmt.line}")
        break_target, _ = self._loop_stack[-1]
        self._current.terminator = Jump(break_target, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _lower_continue(self, stmt: ast.Continue) -> None:
        if not self._loop_stack:
            raise LoweringError(f"'continue' outside of a loop at line {stmt.line}")
        _, continue_target = self._loop_stack[-1]
        self._current.terminator = Jump(continue_target, line=stmt.line)
        self._set_current(self._new_block("dead"))

    def _invalidate_assigned(self, loop: ast.Stmt, parts: tuple[ast.Stmt, ...]) -> None:
        """Drop constant knowledge about variables assigned inside ``parts``
        (the body, and step, of ``loop``)."""
        names = self._assigned.get(id(loop))
        if names is None:
            found: list[str] = []
            for part in parts:
                for child in ast.walk_statements(part):
                    if type(child) is ast.Assign and type(child.target) is ast.Identifier:
                        found.append(child.target.name)
                    elif type(child) is ast.VarDecl:
                        found.append(child.name)
            names = self._assigned[id(loop)] = tuple(found)
        env = self._const_env
        for name in names:
            env.pop(name, None)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _lower_expression(self, expr: ast.Expr) -> _Value:
        handler = _EXPRESSIONS.get(type(expr))
        if handler is None:
            raise LoweringError(f"unsupported expression {type(expr).__name__}")
        return handler(self, expr)

    def _lower_int(self, expr: ast.IntLiteral) -> _Value:
        return self._const(expr.value)

    def _lower_identifier(self, expr: ast.Identifier) -> _Value:
        name = expr.name
        is_array, in_memory, size = self._facts(name, expr)
        if is_array:
            raise LoweringError(
                f"array {name!r} used as a scalar value at line {expr.line}"
            )
        const = self._const_env.get(name)
        if in_memory:
            refs = self._scalar_ref(expr, name, False, size)
            dest = self._new_temp()
            self._emit(Load(dest, refs[0], line=expr.line))
            return _new(_Value, (dest, const, refs))
        return _new(_Value, (self._reg_temp(name), const, ()))

    def _lower_index(self, expr: ast.Index) -> _Value:
        array = expr.array
        is_array, in_memory, size = self._facts(array, expr)
        if not is_array:
            raise LoweringError(f"{array!r} is not an array (line {expr.line})")
        index = self._lower_expression(expr.index)
        dest = self._new_temp()
        at = index.const
        refs = index.refs
        if in_memory:
            ref = self._element_ref(expr, array, False, at, expr.index, size)
            self._emit(Load(dest, ref, index.operand, line=expr.line))
            refs = refs + (ref,)
        # Constant-initialised global arrays with a known index yield a known
        # value, which keeps downstream indices precise (e.g. sbox chains).
        const: int | None = None
        if at is not None:
            init = self._initializers.get(array)
            if init is not None and 0 <= at < len(init):
                const = init[at]
        return _new(_Value, (dest, const, refs))

    def _lower_binary(self, expr: ast.BinaryOp) -> _Value:
        left = self._lower_expression(expr.left)
        right = self._lower_expression(expr.right)
        refs = left.refs + right.refs if left.refs else right.refs
        const = None
        if left.const is not None and right.const is not None:
            const = fold_binary(expr.op, left.const, right.const)
            if const is not None and not refs:
                return self._const(const)
        dest = self._new_temp()
        # When the value folded, the loads still had to happen.
        self._emit(BinOp(dest, expr.op, left.operand, right.operand, line=expr.line))
        return _new(_Value, (dest, const, refs))

    def _lower_unary(self, expr: ast.UnaryOp) -> _Value:
        operand = self._lower_expression(expr.operand)
        const: int | None = None
        if operand.const is not None:
            const = fold_unary(expr.op, operand.const)
            if const is not None and not operand.refs:
                return self._const(const)
        dest = self._new_temp()
        self._emit(UnOp(dest, expr.op, operand.operand, line=expr.line))
        return _new(_Value, (dest, const, operand.refs))

    def _lower_call(self, expr: ast.Call) -> _Value:
        args: list[Operand] = []
        refs: tuple[MemoryRef, ...] = ()
        first_const: int | None = None
        for arg in expr.args:
            value = self._lower_expression(arg)
            if not args:
                first_const = value.const
            args.append(value.operand)
            if value.refs:
                refs = refs + value.refs
        dest = self._new_temp()
        self._emit(CallInstr(dest, expr.name, tuple(args), line=expr.line))
        const: int | None = None
        if expr.name in ("my_abs", "abs") and len(args) == 1 and first_const is not None:
            const = abs(first_const)
        return _new(_Value, (dest, const, refs))

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def _prune_unreachable(self) -> None:
        # Give any unterminated (dead) block a return so validation holds,
        # then drop everything unreachable from the entry.
        for block in self.cfg.blocks.values():
            if not block.is_terminated:
                block.terminator = Return(None)
        reachable = self.cfg.graph().reachable_set
        self.cfg.blocks = {
            name: block for name, block in self.cfg.blocks.items() if name in reachable
        }


#: Statement and expression handlers by node class.
_STATEMENTS = {
    ast.Block: FunctionLowerer._lower_block,
    ast.VarDecl: FunctionLowerer._lower_var_decl,
    ast.ArrayDecl: FunctionLowerer._lower_array_decl,
    ast.Assign: FunctionLowerer._lower_assign,
    ast.ExprStatement: FunctionLowerer._lower_expression_statement,
    ast.If: FunctionLowerer._lower_if,
    ast.While: FunctionLowerer._lower_while,
    ast.For: FunctionLowerer._lower_for,
    ast.Fence: FunctionLowerer._lower_fence,
    ast.Return: FunctionLowerer._lower_return,
    ast.Break: FunctionLowerer._lower_break,
    ast.Continue: FunctionLowerer._lower_continue,
}
_EXPRESSIONS = {
    ast.IntLiteral: FunctionLowerer._lower_int,
    ast.Identifier: FunctionLowerer._lower_identifier,
    ast.Index: FunctionLowerer._lower_index,
    ast.BinaryOp: FunctionLowerer._lower_binary,
    ast.UnaryOp: FunctionLowerer._lower_unary,
    ast.Call: FunctionLowerer._lower_call,
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
