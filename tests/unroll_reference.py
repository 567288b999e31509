"""The loop unrolling that :mod:`repro.ir.unroll` replaced, kept verbatim
below as a differential oracle (``tests/test_frontend_differential.py``).
Its constant fold rounds ``/`` and ``%`` down, so the differential
compares it on programs whose loop bounds divide no negative operand.

Full unrolling of fixed-trip-count loops.

The paper fully unrolls loops whose iteration count is statically known
("loops with fixed iteration number will be fully unrolled; only
unresolved loops will be widened", Section 6.3).  We perform the
transformation on the AST, before lowering: a ``for`` loop whose init,
condition and step match the counter pattern is replaced by a flat block
that re-assigns the counter to each constant value before the body (one
shared body object for every iteration).  The lowering's constant
propagation then resolves array indices written with the counter to
concrete memory blocks.

Loops containing ``break``/``continue`` (such as quantl's search loop in
Figure 8) are left untouched — exactly as in the paper's running example,
where the loop is *not* unwound and the analysis falls back to the
conservative fresh-line convention plus widening.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.lang import ast

#: Safety valve: loops with more iterations than this are not unrolled.
DEFAULT_MAX_ITERATIONS = 4096


@dataclass
class UnrollStats:
    """Statistics describing what the pass did (useful in reports/tests)."""

    loops_seen: int = 0
    loops_unrolled: int = 0
    iterations_emitted: int = 0


def unroll_fixed_loops(
    program: ast.Program, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> tuple[ast.Program, UnrollStats]:
    """Return ``program`` with fixed-trip-count loops unrolled.

    Pure: the input is never mutated.  Only the statements on the way to
    an unrolled loop are rebuilt (with ``dataclasses.replace``); every
    other subtree is shared with the input, and all iterations of an
    unrolled loop emit the same (already unrolled) body object.  AST
    nodes are frozen, so sharing them is safe.
    """
    stats = UnrollStats()
    functions = [
        replace(function, body=_unroll_block(function.body, max_iterations, stats))
        for function in program.functions
    ]
    return replace(program, functions=functions), stats


def _unroll_block(block: ast.Block, max_iterations: int, stats: UnrollStats) -> ast.Block:
    new_statements: list[ast.Stmt] = []
    for stmt in block.statements:
        new_statements.extend(_unroll_statement(stmt, max_iterations, stats))
    if len(new_statements) == len(block.statements) and all(
        new is old for new, old in zip(new_statements, block.statements)
    ):
        return block
    return replace(block, statements=new_statements)


def _unroll_statement(
    stmt: ast.Stmt, max_iterations: int, stats: UnrollStats
) -> list[ast.Stmt]:
    if isinstance(stmt, ast.Block):
        return [_unroll_block(stmt, max_iterations, stats)]
    if isinstance(stmt, ast.If):
        then_body = _unroll_block(stmt.then_body, max_iterations, stats)
        else_body = stmt.else_body
        if else_body is not None:
            else_body = _unroll_block(else_body, max_iterations, stats)
        if then_body is not stmt.then_body or else_body is not stmt.else_body:
            stmt = replace(stmt, then_body=then_body, else_body=else_body)
        return [stmt]
    if isinstance(stmt, ast.While):
        body = _unroll_block(stmt.body, max_iterations, stats)
        return [stmt if body is stmt.body else replace(stmt, body=body)]
    if isinstance(stmt, ast.For):
        return _unroll_for(stmt, max_iterations, stats)
    return [stmt]


def _unroll_for(stmt: ast.For, max_iterations: int, stats: UnrollStats) -> list[ast.Stmt]:
    stats.loops_seen += 1
    # First unroll nested loops inside the body so iteration counts compose.
    body = _unroll_block(stmt.body, max_iterations, stats)
    inner = stmt if body is stmt.body else replace(stmt, body=body)
    plan = _plan_unroll(inner, max_iterations)
    if plan is None:
        return [inner]
    counter, values, step, init_stmt = plan
    stats.loops_unrolled += 1
    stats.iterations_emitted += len(values)
    result: list[ast.Stmt] = []
    if init_stmt is not None:
        result.append(init_stmt)
    for value in values:
        result.append(_assign_counter(counter, value, stmt))
        result.append(body)
    # Leave the counter where C leaves it, one step past the last
    # iteration, for code after the loop that reads it.
    result.append(_assign_counter(counter, values[-1] + step, stmt))
    return result


def _assign_counter(counter: str, value: int, origin: ast.For) -> ast.Assign:
    return ast.Assign(
        target=ast.Identifier(name=counter, line=origin.line, column=origin.column),
        value=ast.IntLiteral(value=value, line=origin.line, column=origin.column),
        line=origin.line,
        column=origin.column,
    )


def _plan_unroll(
    stmt: ast.For, max_iterations: int
) -> tuple[str, list[int], int, ast.Stmt | None] | None:
    """Return (counter name, iteration values, step, declaration to keep)
    or None."""
    if _contains_loop_escape(stmt.body):
        return None
    counter, start, init_stmt = _parse_init(stmt.init)
    if counter is None or start is None:
        return None
    bound = _parse_condition(stmt.cond, counter)
    if bound is None:
        return None
    op, limit = bound
    step = _parse_step(stmt.step, counter)
    if step is None or step == 0:
        return None
    if _assigns_variable(stmt.body, counter):
        return None
    values: list[int] = []
    value = start
    while len(values) <= max_iterations:
        if op == "<" and not value < limit:
            break
        if op == "<=" and not value <= limit:
            break
        if op == ">" and not value > limit:
            break
        if op == ">=" and not value >= limit:
            break
        if op == "!=" and not value != limit:
            break
        values.append(value)
        value += step
    if not values or len(values) > max_iterations:
        return None
    return counter, values, step, init_stmt


def _contains_loop_escape(body: ast.Block) -> bool:
    """True if the body contains a break/continue that belongs to this loop."""
    for stmt in body.statements:
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Block) and _contains_loop_escape(stmt):
            return True
        if isinstance(stmt, ast.If):
            if _contains_loop_escape(stmt.then_body):
                return True
            if stmt.else_body is not None and _contains_loop_escape(stmt.else_body):
                return True
        # break/continue inside a nested loop belongs to that loop, so
        # nested While/For bodies are intentionally not descended into.
    return False


def _parse_init(init: ast.Stmt | None) -> tuple[str | None, int | None, ast.Stmt | None]:
    if isinstance(init, ast.Assign) and isinstance(init.target, ast.Identifier):
        value = _fold(init.value)
        return (init.target.name, value, None)
    if isinstance(init, ast.VarDecl) and init.init is not None:
        value = _fold(init.init)
        declaration = ast.VarDecl(
            name=init.name,
            base_type=init.base_type,
            qualifiers=init.qualifiers,
            init=None,
            line=init.line,
            column=init.column,
        )
        return (init.name, value, declaration)
    return (None, None, None)


def _parse_condition(cond: ast.Expr | None, counter: str) -> tuple[str, int] | None:
    if not isinstance(cond, ast.BinaryOp):
        return None
    if not isinstance(cond.left, ast.Identifier) or cond.left.name != counter:
        return None
    if cond.op not in ("<", "<=", ">", ">=", "!="):
        return None
    limit = _fold(cond.right)
    if limit is None:
        return None
    return cond.op, limit


def _parse_step(step: ast.Stmt | None, counter: str) -> int | None:
    if not isinstance(step, ast.Assign):
        return None
    if not isinstance(step.target, ast.Identifier) or step.target.name != counter:
        return None
    value = step.value
    if not isinstance(value, ast.BinaryOp) or value.op not in ("+", "-"):
        return None
    if not isinstance(value.left, ast.Identifier) or value.left.name != counter:
        return None
    delta = _fold(value.right)
    if delta is None:
        return None
    return delta if value.op == "+" else -delta


def _assigns_variable(body: ast.Block, name: str) -> bool:
    for stmt in ast.walk_statements(body):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Identifier):
            if stmt.target.name == name:
                return True
        if isinstance(stmt, (ast.VarDecl,)) and stmt.name == name:
            return True
    return False


def _fold(expr: ast.Expr) -> int | None:
    """Constant-fold a pure expression (no variables)."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        inner = _fold(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "~":
            return ~inner
        if expr.op == "!":
            return int(not inner)
        return None
    if isinstance(expr, ast.BinaryOp):
        left = _fold(expr.left)
        right = _fold(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else None,
                "%": lambda: left % right if right else None,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
            }[expr.op]()
        except KeyError:
            return None
    return None
