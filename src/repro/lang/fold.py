"""Constant folding with C's integer semantics.

One fold serves every pass that evaluates a constant: the parser (array
lengths and initialisers), loop unrolling (bounds and steps) and the
lowering's constant propagation.  The concrete simulator divides with
:func:`c_div` and :func:`c_mod`, so a folded constant is the value the
program computes.

``/`` and ``%`` truncate toward zero, exactly, on integers of any size
(C99 6.5.5): ``-7 / 2`` is ``-3`` and ``-7 % 2`` is ``-1``.  A division
by zero, or a shift by a count outside ``0..63``, is not a constant:
the fold returns None, and each pass treats the expression as it treats
any other non-constant one.
"""

from __future__ import annotations

from repro.lang import ast

#: Largest shift count that folds (the width of the widest MiniC type).
MAX_SHIFT = 63


def c_div(left: int, right: int) -> int:
    """``left / right`` as C computes it: truncated toward zero.

    ``right`` must not be 0."""
    quotient = abs(left) // abs(right)
    return quotient if (left < 0) == (right < 0) else -quotient


def c_mod(left: int, right: int) -> int:
    """``left % right`` as C computes it: the sign follows ``left``.

    ``right`` must not be 0."""
    return left - right * c_div(left, right)


def fold_binary(op: str, left: int, right: int) -> int | None:
    """``left op right``, or None when it is not a constant."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return c_div(left, right) if right != 0 else None
    if op == "%":
        return c_mod(left, right) if right != 0 else None
    if op == "<<":
        return left << right if 0 <= right <= MAX_SHIFT else None
    if op == ">>":
        return left >> right if 0 <= right <= MAX_SHIFT else None
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
    return None


def fold_unary(op: str, value: int) -> int | None:
    """``op value``, or None when it is not a constant."""
    if op == "-":
        return -value
    if op == "~":
        return ~value
    if op == "!":
        return int(not value)
    return None


def fold_constant(expr: ast.Expr) -> int | None:
    """The value of ``expr`` when it is built from literals alone."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        inner = fold_constant(expr.operand)
        return None if inner is None else fold_unary(expr.op, inner)
    if isinstance(expr, ast.BinaryOp):
        left = fold_constant(expr.left)
        if left is None:
            return None
        right = fold_constant(expr.right)
        if right is None:
            return None
        return fold_binary(expr.op, left, right)
    return None
