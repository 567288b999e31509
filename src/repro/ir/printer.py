"""Human-readable dumps of the IR and CFG, and MiniC source emission.

The CFG formatters are a debugging / report aid.  :func:`program_to_source`
is load-bearing: the mitigation subsystem patches programs at the AST
level (inserting ``fence;`` statements) and re-emits compilable MiniC
source from the patched AST, which is what the analysis engine re-verifies.
The emitted text re-parses to the same AST shape (expressions are fully
parenthesised, so no precedence information is lost)."""

from __future__ import annotations

from repro.lang import ast
from repro.ir.cfg import CFG
from repro.ir.instructions import Instruction, Terminator

_TYPE_NAMES = {
    ast.BaseType.CHAR: "char",
    ast.BaseType.INT: "int",
    ast.BaseType.LONG: "long",
    ast.BaseType.VOID: "void",
}


def format_instruction(instruction: Instruction | Terminator) -> str:
    """Format a single instruction or terminator."""
    return str(instruction)


def format_block(cfg: CFG, name: str) -> str:
    return _format_block(name, cfg.block(name), cfg.graph().predecessors.get(name, ()))


def _format_block(name: str, block, predecessors: tuple[str, ...]) -> str:
    lines = [f"{name}:  (preds: {', '.join(predecessors) or 'none'})"]
    for instruction in block.instructions:
        lines.append(f"    {instruction}")
    if block.terminator is not None:
        lines.append(f"    {block.terminator}")
    return "\n".join(lines)


def format_cfg(cfg: CFG) -> str:
    """Format an entire CFG, blocks in reverse postorder."""
    header = f"function {cfg.name}({', '.join(cfg.params)})"
    parts = [header, "=" * len(header)]
    graph = cfg.graph()
    for name in graph.rpo:
        parts.append(_format_block(name, cfg.blocks[name], graph.predecessors[name]))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# MiniC source emission (AST -> compilable text)
# ----------------------------------------------------------------------
def format_expr(expr: ast.Expr) -> str:
    """Emit one expression, fully parenthesised.

    Parentheses carry no AST node of their own, so re-parsing the emitted
    text reproduces the expression tree exactly.
    """
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value) if expr.value >= 0 else f"({expr.value})"
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.Index):
        return f"{expr.array}[{format_expr(expr.index)}]"
    if isinstance(expr, ast.BinaryOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        # The space stops '-' '-' from lexing as '--'.
        return f"({expr.op} {format_expr(expr.operand)})"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot emit expression {type(expr).__name__}")


def _qualifier_prefix(qualifiers: ast.Qualifiers) -> str:
    parts = []
    if qualifiers.is_const:
        parts.append("const")
    if qualifiers.is_secret:
        parts.append("secret")
    if qualifiers.is_reg:
        parts.append("reg")
    return " ".join(parts) + " " if parts else ""


def _format_decl(decl: "ast.VarDecl | ast.ArrayDecl") -> str:
    prefix = _qualifier_prefix(decl.qualifiers) + _TYPE_NAMES[decl.base_type]
    if isinstance(decl, ast.ArrayDecl):
        text = f"{prefix} {decl.name}[{decl.length}]"
        if decl.init is not None:
            values = ", ".join(str(value) for value in decl.init)
            text += f" = {{{values}}}"
        return text + ";"
    text = f"{prefix} {decl.name}"
    if decl.init is not None:
        text += f" = {format_expr(decl.init)}"
    return text + ";"


def _format_simple_statement(stmt: ast.Stmt) -> str:
    """A statement without trailing semicolon (for ``for`` headers)."""
    if isinstance(stmt, ast.Assign):
        return f"{format_expr(stmt.target)} = {format_expr(stmt.value)}"
    if isinstance(stmt, ast.ExprStatement):
        return format_expr(stmt.expr)
    if isinstance(stmt, (ast.VarDecl, ast.ArrayDecl)):
        return _format_decl(stmt)[:-1]
    raise TypeError(f"cannot emit {type(stmt).__name__} in a for header")


def _emit_statement(stmt: ast.Stmt, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(stmt, ast.Block):
        lines.append(pad + "{")
        for child in stmt.statements:
            _emit_statement(child, lines, indent + 1)
        lines.append(pad + "}")
    elif isinstance(stmt, (ast.VarDecl, ast.ArrayDecl)):
        lines.append(pad + _format_decl(stmt))
    elif isinstance(stmt, ast.Assign):
        lines.append(f"{pad}{format_expr(stmt.target)} = {format_expr(stmt.value)};")
    elif isinstance(stmt, ast.ExprStatement):
        lines.append(f"{pad}{format_expr(stmt.expr)};")
    elif isinstance(stmt, ast.If):
        lines.append(f"{pad}if ({format_expr(stmt.cond)})")
        _emit_statement(stmt.then_body, lines, indent)
        if stmt.else_body is not None:
            lines.append(pad + "else")
            _emit_statement(stmt.else_body, lines, indent)
    elif isinstance(stmt, ast.While):
        lines.append(f"{pad}while ({format_expr(stmt.cond)})")
        _emit_statement(stmt.body, lines, indent)
    elif isinstance(stmt, ast.For):
        init = _format_simple_statement(stmt.init) if stmt.init is not None else ""
        cond = format_expr(stmt.cond) if stmt.cond is not None else ""
        step = _format_simple_statement(stmt.step) if stmt.step is not None else ""
        lines.append(f"{pad}for ({init}; {cond}; {step})")
        _emit_statement(stmt.body, lines, indent)
    elif isinstance(stmt, ast.Return):
        if stmt.value is None:
            lines.append(pad + "return;")
        else:
            lines.append(f"{pad}return {format_expr(stmt.value)};")
    elif isinstance(stmt, ast.Break):
        lines.append(pad + "break;")
    elif isinstance(stmt, ast.Continue):
        lines.append(pad + "continue;")
    elif isinstance(stmt, ast.Fence):
        lines.append(pad + "fence;")
    else:
        raise TypeError(f"cannot emit statement {type(stmt).__name__}")


def program_to_source(program: ast.Program) -> str:
    """Emit a whole MiniC translation unit as compilable source text.

    ``parse_program(program_to_source(p))`` reproduces ``p``'s shape
    (locations aside), so AST-level rewrites — fence insertion in
    particular — round-trip through the normal front end.
    """
    lines: list[str] = []
    for decl in program.globals:
        lines.append(_format_decl(decl))
    for function in program.functions:
        if lines:
            lines.append("")
        params = ", ".join(
            f"{_qualifier_prefix(param.qualifiers)}{_TYPE_NAMES[param.base_type]} "
            f"{param.name}"
            for param in function.params
        )
        lines.append(f"{_TYPE_NAMES[function.return_type]} {function.name}({params})")
        _emit_statement(function.body, lines, 0)
    return "\n".join(lines) + "\n"


def format_memory_summary(cfg: CFG) -> str:
    """Summarise which symbols the function touches and how often."""
    counts: dict[str, int] = {}
    for ref in cfg.all_memory_refs():
        counts[ref.symbol] = counts.get(ref.symbol, 0) + 1
    lines = [f"memory accesses in {cfg.name}:"]
    for symbol, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {symbol}: {count}")
    return "\n".join(lines)
