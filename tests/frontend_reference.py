"""Reference front-end passes: the differential oracles for ``repro.lang``.

:class:`Lexer` is the character-by-character scanner that the regular-
expression scanner in :mod:`repro.lang.lexer` replaced, and
:func:`secret_symbols` is the round-robin secret-taint fixpoint that the
type checker's worklist replaced, each kept verbatim (the fixpoint as a
function of a checked :class:`~repro.lang.typecheck.ProgramInfo`).  The
reference lexer lets a malformed integer literal through as a token; the
scanner rejects it.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.lang.ast import (
    Assign,
    Call,
    Expr,
    ExprStatement,
    For,
    Identifier,
    If,
    Index,
    Return,
    Stmt,
    VarDecl,
    While,
    walk_expr,
    walk_statements,
)
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)
from repro.lang.typecheck import ProgramInfo


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
_ESCAPES = {
    "n": ord("\n"),
    "t": ord("\t"),
    "r": ord("\r"),
    "0": 0,
    "\\": ord("\\"),
    "'": ord("'"),
    '"': ord('"'),
}


class Lexer:
    """Converts MiniC source text into tokens."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    # Character helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    # ------------------------------------------------------------------
    # Tokenisation
    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        """Return the full token stream, terminated by an EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._at_end():
                break
            tokens.append(self._next_token())
        tokens.append(Token(TokenType.EOF, "", self.line, self.column))
        return tokens

    def _skip_whitespace_and_comments(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not self._at_end() and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self._at_end():
                    raise LexerError("unterminated block comment", start_line, start_col)
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        char = self._peek()

        if char.isdigit():
            return self._lex_number(line, column)
        if char.isalpha() or char == "_":
            return self._lex_identifier(line, column)
        if char == "'":
            return self._lex_char_literal(line, column)

        for text, token_type in MULTI_CHAR_OPERATORS:
            if self.source.startswith(text, self.pos):
                self._advance(len(text))
                return Token(token_type, text, line, column)

        if char in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(SINGLE_CHAR_OPERATORS[char], char, line, column)

        raise LexerError(f"unexpected character {char!r}", line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
        text = self.source[start : self.pos]
        # Consume (and drop) C integer suffixes such as L, UL, u.
        while self._peek() in ("l", "L", "u", "U"):
            self._advance()
        return Token(TokenType.INT_LITERAL, text, line, column)

    def _lex_identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        token_type = KEYWORDS.get(text, TokenType.IDENT)
        return Token(token_type, text, line, column)

    def _lex_char_literal(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        if self._at_end():
            raise LexerError("unterminated character literal", line, column)
        char = self._peek()
        if char == "\\":
            self._advance()
            escape = self._peek()
            if escape not in _ESCAPES:
                raise LexerError(f"unknown escape sequence \\{escape}", line, column)
            value = _ESCAPES[escape]
            self._advance()
        else:
            value = ord(char)
            self._advance()
        if self._peek() != "'":
            raise LexerError("unterminated character literal", line, column)
        self._advance()
        return Token(TokenType.INT_LITERAL, str(value), line, column)


# ----------------------------------------------------------------------
# Secret taint
# ----------------------------------------------------------------------
def secret_symbols(program_info: ProgramInfo) -> set[str]:
    """Propagate ``secret`` taint through assignments and parameter
    passing until a fixed point is reached."""
    secret: set[str] = set()
    for symbol in program_info.globals_table.local_symbols():
        if symbol.qualifiers.is_secret:
            secret.add(symbol.name)
    for info in program_info.functions.values():
        for symbol in info.table.local_symbols():
            if symbol.qualifiers.is_secret:
                secret.add(symbol.name)

    changed = True
    while changed:
        changed = False
        for info in program_info.functions.values():
            for stmt in walk_statements(info.definition.body):
                if isinstance(stmt, Assign):
                    if _expr_is_tainted(stmt.value, secret):
                        target_name = _target_name(stmt.target)
                        if target_name is not None and target_name not in secret:
                            secret.add(target_name)
                            changed = True
                elif isinstance(stmt, VarDecl) and stmt.init is not None:
                    if _expr_is_tainted(stmt.init, secret) and stmt.name not in secret:
                        secret.add(stmt.name)
                        changed = True
                elif isinstance(stmt, (ExprStatement, Return)):
                    pass
            # Parameter taint: a call ``f(e1, .., ek)`` taints f's i-th
            # parameter when the i-th argument is tainted.
            for stmt in walk_statements(info.definition.body):
                for expr in _statement_expressions(stmt):
                    for node in walk_expr(expr):
                        if isinstance(node, Call) and program_info.program.has_function(node.name):
                            callee = program_info.program.function(node.name)
                            for param, arg in zip(callee.params, node.args):
                                if (
                                    _expr_is_tainted(arg, secret)
                                    and param.name not in secret
                                ):
                                    secret.add(param.name)
                                    changed = True
    return secret


def _expr_is_tainted(expr: Expr, secret: set[str]) -> bool:
    for node in walk_expr(expr):
        if isinstance(node, Identifier) and node.name in secret:
            return True
        if isinstance(node, Index) and node.array in secret:
            return True
    return False


def _target_name(target: Expr) -> str | None:
    if isinstance(target, Identifier):
        return target.name
    if isinstance(target, Index):
        return target.array
    return None


def _statement_expressions(stmt: Stmt) -> list[Expr]:
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ExprStatement):
        return [stmt.expr]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    return []


