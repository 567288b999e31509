"""Token definitions for the MiniC lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    """All token categories produced by the lexer."""

    # Literals and identifiers
    INT_LITERAL = auto()
    IDENT = auto()

    # Keywords
    KW_INT = auto()
    KW_CHAR = auto()
    KW_LONG = auto()
    KW_VOID = auto()
    KW_IF = auto()
    KW_ELSE = auto()
    KW_WHILE = auto()
    KW_FOR = auto()
    KW_RETURN = auto()
    KW_BREAK = auto()
    KW_CONTINUE = auto()
    KW_FENCE = auto()
    KW_REG = auto()
    KW_SECRET = auto()
    KW_CONST = auto()
    KW_UNSIGNED = auto()

    # Punctuation
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    SEMICOLON = auto()
    COMMA = auto()

    # Operators
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    ASSIGN = auto()
    PLUS_ASSIGN = auto()
    MINUS_ASSIGN = auto()
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    EQ = auto()
    NE = auto()
    AND_AND = auto()
    OR_OR = auto()
    NOT = auto()
    AMP = auto()
    PIPE = auto()
    CARET = auto()
    TILDE = auto()
    SHL = auto()
    SHR = auto()
    PLUS_PLUS = auto()
    MINUS_MINUS = auto()

    # End of input
    EOF = auto()

    # Members are singletons, so they hash by identity; Enum's default
    # hashes the name in Python, and the parser looks a token type up in
    # a dict or set for nearly every token.
    __hash__ = object.__hash__


KEYWORDS: dict[str, TokenType] = {
    "int": TokenType.KW_INT,
    "char": TokenType.KW_CHAR,
    "long": TokenType.KW_LONG,
    "void": TokenType.KW_VOID,
    "if": TokenType.KW_IF,
    "else": TokenType.KW_ELSE,
    "while": TokenType.KW_WHILE,
    "for": TokenType.KW_FOR,
    "return": TokenType.KW_RETURN,
    "break": TokenType.KW_BREAK,
    "continue": TokenType.KW_CONTINUE,
    "fence": TokenType.KW_FENCE,
    # The x86 spelling, so kernels hardened with real intrinsics parse.
    "lfence": TokenType.KW_FENCE,
    "reg": TokenType.KW_REG,
    "register": TokenType.KW_REG,
    "secret": TokenType.KW_SECRET,
    "const": TokenType.KW_CONST,
    "unsigned": TokenType.KW_UNSIGNED,
    # Common C typedefs map onto the base types so benchmark kernels can be
    # pasted with minimal editing.
    "uint8_t": TokenType.KW_CHAR,
    "int8_t": TokenType.KW_CHAR,
    "uint32_t": TokenType.KW_INT,
    "int32_t": TokenType.KW_INT,
    "uint64_t": TokenType.KW_LONG,
    "int64_t": TokenType.KW_LONG,
    "size_t": TokenType.KW_LONG,
}

# Multi-character operators, longest first so the lexer can match greedily.
MULTI_CHAR_OPERATORS: list[tuple[str, TokenType]] = [
    ("<<", TokenType.SHL),
    (">>", TokenType.SHR),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("==", TokenType.EQ),
    ("!=", TokenType.NE),
    ("&&", TokenType.AND_AND),
    ("||", TokenType.OR_OR),
    ("+=", TokenType.PLUS_ASSIGN),
    ("-=", TokenType.MINUS_ASSIGN),
    ("++", TokenType.PLUS_PLUS),
    ("--", TokenType.MINUS_MINUS),
]

SINGLE_CHAR_OPERATORS: dict[str, TokenType] = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ";": TokenType.SEMICOLON,
    ",": TokenType.COMMA,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "=": TokenType.ASSIGN,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
    "&": TokenType.AMP,
    "|": TokenType.PIPE,
    "^": TokenType.CARET,
    "~": TokenType.TILDE,
}


class Token(NamedTuple):
    """A single lexical token with its source location (an immutable tuple)."""

    type: TokenType
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"
