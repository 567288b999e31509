"""Regular-expression scanner for MiniC.

The lexer turns source text into a flat list of :class:`Token` objects.
It understands decimal and hexadecimal integer literals with C suffixes,
character literals (which become their integer codepoint), identifiers,
keywords, and both ``//`` and ``/* ... */`` comments.

One compiled pattern, matched at the current offset, skips the
whitespace and comments before a token and matches the token itself;
its named group says what kind of token it is.  Line and column come
from a table of line starts.  The rare inputs the pattern leaves to the
``other`` group (non-ASCII identifiers, malformed literals, unknown
characters) are finished by hand, so every token and error is the one a
character-by-character scan gives.  An integer literal is emitted only
if ``int()`` converts it: ``0x`` without digits, or digits such as
``²`` that are not decimal, raise :class:`~repro.errors.LexerError`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate

from repro.errors import LexerError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)

_ESCAPES = {
    "n": ord("\n"),
    "t": ord("\t"),
    "r": ord("\r"),
    "0": 0,
    "\\": ord("\\"),
    "'": ord("'"),
    '"': ord('"'),
}

_OPERATORS = {**dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_OPERATORS}

#: ``_token((type, value, line, column))`` builds a :class:`Token` without
#: the Python-level ``__new__`` of a named tuple.
_token = partial(tuple.__new__, Token)

_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<word>[A-Za-z_]\w*)
        # A hex literal needs a digit, and a decimal run followed by a
        # non-ASCII word character (``²``, ``é``) is left to ``other``.
      | (?P<number>0[xX][0-9a-fA-F]+ | (?!0[xX])\d+(?![^\W_A-Za-z]))[lLuU]*
      | (?P<char>'(?:\\[ntr0\\'"] | [^\\])')
      | (?P<open_comment>/\*)
      | (?P<op>"""
    + "|".join(re.escape(text) for text, _ in MULTI_CHAR_OPERATORS)
    + "|["
    + re.escape("".join(SINGLE_CHAR_OPERATORS))
    + r"""])
      | (?P<other>.)
      | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_REST = re.compile(r"\w*")


class Lexer:
    """Converts MiniC source text into tokens."""

    def __init__(self, source: str):
        self.source = source
        # Offset of each line's first character, then len(source) + 1.
        self._line_starts = list(
            accumulate((len(text) + 1 for text in source.split("\n")), initial=0)
        )

    def tokenize(self) -> list[Token]:
        """Return the full token stream, terminated by an EOF token."""
        source = self.source
        starts = self._line_starts
        match = _TOKEN.match
        tokens: list[Token] = []
        append = tokens.append
        pos = 0
        line, line_start, next_line = 1, 0, starts[1]
        while True:
            found = match(source, pos)
            kind = found.lastgroup
            start = found.start(kind)
            if start >= next_line:
                line = bisect_right(starts, start)
                line_start, next_line = starts[line - 1], starts[line]
            column = start - line_start + 1
            pos = found.end()
            if kind == "word":
                text = found[kind]
                append(_token((KEYWORDS.get(text, TokenType.IDENT), text, line, column)))
            elif kind == "op":
                text = found[kind]
                append(_token((_OPERATORS[text], text, line, column)))
            elif kind == "number":
                append(_token((TokenType.INT_LITERAL, found[kind], line, column)))
            elif kind == "char":
                text = found[kind]
                value = _ESCAPES[text[2]] if len(text) == 4 else ord(text[1])
                append(Token(TokenType.INT_LITERAL, str(value), line, column))
            elif kind == "end":
                append(Token(TokenType.EOF, "", line, column))
                return tokens
            elif kind == "open_comment":
                raise LexerError("unterminated block comment", line, column)
            else:
                token, pos = self._irregular(start, line, column)
                append(token)

    def _irregular(self, start: int, line: int, column: int) -> tuple[Token, int]:
        """Finish the token at ``start`` that the pattern left to its
        ``other`` group; return it with the offset after it, or raise."""
        source = self.source
        char = source[start]
        if char.isdigit():
            end = start
            if source.startswith(("0x", "0X"), start):
                end += 2  # no hex digit follows
            else:
                while end < len(source) and source[end].isdigit():
                    end += 1
            text = source[start:end]
            if not text.isdecimal():
                word = _WORD_REST.match(source, end).group()
                raise LexerError(f"malformed integer literal {text + word!r}", line, column)
            while source[end : end + 1] in ("l", "L", "u", "U"):
                end += 1
            return Token(TokenType.INT_LITERAL, text, line, column), end
        if char.isalpha():
            end = _WORD_REST.match(source, start + 1).end()
            text = source[start:end]
            return Token(KEYWORDS.get(text, TokenType.IDENT), text, line, column), end
        if char == "'":
            if source[start + 1 : start + 2] == "\\":
                escape = source[start + 2 : start + 3]
                if escape not in _ESCAPES:
                    raise LexerError(f"unknown escape sequence \\{escape}", line, column)
            raise LexerError("unterminated character literal", line, column)
        raise LexerError(f"unexpected character {char!r}", line, column)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC ``source`` text."""
    return Lexer(source).tokenize()
