"""Unit tests for the MiniC lexer."""

import pytest
from hypothesis import given, settings, strategies as st

import frontend_reference as reference
from repro.errors import LexerError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)


def types(source):
    return [token.type for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifier(self):
        tokens = tokenize("foo_bar42")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "foo_bar42"

    def test_decimal_literal(self):
        tokens = tokenize("12345")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].value == "12345"

    def test_hex_literal(self):
        tokens = tokenize("0x7c")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].value == "0x7c"

    def test_literal_with_long_suffix(self):
        tokens = tokenize("15L")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].value == "15"

    def test_char_literal_becomes_integer(self):
        tokens = tokenize("'A'")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].value == str(ord("A"))

    def test_escaped_char_literal(self):
        tokens = tokenize(r"'\n'")
        assert tokens[0].value == str(ord("\n"))


class TestKeywords:
    @pytest.mark.parametrize(
        "keyword, token_type",
        [
            ("int", TokenType.KW_INT),
            ("char", TokenType.KW_CHAR),
            ("long", TokenType.KW_LONG),
            ("if", TokenType.KW_IF),
            ("else", TokenType.KW_ELSE),
            ("while", TokenType.KW_WHILE),
            ("for", TokenType.KW_FOR),
            ("return", TokenType.KW_RETURN),
            ("break", TokenType.KW_BREAK),
            ("continue", TokenType.KW_CONTINUE),
            ("reg", TokenType.KW_REG),
            ("register", TokenType.KW_REG),
            ("secret", TokenType.KW_SECRET),
            ("const", TokenType.KW_CONST),
            ("unsigned", TokenType.KW_UNSIGNED),
        ],
    )
    def test_keyword(self, keyword, token_type):
        assert types(keyword)[0] is token_type

    def test_c_typedef_aliases(self):
        assert types("uint8_t")[0] is TokenType.KW_CHAR
        assert types("uint32_t")[0] is TokenType.KW_INT
        assert types("uint64_t")[0] is TokenType.KW_LONG

    def test_keyword_prefix_is_identifier(self):
        tokens = tokenize("iffy")
        assert tokens[0].type is TokenType.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "text, token_type",
        [
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
        ],
    )
    def test_multi_char_operator(self, text, token_type):
        assert types(text)[0] is token_type

    def test_single_char_operators(self):
        assert types("+ - * / % ( ) { } [ ] ; , < > = ! & | ^ ~")[:-1] == [
            TokenType.PLUS,
            TokenType.MINUS,
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.PERCENT,
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.LBRACE,
            TokenType.RBRACE,
            TokenType.LBRACKET,
            TokenType.RBRACKET,
            TokenType.SEMICOLON,
            TokenType.COMMA,
            TokenType.LT,
            TokenType.GT,
            TokenType.ASSIGN,
            TokenType.NOT,
            TokenType.AMP,
            TokenType.PIPE,
            TokenType.CARET,
            TokenType.TILDE,
        ]

    def test_greedy_matching_of_shift_vs_compare(self):
        assert types("a >> b")[1] is TokenType.SHR
        assert types("a > > b")[1] is TokenType.GT


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("x // comment\n y") == ["x", "y"]

    def test_block_comment_skipped(self):
        assert values("x /* a\nb\nc */ y") == ["x", "y"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("/* never closed")

    def test_newlines_update_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]
        assert tokens[2].column == 3


class TestErrors:
    def test_unknown_character_raises_with_location(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("a\n  $")
        assert excinfo.value.line == 2

    def test_unterminated_char_literal(self):
        with pytest.raises(LexerError):
            tokenize("'a")

    def test_unknown_escape(self):
        with pytest.raises(LexerError):
            tokenize(r"'\q'")


class TestRealisticSnippets:
    def test_figure2_snippet(self):
        source = "if(p==0) load(l1[0]); else load(l2[0]);"
        kinds = types(source)
        assert TokenType.KW_IF in kinds
        assert TokenType.KW_ELSE in kinds
        assert kinds.count(TokenType.LBRACKET) == 2

    def test_quantl_loop_header(self):
        source = "for(mil = 0 ; mil < 30 ; mil++) {"
        kinds = types(source)
        assert TokenType.KW_FOR in kinds
        assert TokenType.PLUS_PLUS in kinds


class TestMalformedLiterals:
    """The scanner emits only integer literals that ``int()`` converts."""

    @pytest.mark.parametrize(
        "source, text, column",
        [
            ("int a = 0x;", "0x", 9),
            ("int a = 0xZ;", "0xZ", 9),
            ("int a = 1²;", "1²", 9),
            ("a\n  ²", "²", 3),
        ],
    )
    def test_malformed_literal_raises_with_location(self, source, text, column):
        with pytest.raises(LexerError) as excinfo:
            tokenize(source)
        assert str(excinfo.value).startswith(f"malformed integer literal {text!r}")
        assert (excinfo.value.line, excinfo.value.column) == (source.count("\n") + 1, column)

    def test_non_ascii_decimal_digits_still_convert(self):
        tokens = tokenize("١٢ 1١")
        assert [int(token.value) for token in tokens[:-1]] == [12, 11]

    def test_decimal_run_then_non_ascii_letter_is_two_tokens(self):
        assert [(t.type, t.value) for t in tokenize("12é")[:-1]] == [
            (TokenType.INT_LITERAL, "12"),
            (TokenType.IDENT, "é"),
        ]


class TestTokenRecord:
    def test_token_is_an_immutable_four_field_record(self):
        token = tokenize("x")[0]
        assert Token._fields == ("type", "value", "line", "column")
        assert (token.type, token.value, token.line, token.column) == (
            TokenType.IDENT,
            "x",
            1,
            1,
        )
        with pytest.raises(AttributeError):
            token.value = "y"


# ----------------------------------------------------------------------
# Differential check against the reference lexer
# ----------------------------------------------------------------------
_FRAGMENTS = sorted(KEYWORDS) + [
    text for text, _ in MULTI_CHAR_OPERATORS
] + sorted(SINGLE_CHAR_OPERATORS) + [
    # identifiers, including non-ASCII letters
    "x", "_a1", "foo_bar42", "é", "naïve", "Ωmega", "变量",
    # decimal, hex and suffixed literals, and digits int() may reject
    "0", "7", "42", "0x7c", "0XFF", "0x", "x1", "15L", "0xffUL", "7u", "9lu",
    "١٢", "²",
    # character literals and escapes
    "'a'", "' '", "'''", "'\"'", "'\\n'", "'\\t'", "'\\r'", "'\\0'", "'\\\\'",
    "'\\''", "'\\\"'", "'\\q'", "'", "'ab'", "'\\",
    # comments, closed and not
    "// line comment", "//", "/* block */", "/* two\nlines */", "/**/", "/*", "*/",
    # whitespace and unknown characters
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f", "$", "@", "#", "`", "\u00a0",
]


def _offset(source, line, column):
    starts = [0] + [index + 1 for index, char in enumerate(source) if char == "\n"]
    return starts[line - 1] + column - 1


def _scan(source):
    """The scanner's tokens as ``(type, value, line, column)`` and its
    error as ``(message, line, column)`` or None.  On an error, the tokens
    are those before the error's position."""
    try:
        return list(map(tuple, tokenize(source))), None
    except LexerError as error:
        prefix = source[: _offset(source, error.line, error.column)]
        tokens = list(map(tuple, tokenize(prefix)))[:-1]
        return tokens, (str(error), error.line, error.column)


def _reference_scan(source):
    """The reference lexer's tokens before its first error, and the error."""
    lexer = reference.Lexer(source)
    tokens = []
    try:
        while True:
            lexer._skip_whitespace_and_comments()
            if lexer._at_end():
                break
            tokens.append(tuple(lexer._next_token()))
    except LexerError as error:
        return tokens, (str(error), error.line, error.column)
    tokens.append((TokenType.EOF, "", lexer.line, lexer.column))
    return tokens, None


def _converts(text):
    try:
        int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        return False
    return True


class TestAgainstReferenceLexer:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
    def test_same_tokens_and_errors(self, source):
        expected_tokens, expected_error = _reference_scan(source)
        malformed = [
            (value, line, column)
            for kind, value, line, column in expected_tokens
            if kind is TokenType.INT_LITERAL and not _converts(value)
        ]
        tokens, error = _scan(source)
        if not malformed:
            assert (tokens, error) == (expected_tokens, expected_error)
            return
        # The one allowed difference: the reference passes a literal that
        # int() rejects; the scanner raises there, after the same tokens.
        value, line, column = malformed[0]
        assert error is not None
        message, error_line, error_column = error
        assert message.startswith(f"malformed integer literal {value!r}"[:-1])
        assert (error_line, error_column) == (line, column)
        assert tokens == expected_tokens[: len(tokens)]
        assert expected_tokens[len(tokens)][1:] == (value, line, column)
