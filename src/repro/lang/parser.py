"""Recursive-descent parser for MiniC.

The grammar is a small subset of C covering exactly what the paper's
benchmarks need: global scalar/array declarations with constant
initializers, function definitions, ``if``/``else``, ``while``, ``for``,
``break``/``continue``/``return``, assignments (including ``+=``, ``-=``,
``++`` and ``--`` sugar), and the usual expression operators.

Lookahead is an index into the token list, which the parser pads with a
second EOF so ``_peek(1)`` never runs off the end.  Statements descend
recursively; binary expressions are parsed by one precedence-climbing
loop over :data:`_BINARY_PRECEDENCE` (C's levels, left-associative).

Every pass of the front end walks the tree recursively, so how deep a
program may nest is a fixed bound, :data:`MAX_NESTING`, not whatever
stack the caller happens to leave: the parser refuses to descend more
levels than that, and :func:`parse_program` then refuses a tree more
nodes deep, measured without recursion (an operator chain, which the
parser builds in a loop, is as deep as it is long).
"""

from __future__ import annotations

from repro.errors import NestingError, ParseError
from repro.lang.ast import (
    ArrayDecl,
    Assign,
    BaseType,
    BinaryOp,
    Block,
    Break,
    Call,
    Continue,
    Expr,
    ExprStatement,
    Fence,
    For,
    FunctionDef,
    Identifier,
    If,
    Index,
    IntLiteral,
    Node,
    Param,
    Program,
    Qualifiers,
    Return,
    Stmt,
    UnaryOp,
    VarDecl,
    While,
)
from repro.lang.fold import fold_constant
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType

_TYPE_KEYWORDS = {
    TokenType.KW_INT: BaseType.INT,
    TokenType.KW_CHAR: BaseType.CHAR,
    TokenType.KW_LONG: BaseType.LONG,
    TokenType.KW_VOID: BaseType.VOID,
}

_QUALIFIER_KEYWORDS = {
    TokenType.KW_REG,
    TokenType.KW_SECRET,
    TokenType.KW_CONST,
    TokenType.KW_UNSIGNED,
}

_DECL_START = set(_TYPE_KEYWORDS) | _QUALIFIER_KEYWORDS

#: Deepest nesting the front end accepts, in parser levels (a block or
#: statement body, an expression inside another, a prefix operator) and
#: in syntax-tree nodes.  At this depth a program still compiles with 400
#: frames of the interpreter's default recursion limit (1000) in use by
#: the caller, so whether a program compiles does not depend on who
#: compiles it.
MAX_NESTING = 100

_UNARY_OPERATORS = {TokenType.MINUS, TokenType.NOT, TokenType.TILDE, TokenType.PLUS}

#: Binary operators and their precedence, loosest first, as in C.
_BINARY_PRECEDENCE = {
    TokenType.OR_OR: 1,
    TokenType.AND_AND: 2,
    TokenType.PIPE: 3,
    TokenType.CARET: 4,
    TokenType.AMP: 5,
    TokenType.EQ: 6,
    TokenType.NE: 6,
    TokenType.LT: 7,
    TokenType.LE: 7,
    TokenType.GT: 7,
    TokenType.GE: 7,
    TokenType.SHL: 8,
    TokenType.SHR: 8,
    TokenType.PLUS: 9,
    TokenType.MINUS: 9,
    TokenType.STAR: 10,
    TokenType.SLASH: 10,
    TokenType.PERCENT: 10,
}


class Parser:
    """Parses a token stream into a :class:`Program`."""

    def __init__(self, tokens: list[Token]):
        # A second EOF past the end lets ``_peek(1)`` index without a clamp
        # (``_advance`` never moves past the first).
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        #: Nested blocks, bodies, expressions and prefix operators open
        #: at the current token (see :meth:`_descend`).
        self.depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _check(self, token_type: TokenType) -> bool:
        return self.tokens[self.pos].type is token_type

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _match(self, *token_types: TokenType) -> Token | None:
        if self._peek().type in token_types:
            return self._advance()
        return None

    def _descend(self) -> None:
        """Open one more nesting level at the current token; past
        :data:`MAX_NESTING` the program is refused.  The caller closes
        the level (``self.depth -= 1``) when it returns; an error
        abandons the parse, so no level needs closing on the way out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(self.tokens[self.pos])

    def _expect(self, token_type: TokenType, what: str) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise ParseError(
                f"expected {what}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse(self) -> Program:
        program = Program()
        while not self._check(TokenType.EOF):
            qualifiers, base_type = self._parse_decl_prefix()
            name_token = self._expect(TokenType.IDENT, "identifier")
            if self._check(TokenType.LPAREN):
                program.functions.append(
                    self._parse_function_rest(qualifiers, base_type, name_token)
                )
            else:
                decls = self._parse_declarators_rest(qualifiers, base_type, name_token)
                program.globals.extend(decls)
        return program

    def _parse_decl_prefix(self) -> tuple[Qualifiers, BaseType]:
        """Parse a possibly-interleaved sequence of qualifiers and a base type."""
        start = self._peek()
        qualifiers = Qualifiers()
        base_type: BaseType | None = None
        saw_unsigned = False
        while self._peek().type in _DECL_START:
            token = self._advance()
            if token.type in _TYPE_KEYWORDS:
                base_type = _TYPE_KEYWORDS[token.type]
            elif token.type is TokenType.KW_REG:
                qualifiers = qualifiers.merged_with(Qualifiers(is_reg=True))
            elif token.type is TokenType.KW_SECRET:
                qualifiers = qualifiers.merged_with(Qualifiers(is_secret=True))
            elif token.type is TokenType.KW_CONST:
                qualifiers = qualifiers.merged_with(Qualifiers(is_const=True))
            elif token.type is TokenType.KW_UNSIGNED:
                saw_unsigned = True
        if base_type is None:
            if saw_unsigned:
                base_type = BaseType.INT
            else:
                raise ParseError(
                    f"expected a type, found {start.value!r}", start.line, start.column
                )
        return qualifiers, base_type

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _parse_declarators_rest(
        self, qualifiers: Qualifiers, base_type: BaseType, first_name: Token
    ) -> list[VarDecl | ArrayDecl]:
        """Parse the remainder of a declaration statement after the first
        identifier, handling comma-separated declarator lists."""
        decls = [self._parse_single_declarator(qualifiers, base_type, first_name)]
        while self._match(TokenType.COMMA):
            name_token = self._expect(TokenType.IDENT, "identifier")
            decls.append(self._parse_single_declarator(qualifiers, base_type, name_token))
        self._expect(TokenType.SEMICOLON, "';'")
        return decls

    def _parse_single_declarator(
        self, qualifiers: Qualifiers, base_type: BaseType, name_token: Token
    ) -> VarDecl | ArrayDecl:
        name = name_token.value
        line, column = name_token.line, name_token.column
        if self._match(TokenType.LBRACKET):
            length_expr = self._parse_expression()
            length = _require_constant(length_expr, name_token)
            self._expect(TokenType.RBRACKET, "']'")
            init_values: list[int] | None = None
            if self._match(TokenType.ASSIGN):
                init_values = self._parse_array_initializer(name_token)
            return ArrayDecl(
                name=name,
                base_type=base_type,
                length=length,
                qualifiers=qualifiers,
                init=init_values,
                line=line,
                column=column,
            )
        init: Expr | None = None
        if self._match(TokenType.ASSIGN):
            init = self._parse_expression()
        return VarDecl(
            name=name,
            base_type=base_type,
            qualifiers=qualifiers,
            init=init,
            line=line,
            column=column,
        )

    def _parse_array_initializer(self, context: Token) -> list[int]:
        self._expect(TokenType.LBRACE, "'{'")
        values: list[int] = []
        if not self._check(TokenType.RBRACE):
            values.append(_require_constant(self._parse_expression(), context))
            while self._match(TokenType.COMMA):
                if self._check(TokenType.RBRACE):
                    break  # allow a trailing comma
                values.append(_require_constant(self._parse_expression(), context))
        self._expect(TokenType.RBRACE, "'}'")
        return values

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def _parse_function_rest(
        self, qualifiers: Qualifiers, return_type: BaseType, name_token: Token
    ) -> FunctionDef:
        del qualifiers  # qualifiers on functions are accepted and ignored
        self._expect(TokenType.LPAREN, "'('")
        params: list[Param] = []
        if not self._check(TokenType.RPAREN):
            if self._check(TokenType.KW_VOID) and self._peek(1).type is TokenType.RPAREN:
                self._advance()
            else:
                params.append(self._parse_param())
                while self._match(TokenType.COMMA):
                    params.append(self._parse_param())
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_block()
        return FunctionDef(
            name=name_token.value,
            return_type=return_type,
            params=params,
            body=body,
            line=name_token.line,
            column=name_token.column,
        )

    def _parse_param(self) -> Param:
        qualifiers, base_type = self._parse_decl_prefix()
        name_token = self._expect(TokenType.IDENT, "parameter name")
        return Param(
            name=name_token.value,
            base_type=base_type,
            qualifiers=qualifiers,
            line=name_token.line,
            column=name_token.column,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> Block:
        self._descend()
        open_token = self._expect(TokenType.LBRACE, "'{'")
        statements: list[Stmt] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise ParseError("unterminated block", open_token.line, open_token.column)
            statements.extend(self._parse_statement())
        self._expect(TokenType.RBRACE, "'}'")
        self.depth -= 1
        return Block(statements=statements, line=open_token.line, column=open_token.column)

    def _parse_statement(self) -> list[Stmt]:
        """Parse one statement.

        Returns a list because a single declaration statement such as
        ``int a, b;`` expands to several AST nodes.
        """
        token = self._peek()
        if token.type in _DECL_START:
            qualifiers, base_type = self._parse_decl_prefix()
            name_token = self._expect(TokenType.IDENT, "identifier")
            return list(self._parse_declarators_rest(qualifiers, base_type, name_token))
        if token.type is TokenType.LBRACE:
            return [self._parse_block()]
        if token.type is TokenType.KW_IF:
            return [self._parse_if()]
        if token.type is TokenType.KW_WHILE:
            return [self._parse_while()]
        if token.type is TokenType.KW_FOR:
            return [self._parse_for()]
        if token.type is TokenType.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenType.SEMICOLON):
                value = self._parse_expression()
            self._expect(TokenType.SEMICOLON, "';'")
            return [Return(value=value, line=token.line, column=token.column)]
        if token.type is TokenType.KW_BREAK:
            self._advance()
            self._expect(TokenType.SEMICOLON, "';'")
            return [Break(line=token.line, column=token.column)]
        if token.type is TokenType.KW_CONTINUE:
            self._advance()
            self._expect(TokenType.SEMICOLON, "';'")
            return [Continue(line=token.line, column=token.column)]
        if token.type is TokenType.KW_FENCE:
            self._advance()
            # Tolerate the intrinsic-call spelling ``lfence();``.
            if self._match(TokenType.LPAREN):
                self._expect(TokenType.RPAREN, "')'")
            self._expect(TokenType.SEMICOLON, "';'")
            return [Fence(line=token.line, column=token.column)]
        if token.type is TokenType.SEMICOLON:
            self._advance()
            return []
        stmt = self._parse_simple_statement()
        self._expect(TokenType.SEMICOLON, "';'")
        return [stmt]

    def _parse_simple_statement(self) -> Stmt:
        """Parse an assignment or expression statement without the trailing
        semicolon (shared by statement and ``for`` header parsing)."""
        token = self._peek()
        lhs = self._parse_expression()
        if self._match(TokenType.ASSIGN):
            value = self._parse_expression()
            return Assign(target=lhs, value=value, line=token.line, column=token.column)
        if self._match(TokenType.PLUS_ASSIGN):
            value = self._parse_expression()
            return Assign(
                target=lhs,
                value=BinaryOp(op="+", left=lhs, right=value, line=token.line, column=token.column),
                line=token.line,
                column=token.column,
            )
        if self._match(TokenType.MINUS_ASSIGN):
            value = self._parse_expression()
            return Assign(
                target=lhs,
                value=BinaryOp(op="-", left=lhs, right=value, line=token.line, column=token.column),
                line=token.line,
                column=token.column,
            )
        if self._match(TokenType.PLUS_PLUS):
            one = IntLiteral(value=1, line=token.line, column=token.column)
            return Assign(
                target=lhs,
                value=BinaryOp(op="+", left=lhs, right=one, line=token.line, column=token.column),
                line=token.line,
                column=token.column,
            )
        if self._match(TokenType.MINUS_MINUS):
            one = IntLiteral(value=1, line=token.line, column=token.column)
            return Assign(
                target=lhs,
                value=BinaryOp(op="-", left=lhs, right=one, line=token.line, column=token.column),
                line=token.line,
                column=token.column,
            )
        return ExprStatement(expr=lhs, line=token.line, column=token.column)

    def _parse_if(self) -> If:
        token = self._expect(TokenType.KW_IF, "'if'")
        self._expect(TokenType.LPAREN, "'('")
        cond = self._parse_expression()
        self._expect(TokenType.RPAREN, "')'")
        then_body = self._parse_statement_as_block()
        else_body: Block | None = None
        if self._match(TokenType.KW_ELSE):
            else_body = self._parse_statement_as_block()
        return If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            line=token.line,
            column=token.column,
        )

    def _parse_while(self) -> While:
        token = self._expect(TokenType.KW_WHILE, "'while'")
        self._expect(TokenType.LPAREN, "'('")
        cond = self._parse_expression()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_statement_as_block()
        return While(cond=cond, body=body, line=token.line, column=token.column)

    def _parse_for(self) -> For:
        token = self._expect(TokenType.KW_FOR, "'for'")
        self._expect(TokenType.LPAREN, "'('")
        init: Stmt | None = None
        if not self._check(TokenType.SEMICOLON):
            if self._peek().type in _DECL_START:
                qualifiers, base_type = self._parse_decl_prefix()
                name_token = self._expect(TokenType.IDENT, "identifier")
                decl = self._parse_single_declarator(qualifiers, base_type, name_token)
                init = decl
            else:
                init = self._parse_simple_statement()
        self._expect(TokenType.SEMICOLON, "';'")
        cond: Expr | None = None
        if not self._check(TokenType.SEMICOLON):
            cond = self._parse_expression()
        self._expect(TokenType.SEMICOLON, "';'")
        step: Stmt | None = None
        if not self._check(TokenType.RPAREN):
            step = self._parse_simple_statement()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_statement_as_block()
        return For(
            init=init, cond=cond, step=step, body=body, line=token.line, column=token.column
        )

    def _parse_statement_as_block(self) -> Block:
        """Parse a statement and wrap it in a block if it is not one already."""
        token = self._peek()
        self._descend()
        statements = self._parse_statement()
        self.depth -= 1
        if len(statements) == 1 and isinstance(statements[0], Block):
            return statements[0]
        return Block(statements=statements, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self, min_precedence: int = 1) -> Expr:
        """Parse a binary expression whose operators bind at least as
        tightly as ``min_precedence``; equal precedence associates left."""
        self._descend()
        expr = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            precedence = _BINARY_PRECEDENCE.get(token.type, 0)
            if precedence < min_precedence:
                self.depth -= 1
                return expr
            self.pos += 1
            right = self._parse_expression(precedence + 1)
            expr = BinaryOp(
                op=token.value, left=expr, right=right, line=token.line, column=token.column
            )

    def _parse_unary(self) -> Expr:
        token = self.tokens[self.pos]
        if token.type in _UNARY_OPERATORS:
            self.pos += 1
            self._descend()
            operand = self._parse_unary()
            self.depth -= 1
            if token.type is TokenType.PLUS:
                return operand
            return UnaryOp(op=token.value, operand=operand, line=token.line, column=token.column)
        if token.type is TokenType.LPAREN and self.tokens[self.pos + 1].type in _DECL_START:
            # A C-style cast such as ``(long)detl`` — parse and discard the
            # type, the value semantics in MiniC are untyped integers.
            self.pos += 1
            self._parse_decl_prefix()
            self._expect(TokenType.RPAREN, "')'")
            self._descend()
            operand = self._parse_unary()
            self.depth -= 1
            return operand
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.type is TokenType.LBRACKET:
                if not isinstance(expr, Identifier):
                    raise ParseError(
                        "only named arrays can be indexed", token.line, token.column
                    )
                self.pos += 1
                index = self._parse_expression()
                self._expect(TokenType.RBRACKET, "']'")
                expr = Index(array=expr.name, index=index, line=token.line, column=token.column)
            elif token.type is TokenType.LPAREN:
                if not isinstance(expr, Identifier):
                    raise ParseError("only named functions can be called", token.line, token.column)
                self.pos += 1
                args: list[Expr] = []
                if not self._check(TokenType.RPAREN):
                    args.append(self._parse_expression())
                    while self._match(TokenType.COMMA):
                        args.append(self._parse_expression())
                self._expect(TokenType.RPAREN, "')'")
                expr = Call(name=expr.name, args=args, line=token.line, column=token.column)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        token = self.tokens[self.pos]
        if token.type is TokenType.IDENT:
            self.pos += 1
            return Identifier(name=token.value, line=token.line, column=token.column)
        if token.type is TokenType.INT_LITERAL:
            self.pos += 1
            text = token.value
            value = int(text, 16) if text.startswith(("0x", "0X")) else int(text)
            return IntLiteral(value=value, line=token.line, column=token.column)
        if token.type is TokenType.LPAREN:
            self.pos += 1
            expr = self._parse_expression()
            self._expect(TokenType.RPAREN, "')'")
            return expr
        raise ParseError(f"unexpected token {token.value!r}", token.line, token.column)


def _require_constant(expr: Expr, context: Token) -> int:
    """Evaluate a constant expression used in a declaration."""
    value = fold_constant(expr)
    if value is None:
        raise ParseError(
            "expected a constant expression", context.line, context.column
        )
    return value


def parse_program(source: str) -> Program:
    """Parse MiniC ``source`` text into a :class:`Program` AST.

    Raises :class:`~repro.errors.NestingError` for a program nested
    deeper than :data:`MAX_NESTING` (see the module docstring)."""
    program = Parser(tokenize(source)).parse()
    _check_tree_depth(program)
    return program


def _check_tree_depth(program: Program) -> None:
    """Refuse a syntax tree more than :data:`MAX_NESTING` nodes deep,
    walking it with an explicit stack instead of recursion."""
    stack: list[tuple[Node, int]] = [(program, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        node, depth = pop()
        if depth > MAX_NESTING:
            raise _too_deep(node)
        depth += 1
        for value in node.__dict__.values():
            if isinstance(value, Node):
                push((value, depth))
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        push((item, depth))


def _too_deep(where: Token | Node) -> NestingError:
    return NestingError(
        f"program nests too deeply (more than {MAX_NESTING} levels)",
        where.line,
        where.column,
    )
