"""Unit tests for the MiniC parser."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_program


class TestGlobalDeclarations:
    def test_scalar_declaration(self):
        program = parse_program("int x;")
        assert len(program.globals) == 1
        decl = program.globals[0]
        assert isinstance(decl, ast.VarDecl)
        assert decl.name == "x"
        assert decl.base_type is ast.BaseType.INT

    def test_char_and_long(self):
        program = parse_program("char c; long l;")
        assert program.globals[0].base_type is ast.BaseType.CHAR
        assert program.globals[1].base_type is ast.BaseType.LONG

    def test_multiple_declarators(self):
        program = parse_program("int a, b, c;")
        assert [d.name for d in program.globals] == ["a", "b", "c"]

    def test_array_declaration(self):
        program = parse_program("int table[31];")
        decl = program.globals[0]
        assert isinstance(decl, ast.ArrayDecl)
        assert decl.length == 31

    def test_array_length_constant_expression(self):
        program = parse_program("char ph[64*510];")
        assert program.globals[0].length == 64 * 510

    def test_array_initializer(self):
        program = parse_program("int t[4] = { 1, 2, 3, 4 };")
        assert program.globals[0].init == [1, 2, 3, 4]

    def test_array_initializer_trailing_comma(self):
        program = parse_program("int t[3] = { 1, 2, 3, };")
        assert program.globals[0].init == [1, 2, 3]

    def test_scalar_initializer(self):
        program = parse_program("int x = 42;")
        assert isinstance(program.globals[0].init, ast.IntLiteral)
        assert program.globals[0].init.value == 42

    def test_qualifiers(self):
        program = parse_program("secret reg char k; const int c;")
        assert program.globals[0].qualifiers.is_secret
        assert program.globals[0].qualifiers.is_reg
        assert program.globals[1].qualifiers.is_const

    def test_unsigned_defaults_to_int(self):
        program = parse_program("unsigned x;")
        assert program.globals[0].base_type is ast.BaseType.INT

    def test_typedef_aliases(self):
        program = parse_program("uint8_t sbox[256]; uint32_t word;")
        assert program.globals[0].base_type is ast.BaseType.CHAR
        assert program.globals[1].base_type is ast.BaseType.INT


class TestFunctions:
    def test_function_with_params(self):
        program = parse_program("int quantl(int el, int detl) { return el; }")
        func = program.function("quantl")
        assert [p.name for p in func.params] == ["el", "detl"]
        assert func.return_type is ast.BaseType.INT

    def test_void_parameter_list(self):
        program = parse_program("int main(void) { return 0; }")
        assert program.function("main").params == []

    def test_empty_parameter_list(self):
        program = parse_program("int main() { return 0; }")
        assert program.function("main").params == []

    def test_has_function(self):
        program = parse_program("int f() { return 1; }")
        assert program.has_function("f")
        assert not program.has_function("g")
        with pytest.raises(KeyError):
            program.function("g")


class TestStatements:
    def _body(self, body_source: str) -> list[ast.Stmt]:
        program = parse_program("int main() { " + body_source + " }")
        return program.function("main").body.statements

    def test_assignment(self):
        (stmt,) = self._body("x = 1;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.target, ast.Identifier)

    def test_array_element_assignment(self):
        (stmt,) = self._body("a[3] = 1;")
        assert isinstance(stmt.target, ast.Index)
        assert stmt.target.array == "a"

    def test_compound_assignment_desugars(self):
        (stmt,) = self._body("x += 2;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.value, ast.BinaryOp)
        assert stmt.value.op == "+"

    def test_increment_desugars(self):
        (stmt,) = self._body("x++;")
        assert isinstance(stmt.value, ast.BinaryOp)
        assert stmt.value.right.value == 1

    def test_expression_statement(self):
        (stmt,) = self._body("ph[0];")
        assert isinstance(stmt, ast.ExprStatement)
        assert isinstance(stmt.expr, ast.Index)

    def test_if_else(self):
        (stmt,) = self._body("if (p == 0) { x = 1; } else { x = 2; }")
        assert isinstance(stmt, ast.If)
        assert stmt.else_body is not None

    def test_if_without_braces(self):
        (stmt,) = self._body("if (p == 0) x = 1; else x = 2;")
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.then_body, ast.Block)
        assert len(stmt.then_body.statements) == 1

    def test_while(self):
        (stmt,) = self._body("while (i < 10) { i = i + 1; }")
        assert isinstance(stmt, ast.While)

    def test_for(self):
        (stmt,) = self._body("for (i = 0; i < 30; i++) { a[i]; }")
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.Assign)
        assert isinstance(stmt.cond, ast.BinaryOp)
        assert isinstance(stmt.step, ast.Assign)

    def test_for_with_declaration(self):
        (stmt,) = self._body("for (reg int i = 0; i < 4; i++) { a[i]; }")
        assert isinstance(stmt.init, ast.VarDecl)
        assert stmt.init.qualifiers.is_reg

    def test_break_and_continue(self):
        statements = self._body("while (1) { if (x) break; continue; }")
        loop = statements[0]
        inner = loop.body.statements
        assert isinstance(inner[0].then_body.statements[0], ast.Break)
        assert isinstance(inner[1], ast.Continue)

    def test_return_without_value(self):
        (stmt,) = self._body("return;")
        assert isinstance(stmt, ast.Return)
        assert stmt.value is None

    def test_local_declarations_expand(self):
        statements = self._body("int a, b; a = 1;")
        assert len(statements) == 3
        assert isinstance(statements[0], ast.VarDecl)
        assert isinstance(statements[1], ast.VarDecl)

    def test_empty_statement_ignored(self):
        assert self._body(";;") == []


class TestExpressions:
    def _expr(self, text: str) -> ast.Expr:
        program = parse_program("int main() { x = " + text + "; }")
        return program.function("main").body.statements[0].value

    def test_precedence_multiplication_over_addition(self):
        expr = self._expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_below_additive(self):
        expr = self._expr("a + b >> 2")
        assert expr.op == ">>"

    def test_parentheses_override(self):
        expr = self._expr("(1 + 2) * 3")
        assert expr.op == "*"

    def test_relational_and_logical(self):
        expr = self._expr("a < 3 && b >= 4")
        assert expr.op == "&&"

    def test_unary_minus_and_not(self):
        expr = self._expr("-a + !b")
        assert expr.op == "+"
        assert expr.left.op == "-"
        assert expr.right.op == "!"

    def test_call_with_arguments(self):
        expr = self._expr("my_abs(el - 1)")
        assert isinstance(expr, ast.Call)
        assert expr.name == "my_abs"
        assert len(expr.args) == 1

    def test_index_expression(self):
        expr = self._expr("decis_levl[mil + 1]")
        assert isinstance(expr, ast.Index)
        assert expr.array == "decis_levl"

    def test_cast_is_ignored(self):
        expr = self._expr("(long)detl * 2")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.Identifier)

    def test_nested_calls_and_indexing(self):
        expr = self._expr("t[my_abs(i)] + t[0]")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.Index)
        assert isinstance(expr.left.index, ast.Call)


#: C's binary operators, the tightest-binding group first.
C_PRECEDENCE = [
    ("*", "/", "%"),
    ("+", "-"),
    ("<<", ">>"),
    ("<", "<=", ">", ">="),
    ("==", "!="),
    ("&",),
    ("^",),
    ("|",),
    ("&&",),
    ("||",),
]
BINDING = {op: -rank for rank, group in enumerate(C_PRECEDENCE) for op in group}
BINARY_OPERATORS = [op for group in C_PRECEDENCE for op in group]


def _shape(expr: ast.Expr):
    """``expr`` as nested tuples: operators with their operands."""
    if isinstance(expr, ast.BinaryOp):
        return (expr.op, _shape(expr.left), _shape(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return (expr.op, _shape(expr.operand))
    if isinstance(expr, ast.Index):
        return (f"{expr.array}[]", _shape(expr.index))
    if isinstance(expr, ast.Call):
        return (f"{expr.name}()", *map(_shape, expr.args))
    if isinstance(expr, ast.Identifier):
        return expr.name
    return expr.value


class TestPrecedence:
    PREFIX = "int main() { x = "

    def _expr(self, text: str) -> ast.Expr:
        program = parse_program(self.PREFIX + text + "; }")
        return program.function("main").body.statements[0].value

    def test_eighteen_binary_operators(self):
        assert len(BINARY_OPERATORS) == 18

    @pytest.mark.parametrize("op2", BINARY_OPERATORS)
    @pytest.mark.parametrize("op1", BINARY_OPERATORS)
    def test_operator_pair(self, op1, op2):
        """``a OP1 b OP2 c`` groups by C precedence, equal levels to the
        left, and each node carries its operator's position."""
        text = f"a {op1} b {op2} c"
        expr = self._expr(text)
        column = {name: len(self.PREFIX) + text.index(name) + 1 for name in "abc"}
        if BINDING[op2] > BINDING[op1]:
            assert _shape(expr) == (op1, "a", (op2, "b", "c"))
            first, second = expr, expr.right
            leaves = [expr.left, expr.right.left, expr.right.right]
        else:
            assert _shape(expr) == (op2, (op1, "a", "b"), "c")
            first, second = expr.left, expr
            leaves = [expr.left.left, expr.left.right, expr.right]
        assert (first.line, first.column) == (1, column["a"] + 2)
        assert (second.line, second.column) == (1, column["b"] + 2)
        assert [(leaf.name, leaf.column) for leaf in leaves] == sorted(column.items())

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("-a[i] * b", ("*", ("-", ("a[]", "i")), "b")),
            ("(long)x + y", ("+", "x", "y")),
            ("!f(x) && y", ("&&", ("!", ("f()", "x")), "y")),
            ("~a << -b", ("<<", ("~", "a"), ("-", "b"))),
            ("+a - b", ("-", "a", "b")),
            ("a * (b + c)", ("*", "a", ("+", "b", "c"))),
            ("t[i + 1] % f(a, b || c)", ("%", ("t[]", ("+", "i", 1)), ("f()", "a", ("||", "b", "c")))),
            ("a - b - c - d", ("-", ("-", ("-", "a", "b"), "c"), "d")),
            ("a || b && c | d ^ e & f", ("||", "a", ("&&", "b", ("|", "c", ("^", "d", ("&", "e", "f")))))),
        ],
    )
    def test_unary_cast_and_postfix(self, text, shape):
        assert _shape(self._expr(text)) == shape


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("int x")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_program("int main() { x = 1;")

    def test_non_constant_array_length(self):
        with pytest.raises(ParseError):
            parse_program("int a[n];")

    def test_indexing_non_identifier(self):
        with pytest.raises(ParseError):
            parse_program("int main() { x = (a + b)[0]; }")

    def test_unexpected_token_in_expression(self):
        with pytest.raises(ParseError):
            parse_program("int main() { x = * ; }")

    def test_missing_type(self):
        with pytest.raises(ParseError):
            parse_program("foo bar;")


class TestPaperPrograms:
    def test_quantl_parses(self):
        from repro.bench.programs import quantl_client_source

        program = parse_program(quantl_client_source())
        assert program.has_function("quantl")
        assert program.has_function("main")
        assert len(program.globals) == 3

    def test_figure2_parses(self):
        from repro.bench.programs import motivating_example_source

        program = parse_program(motivating_example_source(num_lines=16))
        names = [decl.name for decl in program.globals]
        assert names == ["ph", "l1", "l2", "p", "k"]
