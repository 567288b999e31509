"""Tests for the high-level compile_source driver."""

import pytest

from repro import CompiledProgram, compile_source
from repro.errors import LexerError, NestingError, ReproError, TypeError_
from repro.lang.parser import MAX_NESTING


class TestCompileSource:
    def test_returns_compiled_program(self):
        program = compile_source("int main() { return 0; }")
        assert isinstance(program, CompiledProgram)
        assert program.entry_function == "main"

    def test_entry_defaults_to_main(self):
        program = compile_source("int f() { return 1; } int main() { return f(); }")
        assert program.cfg.name == "main"

    def test_single_function_is_entry(self):
        program = compile_source("int quantl(int el, int detl) { return el; }")
        assert program.cfg.name == "quantl"

    def test_explicit_entry(self):
        program = compile_source(
            "int f() { return 1; } int g() { return 2; }", entry="g"
        )
        assert program.cfg.name == "g"

    def test_unknown_entry_rejected(self):
        with pytest.raises(ReproError):
            compile_source("int main() { return 0; }", entry="nope")

    def test_ambiguous_entry_rejected(self):
        with pytest.raises(ReproError):
            compile_source("int f() { return 1; } int g() { return 2; }")

    def test_no_functions_rejected(self):
        with pytest.raises(ReproError):
            compile_source("int x;")

    def test_unroll_toggle(self):
        source = "char a[256]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i*64]; } return 0; }"
        unrolled = compile_source(source, unroll=True)
        rolled = compile_source(source, unroll=False)
        assert unrolled.unroll_stats.loops_unrolled == 1
        assert rolled.unroll_stats.loops_unrolled == 0
        assert len(rolled.cfg.blocks) > len(unrolled.cfg.blocks)

    def test_inline_toggle(self):
        source = "int f(int x) { return x; } int main() { return f(1); }"
        inlined = compile_source(source, inline=True)
        not_inlined = compile_source(source, inline=False)
        assert len(inlined.cfg.blocks) >= len(not_inlined.cfg.blocks)

    def test_line_size_propagates_to_layout(self):
        program = compile_source("char a[128]; int main() { a[0]; return 0; }", line_size=32)
        assert program.layout.line_size == 32
        assert program.layout.object("a").num_blocks == 4

    def test_cfgs_contains_all_functions(self):
        program = compile_source("int f() { return 1; } int main() { return f(); }")
        assert set(program.cfgs) == {"f", "main"}


#: Programs nested past :data:`~repro.lang.parser.MAX_NESTING`, one per
#: shape: parentheses, statements, and a left-deep operator chain.
DEEP_SOURCES = {
    "parentheses": "int main() { int a; a = 1; return "
    + "(" * 1000
    + "a"
    + ")" * 1000
    + "; }",
    "ifs": "int main() { int a; a = 1; "
    + "if (a) { " * 300
    + "a = 2;"
    + " }" * 300
    + " return a; }",
    "sum": "int main() { int a; a = 1; return " + " + ".join(["a"] * 3000) + "; }",
}

#: Literals that ``int()`` rejects, each at line 1, column 22.
MALFORMED_LITERALS = ("0x", "0xZ", "1²")

#: Sources that use a local before its declaration, which C rejects.
USE_BEFORE_DECLARATION = (
    "int main() { x = 1; int x; return x; }",
    "int main() { int y; y = x; int x; return y; }",
)


def _lint_exit(source, capsys, monkeypatch):
    import io

    from repro.service.cli import main

    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code = main(["lint", "-"])
    return code, capsys.readouterr().err


class TestSourceErrors:
    @pytest.mark.parametrize("literal", MALFORMED_LITERALS)
    def test_malformed_literal_is_a_lexer_error(self, literal):
        with pytest.raises(LexerError) as excinfo:
            compile_source(f"int main() {{ int a = {literal}; return a; }}")
        assert "malformed integer literal" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 22)

    @pytest.mark.parametrize("literal", MALFORMED_LITERALS)
    def test_lint_exits_two_on_malformed_literal(self, literal, capsys, monkeypatch):
        code, err = _lint_exit(
            f"int main() {{ int a = {literal}; return a; }}", capsys, monkeypatch
        )
        assert code == 2
        assert "malformed integer literal" in err

    @pytest.mark.parametrize("shape", sorted(DEEP_SOURCES))
    def test_deep_nesting_is_a_source_error(self, shape):
        with pytest.raises(NestingError, match="nests too deeply"):
            compile_source(DEEP_SOURCES[shape])

    @pytest.mark.parametrize("shape", sorted(DEEP_SOURCES))
    def test_lint_exits_two_on_deep_nesting(self, shape, capsys, monkeypatch):
        code, err = _lint_exit(DEEP_SOURCES[shape], capsys, monkeypatch)
        assert code == 2
        assert "nests too deeply" in err

    @pytest.mark.parametrize("source", USE_BEFORE_DECLARATION)
    def test_use_before_declaration_is_a_type_error(self, source):
        with pytest.raises(TypeError_, match="use of 'x' before its declaration"):
            compile_source(source)

    @pytest.mark.parametrize("source", USE_BEFORE_DECLARATION)
    def test_lint_exits_two_on_use_before_declaration(self, source, capsys, monkeypatch):
        code, err = _lint_exit(source, capsys, monkeypatch)
        assert code == 2
        assert "use of 'x' before its declaration" in err

    def test_seventy_nested_parentheses_compile(self):
        """Precedence climbing keeps a parenthesis level to a few frames."""
        source = "int main() { int a; a = 1; return " + "(" * 70 + "a" + ")" * 70 + "; }"
        assert compile_source(source).entry_function == "main"


#: Program families nested ``n`` deep: parentheses, braced ``if``
#: statements, a left-deep operator chain (its tree is as deep as the chain
#: is long), prefix operators, array indexes and calls.
NESTED_SHAPES = {
    "parentheses": lambda n: "int main() { int a; a = 1; return "
    + "(" * n + "a" + ")" * n + "; }",
    "ifs": lambda n: "int main() { int a; a = 1; "
    + "if (a) { " * n + "a = 2;" + " }" * n + " return a; }",
    "chain": lambda n: "int main() { int a; a = 1; return "
    + " + ".join(["a"] * n) + "; }",
    "negations": lambda n: "int main() { int a; a = 1; return " + "- " * n + "a; }",
    "right chain": lambda n: "int main() { int a; a = 1; return "
    + "a + (" * n + "a" + ")" * n + "; }",
    "indexes": lambda n: "int t[4]; int main() { int a; a = 1; return "
    + "t[" * n + "a" + "]" * n + "; }",
    "calls": lambda n: "int f(int x) { return x; } int main() { int a; a = 1; return "
    + "f(" * n + "a" + ")" * n + "; }",
}


def _with_frames(frames: int, call):
    """``call()`` with ``frames`` more of the interpreter's stack in use."""
    if frames == 0:
        return call()
    return _with_frames(frames - 1, call)


def _compiles(source: str) -> bool:
    try:
        compile_source(source)
    except NestingError:
        return False
    return True


class TestNestingBound:
    """Whether a program compiles is a property of the program: the same
    bound holds at the top of the stack and under 400 caller frames."""

    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    @pytest.mark.parametrize("frames", [0, 400])
    def test_both_sides_of_the_bound(self, shape, frames):
        build = NESTED_SHAPES[shape]
        low, high = 1, 2 * MAX_NESTING  # deepest accepted, at the top level
        while low < high:
            middle = (low + high + 1) // 2
            low, high = (middle, high) if _compiles(build(middle)) else (low, middle - 1)
        assert MAX_NESTING // 3 <= low < MAX_NESTING, low
        program = _with_frames(frames, lambda: compile_source(build(low)))
        assert program.entry_function == "main"
        with pytest.raises(NestingError, match=f"more than {MAX_NESTING} levels"):
            _with_frames(frames, lambda: compile_source(build(low + 1)))
