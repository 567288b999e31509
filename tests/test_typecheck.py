"""Unit tests for symbol resolution and secret-taint analysis."""

import pytest

from repro.errors import TypeError_
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program


def check(source):
    return check_program(parse_program(source))


class TestSymbols:
    def test_global_scalar_size(self):
        info = check("int x; char c; long l; int main() { return 0; }")
        table = info.globals_table
        assert table.lookup("x").size_bytes == 4
        assert table.lookup("c").size_bytes == 1
        assert table.lookup("l").size_bytes == 8

    def test_array_size(self):
        info = check("int t[31]; int main() { return 0; }")
        symbol = info.globals_table.lookup("t")
        assert symbol.is_array
        assert symbol.size_bytes == 124

    def test_reg_variable_has_no_memory_footprint(self):
        info = check("reg int i; int main() { return 0; }")
        symbol = info.globals_table.lookup("i")
        assert symbol.size_bytes == 0
        assert not symbol.in_memory

    def test_locals_and_params_resolved_per_function(self):
        info = check("int f(int a) { int b; return a + b; }")
        assert info.symbol("f", "a").is_param
        assert not info.symbol("f", "b").is_param

    def test_locals_shadow_globals_lookup_order(self):
        info = check("int x; int f() { int x; return x; }")
        symbol = info.functions["f"].table.lookup("x")
        assert not symbol.is_global

    def test_unknown_symbol_raises(self):
        info = check("int main() { return 0; }")
        with pytest.raises(TypeError_):
            info.symbol("main", "nope")

    def test_array_initializer_recorded(self):
        info = check("int t[3] = {7, 8, 9}; int main() { return t[0]; }")
        assert info.array_initializers["t"] == [7, 8, 9]


class TestErrors:
    def test_duplicate_global(self):
        with pytest.raises(TypeError_):
            check("int x; int x; int main() { return 0; }")

    @pytest.mark.parametrize(
        "declarations",
        [
            "int t; int t;",
            "int i = 64; { int i = 0; }",
            "int t; char t;",
            "int t[4]; int t[8];",
            "int t; secret int t;",
        ],
    )
    def test_local_redeclaration(self, declarations):
        with pytest.raises(TypeError_):
            check(f"int main() {{ {declarations} return 0; }}")

    def test_duplicate_function(self):
        with pytest.raises(TypeError_):
            check("int f() { return 0; } int f() { return 1; }")

    def test_use_of_undeclared_variable(self):
        with pytest.raises(TypeError_):
            check("int main() { return y; }")

    def test_assignment_to_undeclared(self):
        with pytest.raises(TypeError_):
            check("int main() { y = 1; return 0; }")

    def test_indexing_scalar(self):
        with pytest.raises(TypeError_):
            check("int x; int main() { return x[0]; }")

    def test_whole_array_assignment_rejected(self):
        with pytest.raises(TypeError_):
            check("int t[4]; int main() { t = 1; return 0; }")

    def test_reg_array_rejected(self):
        with pytest.raises(TypeError_):
            check("reg int t[4]; int main() { return 0; }")

    def test_zero_length_array_rejected(self):
        with pytest.raises(TypeError_):
            check("int t[0]; int main() { return 0; }")

    def test_too_many_initializers(self):
        with pytest.raises(TypeError_):
            check("int t[2] = {1,2,3}; int main() { return 0; }")

    def test_intrinsic_call_is_allowed(self):
        info = check("int main() { return my_abs(0-3); }")
        assert "main" in info.functions


class TestSecretTaint:
    def test_declared_secret(self):
        info = check("secret int k; int main() { return 0; }")
        assert info.is_secret("k")

    def test_taint_through_assignment(self):
        info = check("secret int k; int x; int main() { x = k + 1; return x; }")
        assert info.is_secret("x")

    def test_taint_is_transitive(self):
        info = check(
            "secret int k; int a; int b;"
            "int main() { a = k; b = a * 2; return b; }"
        )
        assert info.is_secret("a")
        assert info.is_secret("b")

    def test_untainted_variable_stays_clean(self):
        info = check("secret int k; int x; int main() { x = 5; return x + k; }")
        assert not info.is_secret("x")

    def test_taint_through_array_read(self):
        info = check(
            "secret int key; int sbox[64]; int y;"
            "int main() { y = sbox[key]; return y; }"
        )
        assert info.is_secret("y") or info.is_secret("key")

    def test_taint_through_call_argument(self):
        info = check(
            "secret int k;"
            "int f(int a) { return a; }"
            "int main() { return f(k); }"
        )
        assert info.is_secret("a")

    def test_secret_local(self):
        info = check("int main() { secret int s; return s; }")
        assert info.is_secret("s")
