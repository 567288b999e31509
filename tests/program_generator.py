"""A seeded generator of MiniC programs shaped like the Table 5/7 kernels.

:func:`generate_program` writes one program from a ``random.Random``:
global tables (some constant-initialised, read at known indexes the way
sbox chains are), scalars, a ``secret`` key and a ``secret`` table, and
a ``main`` that calls helper functions.  Its statements cover what the
front end has to get right on the benchmark kernels:

* nested counted loops bounded by ``<``, ``<=``, ``>`` and ``!=``, with
  positive and negative steps, which unrolling flattens;
* loops with a ``break`` and ``while`` loops, which stay rolled;
* calls with in-memory and ``reg`` parameters and return values, nested
  calls, and a call as a statement;
* ``reg`` locals, constant-, unknown-, secret- and counter-indexed reads
  and writes, unary operators, constant arithmetic and shifts;
* branch conditions written over several lines, some repeating one
  variable on each line;
* ``fence;`` statements.

Constant expressions in loop bounds divide no negative operand and no
shift count leaves ``0..63``, so the front end's constant folds agree
with the passes kept in ``tests/*_reference.py``.  The same seed always
gives the same text.
"""

from __future__ import annotations

import random

#: Element types of the global tables, and their sizes in bytes.
_ELEMENTS = {"char": 1, "int": 4, "long": 8}


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tables: dict[str, int] = {}
        self.sbox_len = 16
        self.helpers: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def globals(self) -> list[str]:
        rng = self.rng
        lines = []
        for k in range(rng.randrange(2, 5)):
            element = rng.choice(list(_ELEMENTS))
            length = rng.choice([8, 16, 40, 64, 200, 512])
            name = f"g{k}"
            self.tables[name] = length
            lines.append(f"{element} {name}[{length}];")
        values = list(range(self.sbox_len))
        rng.shuffle(values)
        lines.append(f"int sbox[{self.sbox_len}] = {{ {', '.join(map(str, values))} }};")
        lines.append("char pad[64] = { 1, 2, 3, 4, 5, 6, 7, 8 };")
        lines.append("int x; int y; long acc;")
        lines.append("int m;")
        lines.append("secret int key;")
        lines.append("secret char stab[32];")
        lines.append("reg int p;")
        return lines

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def table(self) -> tuple[str, int]:
        name = self.rng.choice(list(self.tables))
        return name, self.tables[name]

    def constant(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            return str(rng.randrange(0, 9))
        if roll < 0.7:
            return f"({rng.randrange(1, 9)} * {rng.randrange(0, 5)} + {rng.randrange(0, 4)})"
        if roll < 0.8:
            return f"({rng.randrange(0, 40)} / {rng.randrange(1, 6)})"
        if roll < 0.9:
            return f"(1 << {rng.randrange(0, 4)})"
        return f"({rng.randrange(0, 50)} % {rng.randrange(1, 9)})"

    def index(self, counters: list[str], length: int) -> str:
        rng = self.rng
        roll = rng.random()
        if counters and roll < 0.4:
            counter = rng.choice(counters)
            return rng.choice([counter, f"{counter} + 1", f"({counter} * 2) % {length}"])
        if roll < 0.6:
            return str(rng.randrange(length))
        if roll < 0.7:
            return f"sbox[{rng.randrange(self.sbox_len)}]"
        if roll < 0.8:
            return "m"
        if roll < 0.85:
            return "key"
        if roll < 0.9:
            # Indexed by an element of a secret table: a secret index.
            return f"stab[{rng.randrange(32)}] % {length}"
        return "x & 7"

    def read(self, counters: list[str], depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            name, length = self.table()
            return f"{name}[{self.index(counters, length)}]"
        if roll < 0.45:
            # An sbox chain: every index is known while the first is.
            inner = rng.randrange(self.sbox_len)
            return f"sbox[sbox[{inner}] % {self.sbox_len}]"
        if roll < 0.5:
            return f"stab[{rng.choice(['key', '3', 'x & 31'])}]"
        if roll < 0.55 and counters:
            return f"pad[{rng.choice(counters)}]"
        if roll < 0.75:
            return rng.choice(["x", "y", "acc", "m", "r", "p", "loc"])
        if roll < 0.85:
            return self.constant()
        if depth > 0 and self.helpers and len(counters) < 2 and roll < 0.9:
            # Every unrolled iteration inlines its calls again: keep the
            # expansions under the inliner's bound.
            return self.call(counters, depth - 1)
        if depth > 0:
            op = rng.choice(["+", "-", "*", "^", "&", "|", ">>", "<<"])
            left = self.read(counters, depth - 1)
            if op in ("<<", ">>"):
                right = str(rng.randrange(0, 5))
            else:
                right = self.read(counters, depth - 1)
            return f"({left} {op} {right})"
        return rng.choice(["-x", "~y", "!m"])

    def call(self, counters: list[str], depth: int) -> str:
        name, arity = self.rng.choice(self.helpers)
        args = ", ".join(self.read(counters, depth) for _ in range(arity))
        return f"{name}({args})"

    def condition(self, counters: list[str]) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            # The same variable on each line: refs that print alike.
            var = rng.choice(["x", "y", "m"])
            spread = "\n      + ".join([var] * rng.randrange(2, 5))
            return f"{spread}\n      > {rng.randrange(8)}"
        if roll < 0.45:
            return (
                f"{self.read(counters, 1)}\n      + {self.read(counters, 0)}"
                f"\n      > {rng.randrange(8)}"
            )
        op = rng.choice(["<", ">", "==", "!=", "<=", ">="])
        return f"{self.read(counters, 1)} {op} {self.read(counters, 0)}"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def assignment(self, counters: list[str]) -> str:
        rng = self.rng
        roll = rng.random()
        value = self.read(counters, 2)
        if roll < 0.3:
            name, length = self.table()
            return f"{name}[{self.index(counters, length)}] = {value};"
        if roll < 0.4:
            return f"stab[{rng.choice(['key', '1'])}] = {value};"
        if roll < 0.5:
            return f"{rng.choice(['x', 'y'])} += {value};"
        if roll < 0.55:
            return f"{self.read(counters, 1)};"
        if roll < 0.6 and self.helpers and len(counters) < 2:
            return f"{self.call(counters, 1)};"
        return f"{rng.choice(['x', 'y', 'acc', 'r', 'loc', 'm'])} = {value};"

    def counted_loop(self, counters: list[str], depth: int, indent: str) -> list[str]:
        rng = self.rng
        # Counted loops nest at most three deep, one counter each.
        counter = rng.choice([name for name in ("i", "j", "k") if name not in counters])
        trips = rng.randrange(1, 6)
        step = rng.choice([1, 1, 2, 3])
        start = rng.randrange(0, 4)
        shape = rng.choice(["<", "<=", ">", "!=", "<const"])
        if shape == "<":
            head = f"{counter} = {start}; {counter} < {start + trips * step}; {counter} += {step}"
        elif shape == "<const":
            head = (
                f"{counter} = {start}; {counter} < ({trips * step * 4} / 4 + {start}); "
                f"{counter} = {counter} + {step}"
            )
        elif shape == "<=":
            head = f"{counter} = {start}; {counter} <= {start + (trips - 1) * step}; {counter}++"
            step = 1
        elif shape == ">":
            top = start + trips * step
            head = f"{counter} = {top}; {counter} > {start}; {counter} -= {step}"
        else:
            head = (
                f"{counter} = {start}; {counter} != {start + trips * step}; "
                f"{counter} = {counter} + {step}"
            )
        body = self.statements(counters + [counter], depth - 1, indent + "  ", rng.randrange(1, 4))
        return [f"{indent}for ({head}) {{", *body, f"{indent}}}"]

    def escaping_loop(self, counters: list[str], depth: int, indent: str) -> list[str]:
        rng = self.rng
        body = self.statements(counters, depth - 1, indent + "  ", rng.randrange(1, 3))
        return [
            f"{indent}for (q = 0; q < {rng.randrange(2, 9)}; q++) {{",
            *body,
            f"{indent}  if (x > {rng.randrange(9)}) break;",
            f"{indent}}}",
        ]

    def while_loop(self, counters: list[str], depth: int, indent: str) -> list[str]:
        body = self.statements(counters, depth - 1, indent + "  ", 1)
        return [
            f"{indent}while (m < {self.rng.randrange(4, 12)}) {{",
            *body,
            f"{indent}  m = m + 1;",
            f"{indent}}}",
        ]

    def branch(self, counters: list[str], depth: int, indent: str) -> list[str]:
        rng = self.rng
        lines = [f"{indent}if ({self.condition(counters)}) {{"]
        lines += self.statements(counters, depth - 1, indent + "  ", rng.randrange(1, 3))
        if rng.random() < 0.6:
            lines.append(f"{indent}}} else {{")
            lines += self.statements(counters, depth - 1, indent + "  ", rng.randrange(1, 3))
        lines.append(f"{indent}}}")
        return lines

    def statements(self, counters: list[str], depth: int, indent: str, count: int) -> list[str]:
        rng = self.rng
        lines: list[str] = []
        for _ in range(count):
            roll = rng.random()
            if depth > 0 and roll < 0.2:
                lines += self.counted_loop(counters, depth, indent)
            elif depth > 0 and roll < 0.25:
                lines += self.escaping_loop(counters, depth, indent)
            elif depth > 0 and roll < 0.28:
                lines += self.while_loop(counters, depth, indent)
            elif depth > 0 and roll < 0.45:
                lines += self.branch(counters, depth, indent)
            elif roll < 0.5:
                lines.append(f"{indent}fence;")
            else:
                lines.append(f"{indent}{self.assignment(counters)}")
        return lines

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def helper(self, number: int) -> list[str]:
        rng = self.rng
        params = ["int a", rng.choice(["reg int b", "int b", "char b"])][: rng.randrange(1, 3)]
        name = f"helper{number}"
        lines = [
            f"int {name}({', '.join(params)}) {{",
            "  int t;",
            "  reg int i; reg int j; reg int k; reg int q;",
            "  reg int r; int loc;",
        ]
        lines.append("  t = a;")
        if len(params) > 1:
            lines.append("  t = t + b;")
        lines += self.statements([], 2, "  ", rng.randrange(1, 4))
        lines.append(f"  return t + {self.read([], 1)};")
        lines.append("}")
        self.helpers.append((name, len(params)))
        return lines

    def program(self) -> str:
        rng = self.rng
        lines = self.globals()
        for number in range(rng.randrange(0, 3)):
            lines += self.helper(number)
        lines += [
            "int main() {",
            "  reg int i; reg int j; reg int k; reg int q;",
            "  reg int r; int loc;",
            "  loc = 0; r = 0;",
        ]
        lines += self.statements([], 3, "  ", rng.randrange(4, 10))
        lines += ["  return x;", "}"]
        return "\n".join(lines) + "\n"


def generate_program(rng: random.Random) -> str:
    """One generated MiniC program (see the module docstring)."""
    return _Writer(rng).program()
