"""Symbol resolution, size computation, and secret-taint analysis for MiniC.

The checker produces a :class:`ProgramInfo` that later phases (lowering,
memory layout, side-channel detection) consume:

* a global symbol table and one local table per function;
* the byte size of every variable and array;
* the set of *secret-tainted* symbols: symbols declared with the
  ``secret`` qualifier plus any symbol that is (transitively) assigned an
  expression mentioning a secret symbol, or passed one as an argument.

Each function is walked once, each distinct statement node once (an
unrolled loop repeats one body object).  The walk declares the locals,
queues the use checks (run in walk order once every local is known) and
records the taint flows: an assignment's or declaration's source names
flow into its target, and a call's argument names into the callee's
parameter.  The secret set is then closed over the flows with a worklist.
A use the walk meets before the declaration of the local it names is an
error, as in C, unless a global of that name exists (the use then
resolves as the lookup order gives it).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import TypeError_
from repro.lang.ast import (
    ArrayDecl,
    Assign,
    BaseType,
    BinaryOp,
    Block,
    Call,
    Expr,
    ExprStatement,
    For,
    FunctionDef,
    Identifier,
    If,
    Index,
    Program,
    Qualifiers,
    Return,
    Stmt,
    UnaryOp,
    VarDecl,
    While,
)

#: Functions treated as pure intrinsics: calls to them are allowed without a
#: definition and produce no memory references.
INTRINSIC_FUNCTIONS = frozenset(
    {"my_abs", "abs", "min", "max", "nondet", "input", "assume", "assert"}
)


@dataclass(frozen=True)
class Symbol:
    """A resolved variable or array symbol."""

    name: str
    base_type: BaseType
    is_array: bool
    length: int
    qualifiers: Qualifiers
    is_global: bool
    is_param: bool = False

    @property
    def element_size(self) -> int:
        return self.base_type.size

    @property
    def size_bytes(self) -> int:
        """Total size in bytes occupied in memory (0 for ``reg`` symbols)."""
        if self.qualifiers.is_reg:
            return 0
        if self.is_array:
            return self.base_type.size * self.length
        return self.base_type.size

    @property
    def in_memory(self) -> bool:
        """Whether accesses to this symbol touch memory (and thus the cache)."""
        return not self.qualifiers.is_reg


class SymbolTable:
    """A simple two-level (global + function-local) symbol table."""

    def __init__(self, parent: "SymbolTable | None" = None):
        self.parent = parent
        self._symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> None:
        if symbol.name in self._symbols:
            raise TypeError_(f"duplicate declaration of {symbol.name!r}")
        self._symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        if name in self._symbols:
            return self._symbols[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def local_symbols(self) -> list[Symbol]:
        return list(self._symbols.values())

    def all_symbols(self) -> list[Symbol]:
        symbols = list(self._symbols.values())
        if self.parent is not None:
            symbols = self.parent.all_symbols() + symbols
        return symbols

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None


@dataclass
class FunctionInfo:
    """Checker output for one function."""

    definition: FunctionDef
    table: SymbolTable


@dataclass
class ProgramInfo:
    """Checker output for a whole program."""

    program: Program
    globals_table: SymbolTable
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    secret_symbols: set[str] = field(default_factory=set)
    array_initializers: dict[str, list[int]] = field(default_factory=dict)

    def symbol(self, function: str, name: str) -> Symbol:
        info = self.functions.get(function)
        table = info.table if info is not None else self.globals_table
        symbol = table.lookup(name)
        if symbol is None:
            raise TypeError_(f"unknown symbol {name!r} in function {function!r}")
        return symbol

    def is_secret(self, name: str) -> bool:
        return name in self.secret_symbols


class TypeChecker:
    """Checks a program and builds its :class:`ProgramInfo`."""

    def __init__(self, program: Program):
        self.program = program
        self.info = ProgramInfo(program=program, globals_table=SymbolTable())
        # Secret-taint flows: each name maps to the names its value flows
        # into, through an assignment, a declaration or a call argument.
        self._flows: defaultdict[str, set[str]] = defaultdict(set)
        # The function a call resolves to: the first definition of its name.
        self._callees: dict[str, FunctionDef] = {}
        for function in program.functions:
            self._callees.setdefault(function.name, function)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self) -> ProgramInfo:
        self._check_globals()
        for function in self.program.functions:
            self._check_function(function)
        self.info.secret_symbols = self._secret_symbols()
        return self.info

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _check_globals(self) -> None:
        for decl in self.program.globals:
            symbol = self._symbol_from_decl(decl, is_global=True)
            self.info.globals_table.declare(symbol)
            if isinstance(decl, ArrayDecl) and decl.init is not None:
                if len(decl.init) > decl.length:
                    raise TypeError_(
                        f"too many initializers for array {decl.name!r}",
                        decl.line,
                        decl.column,
                    )
                self.info.array_initializers[decl.name] = list(decl.init)

    def _check_function(self, function: FunctionDef) -> None:
        if function.name in self.info.functions:
            raise TypeError_(f"duplicate function {function.name!r}")
        table = SymbolTable(parent=self.info.globals_table)
        for param in function.params:
            table.declare(
                Symbol(
                    name=param.name,
                    base_type=param.base_type,
                    is_array=False,
                    length=1,
                    qualifiers=param.qualifiers,
                    is_global=False,
                    is_param=True,
                )
            )
        # One walk declares the locals, queues the use checks and records
        # the taint flows; the uses are checked once every local is known.
        self._table = table
        self._uses: list[Expr | Assign] = []
        # Each local's declaration: how many uses the walk had queued.
        self._declared_at: dict[str, int] = {}
        self._visited: set[int] = set()
        self._walk_statement(function.body)
        self.info.functions[function.name] = FunctionInfo(definition=function, table=table)
        self._check_uses(table)

    def _symbol_from_decl(self, decl: VarDecl | ArrayDecl, is_global: bool) -> Symbol:
        if isinstance(decl, ArrayDecl):
            if decl.length <= 0:
                raise TypeError_(
                    f"array {decl.name!r} must have a positive length", decl.line, decl.column
                )
            if decl.qualifiers.is_reg:
                raise TypeError_(
                    f"array {decl.name!r} cannot be register-allocated", decl.line, decl.column
                )
            return Symbol(
                name=decl.name,
                base_type=decl.base_type,
                is_array=True,
                length=decl.length,
                qualifiers=decl.qualifiers,
                is_global=is_global,
            )
        return Symbol(
            name=decl.name,
            base_type=decl.base_type,
            is_array=False,
            length=1,
            qualifiers=decl.qualifiers,
            is_global=is_global,
        )

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    def _walk_statement(self, stmt: Stmt) -> None:
        # Unrolling emits one shared body object for every iteration: walk
        # it once.  A declaration in it is thereby declared once, and any
        # other redeclaration (a shadowing one included) raises.
        if id(stmt) in self._visited:
            return
        self._visited.add(id(stmt))
        if isinstance(stmt, Block):
            for child in stmt.statements:
                self._walk_statement(child)
        elif isinstance(stmt, Assign):
            target = stmt.target
            self._uses.append(stmt)
            name = None
            if isinstance(target, Identifier):
                name = target.name
            elif isinstance(target, Index):
                name = target.array
                self._walk_expression(target.index, [])
            self._flow(stmt.value, name)
        elif isinstance(stmt, ExprStatement):
            self._walk_expression(stmt.expr, [])
        elif isinstance(stmt, VarDecl):
            self._declare_local(stmt)
            if stmt.init is not None:
                self._flow(stmt.init, stmt.name)
        elif isinstance(stmt, ArrayDecl):
            self._declare_local(stmt)
            if stmt.init is not None:
                self.info.array_initializers[stmt.name] = list(stmt.init)
        elif isinstance(stmt, If):
            self._walk_expression(stmt.cond, [])
            self._walk_statement(stmt.then_body)
            if stmt.else_body is not None:
                self._walk_statement(stmt.else_body)
        elif isinstance(stmt, While):
            self._walk_expression(stmt.cond, [])
            self._walk_statement(stmt.body)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self._walk_statement(stmt.init)
            if stmt.cond is not None:
                self._walk_expression(stmt.cond, [])
            if stmt.step is not None:
                self._walk_statement(stmt.step)
            self._walk_statement(stmt.body)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self._walk_expression(stmt.value, [])

    def _declare_local(self, decl: VarDecl | ArrayDecl) -> None:
        self._table.declare(self._symbol_from_decl(decl, is_global=False))
        self._declared_at[decl.name] = len(self._uses)

    def _flow(self, expr: Expr, target: str | None) -> None:
        """Walk ``expr``; every name it reads flows into ``target``."""
        names: list[str] = []
        self._walk_expression(expr, names)
        if target is not None:
            for name in names:
                self._flows[name].add(target)

    def _walk_expression(self, expr: Expr, names: list[str]) -> None:
        """Queue the use checks of ``expr``, record the flows of its call
        arguments into the callees' parameters, and append every name it
        reads to ``names``."""
        if isinstance(expr, Identifier):
            self._uses.append(expr)
            names.append(expr.name)
        elif isinstance(expr, BinaryOp):
            self._walk_expression(expr.left, names)
            self._walk_expression(expr.right, names)
        elif isinstance(expr, Index):
            self._uses.append(expr)
            names.append(expr.array)
            self._walk_expression(expr.index, names)
        elif isinstance(expr, UnaryOp):
            self._walk_expression(expr.operand, names)
        elif isinstance(expr, Call):
            callee = self._callees.get(expr.name)
            params = callee.params if callee is not None else ()
            for position, arg in enumerate(expr.args):
                arg_names: list[str] = []
                self._walk_expression(arg, arg_names)
                names.extend(arg_names)
                if position < len(params):
                    for name in arg_names:
                        self._flows[name].add(params[position].name)

    # ------------------------------------------------------------------
    # Use checking
    # ------------------------------------------------------------------
    def _check_uses(self, table: SymbolTable) -> None:
        """Resolve the queued uses in walk order: identifiers, indexed
        arrays, and each assignment's target."""
        for position, node in enumerate(self._uses):
            if isinstance(node, Identifier):
                self._check_declared_before(node, node.name, position)
                if table.lookup(node.name) is None:
                    raise TypeError_(f"use of undeclared {node.name!r}", node.line, node.column)
            elif isinstance(node, Index):
                self._check_indexed(node, table, position)
            else:
                self._check_assign_target(node.target, table, position)

    def _check_declared_before(self, node: Expr, name: str, position: int) -> None:
        """Reject the use at queue ``position`` of a local the walk
        declared later, unless a global of that name exists."""
        if (
            self._declared_at.get(name, -1) > position
            and self.info.globals_table.lookup(name) is None
        ):
            raise TypeError_(f"use of {name!r} before its declaration", node.line, node.column)

    def _check_assign_target(self, target: Expr, table: SymbolTable, position: int) -> None:
        if isinstance(target, Identifier):
            self._check_declared_before(target, target.name, position)
            symbol = table.lookup(target.name)
            if symbol is None:
                raise TypeError_(f"assignment to undeclared {target.name!r}", target.line, target.column)
            if symbol.is_array:
                raise TypeError_(
                    f"cannot assign to array {target.name!r} as a whole", target.line, target.column
                )
        elif isinstance(target, Index):
            self._check_indexed(target, table, position)
        else:
            raise TypeError_("invalid assignment target", target.line, target.column)

    def _check_indexed(self, node: Index, table: SymbolTable, position: int) -> None:
        self._check_declared_before(node, node.array, position)
        symbol = table.lookup(node.array)
        if symbol is None:
            raise TypeError_(f"indexing undeclared {node.array!r}", node.line, node.column)
        if not symbol.is_array:
            raise TypeError_(f"{node.array!r} is not an array", node.line, node.column)

    # ------------------------------------------------------------------
    # Secret taint
    # ------------------------------------------------------------------
    def _secret_symbols(self) -> set[str]:
        """The names declared ``secret`` and, transitively, every name a
        secret value flows into."""
        tables = [self.info.globals_table]
        tables += [info.table for info in self.info.functions.values()]
        secret = {
            symbol.name
            for table in tables
            for symbol in table.local_symbols()
            if symbol.qualifiers.is_secret
        }
        work = list(secret)
        while work:
            for target in self._flows.get(work.pop(), ()):
                if target not in secret:
                    secret.add(target)
                    work.append(target)
        return secret


def check_program(program: Program) -> ProgramInfo:
    """Type-check ``program`` and return its :class:`ProgramInfo`."""
    return TypeChecker(program).check()
