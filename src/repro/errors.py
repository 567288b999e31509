"""Common exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing front-end errors (bad MiniC source) from analysis
configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SourceError(ReproError):
    """An error attributable to the MiniC source program.

    Carries an optional source location so tools can point at the
    offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LexerError(SourceError):
    """Raised when the lexer encounters an unrecognised character."""


class ParseError(SourceError):
    """Raised when the parser encounters an unexpected token."""


class TypeError_(SourceError):
    """Raised by the type checker (named with a trailing underscore to
    avoid shadowing the builtin)."""


class NestingError(SourceError):
    """Raised when a program nests deeper than the compiler's recursive
    passes can follow: parentheses, statements, or a long operator chain
    (whose tree is as deep as the chain is long)."""


class LoweringError(ReproError):
    """Raised when the AST-to-IR lowering encounters an unsupported form."""


class CFGError(ReproError):
    """Raised for malformed control-flow graphs."""


class VerificationError(ReproError):
    """Raised when the IR verifier finds lint-level defects and the caller
    asked for them to be fatal (debug-mode verification before analyses).

    ``findings`` carries the structured :class:`repro.ir.verify.LintFinding`
    values behind the rendered message.
    """

    def __init__(self, message: str, findings: tuple = ()):
        self.findings = tuple(findings)
        super().__init__(message)


class AnalysisError(ReproError):
    """Raised when an analysis is configured or driven incorrectly."""


class SimulationError(ReproError):
    """Raised by the concrete interpreter / speculative simulator."""


class ConfigError(ReproError):
    """Raised for invalid cache or speculation configuration values."""
