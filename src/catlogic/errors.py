"""Exception types and diagnostics shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass

CLIP_CHARS = 40


def clip(text: str) -> str:
    """Input text as a message quotes it: at most CLIP_CHARS characters, then
    an ellipsis, so a long token, name or argument cannot grow the line."""
    return text if len(text) <= CLIP_CHARS else text[:CLIP_CHARS] + "\u2026"


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of a DSL source text; lines and columns are 1-based."""

    line: int
    column: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"span start {self.start} after end {self.end}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, located by source span or by symbol path."""

    code: str
    message: str
    path: str = ""
    span: SourceSpan | None = None

    def __str__(self) -> str:
        where = str(self.span) if self.span is not None else self.path
        return f"{where}: {self.code}: {self.message}" if where else f"{self.code}: {self.message}"


class CatlogicError(Exception):
    """Base class for all package errors."""


class UnknownSymbolError(CatlogicError):
    pass


class SortMismatchError(CatlogicError):
    pass


class FragmentViolationError(CatlogicError):
    pass


class InvalidTheoryError(CatlogicError):
    """Raised by check_well_formed; carries the full diagnostic list."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class TheorySyntaxError(CatlogicError):
    """DSL parse failure with a location inside the input."""

    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{span}: {message}")


class CapacityExceededError(CatlogicError):
    pass


class NoNormalizerError(CatlogicError):
    pass


class SignatureMismatchError(CatlogicError):
    pass


class UnknownNeuronError(CatlogicError):
    pass


class InvalidHomError(CatlogicError):
    pass


class MissingIdentityError(CatlogicError):
    pass


class InvalidStateError(CatlogicError):
    pass
