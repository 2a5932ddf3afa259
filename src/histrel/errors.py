"""Exception hierarchy shared across the package."""

from __future__ import annotations


class HistrelError(Exception):
    """Base class for every package-specific error."""


class ValidationError(HistrelError, ValueError):
    """A domain object violates one of its structural invariants."""


class AlphabetMismatch(HistrelError):
    """Two objects that must share an alphabet do not."""


class UnknownSymbol(HistrelError):
    """An input label is not a member of the working alphabet."""

    def __init__(self, label: str, position: int | None = None, line: int | None = None):
        self.label = label
        self.position = position
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"position {position}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"unknown symbol {label!r}{suffix}")


class EmptySet(HistrelError):
    """A histogram set with no members."""


class LengthMismatch(HistrelError):
    """Sample lengths that must agree do not."""

    def __init__(self, line: int | None = None, expected: int | None = None, actual: int | None = None):
        self.line = line
        self.expected = expected
        self.actual = actual
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if expected is not None:
            parts.append(f"expected length {expected}, got {actual}")
        super().__init__("sample length mismatch" + (f" ({', '.join(parts)})" if parts else ""))


class ParseError(HistrelError):
    """An input file is not in a supported format."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + reason)


class NotBinary(HistrelError):
    """The two-symbol case split needs an alphabet of exactly two symbols."""


class CapExceeded(HistrelError):
    """Instance is larger than the brute-force caps allow."""


class NumericalFailure(HistrelError):
    """Float-mode arithmetic failed: pivoting made no progress, or the
    counts do not fit in a double."""


class IterationCapExceeded(NumericalFailure):
    """Float pivoting hit its iteration cap without reaching an optimum."""


class CertificationFailure(HistrelError):
    """A solution fails its certificate against the set it claims to solve,
    whether it was just solved or read back from a profile."""
