"""Exception types and the Violation record shared across the package."""

from __future__ import annotations

from typing import NamedTuple


class Violation(NamedTuple):
    """One failed check, with the config/field path it refers to.

    `code` names the kind of check: structure (grouping, coverage,
    refresh ranges), pe_array, capacity or refresh_style (no refresh
    location fits a register budget).
    """

    code: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class PredictorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PredictorError):
    """Bad user-supplied configuration (layer, hardware, options, files)."""


class CountOverflowError(PredictorError, OverflowError):
    """An integer count exceeded the 64-bit budget."""


class MappingError(PredictorError):
    """A loop nest / refresh combination violates legality rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class DslError(PredictorError):
    """Parse or lowering error in dataflow text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class InstanceTooLargeError(PredictorError):
    """The brute-force simulation would exceed its iteration cap."""
