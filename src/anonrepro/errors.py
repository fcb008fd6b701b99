"""Exception types raised across the toolkit.

Every error that callers are expected to catch derives from AnonReproError.
ValidationError covers bad inputs (malformed files, non-conforming values,
unusable configurations); RuntimeFailure covers conditions that arise while
an otherwise valid run is executing.  The CLI maps the former to exit code 1
and the latter, together with anything unexpected, to exit code 2.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class AnonReproError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AnonReproError):
    """Invalid input: file contents, values, domains or configuration."""


class TraceParseError(ValidationError):
    """A trace or record file could not be parsed."""


class DomainError(ValidationError):
    """A domain specification is internally inconsistent."""


class NonConformingValueError(ValidationError):
    """A value does not conform to the domain it was paired with."""


class OracleError(ValidationError):
    """An oracle definition is malformed or badly typed."""


class ConfigError(ValidationError):
    """A technique or run configuration is unusable."""


class UnsupportedTechniqueError(ConfigError):
    """The technique does not apply to the given value kind."""


class MissingHierarchyError(ConfigError):
    """Recoding a categorical value requires a grouping hierarchy."""


class RuntimeFailure(AnonReproError):
    """A valid run hit a condition it cannot proceed past."""


class DegenerateIntervalError(RuntimeFailure):
    """An interval to regenerate from contains no representable value."""


class InvalidBaselineError(RuntimeFailure):
    """The original input does not trigger the oracle, so trials are moot."""


class EvaluationError(RuntimeFailure):
    """An oracle predicate could not be evaluated against an assignment."""


class EnumerationInfeasibleError(RuntimeFailure):
    """Exact probability enumeration is not possible for this setup."""


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Prefix ``where`` (an input path, an event, an oracle or a field) to an
    error raised inside."""
    try:
        yield
    except AnonReproError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
