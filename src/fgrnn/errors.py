"""Exception types shared across the package."""

from contextlib import contextmanager


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions."""


class NumericOverflow(FloatingPointError):
    """A forward or backward pass produced a non-finite value."""


class ParseError(ValueError):
    """A data or config file could not be parsed.

    The message reads `path: line N: message`, each prefix present when
    known. `line` is 1-based.
    """

    def __init__(self, message, line=None, path=None):
        super().__init__(message)
        self.message, self.line, self.path = message, line, path

    def __str__(self):
        text = self.message
        if self.line is not None:
            text = f"line {self.line}: {text}"
        return text if self.path is None else f"{self.path}: {text}"


@contextmanager
def in_file(path):
    """Name `path` in every ParseError raised inside the block."""
    try:
        yield
    except ParseError as exc:
        exc.path = path
        raise


class ConfigError(Exception):
    """Invalid configuration or mismatched inputs at the CLI level."""
