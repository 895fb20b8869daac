"""Exception types shared across the package, and the config range check.

The CLI maps them to its exit codes: a ParseError (a file or config value
that does not parse) or a ContractViolation (a value out of range, a bad
flag, or inputs that do not fit together) exits 2 with an `error: ...`
line, and a NumericOverflow exits 3.
"""

import math
from contextlib import contextmanager
from dataclasses import fields


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


def check_config(cfg, ranges):
    """Raise ContractViolation naming the first bad key of the dataclass cfg.

    A float field must be finite; then each (key, test, requirement) row
    of ranges must hold.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractViolation(
                f"config key {f.name!r} must be finite, got {value!r}")
    for key, ok, requirement in ranges:
        if not ok(getattr(cfg, key)):
            raise ContractViolation(f"config key {key!r} must be {requirement}, "
                                    f"got {getattr(cfg, key)!r}")
