"""Exception types shared across the package, the text reader behind
every file parser, and the config range check.

The CLI maps them to its exit codes: a ParseError (a file or config value
that does not parse) or a ContractViolation (a value out of range, a bad
flag, or inputs that do not fit together) exits 2 with an `error: ...`
line, and a NumericOverflow exits 3.
"""

import math
from contextlib import contextmanager
from dataclasses import fields


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions.

    keys are the config keys whose values it refuses, each named in the
    message: the one key check_config refused, or those whose size made
    generated frames overflow; () elsewhere. key is the one key of a
    refusal that names one, else None."""

    def __init__(self, message, *keys):
        super().__init__(message)
        self.keys = keys

    @property
    def key(self):
        return self.keys[0] if len(self.keys) == 1 else None


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
        return placed(self.message, self.line, self.path)


def placed(message, line=None, path=None) -> str:
    """message as `path: line N: message`, each prefix present when known."""
    if line is not None:
        message = f"line {line}: {message}"
    return message if path is None else f"{path}: {message}"


def place_keys(exc: ContractViolation, sources: dict):
    """Write into exc's message where each config key it names was set;
    sources maps a key to its (path, line), line None for a place without
    lines such as `command line`. A refusal of one key reads
    `path: line N: message`, as placed writes it; a refusal of more keys
    names each key's place after the key (`'noise_std' (cfg.txt: line 3)`).
    A key not in sources, one left at its default, has no place."""
    message = str(exc)
    if exc.key in sources:
        path, line = sources[exc.key]
        message = placed(message, line, path)
    elif len(exc.keys) > 1:
        for key in exc.keys:
            if key in sources:
                path, line = sources[key]
                where = path if line is None else f"{path}: line {line}"
                message = message.replace(repr(key), f"{key!r} ({where})", 1)
    exc.args = (message,)


@contextmanager
def in_file(path):
    """Name `path` in every ParseError raised inside the block."""
    try:
        yield
    except ParseError as exc:
        exc.path = path
        raise


def read_text(path) -> str:
    """The UTF-8 text of the file at path. A byte that does not decode is a
    ParseError naming the file and the line it is on."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def decode_text(raw: bytes, path) -> str:
    """The UTF-8 text of raw, the bytes of the file at path, as read_text
    reads them."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; its line breaks count lines
        line = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8",
                         line=line, path=path) from None


def check_config(cfg, ranges):
    """Raise ContractViolation naming the first bad key of the dataclass cfg,
    in its message and as its key.

    A float field must be finite; then each (key, test, requirement) row
    of ranges must hold.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractViolation(
                f"config key {f.name!r} must be finite, got {value!r}", f.name)
    for key, ok, requirement in ranges:
        if not ok(getattr(cfg, key)):
            raise ContractViolation(f"config key {key!r} must be {requirement}, "
                                    f"got {getattr(cfg, key)!r}", key)
