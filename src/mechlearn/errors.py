"""Semantic exception hierarchy.

Exit-code mapping used by the CLI: UsageError/ConfigError/DomainError -> 1,
CapacityError -> 2, InvariantError -> 3.
"""

from contextlib import contextmanager


class MechlearnError(Exception):
    """Base class for all package errors."""


class UsageError(MechlearnError):
    """Caller violated an operation's precondition or API contract."""


class DomainError(UsageError):
    """A numeric argument is outside its declared domain."""


class ConfigError(UsageError):
    """A configuration file or description is malformed or unsupported."""


class ParseError(ConfigError):
    """A serialized artifact failed validation at load time."""


class CapacityError(MechlearnError):
    """An enumeration or solver budget guard was exceeded."""


class InvariantError(MechlearnError):
    """An internal invariant that should never fail did fail."""


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; a file that cannot be opened or
    decoded raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc


# characters write_text encodes at once, so that writing a large text holds
# one slice of it, not a whole encoded copy
WRITE_SLICE_CHARS = 2**20


def write_text(path: str, text: str, end: str = "") -> None:
    """Write ``text`` and then ``end`` to a UTF-8 file, ``WRITE_SLICE_CHARS``
    characters at a time; a file that cannot be created or written raises
    ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(text), WRITE_SLICE_CHARS):
                fh.write(text[i : i + WRITE_SLICE_CHARS])
            fh.write(end)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc}") from exc


def config_int(value, key: str) -> int:
    """The value of config key ``key``, which must be an integer: a bool, a
    float or a string raises ConfigError naming the key."""
    if type(value) is not int:
        raise ConfigError(f"{key}: {value!r} is not an integer")
    return value


def config_real(value, key: str) -> float:
    """The value of config key ``key``, which must be a JSON number: a bool,
    a string or an integer too large for a float raises ConfigError naming
    the key."""
    if type(value) not in (int, float):
        raise ConfigError(f"{key}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: {value!r} is too large") from None


def config_ints(value, key: str) -> tuple[int, ...]:
    """The value of config key ``key``, which must be a list of integers."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: {value!r} is not a list")
    return tuple(config_int(v, key) for v in value)


@contextmanager
def config_errors(path: str):
    """Interpret a config read from ``path``: a missing key, a value of the
    wrong type or shape, or a number that cannot be parsed or is beyond
    float range raises ConfigError naming the file. Wrap only the
    interpretation, so that internal faults keep their own exit code."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise ConfigError(
            f"{path}: malformed config: {type(exc).__name__}: {exc}"
        ) from exc
