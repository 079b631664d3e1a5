"""Exception types shared across the package, and the field checks that
raise ConfigurationError."""

import math


class HatstoryError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionError(HatstoryError, ValueError):
    """Operand shapes do not line up."""


class NumericDomainError(HatstoryError, ValueError):
    """Math outside the representable/defined domain (log of 0, overflow, NaN)."""


class ContractError(HatstoryError, ValueError):
    """A documented precondition was violated by the caller."""


class IndexRangeError(HatstoryError, IndexError):
    """An index, a row or a token id, falls outside the axis it selects from."""


class StateError(HatstoryError, RuntimeError):
    """Operation invoked in an invalid object state (e.g. replaying a spent tape)."""


class DeterminismError(HatstoryError, RuntimeError):
    """A function expected to be pure returned different values on repeat evaluation."""


class ConfigurationError(HatstoryError, ValueError):
    """Invalid configuration value or combination."""


def check_int(name, value, low, high=math.inf):
    """Raise ConfigurationError naming `name` unless `value` is an int, not
    a bool, in [low, high]."""
    if type(value) is not int or not low <= value <= high:
        bound = f">= {low}" + (f" and <= {high}" if high < math.inf else "")
        raise ConfigurationError(f"{name} must be an integer {bound}, got {value!r}")


def check_number(name, value, low, above=False, below=math.inf):
    """Raise ConfigurationError naming `name` unless `value` is a finite int
    or float, not a bool, in [low, below), or in (low, below) when `above`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) < math.inf and (value > low if above else value >= low)
            and value < below):
        bound = f"{'>' if above else '>='} {low}" + (f" and < {below}" if below < math.inf else "")
        raise ConfigurationError(f"{name} must be a finite number {bound}, got {value!r}")


class DataError(HatstoryError, ValueError):
    """Malformed dataset content; message carries the offending location."""


class FormatError(HatstoryError, ValueError):
    """A serialized artifact does not follow its documented layout."""


class CorruptionError(HatstoryError, ValueError):
    """A serialized artifact is structurally valid but its content is damaged."""
