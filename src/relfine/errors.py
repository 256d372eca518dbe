"""Exception types shared across the package, and the field type checks
that raise them.

The CLI maps these onto its documented exit codes, so raising the right
class matters more than the message wording.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class RelfineError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(RelfineError, ValueError):
    """A file, grid, or config failed validation (CLI exit code 2)."""


class SceneSpecError(RelfineError, ValueError):
    """A scene specification is invalid (CLI exit code 2)."""


class UnknownCategoryError(RelfineError, LookupError):
    """A constraint or query names a category with no map (CLI exit code 3)."""


class SceneSetMismatchError(RelfineError, ValueError):
    """Two runs being compared do not cover the same scenes (CLI exit code 4)."""


def require_int(value: object, field: str, error: type[RelfineError] = FormatError) -> int:
    """`value` as an int; anything but an integer (bools and floats included) raises `error`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{field} must be an integer, got {value!r}")
    return int(value)


def require_real(value: object, field: str, error: type[RelfineError] = FormatError) -> float:
    """`value` as a float; anything but a finite int or float (bools included) raises `error`."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise error(f"{field} must be a finite number, got {value!r}")
    return float(value)
