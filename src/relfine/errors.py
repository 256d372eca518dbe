"""Exception types shared across the package, the field type checks that
raise them, the JSON-object loader and writer every file reader and writer
shares, and the guard that turns a failed write into a FormatError.

Each class declares the exit code the CLI returns for it, so raising the
right class matters more than the message wording.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from numbers import Integral, Real
from pathlib import Path
from typing import Iterator


class RelfineError(Exception):
    """Base class for all errors raised by this package."""
    exit_code: int  # what `relfine.cli.main` returns after printing the message


class FormatError(RelfineError, ValueError):
    """A file, grid, or config failed validation."""
    exit_code = 2


class SceneSpecError(RelfineError, ValueError):
    """A scene specification is invalid."""
    exit_code = 2


class UnknownCategoryError(RelfineError, LookupError):
    """A constraint or query names a category with no map."""
    exit_code = 3


class SceneSetMismatchError(RelfineError, ValueError):
    """Two runs being compared do not cover the same scenes."""
    exit_code = 4


def require_int(value: object, field: str, error: type[RelfineError] = FormatError) -> int:
    """`value` as an int; anything but an integer (bools and floats included) raises `error`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{field} must be an integer, got {value!r}")
    return int(value)


def require_real(value: object, field: str, error: type[RelfineError] = FormatError) -> float:
    """`value` as a float; anything but a finite int or float (bools included),
    or an int too large for a float, raises `error`."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise error(f"{field} must be a finite number, got {value!r}")
    return float(value)


@contextmanager
def writing_to(path: str | Path) -> Iterator[None]:
    """Wrap one file write or directory creation at `path`: an OSError it
    raises (a parent that is a regular file, a missing permission, a full
    disk) becomes FormatError naming the path, CLI exit code 2."""
    try:
        yield
    except OSError as exc:
        raise FormatError(f"{path}: cannot write: {exc.strerror}") from None


def write_json_object(path: str | Path, doc: dict) -> None:
    """Write `doc` to `path` as JSON: indent 2, sorted keys, a final newline."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with writing_to(path):
        Path(path).write_text(text, encoding="utf-8")


def load_json_object(path: str | Path) -> dict:
    """The JSON object stored in `path`. A file that is missing or unreadable,
    not UTF-8, not valid JSON (or nested too deeply, or holding an integer too
    long, to parse), or not an object at top level raises FormatError naming
    the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer past Python's int-conversion digit limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return doc
