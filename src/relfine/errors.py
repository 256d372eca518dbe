"""Exception types shared across the package, the field type checks that
raise them, the one check that applies them to a dataclass by its field
annotations, the one builder that turns a JSON object into a dataclass, the
JSON-object loader and writer every file reader and writer shares, and the
guard that turns a failed write into a FormatError.

Each class declares the exit code the CLI returns for it, so raising the
right class matters more than the message wording.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import MISSING, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


class RelfineError(Exception):
    """Base class for all errors raised by this package."""
    exit_code: int  # what `relfine.cli.main` returns after printing the message


class FormatError(RelfineError, ValueError):
    """A file, grid, or config failed validation."""
    exit_code = 2


class UnknownCategoryError(RelfineError, LookupError):
    """A constraint or query names a category with no map."""
    exit_code = 3


class SceneSetMismatchError(RelfineError, ValueError):
    """Two runs being compared do not cover the same scenes."""
    exit_code = 4


def require_int(value: object, field: str) -> int:
    """`value` as an int; anything but an integer (bools and floats included) raises FormatError."""
    if type(value) is int:  # the common case; the isinstance ABC check below is many times slower
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise FormatError(f"{field} must be an integer, got {value!r}")
    return int(value)


def require_real(value: object, field: str) -> float:
    """`value` as a float; anything but a finite int or float (bools included),
    or an int too large for a float, raises FormatError."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise FormatError(f"{field} must be a finite number, got {value!r}")
    return float(value)


_SAFE_NAME = re.compile(r"[A-Za-z0-9_-]+")


def require_safe_name(value: object, field: str) -> str:
    """`value` as a name that is one path component: a non-empty string of
    ASCII letters, digits, '_' and '-'. Anything else raises FormatError."""
    if not isinstance(value, str) or not _SAFE_NAME.fullmatch(value):
        raise FormatError(f"{field} must be a filename-safe name ([A-Za-z0-9_-]+), got {value!r}")
    return value


#: The check of a dataclass field, by its annotation. Each returns the value
#: in normal form: a plain int or float, or a filename-safe name.
_REQUIRE = {"int": require_int, "float": require_real, "str": require_safe_name}


def check_fields(obj: object) -> None:
    """Check every int, float and str field of the frozen dataclass `obj`, in
    field order, and store its normal form. Fields of any other annotation
    are left for `obj` to check."""
    for f in fields(obj):
        if f.type in _REQUIRE:
            object.__setattr__(obj, f.name, _REQUIRE[f.type](getattr(obj, f.name), f.name))


def require_keys(doc: dict, required: frozenset[str], optional: frozenset[str], where: str) -> None:
    """Raise FormatError, prefixed with `where`, when the object `doc` lacks a
    required key or holds a key that is neither required nor optional."""
    missing = required - doc.keys()
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")


def from_fields(cls: type[T], doc: object, where: str, **build: Callable[[object], object]) -> T:
    """The dataclass `cls` built from the JSON object `doc`, whose keys are its
    fields: those with no default are required, the rest optional. `build`
    maps a field to a function that turns its JSON value into what `cls`
    takes (a list of objects into dataclasses, say). The key checks come
    first; then `cls` checks its own fields, and a FormatError that the
    builders or `cls` raise is prefixed with `where`."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: must be an object, got {doc!r}")
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING)
    require_keys(doc, required, frozenset(f.name for f in fields(cls)) - required, where)
    try:
        return cls(**{key: build[key](value) if key in build else value for key, value in doc.items()})
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None


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
